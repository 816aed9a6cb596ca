"""Command-line interface: output goldens, formats, exit codes and start-up."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import runcomp.cli
from runcomp import CompositionFilter, PivotError, Series, oracle_count
from runcomp.cli import main

CARLITZ_5_TEXT = "1+qx+qx^2+(q+2q^2)x^3+(q+2q^2+q^3)x^4+(q+4q^2+2q^3)x^5"


def invoke(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCarlitzCommand:
    def test_text_golden(self, capsys):
        code, out, _ = invoke(capsys, "carlitz", "--max-weight", "5", "--format", "text")
        assert code == 0
        assert out == CARLITZ_5_TEXT + "\n"

    def test_degenerate_bound(self, capsys):
        code, out, _ = invoke(capsys, "carlitz", "--max-weight", "0")
        assert code == 0
        assert out == "1\n"

    def test_csv_row_matches_enumeration(self, capsys):
        code, out, _ = invoke(capsys, "carlitz", "--max-weight", "12", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,k,coefficient"
        rows = {(int(n), int(k)): int(c) for n, k, c in
                (line.split(",") for line in lines[1:])}
        assert rows[12, 2] == oracle_count(12, 2, CompositionFilter.max_run_below(2))

    def test_json_roundtrip_is_byte_identical(self, capsys):
        code, out, _ = invoke(capsys, "carlitz", "--max-weight", "6", "--format", "json")
        assert code == 0
        assert json.dumps(json.loads(out), indent=2) + "\n" == out
        assert Series.from_json(out).to_json() + "\n" == out


class TestRunsAndCount:
    def test_runs_golden_r3(self, capsys):
        code, out, _ = invoke(capsys, "runs", "--r", "3", "--max-weight", "4")
        assert code == 0
        assert out == "1+qx+(q+q^2)x^2+(q+2q^2)x^3+(q+3q^2+3q^3)x^4\n"

    def test_runs_golden_r4(self, capsys):
        code, out, _ = invoke(capsys, "runs", "--r", "4", "--max-weight", "4")
        assert code == 0
        assert out == "1+qx+(q+q^2)x^2+(q+2q^2+q^3)x^3+(q+3q^2+3q^3)x^4\n"

    def test_count_goldens(self, capsys):
        assert invoke(capsys, "count", "--n", "4", "--k", "3", "--r", "3")[:2] == (0, "3\n")
        assert invoke(capsys, "count", "--n", "3", "--k", "3", "--r", "4")[:2] == (0, "1\n")
        assert invoke(capsys, "count", "--n", "6", "--k", "2", "--r", "7")[:2] == (0, "5\n")

    def test_invalid_run_bound_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "runs", "--r", "0", "--max-weight", "4")
        assert code == 1
        assert "--r" in err


class TestAvoidCommand:
    def test_text_golden(self, capsys):
        code, out, _ = invoke(capsys, "avoid", "--words", "1 1", "--max-weight", "3")
        assert code == 0
        assert out == "1+qx+qx^2+(q+2q^2)x^3\n"

    def test_methods_agree(self, capsys):
        base = ("avoid", "--words", "1 1;2 2", "--max-weight", "6")
        auto = invoke(capsys, *base, "--method", "auto")
        system = invoke(capsys, *base, "--method", "system")
        easy = invoke(capsys, *base, "--method", "easy")
        assert auto == system == easy
        assert auto[0] == 0

    def test_carlitz_sublist_matches_carlitz_command(self, capsys):
        _, avoid_out, _ = invoke(capsys, "avoid", "--words", "1 1;2 2;3 3", "--max-weight", "6")
        _, carlitz_out, _ = invoke(capsys, "carlitz", "--max-weight", "6")
        assert avoid_out == carlitz_out

    def test_easy_method_rejected_for_cross_correlated_list(self, capsys):
        code, _, err = invoke(capsys, "avoid", "--words", "1 2;2 1",
                              "--max-weight", "4", "--method", "easy")
        assert code == 1
        assert "cross-correlation" in err

    def test_non_reduced_list_names_the_pair(self, capsys):
        code, _, err = invoke(capsys, "avoid", "--words", "1 1;1 1 2", "--max-weight", "4")
        assert code == 1
        assert "'1 1' is a factor of '1 1 2'" in err

    def test_unparseable_words_rejected(self, capsys):
        code, _, err = invoke(capsys, "avoid", "--words", "1 x", "--max-weight", "4")
        assert code == 1
        assert "cannot parse" in err

    def test_letters_are_ascii_digits_only(self, capsys):
        # int() would read "1_0" as the letter 10 and "+1 \u0661" as the word 1 1.
        for words in ("1_0", "+1 \u0661"):
            code, out, err = invoke(capsys, "avoid", "--words", words, "--max-weight", "4")
            assert code == 1
            assert out == ""
            assert "not a run of digits" in err

    def test_empty_word_names_its_position(self, capsys):
        code, _, err = invoke(capsys, "avoid", "--words", "1 1;", "--max-weight", "4")
        assert code == 1
        assert err == "error: cannot parse word list '1 1;': word 2 of 2 ('') is empty\n"


class TestCorrelateCommand:
    def test_binary_example(self, capsys):
        code, out, _ = invoke(capsys, "correlate", "--x", "1 1 0", "--y", "1 0 1 1")
        assert code == 0
        assert out.splitlines()[0] == "011"

    def test_binary_example_swapped(self, capsys):
        code, out, _ = invoke(capsys, "correlate", "--x", "1 0 1 1", "--y", "1 1 0")
        assert code == 0
        assert out.splitlines()[0] == "0010"

    def test_autocorrelation_polynomial(self, capsys):
        code, out, _ = invoke(capsys, "correlate", "--x", "2 2", "--y", "2 2")
        assert code == 0
        assert out == "11\n1+x^2q\n"


class TestLongestRunCommand:
    def test_weight_three_table(self, capsys):
        code, out, _ = invoke(capsys, "longest-run", "--n", "3")
        assert code == 0
        assert out.splitlines() == [
            "L count probability cumulative",
            "1 3 0.75 0.75",
            "3 1 0.25 1",
            "total 4",
            "mean 3/2",
            "log2(n) 1.5850",
        ]

    def test_weight_one(self, capsys):
        code, out, _ = invoke(capsys, "longest-run", "--n", "1")
        assert code == 0
        assert "1 1 1 1" in out.splitlines()[1]

    def test_csv_keeps_footer_on_stderr(self, capsys):
        code, out, err = invoke(capsys, "longest-run", "--n", "3", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["L,count,probability,cumulative", "1,3,0.75,0.75", "3,1,0.25,1"]
        assert "mean 3/2" in err

    def test_json_roundtrip_is_byte_identical(self, capsys):
        code, out, _ = invoke(capsys, "longest-run", "--n", "5", "--format", "json")
        assert code == 0
        assert json.dumps(json.loads(out), indent=2) + "\n" == out
        obj = json.loads(out)
        assert obj["total"] == "16"
        assert sum(int(row["count"]) for row in obj["rows"]) == 16


class TestOracleCommand:
    def test_run_filter(self, capsys):
        code, out, _ = invoke(capsys, "oracle", "--n", "5", "--k", "2", "--max-run-below", "2")
        assert code == 0
        assert out == "4\n"

    def test_avoid_filter(self, capsys):
        code, out, _ = invoke(capsys, "oracle", "--n", "3", "--avoid", "1 1")
        assert code == 0
        assert out == "3\n"

    def test_filters_are_mutually_exclusive(self, capsys):
        code, _, err = invoke(capsys, "oracle", "--n", "4",
                              "--max-run-below", "2", "--avoid", "1 1")
        assert code == 1
        assert "not both" in err

    def test_cap_refusal(self, capsys):
        code, _, err = invoke(capsys, "oracle", "--n", "30")
        assert code == 1
        assert "--force" in err


class TestExitCodes:
    def test_help_succeeds(self, capsys):
        assert invoke(capsys, "--help")[0] == 0

    def test_version_from_sources(self, capsys):
        code, out, _ = invoke(capsys, "--version")
        assert code == 0
        assert "0.1.0" in out

    def test_version_text(self, capsys):
        assert invoke(capsys, "--version")[:2] == (0, "runcomp, version 0.1.0\n")

    @pytest.mark.parametrize("argv", [
        ("carlitz", "--max", "5"),
        ("runs", "--r", "3", "--max-w", "4"),
        ("avoid", "--word", "1 1", "--max-weight", "4"),
        ("oracle", "--n", "5", "--max-run", "2"),
        ("oracle", "--n", "30", "--for"),
        ("longest-run", "--n", "3", "--form", "csv"),
    ])
    def test_abbreviated_options_are_usage_errors(self, capsys, argv):
        code, out, _ = invoke(capsys, *argv)
        assert (code, out) == (1, "")

    def test_unknown_option(self, capsys):
        assert invoke(capsys, "carlitz", "--bogus")[0] == 1

    def test_missing_required_option(self, capsys):
        assert invoke(capsys, "carlitz")[0] == 1

    def test_no_command(self, capsys):
        assert invoke(capsys)[0] == 1

    def test_internal_error_maps_to_two(self, capsys, monkeypatch):
        def explode(system):
            raise PivotError("no unit pivot available")

        monkeypatch.setattr(runcomp.cli, "avoidance_series", explode)
        code, _, err = invoke(capsys, "avoid", "--words", "1 2;2 1", "--max-weight", "4")
        assert code == 2
        assert "internal error" in err

    def test_internal_value_error_maps_to_two(self, capsys, monkeypatch):
        def explode(n):
            raise ValueError("1/3 has no terminating decimal expansion")

        monkeypatch.setattr(runcomp.cli, "longest_run_distribution", explode)
        code, _, err = invoke(capsys, "longest-run", "--n", "3")
        assert code == 2
        assert "internal error" in err

    def test_unexpected_exception_maps_to_two(self, capsys, monkeypatch):
        def explode(max_weight):
            raise RuntimeError("boom")

        monkeypatch.setattr(runcomp.cli, "carlitz_series", explode)
        code, _, err = invoke(capsys, "carlitz", "--max-weight", "3")
        assert code == 2
        assert "internal error" in err


# Every subcommand that takes a required int option, with the least value each option admits.
INT_OPTIONS = {
    "carlitz": {"--max-weight": 0},
    "runs": {"--r": 1, "--max-weight": 0},
    "count": {"--n": 0, "--k": 0, "--r": 1},
    "longest-run": {"--n": 1},
    "oracle": {"--n": 1},
}
KNOWN_OPTIONS = {"--help", "--version", "--format", "--method", "--words", "--x", "--y",
                 "--k", "--max-run-below", "--avoid", "--force"}.union(*INT_OPTIONS.values())


def _is_int_text(text):
    try:
        int(text)
    except ValueError:
        return False
    return True


@st.composite
def bad_argvs(draw):
    """A usage error: a non-int or too small value, an unknown option, a missing
    value, or no subcommand at all."""
    command = draw(st.sampled_from(sorted(INT_OPTIONS)))
    options = INT_OPTIONS[command]
    values = {name: str(draw(st.integers(least, least + 3))) for name, least in options.items()}
    target = draw(st.sampled_from(sorted(options)))
    fault = draw(st.sampled_from(["not an int", "below minimum", "unknown option",
                                  "missing value", "no subcommand"]))
    tail = []
    if fault == "not an int":
        values[target] = draw(st.text(max_size=6).filter(lambda t: not _is_int_text(t)))
    elif fault == "below minimum":
        values[target] = str(options[target] - draw(st.integers(1, 10 ** 20)))
    elif fault == "unknown option":
        name = draw(st.from_regex(r"--[a-z][a-z-]{0,12}", fullmatch=True).filter(
            lambda n: n not in KNOWN_OPTIONS))
        tail = draw(st.sampled_from([[name], [name, "1"]]))
    elif fault == "missing value":
        tail = [target]
        del values[target]
    argv = [command] + [piece for name, value in values.items() for piece in (name, value)] + tail
    if fault == "no subcommand":
        argv = argv[1:]
    return argv


class TestUsageErrors:
    @settings(max_examples=150, deadline=None)
    @given(bad_argvs())
    def test_bad_argv_exits_one_with_empty_stdout(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert (code, out.getvalue()) == (1, ""), argv
        assert err.getvalue()


SRC = Path(runcomp.__file__).resolve().parent.parent


class TestStartup:
    """Fresh interpreters: what ``import runcomp.cli`` loads, and ``--help`` as a script sees it."""

    ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

    def test_import_loads_every_module_and_no_heavy_dependency(self):
        code = ("import sys; before = set(sys.modules); import runcomp.cli; "
                "print(' '.join(sorted(set(sys.modules) - before)))")
        loaded = set(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                    env=self.ENV, check=True).stdout.split())
        assert not {"click", "dataclasses", "inspect"} & loaded
        modules = ("series", "words", "solver", "runs", "oracle")
        assert {f"runcomp.{name}" for name in modules} <= loaded

    def test_help_starts_with_usage(self):
        done = subprocess.run([sys.executable, "-m", "runcomp", "--help"],
                              capture_output=True, text=True, env=self.ENV)
        assert done.returncode == 0
        assert done.stdout.startswith("Usage: ")
