"""Command-line interface.

Subcommands expose the counting series, correlation computations, the
longest-run distribution, and the independent oracle.  Data goes to
stdout, diagnostics to stderr.  Exit codes: 0 on success, 1 for usage or
validation errors, 2 for internal invariant violations.
"""

import argparse
import math
import sys
from fractions import Fraction
from typing import Sequence

from . import __version__
from .errors import PivotError, RuncompError
from .oracle import CompositionFilter, oracle_count
from .runs import bounded_run_count, bounded_run_series, carlitz_series, longest_run_distribution
from .series import Series
from .solver import avoidance_series, build_system, easy_case_series
from .words import Word, correlation_polynomial, correlation_vector, make_forbidden_list, parse_word_list

FORMATS = ("text", "csv", "json")


def _print_series(series: Series, fmt: str) -> None:
    if fmt == "text":
        print(series)
    elif fmt == "csv":
        print(series.to_csv(), end="")
    else:
        print(series.to_json())


def carlitz(max_weight: int, fmt: str) -> None:
    """Series counting compositions with no two equal adjacent parts."""
    _print_series(carlitz_series(max_weight), fmt)


def runs(r: int, max_weight: int, fmt: str) -> None:
    """Series counting compositions with all runs shorter than r."""
    _print_series(bounded_run_series(r, max_weight), fmt)


def count(n: int, k: int, r: int) -> None:
    """Number of compositions of n into k parts with all runs shorter than r."""
    print(bounded_run_count(n, k, r))


def avoid(words_text: str, max_weight: int, fmt: str, method: str) -> None:
    """Series counting compositions avoiding every listed factor."""
    forbidden = make_forbidden_list(parse_word_list(words_text))
    if method == "easy":
        series = easy_case_series(forbidden, max_weight)
    else:
        series = avoidance_series(build_system(forbidden, max_weight))
    _print_series(series, fmt)


def correlate(x_text: str, y_text: str, max_weight: int | None) -> None:
    """Correlation vector and polynomial of the first word on the second."""
    x = Word.parse(x_text)
    y = Word.parse(y_text)
    if max_weight is None:
        max_weight = x.weight
    print(correlation_vector(x, y))
    print(correlation_polynomial(x, y, max_weight).text_by_length())


def longest_run(n: int, fmt: str) -> None:
    """Distribution of the longest run length over compositions of n."""
    dist = longest_run_distribution(n)
    rows = []
    cumulative = Fraction(0)
    for length in sorted(dist.counts):
        c = dist.counts[length]
        cumulative += Fraction(c, dist.total)
        rows.append((length, c, _decimal(Fraction(c, dist.total)), _decimal(cumulative)))
    mean_text = _rational(dist.mean)
    log2_text = f"{math.log2(n):.4f}"
    if fmt == "json":
        import json

        obj = {
            "n": n,
            "total": str(dist.total),
            "rows": [{"L": length, "count": str(c), "probability": p, "cumulative": cum}
                     for length, c, p, cum in rows],
            "mean": mean_text,
            "log2_n": log2_text,
        }
        print(json.dumps(obj, indent=2))
        return
    header = ("L", "count", "probability", "cumulative")
    if fmt == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join(str(v) for v in row))
        print(f"total {dist.total} mean {mean_text} log2(n) {log2_text}", file=sys.stderr)
        return
    print(" ".join(header))
    for row in rows:
        print(" ".join(str(v) for v in row))
    print(f"total {dist.total}")
    print(f"mean {mean_text}")
    print(f"log2(n) {log2_text}")


def oracle_cmd(n: int, k: int | None, max_run_below: int | None,
               avoid_text: str | None, force: bool) -> None:
    """Count through an automaton of the forbidden blocks (independent of all series)."""
    if max_run_below is not None and avoid_text is not None:
        raise RuncompError("use either --max-run-below or --avoid, not both")
    if max_run_below is not None:
        filt = CompositionFilter.max_run_below(max_run_below)
    elif avoid_text is not None:
        filt = CompositionFilter.avoid_factors(make_forbidden_list(parse_word_list(avoid_text)))
    else:
        filt = CompositionFilter.all()
    print(oracle_count(n, k, filt, force=force))


class _Formatter(argparse.HelpFormatter):
    """Help and usage errors that start "Usage: ", the line scripts look for."""

    def add_usage(self, usage, actions, groups, prefix=None):
        super().add_usage(usage, actions, groups, "Usage: " if prefix is None else prefix)


class _Parser(argparse.ArgumentParser):
    """A parser that takes no abbreviated options and spells its help option only ``--help``."""

    def __init__(self, **kwargs) -> None:
        super().__init__(allow_abbrev=False, add_help=False, formatter_class=_Formatter, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")


def _at_least(minimum: int):
    """Argument type: an int no smaller than ``minimum``."""

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not a valid integer") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{value} is not in the range x>={minimum}")
        return value

    return convert


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="runcomp", description="Exact counting of integer compositions with "
                     "forbidden factors and bounded runs.")
    parser.add_argument("--version", action="version", version=f"runcomp, version {__version__}",
                        help="Show the version and exit.")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)

    def command(name, handler):
        summary = handler.__doc__
        sub = commands.add_parser(name, help=summary, description=summary)
        sub.set_defaults(handler=handler)
        return sub

    def format_option(sub):
        sub.add_argument("--format", dest="fmt", choices=FORMATS, default="text",
                         help="Output format (default: %(default)s).")

    sub = command("carlitz", carlitz)
    sub.add_argument("--max-weight", type=_at_least(0), required=True,
                     help="Truncation bound on the composed integer.")
    format_option(sub)

    sub = command("runs", runs)
    sub.add_argument("--r", type=_at_least(1), required=True,
                     help="Run bound: count compositions with every run shorter than r.")
    sub.add_argument("--max-weight", type=_at_least(0), required=True)
    format_option(sub)

    sub = command("count", count)
    sub.add_argument("--n", type=_at_least(0), required=True)
    sub.add_argument("--k", type=_at_least(0), required=True)
    sub.add_argument("--r", type=_at_least(1), required=True)

    sub = command("avoid", avoid)
    sub.add_argument("--words", dest="words_text", metavar="WORDS", required=True,
                     help='Forbidden factors, ";"-separated: "1 1;2 2".')
    sub.add_argument("--max-weight", type=_at_least(0), required=True)
    format_option(sub)
    sub.add_argument("--method", choices=("auto", "system", "easy"), default="auto",
                     help="One solver serves all three; easy also requires zero "
                          "cross-correlations (default: %(default)s).")

    sub = command("correlate", correlate)
    sub.add_argument("--x", dest="x_text", metavar="WORD", required=True,
                     help='First word, e.g. "1 1 0".')
    sub.add_argument("--y", dest="y_text", metavar="WORD", required=True, help="Second word.")
    sub.add_argument("--max-weight", type=_at_least(0),
                     help="Truncation bound for the polynomial; defaults to the weight of the "
                          "first word.")

    sub = command("longest-run", longest_run)
    sub.add_argument("--n", type=_at_least(1), required=True)
    format_option(sub)

    sub = command("oracle", oracle_cmd)
    sub.add_argument("--n", type=_at_least(1), required=True)
    sub.add_argument("--k", type=_at_least(0),
                     help="Restrict to compositions with exactly k parts.")
    sub.add_argument("--max-run-below", type=_at_least(1),
                     help="Keep compositions whose runs are all shorter than this.")
    sub.add_argument("--avoid", dest="avoid_text", metavar="WORDS",
                     help='Keep compositions avoiding these factors ("1 1;2 2").')
    sub.add_argument("--force", action="store_true", help="Count past the safety cap.")
    return parser


def _decimal(value: Fraction) -> str:
    """Exact decimal rendering; valid whenever the denominator is 2^a 5^b."""
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        raise ValueError(f"{value} has no terminating decimal expansion")
    digits = max(twos, fives)
    scaled = value.numerator * 10 ** digits // value.denominator
    if digits == 0:
        return str(scaled)
    whole, frac = divmod(scaled, 10 ** digits)
    frac_text = str(frac).zfill(digits).rstrip("0")
    return f"{whole}.{frac_text}" if frac_text else str(whole)


def _rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point with the documented exit codes (0 ok, 1 usage/validation, 2 internal)."""
    try:
        options = vars(_build_parser().parse_args(argv))
    except SystemExit as exc:  # argparse exits 0 after --help or --version, 2 on a usage error
        return 0 if exc.code == 0 else 1
    handler = options.pop("handler")
    try:
        handler(**options)
    except KeyboardInterrupt:
        print("aborted", file=sys.stderr)
        return 1
    except PivotError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except RuncompError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything else is an invariant violation
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
