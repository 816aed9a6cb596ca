"""Command-line interface.

Subcommands expose the counting series, correlation computations, the
longest-run distribution, and the independent oracle.  Data goes to
stdout, diagnostics to stderr.  Exit codes: 0 on success, 1 for usage or
validation errors, 2 for internal invariant violations.
"""

import json
import math
import sys
from fractions import Fraction
from typing import Sequence

import click

from . import __version__
from .errors import PivotError, RuncompError
from .oracle import CompositionFilter, oracle_count
from .runs import bounded_run_count, bounded_run_series, carlitz_series, longest_run_distribution
from .series import Series
from .solver import avoidance_series, build_system, easy_case_series
from .words import Word, correlation_polynomial, correlation_vector, make_forbidden_list, parse_word_list

FORMATS = click.Choice(["text", "csv", "json"])


@click.group()
@click.version_option(version=__version__, prog_name="runcomp")
def cli() -> None:
    """Exact counting of integer compositions with forbidden factors and bounded runs."""


def _echo_series(series: Series, fmt: str) -> None:
    if fmt == "text":
        click.echo(str(series))
    elif fmt == "csv":
        click.echo(series.to_csv(), nl=False)
    else:
        click.echo(series.to_json())


@cli.command()
@click.option("--max-weight", type=click.IntRange(min=0), required=True,
              help="Truncation bound on the composed integer.")
@click.option("--format", "fmt", type=FORMATS, default="text", show_default=True)
def carlitz(max_weight: int, fmt: str) -> None:
    """Series counting compositions with no two equal adjacent parts."""
    _echo_series(carlitz_series(max_weight), fmt)


@cli.command()
@click.option("--r", "r", type=click.IntRange(min=1), required=True,
              help="Run bound: count compositions with every run shorter than r.")
@click.option("--max-weight", type=click.IntRange(min=0), required=True)
@click.option("--format", "fmt", type=FORMATS, default="text", show_default=True)
def runs(r: int, max_weight: int, fmt: str) -> None:
    """Series counting compositions with all runs shorter than r."""
    _echo_series(bounded_run_series(r, max_weight), fmt)


@cli.command()
@click.option("--n", "n", type=click.IntRange(min=0), required=True)
@click.option("--k", "k", type=click.IntRange(min=0), required=True)
@click.option("--r", "r", type=click.IntRange(min=1), required=True)
def count(n: int, k: int, r: int) -> None:
    """Number of compositions of n into k parts with all runs shorter than r."""
    click.echo(str(bounded_run_count(n, k, r)))


@cli.command()
@click.option("--words", "words_text", required=True,
              help='Forbidden factors, ";"-separated: "1 1;2 2".')
@click.option("--max-weight", type=click.IntRange(min=0), required=True)
@click.option("--format", "fmt", type=FORMATS, default="text", show_default=True)
@click.option("--method", type=click.Choice(["auto", "system", "easy"]),
              default="auto", show_default=True,
              help="One solver serves all three; easy also requires zero cross-correlations.")
def avoid(words_text: str, max_weight: int, fmt: str, method: str) -> None:
    """Series counting compositions avoiding every listed factor."""
    forbidden = make_forbidden_list(parse_word_list(words_text))
    if method == "easy":
        series = easy_case_series(forbidden, max_weight)
    else:
        series = avoidance_series(build_system(forbidden, max_weight))
    _echo_series(series, fmt)


@cli.command()
@click.option("--x", "x_text", required=True, help='First word, e.g. "1 1 0".')
@click.option("--y", "y_text", required=True, help='Second word.')
@click.option("--max-weight", type=click.IntRange(min=0), default=None,
              help="Truncation bound for the polynomial; defaults to the weight of the first word.")
def correlate(x_text: str, y_text: str, max_weight: int | None) -> None:
    """Correlation vector and polynomial of the first word on the second."""
    x = Word.parse(x_text)
    y = Word.parse(y_text)
    if max_weight is None:
        max_weight = x.weight
    click.echo(str(correlation_vector(x, y)))
    click.echo(correlation_polynomial(x, y, max_weight).text_by_length())


@cli.command("longest-run")
@click.option("--n", "n", type=click.IntRange(min=1), required=True)
@click.option("--format", "fmt", type=FORMATS, default="text", show_default=True)
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
        obj = {
            "n": n,
            "total": str(dist.total),
            "rows": [{"L": length, "count": str(c), "probability": p, "cumulative": cum}
                     for length, c, p, cum in rows],
            "mean": mean_text,
            "log2_n": log2_text,
        }
        click.echo(json.dumps(obj, indent=2))
        return
    header = ("L", "count", "probability", "cumulative")
    if fmt == "csv":
        click.echo(",".join(header))
        for row in rows:
            click.echo(",".join(str(v) for v in row))
        click.echo(f"total {dist.total} mean {mean_text} log2(n) {log2_text}", err=True)
        return
    click.echo(" ".join(header))
    for row in rows:
        click.echo(" ".join(str(v) for v in row))
    click.echo(f"total {dist.total}")
    click.echo(f"mean {mean_text}")
    click.echo(f"log2(n) {log2_text}")


@cli.command("oracle")
@click.option("--n", "n", type=click.IntRange(min=1), required=True)
@click.option("--k", "k", type=click.IntRange(min=0), default=None,
              help="Restrict to compositions with exactly k parts.")
@click.option("--max-run-below", type=click.IntRange(min=1), default=None,
              help="Keep compositions whose runs are all shorter than this.")
@click.option("--avoid", "avoid_text", default=None,
              help='Keep compositions avoiding these factors ("1 1;2 2").')
@click.option("--force", is_flag=True, help="Count past the safety cap.")
def oracle_cmd(n: int, k: int | None, max_run_below: int | None,
               avoid_text: str | None, force: bool) -> None:
    """Count through an automaton of the forbidden blocks (independent of all series)."""
    if max_run_below is not None and avoid_text is not None:
        raise click.UsageError("use either --max-run-below or --avoid, not both")
    if max_run_below is not None:
        filt = CompositionFilter.max_run_below(max_run_below)
    elif avoid_text is not None:
        filt = CompositionFilter.avoid_factors(make_forbidden_list(parse_word_list(avoid_text)))
    else:
        filt = CompositionFilter.all()
    click.echo(str(oracle_count(n, k, filt, force=force)))


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
        cli.main(args=argv, prog_name="runcomp", standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    except PivotError as exc:
        click.echo(f"internal error: {exc}", err=True)
        return 2
    except RuncompError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except Exception as exc:  # anything else is an invariant violation
        click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
