"""Correctness checks on the stdout of CLI ops.

Every op must exit 0.  An op whose argv has a recorded digest must print
exactly the recorded bytes.  Independently of digests, every emitted series
must agree with the brute-force ``count_by_parts`` on rows n <= 14, and
longest-run counts must sum to 2^(n-1).  Each distinct (argv, output) pair
is checked once per run.
"""

import hashlib
import json
import re
import shlex
from pathlib import Path

DIGESTS = Path(__file__).with_name("digests.json")
ORACLE_ROWS = 14

_Q_TERM = re.compile(r"(-?)(\d*)(?:q(?:\^(\d+))?)?")
_X_PIECE = re.compile(r"(.*?)(x(?:\^(\d+))?)?")


def op_key(argv):
    return shlex.join(argv)


def digest(stdout):
    return hashlib.sha256(stdout).hexdigest()


def load_digests():
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


class OutputChecker:
    """Checks op outputs; ``check`` returns None when correct, else the reason."""

    def __init__(self, digests):
        self.digests = digests
        self.verified = set()
        self.oracle_rows = {}

    def check(self, argv, code, stdout):
        if code != 0:
            return f"exit code {code}"
        key, found = op_key(argv), digest(stdout)
        recorded = self.digests.get(key)
        if recorded is not None and recorded != found:
            return "stdout differs from the recorded digest"
        if (key, found) in self.verified:
            return None
        try:
            problem = self._semantic(argv, stdout.decode())
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problem = f"unparseable output: {exc}"
        if problem is None:
            self.verified.add((key, found))
        return problem

    def _semantic(self, argv, text):
        options = dict(zip(argv[1::2], argv[2::2]))
        fmt = options.get("--format", "text")
        if argv[0] == "longest-run":
            return _check_longest_run(int(options["--n"]), fmt, text)
        cells = parse_series(text, fmt)
        bound = int(options["--max-weight"])
        if argv[0] == "carlitz":
            filt = ("runs", 2)
        elif argv[0] == "runs":
            filt = ("runs", int(options["--r"]))
        else:
            filt = ("avoid", options["--words"])
        for n in range(min(bound, ORACLE_ROWS) + 1):
            row = {k: c for (m, k), c in cells.items() if m == n}
            expected = self._oracle_row(filt, n)
            if row != expected:
                return f"row n={n} is {row}, the oracle gives {expected}"
        return None

    def _oracle_row(self, filt, n):
        if n == 0:
            return {0: 1}
        key = (filt, n)
        if key not in self.oracle_rows:
            self.oracle_rows[key] = oracle_row(filt, n)
        return self.oracle_rows[key]


def oracle_row(filt, n):
    """Compositions of n by number of parts, from the brute-force oracle."""
    import runcomp

    kind, arg = filt
    if kind == "runs":
        composition_filter = runcomp.CompositionFilter.max_run_below(arg)
    else:
        forbidden = runcomp.make_forbidden_list(runcomp.parse_word_list(arg))
        composition_filter = runcomp.CompositionFilter.avoid_factors(forbidden)
    return runcomp.count_by_parts(n, composition_filter)


def parse_series(text, fmt):
    """Cells {(n, k): coefficient} of a series printed in any CLI format."""
    if fmt == "json":
        return {(t["n"], t["k"]): int(t["c"]) for t in json.loads(text)["terms"]}
    if fmt == "csv":
        lines = text.splitlines()
        if lines[0] != "n,k,coefficient":
            raise ValueError(f"bad csv header {lines[0]!r}")
        cells = {}
        for line in lines[1:]:
            n, k, c = line.split(",")
            cells[int(n), int(k)] = int(c)
        return cells
    return _parse_text(text.strip())


def _split_signed(text):
    """Split at top-level signs; a minus stays with the piece it starts."""
    pieces, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and ch in "+-" and i > start:
            pieces.append(text[start:i])
            start = i + 1 if ch == "+" else i
    pieces.append(text[start:])
    return pieces


def _parse_q_term(text):
    match = _Q_TERM.fullmatch(text)
    has_q = "q" in text
    if match is None or not (match[2] or has_q):
        raise ValueError(f"bad q-term {text!r}")
    sign, digits, power = match.groups()
    coefficient = int(digits) if digits else 1
    k = (int(power) if power else 1) if has_q else 0
    return k, -coefficient if sign else coefficient


def _parse_text(text):
    if text == "0":
        return {}
    cells = {}
    for piece in _split_signed(text):
        body, x, power = _X_PIECE.fullmatch(piece).groups()
        n = int(power) if power else (1 if x else 0)
        if body.startswith("("):
            terms = [_parse_q_term(t) for t in _split_signed(body[1:-1])]
        elif body in ("", "-"):
            terms = [(0, -1 if body else 1)]
        else:
            terms = [_parse_q_term(body)]
        for k, c in terms:
            cells[n, k] = cells.get((n, k), 0) + c
    return {cell: c for cell, c in cells.items() if c}


def _check_longest_run(n, fmt, text):
    if fmt == "json":
        obj = json.loads(text)
        counts = [int(row["count"]) for row in obj["rows"]]
        totals = [int(obj["total"])]
    else:
        sep = "," if fmt == "csv" else " "
        lines = text.splitlines()
        if lines[0] != sep.join(("L", "count", "probability", "cumulative")):
            raise ValueError(f"bad header {lines[0]!r}")
        rows = [line.split(sep) for line in lines[1:]
                if not line.startswith(("total", "mean", "log2"))]
        counts = [int(row[1]) for row in rows]
        totals = [int(line.split()[1]) for line in lines if line.startswith("total")]
    expected = 2 ** (n - 1)
    if sum(counts) != expected or any(t != expected for t in totals):
        return f"longest-run counts sum to {sum(counts)}, expected {expected}"
    return None
