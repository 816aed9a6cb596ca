"""The cross-check workload: analytic counts against the brute-force oracle.

An op takes one instance at weight n through the library API and compares
every k of the analytic row with ``count_by_parts``.  Each op first clears
the ``runs`` caches, so ops do not share work.

Run as a script, this is the child process that runs a whole cross-check
workload: it reads the ops as a JSON list in its argument and prints one JSON
object with each op's wall and CPU seconds, scale factor (see ``probe.py``)
and any mismatches.  Its import time is not part of any op.
"""

import json
import sys
import time
from pathlib import Path

import probe


def run_op(op):
    """Return None when analytic and oracle counts agree, else the mismatch."""
    import runcomp

    kind, arg, n = op
    runcomp.runs.bounded_run_series.cache_clear()
    runcomp.runs.carlitz_series.cache_clear()
    if kind == "runs":
        r = int(arg)
        analytic = [{k: runcomp.bounded_run_count(n, k, r) for k in range(n + 1)}]
        oracle = runcomp.count_by_parts(n, runcomp.CompositionFilter.max_run_below(r))
    else:
        forbidden = runcomp.make_forbidden_list(runcomp.parse_word_list(arg))
        oracle = runcomp.count_by_parts(n, runcomp.CompositionFilter.avoid_factors(forbidden))
        series = [runcomp.avoidance_series(runcomp.build_system(forbidden, n))]
        if forbidden.easy_case:
            series.append(runcomp.easy_case_series(forbidden, n))
        analytic = [{k: s.coefficient(n, k) for k in range(n + 1)} for s in series]
    for row in analytic:
        row = {k: c for k, c in row.items() if c}
        if row != oracle:
            return f"{kind} {arg} at n={n}: analytic {row}, oracle {oracle}"
    return None


def main():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import runcomp  # noqa: F401  (imported before the first op is timed)

    ops = json.loads(sys.argv[1])
    walls, cpus, factors, failures = [], [], [], []
    scaler = probe.Scaler()
    for op in ops:
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            problem = run_op(op)
        except Exception as exc:  # a crash is a failed op, reported with the rest
            problem = f"{type(exc).__name__}: {exc}"
        cpus.append(time.process_time() - cpu)
        walls.append(time.perf_counter() - wall)
        factors.append(scaler.scale())
        if problem is not None:
            failures.append(problem)
    json.dump({"wall_s": walls, "cpu_s": cpus, "factor": factors, "loop_s": scaler.samples,
               "failures": failures}, sys.stdout)


if __name__ == "__main__":
    main()
