"""Benchmark of runcomp: end-to-end metrics per workload, per-layer metrics when traced.

Usage, from the root of a runcomp checkout (sources under ``src/``, not installed):

    python3 bench/run.py --workload runs-cli --seed 0 --seconds 25 --trace 0

Workloads are closed loops with one client and one op at a time; see
``workloads.py`` for their inputs and ``NOTES.md`` for why each exists.  With
``--trace 0`` the run times the ops untraced and prints the end-to-end
metrics, with times scaled by a calibration loop (``probe.py``).  With
``--trace 1`` it runs the same ops in-process, each once
untraced and once with spans around every call into a runcomp module, and
prints the per-layer metrics.  Every op's output is checked; the last line
of stdout is one JSON object, and the exit code is 1 when any check failed.
"""

import argparse
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, process_time

import checks
import crosscheck
import probe
import workloads
from tracer import OP, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUTPUT_DIR = ROOT / ".bench_out"  # children's stdout, removed when a run ends
SETUP_RUNS = 8
LADDER_PASSES = 5
MIN_POINT_S = 0.1
TAIL_BEYOND = 10


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "runcomp" / "cli.py").is_file():
        print(f"error: no runcomp sources in {SRC}; run from the root of a runcomp checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The calibration loop must run on the CPU that ran the op; children inherit this.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    print(f"# workload {args.workload}, seed {args.seed}, seconds {args.seconds}, "
          f"trace {args.trace}")
    print(f"# python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"load average at start {_loadavg()}")
    run = traced_run if args.trace else timed_run
    attempted, failed, failures, metrics, notes = run(args.workload, args.seed, args.seconds)
    for note in notes:
        print(f"# {note}")
    print(f"# load average at end {_loadavg()}")
    for problem in failures[:20]:
        print(f"FAIL {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:>16.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if failures else 0


# -- timed run: end-to-end metrics ------------------------------------------


def timed_run(workload, seed, seconds):
    """Time the workload's ops untraced.

    Returns (ops attempted, ops failed, every failure, metrics, notes)."""
    failures = []
    with Launcher() as launcher:
        launcher.runcomp(["--help"])  # writes the bytecode caches of a fresh checkout
        scaler = probe.Scaler()
        setup = measure_setup(launcher, SETUP_RUNS // 2, scaler, failures)

        blocks = workloads.block_count(workload, seconds, traced=False)
        ops = workloads.schedule(workload, seed, blocks)
        if workload == "cross-check":
            walls, cpus, factors, peaks_kb, op_failures, loops = run_cross_check(launcher, ops)
        else:
            walls, cpus, factors, peaks_kb, op_failures = run_cli_ops(launcher, ops, scaler)
            loops = scaler.samples

        exponent, ladder_failures = growth_exponent(workload)
        failures += op_failures + ladder_failures
        scaler = probe.Scaler()
        setup += measure_setup(launcher, SETUP_RUNS - len(setup), scaler, failures)

    scaled_walls = [w * f for w, f in zip(walls, factors)]
    tail, percentile = tail_value(scaled_walls)
    metrics = {
        "op_s_p50": (statistics.median(scaled_walls), "s"),
        "op_s_tail": (tail, "s"),
        "cpu_s_p50": (statistics.median(c * f for c, f in zip(cpus, factors)), "s"),
        "peak_rss_mb": (statistics.median(peaks_kb) / 1024, "MB"),
        "ok_ratio": ((len(ops) - len(op_failures)) / len(ops), "ratio"),
        "setup_s": (statistics.median(w * f for w, f in setup), "s"),
        "growth_exp": (exponent, "1"),
    }
    notes = [f"{len(ops)} ops in {blocks} blocks; op_s_tail is p{percentile:.1f} "
             f"with {TAIL_BEYOND} ops beyond it",
             f"growth ladder {workloads.LADDERS[workload]}",
             f"times are scaled to a host where the calibration loop takes {probe.REF_S} s; "
             f"it took {statistics.median(loops):.6f} s (median); unscaled op_s_p50 "
             f"{statistics.median(walls):.6f} s, "
             f"setup_s {statistics.median(w for w, _ in setup):.6f} s"]
    return len(ops), len(op_failures), failures, metrics, notes


def measure_setup(launcher, runs, scaler, failures):
    """(wall seconds, scale factor) of ``runs`` calls of ``python -m runcomp --help``.

    Half of a run's set-up samples are taken before its ops and half after,
    so their median spans the run rather than one moment of a shared host."""
    samples = []
    for _ in range(runs):
        wall, _, _, code, stdout = launcher.runcomp(["--help"])
        samples.append((wall, scaler.scale()))
        if code != 0 or not stdout.startswith(b"Usage:"):
            failures.append(f"--help exited {code}")
    return samples


class Launcher:
    """The small process that spawns every child, so that ``os.wait4`` reports
    the child's own peak RSS (see ``launcher.py``)."""

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        OUTPUT_DIR.mkdir(exist_ok=True)
        self.stdout_path = OUTPUT_DIR / f"stdout-{os.getpid()}"
        launcher = Path(__file__).with_name("launcher.py")
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(launcher), str(self.stdout_path)],
            cwd=ROOT, env=env, text=True, stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def run(self, argv):
        """Run argv to completion: (wall s, CPU s, peak RSS KiB, exit code, stdout bytes)."""
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return (reply["wall_s"], reply["cpu_s"], reply["rss_kb"], reply["code"],
                self.stdout_path.read_bytes())

    def runcomp(self, argv):
        """One ``python -m runcomp`` child with the sources on its path."""
        return self.run([sys.executable, "-m", "runcomp", *argv])

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()
        self.stdout_path.unlink(missing_ok=True)
        if not any(OUTPUT_DIR.iterdir()):
            OUTPUT_DIR.rmdir()


def run_cli_ops(launcher, ops, scaler):
    """Run each op in its own process.

    Returns per-op wall seconds, CPU seconds, scale factors and peak RSS, and
    the failures."""
    walls, cpus, factors, peaks_kb, outcomes = [], [], [], [], []
    for argv in ops:
        wall, cpu, rss_kb, code, stdout = launcher.runcomp(argv)
        factors.append(scaler.scale())
        walls.append(wall)
        cpus.append(cpu)
        peaks_kb.append(rss_kb)
        outcomes.append((argv, code, stdout))
    checker = checks.OutputChecker(checks.load_digests())
    failures = []
    for argv, code, stdout in outcomes:
        problem = checker.check(argv, code, stdout)
        if problem is not None:
            failures.append(f"{checks.op_key(argv)}: {problem}")
    return walls, cpus, factors, peaks_kb, failures


def run_cross_check(launcher, ops):
    """Run every op in one child; its rusage gives the workload's peak RSS."""
    _, _, rss_kb, code, stdout = launcher.run(
        [sys.executable, str(Path(__file__).with_name("crosscheck.py")), json.dumps(ops)])
    if code != 0:
        raise SystemExit(f"cross-check child exited {code}")
    result = json.loads(stdout)
    return (result["wall_s"], result["cpu_s"], result["factor"], [rss_kb],
            result["failures"], result["loop_s"])


def tail_value(values):
    """The highest percentile with at least TAIL_BEYOND values above it, and that percentile.

    A run too short to have one reports its median rank instead."""
    ordered = sorted(values)
    rank = max(len(ordered) - TAIL_BEYOND, math.ceil(len(ordered) / 2))
    return ordered[rank - 1], 100 * rank / len(ordered)


# -- in-process ops: growth ladder and traced run ---------------------------


def run_inprocess(workload, op):
    """Run one op in this process with empty caches; return its output for comparison."""
    if workload == "cross-check":
        return crosscheck.run_op(op)
    import runcomp.cli

    runcomp.runs.bounded_run_series.cache_clear()
    runcomp.runs.carlitz_series.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = runcomp.cli.main(list(op))
    return code, out.getvalue().encode()


def check_inprocess(workload, checker, op, outcome):
    if workload == "cross-check":
        return outcome
    problem = checker.check(op, *outcome)
    return None if problem is None else f"{checks.op_key(op)}: {problem}"


def fit_exponent(bounds, values):
    """Least-squares slope of log(value) against log(bound)."""
    xs = [math.log(b) for b in bounds]
    ys = [math.log(v) for v in values]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def growth_exponent(workload):
    """Median over LADDER_PASSES passes of the exponent fitted to one pass's
    in-process CPU seconds.  A pass runs the whole ladder back to back, so its
    points share the host's speed of the moment, which drifts on a shared host."""
    bounds = workloads.LADDERS[workload]
    checker = checks.OutputChecker(checks.load_digests())
    exponents, failures = [], []
    for _ in range(LADDER_PASSES):
        seconds = []
        for bound in bounds:
            # Repeat a cheap point until it is long enough to time.
            start, repeats, elapsed = process_time(), 0, 0.0
            while elapsed < MIN_POINT_S:
                outcomes = [(op, run_inprocess(workload, op))
                            for op in workloads.reference_ops(workload, bound)]
                repeats += 1
                elapsed = process_time() - start
            seconds.append(elapsed / repeats)
            for op, outcome in outcomes:
                problem = check_inprocess(workload, checker, op, outcome)
                if problem is not None:
                    failures.append(problem)
        exponents.append(fit_exponent(bounds, seconds))
    return statistics.median(exponents), failures


# -- traced run: per-layer metrics ------------------------------------------


def traced_run(workload, seed, seconds):
    """Trace the workload's ops in-process; returns what ``timed_run`` does."""
    tracer = Tracer()
    failures = self_check(tracer)
    checker = checks.OutputChecker(checks.load_digests())
    counters, calls, work, hits, lookups, stdout_bytes = reference_counts(workload, tracer)

    blocks = workloads.block_count(workload, seconds, traced=True)
    ops = workloads.schedule(workload, seed, blocks)
    tracer.reset()
    plain_s = traced_s = 0.0
    failed_ops = 0
    for i, op in enumerate(ops):
        # Alternate which run goes first, so drift on a shared host hits both alike.
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
                try:
                    traced_out, elapsed = tracer.run_op(i, lambda: run_inprocess(workload, op))
                finally:
                    tracer.uninstall()
                traced_s += elapsed
            else:
                start = perf_counter()
                plain_out = run_inprocess(workload, op)
                plain_s += perf_counter() - start
        problem = check_inprocess(workload, checker, op, plain_out)
        if problem is None and traced_out != plain_out:
            problem = f"{op}: traced output differs from untraced output"
        if problem is not None:
            failures.append(problem)
            failed_ops += 1

    self_s = tracer.self_times()
    mean_op_s = traced_s / len(ops)
    attributed = sum(self_s.values()) / len(ops)
    if not math.isclose(attributed, mean_op_s, rel_tol=1e-9, abs_tol=1e-9):
        failures.append(f"layer self times add to {attributed} s, traced ops take {mean_op_s} s")
    per_op = {layer: total / len(ops) for layer, total in self_s.items()}

    def ratio(num, den):
        return counters.get(num, 0) / counters[den] if counters.get(den) else 0.0

    metrics = {
        "series.invert.calls": (calls["series.invert"], "count"),
        "series.invert.s": (per_op["series.invert"], "s"),
        "series.invert.visits": (counters.get("series.invert.visits", 0), "count"),
        "series.invert.fill_ratio": (ratio("series.invert.result_terms", "series.invert.cells"),
                                     "ratio"),
        "series.mul.calls": (calls["series.mul"], "count"),
        "series.mul.s": (per_op["series.mul"], "s"),
        "series.mul.pairs": (counters.get("series.mul.pairs", 0), "count"),
        "series.mul.kept_ratio": (ratio("series.mul.kept", "series.mul.pairs"), "ratio"),
        "series.addsub.s": (per_op["series.addsub"], "s"),
        "series.render.s": (per_op["series.render"], "s"),
        "series.max_terms": (counters.get("series.max_terms", 0), "count"),
        "series.max_bits": (counters.get("series.max_bits", 0), "bits"),
        "series.work_exp": (work, "1"),
        "words.correlation.calls": (calls["words.correlation"], "count"),
        "words.correlation.s": (per_op["words.correlation"], "s"),
        "words.make_list.s": (per_op["words.make_list"], "s"),
        "solver.build_system.s": (per_op["solver.build_system"], "s"),
        "solver.eliminate.s": (per_op["solver.eliminate"], "s"),
        "solver.easy.s": (per_op["solver.easy"], "s"),
        "solver.size": (counters.get("solver.size", 0), "count"),
        "solver.entry_terms": (counters.get("solver.entry_terms", 0), "count"),
        "runs.carlitz.s": (per_op["runs.carlitz"], "s"),
        "runs.bounded.calls": (calls["runs.bounded"], "count"),
        "runs.bounded.s": (per_op["runs.bounded"], "s"),
        "runs.count.calls": (calls["runs.count"], "count"),
        "runs.count.s": (per_op["runs.count"], "s"),
        "runs.cache.hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "runs.longest.s": (per_op["runs.longest"], "s"),
        "oracle.count.s": (per_op["oracle.count"], "s"),
        "oracle.compositions": (counters.get("oracle.compositions", 0), "count"),
        "oracle.accept_ratio": (ratio("oracle.accepted", "oracle.compositions"), "ratio"),
        "cli.main.s": (per_op["cli.main"], "s"),
        "cli.stdout_bytes": (stdout_bytes, "bytes"),
        "trace.unattributed.s": (per_op[OP], "s"),
        "trace.overhead_ratio": (traced_s / plain_s - 1, "ratio"),
    }
    references = workloads.reference_ops(workload, workloads.LADDERS[workload][-1])
    notes = [f"{len(ops)} ops in {blocks} blocks, each run untraced and traced; "
             f"mean traced op {mean_op_s:.6f} s",
             f"counters from {[checks.op_key(map(str, op)) for op in references]}"]
    return len(ops), failed_ops, failures, metrics, notes


def reference_counts(workload, tracer):
    """Exact counters of the workload's reference ops, traced with counting on.

    Returns the counters and calls at the top of the ladder, the fitted
    exponent of mul pairs plus invert visits over the ladder, the runs cache
    hits and lookups, and the reference ops' stdout bytes."""
    import runcomp

    bounds = workloads.LADDERS[workload]
    work = []
    for bound in bounds:
        tracer.reset()
        tracer.counting = True
        hits = lookups = stdout_bytes = 0
        tracer.install()
        try:
            for i, op in enumerate(workloads.reference_ops(workload, bound)):
                outcome, _ = tracer.run_op(i, lambda: run_inprocess(workload, op))
                for cached in (runcomp.runs.bounded_run_series, runcomp.runs.carlitz_series):
                    info = cached.cache_info()
                    hits += info.hits
                    lookups += info.hits + info.misses
                if workload != "cross-check":
                    stdout_bytes += len(outcome[1])
        finally:
            tracer.uninstall()
            tracer.counting = False
        counters = dict(tracer.counters)
        work.append(counters.get("series.mul.pairs", 0) + counters.get("series.invert.visits", 0))
    return counters, tracer.calls(), fit_exponent(bounds, work), hits, lookups, stdout_bytes


def self_check(tracer):
    """Check that tracing records each call once and leaves stdout unchanged."""
    import runcomp.cli

    failures = []
    argv = ("carlitz", "--max-weight", "10")
    plain = run_inprocess("runs-cli", argv)
    tracer.reset()
    tracer.install()
    try:
        failures += tracer.binding_errors()
        traced, _ = tracer.run_op(0, lambda: run_inprocess("runs-cli", argv))
        inverts = sum(1 for span in tracer.spans if span[0] == "series.invert")
        if inverts != 6:
            failures.append(f"carlitz --max-weight 10 recorded {inverts} series.invert spans, "
                            "not 6")
        if traced != plain:
            failures.append("carlitz --max-weight 10: traced stdout differs from untraced stdout")
        for count in (runcomp.oracle_count, runcomp.oracle.oracle_count, runcomp.cli.oracle_count):
            tracer.reset()
            count(4)
            spans = sum(1 for span in tracer.spans if span[0] == "oracle.count")
            if spans != 1:
                failures.append(f"one oracle_count call recorded {spans} spans")
    finally:
        tracer.uninstall()
    failures += [f"uninstall left {name} traced" for name in tracer.wrapped_names()]
    tracer.reset()
    return failures


def _loadavg():
    return " ".join(f"{x:.2f}" for x in os.getloadavg())


if __name__ == "__main__":
    sys.exit(main())
