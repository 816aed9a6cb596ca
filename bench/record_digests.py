"""Record the stdout digests that later runs compare byte for byte.

Run from the root of a runcomp checkout, at the commit whose output is the
reference:

    python3 bench/record_digests.py

It runs, as ``python -m runcomp`` processes, every op that a CLI workload
can draw under any seed, and the growth-ladder ops.  Each output must pass
the oracle checks before its digest is written to ``bench/digests.json``.
"""

import json
import sys

import checks
import run
import workloads


def ops_to_record():
    """Every argv a CLI workload can draw, whatever the seed, and the ladder ops."""
    ops = set(workloads.schedule("runs-cli", 0, 1))  # one block holds every runs-cli op
    # A default-length run makes every op of the avoid-cli pools once.
    ops.update(workloads.schedule("avoid-cli", 0, workloads.POOL_BLOCKS))
    ops.update(("longest-run", "--n", str(n), "--format", fmt)
               for n in workloads.LONGEST_RUN_NS for fmt in workloads.FORMATS)
    for workload in ("runs-cli", "avoid-cli", "longest-run-cli"):
        for bound in workloads.LADDERS[workload]:
            ops.update(workloads.reference_ops(workload, bound))
    return sorted(ops)


def main():
    sys.path.insert(0, str(run.SRC))
    checker = checks.OutputChecker({})
    digests = {}
    with run.Launcher() as launcher:
        for argv in ops_to_record():
            _, _, _, code, stdout = launcher.runcomp(argv)
            problem = checker.check(argv, code, stdout)
            if problem is not None:
                print(f"{checks.op_key(argv)}: {problem}", file=sys.stderr)
                return 1
            digests[checks.op_key(argv)] = checks.digest(stdout)
    checks.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {checks.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
