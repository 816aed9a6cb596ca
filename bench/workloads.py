"""Seed-driven inputs of the four benchmark workloads.

Inputs depend only on the workload name and the seed, never on the program
under test, so two commits given the same seed run the same ops.  Every
workload draws its ops in blocks that hold each kind of op in a fixed
proportion, in seed-drawn order.  A run's median and tail then reflect the
program, not which kinds of op a seed happened to favour.

An op of a ``*-cli`` workload is the argv of one ``python -m runcomp`` call.
A ``cross-check`` op is ``(kind, argument, n)``: kind ``runs`` with a run
bound, or kind ``avoid`` with a forbidden list, checked at weight n.
"""

import random
from itertools import product

WORKLOADS = ("runs-cli", "avoid-cli", "longest-run-cli", "cross-check")
FORMATS = ("text", "csv", "json")

RUNS_BOUND = 100
AVOID_BOUND = 35
# Bound of the easy-case ops of avoid-cli.  At this bound the median easy
# list of the pool costs as much in-process as the median system list at
# AVOID_BOUND (0.55 s on a 2-core 2.0 GHz x86 host), so the run's median does
# not depend on which path ran.
EASY_BOUND = 140
# A default-length run of avoid-cli or cross-check holds this many blocks
# and so uses each pooled list once.
POOL_BLOCKS = 8
LONGEST_RUN_NS = tuple(range(36, 45))
CROSS_CHECK_N = 16

# Seconds of --seconds that one block of ops stands for: a run holds
# round(seconds / SECONDS_PER_BLOCK) blocks, so every commit runs the same ops
# and the tail percentile stays the same.  At this commit on a 2-core 2.0 GHz
# x86 host a 25-second run, set-up and growth ladder included, takes 17-33 s;
# avoid-cli gets more of it so that its slower ops still number 24.
SECONDS_PER_BLOCK = {
    "runs-cli": 8.3,
    "avoid-cli": 3.1,
    "longest-run-cli": 8.3,
    "cross-check": 3.1,
}

# Words over letters 1-3 of length 2 or 3, the alphabet of every drawn list.
WORDS = [w for length in (2, 3) for w in product((1, 2, 3), repeat=length)]

# Fixed reference ops.  Exact per-layer counters come from the op at the top
# of each ladder; growth_exp and series.work_exp are fitted over the ladder.
REFERENCE_LIST = "1 2;2 1;1 1 1"
LADDERS = {
    "runs-cli": (50, 70, 100),
    "avoid-cli": (20, 27, 35),
    "longest-run-cli": (25, 35, 50),
    "cross-check": (12, 14, 16),
}


def reference_ops(workload, bound):
    """The fixed ops measured at one point of the workload's growth ladder."""
    if workload == "runs-cli":
        return [("runs", "--r", "3", "--max-weight", str(bound))]
    if workload == "avoid-cli":
        return [("avoid", "--words", REFERENCE_LIST, "--max-weight", str(bound))]
    if workload == "longest-run-cli":
        return [("longest-run", "--n", str(bound))]
    return [("runs", "3", bound), ("avoid", REFERENCE_LIST, bound)]


def block_count(workload, seconds, traced):
    """Blocks in a run; a traced run times each op twice, so it holds half as many."""
    return max(2, round(seconds / SECONDS_PER_BLOCK[workload] / (2 if traced else 1)))


def schedule(workload, seed, blocks):
    """The ops of one run: ``blocks`` seed-shuffled blocks of the workload."""
    rng = random.Random(f"{workload}/{seed}")
    ops = []
    for _, block in zip(range(blocks), _BLOCKS[workload](rng)):
        rng.shuffle(block)
        ops.extend(block)
    return ops


def _runs_blocks(rng):
    while True:
        yield [("carlitz", "--max-weight", str(RUNS_BOUND), "--format", fmt) for fmt in FORMATS] + [
            ("runs", "--r", r, "--max-weight", str(RUNS_BOUND), "--format", fmt)
            for r in ("3", "4") for fmt in FORMATS]


def list_pools(workload, system_size, easy_size):
    """System-path and easy-path lists of a workload, drawn once from a fixed seed.

    Solving and enumeration costs differ up to twofold between lists of the
    family, so every run uses the same lists; the run's seed sets their order,
    and the run's median measures the program, not the draw."""
    rng = random.Random(f"{workload}/pool")
    pools = []
    for easy, size in ((False, system_size), (True, easy_size)):
        pool = []
        while len(pool) < size:
            words = draw_list(rng, easy)
            if words not in pool:
                pool.append(words)
        pools.append(pool)
    return pools


def _avoid_blocks(rng):
    # Two ops in three solve the linear system; the third takes the easy path.
    # Each pooled list keeps one format, so every run makes the same ops.
    pools = list_pools("avoid-cli", 2 * POOL_BLOCKS, POOL_BLOCKS)
    system, easy = (_cycle(rng, [("avoid", "--words", words, "--max-weight", str(bound),
                                  "--format", FORMATS[i % len(FORMATS)], "--method", "auto")
                                 for i, words in enumerate(pool)])
                    for pool, bound in zip(pools, (AVOID_BOUND, EASY_BOUND)))
    while True:
        yield [next(system), next(system), next(easy)]


def _cycle(rng, pool):
    while True:
        yield from rng.sample(pool, len(pool))


def _longest_run_blocks(rng):
    while True:
        yield [("longest-run", "--n", str(n), "--format", rng.choice(FORMATS))
               for n in LONGEST_RUN_NS]


def _cross_check_blocks(rng):
    n = CROSS_CHECK_N
    bounds = _cycle(rng, (2, 3, 4, 5))
    system, easy = (_cycle(rng, pool)
                    for pool in list_pools("cross-check", 3 * POOL_BLOCKS, 3 * POOL_BLOCKS))
    while True:
        yield ([("runs", str(next(bounds)), n) for _ in range(3)]
               + [("avoid", next(system), n) for _ in range(3)]
               + [("avoid", next(easy), n) for _ in range(3)])


_BLOCKS = {
    "runs-cli": _runs_blocks,
    "avoid-cli": _avoid_blocks,
    "longest-run-cli": _longest_run_blocks,
    "cross-check": _cross_check_blocks,
}


def draw_list(rng, easy):
    """A reduced list of three distinct words, easy (no cross-correlation) or not."""
    while True:
        words = rng.sample(WORDS, 3)
        if _reduced(words) and _easy(words) == easy:
            return ";".join(" ".join(map(str, w)) for w in words)


def _is_factor(u, v):
    return any(v[i:i + len(u)] == u for i in range(len(v) - len(u) + 1))


def _reduced(words):
    return not any(i != j and _is_factor(u, v)
                   for i, u in enumerate(words) for j, v in enumerate(words))


def _correlates(x, y):
    """True when some right-aligned shift of y under x makes the blocks agree."""
    m, my = len(x), len(y)
    for t in range(m, 0, -1):
        if x[:t] == y[my - t:] if t <= my else y == x[t - my:t]:
            return True
    return False


def _easy(words):
    return not any(i != j and _correlates(u, v)
                   for i, u in enumerate(words) for j, v in enumerate(words))
