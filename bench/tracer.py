"""Spans around the calls into each runcomp module, installed from outside.

The tracer rebinds the public functions of ``runcomp.series``, ``words``,
``solver``, ``runs``, ``oracle`` and ``cli`` to wrappers that record a span
(layer, op id, parent, start, end) per call.  A function imported elsewhere
with ``from .x import y`` is rebound in every ``runcomp`` namespace that
holds it, all to one shared wrapper of the original, so a call is recorded
once whichever name it went through.

When counting is on, wrappers also derive exact work counters from each
call's arguments and result.  That arithmetic runs with the clock paused:
span times use a clock from which counting time is subtracted, so counters
change no span and no op time.
"""

import functools
import sys
from itertools import accumulate
from time import perf_counter

# Layer name of each traced function, keyed by (module, attribute).
FUNCTIONS = {
    ("runcomp.words", "correlation_vector"): "words.correlation",
    ("runcomp.words", "correlation_polynomial"): "words.correlation",
    ("runcomp.words", "parse_word_list"): "words.make_list",
    ("runcomp.words", "make_forbidden_list"): "words.make_list",
    ("runcomp.solver", "build_system"): "solver.build_system",
    ("runcomp.solver", "avoidance_series"): "solver.eliminate",
    ("runcomp.solver", "easy_case_series"): "solver.easy",
    ("runcomp.runs", "carlitz_series"): "runs.carlitz",
    ("runcomp.runs", "bounded_run_series"): "runs.bounded",
    ("runcomp.runs", "bounded_run_count"): "runs.count",
    ("runcomp.runs", "longest_run_distribution"): "runs.longest",
    ("runcomp.oracle", "oracle_count"): "oracle.count",
    ("runcomp.oracle", "count_by_parts"): "oracle.count",
    ("runcomp.cli", "main"): "cli.main",
}
# Layer name of each traced method of ``Series``.
SERIES_METHODS = {
    "invert": "series.invert",
    "__mul__": "series.mul",
    "__add__": "series.addsub",
    "__sub__": "series.addsub",
    "__neg__": "series.addsub",
    "__str__": "series.render",
    "text_by_length": "series.render",
    "to_csv": "series.render",
    "to_json": "series.render",
}
LAYERS = sorted(set(FUNCTIONS.values()) | set(SERIES_METHODS.values()))
OP = "op"


class Tracer:
    """Records spans in memory; ``install`` patches runcomp, ``uninstall`` restores it."""

    def __init__(self):
        self.spans = []  # [layer, op id, parent index, start, end]
        self.stack = []
        self.op_id = None
        self.paused = 0.0
        self.counting = False
        self.counters = {}
        self._patched = []  # (namespace, attribute, original)

    def clock(self):
        return perf_counter() - self.paused

    # -- installation ---------------------------------------------------

    def install(self):
        import runcomp.cli  # noqa: F401  (loads every module before names are rebound)
        from runcomp.series import Series

        if self.wrapped_names():
            raise RuntimeError("runcomp is already traced")
        for name, layer in SERIES_METHODS.items():
            original = Series.__dict__[name]
            self._patched.append((Series, name, original))
            setattr(Series, name, self._wrap(layer, original, _SERIES_COUNTERS.get(name)))
        namespaces = [namespace for _, namespace in _namespaces()]
        for (module, attr), layer in FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(layer, original, _FUNCTION_COUNTERS.get(attr))
            for namespace in namespaces:
                for name, value in list(vars(namespace).items()):
                    if value is original:
                        self._patched.append((namespace, name, original))
                        setattr(namespace, name, wrapper)

    def uninstall(self):
        for namespace, name, original in reversed(self._patched):
            setattr(namespace, name, original)
        self._patched.clear()

    def binding_errors(self):
        """Names that escaped tracing or were traced twice; empty when installed correctly."""
        from runcomp.series import Series

        errors = [f"Series.{name} is not wrapped exactly once" for name in SERIES_METHODS
                  if not _wrapped_once(Series.__dict__[name])]
        for module, attr in FUNCTIONS:
            wrapper = getattr(sys.modules[module], attr)
            if not _wrapped_once(wrapper):
                errors.append(f"{module}.{attr} is not wrapped exactly once")
                continue
            original = wrapper.__wrapped__
            for key, namespace in _namespaces():
                for name, value in vars(namespace).items():
                    if value is not wrapper and (
                            value is original or getattr(value, "__wrapped__", None) is original):
                        errors.append(f"{key}.{name} does not share the wrapper of {module}.{attr}")
        return errors

    def wrapped_names(self):
        """Names in runcomp still bound to a wrapper; empty once uninstalled."""
        from runcomp.series import Series

        names = [f"Series.{name}" for name in SERIES_METHODS
                 if hasattr(Series.__dict__[name], "bench_layer")]
        return names + [f"{key}.{name}" for key, namespace in _namespaces()
                        for name, value in vars(namespace).items() if hasattr(value, "bench_layer")]

    def _wrap(self, layer, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tracer.spans
            index = len(spans)
            span = [layer, tracer.op_id, tracer.stack[-1] if tracer.stack else -1,
                    tracer.clock(), 0.0]
            spans.append(span)
            tracer.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.stack.pop()
                span[4] = tracer.clock()
            if tracer.counting and count is not None:
                start = perf_counter()
                count(tracer.counters, args, result)
                tracer.paused += perf_counter() - start
            return result

        wrapper.bench_layer = layer
        for attr in ("cache_clear", "cache_info"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    # -- ops ------------------------------------------------------------

    def run_op(self, op_id, fn):
        """Run ``fn()`` inside a root span for op ``op_id``; return its result and duration."""
        self.op_id = op_id
        index = len(self.spans)
        span = [OP, op_id, -1, self.clock(), 0.0]
        self.spans.append(span)
        self.stack.append(index)
        try:
            result = fn()
        finally:
            self.stack.pop()
            span[4] = self.clock()
            self.op_id = None
        return result, span[4] - span[3]

    def reset(self):
        self.spans.clear()
        self.counters.clear()

    def self_times(self):
        """Summed self time per layer (``op`` is the unattributed remainder)."""
        child = [0.0] * len(self.spans)
        for layer, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {layer: 0.0 for layer in LAYERS + [OP]}
        for (layer, _, _, start, end), covered in zip(self.spans, child):
            totals[layer] += end - start - covered
        return totals

    def calls(self):
        """Outermost entries per layer: a call nested in the same layer is not counted again."""
        counts = {layer: 0 for layer in LAYERS}
        for layer, _, parent, _, _ in self.spans:
            if layer != OP and (parent < 0 or self.spans[parent][0] != layer):
                counts[layer] += 1
        return counts


def _wrapped_once(fn):
    return hasattr(fn, "bench_layer") and not hasattr(fn.__wrapped__, "bench_layer")


def _namespaces():
    return [(key, module) for key, module in list(sys.modules.items())
            if key == "runcomp" or key.startswith("runcomp.")]


# -- exact counters -------------------------------------------------------


def _add(counters, key, value):
    counters[key] = counters.get(key, 0) + value


def _note_result(counters, series):
    terms = len(series.coeffs)
    bits = max((abs(c).bit_length() for c in series.coeffs.values()), default=0)
    counters["series.max_terms"] = max(counters.get("series.max_terms", 0), terms)
    counters["series.max_bits"] = max(counters.get("series.max_bits", 0), bits)


def _count_invert(counters, args, result):
    operand = args[0]
    cells = (operand.max_weight + 1) ** 2
    _add(counters, "series.invert.visits", cells * (len(operand.coeffs) - 1))
    _add(counters, "series.invert.cells", cells)
    _add(counters, "series.invert.result_terms", len(result.coeffs))
    _note_result(counters, result)


def _count_mul(counters, args, result):
    a, b = args
    _add(counters, "series.mul.pairs", len(a.coeffs) * len(b.coeffs))
    _add(counters, "series.mul.kept", kept_pairs(a.coeffs, b.coeffs, a.max_weight))
    _note_result(counters, result)


def _count_addsub(counters, args, result):
    _note_result(counters, result)


def kept_pairs(a_cells, b_cells, bound):
    """Pairs of cells whose product lies inside the bound, from a 2-D prefix count of b."""
    if not a_cells or not b_cells:
        return 0
    grid = [[0] * (bound + 1) for _ in range(bound + 1)]
    for n, k in b_cells:
        grid[n][k] += 1
    previous = [0] * (bound + 1)
    for n in range(bound + 1):
        previous = grid[n] = [x + y for x, y in zip(accumulate(grid[n]), previous)]
    return sum(grid[bound - n][bound - k] for n, k in a_cells)


def _count_system(counters, args, result):
    _add(counters, "solver.size", len(result.matrix))
    _add(counters, "solver.entry_terms",
         sum(len(entry.coeffs) for row in result.matrix for entry in row))


def _count_oracle(counters, args, result):
    n = args[0]
    _add(counters, "oracle.compositions", 2 ** (n - 1))
    _add(counters, "oracle.accepted", sum(result.values()) if isinstance(result, dict) else result)


_SERIES_COUNTERS = {
    "invert": _count_invert,
    "__mul__": _count_mul,
    "__add__": _count_addsub,
    "__sub__": _count_addsub,
    "__neg__": _count_addsub,
}
_FUNCTION_COUNTERS = {
    "build_system": _count_system,
    "oracle_count": _count_oracle,
    "count_by_parts": _count_oracle,
}
