"""Per-layer tracing of qnull, done from outside the package.

Every public function (each name in a module's ``__all__``) of the qnull
modules is replaced, at every module that binds it, by a wrapper that times
the call.  ``qnull.reproduce.contains`` and ``qnull.grassmann.contains`` are
separate bindings of one function, so both are patched, and internal calls
that go through module globals are seen as well.  Two methods that the layer
table names are patched on their classes.

Coarse calls become spans with a parent id.  Hot calls (``HOT`` below) are
aggregated per parent span as a call count and a self time, so memory stays
bounded however many millions of times they run.  For generators the time
is taken inside each ``next()``.  A layer's self time is its own time minus
the time of the wrapped calls made inside it.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

MODULES = ("fields", "grassmann", "incidence", "designs", "linalg", "reproduce", "cli")

# Called per subspace or per row; aggregated instead of one span per call.
HOT = frozenset(
    {
        "fields.field",
        "grassmann.contains",
        "grassmann.index_of",
        "grassmann.canonicalize",
        "grassmann.subspaces_of",
        "grassmann.enumerate_subspaces",
        "grassmann.gaussian_binomial",
        "designs.sum_over_superspaces",
        "incidence.apply_check",
    }
)

MAX_SPANS = 200_000


def _metric_name(name: str, args, kwargs) -> str:
    """The layer a call is booked under; some functions split or merge."""
    if name in ("designs.construct_lb_design", "designs.construct_uniform_design"):
        return "designs.construct"
    if name == "linalg.rref_gfp":
        return "linalg.rref_gfp.p2" if args[0].p == 2 else "linalg.rref_gfp.podd"
    if name == "linalg.min_weight_kernel_gfp":
        mode = kwargs.get("mode", args[2] if len(args) > 2 else "kernel")
        return "linalg.min_weight." + ("kernel" if mode.startswith("kernel") else "support")
    if name == "linalg.min_support_kernel_rational":
        return "linalg.min_support_rational"
    return name


def _work(metric: str, args, result) -> tuple[str, str, int] | None:
    """(layer, counter, amount) for the layers that count work, read off the call."""
    if metric == "incidence.wilson_matrix":
        return metric, "nnz", sum(len(col) for col in result.col_rows)
    if metric == "designs.verify_strength":
        return metric, "violations", len(result.violations)
    if metric.startswith("linalg.rref_gfp"):
        return "linalg.rref_gfp", "cells", args[0].rows * args[0].cols
    if metric == "linalg.rank_rational":
        rows = args[0]
        return metric, "cells", len(rows) * (len(rows[0]) if rows else 0)
    return None


class Tracer:
    """Wraps qnull's public functions while installed; keeps the numbers."""

    def __init__(self):
        import qnull

        modules = [qnull] + [importlib.import_module(f"qnull.{m}") for m in MODULES]
        self.stats = defaultdict(lambda: defaultdict(float))  # metric -> field -> value
        self.hot = defaultdict(lambda: [0, 0.0])  # (parent span id, metric) -> [calls, self s]
        self.spans: list[tuple] = []  # (id, parent id, metric, start s, total s, self s)
        self.spans_dropped = 0
        self._next_id = 1
        self._stack = [[0, 0.0]]  # [span id, time of wrapped children]
        self._t0 = time.perf_counter()
        self._patches: list[tuple[object, str, object, object]] = []
        wrappers = {}
        for mod in modules[1:]:
            short = mod.__name__.split(".")[-1]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if callable(fn) and not isinstance(fn, type):
                    wrappers[id(fn)] = (fn, self._wrap(fn, f"{short}.{attr}"))
        for mod in modules:
            for attr, obj in vars(mod).items():
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patches.append((mod, attr, obj, wrappers[id(obj)][1]))
        from qnull.incidence import IncidenceMatrix
        from qnull.linalg import GfpMatrix

        dense = vars(IncidenceMatrix)["dense"]
        self._patches.append((IncidenceMatrix, "dense", dense, self._wrap(dense, "incidence.dense")))
        from_inc = vars(GfpMatrix)["from_incidence"]
        wrapped = classmethod(self._wrap(from_inc.__func__, "linalg.from_incidence"))
        self._patches.append((GfpMatrix, "from_incidence", from_inc, wrapped))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)

    # -- wrappers ---------------------------------------------------------

    def _enter(self, metric: str) -> list:
        if metric in HOT:
            frame = [self._stack[-1][0], 0.0, metric, True]
        else:
            frame = [self._next_id, 0.0, metric, False]
            self._next_id += 1
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        total = end - start
        own = total - frame[1]
        self._stack[-1][1] += total
        metric = frame[2]
        self.stats[metric]["s"] += own
        if frame[3]:
            h = self.hot[(frame[0], metric)]
            h[0] += 1
            h[1] += own
        elif len(self.spans) < MAX_SPANS:
            parent = self._stack[-1][0]
            self.spans.append((frame[0], parent, metric, start - self._t0, total, own))
        else:
            self.spans_dropped += 1

    def _wrap(self, fn, name: str):
        clock = time.perf_counter
        tracer = self

        if inspect.isgeneratorfunction(fn):

            def gen_wrapper(*args, **kwargs):
                metric = _metric_name(name, args, kwargs)
                tracer.stats[metric]["calls"] += 1
                it = fn(*args, **kwargs)
                while True:
                    frame = tracer._enter(metric)
                    start = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._leave(frame, start, clock())
                    tracer.stats[metric]["yields"] += 1
                    yield item

            return gen_wrapper

        def wrapper(*args, **kwargs):
            metric = _metric_name(name, args, kwargs)
            frame = tracer._enter(metric)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except RuntimeError:
                # budget refusals and "too large" joins; both modes count together
                layer = metric.rpartition(".")[0] if metric.startswith("linalg.min_weight.") else metric
                tracer.stats[layer]["refused"] += 1
                raise
            finally:
                tracer._leave(frame, start, clock())
            tracer.stats[metric]["calls"] += 1
            work = _work(metric, args, result)
            if work is not None:
                tracer.stats[work[0]][work[1]] += work[2]
            return result

        return wrapper

    # -- results ----------------------------------------------------------

    def dump(self) -> dict:
        return {
            "layers": {k: dict(v) for k, v in sorted(self.stats.items())},
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
            "hot_by_parent": [[pid, m, c, s] for (pid, m), (c, s) in self.hot.items()],
        }
