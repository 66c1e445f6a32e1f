"""Run-time spans around every public leftsym function, kept in memory.

install() replaces each public function of each library module, in that
module's namespace and in every leftsym namespace that imported it, by a
wrapper that records a span: layer, function, start, end, parent span, the
job it belongs to, the dimension of its first argument and the class of
any exception that ended it.  Calls within a module go through the module
globals, so they become spans too.  Nothing in the library is edited;
uninstall() puts the original functions back.

Spans are recorded only inside Tracer.job(), so the benchmark's own
correctness checks between jobs leave no trace.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# library module -> layer name
LAYERS = {
    "core": "core",
    "forms": "forms",
    "_systems": "systems",
    "construct": "construct",
    "decompose": "decompose",
    "geometry": "geometry",
    "catalog": "catalog",
    "search": "search",
    "algfile": "algfile",
    "cli": "cli",
}
BENCH = "bench"
# functions whose str argument or result is algebra-file text
BYTES_FUNCTIONS = ("algfile.parse_algebra_file", "algfile.render_algebra_file")

# span record fields
SID, PARENT, JOB, LAYER, NAME, T0, T1, DIM, ERROR, NBYTES = range(10)


def _dim_of(args) -> int | None:
    if args:
        dim = getattr(args[0], "dim", None)
        if isinstance(dim, int):
            return dim
    return None


class Tracer:
    """Owns the span list and the patches it made to the library."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._job: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> int:
        """Wrap every public library function; returns how many were wrapped."""
        spaces = [m for name, m in sys.modules.items()
                  if name == "leftsym" or name.startswith("leftsym.")]
        wrapped = 0
        for modname, layer in LAYERS.items():
            mod = sys.modules[f"leftsym.{modname}"]
            for attr, fn in list(vars(mod).items()):
                public = not attr.startswith("_") and inspect.isfunction(fn)
                if not public or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(fn, layer, f"{layer}.{attr}")
                wrapped += 1
                for ns in spaces:
                    for name, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, name, wrapper)
                            self._patches.append((ns, name, fn))
        return wrapped

    def uninstall(self) -> None:
        for ns, name, fn in reversed(self._patches):
            setattr(ns, name, fn)
        self._patches.clear()

    def _wrap(self, fn, layer: str, qualname: str):
        spans, stack = self.spans, self._stack
        count_bytes = qualname in BYTES_FUNCTIONS

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if self._job is None:
                return fn(*args, **kwargs)
            rec = [len(spans), stack[-1], self._job, layer, qualname, 0.0, 0.0,
                   _dim_of(args), None, 0]
            spans.append(rec)
            stack.append(rec[SID])
            rec[T0] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[T1] = perf_counter()
                stack.pop()
            if count_bytes:
                rec[NBYTES] = sum(len(a) for a in (*args, out) if isinstance(a, str))
            return out

        return span

    @contextmanager
    def job(self, job_id: int, dim: int | None = None):
        """Root span of one job; library spans inside it share job_id."""
        rec = [len(self.spans), None, job_id, BENCH, "bench.job", 0.0, 0.0, dim, None, 0]
        self.spans.append(rec)
        self._stack.append(rec[SID])
        self._job = job_id
        rec[T0] = perf_counter()
        try:
            yield
        finally:
            rec[T1] = perf_counter()
            self._job = None
            self._stack.pop()

    def write(self, path) -> None:
        """Spans as JSON lines, with the self time of each span added."""
        self_time = self_times(self.spans)
        keys = ("id", "parent", "job", "layer", "name", "start", "end", "dim", "error", "bytes")
        with open(path, "w") as fh:
            for rec in self.spans:
                doc = dict(zip(keys, rec))
                doc["self_s"] = self_time[rec[SID]]
                fh.write(json.dumps(doc) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part covered by its child spans.

    Calls are sequential in one thread, so children never overlap and the
    covered part is the sum of their durations.
    """
    out = [rec[T1] - rec[T0] for rec in spans]
    for rec in spans:
        if rec[PARENT] is not None:
            out[rec[PARENT]] -= rec[T1] - rec[T0]
    return out


def layer_metrics(spans: list[list], passes: int, jobs_per_pass: int, wall_s: float) -> dict:
    """Per-layer and per-function totals of the traced passes, per pass.

    wall_s is the summed wall time of the traced passes; share is a layer's
    self time over it.
    """
    self_time = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    selfs: dict[str, float] = defaultdict(float)
    errors: dict[str, int] = defaultdict(int)
    nbytes: dict[str, int] = defaultdict(int)
    for rec in spans:
        for key in (rec[LAYER], rec[NAME]):
            calls[key] += 1
            selfs[key] += self_time[rec[SID]]
            errors[key] += rec[ERROR] is not None
            nbytes[key] += rec[NBYTES]
    out = {}
    for layer in LAYERS.values():
        out[f"{layer}.calls"] = calls[layer] / passes
        out[f"{layer}.self_s"] = selfs[layer] / passes
        out[f"{layer}.share"] = selfs[layer] / wall_s if wall_s > 0 else 0.0
        out[f"{layer}.errors"] = errors[layer] / passes
    out[f"{BENCH}.self_s"] = selfs[BENCH] / passes
    out["functions"] = {
        name: {
            "calls": calls[name] / passes,
            "self_s": selfs[name] / passes,
            "calls_per_job": calls[name] / (passes * jobs_per_pass),
            "bytes": nbytes[name] / passes,
        }
        for name in calls
        if name not in LAYERS.values() and name != BENCH
    }
    return out


def exponent(spans: list[list], name: str) -> float | None:
    """Log-log slope of a function's per-call time against n.

    n is the dimension of the call's first argument.  The time per n is
    the median whole duration of the calls at that n (for a function whose
    work is all in its children, such as decompose.decompose, self time is
    only dispatch).  The fit uses the sizes at or above half the largest
    one, where the leading power dominates; None when fewer than two sizes
    qualify.
    """
    by_dim: dict[int, list[float]] = defaultdict(list)
    for rec in spans:
        if rec[NAME] == name and rec[DIM]:
            by_dim[rec[DIM]].append(rec[T1] - rec[T0])
    if not by_dim:
        return None
    top = max(by_dim)
    dims = sorted(d for d in by_dim if 2 * d >= top)
    if len(dims) < 2:
        return None
    xs = [math.log(d) for d in dims]
    ys = [math.log(max(statistics.median(by_dim[d]), 1e-9)) for d in dims]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
