"""In-memory spans around tetlap's layer boundaries, recorded from outside
the package.

`install` replaces module-level functions of tetlap with wrappers that open
a span per call.  A `from .x import f` binds a separate name in the
importing module, so every binding of a wrapped function is replaced: the
defining module's (reached through module globals and function-local
imports) and the copies imported into `onelap`, `uplap`, `upproj` and
`downlap`.  Nothing under `src/` is edited.

Every span records its name, start, end, parent span and the benchmark
operation it belongs to.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

import numpy as np

# modules whose imported tetlap functions are layer boundaries
IMPORTING_MODULES = ("tetlap.onelap", "tetlap.uplap", "tetlap.upproj",
                     "tetlap.downlap")
# functions reached through module globals of their defining module
DEFINED_BOUNDARIES = {
    "tetlap.complexes": ("boundary_operator", "up_laplacian",
                         "down_laplacian", "one_laplacian"),
    "tetlap.dissection": ("nd_ordering", "cholesky", "solve_with_factor"),
    "tetlap.uplap": ("build_sphere_fast_solver",),
    # the union build functions are onelap's own; their span names
    # charge them to the layer whose state they build
    "tetlap.onelap": ("build_union_up_solver", "_build_union_proj_state"),
}
SPAN_NAME_OVERRIDES = {
    "tetlap.onelap.build_union_up_solver": "uplap.build_union_up_solver",
    "tetlap.onelap._build_union_proj_state": "upproj.build_union_proj_state",
}


class Tracer:
    """Span recorder.  Op spans (`op`) are opened by the benchmark around
    each setup and request; `install` adds spans inside them."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op_of: list[int] = []
        self.nested_name: list[bool] = []
        self.nested_layer: list[bool] = []
        self.op_kinds: list[str] = []
        self.op_span: list[int] = []
        self.counters: dict[str, dict[int, float]] = defaultdict(
            lambda: defaultdict(float))
        self._stack: list[int] = []
        self._active_names: dict[str, int] = defaultdict(int)
        self._active_layers: dict[str, int] = defaultdict(int)
        self._op = -1
        self.untraced: list[str] = []

    # -- recording -----------------------------------------------------

    def open(self, name: str) -> int:
        layer = name.split(".", 1)[0]
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_of.append(self._op)
        self.nested_name.append(self._active_names[name] > 0)
        self.nested_layer.append(self._active_layers[layer] > 0)
        self._active_names[name] += 1
        self._active_layers[layer] += 1
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        name = self.names[idx]
        self._active_names[name] -= 1
        self._active_layers[name.split(".", 1)[0]] -= 1
        self._stack.pop()
        if not self._stack:
            self._op = -1

    def span(self, name: str):
        return _Span(self, name)

    def op(self, kind: str):
        """Span of one benchmark operation; spans opened inside belong to it."""
        self._op = len(self.op_kinds)
        self.op_kinds.append(kind)
        span = _Span(self, "op." + kind)
        self.op_span.append(len(self.names))
        return span

    def duration(self, idx: int) -> float:
        return self.end[idx] - self.start[idx]

    def count(self, key: str, value: float) -> None:
        self.counters[key][self._op] += value

    # -- derived quantities ---------------------------------------------

    def arrays(self):
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur, dur - child

    def per_op(self, values, mask) -> np.ndarray:
        """Sum of `values` over spans selected by `mask`, per operation."""
        ops = np.asarray(self.op_of, dtype=np.int64)
        keep = mask & (ops >= 0)
        return np.bincount(ops[keep], weights=np.asarray(values)[keep],
                           minlength=len(self.op_kinds))

    def name_mask(self, names) -> np.ndarray:
        names = set(names)
        return np.fromiter((n in names for n in self.names), dtype=bool,
                           count=len(self.names))

    def write(self, path) -> None:
        uniq = sorted(set(self.names))
        index = {n: i for i, n in enumerate(uniq)}
        t0 = self.start[0] if self.start else 0.0
        data = {
            "names": uniq,
            "name": [index[n] for n in self.names],
            "start_s": [round(t - t0, 7) for t in self.start],
            "end_s": [round(t - t0, 7) for t in self.end],
            "parent": self.parent,
            "op": self.op_of,
            "op_kinds": self.op_kinds,
        }
        with open(path, "w") as fh:
            json.dump(data, fh)


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer, name):
        self.tracer, self.name, self.idx = tracer, name, -1

    def __enter__(self):
        self.idx = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.idx)
        return False

    @property
    def seconds(self) -> float:
        return self.tracer.duration(self.idx)


# -- counters taken from return values ----------------------------------

def _count_cholesky(tracer, args, out):
    tracer.count("dissection.factors", 1)
    n = len(getattr(out, "perm", ()))
    tracer.count("dissection.skipped_pivots", n - getattr(out, "rank", n))
    L = getattr(out, "L", None)
    tracer.count("dissection.L_nnz", getattr(L, "nnz", 0))


def _count_ordering(tracer, args, out):
    stack, fronts = [getattr(out, "tree", None)], 0
    while stack:
        node = stack.pop()
        if node is None:
            continue
        fronts += 1
        stack.extend(getattr(node, "children", ()))
    tracer.count("dissection.fronts", fronts)


def _count_factor_solve(tracer, args, out):
    b = np.asarray(args[1]) if len(args) > 1 else np.zeros(1)
    tracer.count("dissection.factor_solve_cols", b.shape[1] if b.ndim > 1 else 1)


def _count_pcg(tracer, args, out):
    report = out[1] if isinstance(out, tuple) and len(out) > 1 else None
    stage = getattr(report, "stage", "")
    tracer.count("pcg.iters." + stage, getattr(report, "iterations", 0))
    if stage == "down_projection" and not getattr(report, "converged", True):
        # downlap.down_projection then falls back to a direct factor
        tracer.count("downlap.projection_fallbacks", 1)


HOOKS = {
    "tetlap.dissection.cholesky": _count_cholesky,
    "tetlap.dissection.nd_ordering": _count_ordering,
    "tetlap.dissection.solve_with_factor": _count_factor_solve,
    "tetlap.pcg.pcg": _count_pcg,
}


def _wrap(tracer, fn, span_name, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(span_name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            hook(tracer, args, out)
        return out
    return traced


def install(tracer: Tracer) -> int:
    """Wrap every layer-boundary binding; returns the number of bindings."""
    targets = []   # (module, attribute name, original function)
    for modname in IMPORTING_MODULES:
        mod = importlib.import_module(modname)
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ != modname
                    and obj.__module__.startswith("tetlap.")):
                targets.append((mod, attr, obj))
    for modname, attrs in DEFINED_BOUNDARIES.items():
        mod = importlib.import_module(modname)
        for attr in attrs:
            obj = getattr(mod, attr, None)
            if inspect.isfunction(obj):
                targets.append((mod, attr, obj))
            else:
                tracer.untraced.append(f"{modname}.{attr}")

    # the defining module's own binding too, for calls through its globals
    for _, _, obj in list(targets):
        home = importlib.import_module(obj.__module__)
        if getattr(home, obj.__name__, None) is obj:
            targets.append((home, obj.__name__, obj))

    wrappers = {}
    bound = 0
    for mod, attr, obj in targets:
        if getattr(mod, attr) is not obj:
            continue          # already replaced through another binding
        full = f"{obj.__module__}.{obj.__name__}"
        if id(obj) not in wrappers:
            name = SPAN_NAME_OVERRIDES.get(full, full.removeprefix("tetlap."))
            wrappers[id(obj)] = _wrap(tracer, obj, name, HOOKS.get(full))
        setattr(mod, attr, wrappers[id(obj)])
        bound += 1
    return bound
