"""The three benchmark workloads.

All are closed loop: one caller, and the next request goes out when the
previous answer returns.  Each round generates a fresh mesh (input, timed
as `meshgen`, not as setup), builds the solver state on it (`setup`), and
then sends requests.  Checker matrices are assembled only after the setup
is timed, and never through the complex's cached matrices, so the package's
lazy caches fill exactly as they would for a user.

Inputs are N(0, 1) vectors drawn from the run's seed; the meshes are fixed
per workload.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field

import numpy as np

from check import Checker

EPS = 1e-6


@dataclass
class Sizes:
    box: int            # box-stream grid edge, in cells
    ring_chunk: tuple   # ring-rebuild chunk dims, in cells; glued along x
    sphere: int         # sphere-up grid edge, in cells


# Smaller than the 15^3 box and 6^3 ring chunks of the ROADMAP baseline: a
# run has to repeat setup and requests often enough for its medians to be
# steady within the run budget.  On a 2-core Xeon, one 15^3 setup takes 8-9 s
# and one solve 6-10 s; one 6^3-chunk ring setup takes 10 s.  6x4x4 chunks
# still get two hollowing regions each and a glueable exterior wall.
FULL = Sizes(box=10, ring_chunk=(6, 4, 4), sphere=12)
SMOKE = Sizes(box=4, ring_chunk=(4, 4, 4), sphere=6)


@dataclass
class Request:
    kind: str
    seconds: float
    ok: bool
    first: bool
    error: float        # check value: a residual, or a Hodge violation ratio


@dataclass
class Record:
    """Everything a workload measured; the tracer holds the spans."""
    setups: list = field(default_factory=list)
    requests: list = field(default_factory=list)
    info: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)


class Runner:
    def __init__(self, tetlap, tracer, seconds: float, seed: int):
        self.t = tetlap
        self.tracer = tracer
        self.deadline = time.perf_counter() + seconds
        self.rng = np.random.default_rng(seed)
        self.record = Record()
        self.relaxed = tetlap.HollowingConfig(min_shell_width=2,
                                              min_component_separation=2)
        self.checker = None

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def meshgen(self, make):
        with self.tracer.op("meshgen"):
            return make()

    def setup(self, build):
        with self.tracer.op("setup") as span:
            out = build()
        self.record.setups.append(span.seconds)
        return out

    def hollow(self, fn, *args):
        with self.tracer.span("bench.hollowing"):
            return fn(*args)

    def checker_for(self, c, harmonic=False) -> Checker:
        if self.checker is None or not self.checker.describes(c):
            self.checker = Checker(c, harmonic=harmonic)
        return self.checker

    def request(self, kind, call, check, first):
        """Time one request, then check its output outside the timing."""
        try:
            with self.tracer.op(kind) as span:
                out = call()
            error = check(out)
        except Exception as exc:   # a failed request is counted, not fatal
            self.record.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
            self.record.requests.append(
                Request(kind, span.seconds, False, first, np.inf))
            return
        ok = bool(error <= 1.0) if kind == "hodge" else bool(error <= EPS)
        if not ok:
            self.record.errors.append(f"{kind}: check failed ({error:.3e})")
        self.record.requests.append(Request(kind, span.seconds, ok, first, error))


def mesh_info(c, h) -> dict:
    return {"edges": int(c.num_edges), "regions": int(h.num_regions),
            "wall_edges": int(len(h.boundary_edges)),
            "wall_triangles": int(len(h.boundary_triangles))}


def _round_budget(run: Runner, rounds_left: int) -> float:
    return time.perf_counter() + max(run.remaining(), 0.0) / rounds_left


def box_stream(run: Runner, sizes: Sizes, rounds: int = 3) -> None:
    """Solid box, thick-wall hollowing; alternating one_lap_solve and
    hodge_decompose requests on one state per round.  b1 = 0, so P1 = I."""
    t, k = run.t, sizes.box
    for rnd in range(rounds):
        c = run.meshgen(lambda: t.gen_grid(t.GridSpec((k, k, k))))

        def build():
            h = run.hollow(t.find_hollowing, c, c.num_simplexes ** 0.6,
                           run.relaxed)
            return h, t.build_one_lap_solver(c, h)
        h, state = run.setup(build)
        chk = run.checker_for(c)
        run.record.info.update(mesh_info(c, h))
        end = _round_budget(run, rounds - rnd)
        i = 0
        while i < 2 or time.perf_counter() < end:
            f = run.rng.standard_normal(c.num_edges)
            if i % 2 == 0:
                run.request(
                    "solve",
                    lambda: t.one_lap_solve(c, h, f, EPS, state=state)[0],
                    lambda x: chk.solve_residual(x, f), first=i == 0)
            else:
                run.request(
                    "hodge",
                    lambda: t.hodge_decompose(c, h, f, EPS, state=state),
                    lambda parts: chk.hodge_error(f, parts, EPS), first=False)
            i += 1
        del c, h, state
        gc.collect()


def ring_chunks(t, dims):
    """Four boxes in a ring, box j's far x face glued to box j+1's x = 0
    face, as in acceptance criterion 10."""
    chunks = [t.gen_grid(t.GridSpec(dims)) for _ in range(4)]
    k = dims[0]
    groups = []
    for j in range(4):
        nxt = chunks[(j + 1) % 4]
        lookup = {tuple(np.round(nxt.vertices[v, 1:], 9)): int(v)
                  for v in np.flatnonzero(np.isclose(nxt.vertices[:, 0], 0.0))}
        for v in np.flatnonzero(np.isclose(chunks[j].vertices[:, 0], float(k))):
            key = tuple(np.round(chunks[j].vertices[v, 1:], 9))
            groups.append([(j, int(v)), ((j + 1) % 4, lookup[key])])
    return chunks, groups


def ring_rebuild(run: Runner, sizes: Sizes, solves: int = 5,
                 min_rounds: int = 2) -> None:
    """Ring of four glued boxes, rebuilt from fresh chunks every round:
    hollow each chunk, glue, build_union_solver, then a few solves.
    b1 >= 1, so the check projects the harmonic part off b."""
    t, dims = run.t, sizes.ring_chunk
    rnd, last = 0, 0.0
    while rnd < min_rounds or run.remaining() >= last:
        started = time.perf_counter()
        chunks, groups = run.meshgen(lambda: ring_chunks(t, dims))

        def build():
            hs = [run.hollow(t.find_hollowing, ch, ch.num_simplexes ** 0.6,
                             run.relaxed) for ch in chunks]
            u = t.glue(chunks, groups, hs)
            return u, t.build_union_solver(u)
        u, state = run.setup(build)
        chk = run.checker_for(u.complex, harmonic=True)
        if chk.b1 < 1:
            raise RuntimeError("ring has no harmonic part; check the gluing")
        run.record.info.update(mesh_info(u.complex, u.hollowing), b1=chk.b1)
        for i in range(solves):
            b = run.rng.standard_normal(u.complex.num_edges)
            run.request("solve",
                        lambda: t.union_one_lap_solve(u, b, EPS, state=state)[0],
                        lambda x: chk.solve_residual(x, b), first=i == 0)
        del chunks, u, state
        gc.collect()
        rnd += 1
        last = time.perf_counter() - started


def sphere_up(run: Runner, sizes: Sizes, rounds: int = 3) -> None:
    """Solid box, sphere hollowing, reduced-system wall preconditioner;
    up_lap_solve_fast requests on b = Lup y.  No projection is involved."""
    t, k = run.t, sizes.sphere
    for rnd in range(rounds):
        c = run.meshgen(lambda: t.gen_grid(t.GridSpec((k, k, k))))

        def build():
            h = run.hollow(t.sphere_hollowing, c, c.num_simplexes ** 0.6,
                           run.relaxed)
            # called through the module, so a traced run records its span
            return h, t.uplap.build_sphere_fast_solver(c, h)
        h, state = run.setup(build)
        chk = run.checker_for(c)
        run.record.info.update(mesh_info(c, h))
        end = _round_budget(run, rounds - rnd)
        i = 0
        while i < 2 or time.perf_counter() < end:
            b = chk.lap_up @ run.rng.standard_normal(c.num_edges)
            run.request("solve",
                        lambda: t.up_lap_solve_fast(c, h, b, EPS, state=state)[0],
                        lambda x: chk.up_residual(x, b), first=i == 0)
            i += 1
        del c, h, state
        gc.collect()


WORKLOADS = {
    "box-stream": box_stream,
    "ring-rebuild": ring_rebuild,
    "sphere-up": sphere_up,
}
