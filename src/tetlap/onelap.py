"""Full 1-Laplacian solver, Hodge decomposition, Betti diagnostics, and
the gluing of complexes along exterior simplexes.

The solve follows the split route of the Hodge decomposition
b = gradient + curl + harmonic.  An orthonormal basis H of the harmonic
space ker L1, one column per independent tunnel, is built once with the
solver state; then P1 b = b - H H^T b exactly, the gradient part comes from
one solve with the vertex-Laplacian factor, also built with the state, and
the curl part is their complement, so no curl projection runs per request.
The up and down systems are solved separately and the partial solutions
are projected back and added.  The up solve first runs at eps itself; the
residual against P1 b is recomputed, and on a miss the up solve runs once
more a hundred times tighter; a second miss raises NumericalError.

A glued union is a complex with a hollowing of kind "union", built and
solved by the same functions as a mesh.  It usually has no global
embedding: `glue` gives its complex a chart atlas instead, the chunks'
charts side by side along x, and every nested dissection ordering reads it
as it reads a mesh's coordinates: an ordering changes a factor's fill only,
never its exactness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from . import oracle
from .complexes import Complex3, build_complex, down_laplacian
from .downlap import (DownState, build_down_state, down_lap_solve,
                      down_projection)
from .errors import (ROUNDOFF_MULTIPLE, NumericalError, check_state,
                     check_tolerance, check_vector, missed_contract, one_norm,
                     roundoff_floor)
from .hollowing import Hollowing, check_hollowing
from .reports import SolveReport
from .uplap import UpSolverState, _up_solve_with_state, build_up_solver

# the up solve's tolerance is eps itself, and on a missed contract once
# more at RETRY_SHARE * eps (Simoncini and Szyld, SIAM J. Sci. Comput.
# 2003: inner tolerances need not be set a priori from a condition bound)
RETRY_SHARE = 1e-2
# the harmonic basis: each probe's up solve runs to PROBE_TOL; a probe adds
# no direction when what is left of it, before or after one more up solve
# takes off its leftover curl part, is shorter than sqrt(PROBE_TOL) |v|
PROBE_TOL = 1e-12
PROBE_SEED = 0
# relative accuracy of the harmonic basis; a b whose P1 b is below it is
# harmonic as far as the basis can tell, and its solution is 0
HARMONIC_TOL = 1e-10


@dataclass
class OneLapState:
    """Everything a solve or a Hodge split reads, built once; nothing in it
    or in its complex changes afterwards."""
    complex: Complex3
    hollowing: Hollowing
    weights: list                     # the up state's copies of c.weights
    up_state: UpSolverState
    down_state: DownState
    harmonic: np.ndarray              # orthonormal basis of ker L1, edges x b1
    probes: int                       # probes the harmonic basis drew


def build_one_lap_solver(c, h: Hollowing) -> OneLapState:
    """The state a solve reads, for a mesh and a glued union alike."""
    up_state = build_up_solver(c, h)
    down_state = build_down_state(c)
    budget, closed = probe_budget(c, h, up_state, down_state)
    _check_budget(c, h, budget, down_state)
    harmonic, probes = harmonic_basis(c, up_state, down_state, budget, closed)
    return OneLapState(complex=c, hollowing=h, weights=up_state.weights,
                       up_state=up_state, down_state=down_state,
                       harmonic=harmonic, probes=probes)


def probe_budget(c, h: Hollowing, up_state: UpSolverState,
                 down_state: DownState):
    """(budget, closed): an upper bound on b1 from the ranks the factors
    hold, and whether the wall is closed, every wall triangle's three edges
    wall edges.

    b1 = E - rank Lup - rank L0, and rank Lup = rank Lup[F,F] + rank S for
    S the Schur complement on the wall (Haynsworth, Linear Algebra Appl.
    1968).  On a closed wall an x_c in ker S extends to an x with
    d2^T x = 0, which makes x_c a kernel vector of the wall up-Laplacian,
    so rank(wall) <= rank S and the budget E - rank Lup[F,F] - rank L0 -
    rank(wall) bounds b1; with the wall preconditioner working the two
    ranks agree and the budget is b1.  A wall triangle with an interior
    edge (a surface wall) breaks that: the wall term is left out there.
    """
    budget = (c.num_edges - up_state.interior.rank
              - down_state.lap0_factor.rank)
    closed = bool((h.edge_class[c.tri_edges[h.boundary_triangles]] < 0).all())
    if closed and up_state.wall is not None:
        budget -= up_state.wall.rank
    return budget, closed


def _check_budget(c, h: Hollowing, budget, down_state: DownState):
    """Raise when the budget is below a lower bound on b1: 0, and for a
    complex embedded in R^3 (b3 = 0; a union's atlas is no embedding)
    b0 - chi = b1 - b2, which where b2 = 0 catches a rank counted too high."""
    b0 = c.num_vertices - down_state.graph.rank
    chi = c.num_vertices - c.num_edges + c.num_triangles - c.num_tets
    if budget < 0 or (h.kind != "union" and budget < b0 - chi):
        raise NumericalError(
            f"the factors' ranks bound b1 by {budget}, below a lower bound "
            f"on b1 (0, or b0 - chi = {b0 - chi} for a complex in R^3); a "
            "factor's rank is counted too high")


def harmonic_basis(c, up_state: UpSolverState, down_state: DownState,
                   budget: int, closed: bool):
    """(H, probes): an orthonormal basis H of ker L1 (edges x b1) from
    seeded Gaussian probes, and the number of probes drawn.

    A probe v loses its gradient part, u = v - P_grad v, and then its curl
    part through an up solve: y solves Lup y = Lup u, so u - y lies in
    ker Lup, and after a second gradient pass it is harmonic.  The kernel
    part the solver adds to y depends only on the curl part of v, which is
    independent of the Gaussian's harmonic part, so the probes span ker L1.
    What the probe's solve leaves of the curl part is solved for once more
    and taken off, so a curl leftover that survives one solve is not
    mistaken for a direction whatever the condition of Lup.

    At most `budget` probes run (see probe_budget).  On a closed wall the
    budget is b1: every probe must add a direction, else NumericalError,
    and no probe runs when b1 = 0.  On an open wall it is only an upper
    bound, and the loop stops at the first probe that adds nothing.

    Every up solve's right-hand side is formed as d2 (W2 (d2^T x)), in
    Im(d2) = Im(Lup) up to rounding relative to itself.  The assembled
    Lup x carries rounding of about u |Lup|_1 |x| in every direction,
    ker Lup included; for a nearly harmonic x that is most of Lup x, and
    the Schur PCG cannot solve it away.
    """
    d2, n, w2 = up_state.d2, c.num_edges, c.weights[2]
    rng = np.random.default_rng(PROBE_SEED)
    threshold = np.sqrt(PROBE_TOL)

    def lup_apply(x):
        return d2 @ (w2 * (d2.T @ x))

    def grad_free(v):
        return v - down_projection(c, v, state=down_state)

    def up_solve(rhs, tol):
        return _up_solve_with_state(up_state, rhs, tol)[0]

    lup_norm1 = one_norm(up_state.lup)

    def refine(w):
        # solve the curl part away no tighter than the rounding error in
        # Lup w allows, and not at all when Lup w is all rounding error
        lup_w = lup_apply(w)
        floor = ROUNDOFF_MULTIPLE * roundoff_floor(lup_norm1, w)
        if np.linalg.norm(lup_w) <= floor:
            return w
        tol = max(PROBE_TOL, floor / np.linalg.norm(lup_w))
        return grad_free(w - up_solve(lup_w, tol))

    basis = np.zeros((n, 0))

    def orthogonalize(w):
        for _ in range(2):
            w = w - basis @ (basis.T @ w)
        return w

    probes = 0
    for probes in range(1, budget + 1):
        v = rng.standard_normal(n)
        u = grad_free(v)
        w = orthogonalize(grad_free(u - up_solve(lup_apply(u), PROBE_TOL)))
        if np.linalg.norm(w) > threshold * np.linalg.norm(v):
            w = orthogonalize(refine(w))
        if np.linalg.norm(w) <= threshold * np.linalg.norm(v):
            if closed:
                raise NumericalError(
                    f"harmonic probe {probes} added no direction: "
                    f"{basis.shape[1]} found, but the factors' ranks give "
                    f"b1 = {budget}")
            break
        basis = np.column_stack([basis, w / np.linalg.norm(w)])
    return basis, probes


def one_lap_solve(c, h: Hollowing, b, eps: float,
                  state: Optional[OneLapState] = None):
    """x with |L1 x - P1 b| <= eps |P1 b|, P1 the projection onto Im(L1).

    P1 b = b - H H^T b is known to the accuracy of the harmonic basis H,
    about HARMONIC_TOL |b|.  A b with |P1 b| <= HARMONIC_TOL |b| is taken
    as harmonic: x = 0, and the report says converged with
    params["harmonic_input"] set, although its final residual, |P1 b|,
    may exceed eps |P1 b|.

    The residual is recomputed from x; a solve that misses it with its up
    solve at eps, and again at RETRY_SHARE * eps, raises NumericalError
    naming the residual, the target and the roundoff floor.  A `state`
    built for another complex or hollowing raises ValueError.
    """
    b = check_vector(b, c.num_edges, "b")
    eps = check_tolerance(eps)
    if state is None:
        state = build_one_lap_solver(c, h)
    check_state(state, c, h)
    harm = state.harmonic
    report = SolveReport(stage="one_lap_solve", size=len(b),
                         params={"eps": eps, "b1": harm.shape[1]})
    p1b = b - harm @ (harm.T @ b)
    report.initial_residual = report.final_residual = float(
        np.linalg.norm(p1b))
    harmonic_input = bool(report.initial_residual
                          <= HARMONIC_TOL * np.linalg.norm(b))
    report.params["harmonic_input"] = harmonic_input
    if harmonic_input:
        return np.zeros_like(b), report
    target = eps * report.initial_residual
    down = state.down_state
    b_down = down_projection(c, b, state=down)
    x_down = down_lap_solve(c, b_down, state=down)
    for stage, delta in (("up_solve", eps), ("up_solve_retry",
                                             RETRY_SHARE * eps)):
        x_up, up_rep = _up_solve_with_state(state.up_state, p1b - b_down,
                                            delta)
        report.add_stage(stage, up_rep)
        # keep the curl part of x_up and the gradient part of x_down
        x = x_up - harm @ (harm.T @ x_up) + down_projection(
            c, x_down - x_up, state=down)
        # L1 x as Lup x + d1^T (w0 * (d1 x)): no L1 is assembled
        l1x = state.up_state.lup @ x + down.d1.T @ (
            down.weights[0] * (down.d1 @ x))
        report.final_residual = float(np.linalg.norm(l1x - p1b))
        if report.final_residual <= target:
            break
    else:
        floor = roundoff_floor(
            one_norm(state.up_state.lup + down_laplacian(c, 1)), x)
        raise missed_contract(
            "1-Laplacian solve", report.final_residual, "eps * |P1 b|",
            target, eps, "|L1|_1", floor,
            f"also with the up solve at {delta:.1e}; float64 roundoff floor "
            f"u * |L1|_1 * |x| = {floor:.3e}")
    report.params.update(delta=delta, retried=stage != "up_solve")
    return x, report


def hodge_decompose(c, h: Hollowing, f, eps: float,
                    state: Optional[OneLapState] = None):
    """Split a 1-chain into (gradient, curl, harmonic) parts.

    The gradient part is one exact projection through the vertex-Laplacian
    factor, correct up to roundoff, and the curl part is f less the other
    two.  The harmonic part comes from the harmonic basis, so it and the
    curl part carry that basis' error, about HARMONIC_TOL |f|.  `eps` is
    only validated: no part of the split depends on it.  A `state` built
    for another complex or hollowing raises ValueError.
    """
    f = check_vector(f, c.num_edges, "f")
    eps = check_tolerance(eps)
    if state is None:
        state = build_one_lap_solver(c, h)
    check_state(state, c, h)
    harmonic = state.harmonic @ (state.harmonic.T @ f)
    gradient = down_projection(c, f, state=state.down_state)
    curl = f - gradient - harmonic
    return gradient, curl, harmonic


def betti_numbers(c, cap: int = oracle.SIZE_CAP):
    """(b0, b1, b2) via dense oracle ranks; desk scale only."""
    if max(c.simplex_counts()) > cap:
        raise ValueError(
            f"complex too large for dense Betti computation (> {cap}); "
            "no oracle-free estimate is provided")
    r1 = oracle.rank(c.boundary(1).toarray())
    r2 = oracle.rank(c.boundary(2).toarray())
    r3 = oracle.rank(c.boundary(3).toarray())
    b0 = c.num_vertices - r1
    b1 = (c.num_edges - r1) - r2
    b2 = (c.num_triangles - r2) - r3
    return b0, b1, b2


# -- unions of chunks ----------------------------------------------------------

@dataclass
class UnionComplex:
    chunks: list
    vertex_maps: list                 # chunk vertex id -> global vertex id
    complex: Complex3                 # glued complex; its coordinates are an
                                      # atlas for ordering, not an embedding
    shared_triangles: np.ndarray      # global triangles present in > 1 chunk
    hollowing: Hollowing              # induced labels on the glued complex


def glue(chunks, identifications, hollowings) -> UnionComplex:
    """Glue chunks by identifying classes of exterior vertices.

    `identifications` is a list of vertex classes, each a list of
    (chunk_index, vertex_index) pairs merged into one global vertex; every
    member is checked.  With the chunks' vertices numbered one after
    another, glued vertices are numbered in order of their classes'
    smallest such number.  Induced shared edges/triangles must be exterior
    in every chunk and on the boundary class of that chunk's hollowing.
    The glued complex's vertices are the chunks' charts laid side by side
    along x, an atlas that orders its factors, not an embedding.
    """
    if len(chunks) != len(hollowings):
        raise ValueError("need one hollowing per chunk")
    for ch, hh in zip(chunks, hollowings):
        check_hollowing(ch, hh)
    offsets = np.cumsum([0] + [ch.num_vertices for ch in chunks])
    pairs = []
    for group in identifications:
        seen_chunks = [g[0] for g in group]
        if len(set(seen_chunks)) != len(seen_chunks):
            raise ValueError("identification class names one chunk twice "
                             "(maps must be injective)")
        for chunk_idx, vid in group:
            if not (0 <= chunk_idx < len(chunks)):
                raise ValueError(f"identification names unknown chunk {chunk_idx}")
            ch = chunks[chunk_idx]
            if not (0 <= vid < ch.num_vertices):
                raise ValueError("identification names an invalid vertex")
            if not ch.exterior_vertices[vid]:
                raise ValueError(
                    f"vertex {vid} of chunk {chunk_idx} is not exterior")
        ids = [offsets[k] + v for k, v in group]
        pairs.extend((ids[0], i) for i in ids[1:])

    # connected_components numbers classes in order of their smallest member
    pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    same = sp.csr_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                         shape=(offsets[-1], offsets[-1]))
    num_vertices, global_id = connected_components(same, directed=False)
    vertex_maps = [global_id[offsets[k]:offsets[k + 1]] for k in range(len(chunks))]

    # the atlas: chunk 0's chart as it is, each later chart moved along x to
    # start where the previous one ends; a shared vertex takes the later
    # chunk's position
    coords = np.zeros((num_vertices, 3))
    end = chunks[0].vertices[:, 0].min() if chunks else 0.0
    for k, ch in enumerate(chunks):
        chart = ch.vertices + [end - ch.vertices[:, 0].min(), 0.0, 0.0]
        coords[vertex_maps[k]] = chart
        end = chart[:, 0].max()

    tets = np.vstack([vertex_maps[k][ch.tets] for k, ch in enumerate(chunks)])
    # build_complex lex-sorts tets; `order` recovers the permutation
    ordered = np.sort(tets, axis=1)
    order = np.lexsort(ordered.T[::-1])
    if np.any(np.all(np.diff(ordered[order], axis=0) == 0, axis=1)):
        raise ValueError("gluing identifies two tetrahedra")
    glued = build_complex(tets, coords)

    edge_maps = [glued.edge_ids(np.sort(vertex_maps[k][ch.edges], axis=1))
                 for k, ch in enumerate(chunks)]
    tri_maps = [glued.triangle_ids(np.sort(vertex_maps[k][ch.triangles], axis=1))
                for k, ch in enumerate(chunks)]
    rank = np.empty(len(tets), dtype=np.int64)
    rank[order] = np.arange(len(tets))
    tet_maps = np.split(rank, np.cumsum([ch.num_tets for ch in chunks])[:-1])

    _merge_weights(glued, chunks, edge_maps, tri_maps, tet_maps, vertex_maps)

    edge_shared = np.bincount(np.concatenate(edge_maps),
                              minlength=glued.num_edges) > 1
    shared_edges = np.flatnonzero(edge_shared)
    shared_triangles = np.flatnonzero(np.bincount(
        np.concatenate(tri_maps), minlength=glued.num_triangles) > 1)

    for k, ch in enumerate(chunks):
        local_shared = np.flatnonzero(edge_shared[edge_maps[k]])
        if np.any(~ch.exterior_edges[local_shared]):
            raise ValueError(f"chunk {k} shares a non-exterior edge")
        if np.any(hollowings[k].edge_class[local_shared] >= 0):
            raise ValueError(
                f"chunk {k} shares an edge that its hollowing classifies "
                "as interior; glue on hollowing-boundary simplexes only")

    union_h = _induced_union_hollowing(glued, chunks, hollowings, edge_maps,
                                       tri_maps, tet_maps, shared_edges,
                                       shared_triangles)
    return UnionComplex(chunks=list(chunks), vertex_maps=vertex_maps,
                        complex=glued, shared_triangles=shared_triangles,
                        hollowing=union_h)


def _merge_weights(glued, chunks, edge_maps, tri_maps, tet_maps, vertex_maps):
    for dim, maps in enumerate((vertex_maps, edge_maps, tri_maps, tet_maps)):
        out = np.full(len(glued.weights[dim]), np.nan)
        for k, ch in enumerate(chunks):
            w = ch.weights[dim]
            prev = out[maps[k]]
            clash = ~np.isnan(prev) & (np.abs(prev - w) > 1e-12)
            if np.any(clash):
                raise ValueError(
                    f"chunks disagree on the weight of a shared {dim}-simplex")
            out[maps[k]] = w
        glued.weights[dim] = out


def _induced_union_hollowing(glued, chunks, hollowings, edge_maps, tri_maps,
                             tet_maps, shared_edges, shared_triangles) -> Hollowing:
    offsets = np.cumsum([0] + [h.num_regions for h in hollowings])
    tet_region = np.full(glued.num_tets, -1, dtype=np.int64)
    edge_class = np.full(glued.num_edges, -1, dtype=np.int64)
    tri_class = np.full(glued.num_triangles, -1, dtype=np.int64)
    for k, h in enumerate(hollowings):
        for out, labels, maps in ((tet_region, h.tet_region, tet_maps),
                                  (edge_class, h.edge_class, edge_maps),
                                  (tri_class, h.tri_class, tri_maps)):
            out[maps[k]] = np.where(labels >= 0, labels + offsets[k], labels)
    edge_class[shared_edges] = -1
    tri_class[shared_triangles] = -1
    shells = []
    for k, h in enumerate(hollowings):
        shells.extend(tri_maps[k][s] for s in h.shells)
    return Hollowing(
        r=max(h.r for h in hollowings), kind="union",
        num_regions=offsets[-1], tet_region=tet_region,
        edge_class=edge_class, tri_class=tri_class, shells=shells,
        metrics={"chunks": len(chunks),
                 "shared_edges": int(len(shared_edges)),
                 "shared_triangles": int(len(shared_triangles))})


def build_union_solver(u: UnionComplex) -> OneLapState:
    """build_one_lap_solver on the glued complex and its hollowing."""
    return build_one_lap_solver(u.complex, u.hollowing)


def union_one_lap_solve(u: UnionComplex, b, eps: float,
                        state: Optional[OneLapState] = None):
    """one_lap_solve on the glued complex and its hollowing; b is indexed
    by the glued complex's edge order."""
    return one_lap_solve(u.complex, u.hollowing, b, eps, state)
