"""Full 1-Laplacian solver, Hodge decomposition, Betti diagnostics, and the
solver for unions of complexes glued along exterior simplexes.

The solve follows the split route: approximately project the right-hand
side onto curls and gradients, solve the up and down systems separately,
project the partial solutions back, and add.  The inner tolerance is
eps / (11 kappa) with kappa a safety-doubled estimate of the worse of the
two operator condition numbers.

A glued union usually has no global embedding, so the wall preconditioners
cannot be factored by one geometric dissection.  Instead the shared
simplexes form a small dense-Schur block on top of per-chunk nested
dissection factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from . import oracle
from .complexes import Complex3, build_complex, down_laplacian
from .dissection import BlockFactor
from .downlap import DownState, build_down_state, down_lap_solve, down_projection
from .errors import check_vector
from .hollowing import Hollowing, check_hollowing
from .pcg import LinearOperator, estimate_rel_condition
from .reports import SolveReport
from .uplap import UpSolverState, _up_solve_with_state, build_up_solver
from .upproj import UpProjectionState, build_up_projection, up_project

KAPPA_SAFETY = 2.0
KAPPA_ITERS = 50
# worst-case inner tolerance eps / (11 kappa) falls below double precision
# on large meshes; the floor keeps sub-solves feasible and the recomputed
# final residual stays the arbiter of the contract
DELTA_FLOOR = 3e-12


@dataclass
class OneLapState:
    """Everything a solve or a Hodge split reads, built once; nothing in it
    or in its complex changes afterwards."""
    complex: Complex3
    hollowing: Hollowing
    lap1: sp.csr_matrix
    up_state: UpSolverState
    proj_state: UpProjectionState
    down_state: DownState
    kappa_hat: float


def build_one_lap_solver(c, h: Hollowing) -> OneLapState:
    return _build_state(c, h, build_up_solver(c, h), build_up_projection(c, h))


def _build_state(c, h, up_state, proj_state) -> OneLapState:
    lup, ldown = up_state.lup, down_laplacian(c, 1)
    return OneLapState(complex=c, hollowing=h, lap1=(ldown + lup).tocsr(),
                       up_state=up_state, proj_state=proj_state,
                       down_state=build_down_state(c),
                       kappa_hat=_condition_estimate(lup, ldown))


def _condition_estimate(lup, ldown) -> float:
    kup = estimate_rel_condition(
        LinearOperator.from_matrix(lup),
        LinearOperator.identity(lup.shape[0]), iters=KAPPA_ITERS)
    kdown = estimate_rel_condition(
        LinearOperator.from_matrix(ldown),
        LinearOperator.identity(ldown.shape[0]), iters=KAPPA_ITERS)
    return KAPPA_SAFETY * max(kup, kdown, 1.0)


def one_lap_solve(c, h: Hollowing, b, eps: float,
                  state: Optional[OneLapState] = None):
    """x with |L1 x - P1 b| <= eps |P1 b|, P1 the projection onto Im(L1)."""
    b = check_vector(b, c.num_edges, "b")
    if state is None:
        state = build_one_lap_solver(c, h)
    return _one_lap_core(state, b, eps)


def _one_lap_core(state: OneLapState, b, eps: float):
    c, h = state.complex, state.hollowing
    report = SolveReport(stage="one_lap_solve", size=len(b),
                         params={"eps": eps, "kappa_hat": state.kappa_hat})
    if np.linalg.norm(b) == 0.0:
        return np.zeros_like(b), report
    delta = max(eps / (11.0 * state.kappa_hat), min(DELTA_FLOOR, eps))
    report.params["delta"] = delta

    def up_proj(v):
        return up_project(c, h, v, delta, state=state.proj_state)[0]

    def down_proj(v):
        return down_projection(c, v, delta, state=state.down_state)

    b_up = up_proj(b)
    b_down = down_proj(b)
    x_down = down_lap_solve(c, b_down, state=state.down_state)
    if np.linalg.norm(b_up) > 0:
        x_up, up_rep = _up_solve_with_state(state.up_state, b_up, delta)
        report.add_stage("up_solve", up_rep)
    else:
        x_up = np.zeros_like(b)
    x = up_proj(x_up) + down_proj(x_down)

    # residual against the approximately projected right-hand side; the
    # exact-projection contract is certified against the dense oracle in
    # the acceptance tests
    b_tilde = b_up + b_down
    report.initial_residual = float(np.linalg.norm(b_tilde))
    report.final_residual = float(np.linalg.norm(state.lap1 @ x - b_tilde))
    report.converged = report.final_residual <= \
        eps * max(report.initial_residual, 1e-300)
    return x, report


def hodge_decompose(c, h: Hollowing, f, eps: float,
                    state: Optional[OneLapState] = None):
    """Split a 1-chain into (gradient, curl, harmonic) parts."""
    f = check_vector(f, c.num_edges, "f")
    if state is None:
        state = build_one_lap_solver(c, h)
    gradient = down_projection(c, f, eps, state=state.down_state)
    curl, _ = up_project(c, h, f, eps, state=state.proj_state)
    harmonic = f - gradient - curl
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
    hollowings: list
    vertex_maps: list                 # chunk vertex id -> global vertex id
    complex: Complex3                 # glued complex (coordinates are per-chunk
                                      # charts, not a global embedding)
    edge_maps: list                   # chunk edge id -> global edge id
    tri_maps: list
    tet_maps: list
    shared_edges: np.ndarray          # global edges present in > 1 chunk
    shared_triangles: np.ndarray
    hollowing: Hollowing              # induced labels on the glued complex


def glue(chunks, identifications, hollowings) -> UnionComplex:
    """Glue chunks by identifying classes of exterior vertices.

    `identifications` is a list of vertex classes, each a list of
    (chunk_index, vertex_index) pairs merged into one global vertex.
    Induced shared edges/triangles must be exterior in every chunk and on
    the boundary class of that chunk's hollowing.
    """
    if len(chunks) != len(hollowings):
        raise ValueError("need one hollowing per chunk")
    for ch, hh in zip(chunks, hollowings):
        check_hollowing(ch, hh)
    offsets = np.cumsum([0] + [ch.num_vertices for ch in chunks])
    total = offsets[-1]
    parent = np.arange(total)

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for group in identifications:
        if len(group) < 2:
            continue
        seen_chunks = [g[0] for g in group]
        if len(set(seen_chunks)) != len(seen_chunks):
            raise ValueError("identification class names one chunk twice "
                             "(maps must be injective)")
        base = None
        for chunk_idx, vid in group:
            if not (0 <= chunk_idx < len(chunks)):
                raise ValueError(f"identification names unknown chunk {chunk_idx}")
            ch = chunks[chunk_idx]
            if not (0 <= vid < ch.num_vertices):
                raise ValueError("identification names an invalid vertex")
            if not ch.exterior_vertices[vid]:
                raise ValueError(
                    f"vertex {vid} of chunk {chunk_idx} is not exterior")
            g = find(offsets[chunk_idx] + vid)
            if base is None:
                base = g
            else:
                parent[g] = base

    roots = np.array([find(i) for i in range(total)])
    uniq, global_id = np.unique(roots, return_inverse=True)
    vertex_maps = [global_id[offsets[k]:offsets[k + 1]] for k in range(len(chunks))]

    coords = np.zeros((len(uniq), 3))
    for k, ch in enumerate(chunks):
        coords[vertex_maps[k]] = ch.vertices  # later chunks win; charts only

    tets = np.vstack([vertex_maps[k][ch.tets] for k, ch in enumerate(chunks)])
    if len(np.unique(np.sort(tets, axis=1), axis=0)) != len(tets):
        raise ValueError("gluing identifies two tetrahedra")
    glued = build_complex(tets, coords)

    edge_maps = [glued.edge_ids(np.sort(vertex_maps[k][ch.edges], axis=1))
                 for k, ch in enumerate(chunks)]
    tri_maps = [glued.triangle_ids(np.sort(vertex_maps[k][ch.triangles], axis=1))
                for k, ch in enumerate(chunks)]
    tet_start = np.cumsum([0] + [ch.num_tets for ch in chunks])
    tet_maps = [np.arange(tet_start[k], tet_start[k + 1]) for k in range(len(chunks))]
    # build_complex lex-sorts tets; recover the permutation
    order = np.lexsort(np.sort(tets, axis=1).T[::-1])
    rank = np.empty(len(tets), dtype=np.int64)
    rank[order] = np.arange(len(tets))
    tet_maps = [rank[m] for m in tet_maps]

    _merge_weights(glued, chunks, edge_maps, tri_maps, tet_maps, vertex_maps)

    edge_count = np.zeros(glued.num_edges, dtype=np.int64)
    for m in edge_maps:
        np.add.at(edge_count, m, 1)
    tri_count = np.zeros(glued.num_triangles, dtype=np.int64)
    for m in tri_maps:
        np.add.at(tri_count, m, 1)
    shared_edges = np.flatnonzero(edge_count > 1)
    shared_triangles = np.flatnonzero(tri_count > 1)

    for k, ch in enumerate(chunks):
        back = np.zeros(glued.num_edges, dtype=bool)
        back[shared_edges] = True
        local_shared = np.flatnonzero(back[edge_maps[k]])
        if np.any(~ch.exterior_edges[local_shared]):
            raise ValueError(f"chunk {k} shares a non-exterior edge")
        if np.any(hollowings[k].edge_class[local_shared] >= 0):
            raise ValueError(
                f"chunk {k} shares an edge that its hollowing classifies "
                "as interior; glue on hollowing-boundary simplexes only")

    union_h = _induced_union_hollowing(glued, chunks, hollowings, edge_maps,
                                       tri_maps, tet_maps, shared_edges,
                                       shared_triangles)
    return UnionComplex(chunks=list(chunks), hollowings=list(hollowings),
                        vertex_maps=vertex_maps, complex=glued,
                        edge_maps=edge_maps, tri_maps=tri_maps,
                        tet_maps=tet_maps, shared_edges=shared_edges,
                        shared_triangles=shared_triangles,
                        hollowing=union_h)


def _merge_weights(glued, chunks, edge_maps, tri_maps, tet_maps, vertex_maps):
    specs = [(0, vertex_maps, lambda ch: ch.weights[0]),
             (1, edge_maps, lambda ch: ch.weights[1]),
             (2, tri_maps, lambda ch: ch.weights[2]),
             (3, tet_maps, lambda ch: ch.weights[3])]
    for dim, maps, getter in specs:
        out = np.full(len(glued.weights[dim]), np.nan)
        for k, ch in enumerate(chunks):
            w = getter(ch)
            prev = out[maps[k]]
            clash = ~np.isnan(prev) & (np.abs(prev - w) > 1e-12)
            if np.any(clash):
                raise ValueError(
                    f"chunks disagree on the weight of a shared {dim}-simplex")
            out[maps[k]] = w
        glued.weights[dim] = np.where(np.isnan(out), 1.0, out)


def _induced_union_hollowing(glued, chunks, hollowings, edge_maps, tri_maps,
                             tet_maps, shared_edges, shared_triangles) -> Hollowing:
    offsets = np.cumsum([0] + [h.num_regions for h in hollowings])
    tet_region = np.full(glued.num_tets, -1, dtype=np.int64)
    edge_class = np.full(glued.num_edges, -1, dtype=np.int64)
    tri_class = np.full(glued.num_triangles, -1, dtype=np.int64)
    for k, h in enumerate(hollowings):
        reg = h.tet_region.copy()
        reg[reg >= 0] += offsets[k]
        tet_region[tet_maps[k]] = reg
        ecls = h.edge_class.copy()
        ecls[ecls >= 0] += offsets[k]
        edge_class[edge_maps[k]] = ecls
        tcls = h.tri_class.copy()
        tcls[tcls >= 0] += offsets[k]
        tri_class[tri_maps[k]] = tcls
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
    """Solver state on the glued complex.  A glued union has no global
    embedding, so each wall preconditioner is a BlockFactor of per-chunk
    factors, ordered in each chunk's own chart, plus a dense shared block
    on the simplexes that couple chunks."""
    glued, h = u.complex, u.hollowing
    midpoints = _chart_locations(u, glued.num_edges, u.edge_maps,
                                 lambda ch: ch.edges)
    centroids = _chart_locations(u, glued.num_triangles, u.tri_maps,
                                 lambda ch: ch.triangles)
    edge_parts = [m[hh.boundary_edges]
                  for m, hh in zip(u.edge_maps, u.hollowings)]
    tri_parts = [m[hh.boundary_triangles]
                 for m, hh in zip(u.tri_maps, u.hollowings)]
    # boundary triangles touching a shared edge couple chunks through the
    # Gram matrix, so they join the dense block with the shared triangles
    on_shared = np.zeros(glued.num_edges, dtype=bool)
    on_shared[u.shared_edges] = True
    touches = on_shared[glued.tri_edges].any(axis=1) & (h.tri_class < 0)
    dense_tris = np.unique(np.concatenate(
        [u.shared_triangles, np.flatnonzero(touches)]))
    up_state = build_up_solver(
        glued, h, wall=lambda lt: _chunk_wall(
            lt, h.boundary_edges, edge_parts, u.shared_edges, midpoints))
    proj_state = build_up_projection(
        glued, h, centroids, wall=lambda gram: _chunk_wall(
            gram, h.boundary_triangles, tri_parts, dense_tris, centroids))
    return _build_state(glued, h, up_state, proj_state)


def _chart_locations(u: UnionComplex, n, maps, simplexes) -> np.ndarray:
    """Location of each glued simplex in the chart of a chunk holding it."""
    out = np.zeros((n, 3))
    for ch, m in zip(u.chunks, maps):
        out[m] = ch.vertices[simplexes(ch)].mean(axis=1)
    return out


def _chunk_wall(matrix, ids, chunk_parts, dense, locations) -> BlockFactor:
    """BlockFactor of a wall matrix over the glued simplexes `ids`: one
    block per chunk with its wall simplexes not already taken, and the
    `dense` simplexes plus any left over as the shared set."""
    pos = np.full(len(locations), -1, dtype=np.int64)
    pos[ids] = np.arange(len(ids))
    dense_local = pos[dense]
    dense_local = dense_local[dense_local >= 0]
    taken = np.zeros(len(ids), dtype=bool)
    taken[dense_local] = True
    blocks = []
    for part in chunk_parts:
        locs = pos[part]
        locs = locs[(locs >= 0) & ~taken[locs]]
        taken[locs] = True
        blocks.append(np.unique(locs))
    shared = np.union1d(dense_local, np.flatnonzero(~taken))
    return BlockFactor.nested_dissection(matrix, blocks, locations[ids],
                                         shared)


def union_one_lap_solve(u: UnionComplex, b, eps: float,
                        state: Optional[OneLapState] = None):
    """1-Laplacian solve on the glued complex, same contract as
    one_lap_solve; b is indexed by the glued complex's edge order."""
    b = check_vector(b, u.complex.num_edges, "b")
    if state is None:
        state = build_union_solver(u)
    return _one_lap_core(state, b, eps)
