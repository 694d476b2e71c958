"""Up-Laplacian solver: block elimination of interior edges against a
hollowing, nested dissection factors per region, and PCG on the Schur
complement preconditioned by the wall complex.

The Schur complement reaches the interior only through the interface rows,
the interior edges that share a triangle with a wall edge.  They are pinned
into their region's root front, so each Schur apply solves through those
root fronts alone: deeper fronts would act on zeros forward and write only
rows the apply never reads backward, so the result is the full interior
solve's, bit for bit, and the Schur residual stays the whole residual.

On sphere hollowings `build_sphere_fast_solver` replaces the preconditioner
solve by the reduced system route: interior disc edges collapse to a
dual-graph down-Laplacian, rim edges deduplicate by their disc signature,
and the leftover Schur complement is small enough to pseudo-invert densely
up front.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, dijkstra

from .complexes import up_laplacian
from .dissection import BlockFactor, CholeskyFactor, RootSolve, nd_cholesky
from .downlap import GraphDownLap
from .errors import (NumericalError, check_state, check_tolerance,
                     check_vector, missed_contract, one_norm, roundoff_floor)
from .hollowing import Hollowing, check_hollowing
from .pcg import LinearOperator, pcg
from .reports import SolveReport


@dataclass
class UpSolverState:
    complex: object
    hollowing: Hollowing
    lup: sp.csr_matrix
    d2: sp.csc_matrix                # float triangle boundary map behind lup
    f_all: np.ndarray                # interior edge ids, region by region
    c_idx: np.ndarray                # boundary edge ids
    interior: CholeskyFactor         # Lup[F, F] over f_all, one block per region
    # wall-complex up-Laplacian over c_idx: a folded factor by default
    wall: Optional[CholeskyFactor | BlockFactor]
    iface: np.ndarray                # positions in f_all of the interface rows
    root: RootSolve                  # the interior solve through their fronts
    l_cc: sp.csr_matrix
    l_ci: sp.csr_matrix              # Lup[C, F] over the interface columns
    l_ic: sp.csr_matrix              # Lup[F, C] over the interface rows

    @property
    def num_edges(self) -> int:
        return self.lup.shape[0]


def build_up_solver(c, h: Hollowing,
                    wall: Optional[Callable] = None) -> UpSolverState:
    """Per-region factors of Lup[F, F] plus the wall-complex preconditioner.

    `wall(lt)` returns the exact solver of the wall complex's up-Laplacian
    `lt` over the boundary edges; by default one nested dissection factor
    ordered by edge midpoints, folded, since it is applied once per Schur
    iteration.  The interior factors stay unfolded: the Schur residual is
    the whole residual only while the interior solve is exact.  The
    interface rows are pinned into their region's root front, and a wall
    coupling to any other interior row raises NumericalError.
    """
    check_hollowing(c, h)
    d2 = c.boundary(2).astype(float)
    lup = up_laplacian(c, 1, d2)
    # sorted once, here: products with it sum in one order from the start
    lup.sort_indices()
    f_regions = h.interior_edges_by_region()
    f_all = np.concatenate([np.empty(0, dtype=np.int64)] + f_regions)
    c_idx = h.boundary_edges
    midpoints = c.vertices[c.edges].mean(axis=1)
    interface = _interface_edges(c, h.edge_class < 0)
    interior = nd_cholesky(
        lup, midpoints, blocks=f_regions,
        root_pins=[np.flatnonzero(interface[f]) for f in f_regions])
    # column slices keep each row's entries in f_all order, so products
    # with them sum in the order the full Lup[C, F] does
    iface = np.flatnonzero(interface[f_all])
    l_cf = lup[c_idx][:, f_all].tocsr()
    l_ci = l_cf[:, iface].tocsr()
    if l_ci.nnz != l_cf.nnz:
        raise NumericalError(
            f"{l_cf.nnz - l_ci.nnz} wall couplings reach interior edges "
            "outside the pinned interface")
    state = UpSolverState(
        complex=c, hollowing=h, lup=lup, d2=d2, f_all=f_all, c_idx=c_idx,
        interior=interior, wall=None, iface=iface,
        # the interior factor's rows are f_all's
        root=interior.root_solve(iface),
        l_cc=lup[c_idx][:, c_idx].tocsr(),
        l_ci=l_ci,
        l_ic=lup[f_all[iface]][:, c_idx].tocsr(),
    )
    if len(c_idx):
        bt = h.boundary_triangles
        d2c = d2[c_idx][:, bt]
        lt = (d2c @ sp.diags(c.weights[2][bt]) @ d2c.T).tocsr()
        if wall is None:
            state.wall = nd_cholesky(lt, midpoints[c_idx], folded=True)
        else:
            state.wall = wall(lt)
    return state


def _interface_edges(c, boundary_mask):
    """Mask of the interior edges that share a triangle with the boundary."""
    cls = boundary_mask[c.tri_edges]
    mixed = cls.any(axis=1)
    interface = np.zeros(c.num_edges, dtype=bool)
    interface[c.tri_edges[mixed][~cls[mixed]]] = True
    return interface


def schur_apply(state: UpSolverState, x_c):
    """Sc[Lup]_C x = Lup[C,C] x - Lup[C,F] Lup[F,F]^+ Lup[F,C] x, implicit.

    Lup[F,C] x vanishes off the interface rows, and Lup[C,F] reads only
    them, so the interior solve runs through the root fronts holding them:
    the same arithmetic on the same rows as the full solve."""
    x_c = np.asarray(x_c, dtype=float)
    y = state.root.solve(state.l_ic @ x_c)
    return state.l_cc @ x_c - state.l_ci @ y


def schur_operator(state: UpSolverState) -> LinearOperator:
    return LinearOperator(dim=len(state.c_idx),
                          apply=lambda v: schur_apply(state, v))


def schur_solve(state: UpSolverState, h_vec, delta: float):
    """PCG on the Schur complement, preconditioned by the wall complex.

    A stalled PCG names the share of |h| its residual stalled at: that
    share of h lies outside the Schur complement's image, and rounding in
    forming b = Lup y counts as such a part."""
    h_vec = np.asarray(h_vec, dtype=float)
    if len(h_vec) == 0:
        return h_vec.copy(), SolveReport(stage="schur")
    precond = LinearOperator(dim=len(state.c_idx), apply=state.wall.solve)
    x, report = pcg(schur_operator(state), precond, h_vec, tol=delta,
                    stage="schur")
    if not report.converged:
        floor = roundoff_floor(one_norm(state.lup), x)
        norm_h = np.linalg.norm(h_vec)
        why, outside = "out of iterations", ""
        if report.params.get("stalled"):
            why = "its true residual stopped falling"
            outside = (f"; the residual stalled at "
                       f"{report.final_residual / norm_h:.2e} of |h|: that "
                       "share of h lies outside the image, and rounding in "
                       "forming b = Lup y counts as such a part")
        raise NumericalError(
            f"Schur-complement PCG did not reach {delta:.2e} ({why} after "
            f"{report.iterations} iterations; final residual "
            f"{report.final_residual:.2e}, target {delta * norm_h:.2e}; "
            f"float64 roundoff floor u * |Lup|_1 * |x| = {floor:.2e}"
            f"{outside})")
    return x, report


def up_lap_solve(c, h: Hollowing, b, eps: float,
                 state: Optional[UpSolverState] = None):
    """Solve Lup x = b to |Lup x - b| <= eps |b| for b in Im(Lup)."""
    b = check_vector(b, c.num_edges, "b")
    eps = check_tolerance(eps)
    if state is None:
        state = build_up_solver(c, h)
    check_state(state, c, h)
    return _up_solve_with_state(state, b, eps)


def _up_solve_with_state(state: UpSolverState, b, eps: float):
    b = np.asarray(b, dtype=float)
    report = SolveReport(stage="up_lap_solve", size=len(b),
                         params={"eps": eps})
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return np.zeros_like(b), report

    x = np.zeros_like(b)
    # the interior solves go unchecked: the residual below checks them all
    f_solve = functools.partial(state.interior.solve, check_image=False)
    if len(state.c_idx) == 0:
        x[state.f_all] = f_solve(b[state.f_all])
    else:
        b_f = b[state.f_all]
        b_c = b[state.c_idx]
        h_vec = b_c - state.l_ci @ f_solve(b_f)[state.iface]
        # b_f - L_fc x_c lies in Im d2[F,:] = Im Lup[F,F] and the interior
        # solve is exact, so the F rows of Lup x - b vanish and the full
        # residual is the Schur residual: delta |h| <= eps |b| / 2 meets
        # the contract with room for rounding, and the check below decides
        nh = np.linalg.norm(h_vec)
        delta = 0.5 * eps * norm_b / nh if nh > 0 else eps
        x_c, screp = schur_solve(state, h_vec, delta)
        r_f = b_f.copy()
        r_f[state.iface] -= state.l_ic @ x_c
        x_f = f_solve(r_f)
        x[state.f_all] = x_f
        x[state.c_idx] = x_c
        report.add_stage("schur", screp)
        report.params["delta"] = delta

    resid = np.linalg.norm(state.lup @ x - b)
    report.final_residual = resid
    report.initial_residual = norm_b
    if resid > eps * norm_b * (1 + 1e-9):
        raise missed_contract(
            "up-Laplacian solve", resid, "eps * |b|", eps * norm_b, eps,
            "|Lup|_1", roundoff_floor(one_norm(state.lup), x),
            "b outside the image?")
    return x, report


# -- sphere-hollowing fast preconditioner -------------------------------------

def build_sphere_fast_solver(c, h: Hollowing) -> UpSolverState:
    """Up-solver whose wall preconditioner runs through the reduced system."""
    if h.kind != "sphere":
        raise ValueError("fast solver requires a sphere hollowing")
    return build_up_solver(c, h, wall=lambda lt: _reduced_wall(c, h, lt))


def _reduced_wall(c, h: Hollowing, lt) -> BlockFactor:
    """Exact wall solver through the reduced system: disc-interior rows are
    a dual-graph down-Laplacian, one rim row per disc signature forms the
    dense shared set, and the duplicate rim rows are dropped."""
    e1_local, e2hat_local, b1 = _disc_rows(c, h)
    tails = b1.indices[b1.data < 0]
    heads = b1.indices[b1.data > 0]
    m11 = GraphDownLap(b1.shape[1], np.column_stack([tails, heads]),
                       c.weights[2][h.boundary_triangles])
    return BlockFactor(lt, e1_local, m11, e2hat_local)


def _disc_rows(c, h: Hollowing):
    """Split the wall edges by the discs their boundary triangles lie in.

    Returns the positions within the boundary edges of the disc-interior
    edges, one position per rim-edge disc signature, and the disc-interior
    rows of d2 over the boundary triangles with each disc oriented
    consistently, so that every row holds one -1 and one +1.
    """
    c_idx = h.boundary_edges
    bt = h.boundary_triangles
    d2tb = c.boundary(2).astype(float)[c_idx][:, bt].tocsr()
    disc_of = h.tri_disc[bt]
    if np.any(disc_of < 0):
        raise NumericalError("sphere hollowing lacks disc labels")

    # edges x discs: the discs of each edge's triangles, one sorted entry
    # per disc (the CSR constructor sums duplicates and sorts each row)
    coo = d2tb.tocoo()
    n_c = len(c_idx)
    sig = sp.csr_matrix((np.ones(coo.nnz), (coo.row, disc_of[coo.col])),
                        shape=(n_c, int(disc_of.max(initial=-1)) + 1))
    counts = np.diff(sig.indptr)
    e1_mask = counts == 1

    signs = _orient_discs(d2tb, disc_of, e1_mask)
    b1 = (d2tb @ sp.diags(signs))[e1_mask].tocsr()
    if not (np.all(np.diff(b1.indptr) == 2)
            and np.all(b1.data.reshape(-1, 2).sum(axis=1) == 0)):
        raise NumericalError("disc interior edge with unexpected incidence")

    # one rim edge per distinct disc signature: the first with it
    rim = np.flatnonzero(~e1_mask)
    padded = np.full((n_c, max(counts.max(initial=0), 1)), -1, dtype=np.int64)
    padded[np.repeat(np.arange(n_c), counts),
           np.arange(sig.nnz) - np.repeat(sig.indptr[:-1], counts)] = sig.indices
    _, first = np.unique(padded[rim], axis=0, return_index=True)
    return np.flatnonzero(e1_mask), np.sort(rim[first]), b1


def _orient_discs(d2tb, disc_of, e1_mask) -> np.ndarray:
    """Flip triangle orientations so triangles agree within each disc.

    Two triangles of one disc sharing a disc-interior edge must give it
    opposite signs.  Each piece of triangles linked that way keeps the
    orientation of its smallest triangle, and the signs spread from it
    level by level in a breadth-first search."""
    nt = d2tb.shape[1]
    rows = d2tb.tocsr()[e1_mask]
    # links[t, t2] = d2[e, t] * d2[e, t2] for the edge e the two share
    links = (rows.T @ rows).tocoo()
    keep = (links.row != links.col) & (disc_of[links.row] == disc_of[links.col])
    t1, t2, val = links.row[keep], links.col[keep], links.data[keep]
    link = sp.csr_matrix((val, (t1, t2)), shape=(nt, nt))
    graph = abs(link)
    _, piece = connected_components(graph, directed=False)
    _, roots = np.unique(piece, return_index=True)
    depth, pred = dijkstra(graph, unweighted=True, min_only=True,
                           indices=roots, return_predecessors=True)[:2]
    signs = np.ones(nt)
    for level in range(1, int(depth.max(initial=0)) + 1):
        t = np.flatnonzero(depth == level)
        signs[t] = -signs[pred[t]] * np.asarray(link[pred[t], t]).ravel()
    if np.any(signs[t2] != -signs[t1] * val):
        raise NumericalError("disc is not orientable")
    return signs


def up_lap_solve_fast(c, h: Hollowing, b, eps: float,
                      state: Optional[UpSolverState] = None):
    """Sphere-hollowing up-solver; same contract as up_lap_solve."""
    b = check_vector(b, c.num_edges, "b")
    eps = check_tolerance(eps)
    if state is None:
        state = build_sphere_fast_solver(c, h)
    check_state(state, c, h)
    return _up_solve_with_state(state, b, eps)


# -- diagnostics ---------------------------------------------------------------

def schur_condition_estimate(state: UpSolverState, iters: int = 60) -> float:
    """Lanczos estimate of kappa(Sc[Lup]_C, Lup of the wall complex)."""
    from .pcg import estimate_rel_condition
    if len(state.c_idx) == 0:
        return 1.0
    precond = LinearOperator(dim=len(state.c_idx), apply=state.wall.solve)
    return estimate_rel_condition(schur_operator(state), precond, iters=iters)
