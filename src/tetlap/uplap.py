"""Up-Laplacian solver: block elimination of interior edges against a
hollowing, nested dissection factors per region, and PCG on the Schur
complement preconditioned by the wall complex: `schur_solve` hands `pcg`
`schur_apply` and the wall's `solve` as plain functions.

`eliminate` builds that elimination for any symmetric PSD matrix split by
a hollowing; `upproj` runs it on the triangle Gram matrix d2^T d2, and
`schur_rhs` and `back_substitute` serve both.

The Schur complement reaches the interior only through the interface rows,
the interior rows coupled to the wall.  Each region's are pinned as its
root separator, so they are the interior factor's root rows, and each
Schur apply solves through the factor's `root` alone, one packed
pseudo-inverse product per root front, and no triangular solve: deeper
fronts would act on zeros forward and write only rows the apply never
reads backward, so the result is the full interior solve's, bit for bit,
and the Schur residual stays the whole residual.  A solve sweeps the
interior once each way: `schur_rhs` keeps its forward sweep, and
`back_substitute` takes A[F,C] x_C off that sweep's root rows and runs the
backward half.

The wall solve of a sphere hollowing runs through the reduced system:
interior disc edges collapse to a dual-graph down-Laplacian, rim edges
deduplicate by their disc signature, and the leftover Schur complement is
small enough to pseudo-invert densely up front (`BlockFactor`, which
carries the rim rows' coupling through the forest paths, so one apply
takes one path product each way).  Every other kind's wall is one folded
nested dissection factor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .complexes import up_laplacian
from .dissection import (_GEMM, DEFAULT_PIVOT_TOL, CholeskyFactor,
                         backward_sweep, forward_sweep, nd_cholesky)
from .downlap import GraphDownLap, bfs_parents
from .errors import (NumericalError, UnsupportedGeometryError, check_state,
                     check_tolerance, check_vector, missed_contract, one_norm,
                     roundoff_floor)
from .hollowing import Hollowing, check_hollowing
from .pcg import pcg
from .reports import SolveReport

# largest shared set whose Schur complement BlockFactor pseudo-inverts densely
DENSE_SHARED_CAP = 5000
# scipy's LAPACK, as in `dissection`: numpy's would run a second OpenBLAS
# thread pool
_SYEVD = sla.get_lapack_funcs("syevd", dtype=np.float64)


@dataclass
class UpSolverState:
    """One block elimination, built by `eliminate`: of Lup over the edges
    for the up solve, or of the triangle Gram matrix d2^T d2 for the up
    projection (`upproj`).  Nothing in it changes after the build."""
    complex: object
    hollowing: Hollowing
    weights: list                    # copies of the complex's weights
    lup: sp.csr_matrix               # the eliminated matrix: Lup, or d2^T d2
    d2: sp.csc_matrix                # float triangle boundary map behind it
    f_all: np.ndarray                # interior rows, region by region
    c_idx: np.ndarray                # wall rows
    interior: CholeskyFactor         # lup[F, F] over f_all, one block per region
    # the wall preconditioner over c_idx, by kind (see build_up_solver)
    wall: Optional[CholeskyFactor | BlockFactor]
    l_cc: sp.csr_matrix
    # lup[C, F] and lup[F, C] over the interior's root rows, in factor order
    l_ci: sp.csr_matrix
    l_ic: sp.csr_matrix


def build_up_solver(c, h: Hollowing) -> UpSolverState:
    """`eliminate` on Lup: per-region factors of Lup[F, F] plus the exact
    solver of the wall complex's up-Laplacian over the boundary edges.

    A sphere hollowing's wall solves through the reduced system
    (`_reduced_wall`); every other kind's is one nested dissection factor
    ordered by edge midpoints, folded, since it is applied once per Schur
    iteration.
    """
    check_hollowing(c, h)
    d2 = c.boundary(2).astype(float)
    lup = up_laplacian(c, 1, d2)
    c_idx = h.boundary_edges
    midpoints = c.vertices[c.edges].mean(axis=1)
    wall = None
    if len(c_idx):
        bt = h.boundary_triangles
        d2c = d2[c_idx][:, bt]
        lt = (d2c @ sp.diags(c.weights[2][bt]) @ d2c.T).tocsr()
        wall = (_reduced_wall(c, h, lt, d2c) if h.kind == "sphere" else
                nd_cholesky(lt, midpoints[c_idx], folded=True))
    return eliminate(c, h, lup, d2, midpoints, h.interior_edges_by_region(),
                     c_idx, wall)


def eliminate(c, h: Hollowing, matrix, d2, coords, regions, c_idx,
              wall) -> UpSolverState:
    """The block elimination of the symmetric PSD `matrix` (CSR) whose
    interior rows, one index array per region in `regions`, are factored
    exactly by nested dissection ordered by the rows' `coords`, and whose
    wall rows `c_idx` are left to PCG on the Schur complement,
    preconditioned by `wall` (None when there are no wall rows).

    The interface rows are the interior rows that matrix[F, C] couples to
    the wall; for Lup they are the interior edges that share a triangle
    with a wall edge.  Each region's are pinned as its root separator, so
    they lie in the interior factor's root rows, `interior.root.cols`, and
    l_ic's rows and l_ci's columns run over those rows in that order.
    The interior factors stay unfolded: the Schur residual is the whole
    residual only while the interior solve is exact.
    """
    # sorted once, here: products with it sum in one order from the start
    matrix.sort_indices()
    f_all = np.concatenate([np.empty(0, dtype=np.int64)] + list(regions))
    l_fc = matrix[f_all][:, c_idx]
    pinned = np.zeros(matrix.shape[0], dtype=bool)
    pinned[f_all[np.diff(l_fc.indptr) > 0]] = True
    sizes = [len(f) for f in regions]
    # the interior factor's rows are f_all's, one block per region
    interior = nd_cholesky(
        matrix[f_all][:, f_all], coords[f_all],
        blocks=np.split(np.arange(len(f_all)), np.cumsum(sizes)[:-1]),
        root_pins=[np.flatnonzero(pinned[f]) for f in regions])
    # the root rows, as positions in f_all, in factor order
    root_rows = interior.perm[interior.root.cols]
    # matrix[C, F] reads only the interface columns, all root rows;
    # renumbering them keeps each row's stored entries in the matrix's
    # column order, so products with l_ci sum as matrix[C, F] does
    l_cf = matrix[c_idx][:, f_all]
    where = np.empty(len(f_all), dtype=l_cf.indices.dtype)
    where[root_rows] = np.arange(len(root_rows))
    l_ci = sp.csr_matrix((l_cf.data, where[l_cf.indices], l_cf.indptr),
                         shape=(len(c_idx), len(root_rows)))
    return UpSolverState(
        complex=c, hollowing=h, weights=[w.copy() for w in c.weights],
        lup=matrix, d2=d2, f_all=f_all, c_idx=c_idx,
        interior=interior, wall=wall,
        l_cc=matrix[c_idx][:, c_idx].tocsr(), l_ci=l_ci, l_ic=l_fc[root_rows])


def schur_apply(state: UpSolverState, x_c):
    """Sc[A]_C x = A[C,C] x - A[C,F] A[F,F]^+ A[F,C] x, implicit, for the
    eliminated matrix A and x of shape (len(c_idx),); another shape raises
    ValueError.

    A[F,C] x vanishes off the interface rows, and A[C,F] reads only them,
    all root rows of the interior factor, so the interior solve runs
    through its `root` alone, one packed pseudo-inverse product per root
    front: the same arithmetic on the same rows as the full solve."""
    x_c = np.asarray(x_c, dtype=float)
    if x_c.shape != (len(state.c_idx),):
        raise ValueError(f"x_c has shape {x_c.shape}, expected "
                         f"({len(state.c_idx)},)")
    y = state.interior.root.solve(state.l_ic @ x_c)
    return state.l_cc @ x_c - state.l_ci @ y


def schur_solve(state: UpSolverState, h_vec, delta: float, stage: str):
    """PCG on the Schur complement, preconditioned by the wall; its report,
    the empty one for no wall rows included, carries the caller's `stage`
    name: `schur` for the up solve, `tri_schur` for the up projection.
    Raises ValueError for an h of another length or with a non-finite
    entry, and for a delta that is not finite and positive.

    A stalled PCG names the share of |h| its residual stalled at: that
    share of h lies outside the Schur complement's image, and rounding in
    forming the right-hand side counts as such a part."""
    h_vec = check_vector(h_vec, len(state.c_idx), "h")
    delta = check_tolerance(delta, "delta")
    if len(h_vec) == 0:
        return h_vec.copy(), SolveReport(stage=stage)
    x, report = pcg(lambda v: schur_apply(state, v), state.wall.solve, h_vec,
                    tol=delta, stage=stage)
    if not report.converged:
        floor = roundoff_floor(one_norm(state.lup), x)
        norm_h = np.linalg.norm(h_vec)
        why, outside = "out of iterations", ""
        if report.params.get("stalled"):
            why = "its true residual stopped falling"
            outside = (f"; the residual stalled at "
                       f"{report.final_residual / norm_h:.2e} of |h|: that "
                       "share of h lies outside the image, and rounding in "
                       "forming the right-hand side counts as such a part")
        raise NumericalError(
            f"Schur-complement PCG did not reach {delta:.2e} ({why} after "
            f"{report.iterations} iterations; final residual "
            f"{report.final_residual:.2e}, target {delta * norm_h:.2e}; "
            f"float64 roundoff floor u * |A|_1 * |x| = {floor:.2e}, A the "
            f"eliminated matrix{outside})")
    return x, report


def schur_rhs(state: UpSolverState, b):
    """(h, z): h = b_C - A[C,F] A[F,F]^+ b_F, the Schur complement's
    right-hand side, and z the interior forward sweep of b_F, which
    `back_substitute` finishes.  A[C,F] reads root rows only, so of the
    backward half only the root fronts' products run here."""
    z = forward_sweep(state.interior, b[state.f_all])
    root = state.interior.root
    y = root.solve(z[root.cols])
    return b[state.c_idx] - state.l_ci @ y, z


def back_substitute(state: UpSolverState, z, x_c) -> np.ndarray:
    """x with x_C = x_c and x_F = A[F,F]^+ (b_F - A[F,C] x_c), for z the
    forward sweep of b_F from `schur_rhs`, which it overwrites.  A[F,C] x_c
    lives on the interface rows, root rows the forward sweep leaves as they
    are, so it is taken off z there and only the backward sweep runs.  The
    interior solve goes unchecked: each caller checks its own answer."""
    z[state.interior.root.cols] -= state.l_ic @ x_c
    x = np.zeros(state.lup.shape[0])
    x[state.f_all] = backward_sweep(state.interior, z)
    x[state.c_idx] = x_c
    return x


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
    """The up solve on a built state.  Its report's timings hold the
    `perf_counter` seconds of the forward half (`schur_rhs`, after the
    norm of b), the Schur PCG, `back_substitute`, the residual check and
    the whole solve, which the four add up to; a zero b is answered by 0
    and records none."""
    t0 = time.perf_counter()
    b = np.asarray(b, dtype=float)
    report = SolveReport(stage="up_lap_solve", size=len(b),
                         params={"eps": eps})
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return np.zeros_like(b), report

    x_c = np.zeros(0)
    h_vec, z = schur_rhs(state, b)
    t1 = time.perf_counter()
    if len(state.c_idx):
        # b_f - L_fc x_c lies in Im d2[F,:] = Im Lup[F,F] and the interior
        # solve is exact, so the F rows of Lup x - b vanish and the full
        # residual is the Schur residual: delta |h| <= eps |b| / 2 meets
        # the contract with room for rounding, and the check below decides
        nh = np.linalg.norm(h_vec)
        delta = 0.5 * eps * norm_b / nh if nh > 0 else eps
        x_c, screp = schur_solve(state, h_vec, delta, "schur")
        report.add_stage("schur", screp)
        report.params["delta"] = delta
    t2 = time.perf_counter()
    x = back_substitute(state, z, x_c)
    t3 = time.perf_counter()

    resid = np.linalg.norm(state.lup @ x - b)
    report.final_residual = resid
    report.initial_residual = norm_b
    if resid > eps * norm_b * (1 + 1e-9):
        raise missed_contract(
            "up-Laplacian solve", resid, "eps * |b|", eps * norm_b, eps,
            "|Lup|_1", roundoff_floor(one_norm(state.lup), x),
            "b outside the image?")
    t4 = time.perf_counter()
    report.timings.update(forward=t1 - t0, schur=t2 - t1,
                          back_substitute=t3 - t2, residual=t4 - t3,
                          total=t4 - t0)
    return x, report


# -- sphere reduced wall ------------------------------------------------------

def build_sphere_fast_solver(c, h: Hollowing) -> UpSolverState:
    """`build_up_solver`, for sphere hollowings only (else ValueError)."""
    if h.kind != "sphere":
        raise ValueError("fast solver requires a sphere hollowing")
    return build_up_solver(c, h)


up_lap_solve_fast = up_lap_solve    # build_up_solver picks the sphere wall


def _reduced_wall(c, h: Hollowing, lt, d2c) -> BlockFactor:
    """Exact wall solver through the reduced system: disc-interior rows are
    a dual-graph down-Laplacian, one rim row per disc signature forms the
    dense shared set, and the duplicate rim rows are dropped.  `lt` is the
    wall complex's up-Laplacian and `d2c` its d2."""
    e1_local, e2hat_local, b1 = _disc_rows(h, d2c)
    tails = b1.indices[b1.data < 0]
    heads = b1.indices[b1.data > 0]
    m11 = GraphDownLap(b1.shape[1], np.column_stack([tails, heads]),
                       c.weights[2][h.boundary_triangles])
    return BlockFactor(lt, e1_local, m11, e2hat_local)


class BlockFactor:
    """Exact solver for a symmetric PSD matrix whose kept rows split into
    the rows of a `GraphDownLap` plus a shared set: the sphere reduced
    wall's, whose `solver` is the dual-graph down-Laplacian of its disc
    rows.

    The solver's pseudo-inverse is M^+ = P^T D Pi D P, for P its forest
    path matrix, D = W^(-1/2) and Pi its kernel projection.  In place of
    the coupling C of the shared rows to the solver's, the factor keeps
    B = C P^T D (`GraphDownLap.coupled_paths`), so a solve of v = (v_r,
    v_s) takes one path product each way and no second solver solve:

        u0 = D P v_r,
        x_s = S^+ (v_s - B Pi u0),
        x_r = P^T D Pi (u0 - B^T x_s).

    The Schur complement onto the shared rows, S = C_ss - C M^+ C^T =
    C_ss - (Pi B^T)^T (Pi B^T) from the solver's `gram`, is
    pseudo-inverted densely up front through its eigendecomposition
    (LAPACK `dsyevd`, divide and conquer), with the eigenvalues above
    DEFAULT_PIVOT_TOL times the largest kept.  Rows in neither set are
    dropped, and the solution is zero there.  Solves are exact for
    right-hand sides in the image, and not checked: the wall is applied as
    a preconditioner.  `rank` is the solver's rank plus the Schur
    complement's, the matrix's rank on the kept rows.
    """

    def __init__(self, matrix, rows, solver, shared):
        self.matrix = sp.csr_matrix(matrix)
        self.rows = np.asarray(rows, dtype=np.int64)
        self.solver = solver
        self.shared = np.asarray(shared, dtype=np.int64)
        if len(self.shared) > DENSE_SHARED_CAP:
            raise NumericalError(
                f"shared block has {len(self.shared)} rows, beyond the dense "
                f"inversion cap {DENSE_SHARED_CAP}")
        block = self.matrix[self.shared]
        coupling = block[:, self.rows].tocsr()
        self.path_coupling = solver.coupled_paths(coupling)    # B
        self.path_coupling_t = self.path_coupling.T
        self.schur_pinv = np.zeros((0, 0))
        schur_rank = 0
        if len(self.shared):
            schur = block[:, self.shared].toarray() - solver.gram(coupling.T)
            w, v, info = _SYEVD(schur, lower=1)
            if info:
                raise NumericalError(
                    f"eigendecomposition failed (LAPACK info {info})")
            keep = w > DEFAULT_PIVOT_TOL * max(w[-1], 0.0)
            self.schur_pinv = _GEMM(1.0, v[:, keep] / w[keep], v[:, keep],
                                    trans_b=1)
            schur_rank = int(keep.sum())
        self.rank = self.solver.rank + schur_rank

    @property
    def nbytes(self) -> int:
        """Bytes stored by the factor: its solver's, the row sets, B (once,
        not again for its transpose) and the dense Schur pseudo-inverse,
        not the input matrix."""
        b = self.path_coupling
        arrays = [self.rows, self.shared, self.schur_pinv, b.data, b.indices,
                  b.indptr]
        return self.solver.nbytes + sum(a.nbytes for a in arrays)

    def solve(self, v) -> np.ndarray:
        """x with matrix x = v on the kept rows, for v in the image, of
        shape (n,) or (n, k); another shape raises ValueError."""
        v = np.asarray(v, dtype=float)
        n = self.matrix.shape[0]
        if v.ndim not in (1, 2) or v.shape[0] != n:
            raise ValueError(
                f"v has shape {v.shape}, expected ({n},) or ({n}, k)")
        graph = self.solver
        out = np.zeros_like(v)
        u = graph.to_vertices(v[self.rows])
        if len(self.shared):
            r_s = v[self.shared] - self.path_coupling @ graph.project(u.copy())
            x_s = _GEMM(1.0, self.schur_pinv,
                        r_s.reshape(len(r_s), -1)).reshape(r_s.shape)
            u -= self.path_coupling_t @ x_s
            out[self.shared] = x_s
        out[self.rows] = graph.to_edges(graph.project(u))
        return out


def _disc_rows(h: Hollowing, d2c):
    """Split the wall edges by the discs their boundary triangles lie in.

    `d2c` is d2 over the boundary edges and triangles.  Returns the
    positions within the boundary edges of the disc-interior edges, one
    position per rim-edge disc signature, and the disc-interior rows of
    `d2c` with each disc oriented consistently, so that every row holds
    one -1 and one +1."""
    d2tb = d2c.tocsr()
    disc_of = h.tri_disc[h.boundary_triangles]

    # edges x discs: the discs of each edge's triangles, one sorted entry
    # per disc (the CSR constructor sums duplicates and sorts each row)
    coo = d2tb.tocoo()
    n_c = d2tb.shape[0]
    sig = sp.csr_matrix((np.ones(coo.nnz), (coo.row, disc_of[coo.col])),
                        shape=(n_c, int(disc_of.max(initial=-1)) + 1))
    counts = np.diff(sig.indptr)
    e1_mask = counts == 1

    signs = _orient_discs(d2tb, disc_of, e1_mask)
    b1 = (d2tb @ sp.diags(signs))[e1_mask].tocsr()
    # a plane holds at most two triangles of an edge, and two of one disc
    # have opposite signs once it is oriented: a row short of two is an
    # edge on a single disc triangle
    lone = int(np.sum(np.diff(b1.indptr) != 2))
    if lone:
        raise UnsupportedGeometryError(
            f"{lone} wall edges lie on a single disc triangle (a hole opens "
            "through a disc), so the reduced wall has no dual-graph row for "
            "them; a shell hollowing (find_hollowing) handles this mesh")

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
    orientation of its smallest triangle, the root of its breadth-first
    forest, and the signs spread from it level by level."""
    nt = d2tb.shape[1]
    rows = d2tb.tocsr()[e1_mask]
    # links[t, t2] = d2[e, t] * d2[e, t2] for the edge e the two share
    links = sp.triu(rows.T @ rows, k=1).tocoo()
    keep = disc_of[links.row] == disc_of[links.col]
    t1, t2, val = links.row[keep], links.col[keep], links.data[keep]
    *_, parent_vertex, parent_edge, levels = bfs_parents(
        nt, np.column_stack([t1, t2]))
    signs = np.ones(nt)
    for level in levels[1:]:
        signs[level] = -signs[parent_vertex[level]] * val[parent_edge[level]]
    if np.any(signs[t2] != -signs[t1] * val):
        raise NumericalError("disc is not orientable")
    return signs
