"""Up-Laplacian solver: block elimination of interior edges against a
hollowing, nested dissection factors per region, and PCG on the Schur
complement preconditioned by the wall complex.

For sphere hollowings the preconditioner solve is replaced by the reduced
system route: interior disc edges collapse to a dual-graph down-Laplacian,
rim edges deduplicate by their disc signature, and the leftover Schur
complement is small enough to pseudo-invert densely up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .dissection import BlockFactor, concat_blocks
from .downlap import GraphDownLap
from .errors import NumericalError, check_vector
from .hollowing import Hollowing, check_hollowing
from .pcg import NORM_SAFETY, LinearOperator, pcg, power_iteration
from .reports import SolveReport


@dataclass
class UpSolverState:
    complex: object
    hollowing: Hollowing
    lup: sp.csr_matrix
    f_all: np.ndarray                # interior edge ids, region by region
    c_idx: np.ndarray                # boundary edge ids
    interior: BlockFactor            # Lup[F, F] over f_all, one block per region
    wall: Optional[BlockFactor]      # wall-complex up-Laplacian over c_idx
    l_cc: sp.csr_matrix
    l_cf: sp.csr_matrix
    l_fc: sp.csr_matrix
    coupling_norm: float = 0.0

    @property
    def num_edges(self) -> int:
        return self.lup.shape[0]


def build_up_solver(c, h: Hollowing,
                    wall: Optional[Callable] = None) -> UpSolverState:
    """Per-region factors of Lup[F, F] plus the wall-complex preconditioner.

    `wall(lt)` returns the exact solver of the wall complex's up-Laplacian
    `lt` over the boundary edges; by default one nested dissection factor
    ordered by edge midpoints.
    """
    check_hollowing(c, h)
    lup = c.lap_up(1)
    f_regions = h.interior_edges_by_region()
    f_all, blocks = concat_blocks(f_regions)
    c_idx = h.boundary_edges
    midpoints = c.vertices[c.edges].mean(axis=1)
    boundary_mask = h.edge_class < 0
    interior = BlockFactor.nested_dissection(
        lup[f_all][:, f_all], blocks, midpoints[f_all],
        root_pins=[_interface_edges(c, f, boundary_mask) for f in f_regions])
    state = UpSolverState(
        complex=c, hollowing=h, lup=lup, f_all=f_all, c_idx=c_idx,
        interior=interior, wall=None,
        l_cc=lup[c_idx][:, c_idx].tocsr(),
        l_cf=lup[c_idx][:, f_all].tocsr(),
        l_fc=lup[f_all][:, c_idx].tocsr(),
    )
    if len(c_idx):
        bt = h.boundary_triangles
        d2c = c.boundary(2).astype(float)[c_idx][:, bt]
        lt = (d2c @ sp.diags(c.weights[2][bt]) @ d2c.T).tocsr()
        if wall is None:
            state.wall = BlockFactor.nested_dissection(
                lt, [np.arange(len(c_idx))], midpoints[c_idx])
        else:
            state.wall = wall(lt)
        state.coupling_norm = _coupling_norm(state)
    return state


def _interface_edges(c, f, boundary_mask):
    """Positions within `f` of edges sharing a triangle with the boundary."""
    in_f = np.zeros(c.num_edges, dtype=bool)
    in_f[f] = True
    cls = boundary_mask[c.tri_edges]
    mixed = cls.any(axis=1)
    touched = np.unique(c.tri_edges[mixed][~cls[mixed]])
    touched = touched[in_f[touched]]
    pos = {e: i for i, e in enumerate(f)}
    return np.array([pos[e] for e in touched], dtype=np.int64)


def schur_apply(state: UpSolverState, x_c):
    """Sc[Lup]_C x = Lup[C,C] x - Lup[C,F] Lup[F,F]^+ Lup[F,C] x, implicit."""
    x_c = np.asarray(x_c, dtype=float)
    if len(state.f_all) == 0:
        return state.l_cc @ x_c
    y = state.interior.solve(state.l_fc @ x_c)
    return state.l_cc @ x_c - state.l_cf @ y


def schur_operator(state: UpSolverState) -> LinearOperator:
    return LinearOperator(dim=len(state.c_idx),
                          apply=lambda v: schur_apply(state, v))


def _coupling_norm(state: UpSolverState) -> float:
    """Safety-doubled power-iteration estimate of |Lup[C,F] Lup[F,F]^+|."""
    nc = len(state.c_idx)
    if nc == 0 or len(state.f_all) == 0:
        return 0.0
    op = LinearOperator(
        dim=nc, apply=lambda v: state.l_cf @ state.interior.solve(state.l_fc @ v))
    return NORM_SAFETY * float(np.sqrt(power_iteration(op, 11)))


def schur_solve(state: UpSolverState, h_vec, delta: float,
                max_iters: Optional[int] = None):
    """PCG on the Schur complement, preconditioned by the wall complex."""
    h_vec = np.asarray(h_vec, dtype=float)
    if len(h_vec) == 0:
        return h_vec.copy(), SolveReport(stage="schur")
    precond = LinearOperator(dim=len(state.c_idx), apply=state.wall.solve)
    x, report = pcg(schur_operator(state), precond, h_vec, tol=delta,
                    max_iters=max_iters, stage="schur")
    if not report.converged:
        raise NumericalError(
            f"Schur-complement PCG did not reach {delta:.2e} within "
            f"{report.iterations} iterations "
            f"(final residual {report.final_residual:.2e})")
    return x, report


def up_lap_solve(c, h: Hollowing, b, eps: float,
                 state: Optional[UpSolverState] = None):
    """Solve Lup x = b to |Lup x - b| <= eps |b| for b in Im(Lup)."""
    b = check_vector(b, c.num_edges, "b")
    if state is None:
        state = build_up_solver(c, h)
    return _up_solve_with_state(state, b, eps)


def _up_solve_with_state(state: UpSolverState, b, eps: float):
    b = np.asarray(b, dtype=float)
    report = SolveReport(stage="up_lap_solve", size=len(b),
                         params={"eps": eps})
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return np.zeros_like(b), report

    x = np.zeros_like(b)
    f_solve = state.interior.solve
    if len(state.c_idx) == 0:
        x[state.f_all] = f_solve(b[state.f_all])
    else:
        b_f = b[state.f_all]
        b_c = b[state.c_idx]
        h_vec = b_c - state.l_cf @ f_solve(b_f)
        # the a-priori delta from the coupling-norm estimate, tightened by
        # the a-posteriori bound delta * |h| <= eps * |b|
        delta = eps / (1.0 + state.coupling_norm)
        nh = np.linalg.norm(h_vec)
        if nh > 0:
            delta = min(delta, 0.5 * eps * norm_b / nh)
        x_c, screp = schur_solve(state, h_vec, delta)
        x_f = f_solve(b_f - state.l_fc @ x_c)
        x[state.f_all] = x_f
        x[state.c_idx] = x_c
        report.add_stage("schur", screp)
        report.params["delta"] = delta
        report.params["coupling_norm"] = state.coupling_norm

    resid = np.linalg.norm(state.lup @ x - b)
    report.final_residual = resid
    report.initial_residual = norm_b
    if resid > eps * norm_b * (1 + 1e-9):
        raise NumericalError(
            f"up-Laplacian solve missed its contract: residual {resid:.3e} "
            f"> eps * |b| = {eps * norm_b:.3e} (b outside the image?)")
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
    return BlockFactor(lt, [e1_local], [m11], shared=e2hat_local)


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

    # disc signature per boundary edge
    coo = d2tb.tocoo()
    edge_discs = {}
    for e_local, t_local in zip(coo.row, coo.col):
        edge_discs.setdefault(e_local, set()).add(int(disc_of[t_local]))
    n_c = len(c_idx)
    e1_mask = np.zeros(n_c, dtype=bool)
    for e_local in range(n_c):
        if len(edge_discs.get(e_local, ())) == 1:
            e1_mask[e_local] = True

    signs = _orient_discs(d2tb, disc_of, e1_mask)
    b1 = (d2tb @ sp.diags(signs))[e1_mask].tocsr()
    counts = np.diff(b1.indptr)
    if not (np.all(counts == 2)
            and np.all(b1.data.reshape(-1, 2).sum(axis=1) == 0)):
        raise NumericalError("disc interior edge with unexpected incidence")

    e1_local = np.flatnonzero(e1_mask)
    groups = {}
    for e_local in np.flatnonzero(~e1_mask):
        key = frozenset(edge_discs.get(e_local, ()))
        groups.setdefault(key, []).append(e_local)
    e2hat_local = np.array(sorted(min(g) for g in groups.values()),
                           dtype=np.int64)
    return e1_local, e2hat_local, b1


def _orient_discs(d2tb, disc_of, e1_mask) -> np.ndarray:
    """Flip triangle orientations so triangles agree within each disc."""
    nt = d2tb.shape[1]
    signs = np.zeros(nt)
    csr = d2tb.tocsr()
    csc = d2tb.tocsc()
    for start in range(nt):
        if signs[start] != 0.0:
            continue
        signs[start] = 1.0
        stack = [start]
        while stack:
            t = stack.pop()
            lo, hi = csc.indptr[t], csc.indptr[t + 1]
            for e, val in zip(csc.indices[lo:hi], csc.data[lo:hi]):
                if not e1_mask[e]:
                    continue
                elo, ehi = csr.indptr[e], csr.indptr[e + 1]
                for t2, val2 in zip(csr.indices[elo:ehi], csr.data[elo:ehi]):
                    if t2 == t or disc_of[t2] != disc_of[t]:
                        continue
                    want = -signs[t] * val * val2
                    if signs[t2] == 0.0:
                        signs[t2] = want
                        stack.append(t2)
                    elif signs[t2] != want:
                        raise NumericalError("disc is not orientable")
    signs[signs == 0.0] = 1.0
    return signs


def up_lap_solve_fast(c, h: Hollowing, b, eps: float,
                      state: Optional[UpSolverState] = None):
    """Sphere-hollowing up-solver; same contract as up_lap_solve."""
    b = check_vector(b, c.num_edges, "b")
    if state is None:
        state = build_sphere_fast_solver(c, h)
    return _up_solve_with_state(state, b, eps)


# -- diagnostics ---------------------------------------------------------------

def schur_condition_estimate(state: UpSolverState, iters: int = 60) -> float:
    """Lanczos estimate of kappa(Sc[Lup]_C, Lup of the wall complex)."""
    from .pcg import estimate_rel_condition
    if len(state.c_idx) == 0:
        return 1.0
    precond = LinearOperator(dim=len(state.c_idx), apply=state.wall.solve)
    return estimate_rel_condition(schur_operator(state), precond, iters=iters)
