"""Approximate orthogonal projection onto the image of the up-Laplacian.

Uses the triangle partition of a hollowing: the projection splits into an
exact part supported on interior-triangle columns (solved by nested
dissection per region) plus a correction through the Schur complement of
the triangle Gram matrix onto the boundary triangles, solved by PCG with
the boundary triangles' own Gram matrix as preconditioner.  All matrices
here are unweighted: images, and hence orthogonal projections, do not see
positive simplex weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .dissection import BlockFactor, concat_blocks
from .downlap import build_down_state, down_projection
from .errors import NumericalError, UnsupportedGeometryError, check_vector
from .hollowing import Hollowing, check_hollowing
from .pcg import NORM_SAFETY, LinearOperator, pcg, power_iteration
from .reports import SolveReport


@dataclass
class UpProjectionState:
    complex: object
    hollowing: Hollowing
    d2: sp.csc_matrix                # float copy of the triangle boundary map
    f_all: np.ndarray                # interior triangle ids, region by region
    c_t: np.ndarray                  # boundary triangle ids
    d2_f: sp.csc_matrix              # edges x interior triangles
    d2_c: sp.csc_matrix              # edges x boundary triangles
    interior: BlockFactor            # Gram of d2_f, one block per region
    wall: Optional[BlockFactor]      # Gram of d2_c
    lup_norm: float                  # norm estimate of d2 d2^T

    @property
    def num_edges(self) -> int:
        return self.d2.shape[0]


def build_up_projection(c, h: Hollowing, centroids=None,
                        wall: Optional[Callable] = None) -> UpProjectionState:
    """Per-region factors of the interior-triangle Gram matrix plus the
    boundary Gram preconditioner.

    `centroids` gives the nested dissection location of every triangle
    (default: its centroid in `c`).  `wall(gram)` returns the exact solver
    of the boundary triangles' Gram matrix; by default one nested dissection
    factor.
    """
    check_hollowing(c, h)
    _check_uncoupled_interiors(c, h)
    d2 = c.boundary(2).astype(float).tocsc()
    f_all, blocks = concat_blocks(h.interior_triangles_by_region())
    c_t = h.boundary_triangles
    if centroids is None:
        centroids = c.vertices[c.triangles].mean(axis=1)
    d2_f = d2[:, f_all]
    interior = BlockFactor.nested_dissection(
        (d2_f.T @ d2_f).tocsr(), blocks, centroids[f_all])
    d2_c = d2[:, c_t]
    wall_factor = None
    if len(c_t):
        gram_c = (d2_c.T @ d2_c).tocsr()
        if wall is None:
            wall_factor = BlockFactor.nested_dissection(
                gram_c, [np.arange(len(c_t))], centroids[c_t])
        else:
            wall_factor = wall(gram_c)
    return UpProjectionState(
        complex=c, hollowing=h, d2=d2, f_all=f_all, c_t=c_t,
        d2_f=d2_f, d2_c=d2_c, interior=interior, wall=wall_factor,
        lup_norm=NORM_SAFETY * max(power_iteration(
            LinearOperator.from_matrix((d2 @ d2.T).tocsr()), 23), 1e-300),
    )


def _check_uncoupled_interiors(c, h: Hollowing) -> None:
    """Raise UnsupportedGeometryError when interior triangles of two
    regions share an edge, which couples their triangle Gram blocks."""
    interior = np.flatnonzero(h.tri_class >= 0)
    edges = c.tri_edges[interior].ravel()
    regions = np.repeat(h.tri_class[interior], 3)
    order = np.lexsort((regions, edges))
    edges, regions = edges[order], regions[order]
    clash = np.flatnonzero((edges[1:] == edges[:-1])
                           & (regions[1:] != regions[:-1]))
    if len(clash):
        i = clash[0]
        raise UnsupportedGeometryError(
            f"interior triangles of regions {regions[i]} and "
            f"{regions[i + 1]} share edge {edges[i]}; "
            "the full 1-Laplacian solve needs uncoupled region interiors, "
            "and sphere hollowings support only up_lap_solve_fast")


def proj_im_F(state: UpProjectionState, b) -> np.ndarray:
    """Orthogonal projection of an edge vector onto Im(d2[:, F])."""
    b = np.asarray(b, dtype=float)
    if len(state.f_all) == 0:
        return np.zeros_like(b)
    return state.d2_f @ state.interior.solve(state.d2_f.T @ b)


def proj_ker_F(state: UpProjectionState, b) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    return b - proj_im_F(state, b)


def down2_schur_apply(state: UpProjectionState, x) -> np.ndarray:
    """Sc of the triangle Gram matrix onto boundary triangles, implicitly:
    d2[:,C]^T (I - P_Im(d2[:,F])) d2[:,C] x."""
    return state.d2_c.T @ proj_ker_F(state, state.d2_c @ np.asarray(x, float))


def down2_schur_solve(state: UpProjectionState, h_vec, delta: float,
                      max_iters: Optional[int] = None):
    h_vec = np.asarray(h_vec, dtype=float)
    if len(h_vec) == 0:
        return h_vec.copy(), SolveReport(stage="tri_schur")
    a_op = LinearOperator(dim=len(state.c_t),
                          apply=lambda v: down2_schur_apply(state, v))
    m_op = LinearOperator(dim=len(state.c_t), apply=state.wall.solve)
    x, report = pcg(a_op, m_op, h_vec, tol=delta, max_iters=max_iters,
                    stage="tri_schur")
    if not report.converged:
        raise NumericalError(
            f"triangle Schur PCG did not reach {delta:.2e} "
            f"(final residual {report.final_residual:.2e})")
    return x, report


def up_project(c, h: Hollowing, b, eps: float,
               state: Optional[UpProjectionState] = None):
    """p in Im(Lup) with |p - P b| <= eps |P b|, P the orthogonal projection
    onto Im(Lup)."""
    b = check_vector(b, c.num_edges, "b")
    if state is None:
        state = build_up_projection(c, h)
    report = SolveReport(stage="up_project", size=len(b), params={"eps": eps})
    if len(state.c_t) == 0:
        return proj_im_F(state, b), report

    b1 = proj_im_F(state, b)
    b2 = state.d2_c.T @ (b - b1)
    if np.linalg.norm(b2) <= 1e-14 * np.linalg.norm(b):
        return b1, report
    delta = max(eps, 1e-15) / (2.0 * state.lup_norm)
    b3, screp = down2_schur_solve(state, b2, delta)
    b4 = proj_ker_F(state, state.d2_c @ b3)
    report.add_stage("tri_schur", screp)
    report.params["delta"] = delta
    return b1 + b4, report


def up_project_betti0(c, b, eps: float):
    """Projection onto Im(Lup) assuming the first Betti number vanishes:
    complement of the gradient projection, with one refinement round so the
    relative contract survives a large gradient part."""
    b = np.asarray(b, dtype=float)
    down_state = build_down_state(c)
    g = down_projection(c, b, eps, state=down_state)
    p = b - g
    ng, np_ = np.linalg.norm(g), np.linalg.norm(p)
    if ng > 0.5 * np_:
        target = max(np_ - eps * ng, eps * np.linalg.norm(b), 1e-300)
        eps2 = eps * target / (2.0 * ng)
        g = down_projection(c, b, eps2, state=down_state)
        p = b - g
    return p
