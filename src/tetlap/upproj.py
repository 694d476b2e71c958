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
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .dissection import CholeskyFactor, concat_blocks, nd_cholesky
from .errors import (ROUNDOFF_MULTIPLE, UNIT_ROUNDOFF, NumericalError,
                     UnsupportedGeometryError, check_state, check_tolerance,
                     check_vector, one_norm)
from .hollowing import Hollowing, check_hollowing
from .pcg import LinearOperator, pcg
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
    interior: CholeskyFactor         # Gram of d2_f, one block per region
    wall: Optional[CholeskyFactor]   # Gram of d2_c
    lup_norm: float                  # |d2 d2^T|_1, a bound on its 2-norm

    @property
    def num_edges(self) -> int:
        return self.d2.shape[0]


def build_up_projection(c, h: Hollowing) -> UpProjectionState:
    """Per-region factors of the interior-triangle Gram matrix plus a nested
    dissection factor of the boundary triangles' Gram matrix, both ordered
    by triangle centroids."""
    check_hollowing(c, h)
    _check_uncoupled_interiors(c, h)
    d2 = c.boundary(2).astype(float).tocsc()
    f_all, blocks = concat_blocks(h.interior_triangles_by_region())
    c_t = h.boundary_triangles
    centroids = c.vertices[c.triangles].mean(axis=1)
    d2_f = d2[:, f_all]
    interior = nd_cholesky((d2_f.T @ d2_f).tocsr(), centroids[f_all],
                           blocks=blocks)
    d2_c = d2[:, c_t]
    wall = None
    if len(c_t):
        wall = nd_cholesky((d2_c.T @ d2_c).tocsr(), centroids[c_t])
    return UpProjectionState(
        complex=c, hollowing=h, d2=d2, f_all=f_all, c_t=c_t,
        d2_f=d2_f, d2_c=d2_c, interior=interior, wall=wall,
        # for a symmetric matrix |A|_2 <= sqrt(|A|_1 |A|_inf) = |A|_1
        lup_norm=max(one_norm(d2 @ d2.T), 1e-300),
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
            f"{regions[i + 1]} share edge {edges[i]}, which couples their "
            "triangle Gram blocks; the up projection needs uncoupled "
            "region interiors")


def proj_im_F(state: UpProjectionState, b) -> np.ndarray:
    """Orthogonal projection of an edge vector onto Im(d2[:, F])."""
    b = np.asarray(b, dtype=float)
    if len(state.f_all) == 0:
        return np.zeros_like(b)
    return state.d2_f @ state.interior.solve(state.d2_f.T @ b,
                                             check_image=False)


def proj_ker_F(state: UpProjectionState, b) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    return b - proj_im_F(state, b)


def down2_schur_apply(state: UpProjectionState, x) -> np.ndarray:
    """Sc of the triangle Gram matrix onto boundary triangles, implicitly:
    d2[:,C]^T (I - P_Im(d2[:,F])) d2[:,C] x."""
    return state.d2_c.T @ proj_ker_F(state, state.d2_c @ np.asarray(x, float))


def down2_schur_solve(state: UpProjectionState, h_vec, delta: float):
    h_vec = np.asarray(h_vec, dtype=float)
    if len(h_vec) == 0:
        return h_vec.copy(), SolveReport(stage="tri_schur")
    a_op = LinearOperator(dim=len(state.c_t),
                          apply=lambda v: down2_schur_apply(state, v))
    m_op = LinearOperator(
        dim=len(state.c_t),
        apply=lambda v: state.wall.solve(v, check_image=False))
    x, report = pcg(a_op, m_op, h_vec, tol=delta, stage="tri_schur")
    if not report.converged:
        raise NumericalError(
            f"triangle Schur PCG did not reach {delta:.2e} "
            f"(final residual {report.final_residual:.2e})")
    return x, report


def up_project(c, h: Hollowing, b, eps: float,
               state: Optional[UpProjectionState] = None):
    """p in Im(Lup) with |p - P b| <= eps |P b|, P the orthogonal projection
    onto Im(Lup).  A `state` built for another complex or hollowing raises
    ValueError."""
    b = check_vector(b, c.num_edges, "b")
    eps = check_tolerance(eps)
    if state is None:
        state = build_up_projection(c, h)
    check_state(state, c, h)
    report = SolveReport(stage="up_project", size=len(b), params={"eps": eps})
    if len(state.c_t) == 0:
        return proj_im_F(state, b), report

    b1 = proj_im_F(state, b)
    b2 = state.d2_c.T @ (b - b1)
    if np.linalg.norm(b2) <= 1e-14 * np.linalg.norm(b):
        return b1, report
    delta = max(eps, 1e-15) / (2.0 * state.lup_norm)
    try:
        b3, screp = down2_schur_solve(state, b2, delta)
    except NumericalError as exc:
        if delta > ROUNDOFF_MULTIPLE * UNIT_ROUNDOFF:
            raise
        raise NumericalError(
            f"{exc}; eps = {eps:.1e} is below the attainable accuracy (the "
            f"triangle Schur PCG needs a relative residual of {delta:.1e}, "
            f"within {ROUNDOFF_MULTIPLE:g} times float64 roundoff "
            f"u = {UNIT_ROUNDOFF:.1e})") from exc
    b4 = proj_ker_F(state, state.d2_c @ b3)
    report.add_stage("tri_schur", screp)
    report.params["delta"] = delta
    return b1 + b4, report

