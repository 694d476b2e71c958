"""Approximate orthogonal projection onto the image of the up-Laplacian.

P b = d2 y for y solving the triangle Gram system G y = d2^T b,
G = d2^T d2.  That system runs through the up solve's block elimination
(`uplap.eliminate`): the interior triangles of each region are eliminated
exactly by nested dissection, and the boundary triangles by PCG on the
Schur complement, preconditioned by their own Gram matrix, folded.  All
matrices here are unweighted: images, and hence orthogonal projections, do
not see positive simplex weights.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import uplap
from .dissection import nd_cholesky
from .errors import (ROUNDOFF_MULTIPLE, UNIT_ROUNDOFF, NumericalError,
                     UnsupportedGeometryError, check_state, check_tolerance,
                     check_vector, one_norm)
from .hollowing import Hollowing, check_hollowing
from .reports import SolveReport


def build_up_projection(c, h: Hollowing) -> uplap.UpSolverState:
    """The block elimination of the triangle Gram matrix, its interior
    factors and its folded wall factor ordered by triangle centroids."""
    check_hollowing(c, h)
    _check_uncoupled_interiors(c, h)
    d2 = c.boundary(2).astype(float)
    gram = (d2.T @ d2).tocsr()
    c_t = h.boundary_triangles
    centroids = c.vertices[c.triangles].mean(axis=1)
    wall = None
    if len(c_t):
        wall = nd_cholesky(gram[c_t][:, c_t], centroids[c_t], folded=True)
    return uplap.eliminate(c, h, gram, d2, centroids,
                           h.interior_triangles_by_region(), c_t, wall)


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


def up_project(c, h: Hollowing, b, eps: float,
               state: Optional[uplap.UpSolverState] = None):
    """p in Im(Lup) with |p - P b| <= eps |P b|, P the orthogonal projection
    onto Im(Lup).  The triangle Schur PCG runs to eps / (2 |G|_1): for a
    symmetric matrix |G|_2 <= sqrt(|G|_1 |G|_inf) = |G|_1, and
    |G|_2 = |d2 d2^T|_2.  A `state` built for another complex or hollowing
    raises ValueError."""
    b = check_vector(b, c.num_edges, "b")
    eps = check_tolerance(eps)
    if state is None:
        state = build_up_projection(c, h)
    check_state(state, c, h)
    report = SolveReport(stage="up_project", size=len(b), params={"eps": eps})
    h_vec, z = uplap.schur_rhs(state, state.d2.T @ b)
    x_c = np.zeros(len(state.c_idx))
    # with no wall rows h is empty, of norm 0
    if np.linalg.norm(h_vec) > 1e-14 * np.linalg.norm(b):
        delta = eps / (2.0 * one_norm(state.lup))
        try:
            x_c, screp = uplap.schur_solve(state, h_vec, delta, "tri_schur")
        except NumericalError as exc:
            if delta > ROUNDOFF_MULTIPLE * UNIT_ROUNDOFF:
                raise
            raise NumericalError(
                f"{exc}; eps = {eps:.1e} is below the attainable "
                "accuracy (the triangle Schur PCG needs a relative "
                f"residual of {delta:.1e}, within {ROUNDOFF_MULTIPLE:g} "
                f"times float64 roundoff u = {UNIT_ROUNDOFF:.1e})"
            ) from exc
        report.add_stage("tri_schur", screp)
        report.params["delta"] = delta
    return state.d2 @ uplap.back_substitute(state, z, x_c), report
