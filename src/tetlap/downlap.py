"""Exact solver for first down-Laplacian systems and the exact projection
onto gradients.

The solver runs entirely on a BFS spanning forest of the 1-skeleton.  A
system in the incidence matrix, or in its transpose, is solved by one
sparse product with the forest's path matrix (each vertex's signed path of
parent edges up to its root), stored in O(sum of depths) and built once
with the forest.  The explicit kernel of d1^T W0^(1/2) (one vector per
connected component) turns two forest solves plus one projection into an
exact down-Laplacian solve.  Everything here also works on arbitrary
oriented graphs, which the fast up-solver reuses for dual graphs of
triangle discs.

The projection onto gradients, Im(d1^T), solves the unweighted vertex
Laplacian L0 = d1 d1^T through one nested-dissection factor built with the
state, so every projection is exact up to roundoff.  The state keeps the
complex's own d1, from which L0, the projection and the down solve's
image check read; no edges x edges matrix is assembled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, dijkstra

from .dissection import _GEMM, CholeskyFactor, nd_cholesky
from .errors import (ROUNDOFF_MULTIPLE, NumericalError, check_state,
                     check_vector, roundoff_floor)

EXACT_TOL = 1e-10


def bfs_parents(n_vertices: int, edges):
    """(component, roots, depth, parent_vertex, parent_edge, levels) of the
    breadth-first forest of the graph whose edge k joins edges[k, 0] and
    edges[k, 1]: a component's root is its smallest vertex, and a vertex's
    parent its smallest-index neighbour one level nearer the root, through
    the first listed edge between the two (-1 at the roots); levels are
    vertex arrays by depth, levels[0] the roots."""
    m = len(edges)
    ends = np.concatenate([edges[:, 0], edges[:, 1]])
    others = np.concatenate([edges[:, 1], edges[:, 0]])
    graph = sp.csr_matrix((np.ones(2 * m), (ends, others)),
                          shape=(n_vertices, n_vertices))
    _, comp = connected_components(graph, directed=False)
    _, roots = np.unique(comp, return_index=True)
    depth = dijkstra(graph, unweighted=True, min_only=True,
                     indices=roots).astype(np.int64)

    # every edge that leads one level down, sorted by child, parent and
    # edge id; each child keeps the first
    up = depth[others] == depth[ends] + 1
    child, par, edge = others[up], ends[up], np.tile(np.arange(m), 2)[up]
    first = np.lexsort((edge, par, child))
    first = first[np.unique(child[first], return_index=True)[1]]
    parent_edge = np.full(n_vertices, -1, dtype=np.int64)
    parent_vertex = np.full(n_vertices, -1, dtype=np.int64)
    parent_edge[child[first]] = edge[first]
    parent_vertex[child[first]] = par[first]
    order = np.argsort(depth, kind="stable")
    levels = np.split(order, np.flatnonzero(np.diff(depth[order])) + 1)
    return comp, roots, depth, parent_vertex, parent_edge, levels


class GraphDownLap:
    """Exact solver for d^T W d systems on an oriented graph, where d is the
    (n_vertices x n_edges) incidence matrix, -1 at an edge's tail and +1 at
    its head, and W the vertex weights.  It keeps the path matrix of the
    `bfs_parents` forest, the kernel and W^(1/2), and nothing else; its
    solves are exact for b in the image, and not checked."""

    def __init__(self, n_vertices: int, edges, w_vertices=None):
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        comp, roots, depth, parent_vertex, parent_edge, levels = bfs_parents(
            n_vertices, edges)
        ncomp = len(roots)
        self.rank = n_vertices - ncomp     # rank d^T W d = rank d

        # the path matrix P (n, m): row v holds the signed parent edges of v
        # and its ancestors, root first, one stored entry per vertex and
        # ancestor edge; a row is its parent's row and then its own parent
        # edge, filled level by level from the roots down.  y = P b solves
        # d^T y = b (y zero at the roots) and x = P^T b solves d x = b, both
        # exactly when b is in the image
        kids = np.flatnonzero(parent_edge >= 0)
        indptr = np.zeros(n_vertices + 1, dtype=np.int64)
        np.cumsum(depth, out=indptr[1:])
        indices = np.empty(indptr[-1], dtype=np.int32)
        for k, level in enumerate(levels[1:], start=1):
            start = indptr[level]
            span = np.arange(k - 1)
            indices[start[:, None] + span] = \
                indices[indptr[parent_vertex[level]][:, None] + span]
            indices[start + k - 1] = parent_edge[level]
        # +1 where the child is its parent edge's head
        edge_sign = np.zeros(len(edges))
        edge_sign[parent_edge[kids]] = np.where(
            edges[parent_edge[kids], 1] == kids, 1.0, -1.0)
        self.path = sp.csr_matrix((edge_sign[indices], indices, indptr),
                                  shape=(n_vertices, len(edges)))
        self.path_t = self.path.T          # CSC, on the same arrays

        w = np.ones(n_vertices) if w_vertices is None \
            else np.asarray(w_vertices, dtype=float)
        self.sqrt_w = np.sqrt(w)
        # kernel direction u = W^(-1/2) 1 of d^T W^(1/2), one per component
        u = 1.0 / self.sqrt_w
        self.u_norm2 = np.bincount(comp, weights=u ** 2, minlength=ncomp)
        # (components, n): row k holds u on component k, so one product
        # gives every component's dot with u; its transpose, on the same
        # arrays, spreads one coefficient per component back along u
        self.kernel = sp.csr_matrix(
            (u, (comp, np.arange(n_vertices))), shape=(ncomp, n_vertices))
        self.kernel_t = self.kernel.T

    @property
    def nbytes(self) -> int:
        """Bytes stored by the solver: its path matrix and kernel (each
        counted once, not again for its transpose) and W^(1/2)."""
        arrays = [self.sqrt_w, self.u_norm2]
        for m in (self.path, self.kernel):
            arrays += [m.data, m.indices, m.indptr]
        return sum(a.nbytes for a in arrays)

    def gram(self, b) -> np.ndarray:
        """b^T x for x = solve(b), b a sparse (edges, k) matrix, from the
        first half of the solve only.  x lives on forest edges, where b =
        d^T y, and d x = W^(-1/2) z for z the projected `to_vertices(b)`;
        so b^T x = (W^(-1/2) y)^T z = z^T z, as z is W^(-1/2) y less a part
        orthogonal to it."""
        z = self.project(self.to_vertices(b.toarray()))
        return _GEMM(1.0, z, z, trans_a=1)

    def coupled_paths(self, c) -> sp.csr_matrix:
        """B = C P^T W^(-1/2) for a sparse C over the graph's edges: C x
        for x = solve(v) is then B project(to_vertices(v)), with no second
        path product."""
        b = (c @ self.path_t).tocsr()
        b.data /= self.sqrt_w[b.indices]
        return b

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with (d^T W d) x = b, exact for b in the image; x lives on the
        forest edges.  It is P^T W^(-1/2) Pi W^(-1/2) P b, Pi the
        projection off the kernel of d^T W^(1/2)."""
        b = np.asarray(b, dtype=float)
        return self.to_edges(self.project(self.to_vertices(b)))

    def to_vertices(self, b: np.ndarray) -> np.ndarray:
        """W^(-1/2) y for the forest's y = P b, with d^T y = b for b in the
        image; one product with the path matrix."""
        z = self.path @ b
        z /= _col(self.sqrt_w, z.ndim)
        return z

    def to_edges(self, z: np.ndarray) -> np.ndarray:
        """P^T W^(-1/2) z, one product with the path matrix's transpose."""
        return self.path_t @ (z / _col(self.sqrt_w, z.ndim))

    def project(self, z: np.ndarray) -> np.ndarray:
        """z projected off the kernel of d^T W^(1/2), in place."""
        coef = (self.kernel @ z) / _col(self.u_norm2, z.ndim)
        z -= self.kernel_t @ coef
        return z


def _col(v, ndim):
    return v.reshape((-1,) + (1,) * (ndim - 1))


# -- complex-level API -------------------------------------------------------

@dataclass
class DownState:
    """What the down solve and the gradient projection read, built once
    for one complex; nothing in it changes afterwards."""

    complex: object
    weights: list                    # [a copy of the complex's w0]
    d1: sp.csc_matrix                # c.boundary(1) as floats
    component: np.ndarray            # connected component of each vertex
    graph: GraphDownLap              # 1-skeleton with the vertex weights
    # nested-dissection factor of the unweighted vertex Laplacian d1 d1^T,
    # which it keeps as its `matrix`
    lap0_factor: CholeskyFactor


def build_down_state(c) -> DownState:
    d1 = c.boundary(1).astype(float)
    lap0 = d1 @ d1.T
    return DownState(
        complex=c, weights=[c.weights[0].copy()], d1=d1,
        component=connected_components(lap0, directed=False)[1],
        graph=GraphDownLap(c.num_vertices, c.edges, c.weights[0]),
        lap0_factor=nd_cholesky(lap0, c.vertices))


def down_norm1(edges, w0) -> float:
    """|d1^T W0 d1|_1: column (u, v) holds w_u + w_v on the diagonal and
    +-w_u, +-w_v at the other edges of u and of v, so its absolute sum is
    w_u deg u + w_v deg v, exactly so without parallel edges."""
    wdeg = w0 * np.bincount(edges.ravel(), minlength=len(w0))
    return float(np.max(wdeg[edges[:, 0]] + wdeg[edges[:, 1]], initial=0.0))


def down_lap_solve(c, b, state: DownState | None = None) -> np.ndarray:
    """Exact solve of L1down x = b; NumericalError when b is outside the
    image, ValueError for a `state` of another complex or older weights.

    The image check allows EXACT_TOL |b|, or ROUNDOFF_MULTIPLE times the
    rounding error of L1down x when spread weights make that larger."""
    b = check_vector(b, c.num_edges, "b")
    if state is None:
        graph, d1, w0 = (GraphDownLap(c.num_vertices, c.edges, c.weights[0]),
                         c.boundary(1).astype(float), c.weights[0])
    else:
        check_state(state, c, None)
        graph, d1, w0 = state.graph, state.d1, state.weights[0]
    x = graph.solve(b)
    resid = np.linalg.norm(d1.T @ (w0 * (d1 @ x)) - b)
    allowed = max(EXACT_TOL * max(np.linalg.norm(b), 1e-300),
                  ROUNDOFF_MULTIPLE
                  * roundoff_floor(down_norm1(c.edges, w0), x))
    # a NaN residual compares false against any bound
    if not resid <= allowed:
        raise NumericalError(
            "right-hand side is not in the image of the down-Laplacian")
    return x


def down_projection(c, b, state: DownState | None = None):
    """Orthogonal projection onto Im(d1^T), the gradients.

    One solve of the vertex Laplacian system L0 phi = d1 b through the
    state's nested-dissection factor, then d1^T phi, exact up to roundoff:
    it takes no tolerance.  A `state` of another complex or older weights
    raises ValueError.
    """
    b = check_vector(b, c.num_edges, "b")
    if state is None:
        state = build_down_state(c)
    else:
        check_state(state, c, None)
    d = state.d1
    # in Im(d1) by construction, so every component of g sums to zero; the
    # roundoff that does not lies in ker L0, where the factor cannot solve
    g = d @ b
    comp = state.component
    g -= (np.bincount(comp, weights=g) / np.bincount(comp))[comp]
    # below this level g is cancellation noise from a curl-only input and
    # the projection itself sits at machine precision
    if np.linalg.norm(g) <= 1e-12 * np.linalg.norm(b):
        return np.zeros_like(b)
    phi = state.lap0_factor.solve(g, check_image=False)
    resid = np.linalg.norm(state.lap0_factor.matrix @ phi - g)
    if resid > EXACT_TOL * np.linalg.norm(g):
        raise NumericalError(
            f"down projection: the vertex-Laplacian factor solve left a "
            f"relative residual of {resid / np.linalg.norm(g):.1e}")
    return d.T @ phi
