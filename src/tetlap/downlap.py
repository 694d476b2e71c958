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
state, so every projection is exact up to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, dijkstra

from .dissection import _GEMM, CholeskyFactor, nd_cholesky
from .errors import (ROUNDOFF_MULTIPLE, NumericalError, check_vector,
                     one_norm, roundoff_floor)

EXACT_TOL = 1e-10


@dataclass
class SpanningForest:
    """BFS forest of an oriented graph; root = smallest index per component."""

    n_vertices: int
    edges: np.ndarray          # (m, 2), tail -> head orientation
    component: np.ndarray      # (n,) component id
    roots: np.ndarray
    parent_edge: np.ndarray    # (n,) edge id into `edges`, -1 at roots
    parent_vertex: np.ndarray  # (n,) -1 at roots
    head_sign: np.ndarray      # (n,) +1 if vertex is the head of its parent edge
    levels: list               # vertex arrays by BFS depth, levels[0] = roots
    path: sp.csr_matrix        # (n, m); row v holds the head_sign-signed
                               # parent edges of v and its ancestors, root
                               # first: sum of depths stored entries
    path_t: sp.csc_matrix      # path.T, on the same arrays

    @classmethod
    def from_graph(cls, n_vertices: int, edges) -> "SpanningForest":
        """The forest of `bfs_parents`, with its path matrix."""
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        m = len(edges)
        comp, roots, depth, parent_vertex, parent_edge, levels = bfs_parents(
            n_vertices, edges)
        kids = np.flatnonzero(parent_edge >= 0)
        head_sign = np.zeros(n_vertices, dtype=np.int64)
        head_sign[kids] = np.where(edges[parent_edge[kids], 1] == kids, 1, -1)

        # a vertex's row of the path matrix is its parent's row and then its
        # own parent edge, filled level by level from the roots down
        indptr = np.zeros(n_vertices + 1, dtype=np.int64)
        np.cumsum(depth, out=indptr[1:])
        indices = np.empty(indptr[-1], dtype=np.int32)
        for k, level in enumerate(levels[1:], start=1):
            start = indptr[level]
            span = np.arange(k - 1)
            indices[start[:, None] + span] = \
                indices[indptr[parent_vertex[level]][:, None] + span]
            indices[start + k - 1] = parent_edge[level]
        edge_sign = np.zeros(m)
        edge_sign[parent_edge[kids]] = head_sign[kids]
        path = sp.csr_matrix((edge_sign[indices], indices, indptr),
                             shape=(n_vertices, m))
        return cls(n_vertices=n_vertices, edges=edges, component=comp,
                   roots=roots, parent_edge=parent_edge,
                   parent_vertex=parent_vertex, head_sign=head_sign,
                   levels=levels, path=path, path_t=path.T)

    # incidence convention: edge e = (u, v) has -1 at u and +1 at v

    def solve_transpose(self, b_edges: np.ndarray) -> np.ndarray:
        """y with (d^T y)[e] = y[head] - y[tail] = b[e] on forest edges;
        y is zero at the roots.  Exact when b is in Im(d^T): y[v] sums b
        over the path from the root to v, signed by edge direction."""
        return self.path @ np.asarray(b_edges, dtype=float)

    def solve_head(self, b_vertices: np.ndarray) -> np.ndarray:
        """x supported on forest edges with (d x) = b; needs b to sum to
        zero on every component (checked by the caller's residual).  Each
        forest edge carries the signed sum of b below it."""
        return self.path_t @ np.asarray(b_vertices, dtype=float)


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
    (n_vertices x n_edges) incidence matrix and W the vertex weights."""

    def __init__(self, n_vertices: int, edges, w_vertices=None):
        self.forest = SpanningForest.from_graph(n_vertices, edges)
        self.edges = self.forest.edges
        self.n_vertices = n_vertices
        self.w = np.ones(n_vertices) if w_vertices is None \
            else np.asarray(w_vertices, dtype=float)
        self.sqrt_w = np.sqrt(self.w)
        # kernel direction of d^T W^(1/2), one per component
        self.u = 1.0 / self.sqrt_w
        comp = self.forest.component
        ncomp = len(self.forest.roots)
        self.u_norm2 = np.bincount(comp, weights=self.u ** 2, minlength=ncomp)
        # (components, n): row k holds u on component k, so one product
        # gives every component's dot with u; its transpose, on the same
        # arrays, spreads one coefficient per component back along u
        self.kernel = sp.csr_matrix(
            (self.u, (comp, np.arange(n_vertices))), shape=(ncomp, n_vertices))
        self.kernel_t = self.kernel.T
        m = len(self.edges)
        rows = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
        cols = np.concatenate([np.arange(m), np.arange(m)])
        vals = np.concatenate([-np.ones(m), np.ones(m)])
        self.d = sp.csc_matrix((vals, (rows, cols)), shape=(n_vertices, m))
        # sorted once, here: products with it sum in one order from the start
        self.lap = (self.d.T @ sp.diags(self.w) @ self.d).tocsr()
        self.lap.sort_indices()
        self.lap_norm1 = one_norm(self.lap)

    @property
    def rank(self) -> int:
        """rank d^T W d = rank d = vertices - components."""
        return self.n_vertices - len(self.forest.roots)

    @property
    def nbytes(self) -> int:
        """Bytes stored by the solver: its forest (the path matrix counted
        once), weights, kernel, incidence matrix and Laplacian."""
        f = self.forest
        arrays = [f.edges, f.component, f.roots, f.parent_edge,
                  f.parent_vertex, f.head_sign, *f.levels, self.w,
                  self.sqrt_w, self.u, self.u_norm2]
        for m in (f.path, self.kernel, self.d, self.lap):
            arrays += [m.data, m.indices, m.indptr]
        return sum(a.nbytes for a in arrays)

    def gram(self, b) -> np.ndarray:
        """b^T x for x = solve(b), b a sparse (edges, k) matrix, from the
        first half of the solve only.  x lives on forest edges, where b =
        d^T y, and d x = W^(-1/2) z for z = _half(b); so b^T x = (W^(-1/2)
        y)^T z = z^T z, as z is W^(-1/2) y less a part orthogonal to it."""
        z = self._half(b.toarray())
        return _GEMM(1.0, z, z, trans_a=1)

    def solve(self, b: np.ndarray, check_image: bool = True) -> np.ndarray:
        """Exact solve of (d^T W d) x = b for b in the image.

        The image check allows EXACT_TOL |b|, or the rounding error of
        the product (d^T W d) x when spread weights make that larger."""
        b = np.asarray(b, dtype=float)
        z1 = self._half(b)
        x = self.forest.solve_head(z1 / _col(self.sqrt_w, z1.ndim))
        if check_image:
            resid = np.linalg.norm(self.lap @ x - b)
            allowed = max(EXACT_TOL * max(np.linalg.norm(b), 1e-300),
                          ROUNDOFF_MULTIPLE
                          * roundoff_floor(self.lap_norm1, x))
            if not resid <= allowed:
                raise NumericalError(
                    "right-hand side is not in the image of the down-Laplacian")
        return x

    def _half(self, b: np.ndarray) -> np.ndarray:
        """z = W^(-1/2) y for the forest's y with d^T y = b, projected off
        the kernel of d^T W^(1/2)."""
        z = self.forest.solve_transpose(b)
        z /= _col(self.sqrt_w, z.ndim)
        return self._project_off_kernel(z)

    def _project_off_kernel(self, z: np.ndarray) -> np.ndarray:
        """z projected off the kernel, in place: `_half` owns its z."""
        coef = (self.kernel @ z) / _col(self.u_norm2, z.ndim)
        z -= self.kernel_t @ coef
        return z


def _col(v, ndim):
    return v.reshape((-1,) + (1,) * (ndim - 1))


# -- complex-level API -------------------------------------------------------

@dataclass
class DownState:
    """What the down solve and the gradient projection read, built once."""

    graph: GraphDownLap              # 1-skeleton with the vertex weights
    # nested-dissection factor of the unweighted vertex Laplacian d1 d1^T,
    # which it keeps as its `matrix`
    lap0_factor: CholeskyFactor


def _graph(c) -> GraphDownLap:
    return GraphDownLap(c.num_vertices, c.edges, c.weights[0])


def build_down_state(c) -> DownState:
    graph = _graph(c)
    return DownState(graph=graph, lap0_factor=nd_cholesky(
        graph.d @ graph.d.T, c.vertices))


def down_lap_solve(c, b, state: DownState | None = None) -> np.ndarray:
    """Exact solve of L1down x = b; errors when b is outside the image."""
    b = check_vector(b, c.num_edges, "b")
    graph = _graph(c) if state is None else state.graph
    return graph.solve(b)


def down_projection(c, b, state: DownState | None = None):
    """Orthogonal projection onto Im(d1^T), the gradients.

    One solve of the vertex Laplacian system L0 phi = d1 b through the
    state's nested-dissection factor, then d1^T phi, exact up to roundoff:
    it takes no tolerance.
    """
    b = check_vector(b, c.num_edges, "b")
    if state is None:
        state = build_down_state(c)
    d = state.graph.d
    # in Im(d1) by construction, so every component of g sums to zero; the
    # roundoff that does not lies in ker L0, where the factor cannot solve
    g = d @ b
    comp = state.graph.forest.component
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
