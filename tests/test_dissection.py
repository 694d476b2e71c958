import ast
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import tetlap
from tetlap import oracle
from tetlap import dissection, uplap
from tetlap.complexes import one_laplacian, up_laplacian
from tetlap.dissection import (
    DEFAULT_PIVOT_TOL,
    NdNode,
    NdOrdering,
    nd_cholesky,
    nd_ordering,
    solve_with_factor,
)
from tetlap.downlap import GraphDownLap
from tetlap.errors import NumericalError
from tetlap.meshgen import GridSpec, gen_grid
from tetlap.uplap import BlockFactor

from factor_fronts import exact_build, lower_factor, same_bytes


RELAXED = tetlap.HollowingConfig(min_shell_width=2,
                                 min_component_separation=2)


def edge_midpoints(c):
    return c.vertices[c.edges].mean(axis=1)


def path_laplacian(n):
    d = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)],
                 [-1, 0, 1]).tocsr()
    return d


def graph_path_laplacian(n):
    """The path graph's Laplacian, singular with a constant kernel."""
    return (path_laplacian(n)
            - sp.diags(np.r_[1.0, np.zeros(n - 2), 1.0])).tocsr()


def symbolic_fill_count(mat, perm):
    """Independent symbolic factorization: dense boolean elimination."""
    a = np.abs(sp.csr_matrix(mat).toarray()) > 0
    a = a | a.T
    ap = a[perm][:, perm]
    n = ap.shape[0]
    count = 0
    for j in range(n):
        below = np.where(ap[j + 1:, j])[0] + j + 1
        count += 1 + len(below)
        ap[np.ix_(below, below)] = True
    return count


# -- separators --------------------------------------------------------------

def root_split(points, adjacency, base_case):
    """(A, B, S) of the root split of nd_ordering: the rows under each child
    of the root, and the root's own rows, the separator."""
    tree = nd_ordering(adjacency, points, base_case=base_case).tree

    def rows(node):
        return np.concatenate([node.cols] + [rows(ch) for ch in node.children])
    if not tree.children:
        return tree.cols[:0], tree.cols[:0], tree.cols
    a, b = (np.sort(rows(ch)) for ch in tree.children)
    return a, b, np.sort(tree.cols)


def test_vertex_separator_grid_plane():
    c = gen_grid(GridSpec((4, 1, 1)))
    skel = sp.csr_matrix((np.ones(c.num_edges),
                          (c.edges[:, 0], c.edges[:, 1])),
                         shape=(c.num_vertices, c.num_vertices))
    skel = skel + skel.T
    a, b, s = root_split(c.vertices, skel, base_case=4)
    assert len(a) and len(b)
    assert abs(len(a) - len(b)) <= len(s)
    # no A-B adjacency
    assert skel[a][:, b].nnz == 0
    # the separator is one lattice plane of the long axis
    assert len(np.unique(c.vertices[s][:, 0])) == 1


def test_vertex_separator_base_case():
    c = gen_grid(GridSpec((1, 1, 1)))
    skel = sp.eye(c.num_vertices).tocsr()
    a, b, s = root_split(c.vertices, skel, base_case=64)
    assert len(a) == len(b) == 0 and len(s) == c.num_vertices


@pytest.mark.parametrize("k", [4, 8])
def test_vertex_separator_size_scales_with_surface(k):
    c = gen_grid(GridSpec((k, k, k)))
    skel = sp.csr_matrix((np.ones(c.num_edges),
                          (c.edges[:, 0], c.edges[:, 1])),
                         shape=(c.num_vertices, c.num_vertices))
    skel = skel + skel.T
    a, b, s = root_split(c.vertices, skel, base_case=16)
    assert len(s) <= 4 * k * k
    assert max(len(a), len(b)) <= 0.9 * c.num_vertices
    assert skel[a][:, b].nnz == 0


# -- ordering and factorization ----------------------------------------------

def single_front(m):
    """The factor of `m` as one front in the identity order."""
    n = sp.csr_matrix(m).shape[0]
    return nd_cholesky(m, np.zeros((n, 3)), base_case=n)


def test_cholesky_identity():
    f, fronts = exact_build(sp.eye(5).tocsr(), np.zeros((5, 3)), base_case=5)
    assert np.allclose(lower_factor(fronts, 5).toarray(), np.eye(5))
    assert f.rank == 5


def test_cholesky_diagonal_any_permutation():
    d = sp.diags([1.0, 4.0, 9.0, 16.0]).tocsr()
    line = np.column_stack([[1.0, 3.0, 0.0, 2.0], np.zeros(4), np.zeros(4)])
    f, fronts = exact_build(d, line, base_case=1)
    assert not np.array_equal(f.perm, np.arange(4))
    assert lower_factor(fronts, 4).nnz == 4
    assert f.rank == 4
    x = solve_with_factor(f, np.array([1.0, 4.0, 9.0, 16.0]))
    assert np.allclose(x, 1.0)


def test_cholesky_rank_deficient_2x2():
    m = sp.csr_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    f, fronts = exact_build(m, np.zeros((2, 3)), base_case=2)
    assert f.rank == 1
    lp = lower_factor(fronts, 2).toarray()
    assert np.allclose(lp[:, 0], [1.0, -1.0])
    assert lp[1, 1] == 0.0
    x = solve_with_factor(f, np.array([1.0, -1.0]))
    assert np.allclose(m @ x, [1.0, -1.0], atol=1e-12)
    with pytest.raises(NumericalError, match="image"):
        solve_with_factor(f, np.array([1.0, 0.0]))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_cholesky_rejects_a_non_finite_matrix(value):
    with pytest.raises(ValueError, match="^matrix has non-finite"):
        single_front([[2.0, value], [value, 2.0]])


def test_image_check_fails_on_a_nan_residual():
    with pytest.raises(NumericalError, match="image"):
        dissection._check_image(sp.eye(2).tocsr(), np.array([[np.nan], [0.0]]),
                                np.ones((2, 1)))


def test_cholesky_rejects_indefinite():
    m = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(NumericalError, match="positive semidefinite"):
        single_front(m)


def test_path_within_base_case_is_fill_free():
    n = 40
    m = path_laplacian(n) + sp.eye(n)
    coords = np.column_stack([np.arange(n), np.zeros(n), np.zeros(n)])
    _, fronts = exact_build(m, coords, base_case=64)
    assert lower_factor(fronts, n).nnz == 2 * n - 1


def test_path_fill_matches_symbolic_oracle():
    n = 300
    m = path_laplacian(n) + sp.eye(n)
    coords = np.column_stack([np.arange(n), np.zeros(n), np.zeros(n)])
    ordering = nd_ordering(m, coords, base_case=16)
    _, fronts = exact_build(m, coords, base_case=16)
    nnz = lower_factor(fronts, n).nnz
    assert nnz == symbolic_fill_count(m, ordering.perm)
    assert nnz <= 3 * n  # near fill-free: at most two extra per separator


def test_reconstruction_and_rank_small_mesh(rng):
    c = gen_grid(GridSpec((2, 2, 2)))
    lu = up_laplacian(c, 1)
    f, fronts = exact_build(lu, edge_midpoints(c), base_case=16)
    p = np.eye(c.num_edges)[:, f.perm]
    lp = lower_factor(fronts, c.num_edges).toarray()
    rec = p @ lp @ lp.T @ p.T
    m = lu.toarray()
    assert np.linalg.norm(rec - m) <= 1e-8 * np.linalg.norm(m)
    assert f.rank == oracle.rank(c.boundary(2).toarray())


def test_solve_exactness_on_image_vectors(rng):
    c = gen_grid(GridSpec((2, 2, 2)))
    lu = up_laplacian(c, 1)
    f = nd_cholesky(lu, edge_midpoints(c), base_case=16)
    for _ in range(20):
        b = lu @ rng.standard_normal(c.num_edges)
        x = f.solve(b)
        assert np.linalg.norm(lu @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_solve_multiple_rhs(rng):
    c = gen_grid(GridSpec((2, 1, 1)))
    m = one_laplacian(c)
    f = nd_cholesky(m, edge_midpoints(c), base_case=8)
    b = m @ rng.standard_normal((c.num_edges, 3))
    x = f.solve(b)
    assert np.linalg.norm(m @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_random_psd_cholesky_rank(rng):
    for trial in range(5):
        b = rng.standard_normal((10, 6))
        m = sp.csr_matrix(b @ b.T)
        f = single_front(m)
        assert f.rank == oracle.rank(m.toarray())
        v = m @ rng.standard_normal(10)
        assert np.allclose(m @ f.solve(v), v, atol=1e-9)


def test_root_pin_moves_rows_last():
    n = 30
    m = path_laplacian(n) + sp.eye(n)
    coords = np.column_stack([np.arange(n), np.zeros(n), np.zeros(n)])
    pin = np.array([0, 1, 2])
    ordering = nd_ordering(m, coords, base_case=4, root_pin=pin)
    assert set(ordering.perm[-3:]) == {0, 1, 2}


def test_fill_scaling_subquadratic():
    sizes = []
    fills = []
    for k in (5, 8, 13):
        c = gen_grid(GridSpec((k, k, k)))
        m = one_laplacian(c)
        _, fronts = exact_build(m, edge_midpoints(c))
        sizes.append(c.num_edges)
        fills.append(lower_factor(fronts, c.num_edges).nnz)
    slope = np.polyfit(np.log(sizes), np.log(fills), 1)[0]
    assert slope <= 1.5


# -- ordering against the slicing reference ---------------------------------

def reference_median_candidates(coord):
    """_median_candidates with two sorts: the values from np.unique, and
    each one's count of smaller entries by a search of the sorted array."""
    values = np.unique(coord)
    if len(values) == 1:
        return []
    below = np.searchsorted(np.sort(coord), values, side="left")
    order = np.argsort(np.abs(below - len(coord) / 2))
    return values[order[:3]]


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 60), lattice=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1))
def test_median_candidates_match_the_two_sort_reference(n, lattice, seed):
    # a small lattice gives ties, the values np.unique collapses
    rng = np.random.default_rng(seed)
    coord = (rng.integers(-lattice, lattice + 1, n).astype(float) if lattice
             else rng.standard_normal(n))
    got = dissection._median_candidates(coord)
    want = reference_median_candidates(coord)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def reference_vertex_separator(points, adjacency, base_case):
    """The vertex separator on sparse slices: a CSR slice per candidate
    plane finds the crossing edges."""
    n = len(points)
    idx = np.arange(n)
    if n <= base_case:
        return idx[:0], idx[:0], idx
    adjacency = sp.csr_matrix(adjacency)
    best = None
    for axis in range(points.shape[1]):
        coord = points[:, axis]
        for value in reference_median_candidates(coord):
            a_mask = coord < value
            s_mask = coord == value
            b_mask = coord > value
            if not a_mask.any() or not b_mask.any():
                continue
            cross = adjacency[a_mask][:, b_mask]
            if cross.nnz:
                bad = np.unique(cross.tocoo().row)
                a_idx = idx[a_mask]
                s_mask[a_idx[bad]] = True
                a_mask[a_idx[bad]] = False
            big = max(a_mask.sum(), b_mask.sum())
            if big > dissection.BALANCE_BOUND * n:
                continue
            score = (s_mask.sum(), big)
            if best is None or score < best[0]:
                best = (score, a_mask.copy(), b_mask.copy(), s_mask.copy())
    if best is None:
        half = n // 2
        order = np.lexsort(points.T)
        a_mask = np.zeros(n, dtype=bool)
        a_mask[order[:half]] = True
        b_mask = ~a_mask
        cross = adjacency[a_mask][:, b_mask]
        s_local = np.unique(cross.tocoo().col)
        s_mask = np.zeros(n, dtype=bool)
        s_mask[idx[b_mask][s_local]] = True
        b_mask &= ~s_mask
        if not a_mask.any() or not b_mask.any():
            return idx[:0], idx[:0], idx
        return idx[a_mask], idx[b_mask], idx[s_mask]
    _, a_mask, b_mask, s_mask = best
    return idx[a_mask], idx[b_mask], idx[s_mask]


def reference_nd_recurse(structure, coords, idx, base_case):
    if len(idx) <= base_case:
        return NdNode(cols=idx)
    sub = structure[idx][:, idx]
    a, b, s = reference_vertex_separator(coords[idx], sub, base_case)
    if len(a) == 0 or len(b) == 0:
        return NdNode(cols=idx)
    return NdNode(cols=idx[s], children=[
        reference_nd_recurse(structure, coords, idx[a], base_case),
        reference_nd_recurse(structure, coords, idx[b], base_case)])


def reference_nd_ordering(matrix, coords,
                          base_case=dissection.DEFAULT_BASE_CASE,
                          root_pin=None):
    """nd_ordering as a recursion over sparse slices of the matrix."""
    structure = sp.csr_matrix(matrix, copy=False).astype(bool)
    coords = np.asarray(coords, dtype=float)
    n = structure.shape[0]
    idx = np.arange(n)
    if root_pin is not None and len(root_pin):
        pin_mask = np.zeros(n, dtype=bool)
        pin_mask[np.asarray(root_pin)] = True
        inner = reference_nd_recurse(structure, coords, idx[~pin_mask],
                                     base_case)
        tree = NdNode(cols=idx[pin_mask], children=[inner])
    else:
        tree = reference_nd_recurse(structure, coords, idx, base_case)
    perm = np.empty(n, dtype=np.int64)
    dissection._assign_intervals(tree, perm, 0)
    return NdOrdering(perm=perm, tree=tree, n=n)


def intervals(node):
    return ([iv for ch in node.children for iv in intervals(ch)]
            + [(node.start, node.stop)])


def assert_same_ordering(matrix, coords, *args, **kwargs):
    got = nd_ordering(matrix, coords, *args, **kwargs)
    ref = reference_nd_ordering(matrix, coords, *args, **kwargs)
    assert np.array_equal(got.perm, ref.perm)
    assert intervals(got.tree) == intervals(ref.tree)
    return got


def test_box_build_orders_like_the_reference(monkeypatch):
    calls = []

    def spy(matrix, coords, *args, **kwargs):
        calls.append((matrix, coords, args, kwargs))
        return nd_ordering(matrix, coords, *args, **kwargs)
    monkeypatch.setattr(dissection, "nd_ordering", spy)
    c = gen_grid(GridSpec((10, 10, 10)))
    h = tetlap.find_hollowing(c, c.num_simplexes ** 0.6,
                              tetlap.HollowingConfig(
                                  min_shell_width=2,
                                  min_component_separation=2))
    tetlap.build_one_lap_solver(c, h)
    assert len(calls) > 1
    for matrix, coords, args, kwargs in calls:
        assert_same_ordering(matrix, coords, *args, **kwargs)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 120), degree=st.floats(0.5, 6.0),
       base_case=st.integers(1, 20), lattice=st.integers(0, 4),
       pins=st.integers(0, 3), symmetric=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_ordering_matches_reference_on_random_graphs(n, degree, base_case,
                                                     lattice, pins, symmetric,
                                                     seed):
    # lattice > 0 puts the points on a small integer grid: ties on the
    # median planes and coincident points; an unsymmetric pattern checks
    # which endpoint of a crossing edge joins the separator
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, n, size=(int(degree * n / 2) + 1, 2))
    adj = sp.csr_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                        shape=(n, n))
    coords = (rng.integers(0, lattice + 1, (n, 3)).astype(float) if lattice
              else rng.random((n, 3)))
    pin = rng.choice(n, size=min(pins, n), replace=False)
    assert_same_ordering(adj + adj.T if symmetric else adj, coords,
                         base_case=base_case, root_pin=pin)


def test_ordering_of_coincident_points_matches_reference():
    # every point at the origin: no plane splits them, so every split is
    # the index-median fallback with the adjacency frontier as separator
    c = gen_grid(GridSpec((3, 3, 3)))
    m = up_laplacian(c, 1)
    got = assert_same_ordering(m, np.zeros((c.num_edges, 3)), base_case=8)
    assert len(got.tree.children) == 2 and len(got.tree.cols)


def test_ordering_with_root_pin_matches_reference():
    c = gen_grid(GridSpec((3, 3, 3)))
    m = up_laplacian(c, 1)
    pin = np.arange(0, c.num_edges, 7)
    got = assert_same_ordering(m, edge_midpoints(c), base_case=16,
                               root_pin=pin)
    assert np.array_equal(np.sort(got.perm[-len(pin):]), pin)


# -- factor solve against the masked reference -----------------------------

def reference_solve(perm, fronts, b):
    """The factor solve as a masked loop over the fronts of `exact_build`:
    every front solves only on its kept pivots, through a copied
    kept-by-kept block, and leaves x = 0 at skipped pivots."""
    b = np.asarray(b, dtype=float)
    single = b.ndim == 1
    z = (b.reshape(-1, 1) if single else b)[perm].copy()
    masks = []
    for nd in fronts:
        kk = np.ones(nd.stop - nd.start, dtype=bool)
        kk[nd.skipped] = False
        masks.append(kk)
    for nd, kk in zip(fronts, masks):
        seg = z[nd.start:nd.stop]
        y = np.zeros_like(seg)
        if kk.any():
            y[kk] = sla.solve_triangular(nd.l11[np.ix_(kk, kk)], seg[kk],
                                         lower=True)
        z[nd.start:nd.stop] = y
        if len(nd.rows21):
            z[nd.rows21] -= nd.l21 @ y
    for nd, kk in zip(reversed(fronts), reversed(masks)):
        seg = z[nd.start:nd.stop]
        if len(nd.rows21):
            seg = seg - nd.l21.T @ z[nd.rows21]
        x = np.zeros_like(seg)
        if kk.any():
            x[kk] = sla.solve_triangular(nd.l11[np.ix_(kk, kk)].T, seg[kk],
                                         lower=False)
        z[nd.start:nd.stop] = x
    x = np.empty_like(z)
    x[perm] = z
    return x[:, 0] if single else x


# float64 roundoff of two triangular solves that order their sums differently
SOLVE_RTOL = 1e-12


def assert_matches_reference(factor, fronts, m, b):
    x = factor.solve(b)
    ref = reference_solve(factor.perm, fronts, b)
    assert x.shape == ref.shape
    assert np.linalg.norm(x - ref) <= SOLVE_RTOL * np.linalg.norm(ref)
    # the zero tail: x is exactly 0 at every skipped pivot
    assert not x[factor.perm][~factor.kept].any()
    assert np.linalg.norm(m @ x - b) <= 1e-9 * np.linalg.norm(b)


def rank_deficient_fixtures(rng):
    """(matrix, coords, base_case) of semidefinite matrices: two single
    fronts and two trees of several."""
    c = gen_grid(GridSpec((2, 2, 2)))
    g = rng.standard_normal((10, 6))
    n = 30
    line = np.column_stack([np.arange(n), np.zeros(n), np.zeros(n)])
    return [
        (np.array([[1.0, -1.0], [-1.0, 1.0]]), np.zeros((2, 3)), 2),
        (up_laplacian(c, 1), edge_midpoints(c), 16),
        (g @ g.T, np.zeros((10, 3)), 10),
        (graph_path_laplacian(n), line, 4),
    ]


def test_solve_matches_reference_on_rank_deficient_fixtures(rng):
    for m, coords, base_case in rank_deficient_fixtures(rng):
        factor, fronts = exact_build(m, coords, base_case=base_case)
        assert factor.rank < factor.shape[0]
        n = factor.shape[0]
        assert_matches_reference(factor, fronts, m,
                                 m @ rng.standard_normal(n))
        assert_matches_reference(factor, fronts, m,
                                 m @ rng.standard_normal((n, 3)))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 80), degree=st.floats(0.5, 4.0),
       base_case=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
def test_solve_matches_reference_on_random_graph_laplacians(n, degree,
                                                            base_case, seed):
    # sparse random graphs are often disconnected: one skipped pivot per
    # component, spread over several fronts
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, n, size=(int(degree * n / 2) + 1, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    w = rng.uniform(0.1, 10.0, len(pairs))
    adj = sp.csr_matrix((w, (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    adj = adj + adj.T
    m = (sp.diags(np.asarray(adj.sum(axis=1)).ravel()) - adj).tocsr()
    factor, fronts = exact_build(m, rng.random((n, 3)), base_case=base_case)
    assert factor.rank < n
    assert_matches_reference(factor, fronts, m, m @ rng.standard_normal(n))
    assert_matches_reference(factor, fronts, m,
                             m @ rng.standard_normal((n, 2)))


def test_factor_l_is_assembled_without_touching_the_nodes(rng):
    n = 30
    m = graph_path_laplacian(n)
    line = np.column_stack([np.arange(n), np.zeros(n), np.zeros(n)])
    f, fronts = exact_build(m, line, base_case=4)
    assert f.rank == n - 1
    before = [(nd.skipped.copy(), nd.l11.copy(), nd.rows21.copy(),
               nd.l21.copy()) for nd in fronts]
    first, second = lower_factor(fronts, n), lower_factor(fronts, n)
    assert (first != second).nnz == 0
    lp = first.toarray()
    rec = np.empty((n, n))
    rec[np.ix_(f.perm, f.perm)] = lp @ lp.T
    assert np.linalg.norm(rec - m.toarray()) <= 1e-12 * n
    assert not lp[:, ~f.kept].any()
    for nd, arrays in zip(fronts, before):
        for now, then in zip((nd.skipped, nd.l11, nd.rows21, nd.l21), arrays):
            assert np.array_equal(now, then)


def test_solve_through_an_empty_separator(rng):
    # two disconnected paths at one point: the fallback split finds no
    # crossing edge, so the root separator is empty
    half = path_laplacian(6)
    m = sp.block_diag([half, half]).tocsr()
    ordering = nd_ordering(m, np.zeros((12, 3)), base_case=4)
    assert len(ordering.tree.cols) == 0
    f, fronts = exact_build(m, np.zeros((12, 3)), base_case=4)
    assert_matches_reference(f, fronts, m.toarray(),
                             m @ rng.standard_normal(12))
    # the same without a common root: two blocks joined after each was
    # factored under its own pivot threshold, one scaled far below the
    # other, so one threshold for both would skip every pivot of the second
    n = 30
    line = np.column_stack([np.arange(n), np.zeros(n), np.zeros(n)])
    parts = [graph_path_laplacian(n), 1e-13 * graph_path_laplacian(n)]
    m = sp.block_diag(parts).tocsr()
    f, fronts = exact_build(m, np.vstack([line, line]),
                            blocks=[np.arange(n), np.arange(n, 2 * n)])
    for i, part in enumerate(parts):
        assert f.kept[i * n:(i + 1) * n].sum() == nd_cholesky(part, line).rank
        assert f.kept[i * n:(i + 1) * n].sum() == n - 1
        b = np.zeros(2 * n)
        b_i = b[i * n:(i + 1) * n]
        b_i[:] = part @ rng.standard_normal(n)
        got = f.solve(b)
        x_i = got[i * n:(i + 1) * n]
        assert not got[(1 - i) * n:(2 - i) * n].any()
        assert np.linalg.norm(part @ x_i - b_i) <= 1e-9 * np.linalg.norm(b_i)
        assert (np.linalg.norm(part @ (x_i - oracle.pinv(part) @ b_i))
                <= 1e-9 * np.linalg.norm(b_i))
    assert_matches_reference(f, fronts, m.toarray(),
                             m @ rng.standard_normal(2 * n))


@pytest.mark.parametrize("columns", [None, 3])
@pytest.mark.parametrize("defect", ["long", "short", "nan", "inf"])
def test_factor_solve_rejects_bad_rhs(defect, columns):
    n = 20
    f = nd_cholesky(path_laplacian(n) + sp.eye(n),
                    np.column_stack([np.arange(n), np.zeros(n), np.zeros(n)]),
                    base_case=4)
    rows = {"long": n + 3, "short": n - 1}.get(defect, n)
    b = np.ones(rows if columns is None else (rows, columns))
    if defect in ("nan", "inf"):
        b[n // 2] = np.nan if defect == "nan" else np.inf
    with pytest.raises(ValueError, match="^b has"):
        solve_with_factor(f, b, check_image=False)


def rhs_layouts(m, rng):
    """Right-hand sides in the image of m in every layout a caller may
    hand over: no columns, one, many, Fortran order, a column-strided
    view and a read-only vector."""
    n = m.shape[0]
    wide = m @ rng.standard_normal((n, 300))
    fixed = m @ rng.standard_normal(n)
    fixed.setflags(write=False)
    return {
        "empty": wide[:, :0],
        "one": wide[:, :1].copy(),
        "wide": wide,
        "fortran": np.asfortranarray(wide[:, :7]),
        "strided": wide[:, ::37],
        "read_only": fixed,
    }


@pytest.mark.parametrize("layout", ["empty", "one", "wide", "fortran",
                                    "strided", "read_only"])
def test_solve_matches_reference_in_every_rhs_layout(rng, layout):
    c = gen_grid(GridSpec((3, 3, 2)))
    m = up_laplacian(c, 1).toarray()
    factor, fronts = exact_build(up_laplacian(c, 1), edge_midpoints(c),
                                 base_case=16)
    assert factor.rank < factor.shape[0] and len(fronts) > 1
    b = rhs_layouts(m, rng)[layout]
    before = b.copy()
    assert_matches_reference(factor, fronts, m, b)
    assert np.array_equal(b, before)


@pytest.fixture
def potrf_infos(monkeypatch):
    """The LAPACK info of every potrf call _dense_rank_chol makes."""
    infos = []

    def spy(a, **kwargs):
        l, info = potrf(a, **kwargs)
        infos.append(info)
        return l, info
    potrf = dissection._POTRF
    monkeypatch.setattr(dissection, "_POTRF", spy)
    return infos


def test_dense_rank_chol_takes_potrf_on_a_definite_front(rng, potrf_infos):
    g = rng.standard_normal((9, 9))
    a = g @ g.T + 9 * np.eye(9)
    l, kept, order = dissection._dense_rank_chol(a, 1.0, DEFAULT_PIVOT_TOL)
    assert potrf_infos == [0]
    assert kept.all()
    assert np.array_equal(order, np.arange(9))
    assert np.array_equal(l, np.tril(l))
    assert np.linalg.norm(l @ l.T - a) <= 1e-13 * np.linalg.norm(a)


def test_dense_rank_chol_falls_back_on_a_singular_front(potrf_infos):
    a = graph_path_laplacian(6).toarray()   # singular: last pivot is 0
    l, kept, order = dissection._dense_rank_chol(a, 2.0, DEFAULT_PIVOT_TOL)
    assert potrf_infos[0] > 0
    assert kept.tolist() == [True] * 5 + [False]
    assert not l[:, 5].any()
    assert np.linalg.norm(l @ l.T - a[np.ix_(order, order)]) <= 1e-13


def test_dense_rank_chol_falls_back_below_the_pivot_threshold(potrf_infos):
    # definite, so potrf accepts it, but the second pivot squared is 1e-14,
    # at or below the threshold 1e-12 * scale
    a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
    l, kept, order = dissection._dense_rank_chol(a, 1.0, DEFAULT_PIVOT_TOL)
    assert potrf_infos == [0]
    assert kept.tolist() == [True, False]
    # pivoting takes the larger diagonal first: l = [[1, 0], [1, 0]] up
    # to the rounding of sqrt(1 + 1e-14)
    root = np.sqrt(a[1, 1])
    assert order.tolist() == [1, 0]
    assert np.array_equal(l, [[root, 0.0], [1.0 / root, 0.0]])


def test_dense_rank_chol_rejects_an_indefinite_front(potrf_infos):
    a = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(NumericalError, match="not positive semidefinite"):
        dissection._dense_rank_chol(a, 1.0, DEFAULT_PIVOT_TOL)
    assert potrf_infos[0] > 0


def test_dense_rank_chol_pivots_past_interleaved_zero_pivots(potrf_infos):
    # the whole 2^3 up-Laplacian as one front: in index order its zero
    # pivots are interleaved with kept ones
    c = gen_grid(GridSpec((2, 2, 2)))
    a = up_laplacian(c, 1).toarray()
    rank = oracle.rank(a)
    l, kept, order = dissection._dense_rank_chol(a, a.diagonal().max(),
                                                 DEFAULT_PIVOT_TOL)
    assert potrf_infos[0] > 0
    assert kept.tolist() == [True] * rank + [False] * (len(a) - rank)
    assert sorted(order) == list(range(len(a)))
    ap = a[np.ix_(order, order)]
    assert np.linalg.norm(l @ l.T - ap) <= 1e-13 * np.linalg.norm(a)
    assert np.array_equal(l, np.tril(l)) and not l[:, rank:].any()


def test_dense_rank_chol_skips_a_tiny_first_pivot():
    # dpstrf tests its first pivot against zero, not against the threshold
    l, kept, order = dissection._dense_rank_chol(np.array([[1e-16]]), 2.0,
                                                 DEFAULT_PIVOT_TOL)
    assert kept.tolist() == [False]
    assert not l.any()


def test_dense_rank_chol_rejects_a_negative_pivot_left_over(potrf_infos):
    # pivoting stops at rank 1 on the zero pivot; the -1 behind it is
    # never a pivot, but it still makes the front indefinite
    a = np.array([[4.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    with pytest.raises(NumericalError, match="not positive semidefinite"):
        dissection._dense_rank_chol(a, 4.0, DEFAULT_PIVOT_TOL)
    assert potrf_infos[0] > 0


def test_factor_remaps_positions_pivoted_inside_fronts():
    c = gen_grid(GridSpec((2, 2, 2)))
    m = up_laplacian(c, 1)
    ordering = nd_ordering(m, edge_midpoints(c), base_case=16)
    f, fronts = exact_build(m, edge_midpoints(c), base_case=16)
    assert len(f._nodes) > 1
    moved = 0
    for nd in f._nodes:
        here = f.perm[nd.start:nd.stop]
        there = ordering.perm[nd.start:nd.stop]
        assert np.array_equal(np.sort(here), np.sort(there))
        moved += not np.array_equal(here, there)
        bs = nd.stop - nd.start
        assert np.array_equal(nd.skipped,
                              np.arange(bs - len(nd.skipped), bs))
    assert moved
    lp = lower_factor(fronts, m.shape[0]).toarray()
    rec = np.empty(m.shape)
    rec[np.ix_(f.perm, f.perm)] = lp @ lp.T
    assert np.linalg.norm(rec - m.toarray()) <= 1e-12 * np.linalg.norm(
        m.toarray())
    # bit-for-bit determinism of the pivoted factor
    again, fronts2 = exact_build(m, edge_midpoints(c), base_case=16)
    assert f.perm.tobytes() == again.perm.tobytes()
    for nd, nd2 in zip(fronts, fronts2):
        assert nd.l11.tobytes() == nd2.l11.tobytes()
        assert nd.rows21.tobytes() == nd2.rows21.tobytes()


def test_solve_by_levels_makes_no_per_front_update(rng, monkeypatch):
    # unfolded, one triangular solve per front below the root and
    # direction, and one packed product per root front and column; folded,
    # neither.  In both forms the blocks go through at most one sparse
    # product per level and direction: no dense product, no per-front
    # gather or scatter
    c = gen_grid(GridSpec((4, 4, 4)))
    m = up_laplacian(c, 1)
    exact = nd_cholesky(m, edge_midpoints(c), base_case=16)
    folded = nd_cholesky(m, edge_midpoints(c), base_case=16, folded=True)
    assert exact.rank < exact.shape[0]
    assert len(exact._levels) == len(folded._levels) < len(exact._nodes)
    # the transpose shares each level's arrays; unfolded, every l21 is a
    # view into its level's data too, so no block is stored twice, and
    # folded, no front is left and no dense block kept
    for f in (exact, folded):
        for level in f._levels[1:]:
            assert level.a.nnz
            assert np.shares_memory(level.at.data, level.a.data)
            for nd in level.nodes:
                assert np.shares_memory(nd.l21, level.a.data)
    assert all(level.nodes for level in exact._levels)
    assert not folded._nodes and not any(lv.nodes for lv in folded._levels)
    roots = [nd for nd in exact._nodes if nd.depth == 0]
    assert roots and all(nd.rank for nd in roots)
    calls = {"gemm": 0, "trtrs": 0, "spmv": 0, "level": 0}

    def counting(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return spy
    for name, attr in (("gemm", "_GEMM"), ("trtrs", "_TRTRS"),
                       ("spmv", "_SPMV"), ("level", "_level_update")):
        monkeypatch.setattr(dissection, attr,
                            counting(name, getattr(dissection, attr)))
    for f, trtrs, spmv in (
            (exact, 2 * (len(exact._nodes) - len(roots)), len(roots)),
            (folded, 0, 0)):
        for shape, k in ((f.shape[0], 1), ((f.shape[0], 3), 3)):
            calls.update(gemm=0, trtrs=0, spmv=0, level=0)
            b = m @ rng.standard_normal(shape)
            assert (np.linalg.norm(m @ f.solve(b) - b)
                    <= 1e-9 * np.linalg.norm(b))
            assert calls["gemm"] == 0
            assert calls["trtrs"] == trtrs
            assert calls["spmv"] == spmv * k
            assert calls["level"] <= 2 * len(f._levels)


def test_root_pinv_of_a_definite_and_of_an_all_skipped_front(rng):
    # path + I is one definite front, whose pseudo-inverse is its inverse,
    # packed whole; the zero matrix is one front with every pivot skipped,
    # whose pseudo-inverse is zero and stores nothing
    n = 20
    line = np.column_stack([np.arange(n), np.zeros(n), np.zeros(n)])
    m = (path_laplacian(n) + sp.identity(n)).tocsr()
    f = nd_cholesky(m, line)
    root, = f._nodes
    assert root.depth == 0 and root.rank == n
    assert root.pinv.shape == (n * (n + 1) // 2,)
    inv = np.linalg.inv(m.toarray())
    k = f.root_solve(np.arange(n)).solve(np.eye(n))
    assert np.linalg.norm(k - inv) <= 1e-13 * np.linalg.norm(inv)
    b = rng.standard_normal(n)
    assert np.linalg.norm(f.solve(b) - inv @ b) <= 1e-13 * np.linalg.norm(b)
    assert f.solve(np.zeros((n, 0))).shape == (n, 0)
    zero = nd_cholesky(sp.csr_matrix((n, n)), line)
    root, = zero._nodes
    assert root.depth == 0 and root.rank == 0 and root.pinv.size == 0
    assert not zero.root_solve(np.arange(n)).solve(np.eye(n)).any()
    assert not zero.solve(np.zeros((n, 2))).any()
    assert not zero.solve(b, check_image=False).any()
    with pytest.raises(NumericalError):
        zero.solve(b)


# the folded solve multiplies by inverted triangular blocks instead of
# substituting: roundoff of a different order of sums, on well-scaled fixtures
FOLD_RTOL = 1e-13


def test_folded_factor_matches_its_substitution_twin(rng):
    # each twin comes from the same builder, folded=True the only change
    for m, coords, base_case in rank_deficient_fixtures(
            np.random.default_rng(3)):
        exact = nd_cholesky(m, coords, base_case=base_case)
        folded = nd_cholesky(m, coords, base_case=base_case, folded=True)
        assert folded.folded and not exact.folded
        assert (folded.rank, folded.perm.tobytes(), folded.kept.tobytes(),
                len(folded._levels)) == (
            exact.rank, exact.perm.tobytes(), exact.kept.tobytes(),
            len(exact._levels))
        n = exact.shape[0]
        for shape in (n, (n, 3)):
            b = m @ rng.standard_normal(shape)
            x, twin = folded.solve(b), exact.solve(b)
            assert np.array_equal(x, solve_with_factor(folded, b))
            assert x.shape == twin.shape
            assert np.linalg.norm(x - twin) <= FOLD_RTOL * np.linalg.norm(twin)
            # the zero tail: x is exactly 0 at every skipped pivot
            assert not x[folded.perm][~folded.kept].any()


def test_folded_factor_keeps_no_dense_block_and_has_no_l():
    c = gen_grid(GridSpec((4, 4, 4)))
    exact, fronts = exact_build(up_laplacian(c, 1), edge_midpoints(c),
                                base_case=16)
    folded = nd_cholesky(up_laplacian(c, 1), edge_midpoints(c), base_case=16,
                         folded=True)
    assert 0 < folded.nbytes < exact.nbytes
    # neither factor has an L: the folded one keeps no fronts, the
    # unfolded one keeps its fronts, from which the tests assemble L
    assert not folded._nodes and not hasattr(folded, "L")
    assert not hasattr(exact, "L") and len(exact._nodes) == len(fronts)
    assert (lower_factor(fronts, exact.shape[0]).nnz
            and all(nd.l11.size for nd in fronts))


# the factor kernels use scipy's BLAS and LAPACK only; numpy's dense
# products and np.linalg run on a second OpenBLAS with its own thread pool
SCIPY_BLAS_ONLY = {
    dissection: ("_symbolic", "_symbolic_front", "_dense_rank_chol",
                 "solve_with_factor", "_factor_fronts", "_split",
                 "nd_cholesky", "_ordered_fronts", "_fold_front",
                 "_schedule", "root_solve"),
    # the sphere reduced wall's dense Schur block
    uplap: ("__init__",),
}
NUMPY_BLAS = {"dot", "matmul", "inner", "vdot", "tensordot", "einsum", "linalg"}


def numpy_blas_uses(func):
    for node in ast.walk(func):
        if (isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.MatMult)):
            yield f"line {node.lineno}: @"
        elif isinstance(node, ast.Attribute) and node.attr == "dot":
            yield f"line {node.lineno}: .dot"
        elif (isinstance(node, ast.Attribute) and node.attr in NUMPY_BLAS
              and isinstance(node.value, ast.Name) and node.value.id == "np"):
            yield f"line {node.lineno}: np.{node.attr}"


def test_factor_kernels_call_no_numpy_blas():
    for module, names in SCIPY_BLAS_ONLY.items():
        with open(module.__file__) as fh:
            tree = ast.parse(fh.read())
        funcs = {node.name: node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)}
        for name in names:
            assert list(numpy_blas_uses(funcs[name])) == [], name


def test_nd_ordering_indexes_no_sparse_matrix(monkeypatch):
    c = gen_grid(GridSpec((4, 4, 4)))
    m = up_laplacian(c, 1)
    calls = []

    def spying(getitem):
        def spy(self, key):
            calls.append(key)
            return getitem(self, key)
        return spy
    for cls in (sp.csr_matrix, sp.csr_array):
        monkeypatch.setattr(cls, "__getitem__", spying(cls.__getitem__))
    ordering = nd_ordering(m, edge_midpoints(c))
    assert len(ordering.tree.children) == 2
    assert calls == []


# -- factor build against the per-front slicing reference -------------------

def reference_factor_fronts(matrix, ordering, pivot_tol, scale):
    """_factor_fronts as one recursion over the separator tree that slices
    each front's columns out of the sparse matrix (`tocoo`), grows its row
    set by `union1d` and scatters each child update through `np.ix_`.  A
    front's pivot threshold is relative to the `scale` of its first row;
    an empty root adds no depth."""
    n = matrix.shape[0]
    perm = ordering.perm
    mp = matrix[perm][:, perm].tocsc()
    scale = scale[perm]
    nodes = []
    new_pos = np.arange(n)

    def factor(node, depth):
        child_updates = [factor(ch, depth + 1) for ch in node.children]
        c0, c1 = node.start, node.stop
        bs = c1 - c0
        block_cols = mp[:, c0:c1].tocoo()
        above = np.unique(block_cols.row[block_cols.row >= c1])
        for rows, _ in child_updates:
            above = np.union1d(above, rows[rows >= c1])
        na = len(above)
        front = np.zeros((bs + na, bs + na))
        sel = block_cols.row >= c0
        r, cloc, v = (block_cols.row[sel], block_cols.col[sel],
                      block_cols.data[sel])
        in_block = r < c1
        front[r[in_block] - c0, cloc[in_block]] += v[in_block]
        if na:
            pos = np.searchsorted(above, r[~in_block])
            front[pos + bs, cloc[~in_block]] += v[~in_block]
        for rows, upd in child_updates:
            if len(rows) and rows.min() < c0:
                raise NumericalError("ordering lacks the separator property")
            loc = np.where(rows < c1, rows - c0,
                           bs + np.searchsorted(above, rows))
            front[np.ix_(loc, loc)] += upd
        l11, kept_local, order = dissection._dense_rank_chol(
            front[:bs, :bs], scale[c0] if bs else 1.0, pivot_tol)
        new_pos[c0 + order] = np.arange(c0, c1)
        skipped = np.flatnonzero(~kept_local)
        l11 = np.asfortranarray(l11)
        l11[skipped, skipped] = 1.0
        update = front[bs:, bs:]
        if na and kept_local.any():
            l21 = dissection._triangular_solve(l11, front[bs:, order].T,
                                               trans=0).T
            l21[:, skipped] = 0.0
            update = update - dissection._GEMM(1.0, l21.T, l21.T, trans_a=1)
        else:
            l21 = np.zeros((na, bs))
        if bs:
            nodes.append(dissection._NodeFactor(
                start=c0, stop=c1, skipped=skipped, l11=l11, rows21=above,
                l21=l21, depth=depth))
        return above, update

    factor(ordering.tree, 0 if len(ordering.tree.cols) else -1)
    nodes.sort(key=lambda nd: nd.start)
    perm_new = np.empty_like(perm)
    perm_new[new_pos] = perm
    kept = np.ones(n, dtype=bool)
    for nd in nodes:
        nd.rows21 = new_pos[nd.rows21]
        kept[nd.start + nd.skipped] = False
    return perm_new, kept, nodes


def one_scale(matrix):
    """The pivot threshold scale of a matrix factored as one block."""
    return np.full(matrix.shape[0],
                   dissection._pivot_scale(matrix.diagonal()))


def assert_builds_like_the_reference(matrix, ordering, pivot_tol, scale):
    """The factor's fronts, and its levels folded and unfolded, are
    byte-identical to the reference's; returns the factor's rank."""
    got = dissection._factor_fronts(matrix, ordering, pivot_tol, scale)
    want = reference_factor_fronts(matrix, ordering, pivot_tol, scale)
    assert same_bytes(got[0], want[0]) and same_bytes(got[1], want[1])
    assert [(nd.start, nd.stop, nd.depth) for nd in got[2]] == [
        (nd.start, nd.stop, nd.depth) for nd in want[2]]
    for nd, ref in zip(got[2], want[2]):
        for name in ("skipped", "l11", "rows21", "l21"):
            assert same_bytes(getattr(nd, name), getattr(ref, name)), name
    n = matrix.shape[0]
    for folded in (False, True):
        levels = dissection._schedule(got[2], n, folded)
        ref_levels = dissection._schedule(want[2], n, folded)
        assert len(levels) == len(ref_levels)
        for level, ref in zip(levels, ref_levels):
            for name in ("data", "indices", "indptr"):
                assert same_bytes(getattr(level.a, name),
                                  getattr(ref.a, name)), name
    return int(got[1].sum())


def factor_calls(monkeypatch, build):
    """The arguments (matrix, ordering, pivot_tol, scale) of every
    `_factor_fronts` call that `build()` makes."""
    calls = []
    real = dissection._factor_fronts

    def spy(*args):
        calls.append(args)
        return real(*args)
    with monkeypatch.context() as patch:
        patch.setattr(dissection, "_factor_fronts", spy)
        build()
    assert calls
    return calls


def test_shell_box_factors_build_like_the_reference(monkeypatch):
    # the wall (folded, the largest), the region interiors and L0
    c = gen_grid(GridSpec((6, 6, 6)))
    h = tetlap.find_hollowing(c, c.num_simplexes ** 0.6, RELAXED)
    calls = factor_calls(monkeypatch,
                         lambda: tetlap.build_one_lap_solver(c, h))
    assert max(m.shape[0] for m, *_ in calls) == len(h.boundary_edges)
    for args in calls:
        assert_builds_like_the_reference(*args)


def test_sphere_interior_factors_build_like_the_reference(monkeypatch):
    # the interiors' interface rows are pinned into their root fronts
    c = gen_grid(GridSpec((6, 6, 6)))
    h = tetlap.sphere_hollowing(c, c.num_simplexes ** 0.6, RELAXED)
    calls = factor_calls(monkeypatch,
                         lambda: tetlap.build_one_lap_solver(c, h))
    # a pinned root is the one front with a single child, below the empty
    # root over the regions' subtrees
    assert any(len(ch.children) == 1
               for _, o, *_ in calls for ch in o.tree.children)
    for args in calls:
        assert_builds_like_the_reference(*args)


def test_ring_factors_build_like_the_reference(monkeypatch):
    # four boxes glued in a ring, each box's far x face to the next box's
    # x = 0 face; every factor is ordered on the glued complex's atlas
    k = 4
    chunks = [gen_grid(GridSpec((k, 3, 3))) for _ in range(4)]
    groups = []
    for j, (a, b) in enumerate(zip(chunks, chunks[1:] + chunks[:1])):
        far = {tuple(a.vertices[v, 1:]): int(v)
               for v in np.flatnonzero(a.vertices[:, 0] == k)}
        groups += [[(j, far[tuple(b.vertices[v, 1:])]), ((j + 1) % 4, int(v))]
                   for v in np.flatnonzero(b.vertices[:, 0] == 0)]
    holls = [tetlap.find_hollowing(ch, ch.num_simplexes ** 0.6, RELAXED)
             for ch in chunks]
    u = tetlap.glue(chunks, groups, holls)
    calls = factor_calls(monkeypatch, lambda: tetlap.build_union_solver(u))
    for args in calls:
        assert_builds_like_the_reference(*args)


def test_semidefinite_factors_build_like_the_reference(rng):
    # skipped pivots: an up-Laplacian over several fronts, a random
    # rank-deficient Gram as one front, a singular path Laplacian
    c = gen_grid(GridSpec((3, 3, 3)))
    g = rng.standard_normal((12, 5))
    n = 40
    for m, coords, base_case in (
            (up_laplacian(c, 1), edge_midpoints(c), 16),
            (sp.csr_matrix(g @ g.T), np.zeros((12, 3)), 12),
            (graph_path_laplacian(n),
             np.column_stack([np.arange(n), np.zeros(n), np.zeros(n)]), 4)):
        m = dissection._finite_csr(m)
        ordering = nd_ordering(m, coords, base_case=base_case)
        rank = assert_builds_like_the_reference(m, ordering,
                                                DEFAULT_PIVOT_TOL,
                                                one_scale(m))
        assert rank == oracle.rank(m.toarray()) < m.shape[0]


def test_factor_build_slices_no_sparse_matrix_per_front(monkeypatch):
    # the build reads the permuted matrix's arrays: its sparse indexing and
    # COO conversions do not grow with the number of fronts
    calls, counts = [], {}

    def spying(name, method):
        def spy(self, *args, **kwargs):
            calls.append(name)
            return method(self, *args, **kwargs)
        return spy
    for k in (3, 6):
        c = gen_grid(GridSpec((k, k, k)))
        m = dissection._finite_csr(up_laplacian(c, 1))
        ordering = nd_ordering(m, edge_midpoints(c), base_case=8)
        calls.clear()
        with monkeypatch.context() as patch:
            for cls in (sp.csr_matrix, sp.csc_matrix, sp.csr_array,
                        sp.csc_array, sp.coo_matrix, sp.coo_array):
                for name in ("__getitem__", "tocoo"):
                    patch.setattr(cls, name,
                                  spying(name, getattr(cls, name)))
            _, _, fronts = dissection._factor_fronts(m, ordering,
                                                     DEFAULT_PIVOT_TOL,
                                                     one_scale(m))
        counts[len(fronts)] = len(calls)
    (few, small), (many, large) = sorted(counts.items())
    assert many > 4 * few
    assert large == small


# -- block factors -------------------------------------------------------------

def coupled_psd(rng, parts, n, rank=3):
    """G G^T where each group of columns of G is supported on one index set
    of `parts`, so rows of different sets couple only through shared rows
    in both; each group has `rank` columns, so the matrix is singular."""
    cols = []
    for rows in parts:
        g = np.zeros((n, rank))
        g[rows] = rng.standard_normal((len(rows), rank))
        cols.append(g)
    g = np.hstack(cols)
    return g @ g.T


def assert_solves_like_pinv(factor, m, rng):
    assert factor.rank == oracle.rank(m)
    b = m @ rng.standard_normal(len(m))
    x = factor.solve(b)
    x_oracle = oracle.pinv(m) @ b
    assert np.linalg.norm(m @ x - b) <= 1e-9 * np.linalg.norm(b)
    assert np.linalg.norm(m @ (x - x_oracle)) <= 1e-9 * np.linalg.norm(b)
    assert not factor.solve(np.zeros(len(m))).any()


def test_nd_cholesky_over_blocks_solves_their_rows(rng):
    # the factor keeps the matrix's row order, whatever order the blocks
    # list its rows in; the blocks' roots are the roots, at depth 0
    idx = rng.permutation(11)
    blocks = [idx[:6], idx[6:]]
    m = coupled_psd(rng, blocks, 11)
    for folded in (False, True):
        factor = nd_cholesky(m, rng.random((11, 3)), blocks=blocks,
                             folded=folded)
        assert factor.shape == (11, 11)
        assert_solves_like_pinv(factor, m, rng)
    exact = nd_cholesky(m, rng.random((11, 3)), blocks=blocks)
    assert sum(nd.depth == 0 for nd in exact._nodes) == 2


def test_block_factor_with_shared_set(rng):
    # two sets coupled through three shared rows: one block, its shared
    # rows pinned into its root front; uncoupled, the shared set is a block
    # of its own, and the three blocks' roots are the roots, at depth 0
    idx = rng.permutation(12)
    blocks, shared = [np.sort(idx[:5]), np.sort(idx[5:9])], np.sort(idx[9:])
    m = coupled_psd(rng, [np.union1d(b, shared) for b in blocks] + [shared],
                    12)
    coords = rng.random((12, 3))
    for folded in (False, True):
        factor = nd_cholesky(m, coords, root_pins=[shared], folded=folded)
        assert_solves_like_pinv(factor, m, rng)
        root = factor.perm[factor._levels[0].cols]
        assert np.isin(shared, root).all()
    exact = nd_cholesky(m, coords, root_pins=[shared])
    assert sum(nd.depth == 0 for nd in exact._nodes) == 1
    uncoupled = coupled_psd(rng, blocks, 12)
    apart = nd_cholesky(uncoupled, coords, blocks=blocks + [shared])
    assert_solves_like_pinv(apart, uncoupled, rng)
    assert sum(nd.depth == 0 for nd in apart._nodes) == 3


def test_each_block_keeps_its_pivot_threshold(rng):
    # two paths, the second weighted 1e-13: one threshold for the whole
    # matrix would skip every pivot of the second path; each block's own
    # keeps them
    n = 30
    edges = ([(i, i + 1, 1.0) for i in range(n - 1)]
             + [(n + i, n + i + 1, 1e-13) for i in range(n - 1)])
    lap = np.zeros((2 * n, 2 * n))
    for i, j, w in edges:
        lap[[i, j, i, j], [i, j, j, i]] += [w, w, -w, -w]
    line = np.column_stack([np.arange(n), np.zeros(n), np.zeros(n)])
    blocks = [np.arange(n), np.arange(n, 2 * n)]
    for folded in (False, True):
        f = nd_cholesky(lap, np.vstack([line, line]), blocks=blocks,
                        folded=folded)
        assert f.rank == 2 * n - 2
        y = np.zeros(2 * n)
        y[n:] = rng.standard_normal(n)
        b = lap @ y
        x = f.solve(b)
        assert (np.linalg.norm((lap @ x - b)[n:]) <= 1e-9
                * np.linalg.norm(b[n:]))


def test_block_factor_graph_block_with_shared_set(rng):
    # rows 0..4 are the edges of a graph with a cycle, rows 5..6 shared
    graph = GraphDownLap(4, [[0, 1], [1, 2], [2, 0], [2, 3], [0, 3]],
                         rng.uniform(0.5, 2.0, 4))
    g = np.zeros((7, 6))
    g[:5, :4] = graph.d.T.toarray() * np.sqrt(graph.w)
    g[5:, :] = rng.standard_normal((2, 6))
    m = g @ g.T
    assert np.allclose(m[:5, :5], graph.lap.toarray())
    assert graph.rank == oracle.rank(graph.lap) == 3
    assert_solves_like_pinv(BlockFactor(m[:5, :5], np.arange(5), graph, ()),
                            m[:5, :5], rng)
    factor = BlockFactor(m, np.arange(5), graph, shared=[5, 6])
    assert_solves_like_pinv(factor, m, rng)
    # the Gram from the half solve is b^T solve(b), for the coupling's
    # columns and for a b outside the image alike
    for b in (factor.coupling.T, sp.csr_matrix(rng.standard_normal((5, 3)))):
        want = b.T @ graph.solve(b.toarray(), check_image=False)
        gram = graph.gram(b)
        assert gram.shape == want.shape
        assert np.linalg.norm(gram - want) <= SOLVE_RTOL * np.linalg.norm(want)


def test_nd_cholesky_rejects_coupled_blocks(rng):
    m = coupled_psd(rng, [np.arange(6)], 6)
    with pytest.raises(NumericalError, match="coupled"):
        nd_cholesky(m, rng.random((6, 3)), blocks=[np.arange(3),
                                                   np.arange(3, 6)])
    # one block is fine
    nd_cholesky(m, rng.random((6, 3)), blocks=[np.arange(6)])
    # the blocks must partition the rows
    for blocks in ([np.arange(3), np.arange(4, 6)],
                   [np.arange(4), np.arange(3, 6)],
                   [np.arange(3), np.arange(3, 7)]):
        with pytest.raises(ValueError, match="partition"):
            nd_cholesky(m, rng.random((6, 3)), blocks=blocks)


def test_nd_cholesky_rejects_a_coupling_outside_the_shared_rows(rng):
    # sets {0, 1, 2} and {4, 5, 6} share row 3, and rows 2 and 4 couple
    # besides: with row 3 a block of its own, every block is coupled
    m = coupled_psd(rng, [np.arange(4), np.arange(3, 7), [2, 4]], 7)
    sets = [np.arange(3), [3], np.arange(4, 7)]
    with pytest.raises(NumericalError, match="coupled"):
        nd_cholesky(m, rng.random((7, 3)), blocks=sets)
    # without row 3's coupling, rows 2 and 4 alone still couple the sets
    apart = coupled_psd(rng, [np.arange(3), [3], np.arange(4, 7), [2, 4]],
                        7)
    with pytest.raises(NumericalError, match="coupled"):
        nd_cholesky(apart, rng.random((7, 3)), blocks=sets)
    # one block with rows 2, 3 and 4 pinned into its root solves the rows
    factor = nd_cholesky(m, rng.random((7, 3)), root_pins=[[2, 3, 4]])
    assert_solves_like_pinv(factor, m, rng)
    root, = [nd for nd in factor._nodes if nd.depth == 0]
    assert np.isin([2, 3, 4], factor.perm[root.start:root.stop]).all()


def test_exact_solves_check_the_image_and_preconditioners_do_not(rng):
    c = gen_grid(GridSpec((2, 2, 2)))
    m = up_laplacian(c, 1)
    exact = nd_cholesky(m, edge_midpoints(c), base_case=16)
    folded = nd_cholesky(m, edge_midpoints(c), base_case=16, folded=True)
    _, vecs = np.linalg.eigh(m.toarray())
    b = m @ rng.standard_normal(m.shape[0]) + vecs[:, 0]   # a part in ker m
    for solve in (exact.solve, lambda v: solve_with_factor(exact, v),
                  lambda v: solve_with_factor(folded, v)):
        with pytest.raises(NumericalError, match="not in the image"):
            solve(b)
    # a folded factor's solve and a block factor's, applied as
    # preconditioners, are not checked
    unchecked = solve_with_factor(folded, b, check_image=False)
    assert np.array_equal(folded.solve(b), unchecked)
    graph = GraphDownLap(4, [[0, 1], [1, 2], [2, 0], [2, 3], [0, 3]],
                         np.ones(4))
    cycle = np.array([1.0, 1.0, 1.0, 0.0, 0.0])   # in ker graph.lap
    b = graph.lap @ rng.standard_normal(5) + cycle
    with pytest.raises(NumericalError, match="image"):
        graph.solve(b)
    block = BlockFactor(graph.lap, np.arange(5), graph, shared=())
    assert np.array_equal(block.solve(b), graph.solve(b, check_image=False))


SEPARATOR_SCRIPT = """
import sys
import numpy as np
import scipy.sparse as sp
from tetlap.dissection import NdNode, NdOrdering, _factor_fronts
from tetlap.errors import NumericalError
m = sp.csr_matrix([[4.0, 1, 1], [1, 4, 1], [1, 1, 4]])
leaves = [NdNode(cols=np.array([0]), start=0, stop=1),
          NdNode(cols=np.array([1]), start=1, stop=2)]
root = NdNode(cols=np.array([2]), children=leaves, start=2, stop=3)
try:
    _factor_fronts(m, NdOrdering(perm=np.arange(3), tree=root, n=3), 1e-12,
                   np.ones(3))
except NumericalError as exc:
    print("optimize", sys.flags.optimize, "raised", exc)
"""


def test_separator_violation_raises_without_asserts():
    # the two leaves are coupled, so the ordering breaks the separator
    # property; the check must hold when python -O strips asserts
    src = os.path.dirname(os.path.dirname(tetlap.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", SEPARATOR_SCRIPT],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "optimize 1 raised" in out.stdout
    assert "separator property" in out.stdout


def test_vector_and_column_right_hand_sides_solve_alike(rng):
    # a 1-D b goes through the same products and substitutions as its
    # column b[:, None], and its answer stays 1-D
    c = gen_grid(GridSpec((4, 4, 4)))
    m = up_laplacian(c, 1)
    n = m.shape[0]
    pins = np.arange(0, n, 17)
    exact = nd_cholesky(m, edge_midpoints(c), base_case=16,
                        root_pins=[pins])
    folded = nd_cholesky(m, edge_midpoints(c), base_case=16, folded=True)
    b = m @ rng.standard_normal(n)
    for f in (exact, folded):
        x = f.solve(b)
        assert x.shape == (n,)
        assert x.tobytes() == f.solve(b[:, None])[:, 0].tobytes()
        assert x.tobytes() == solve_with_factor(f, b).tobytes()
    # the root solve of a b on the pinned rows reads the full solve's rows
    root = exact.root_solve(pins)
    v = rng.standard_normal(len(pins))
    full = np.zeros(n)
    full[pins] = v
    y = root.solve(v)
    assert y.shape == (len(pins),)
    assert y.tobytes() == exact.solve(full, check_image=False)[pins].tobytes()
    assert y.tobytes() == exact.solve(full[:, None],
                                      check_image=False)[pins, 0].tobytes()
