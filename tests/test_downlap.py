import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from tetlap import oracle
from tetlap.complexes import build_complex
from tetlap.complexes import down_laplacian
from tetlap.downlap import (
    GraphDownLap,
    bfs_parents,
    build_down_state,
    down_lap_solve,
    down_norm1,
    down_projection,
)
from tetlap.errors import NumericalError, one_norm
from tetlap.meshgen import GridSpec, HoleSpec, gen_grid
from tetlap.onelap import glue


def incidence(n_vertices, edges):
    """The (n_vertices, edges) incidence matrix, -1 at each edge's tail and
    +1 at its head."""
    edges = np.asarray(edges).reshape(-1, 2)
    m = len(edges)
    return sp.csc_matrix((np.repeat([-1.0, 1.0], m), (edges.T.ravel(),
                                                      np.tile(np.arange(m), 2))),
                         shape=(n_vertices, m))


def test_single_edge_incidence_solve():
    # d x = (-1, 1)^T has the solution x = (1) on the single edge
    g = GraphDownLap(2, [[0, 1]])
    x = g.path_t @ np.array([-1.0, 1.0])
    assert np.allclose(x, [1.0])


def test_triangle_graph_partial_solve():
    edges = [[0, 1], [0, 2], [1, 2]]
    g, d = GraphDownLap(3, edges), incidence(3, edges)
    b0 = d @ np.array([1.0, 0.0, 0.0])
    x = g.path_t @ b0
    assert np.allclose(d @ x, b0, atol=1e-12)
    assert np.count_nonzero(x) <= 2  # supported on the spanning tree


def test_all_ones_is_infeasible():
    # d x = 1 has no solution: the leaf-to-root solve leaves each
    # component's sum at its root, where the caller's residual sees it
    c = gen_grid(GridSpec((1, 1, 1)))
    g = GraphDownLap(c.num_vertices, c.edges)
    ones = np.ones(c.num_vertices)
    resid = c.boundary(1) @ (g.path_t @ ones) - ones
    want = np.zeros(c.num_vertices)
    want[bfs_parents(c.num_vertices, c.edges)[1]] = -c.num_vertices
    assert np.allclose(resid, want, atol=1e-12)


def test_kernel_vector_is_exact(rng):
    # W0^(1/2) u is the all-ones vector (up to ulp) and d1^T 1 = 0 exactly,
    # so u spans the kernel of d1^T W0^(1/2) for any positive weights
    c = gen_grid(GridSpec((2, 1, 1)))
    w0 = rng.uniform(0.5, 2.0, c.num_vertices)
    u = 1.0 / np.sqrt(w0)
    assert np.allclose(np.sqrt(w0) * u, 1.0, rtol=4e-16, atol=0)
    exact = c.boundary(1).T @ np.ones(c.num_vertices, dtype=np.int64)
    assert np.all(exact == 0)


def test_down_lap_solve_1x1():
    g = GraphDownLap(2, [[0, 1]])
    x = g.solve(np.array([2.0]))
    assert np.allclose(x, [1.0])


def test_down_lap_solve_matches_oracle(rng):
    c = gen_grid(GridSpec((2, 2, 1)))
    ld = c.lap_down(1).toarray()
    for _ in range(5):
        b = oracle.project_onto_image(ld, rng.standard_normal(c.num_edges))
        x = down_lap_solve(c, b)
        assert np.linalg.norm(ld @ x - b) <= 1e-10 * np.linalg.norm(b)
        x_oracle = oracle.pinv_solve(ld, b)
        assert np.linalg.norm(ld @ (x - x_oracle)) <= 1e-10 * np.linalg.norm(b)


def test_down_lap_solve_weighted(rng):
    spec = GridSpec((2, 2, 1))
    c = gen_grid(spec)
    c.weights[0] = rng.uniform(0.5, 2.0, c.num_vertices)
    ld = c.lap_down(1).toarray()
    b = oracle.project_onto_image(ld, rng.standard_normal(c.num_edges))
    x = down_lap_solve(c, b)
    assert np.linalg.norm(ld @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_down_lap_solve_disconnected_components(rng):
    # two disjoint edges: blockwise solve, each with its own kernel vector
    w = np.array([1.0, 2.0, 3.0, 4.0])
    g = GraphDownLap(4, [[0, 1], [2, 3]], w_vertices=w)
    d = incidence(4, [[0, 1], [2, 3]]).toarray()
    lap = d.T @ np.diag(w) @ d
    b = oracle.project_onto_image(lap, rng.standard_normal(2))
    x = g.solve(b)
    assert np.linalg.norm(lap @ x - b) <= 1e-10 * max(np.linalg.norm(b), 1e-30)


def test_down_lap_solve_rejects_off_image():
    c = gen_grid(GridSpec((1, 1, 1)))
    lu = c.lap_up(1).toarray()
    # a curl vector is orthogonal to Im(L1down) on this mesh
    col = c.boundary(2).toarray()[:, 0].astype(float)
    with pytest.raises(NumericalError):
        down_lap_solve(c, col)


def test_down_lap_solve_rejects_an_overflowing_right_hand_side():
    # finite entries near the float64 limit overflow in the solve, and
    # inf - inf makes the residual NaN, which compares false against any
    # bound: the check must not read that as inside it
    c = gen_grid(GridSpec((1, 1, 1)))
    b = np.full(c.num_edges, 1e308)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match="image"):
        down_lap_solve(c, b)


def test_one_norm_leaves_a_non_canonical_csr_alone():
    # row 0 stores its columns out of order, row 1 column 1 twice
    m = sp.csr_matrix((np.array([3.0, -1.0, 2.0, -4.0, 1.0]),
                       np.array([2, 0, 1, 1, 1]), np.array([0, 3, 5])),
                      shape=(2, 3))
    indices, data = m.indices.copy(), m.data.copy()
    assert one_norm(m) == 5.0
    assert np.array_equal(m.indices, indices)
    assert np.array_equal(m.data, data)


def test_down_lap_solve_on_vertex_weights_over_eight_decades():
    # the exact solve of an exact gradient leaves a residual of about
    # 1e-10 |b| from rounding alone, while an off-image part is still named
    c = gen_grid(GridSpec((6, 6, 6)))
    d1t = c.boundary(1).T.astype(float)
    for seed in range(3):
        c.weights[0] = np.exp(np.random.default_rng(seed).uniform(
            np.log(1e-4), np.log(1e4), c.num_vertices))
        ld = c.lap_down(1)
        grad = d1t @ np.random.default_rng(9).standard_normal(c.num_vertices)
        x = down_lap_solve(c, grad)
        assert np.linalg.norm(ld @ x - grad) <= 1e-8 * np.linalg.norm(grad)
        b = ld @ np.random.default_rng(7).standard_normal(c.num_edges)
        curl = c.lap_up(1) @ np.random.default_rng(8).standard_normal(
            c.num_edges)
        for share in (1.0, 1e-6, 1e-9):
            off = b + share * curl * np.linalg.norm(b) / np.linalg.norm(curl)
            with pytest.raises(NumericalError, match="image"):
                down_lap_solve(c, off)


def test_a_down_state_refuses_another_complex_or_changed_weights():
    # c2 is the same 2^3 box with w0 tripled: a state built on it answers
    # for c2's down-Laplacian, so a solve on c through it would miss c's
    c, c2 = gen_grid(GridSpec((2, 2, 2))), gen_grid(GridSpec((2, 2, 2)))
    c2.weights[0] = 3.0 * c2.weights[0]
    b = c.lap_down(1) @ np.random.default_rng(0).standard_normal(c.num_edges)
    other = build_down_state(c2)
    for call in (down_lap_solve, down_projection):
        with pytest.raises(ValueError,
                           match="^state was built for another complex"):
            call(c, b, state=other)
    # the same complex object, with w0 changed in place since the build
    own = build_down_state(c)
    c.weights[0][3] = 2.0
    for call in (down_lap_solve, down_projection):
        with pytest.raises(ValueError, match="^weights w0 changed since"):
            call(c, b, state=own)
    # a state built on the new weights answers for them
    x = down_lap_solve(c, b, state=build_down_state(c))
    assert np.linalg.norm(c.lap_down(1) @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_down_lap_exactness_many_vectors(rng):
    c = gen_grid(GridSpec((2, 2, 2)))
    ld = c.lap_down(1)
    for _ in range(100):
        x_true = rng.standard_normal(c.num_edges)
        b = ld @ x_true
        x = down_lap_solve(c, b)
        assert np.linalg.norm(ld @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_down_projection_fixes_gradients(rng):
    c = gen_grid(GridSpec((2, 2, 1)))
    b = c.boundary(1).T @ rng.standard_normal(c.num_vertices)
    p = down_projection(c, b)
    assert np.linalg.norm(p - b) <= 1e-8 * np.linalg.norm(b)


def test_down_projection_kills_curls():
    c = gen_grid(GridSpec((2, 2, 1)))
    b = c.boundary(2).toarray()[:, 3].astype(float)
    p = down_projection(c, b)
    assert np.linalg.norm(p) <= 1e-8 * np.linalg.norm(b)


def two_boxes():
    """Two disjoint 2^3 boxes in one complex: L0 has two kernel vectors."""
    box = gen_grid(GridSpec((2, 2, 2)))
    return build_complex(
        np.vstack([box.tets, box.tets + box.num_vertices]),
        np.vstack([box.vertices, box.vertices + [10.0, 0.0, 0.0]]))


def test_down_projection_matches_oracle(rng):
    for c in (gen_grid(GridSpec((2, 2, 1))), two_boxes()):
        d1 = c.boundary(1).toarray().astype(float)
        proj = d1.T @ oracle.pinv(d1 @ d1.T) @ d1
        # the factor skips one pivot per connected component
        state = build_down_state(c)
        b0 = connected_components(state.lap0_factor.matrix)[0]
        assert state.lap0_factor.rank == state.graph.rank \
            == c.num_vertices - b0
        for eps in (1e-6, 1e-10, 1e-12):
            b = rng.standard_normal(c.num_edges)
            p = down_projection(c, b, state=state)
            target = proj @ b
            assert np.linalg.norm(p - target) <= eps * np.linalg.norm(target)


def test_down_projection_idempotent(rng):
    c = gen_grid(GridSpec((2, 1, 1)))
    b = rng.standard_normal(c.num_edges)
    p1 = down_projection(c, b)
    p2 = down_projection(c, p1)
    assert np.linalg.norm(p2 - p1) <= 1e-8 * np.linalg.norm(p1)


def test_down_projection_on_cavity_mesh(rng):
    spec = GridSpec((4, 4, 4), holes=[HoleSpec((1, 1, 1), (1, 1, 1))])
    c = gen_grid(spec)
    d1 = c.boundary(1).toarray().astype(float)
    proj = d1.T @ oracle.pinv(d1 @ d1.T) @ d1
    b = rng.standard_normal(c.num_edges)
    p = down_projection(c, b)
    target = proj @ b
    assert np.linalg.norm(p - target) <= 1e-6 * np.linalg.norm(target)


def test_down_projection_of_an_almost_harmonic_input():
    # d1 b is then mostly roundoff, some of it constant on the component,
    # in ker L0, where CG cannot converge; it must not reach the solve
    spec = GridSpec((6, 6, 6), holes=[HoleSpec((2, 2, 0), (1, 1, 6), "tunnel")])
    c = gen_grid(spec)
    harm = oracle.kernel_basis(c.lap1().toarray())[:, 0]
    grad = c.boundary(1).T.astype(float) @ \
        np.random.default_rng(0).standard_normal(c.num_vertices)
    grad *= 1e-12 / np.linalg.norm(grad)
    b = harm + grad
    p = down_projection(c, b)
    assert np.linalg.norm(p - grad) <= 1e-14 * np.linalg.norm(b)


# -- spanning forest against the breadth-first reference -----------------------

def reference_spanning_forest(n_vertices, edges):
    """bfs_parents as a Python breadth-first search: levels in ascending
    order, each vertex's neighbours in ascending order, and a vertex takes
    the first visitor as its parent; head_sign is +1 where a vertex is the
    head of its parent edge.  Needs a simple graph: parallel edges would
    sum their ids."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    m = len(edges)
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    adj = sp.csr_matrix((np.tile(np.arange(m), 2), (rows, cols)),
                        shape=(n_vertices, n_vertices))
    graph = sp.csr_matrix((np.ones(2 * m), (rows, cols)),
                          shape=(n_vertices, n_vertices))
    ncomp, comp = connected_components(graph, directed=False)
    roots = np.array([np.flatnonzero(comp == k)[0] for k in range(ncomp)],
                     dtype=np.int64)
    parent_edge = np.full(n_vertices, -1, dtype=np.int64)
    parent_vertex = np.full(n_vertices, -1, dtype=np.int64)
    head_sign = np.zeros(n_vertices, dtype=np.int64)
    visited = np.zeros(n_vertices, dtype=bool)
    visited[roots] = True
    levels = [roots]
    frontier = roots
    while len(frontier):
        nxt = []
        for v in frontier:
            lo, hi = adj.indptr[v], adj.indptr[v + 1]
            for u, e in zip(adj.indices[lo:hi], adj.data[lo:hi]):
                if not visited[u]:
                    visited[u] = True
                    parent_edge[u] = e
                    parent_vertex[u] = v
                    head_sign[u] = 1 if edges[e, 1] == u else -1
                    nxt.append(u)
        frontier = np.array(sorted(nxt), dtype=np.int64)
        if len(frontier):
            levels.append(frontier)
    return dict(component=comp, roots=roots, parent_edge=parent_edge,
                parent_vertex=parent_vertex, head_sign=head_sign,
                levels=levels)


def forest(n_vertices, edges):
    """bfs_parents' forest by name, with each vertex's sign as the path
    matrix of GraphDownLap stores it at its parent edge (0 at the roots)."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    comp, roots, _, parent_vertex, parent_edge, levels = bfs_parents(
        n_vertices, edges)
    path = GraphDownLap(n_vertices, edges).path
    kids = np.flatnonzero(parent_edge >= 0)
    head_sign = np.zeros(n_vertices, dtype=np.int64)
    head_sign[kids] = np.asarray(path[kids, parent_edge[kids]]).ravel()
    return dict(component=comp, roots=roots, parent_edge=parent_edge,
                parent_vertex=parent_vertex, head_sign=head_sign,
                levels=levels, n_vertices=n_vertices, edges=edges)


def assert_forest_like_reference(n_vertices, edges):
    got = forest(n_vertices, edges)
    for name, want in reference_spanning_forest(n_vertices, edges).items():
        have = got[name]
        if name == "levels":
            assert len(have) == len(want)
            pairs = zip(have, want)
        else:
            pairs = [(have, want)]
        for a, b in pairs:
            assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.parametrize("dims", [(1, 1, 1), (3, 2, 1), (5, 5, 5)])
def test_forest_on_grids_matches_reference(dims):
    c = gen_grid(GridSpec(dims))
    assert_forest_like_reference(c.num_vertices, c.edges)


def random_graph(n, density, seed):
    """A simple graph on n vertices with about density * n edges: sparse
    draws leave several components and isolated vertices; edges come
    shuffled, with tails and heads flipped at random."""
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, max(n, 1), size=(int(density * n), 2))
    pairs = np.unique(np.sort(pairs[pairs[:, 0] != pairs[:, 1]], axis=1),
                      axis=0).reshape(-1, 2)
    pairs = pairs[rng.permutation(len(pairs))]
    flip = rng.random(len(pairs)) < 0.5
    pairs[flip] = pairs[flip][:, ::-1]
    return pairs


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 40), density=st.floats(0.0, 3.0),
       seed=st.integers(0, 2**32 - 1))
@example(n=0, density=0.0, seed=0)
@example(n=6, density=0.0, seed=0)
def test_forest_on_random_graphs_matches_reference(n, density, seed):
    assert_forest_like_reference(n, random_graph(n, density, seed))


def test_forest_takes_the_first_listed_of_parallel_edges():
    f = forest(3, [[0, 1], [1, 2], [1, 0], [0, 1]])
    assert f["parent_edge"].tolist() == [-1, 0, 1]
    assert f["head_sign"].tolist() == [0, 1, 1]


# -- path products against the level-by-level reference -----------------------

def reference_solve_transpose(f, b_edges):
    """y = P b, the forest solve of d^T y = b, as a walk from the roots
    down, one BFS level at a time: y[v] = y[parent] + head_sign[v] b[parent
    edge]."""
    b_edges = np.asarray(b_edges, dtype=float)
    y = np.zeros((f["n_vertices"],) + b_edges.shape[1:])
    sgn_shape = (-1,) + (1,) * (b_edges.ndim - 1)
    for level in f["levels"][1:]:
        sgn = f["head_sign"][level].reshape(sgn_shape)
        y[level] = y[f["parent_vertex"][level]] \
            + sgn * b_edges[f["parent_edge"][level]]
    return y


def reference_solve_head(f, b_vertices):
    """x = P^T b, the forest solve of d x = b, as a walk from the leaves
    up, one BFS level at a time: each vertex's parent edge takes its
    subtree's signed sum of b."""
    b = np.asarray(b_vertices, dtype=float).copy()
    x = np.zeros((len(f["edges"]),) + b.shape[1:])
    sgn_shape = (-1,) + (1,) * (b.ndim - 1)
    for level in f["levels"][:0:-1]:
        sgn = f["head_sign"][level].reshape(sgn_shape)
        vals = sgn * b[level]
        x[f["parent_edge"][level]] = vals
        np.add.at(b, f["parent_vertex"][level], sgn * vals)
    return x


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 40), density=st.floats(0.0, 3.0),
       seed=st.integers(0, 2**32 - 1), cols=st.sampled_from([None, 1, 3]))
@example(n=0, density=0.0, seed=0, cols=None)
@example(n=0, density=0.0, seed=0, cols=3)
@example(n=6, density=0.0, seed=0, cols=None)
def test_path_products_match_the_level_walks(n, density, seed, cols):
    pairs = random_graph(n, density, seed)
    g = GraphDownLap(n, pairs)
    # the walks read bfs_parents' forest and the path matrix's signs at the
    # parent edges, which the forest tests above check against the
    # reference search
    f = forest(n, pairs)
    # one stored entry per vertex and ancestor edge: the sum of the depths
    assert g.path.nnz == sum(
        depth * len(level) for depth, level in enumerate(f["levels"]))
    rng = np.random.default_rng(seed)
    tail = () if cols is None else (cols,)
    b_edges = rng.standard_normal((len(pairs),) + tail)
    b_vertices = rng.standard_normal((n,) + tail)
    for got, want in [
            (g.path @ b_edges, reference_solve_transpose(f, b_edges)),
            (g.path_t @ b_vertices, reference_solve_head(f, b_vertices))]:
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_graph_down_lap_counts_every_stored_array_once():
    # nbytes against every array the solver holds, a buffer shared by two
    # of them (the path matrix and its transpose, the kernel and its
    # transpose) once
    g = GraphDownLap(6, [[0, 1], [1, 2], [2, 0], [3, 4]],
                     w_vertices=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    buffers = {}
    for value in vars(g).values():
        parts = [value.data, value.indices, value.indptr] \
            if sp.issparse(value) else [value]
        for a in parts:
            if isinstance(a, np.ndarray):
                buffers[a.__array_interface__["data"][0], a.nbytes] = a
    assert g.nbytes == sum(a.nbytes for a in buffers.values())
    # the path matrix, its transpose, the kernel, its transpose, its
    # norms, W^(1/2) and the rank: no incidence matrix or Laplacian
    assert sorted(vars(g)) == ["kernel", "kernel_t", "path", "path_t",
                               "rank", "sqrt_w", "u_norm2"]
