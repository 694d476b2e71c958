import numpy as np
import pytest

from tetlap import oracle
from tetlap.downlap import (
    GraphDownLap,
    SpanningForest,
    down_lap_solve,
    down_projection,
    solve_partial1,
    solve_partial1_transpose,
)
from tetlap.errors import NumericalError
from tetlap.meshgen import GridSpec, HoleSpec, gen_grid


def test_single_edge_incidence_solve():
    # d x = (-1, 1)^T has the solution x = (1) on the single edge
    forest = SpanningForest.from_graph(2, [[0, 1]])
    x = forest.solve_head(np.array([-1.0, 1.0]))
    assert np.allclose(x, [1.0])


def test_triangle_graph_partial_solve():
    g = GraphDownLap(3, [[0, 1], [0, 2], [1, 2]])
    b0 = g.d @ np.array([1.0, 0.0, 0.0])
    x = g.forest.solve_head(b0)
    assert np.allclose(g.d @ x, b0, atol=1e-12)
    assert np.count_nonzero(x) <= 2  # supported on the spanning tree


def test_all_ones_is_infeasible():
    c = gen_grid(GridSpec((1, 1, 1)))
    with pytest.raises(NumericalError, match="image"):
        solve_partial1(c, np.ones(c.num_vertices))


def test_partial1_on_mesh(rng):
    c = gen_grid(GridSpec((2, 2, 1)))
    b0 = c.boundary(1) @ rng.standard_normal(c.num_edges)
    x = solve_partial1(c, b0)
    assert np.allclose(c.boundary(1) @ x, b0, atol=1e-10)


def test_partial1_transpose_on_mesh(rng):
    c = gen_grid(GridSpec((2, 2, 1)))
    b1 = c.boundary(1).T @ rng.standard_normal(c.num_vertices)
    y = solve_partial1_transpose(c, b1)
    assert np.allclose(c.boundary(1).T @ y, b1, atol=1e-10)


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
    g = GraphDownLap(4, [[0, 1], [2, 3]], w_vertices=[1.0, 2.0, 3.0, 4.0])
    lap = g.lap.toarray()
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
    p = down_projection(c, b, eps=1e-8)
    assert np.linalg.norm(p - b) <= 1e-8 * np.linalg.norm(b)


def test_down_projection_kills_curls():
    c = gen_grid(GridSpec((2, 2, 1)))
    b = c.boundary(2).toarray()[:, 3].astype(float)
    p = down_projection(c, b, eps=1e-8)
    assert np.linalg.norm(p) <= 1e-8 * np.linalg.norm(b)


def test_down_projection_matches_oracle(rng):
    c = gen_grid(GridSpec((2, 2, 1)))
    d1 = c.boundary(1).toarray().astype(float)
    proj = d1.T @ oracle.pinv(d1 @ d1.T) @ d1
    for eps in (1e-6, 1e-10):
        b = rng.standard_normal(c.num_edges)
        p = down_projection(c, b, eps=eps)
        target = proj @ b
        assert np.linalg.norm(p - target) <= eps * np.linalg.norm(target)


def test_down_projection_idempotent(rng):
    c = gen_grid(GridSpec((2, 1, 1)))
    b = rng.standard_normal(c.num_edges)
    p1 = down_projection(c, b, eps=1e-10)
    p2 = down_projection(c, p1, eps=1e-10)
    assert np.linalg.norm(p2 - p1) <= 1e-8 * np.linalg.norm(p1)


def test_down_projection_on_cavity_mesh(rng):
    spec = GridSpec((4, 4, 4), holes=[HoleSpec((1, 1, 1), (1, 1, 1))])
    c = gen_grid(spec)
    d1 = c.boundary(1).toarray().astype(float)
    proj = d1.T @ oracle.pinv(d1 @ d1.T) @ d1
    b = rng.standard_normal(c.num_edges)
    p = down_projection(c, b, eps=1e-6)
    target = proj @ b
    assert np.linalg.norm(p - target) <= 1e-6 * np.linalg.norm(target)
