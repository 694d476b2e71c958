import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from tetlap.complexes import (
    _faces,
    _find_rows,
    aspect_ratio,
    boundary_operator,
    build_complex,
    complex_from_dict,
    complex_to_dict,
    down_laplacian,
    min_enclosing_ball,
    one_laplacian,
    up_laplacian,
    validate,
)
from tetlap.hollowing import surface_hollowing
from tetlap.meshgen import GridSpec, HoleSpec, gen_grid, mesh_from_cells
from tetlap.onelap import glue

TET_COORDS = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])


def single_tet():
    return build_complex([[0, 1, 2, 3]], TET_COORDS)


def two_tets():
    coords = np.vstack([TET_COORDS, [[1.0, 1, 1]]])
    return build_complex([[0, 1, 2, 3], [0, 1, 2, 4]], coords)


def test_single_tet_counts():
    c = single_tet()
    assert c.simplex_counts() == (4, 6, 4, 1)


def test_two_tets_share_triangle():
    c = two_tets()
    # 4 + 4 - 1 triangles, 6 + 6 - 3 edges
    assert c.num_triangles == 7
    assert c.num_edges == 9


def test_degenerate_tet_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        build_complex([[0, 1, 1, 2]], TET_COORDS)


def test_duplicate_tet_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        build_complex([[0, 1, 2, 3], [3, 2, 1, 0]], TET_COORDS)


def test_bad_vertex_index_rejected():
    with pytest.raises(ValueError):
        build_complex([[0, 1, 2, 7]], TET_COORDS)


def test_boundary_2_single_tet_matches_face_signs():
    # column of triangle [v1,v2,v3] is +[v2,v3] - [v1,v3] + [v1,v2]
    c = single_tet()
    d2 = boundary_operator(c, 2).toarray()
    assert d2.shape == (6, 4)
    for col, tri in enumerate(c.triangles):
        v1, v2, v3 = tri
        expected = np.zeros(6)
        expected[c.edge_ids([[v2, v3]])[0]] = 1
        expected[c.edge_ids([[v1, v3]])[0]] = -1
        expected[c.edge_ids([[v1, v2]])[0]] = 1
        assert np.array_equal(d2[:, col], expected)
        assert np.count_nonzero(d2[:, col]) == 3


def test_boundary_1_single_edge():
    c = build_complex([[0, 1, 2, 3]], TET_COORDS)
    d1 = boundary_operator(c, 1).toarray()
    for col, (a, b) in enumerate(c.edges):
        assert d1[a, col] == -1
        assert d1[b, col] == 1
        assert np.count_nonzero(d1[:, col]) == 2


def test_chain_identity_is_exactly_zero():
    for c in (single_tet(), two_tets()):
        d1 = boundary_operator(c, 1)
        d2 = boundary_operator(c, 2)
        d3 = boundary_operator(c, 3)
        assert (d1 @ d2).count_nonzero() == 0
        assert (d2 @ d3).count_nonzero() == 0


def test_down_laplacian_single_edge_value():
    # one tet, unit weights: every diagonal entry of L1down is 2
    c = single_tet()
    ld = down_laplacian(c, 1).toarray()
    assert np.allclose(np.diag(ld), 2.0)


def test_up_laplacian_single_tet_against_dense_oracle():
    c = single_tet()
    d2 = boundary_operator(c, 2).toarray().astype(float)
    oracle = d2 @ d2.T
    lu = up_laplacian(c, 1).toarray()
    assert lu.shape == (6, 6)
    assert np.allclose(lu, oracle)
    assert np.allclose(np.diag(lu), 2.0)  # each edge lies in exactly 2 faces


def test_reorienting_triangle_preserves_up_laplacian():
    c = single_tet()
    d2 = boundary_operator(c, 2).toarray().astype(float)
    flipped = d2.copy()
    flipped[:, 2] *= -1
    assert np.allclose(flipped @ flipped.T, up_laplacian(c, 1).toarray())


def test_one_laplacian_is_sum():
    c = two_tets()
    total = one_laplacian(c).toarray()
    assert np.allclose(total, down_laplacian(c, 1).toarray()
                       + up_laplacian(c, 1).toarray())


def test_laplacians_are_symmetric_psd(rng):
    c = two_tets()
    for mat in (up_laplacian(c, 1), down_laplacian(c, 1), one_laplacian(c)):
        m = mat.toarray()
        assert np.allclose(m, m.T)
        for _ in range(200):
            x = rng.standard_normal(m.shape[0])
            assert x @ m @ x >= -1e-12 * (x @ x)


def test_validate_clean_complex():
    assert validate(two_tets()) == []


def test_validate_detects_corrupted_sign():
    c = two_tets()
    # swapping two sides of triangle 0 flips their signs in d2
    c.tri_edges[0, [0, 1]] = c.tri_edges[0, [1, 0]]
    assert any("d1 d2" in v for v in validate(c))


def test_validate_detects_nonpositive_weight():
    c = two_tets()
    c.weights[2] = c.weights[2].copy()
    c.weights[2][0] = 0.0
    assert any("nonpositive weight" in v for v in validate(c))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_weight_rejected_and_reported(bad):
    c = two_tets()
    w1 = np.ones(c.num_edges)
    w1[3] = bad
    with pytest.raises(ValueError, match="w1 contains a non-finite weight"):
        build_complex(c.tets, c.vertices, {"w1": w1})
    c.weights[1] = w1
    assert validate(c) == ["non-finite weight in w1"]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_coordinate_rejected_naming_its_row(bad):
    coords = np.vstack([TET_COORDS, [[1.0, 1, 1]]])
    coords[3, 1] = bad
    with pytest.raises(ValueError, match="coords row 3 has a non-finite"):
        build_complex([[0, 1, 2, 3], [0, 1, 2, 4]], coords)


def test_exterior_flags():
    c = two_tets()
    # shared triangle (0,1,2) is the only interior one
    shared = c.triangle_ids([[0, 1, 2]])[0]
    expected = np.ones(7, dtype=bool)
    expected[shared] = False
    assert np.array_equal(c.exterior_triangles, expected)
    assert c.exterior_vertices.all()


# -- minimum enclosing ball and aspect ratio -------------------------------

def ball_search_oracle(points, iters=20000):
    """Badoiu-Clarkson iteration: provably converges to the min ball."""
    pts = np.asarray(points, dtype=float)
    center = pts.mean(axis=0)
    for i in range(1, iters + 1):
        far = pts[np.argmax(np.linalg.norm(pts - center, axis=1))]
        center += (far - center) / (i + 1)
    return np.linalg.norm(pts - center, axis=1).max()


def test_min_ball_regular_tet():
    edge = 1.0
    pts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
                   dtype=float) * (edge / (2 * np.sqrt(2)))
    _, r = min_enclosing_ball(pts)
    assert r == pytest.approx(np.sqrt(3.0 / 8.0) * edge, rel=1e-12)
    assert r == pytest.approx(ball_search_oracle(pts), rel=1e-3)


def test_min_ball_obtuse_triangle_uses_diameter():
    pts = np.array([[0.0, 0, 0], [2, 0, 0], [1, 0.1, 0]])
    center, r = min_enclosing_ball(pts)
    assert r == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(center, [1, 0, 0])


def test_min_ball_rejects_non_finite_points():
    pts = np.array([[0.0, 0, 0], [1, 0, 0], [0, np.nan, 0]])
    with pytest.raises(ValueError, match="points row 2 has a non-finite entry"):
        min_enclosing_ball(pts)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_min_ball_names_the_non_finite_row_before_any_arithmetic(bad):
    # a NaN that reached the case analysis would warn in np.linalg.det
    for n in (1, 2, 3, 4):
        pts = TET_COORDS[:n].copy()
        pts[n - 1, 2] = bad
        with pytest.raises(ValueError,
                           match=f"points row {n - 1} has a non-finite"):
            min_enclosing_ball(pts)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(*[st.floats(-5, 5) for _ in range(3)]),
                min_size=2, max_size=4))
def test_min_ball_contains_points_and_matches_search(pts):
    pts = np.asarray(pts)
    center, r = min_enclosing_ball(pts)
    assert np.all(np.linalg.norm(pts - center, axis=1) <= r + 1e-9)
    assert r <= ball_search_oracle(pts, iters=4000) + 1e-3


def test_aspect_ratio_regular_tet():
    pts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
                   dtype=float)
    c = build_complex([[0, 1, 2, 3]], pts)
    assert aspect_ratio(c, 0) == pytest.approx(3.0, rel=1e-10)


def test_aspect_ratio_kuhn_tets():
    from tetlap.meshgen import GridSpec, gen_grid
    c = gen_grid(GridSpec((1, 1, 1)))
    ratios = [aspect_ratio(c, t) for t in range(6)]
    assert all(3.0 <= r <= 10.0 for r in ratios)
    assert np.allclose(ratios, ratios[0], atol=1e-10)  # congruent tets
    # closed form for the diagonal split of the unit cube:
    # min ball radius sqrt(3)/2, insphere radius (sqrt(2)-1)/2
    expected = np.sqrt(3) / (np.sqrt(2) - 1)
    assert ratios[0] == pytest.approx(expected, rel=1e-10)


def test_aspect_ratio_sliver_blows_up():
    pts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0.3, 0.3, 1e-6]])
    c = build_complex([[0, 1, 2, 3]], pts)
    assert aspect_ratio(c, 0) > 1e3


def test_aspect_ratio_flat_tet_errors():
    pts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0.5, 0.5, 0]])
    c = build_complex([[0, 1, 2, 3]], pts)
    with pytest.raises(ValueError, match="degenerate geometry"):
        aspect_ratio(c, 0)


def test_json_round_trip_bit_exact():
    c = two_tets()
    c2 = complex_from_dict(complex_to_dict(c))
    assert np.array_equal(c.tets, c2.tets)
    assert np.array_equal(c.triangles, c2.triangles)
    assert np.array_equal(c.edges, c2.edges)
    assert np.array_equal(c.vertices, c2.vertices)


def test_weights_round_trip_and_validation():
    c = build_complex([[0, 1, 2, 3]], TET_COORDS,
                      weights={"w2": [0.5, 1.5, 2.0, 1.0]})
    assert np.array_equal(c.weights[2], [0.5, 1.5, 2.0, 1.0])
    d = complex_to_dict(c)
    assert "weights" in d
    c2 = complex_from_dict(d)
    assert np.array_equal(c2.weights[2], c.weights[2])
    with pytest.raises(ValueError, match="nonpositive"):
        build_complex([[0, 1, 2, 3]], TET_COORDS, weights={"w1": [0.0] * 6})


def reference_boundary(c, i):
    """The search-based construction: every face of every i-simplex is
    looked up in the sorted table of (i-1)-simplexes."""
    simplexes = (c.edges, c.triangles, c.tets)[i - 1]
    lookup = (lambda face: face[:, 0], c.edge_ids, c.triangle_ids)[i - 1]
    n_rows = (c.num_vertices, c.num_edges, c.num_triangles)[i - 1]
    n = len(simplexes)
    rows = np.concatenate([lookup(np.delete(simplexes, j, axis=1))
                           for j in range(i + 1)])
    cols = np.tile(np.arange(n), i + 1)
    signs = np.repeat([(-1) ** j for j in range(i + 1)], n)
    return sp.csc_matrix((signs, (rows, cols)), shape=(n_rows, n),
                         dtype=np.int64)


@settings(max_examples=40, deadline=None)
@given(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
       .flatmap(lambda dims: st.tuples(
           st.just(dims),
           st.lists(st.booleans(), min_size=int(np.prod(dims)),
                    max_size=int(np.prod(dims))).filter(any))))
def test_incidence_tables_match_searches(case):
    dims, mask = case
    c = mesh_from_cells(dims, np.reshape(mask, dims))
    for j in range(4):
        assert np.array_equal(c.tet_tris[:, j],
                              c.triangle_ids(np.delete(c.tets, j, axis=1)))
    for j in range(3):
        assert np.array_equal(c.tri_edges[:, j],
                              c.edge_ids(np.delete(c.triangles, j, axis=1)))
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for col, pair in enumerate(pairs):
        assert np.array_equal(c.tet_edges[:, col],
                              c.edge_ids(c.tets[:, list(pair)]))
    d = {i: c.boundary(i) for i in (1, 2, 3)}
    for i in (1, 2, 3):
        ref = reference_boundary(c, i)
        assert d[i].dtype == np.int64 and d[i].shape == ref.shape
        assert (d[i] != ref).nnz == 0
    assert (d[1] @ d[2]).count_nonzero() == 0
    assert (d[2] @ d[3]).count_nonzero() == 0


# -- facet dedup against np.unique(axis=0) ----------------------------------

def reference_faces(simplexes):
    """_faces through np.unique(axis=0), its row sort on a void dtype."""
    n, k = simplexes.shape
    facets = np.concatenate([np.delete(simplexes, j, axis=1)
                             for j in range(k)])
    uniq, inverse, counts = np.unique(facets, axis=0, return_inverse=True,
                                      return_counts=True)
    return uniq, inverse.reshape(k, n).T, counts


def assert_faces_match_reference(simplexes):
    got, want = _faces(simplexes), reference_faces(simplexes)
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(lambda k: st.tuples(
    st.just(k),
    st.lists(st.lists(st.integers(0, 12), min_size=k, max_size=k,
                      unique=True), max_size=30),
    # 2**21 and up overflow the int64 keys of tets' facets: the lexsort path
    st.sampled_from([0, 2**21, 2**40]))))
def test_faces_match_np_unique_on_ascending_tables(case):
    k, rows, offset = case
    table = np.sort(np.array(rows, dtype=np.int64).reshape(-1, k), axis=1)
    assert_faces_match_reference(table + offset)


@pytest.mark.parametrize("spec", [
    GridSpec((1, 1, 1)), GridSpec((4, 4, 4)), GridSpec((6, 4, 4)),
    GridSpec((6, 6, 6), [HoleSpec((2, 2, 0), (1, 1, 6), "tunnel")])])
def test_faces_match_np_unique_on_grid_meshes(spec):
    c = gen_grid(spec)
    assert_faces_match_reference(c.tets)
    assert_faces_match_reference(c.triangles)


def test_faces_match_np_unique_on_a_ring_union():
    # four 3^3 boxes glued in a cycle, box k's x = 3 face to box k+1's x = 0
    chunks = [gen_grid(GridSpec((3, 3, 3))) for _ in range(4)]
    groups = []
    for k in range(4):
        nxt = chunks[(k + 1) % 4]
        lookup = {tuple(np.round(nxt.vertices[v, 1:], 9)): int(v)
                  for v in np.flatnonzero(np.isclose(nxt.vertices[:, 0], 0))}
        groups += [[(k, int(v)), ((k + 1) % 4,
                                  lookup[tuple(np.round(p[1:], 9))])]
                   for v, p in enumerate(chunks[k].vertices)
                   if np.isclose(p[0], 3)]
    u = glue(chunks, groups, [surface_hollowing(ch) for ch in chunks])
    assert len(u.shared_triangles)
    assert_faces_match_reference(u.complex.tets)
    assert_faces_match_reference(u.complex.triangles)


@pytest.mark.parametrize("base", [3_000_000, 2_000_000])
def test_find_rows_past_the_int64_keys(base):
    # a key of three entries below 3e6 overflows int64, below 2e6 it fits;
    # found rows come back by position, in the order asked for
    t = np.array([[5, 6, 7], [base - 1_000_000, base - 2, base - 1]])
    assert np.array_equal(_find_rows(t, t, base), [0, 1])
    assert np.array_equal(_find_rows(t, t[::-1], base), [1, 0])
    assert np.array_equal(_find_rows(t, t[:0], base), np.empty(0))
    for absent in ([5, 6, 8], [base - 1_000_000, base - 2, base - 2],
                   [base - 3, base - 2, base - 1]):
        with pytest.raises(KeyError, match="not present"):
            _find_rows(t, np.array([absent]), base)


def test_find_rows_by_lex_rank_matches_the_int64_keys_on_a_mesh():
    # a base past the int64 keys takes the rank path on the same rows
    c = gen_grid(GridSpec((3, 3, 3)))
    edges = c.edges[np.random.default_rng(0).permutation(c.num_edges)]
    for table, query in ((c.edges, edges), (c.triangles, c.triangles[::-1])):
        assert np.array_equal(_find_rows(table, query, 2**40),
                              _find_rows(table, query, c.num_vertices))
    assert np.array_equal(c.edges[c.edge_ids(edges)], edges)
