import ast
import hashlib
import inspect
import json
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetlap import downlap, hollowing, meshgen, oracle, uplap
from tetlap.complexes import build_complex
from tetlap.errors import UnsupportedGeometryError
from tetlap.hollowing import (
    DEFAULT_REGION_FACTOR,
    Hollowing,
    HollowingConfig,
    _bfs_hops,
    find_hollowing,
    sphere_hollowing,
    surface_hollowing,
    validate_hollowing,
)
from tetlap.meshgen import (GridSpec, HoleSpec, _adjacency, gen_grid,
                            mesh_from_cells)

RELAXED = HollowingConfig(min_shell_width=2)


def test_find_hollowing_grid_regions_and_sizes():
    c = gen_grid(GridSpec((8, 8, 8)))
    h = find_hollowing(c, 128, RELAXED)
    assert 2 <= h.num_regions <= 64
    assert h.metrics["region_simplexes_max"] <= DEFAULT_REGION_FACTOR * 128
    assert validate_hollowing(c, h, RELAXED) == []


def test_find_hollowing_degenerate_single_region():
    c = gen_grid(GridSpec((2, 2, 2)))
    h = find_hollowing(c, 280, RELAXED)
    assert h.num_regions == 1
    assert len(h.boundary_edges) == 0
    assert h.metrics.get("degenerate")


def test_find_hollowing_rejects_r_too_large():
    c = gen_grid(GridSpec((2, 2, 2)))
    with pytest.raises(ValueError, match="smaller than the complex"):
        find_hollowing(c, c.num_simplexes, RELAXED)


@pytest.mark.parametrize("build", [find_hollowing, sphere_hollowing,
                                   surface_hollowing])
@pytest.mark.parametrize("r", [-5.0, 0.0, np.nan, np.inf])
def test_hollowing_builders_reject_an_r_that_is_not_finite_and_positive(
        build, r):
    # the size metrics divide by r: a negative r would make them negative,
    # and a zero r infinite
    c = gen_grid(GridSpec((5, 5, 5)))
    with pytest.raises(ValueError, match="r must be finite and positive"):
        build(c, r)


def test_find_hollowing_rejects_close_boundary_components():
    # two cavities two cells apart violate the component-distance condition
    keep = np.ones((8, 4, 4), dtype=bool)
    keep[1, 1, 1] = False
    keep[4, 1, 1] = False
    c = mesh_from_cells((8, 4, 4), keep)
    with pytest.raises(UnsupportedGeometryError, match="closer than 6"):
        find_hollowing(c, 64, RELAXED)


def test_find_hollowing_width_five_on_large_grid():
    c = gen_grid(GridSpec((12, 12, 12)))
    h = find_hollowing(c, 4000, HollowingConfig())
    assert h.num_regions > 1
    assert min(h.metrics["shell_widths"]) >= 5
    assert validate_hollowing(c, h, HollowingConfig()) == []


def test_cavity_crossed_by_plane_keeps_disjoint_interiors():
    c = gen_grid(GridSpec((9, 9, 9), holes=[HoleSpec((4, 4, 4), (1, 1, 1))]))
    h = find_hollowing(c, 1000, RELAXED)
    assert h.num_regions >= 2
    assert validate_hollowing(c, h, RELAXED) == []


def test_validate_detects_thin_shell():
    c = gen_grid(GridSpec((8, 8, 8)))
    h = find_hollowing(c, 512, RELAXED)  # builds width-3 walls
    violations = validate_hollowing(c, h, HollowingConfig(min_shell_width=5))
    assert any("shell width" in v for v in violations)


def test_validate_detects_triangle_spanning_two_regions():
    c = gen_grid(GridSpec((8, 8, 8)))
    h = find_hollowing(c, 512, RELAXED)
    # corrupt: hand a boundary edge of a mixed triangle to a different region
    tri_edges = np.stack([c.edge_ids(np.delete(c.triangles, j, axis=1))
                          for j in range(3)], axis=1)
    cls = h.edge_class[tri_edges]
    mixed = np.flatnonzero((cls >= 0).any(axis=1) & (cls < 0).any(axis=1))
    target = tri_edges[mixed[0]]
    region = cls[mixed[0]].max()
    bad_edge = target[h.edge_class[target] < 0][0]
    h.edge_class[bad_edge] = region + 1
    violations = validate_hollowing(c, h, RELAXED)
    assert any("span" in v or "share" in v for v in violations)


def test_hollowing_round_trip():
    c = gen_grid(GridSpec((5, 5, 5)))
    h = find_hollowing(c, 64, RELAXED)
    h2 = Hollowing.from_dict(h.to_dict())
    assert h2.num_regions == h.num_regions
    assert np.array_equal(h2.edge_class, h.edge_class)
    assert np.array_equal(h2.tri_class, h.tri_class)
    assert np.array_equal(h2.tet_region, h.tet_region)


def test_interior_triangles_never_have_all_boundary_edges():
    # keeps the wall complex spectrally below the Schur complement
    for dims, r in (((5, 5, 5), 64), ((8, 8, 8), 128)):
        c = gen_grid(GridSpec(dims))
        h = find_hollowing(c, r, RELAXED)
        tri_edges = np.stack([c.edge_ids(np.delete(c.triangles, j, axis=1))
                              for j in range(3)], axis=1)
        all_boundary = (h.edge_class[tri_edges] < 0).all(axis=1)
        assert not np.any(all_boundary & (h.tri_class >= 0))


def test_schur_image_matches_wall_complex_image():
    c = gen_grid(GridSpec((5, 5, 5)))
    h = find_hollowing(c, 64, RELAXED)
    lup = c.lap_up(1).toarray()
    cset = h.boundary_edges
    fset = np.flatnonzero(h.edge_class >= 0)
    sc = lup[np.ix_(cset, cset)] - lup[np.ix_(cset, fset)] @ oracle.pinv(
        lup[np.ix_(fset, fset)]) @ lup[np.ix_(fset, cset)]
    bt = h.boundary_triangles
    d2c = c.boundary(2).toarray().astype(float)[np.ix_(cset,)][:, bt]
    lt = d2c @ np.diag(c.weights[2][bt]) @ d2c.T
    assert oracle.rank(sc) == oracle.rank(lt)


def test_sphere_hollowing_spheres_and_discs():
    c = gen_grid(GridSpec((8, 8, 8)))
    h = sphere_hollowing(c, 512)
    assert h.kind == "sphere"
    assert h.num_regions > 1
    assert validate_hollowing(c, h) == []
    # no tets are boundary simplexes in a sphere hollowing
    assert np.all(h.tet_region >= 0)


def reference_tri_disc(c, planes):
    """The discs numbered triangle by triangle through a dict of their
    (axis, level, j, k) keys, each new key taking the next number."""
    lo, hi = c.vertices.min(axis=0), c.vertices.max(axis=0)
    cuts = [np.array(p) for p in planes]
    centroids = c.vertices[c.triangles].mean(axis=1)
    tri_disc = np.full(c.num_triangles, -1, dtype=np.int64)
    taken = np.zeros(c.num_triangles, dtype=bool)
    keys = {}
    for a in range(3):
        for q in np.concatenate([[lo[a]], cuts[a], [hi[a]]]):
            sel = np.all(np.isclose(c.vertices[c.triangles, a], q), axis=1)
            sel &= ~taken
            taken |= sel
            for t in np.flatnonzero(sel):
                key = (a, float(q)) + tuple(
                    int(np.searchsorted(cuts[b], centroids[t, b]))
                    for b in range(3) if b != a)
                tri_disc[t] = keys.setdefault(key, len(keys))
    return tri_disc


# holes may come within two triangle hops of the outer boundary
NEAR_HOLES = HollowingConfig(min_shell_width=2, min_component_separation=2)


@pytest.mark.parametrize("dims, r, holes", [
    ((12, 12, 12), None, []),
    ((6, 6, 6), 256, [HoleSpec((1, 1, 1), (1, 1, 1))]),
    ((10, 4, 4), 64, []),
])
def test_sphere_discs_are_numbered_like_the_reference(dims, r, holes):
    c = gen_grid(GridSpec(dims, holes=holes))
    h = sphere_hollowing(c, r or c.num_simplexes ** 0.6, NEAR_HOLES)
    want = reference_tri_disc(c, h.metrics["planes"])
    assert np.array_equal(h.tri_disc, want)
    assert h.metrics["num_discs"] == want.max() + 1


def test_sphere_hollowing_degenerate_boundary_is_outer_sphere():
    c = gen_grid(GridSpec((2, 2, 2)))
    h = sphere_hollowing(c, 280)
    assert h.num_regions == 1
    assert np.array_equal(np.sort(h.shells[0]),
                          np.flatnonzero(c.exterior_triangles))
    from tetlap.hollowing import _euler_characteristic
    assert _euler_characteristic(c, h.shells[0]) == 2
    # the outer sphere is its wall
    assert "degenerate" not in h.metrics


def test_sphere_hollowing_rejects_hole_on_plane():
    c = gen_grid(GridSpec((9, 9, 9), holes=[HoleSpec((4, 4, 4), (1, 1, 1))]))
    with pytest.raises(UnsupportedGeometryError, match="crosses a cutting plane"):
        sphere_hollowing(c, 1000)


TUNNEL = HoleSpec((1, 1, 0), (1, 1, 4), "tunnel")


@pytest.mark.parametrize("dims, r, holes", [
    ((6, 6, 6), 64, [HoleSpec((2, 2, 0), (1, 1, 6), "tunnel")]),
    ((10, 4, 4), 64, [TUNNEL, HoleSpec((8, 1, 0), (1, 1, 4), "tunnel")]),
    ((4, 4, 4), None, [TUNNEL]),      # one region, r = n - 1
])
def test_sphere_hollowing_rejects_a_tunnel_through_a_region(dims, r, holes):
    # a tunnel wall off the cutting planes holds no wall triangle: a tunnel
    # along a region's edge, against two cutting planes, leaves one hole
    # in its boundary (chi 1; through a region's middle it leaves two, chi
    # 0), and the one region bounded by the whole exterior has a torus
    chi = 0 if r is None else 1
    c = gen_grid(GridSpec(dims, holes=holes))
    with pytest.raises(UnsupportedGeometryError,
                       match=rf"boundary has Euler characteristic {chi}, "
                             "not 2"):
        sphere_hollowing(c, r or c.num_simplexes - 1, NEAR_HOLES)


def test_validate_names_a_torus_boundary():
    # the 4^3 tunnel mesh as one sphere-kind region bounded by the whole
    # exterior, a torus: built by hand, since sphere_hollowing refuses it
    c = gen_grid(GridSpec((4, 4, 4), holes=[TUNNEL]))
    ext = np.flatnonzero(c.exterior_triangles)
    tri_class = np.zeros(c.num_triangles, dtype=np.int64)
    tri_class[ext] = -1
    edge_class = np.zeros(c.num_edges, dtype=np.int64)
    edge_class[np.unique(c.tri_edges[ext])] = -1
    h = Hollowing(r=c.num_simplexes - 1.0, kind="sphere", num_regions=1,
                  tet_region=np.zeros(c.num_tets, dtype=np.int64),
                  edge_class=edge_class, tri_class=tri_class, shells=[ext],
                  tri_disc=np.where(tri_class < 0, 0, -1))
    assert validate_hollowing(c, h) == [
        "region 0 boundary has Euler characteristic 0, not 2"]


@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data())
def test_sphere_hollowing_keeps_its_sphere_contract(data):
    # random cavity boxes, 8^3 to 13^3 with one or two holes: whatever
    # sphere_hollowing returns has 2-sphere region boundaries
    k = data.draw(st.integers(8, 13))

    def cavity(x_lo, x_hi):
        """A cavity whose cells lie in [x_lo, x_hi) along x."""
        size = (data.draw(st.integers(1, min(2, x_hi - x_lo))),
                data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2)))
        lo = (data.draw(st.integers(x_lo, x_hi - size[0])),
              *[data.draw(st.integers(1, k - 1 - s)) for s in size[1:]])
        return HoleSpec(lo, size)
    if k >= 10 and data.draw(st.booleans()):
        # two holes on either side of a gap of HOLE_SEPARATION cells
        cut = data.draw(st.integers(2, k - 2 - meshgen.HOLE_SEPARATION))
        holes = [cavity(1, cut),
                 cavity(cut + meshgen.HOLE_SEPARATION, k - 1)]
    else:
        holes = [cavity(1, k - 1)]
    c = gen_grid(GridSpec((k, k, k), holes=holes))
    try:
        h = sphere_hollowing(c, c.num_simplexes ** 0.6, NEAR_HOLES)
    except UnsupportedGeometryError:
        return
    assert not [v for v in validate_hollowing(c, h, NEAR_HOLES)
                if "Euler characteristic" in v]


def test_boundary_triangle_total_scaling():
    # total boundary triangles stay a vanishing fraction as r grows
    c = gen_grid(GridSpec((8, 8, 8)))
    fractions = []
    for r in (64, 512):
        h = find_hollowing(c, r, RELAXED)
        fractions.append(h.metrics["boundary_triangles_total"] / c.num_triangles)
    assert fractions[1] <= fractions[0]


# -- graph searches without Python loops -----------------------------------------

def reference_bfs_hops(graph, sources, cap=np.inf):
    """_bfs_hops as a frontier loop over sparse row slices."""
    n = graph.shape[0]
    dist = np.full(n, np.inf)
    if len(sources) == 0:
        return dist
    dist[sources] = 0.0
    frontier = np.asarray(sources)
    hops = 0
    while len(frontier) and hops < cap:
        hops += 1
        neigh = np.unique(graph[frontier].indices)
        neigh = neigh[dist[neigh] == np.inf]
        if len(neigh) == 0:
            break
        dist[neigh] = hops
        frontier = neigh
    return dist


@pytest.mark.parametrize("cap", [np.inf, 1, 3, 6])
def test_hop_fields_match_reference(cap):
    # a cavity box has two exterior components, so some triangles are far
    c = gen_grid(GridSpec((7, 7, 7), holes=[HoleSpec((3, 3, 3), (1, 1, 1))]))
    tri_adj = _adjacency(abs(c.boundary(2)))
    ext = np.flatnonzero(c.exterior_triangles)
    rng = np.random.default_rng(0)
    for sources in (ext, rng.choice(c.num_triangles, 5, replace=False),
                    np.array([0]), np.empty(0, dtype=np.int64)):
        got = _bfs_hops(tri_adj, sources, cap=cap)
        want = reference_bfs_hops(tri_adj, sources, cap=cap)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    # the exterior alone has two components, so the cavity is unreachable
    surface = tri_adj[ext][:, ext]
    got = _bfs_hops(surface, np.array([0, 7]), cap=cap)
    assert np.isinf(got).any()
    assert np.array_equal(
        got, reference_bfs_hops(surface, np.array([0, 7]), cap=cap))


RELAXED_BENCH = HollowingConfig(min_shell_width=2, min_component_separation=2)

# sha256 of json.dumps(h.to_dict(), sort_keys=True), recorded with the
# frontier-loop searches and per-region passes that the grouped ones replace
HOLLOWING_DIGESTS = {
    "box10": (lambda: gen_grid(GridSpec((10, 10, 10))), None, RELAXED_BENCH,
              "8c872c439177b50d020fcd75baba098963af9f0fd2948e4d00e44f8c9ba65805",
              []),
    "chunk644": (lambda: gen_grid(GridSpec((6, 4, 4))), None, RELAXED_BENCH,
                 "62ae4395bf552c5fe77e1b7e16d966052bf75b5a465b544ed4ee409fa0fbc0d6",
                 []),
    "tunnel12": (lambda: gen_grid(GridSpec((12, 12, 12), holes=[
        HoleSpec((5, 5, 0), (2, 2, 12), "tunnel")])), None, RELAXED_BENCH,
        "d62b1c77251a168dcae85a884c5bb9dbcfbaa7952b564a112b28d0c935af0b96",
        ["region boundary exceeds boundary_factor * r^(2/3)"]),
    "cavity9": (lambda: gen_grid(GridSpec((9, 9, 9), holes=[
        HoleSpec((4, 4, 4), (1, 1, 1))])), 1000, RELAXED,
        "9fee504fef2d65200213867c43539eba09ba0015f9a2b6427bf0be470447408d",
        []),
}


def assert_unchanged(build, digests, name):
    make, r, config, digest, violations = digests[name]
    c = make()
    h = build(c, c.num_simplexes ** 0.6 if r is None else r, config)
    text = json.dumps(h.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert validate_hollowing(c, h, config) == violations


@pytest.mark.parametrize("name", sorted(HOLLOWING_DIGESTS))
def test_hollowing_is_unchanged(name):
    assert_unchanged(find_hollowing, HOLLOWING_DIGESTS, name)


# the same digests of sphere_hollowing, recorded with shells taken from the
# plane triangles inside each region's closed box
SPHERE_DIGESTS = {
    "box12": (lambda: gen_grid(GridSpec((12, 12, 12))), None, NEAR_HOLES,
              "c394c362bc3a130a0feea42207b1c349ec995b82406e8079f95262c3a96d9dc7",
              []),
    "cavity6": (lambda: gen_grid(GridSpec((6, 6, 6), holes=[
        HoleSpec((1, 1, 1), (1, 1, 1))])), 256, NEAR_HOLES,
        "d7428ed76355c1bb9cf1765a0b243c54e054585c5b32893592eb84c927ebbc19",
        []),
    "chunk1044": (lambda: gen_grid(GridSpec((10, 4, 4))), 64, NEAR_HOLES,
                  "e980723a2a05ff90471f31fa324df0224c1ce885084b01014300a4fbc6549e48",
                  []),
    "box8": (lambda: gen_grid(GridSpec((8, 8, 8))), 512, HollowingConfig(),
             "c24e18c8c52b6403b6696e36c903988eaee33134cddb2d76d89ef15660ecebba",
             []),
}


@pytest.mark.parametrize("name", sorted(SPHERE_DIGESTS))
def test_sphere_hollowing_is_unchanged(name):
    assert_unchanged(sphere_hollowing, SPHERE_DIGESTS, name)


def test_surface_hollowing_counts_its_whole_boundary():
    # the 4^3 box's boundary class: its 192 exterior triangles and the 348
    # interior ones that touch an exterior edge, its 288 exterior edges and
    # their 98 vertices; the region is every tet, triangle and edge
    c = gen_grid(GridSpec((4, 4, 4)))
    h = surface_hollowing(c)
    assert h.kind == "surface" and h.tri_disc is None
    assert (h.tri_class < 0).sum() == h.metrics["boundary_triangles_total"]
    assert h.metrics["boundary_triangles_total"] == 192 + 348
    assert (h.edge_class < 0).sum() == 288
    assert h.metrics["boundary_simplexes_max"] == 540 + 288 + 98
    assert h.metrics["region_simplexes_max"] == (
        c.num_tets + c.num_triangles + c.num_edges + 98)
    assert np.array_equal(h.shells[0], np.flatnonzero(c.exterior_triangles))
    assert validate_hollowing(c, h) == []
    # the exterior is its wall
    assert "degenerate" not in h.metrics


def test_validate_names_a_vertex_shared_by_two_regions_once():
    # two tets meeting in vertex 0 only, each its own region: their edges,
    # triangles and tets all touch vertex 0, and nothing else is wrong
    c = build_complex([[0, 1, 2, 3], [0, 4, 5, 6]],
                      [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                       [-1, 0, 0], [0, -1, 0], [0, 0, -1]])
    empty = np.empty(0, dtype=np.int64)
    h = Hollowing(r=1.0, kind="shell", num_regions=2,
                  tet_region=np.array([0, 1]),
                  edge_class=(c.edges.max(axis=1) > 3).astype(np.int64),
                  tri_class=(c.triangles.max(axis=1) > 3).astype(np.int64),
                  shells=[empty, empty], shell_tets=[empty, empty],
                  metrics={"shell_widths": [5, 5]})
    assert validate_hollowing(c, h) == [
        "interior simplexes of different regions share a vertex"]


# functions whose graph searches and per-region passes run in scipy.sparse
# .csgraph and grouped array operations
LOOP_FREE = [hollowing._bfs_hops, hollowing.find_hollowing,
             hollowing._classes, hollowing._assign_shells,
             hollowing._interface_triangles,
             hollowing._record_metrics, hollowing.validate_hollowing,
             downlap.GraphDownLap.__init__, downlap.bfs_parents,
             uplap._disc_rows, uplap._orient_discs,
             meshgen.skeleton_diameter]


@pytest.mark.parametrize("func", LOOP_FREE, ids=lambda f: f.__qualname__)
def test_graph_searches_have_no_while_loop(func):
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    assert not any(isinstance(node, ast.While) for node in ast.walk(tree))
