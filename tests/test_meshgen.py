import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order

from tetlap import oracle
from tetlap.complexes import aspect_ratio, validate
from tetlap.meshgen import (GridSpec, HoleSpec, gen_grid, mesh_stats,
                            skeleton_diameter)


def oracle_betti(c):
    d1 = c.boundary(1).toarray()
    d2 = c.boundary(2).toarray()
    d3 = c.boundary(3).toarray()
    r1, r2, r3 = oracle.rank(d1), oracle.rank(d2), oracle.rank(d3)
    b0 = c.num_vertices - r1
    b1 = (c.num_edges - r1) - r2
    b2 = (c.num_triangles - r2) - r3
    return b0, b1, b2


def test_unit_cell_counts():
    c = gen_grid(GridSpec((1, 1, 1)))
    assert c.simplex_counts() == (8, 19, 18, 6)


def test_grid_validates():
    for spec in (GridSpec((1, 1, 1)), GridSpec((3, 2, 1)), GridSpec((4, 4, 4))):
        assert validate(gen_grid(spec)) == []


def test_all_kuhn_tets_congruent_and_bounded():
    c = gen_grid(GridSpec((2, 2, 2)))
    expected = np.sqrt(3) / (np.sqrt(2) - 1)
    ratios = np.array([aspect_ratio(c, t) for t in range(0, c.num_tets, 7)])
    assert np.all(np.abs(ratios - expected) < 1e-10)


def test_cavity_betti2():
    spec = GridSpec((4, 4, 4), holes=[HoleSpec((1, 1, 1), (1, 1, 1), "cavity")])
    c = gen_grid(spec)
    assert validate(c) == []
    assert oracle_betti(c) == (1, 0, 1)


def test_tunnel_betti1():
    spec = GridSpec((4, 4, 4), holes=[HoleSpec((1, 1, 0), (1, 1, 4), "tunnel")])
    c = gen_grid(spec)
    assert validate(c) == []
    assert oracle_betti(c) == (1, 1, 0)


def test_solid_box_betti():
    c = gen_grid(GridSpec((3, 2, 2)))
    assert oracle_betti(c) == (1, 0, 0)


def test_boundary_components_solid_vs_cavity():
    solid = mesh_stats(gen_grid(GridSpec((4, 4, 4))))
    assert solid.boundary_components == 1
    cav = mesh_stats(gen_grid(
        GridSpec((4, 4, 4), holes=[HoleSpec((1, 1, 1), (1, 1, 1), "cavity")])))
    assert cav.boundary_components == 2


def test_exterior_triangle_count_scales_as_surface():
    counts = {}
    for k in (2, 4, 8):
        c = gen_grid(GridSpec((k, k, k)))
        counts[k] = int(c.exterior_triangles.sum())
    # 2 triangles per surface unit square, 6 k^2 squares
    for k in (2, 4, 8):
        assert counts[k] == 2 * 6 * k * k
    assert counts[4] / counts[2] == pytest.approx(4.0)
    assert counts[8] / counts[4] == pytest.approx(4.0)


def test_count_ratios_within_constant():
    c = gen_grid(GridSpec((4, 4, 4)))
    counts = np.array(c.simplex_counts(), dtype=float)
    assert counts.max() / counts.min() <= 8.0


def test_tets_per_vertex_cap():
    for spec in (GridSpec((4, 4, 4)),
                 GridSpec((4, 4, 4), holes=[HoleSpec((1, 1, 1), (1, 1, 1))])):
        stats = mesh_stats(gen_grid(spec))
        assert stats.max_tets_per_vertex <= 64


def test_hole_specs_validated():
    with pytest.raises(ValueError, match="interior"):
        GridSpec((4, 4, 4), holes=[HoleSpec((0, 1, 1), (1, 1, 1), "cavity")])
    with pytest.raises(ValueError, match="span"):
        GridSpec((4, 4, 4), holes=[HoleSpec((1, 1, 1), (1, 1, 1), "tunnel")])
    with pytest.raises(ValueError, match="closer"):
        GridSpec((20, 4, 4), holes=[HoleSpec((1, 1, 1), (1, 1, 1)),
                                    HoleSpec((4, 1, 1), (1, 1, 1))])
    with pytest.raises(ValueError, match="out of bounds"):
        GridSpec((4, 4, 4), holes=[HoleSpec((3, 3, 3), (2, 1, 1))])


def test_two_separated_cavities():
    spec = GridSpec((12, 4, 4), holes=[HoleSpec((1, 1, 1), (1, 1, 1)),
                                       HoleSpec((9, 1, 1), (1, 1, 1))])
    c = gen_grid(spec)
    assert oracle_betti(c) == (1, 0, 2)
    assert mesh_stats(c).boundary_components == 3


def test_spec_round_trip():
    spec = GridSpec((5, 6, 7), holes=[HoleSpec((1, 1, 1), (2, 1, 1), "cavity")])
    again = GridSpec.from_dict(spec.to_dict())
    assert again.dims == spec.dims
    assert again.holes[0].lo == spec.holes[0].lo
    assert again.holes[0].kind == "cavity"


# -- skeleton diameter against the breadth-first reference ---------------------

def reference_skeleton_diameter(c, tri_mask, exact_cap=4000):
    """skeleton_diameter with vertex pairs in a set and one breadth-first
    search per source, depths summed in a Python loop."""
    tris = c.triangles[tri_mask]
    if len(tris) == 0:
        return 0
    verts = np.unique(tris)
    vmap = {v: i for i, v in enumerate(verts)}
    pairs = set()
    for t in tris:
        pairs.update([(t[0], t[1]), (t[0], t[2]), (t[1], t[2])])
    rows = [vmap[u] for u, v in pairs]
    cols = [vmap[v] for u, v in pairs]
    n = len(verts)
    g = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    g = g + g.T

    def ecc(src):
        order, preds = breadth_first_order(g, src, directed=False)
        depth = np.zeros(n, dtype=np.int64)
        for node in order[1:]:
            depth[node] = depth[preds[node]] + 1
        return depth[order].max(), order[np.argmax(depth[order])]

    if n <= exact_cap:
        return int(max(ecc(s)[0] for s in range(n)))
    e1, far = ecc(0)
    e2, _ = ecc(far)
    return int(max(e1, e2))


@pytest.mark.parametrize("exact_cap", [4000, 30, 0])
def test_skeleton_diameter_matches_reference(exact_cap):
    # a cap below the vertex count takes the double sweep; random triangle
    # subsets give disconnected skeletons
    rng = np.random.default_rng(3)
    for dims in ((3, 3, 3), (4, 5, 6)):
        c = gen_grid(GridSpec(dims))
        masks = [c.exterior_triangles] + [
            rng.random(c.num_triangles) < share for share in (0.02, 0.1)]
        for mask in masks:
            got = skeleton_diameter(c, mask, exact_cap)
            assert type(got) is int
            assert got == reference_skeleton_diameter(c, mask, exact_cap)
