import dataclasses
import importlib
import pickle

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from tetlap import dissection, downlap, onelap, oracle, uplap, upproj
from tetlap.complexes import down_laplacian, one_laplacian
from tetlap.downlap import down_lap_solve, down_norm1, down_projection
from tetlap.errors import (NumericalError, TetlapError,
                           UnsupportedGeometryError, one_norm)
from tetlap.hollowing import (
    Hollowing,
    HollowingConfig,
    check_hollowing,
    find_hollowing,
    sphere_hollowing,
    surface_hollowing,
)
from tetlap.meshgen import GridSpec, HoleSpec, gen_grid, mesh_from_cells
from tetlap.onelap import (
    HARMONIC_TOL,
    betti_numbers,
    build_one_lap_solver,
    build_union_solver,
    glue,
    hodge_decompose,
    one_lap_solve,
    probe_budget,
    union_one_lap_solve,
)
from tetlap.uplap import up_lap_solve, up_lap_solve_fast
from tetlap.upproj import up_project

from factor_fronts import exact_build

# the package exports the function pcg under the submodule's name
pcg_module = importlib.import_module("tetlap.pcg")

RELAXED = HollowingConfig(min_shell_width=2, min_component_separation=2)


def setup(dims=(4, 4, 4), r=48, holes=()):
    c = gen_grid(GridSpec(dims, holes=list(holes)))
    h = find_hollowing(c, r, RELAXED)
    return c, h


def sphere_setup(dims, r, holes=()):
    c = gen_grid(GridSpec(dims, holes=list(holes)))
    return c, sphere_hollowing(c, r, RELAXED)


def oracle_pi1(c):
    return oracle.projection(c.lap1().toarray())


def test_one_lap_zero_rhs():
    c, h = setup()
    x, rep = one_lap_solve(c, h, np.zeros(c.num_edges), 1e-6)
    assert not x.any()


def test_one_lap_harmonic_rhs_gives_tiny_answer(rng):
    # a tunnel mesh has a nontrivial harmonic space
    c = gen_grid(GridSpec((6, 6, 6),
                          holes=[HoleSpec((2, 2, 0), (1, 1, 6), "tunnel")]))
    h = find_hollowing(c, 64, RELAXED)
    lap1 = c.lap1().toarray()
    harm = oracle.kernel_basis(lap1)
    assert harm.shape[1] == 1
    b = harm[:, 0]
    eps = 1e-6
    x, rep = one_lap_solve(c, h, b, eps)
    # P1 b = 0, so the residual target scale collapses to eps * |b|
    assert np.linalg.norm(lap1 @ x) <= 10 * eps * np.linalg.norm(b)


def test_one_lap_matches_oracle_solid(rng):
    c, h = setup((4, 4, 4), 48)
    state = build_one_lap_solver(c, h)
    lap1 = c.lap1().toarray()
    pi1 = oracle_pi1(c)
    eps = 1e-6
    for _ in range(3):
        b = rng.standard_normal(c.num_edges)
        x, rep = one_lap_solve(c, h, b, eps, state=state)
        target = pi1 @ b
        assert np.linalg.norm(lap1 @ x - target) <= eps * np.linalg.norm(target)


def assert_matches_oracle(c, solve, b, eps):
    """solve(b, eps) meets |L1 x - P1 b| <= eps |P1 b|, and its energy-norm
    gap to the pseudo-inverse answer is within 1e-4 |P1 b|."""
    lap1 = c.lap1().toarray()
    target = oracle_pi1(c) @ b
    x, _ = solve(b, eps)
    assert np.linalg.norm(lap1 @ x - target) <= eps * np.linalg.norm(target)
    diff = x - oracle.pinv(lap1) @ target
    assert np.sqrt(diff @ lap1 @ diff) <= 1e-4 * np.linalg.norm(target)


def test_one_lap_matches_oracle_cavity(rng):
    c, h = setup((6, 6, 6), 64, [HoleSpec((2, 2, 2), (1, 1, 1))])
    state = build_one_lap_solver(c, h)
    assert_matches_oracle(
        c, lambda b, eps: one_lap_solve(c, h, b, eps, state=state),
        rng.standard_normal(c.num_edges), 1e-6)


def test_recombination_consistency_with_exact_subsolves(rng):
    # exact projections and sub-solves recombine to an exact solution
    c, h = setup((3, 3, 3), 27)
    lap1 = c.lap1().toarray()
    lup = c.lap_up(1).toarray()
    ldown = c.lap_down(1).toarray()
    pi_up = oracle.projection(lup)
    pi_down = oracle.projection(ldown)
    b = lap1 @ rng.standard_normal(c.num_edges)
    x_up = oracle.pinv(lup) @ (pi_up @ b)
    x_down = oracle.pinv(ldown) @ (pi_down @ b)
    x = pi_up @ x_up + pi_down @ x_down
    assert np.linalg.norm(lap1 @ x - b) <= 1e-9 * np.linalg.norm(b)


def test_hodge_decomposition_parts(rng):
    c, h = setup()
    state = build_one_lap_solver(c, h)
    eps = 1e-6

    f_grad = c.boundary(1).T.astype(float) @ rng.standard_normal(c.num_vertices)
    g, curl, harm = hodge_decompose(c, h, f_grad, eps, state=state)
    assert np.linalg.norm(g - f_grad) <= 1e-6 * np.linalg.norm(f_grad)
    assert np.linalg.norm(curl) <= 1e-6 * np.linalg.norm(f_grad)

    f_curl = c.boundary(2).astype(float) @ c.weights[2]
    g, curl, harm = hodge_decompose(c, h, f_curl, eps, state=state)
    assert np.linalg.norm(curl - f_curl) <= 1e-6 * np.linalg.norm(f_curl)
    assert np.linalg.norm(g) <= 1e-6 * np.linalg.norm(f_curl)


def test_hodge_orthogonality(rng):
    c, h = setup()
    state = build_one_lap_solver(c, h)
    eps = 1e-6
    f = rng.standard_normal(c.num_edges)
    g, curl, harm = hodge_decompose(c, h, f, eps, state=state)
    assert np.allclose(g + curl + harm, f)
    scale = np.linalg.norm(f) ** 2
    assert abs(g @ curl) <= 10 * eps * scale
    assert abs(g @ harm) <= 10 * eps * scale
    assert abs(curl @ harm) <= 10 * eps * scale


def test_hodge_harmonic_on_tunnel(rng):
    c = gen_grid(GridSpec((6, 6, 6),
                          holes=[HoleSpec((2, 2, 0), (1, 1, 6), "tunnel")]))
    h = find_hollowing(c, 64, RELAXED)
    state = build_one_lap_solver(c, h)
    f = rng.standard_normal(c.num_edges)
    g, curl, harm = hodge_decompose(c, h, f, 1e-6, state=state)
    assert np.linalg.norm(harm) >= 1e-3 * np.linalg.norm(f)
    basis = oracle.kernel_basis(c.lap1().toarray())
    want = basis @ (basis.T @ f)
    assert np.linalg.norm(harm - want) <= 1e-4 * np.linalg.norm(f)


def snapshot(obj) -> dict:
    """Every field of a dataclass, pickled, so that a comparison sees any
    change anywhere below it."""
    return {f.name: pickle.dumps(getattr(obj, f.name))
            for f in dataclasses.fields(obj)}


def test_solves_leave_the_complex_unchanged(rng):
    c, h = setup()
    state = build_one_lap_solver(c, h)
    before = snapshot(c), snapshot(state)
    one_lap_solve(c, h, rng.standard_normal(c.num_edges), 1e-6, state=state)
    hodge_decompose(c, h, rng.standard_normal(c.num_edges), 1e-6, state=state)
    assert (snapshot(c), snapshot(state)) == before


def test_reweighting_takes_effect_at_the_next_solve():
    c, h = setup((5, 5, 5), 48)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(c.num_edges)
    eps = 1e-6
    one_lap_solve(c, h, b, eps)
    c.weights[2] = rng.uniform(0.5, 2.0, c.num_triangles)
    x, rep = one_lap_solve(c, h, b, eps)
    # assembled here from the new weights; a solid box has P1 b = b
    lap1 = one_laplacian(c)
    assert rep.converged
    assert np.linalg.norm(lap1 @ x - b) <= eps * np.linalg.norm(b)


def random_mesh(dims, keep, seed):
    """A box of `dims` cells keeping about `keep` of them, with random
    weights; returns the mesh and the generator, to draw more from."""
    rng = np.random.default_rng(seed)
    cells = int(np.prod(dims))
    mask = np.ones(cells, dtype=bool)
    mask[rng.permutation(cells)[:int((1.0 - keep) * cells)]] = False
    c = mesh_from_cells(dims, mask.reshape(dims))
    for dim, w in enumerate(c.weights):
        c.weights[dim] = rng.uniform(0.5, 2.0, len(w))
    return c, rng


RANDOM_MESHES = dict(dims=st.tuples(*[st.integers(4, 6)] * 3),
                     keep=st.floats(0.85, 1.0),
                     seed=st.integers(0, 2**32 - 1))


# derandomized so the suite is repeatable; drop derandomize to explore
# further draws of the same strategy
@settings(max_examples=10, deadline=None, derandomize=True)
@given(**RANDOM_MESHES)
def test_one_lap_solve_meets_the_contract_or_raises(dims, keep, seed):
    c, rng = random_mesh(dims, keep, seed)
    b = rng.standard_normal(c.num_edges)
    eps = 1e-6
    try:
        h = find_hollowing(c, c.num_simplexes ** 0.75, RELAXED)
        x, _ = one_lap_solve(c, h, b, eps)
    except TetlapError:
        return          # failing loudly is within the contract
    lap1 = c.lap1().toarray()
    p1b = oracle.projection(lap1) @ b
    assert np.linalg.norm(lap1 @ x - p1b) <= eps * np.linalg.norm(p1b)


ENTRY_POINTS = {
    "one_lap_solve": lambda c, h, u, v, eps=1e-6: one_lap_solve(c, h, v, eps),
    "union_one_lap_solve":
        lambda c, h, u, v, eps=1e-6: union_one_lap_solve(u, v, eps),
    "hodge_decompose":
        lambda c, h, u, v, eps=1e-6: hodge_decompose(c, h, v, eps),
    "up_lap_solve": lambda c, h, u, v, eps=1e-6: up_lap_solve(c, h, v, eps),
    "up_lap_solve_fast":
        lambda c, h, u, v, eps=1e-6: up_lap_solve_fast(c, h, v, eps),
    "up_project": lambda c, h, u, v, eps=1e-6: up_project(c, h, v, eps),
}
# the exact down solve and projection take no tolerance
EXACT_ENTRY_POINTS = {
    "down_lap_solve": lambda c, h, u, v: down_lap_solve(c, v),
    "down_projection": lambda c, h, u, v: down_projection(c, v),
}
ALL_ENTRY_POINTS = ENTRY_POINTS | EXACT_ENTRY_POINTS


@pytest.mark.parametrize("entry", sorted(ALL_ENTRY_POINTS))
@pytest.mark.parametrize("defect", ["short", "nan", "inf"])
def test_entry_points_reject_bad_vectors(entry, defect):
    c, h = make_chunk((2, 2, 2))
    u = glue([c], [], [h])
    v = np.ones(c.num_edges - 1 if defect == "short" else c.num_edges)
    if defect != "short":
        v[3] = np.nan if defect == "nan" else np.inf
    name = "f" if entry == "hodge_decompose" else "b"
    message = "shape" if defect == "short" else "non-finite"
    with pytest.raises(ValueError, match=rf"^{name} has {message}"):
        ALL_ENTRY_POINTS[entry](c, h, u, v)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("eps", [0.0, -1e-6, np.nan, np.inf])
def test_entry_points_reject_bad_tolerance(monkeypatch, entry, eps):
    c, h = make_chunk((2, 2, 2))
    u = glue([c], [], [h])

    def no_factor(*args, **kwargs):
        raise AssertionError("factored before checking eps")
    monkeypatch.setattr(dissection, "_factor_fronts", no_factor)
    with pytest.raises(ValueError, match="^eps must be finite and positive"):
        ENTRY_POINTS[entry](c, h, u, np.ones(c.num_edges), eps)


@pytest.mark.parametrize("field", ["edge_class", "tri_class", "tet_region"])
def test_mislabelled_hollowing_rejected_before_factoring(monkeypatch, field):
    c, h = setup()
    labels = getattr(h, field)
    labels[np.flatnonzero(labels >= 0)[0]] = {
        "edge_class": h.num_regions + 3, "tri_class": 99, "tet_region": -2}[field]

    def no_factor(*args, **kwargs):
        raise AssertionError("factored before checking the hollowing")
    monkeypatch.setattr(dissection, "_factor_fronts", no_factor)
    with pytest.raises(ValueError, match=f"hollowing {field} has class"):
        one_lap_solve(c, h, np.ones(c.num_edges), 1e-6)


def test_check_hollowing_names_a_wrong_length():
    c, h = setup()
    check_hollowing(c, h)
    h.tri_disc = np.full(c.num_triangles - 1, -1)
    with pytest.raises(ValueError, match="hollowing tri_disc has shape"):
        check_hollowing(c, h)


@pytest.mark.parametrize("defect, message", [
    ("kind", "hollowing kind 'spherical' is unknown"),
    ("no discs", "sphere hollowing tri_disc is missing"),
    ("unlabelled", "tri_disc is missing or negative on a wall triangle"),
])
def test_bad_sphere_hollowing_rejected_before_factoring(monkeypatch, defect,
                                                        message):
    # hand-written hollowings: the wall is picked by kind, and the sphere
    # kind's reduced wall needs a disc on every wall triangle
    c, h = sphere_setup((4, 4, 4), 48)
    if defect == "kind":
        h.kind = "spherical"
    elif defect == "no discs":
        h.tri_disc = None
    else:
        h.tri_disc[h.boundary_triangles[5]] = -1

    def no_factor(*args, **kwargs):
        raise AssertionError("factored before checking the hollowing")
    monkeypatch.setattr(dissection, "_factor_fronts", no_factor)
    with pytest.raises(ValueError, match=message):
        one_lap_solve(c, h, np.ones(c.num_edges), 1e-6)


def test_betti_numbers_diagnostics():
    assert betti_numbers(gen_grid(GridSpec((3, 3, 3)))) == (1, 0, 0)
    cav = gen_grid(GridSpec((4, 4, 4), holes=[HoleSpec((1, 1, 1), (1, 1, 1))]))
    assert betti_numbers(cav) == (1, 0, 1)
    tun = gen_grid(GridSpec((4, 4, 4),
                            holes=[HoleSpec((1, 1, 0), (1, 1, 4), "tunnel")]))
    assert betti_numbers(tun) == (1, 1, 0)
    with pytest.raises(ValueError, match="too large"):
        betti_numbers(gen_grid(GridSpec((3, 3, 3))), cap=10)


# -- unions ---------------------------------------------------------------------

def make_chunk(dims=(3, 3, 3)):
    # small chunks cannot carry walls, so their one valid hollowing is the
    # single region bounded by the whole surface
    c = gen_grid(GridSpec(dims))
    return c, surface_hollowing(c)


def face_identifications(c0, c1, axis, pos0, pos1):
    """Identify boundary vertices of chunk 0 at plane pos0 with the matching
    vertices of chunk 1 at pos1 (same cross-section coordinates)."""
    groups = []
    v0 = np.flatnonzero(np.isclose(c0.vertices[:, axis], pos0))
    others = [a for a in range(3) if a != axis]
    lookup = {}
    for v in np.flatnonzero(np.isclose(c1.vertices[:, axis], pos1)):
        key = tuple(np.round(c1.vertices[v, others], 9))
        lookup[key] = v
    for v in v0:
        key = tuple(np.round(c0.vertices[v, others], 9))
        if key in lookup:
            groups.append([(0, int(v)), (1, int(lookup[key]))])
    return groups


def two_chunks():
    """Two 3^3 boxes, the first's x = 3 face glued to the second's x = 0."""
    c0, h0 = make_chunk((3, 3, 3))
    c1, h1 = make_chunk((3, 3, 3))
    return glue([c0, c1], face_identifications(c0, c1, 0, 3.0, 0.0),
                [h0, h1])


def test_glue_two_chunks_counts():
    c0, h0 = make_chunk()
    c1, h1 = make_chunk()
    groups = face_identifications(c0, c1, 0, 3.0, 0.0)
    assert len(groups) == 16  # the 4 x 4 vertex lattice of a 3-cell face
    u = glue([c0, c1], groups, [h0, h1])
    assert u.complex.num_vertices == c0.num_vertices + c1.num_vertices - 16
    assert u.complex.num_tets == c0.num_tets + c1.num_tets
    assert len(u.shared_triangles) == 18  # one full 3x3 face, 2 per square
    assert betti_numbers(u.complex) == (1, 0, 0)


def test_glue_rejects_interior_vertex():
    c0, h0 = make_chunk()
    c1, h1 = make_chunk()
    interior = np.flatnonzero(~c0.exterior_vertices)[0]
    with pytest.raises(ValueError, match="not exterior"):
        glue([c0, c1], [[(0, int(interior)), (1, 0)]], [h0, h1])


def test_glue_checks_each_chunk_hollowing():
    c0, h0 = make_chunk()
    c1, h1 = make_chunk()
    h1.tri_class = h1.tri_class[:-1]
    with pytest.raises(ValueError, match="hollowing tri_class has shape"):
        glue([c0, c1], face_identifications(c0, c1, 0, 3.0, 0.0), [h0, h1])


def test_glue_rejects_duplicate_chunk_in_class():
    c0, h0 = make_chunk()
    with pytest.raises(ValueError, match="injective"):
        glue([c0], [[(0, 0), (0, 1)]], [h0])


def test_glue_rejects_classes_that_merge_two_vertices_of_one_chunk():
    # both classes hold vertex w of chunk 1, so they merge, and would make
    # the far-apart exterior vertices a and b of chunk 0 one vertex
    c0, h0 = make_chunk()
    c1, h1 = make_chunk()
    ext = np.flatnonzero(c0.exterior_vertices)
    a, b = int(ext[0]), int(ext[-1])
    w = int(np.flatnonzero(c1.exterior_vertices)[0])
    with pytest.raises(ValueError, match=f"vertices {a} and {b} of chunk 0"):
        glue([c0, c1], [[(0, a), (1, w)], [(0, b), (1, w)]], [h0, h1])


def test_glue_checks_one_member_classes():
    chunks, holls = map(list, zip(*[make_chunk() for _ in range(4)]))
    with pytest.raises(ValueError, match="unknown chunk 9"):
        glue(chunks, [[(9, 0)]], holls)
    interior = int(np.flatnonzero(~chunks[0].exterior_vertices)[0])
    with pytest.raises(ValueError, match="not exterior"):
        glue(chunks, [[(0, interior)]], holls)


def test_union_single_chunk_matches_plain_solver(rng):
    c, h = setup((4, 4, 4), 48)
    u = glue([c], [], [h])
    b = rng.standard_normal(c.num_edges)
    eps = 1e-6
    x_plain, _ = one_lap_solve(c, h, b, eps)
    x_union, _ = union_one_lap_solve(u, b, eps)
    lap1 = c.lap1().toarray()
    pi1 = oracle_pi1(c)
    diff = pi1 @ (x_plain - x_union)
    assert np.linalg.norm(diff) <= 1e-8 * max(np.linalg.norm(pi1 @ x_plain), 1e-30)


def test_union_two_chunks_solve_matches_oracle(rng):
    c0, h0 = make_chunk((3, 3, 3))
    c1, h1 = make_chunk((3, 3, 3))
    u = glue([c0, c1], face_identifications(c0, c1, 0, 3.0, 0.0), [h0, h1])
    glued = u.complex
    lap1 = glued.lap1().toarray()
    pi1 = oracle.projection(lap1)
    b = rng.standard_normal(glued.num_edges)
    eps = 1e-6
    x, rep = union_one_lap_solve(u, b, eps)
    target = pi1 @ b
    assert np.linalg.norm(lap1 @ x - target) <= eps * np.linalg.norm(target)


def test_union_ring_of_four_chunks(rng):
    # four box chunks glued side to side in a cycle: globally beta_1 >= 1
    chunks = []
    holls = []
    for _ in range(4):
        c, h = make_chunk((3, 3, 3))
        chunks.append(c)
        holls.append(h)
    groups = []
    for k in range(4):
        nxt = (k + 1) % 4
        pairs = face_identifications(chunks[k], chunks[nxt], 0, 3.0, 0.0)
        groups.extend([[(k, a[1]), (nxt, b[1])] for a, b in pairs])
    u = glue(chunks, groups, holls)
    glued = u.complex
    b0, b1, b2 = betti_numbers(glued)
    assert b1 >= 1
    lap1 = glued.lap1().toarray()
    pi1 = oracle.projection(lap1)
    b = rng.standard_normal(glued.num_edges)
    eps = 1e-6
    x, rep = union_one_lap_solve(u, b, eps)
    target = pi1 @ b
    assert np.linalg.norm(lap1 @ x - target) <= eps * np.linalg.norm(target)


def test_union_solve_leaves_the_glued_complex_unchanged(rng):
    c0, h0 = make_chunk((3, 3, 3))
    c1, h1 = make_chunk((3, 3, 3))
    u = glue([c0, c1], face_identifications(c0, c1, 0, 3.0, 0.0), [h0, h1])
    state = build_union_solver(u)
    before = snapshot(u.complex), snapshot(state)
    union_one_lap_solve(u, rng.standard_normal(u.complex.num_edges), 1e-6,
                        state=state)
    assert (snapshot(u.complex), snapshot(state)) == before


def factor_bytes(f) -> list:
    """The bytes of every array a CholeskyFactor stores."""
    arrays = [f.perm, f.kept, f.matrix.data, f.root.cols, *f.root.pinvs]
    for nd in f._nodes:
        arrays += [nd.skipped, nd.l11, nd.rows21, nd.l21]
    for level in f._levels:
        arrays += [level.cols, level.skipped, level.a.data, level.a.indices,
                   level.a.indptr]
    return [a.tobytes() for a in arrays]


def held_arrays(f) -> list:
    """Every array the factor holds besides its input matrix, each once: a
    view counts as the array it views."""
    arrays = [f.perm, f.kept]
    for held in (f.root, *f._nodes):
        arrays += [v for v in vars(held).values() if isinstance(v, np.ndarray)]
    arrays += f.root.pinvs
    for level in f._levels:
        arrays += [level.cols, level.skipped]
        arrays += [getattr(m, name) for m in (level.a, level.at)
                   for name in ("data", "indices", "indptr")]
    owners = {}
    for a in arrays:
        owner = a if a.base is None else a.base
        owners[id(owner)] = owner
    return list(owners.values())


@pytest.mark.parametrize("kind", ["shell", "sphere"])
def test_exact_factors_store_only_what_their_solves_read(kind):
    # the interior and L0 factors: the root fronts keep their packed
    # pseudo-inverses alone, in the root record, every other front its
    # l11, and nbytes is every array held; the folded wall keeps no fronts
    # and an empty root record
    c, h = setup() if kind == "shell" else sphere_setup((6, 6, 6), 64)
    state = build_one_lap_solver(c, h)
    for f in (state.up_state.interior, state.down_state.lap0_factor):
        assert not f.folded
        assert f.root.pinvs and all(nd.depth for nd in f._nodes)
        assert f.nbytes == sum(a.nbytes for a in held_arrays(f))
    wall = state.up_state.wall
    if kind == "shell":
        assert wall.folded and not wall._nodes and not wall.root.pinvs
        assert wall.nbytes == sum(a.nbytes for a in held_arrays(wall))


def sparse_matrices(obj, seen=None) -> list:
    """Every scipy sparse matrix reachable from `obj` through attributes,
    slots, lists, tuples and dicts, each object once."""
    seen = set() if seen is None else seen
    if id(obj) in seen or isinstance(obj, (np.ndarray, str, bytes)):
        return []
    seen.add(id(obj))
    if sp.issparse(obj):
        return [obj]
    if isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        children = list(obj)
    else:
        children = list(getattr(obj, "__dict__", {}).values()) + [
            getattr(obj, name) for name in getattr(type(obj), "__slots__", ())
            if hasattr(obj, name)]
    return [m for child in children for m in sparse_matrices(child, seen)]


@pytest.mark.parametrize("kind", ["shell", "sphere", "union"])
def test_state_keeps_no_edge_matrix_but_lup(monkeypatch, kind):
    # the residual of a solve is Lup x + d1^T (w0 * (d1 x)), so neither L1
    # nor the down-Laplacian is assembled: Lup is the state's one
    # edges x edges matrix, and the down state is built once
    if kind == "union":
        c0, h0 = make_chunk((3, 3, 3))
        c1, h1 = make_chunk((3, 3, 3))
        u = glue([c0, c1], face_identifications(c0, c1, 0, 3.0, 0.0),
                 [h0, h1])
        c, h = u.complex, u.hollowing
    else:
        c, h = setup() if kind == "shell" else sphere_setup((6, 6, 6), 64)
    c.weights[0] = np.random.default_rng(4).uniform(0.5, 2.0, c.num_vertices)
    calls = []
    real = onelap.build_down_state

    def spy(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(onelap, "build_down_state", spy)
    state = build_one_lap_solver(c, h)
    assert len(calls) == 1
    n = c.num_edges
    square = [m for m in sparse_matrices(state) if m.shape == (n, n)]
    assert len(square) == 1 and square[0] is state.up_state.lup
    assert not hasattr(state, "lap1")
    b = np.random.default_rng(5).standard_normal(n)
    x, rep = one_lap_solve(c, h, b, 1e-6, state=state)
    target = b - state.harmonic @ (state.harmonic.T @ b)
    assert rep.final_residual == pytest.approx(
        np.linalg.norm(one_laplacian(c) @ x - target), rel=1e-6)


@pytest.mark.parametrize("kind", ["box", "cavity", "union"])
def test_down_norm1_is_the_degree_formula(kind):
    # max over edges (u, v) of w_u deg u + w_v deg v against the assembled
    # down-Laplacian's largest absolute column sum, on spread weights
    if kind == "union":
        c0, h0 = make_chunk((3, 3, 3))
        c1, h1 = make_chunk((2, 3, 3))
        c = glue([c0, c1], face_identifications(c0, c1, 0, 3.0, 0.0),
                 [h0, h1]).complex
    else:
        holes = [HoleSpec((1, 1, 1), (1, 1, 1))] if kind == "cavity" else []
        c = gen_grid(GridSpec((4, 3, 3), holes=holes))
    for seed in range(3):
        c.weights[0] = np.exp(np.random.default_rng(seed).uniform(
            np.log(1e-4), np.log(1e4), c.num_vertices))
        assert down_norm1(c.edges, c.weights[0]) == pytest.approx(
            one_norm(down_laplacian(c, 1)), rel=4 * np.finfo(float).eps)


@pytest.mark.parametrize("union", [False, True])
def test_only_the_wall_preconditioner_is_folded(rng, union):
    # the wall is applied once per Schur iteration and folded at build;
    # the interior and vertex-Laplacian solves must be exact and substitute
    if union:
        c0, h0 = make_chunk((3, 3, 3))
        c1, h1 = make_chunk((3, 3, 3))
        u = glue([c0, c1], face_identifications(c0, c1, 0, 3.0, 0.0),
                 [h0, h1])
        state = build_union_solver(u)
        requests = [lambda b: union_one_lap_solve(u, b, 1e-6, state=state)]
    else:
        c, h = setup()
        state = build_one_lap_solver(c, h)
        requests = [lambda b: one_lap_solve(c, h, b, 1e-6, state=state),
                    lambda b: hodge_decompose(c, h, b, 1e-6, state=state)]
    factors = {"wall": state.up_state.wall,
               "interior": state.up_state.interior,
               "lap0": state.down_state.lap0_factor}
    assert {name: f.folded for name, f in factors.items()} == {
        "wall": True, "interior": False, "lap0": False}
    assert not factors["wall"]._nodes
    before = {name: factor_bytes(f) for name, f in factors.items()}
    for request in requests:
        request(rng.standard_normal(state.complex.num_edges))
    assert {name: factor_bytes(f) for name, f in factors.items()} == before


@pytest.mark.parametrize("name", ["two_chunks", "ring"])
def test_union_wall_is_folded_and_solves_like_the_pseudo_inverse(rng, name):
    # the default wall, ordered on the glued complex's atlas: folded, of
    # the wall up-Laplacian's rank, and a pseudo-inverse on its image
    u = two_chunks() if name == "two_chunks" else ring_of_four()
    wall = build_union_solver(u).up_state.wall
    c, h = u.complex, u.hollowing
    d2 = c.boundary(2).toarray()[np.ix_(h.boundary_edges,
                                        h.boundary_triangles)]
    lt = (d2 * c.weights[2][h.boundary_triangles]) @ d2.T
    assert wall.folded
    assert wall.rank == oracle.rank(lt)
    b = lt @ rng.standard_normal(len(lt))
    assert (np.linalg.norm(lt @ (wall.solve(b) - oracle.pinv(lt) @ b))
            <= 1e-9 * np.linalg.norm(b))


def ring_wall():
    """The ring's wall factor, its exact (unfolded) twin ordered the same
    way, the wall up-Laplacian, dense, and the twin's root front as
    factored, with its l11."""
    u = ring_of_four()
    c, h = u.complex, u.hollowing
    wall = build_union_solver(u).up_state.wall
    d2 = c.boundary(2).toarray()[np.ix_(h.boundary_edges,
                                        h.boundary_triangles)]
    lt = (d2 * c.weights[2][h.boundary_triangles]) @ d2.T
    midpoints = c.vertices[c.edges].mean(axis=1)
    exact, fronts = exact_build(lt, midpoints[h.boundary_edges])
    root, = [nd for nd in fronts if nd.depth == 0]
    return wall, exact, lt, root


def schur_onto(dense, rows):
    """The Schur complement of the dense PSD matrix onto `rows`, through
    the pseudo-inverse of the other rows' block."""
    rest = np.setdiff1d(np.arange(len(dense)), rows)
    c = dense[np.ix_(rows, rest)]
    return (dense[np.ix_(rows, rows)]
            - c @ oracle.pinv(dense[np.ix_(rest, rest)]) @ c.T)


def test_ring_wall_gram_matches_the_exact_solve(rng):
    # the folded wall solves like its exact twin, whose root front
    # eliminates the Schur complement onto its rows, C_ss less the Gram
    # C M^+ C^T of the exact solves below it
    wall, exact, lt, root = ring_wall()
    b = lt @ rng.standard_normal(len(lt))
    x = exact.solve(b)
    assert exact.rank == wall.rank
    assert (np.linalg.norm(wall.solve(b) - x) <= 1e-12 * np.linalg.norm(x))
    want = schur_onto(lt, exact.perm[root.start:root.stop])
    kept = np.setdiff1d(np.arange(len(want)), root.skipped)
    l11 = root.l11[:, kept]
    assert (np.linalg.norm(l11 @ l11.T - want)
            <= 1e-10 * np.linalg.norm(want))


def unpacked_root_pinv(size, rank, pinv):
    """A root front's pseudo-inverse K, dense in the front's order, from
    its kept block, packed lower by columns."""
    k = np.zeros((size, size))
    col, row = np.triu_indices(rank)
    k[row, col] = k[col, row] = pinv
    return k


def assert_root_pinvs_match_the_schur_pinv(factor, dense, blocks):
    """Each root front's K is a generalized inverse of the Schur complement
    S onto its rows (zero on its skipped pivots), so on the image of S it
    is S's pseudo-inverse; and the root solve applies those K, one per
    front."""
    root = factor.root
    assert root.pinvs
    bounds = np.cumsum([0] + root.sizes)
    ks = []
    for lo, hi, rank, pinv in zip(bounds, bounds[1:], root.ranks,
                                  root.pinvs):
        rows = factor.perm[root.cols[lo:hi]]
        block, = [b for b in blocks if np.isin(rows[0], b)]
        local = np.searchsorted(block, rows)
        s = schur_onto(dense[np.ix_(block, block)], local)
        ks.append(unpacked_root_pinv(hi - lo, rank, pinv))
        p = oracle.projection(s)
        want = oracle.pinv(s)
        assert (np.linalg.norm(p @ ks[-1] @ p - want)
                <= 1e-10 * np.linalg.norm(want))
    assert np.array_equal(root.solve(np.eye(len(root.cols))),
                          sla.block_diag(*ks))


def test_root_pinv_matches_the_front_schur_pinv():
    # the exact twin of the ring's wall, one root front with skipped
    # pivots, and a 6^3 sphere's interior, one root front per region
    _, exact, lt, root = ring_wall()
    assert len(root.skipped) and root.rank
    assert_root_pinvs_match_the_schur_pinv(exact, lt, [np.arange(len(lt))])
    c = gen_grid(GridSpec((6, 6, 6)))
    h = sphere_hollowing(c, 256)
    state = uplap.build_sphere_fast_solver(c, h)
    sizes = [len(f) for f in h.interior_edges_by_region()]
    blocks = np.split(np.arange(len(state.f_all)), np.cumsum(sizes)[:-1])
    assert len(blocks) > 1
    assert_root_pinvs_match_the_schur_pinv(
        state.interior, state.interior.matrix.toarray(), blocks)


def test_ring_schur_block_matches_evr():
    # the root front's kept pivots count the Schur complement's rank, as
    # LAPACK's dsyevr (scipy's default for `eigh`) reads it
    _, exact, lt, root = ring_wall()
    rows = exact.perm[root.start:root.stop]
    w = sla.eigvalsh(schur_onto(lt, rows))
    rank = int(np.sum(w > dissection.DEFAULT_PIVOT_TOL * w[-1]))
    assert 0 < rank == len(rows) - len(root.skipped)
    assert exact.rank == oracle.rank(lt)


def test_glue_lays_the_chunk_charts_side_by_side():
    # chunk 0 keeps its chart, and each later chart starts along x where
    # the previous one ends
    u = two_chunks()
    x = [u.complex.vertices[m] for m in u.vertex_maps]
    assert np.array_equal(x[0], u.chunks[0].vertices)
    assert x[0][:, 0].max() <= x[1][:, 0].min()
    # in a ring, chunk 0's face glued to the last chunk moves with that
    # chunk; the vertices each chunk holds alone keep apart
    u = ring_of_four()
    count = np.bincount(np.concatenate(u.vertex_maps))
    alone = [m[count[m] == 1] for m in u.vertex_maps]
    ranges = [u.complex.vertices[a, 0] for a in alone]
    assert all(lo.max() < hi.min() for lo, hi in zip(ranges, ranges[1:]))
    held = count[u.vertex_maps[0]] == 1
    assert np.array_equal(u.complex.vertices[alone[0]],
                          u.chunks[0].vertices[held])


def assert_schur_matches_evr(wall):
    """The shared block's rank and pseudo-inverse against LAPACK's other
    full eigensolver, dsyevr (scipy's default for `eigh`), on the same
    Schur complement."""
    rows = wall.matrix[wall.shared]
    schur = rows[:, wall.shared].toarray() - wall.solver.gram(
        rows[:, wall.rows].T)
    w, v = sla.eigh(schur)
    keep = w > dissection.DEFAULT_PIVOT_TOL * max(w[-1], 0.0)
    want = (v[:, keep] / w[keep]) @ v[:, keep].T
    assert wall.rank - wall.solver.rank == keep.sum() > 0
    assert (np.linalg.norm(wall.schur_pinv - want)
            <= 1e-12 * np.linalg.norm(want))


def test_sphere_reduced_wall_schur_block_matches_evr():
    c, h = sphere_setup((6, 6, 6), 64)
    wall = uplap.build_sphere_fast_solver(c, h).wall
    assert len(wall.shared)
    assert_schur_matches_evr(wall)


# -- harmonic basis ------------------------------------------------------------

def ring_of_four(reverse=False):
    """Acceptance criterion 10's ring: four 3^3 boxes glued in a cycle;
    with `reverse`, every class lists its members the other way round."""
    chunks, holls = zip(*[make_chunk((3, 3, 3)) for _ in range(4)])
    groups = []
    for k in range(4):
        nxt = (k + 1) % 4
        pairs = face_identifications(chunks[k], chunks[nxt], 0, 3.0, 0.0)
        groups.extend([[(k, a[1]), (nxt, b[1])] for a, b in pairs])
    if reverse:
        groups = [g[::-1] for g in groups]
    return glue(list(chunks), groups, list(holls))


def test_glue_numbering_does_not_depend_on_class_order():
    # a glued vertex is numbered by its class's smallest chunk-offset index
    u, v = ring_of_four(), ring_of_four(reverse=True)
    assert np.array_equal(u.complex.vertices, v.complex.vertices)
    assert np.array_equal(u.complex.tets, v.complex.tets)


TWO_TUNNELS = [HoleSpec((1, 1, 0), (1, 1, 4), "tunnel"),
               HoleSpec((8, 1, 0), (1, 1, 4), "tunnel")]
# name: (mesh and hollowing or union, its first Betti number)
HARMONIC_MESHES = {
    "solid": (lambda: setup((4, 4, 4), 48), 0),
    "cavity": (lambda: setup((6, 6, 6), 64, [HoleSpec((2, 2, 2), (1, 1, 1))]),
               0),
    "tunnel": (lambda: setup((6, 6, 6), 64,
                             [HoleSpec((2, 2, 0), (1, 1, 6), "tunnel")]), 1),
    "two_tunnels": (lambda: setup((10, 4, 4), 64, TWO_TUNNELS), 2),
    "ring": (ring_of_four, 1),
    # neighbouring sphere regions meet in discs of wall triangles
    "sphere_box": (lambda: sphere_setup((6, 6, 6), 64), 0),
    "sphere_cavity": (lambda: sphere_setup(
        (6, 6, 6), 256, [HoleSpec((1, 1, 1), (1, 1, 1))]), 0),
}
SPHERES = sorted(name for name in HARMONIC_MESHES if name.startswith("sphere"))


@pytest.fixture(scope="module")
def harmonic_case():
    """name -> (complex, state, solve(b, eps), dense L1, oracle ker L1
    basis), built once per module."""
    cache = {}

    def get(name):
        if name not in cache:
            mesh = HARMONIC_MESHES[name][0]()
            if name == "ring":
                c, state = mesh.complex, build_union_solver(mesh)
                def solve(b, eps):
                    return union_one_lap_solve(mesh, b, eps, state=state)
            else:
                (c, h), state = mesh, build_one_lap_solver(*mesh)
                def solve(b, eps):
                    return one_lap_solve(c, h, b, eps, state=state)
            lap1 = c.lap1().toarray()
            cache[name] = (c, state, solve, lap1, oracle.kernel_basis(lap1))
        return cache[name]
    return get


@pytest.mark.parametrize("name", sorted(HARMONIC_MESHES))
def test_harmonic_basis_spans_the_oracle_kernel(harmonic_case, name):
    c, state, _, _, kernel = harmonic_case(name)
    basis = state.harmonic
    assert kernel.shape[1] == HARMONIC_MESHES[name][1]
    assert basis.shape == kernel.shape
    assert np.allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-12)
    # sine of the largest principal angle between the two subspaces
    gap = basis - kernel @ (kernel.T @ basis)
    assert np.linalg.norm(gap, 2) <= 1e-10


@pytest.mark.parametrize("name", SPHERES)
def test_one_lap_matches_oracle_on_sphere_hollowings(harmonic_case, name):
    c, _, solve, _, _ = harmonic_case(name)
    b = np.random.default_rng(0).standard_normal(c.num_edges)
    assert_matches_oracle(c, solve, b, 1e-6)


def test_reduced_wall_names_a_hole_through_a_disc():
    # a hand-made sphere hollowing whose wall is one face of the box, one
    # open disc: its rim edges lie on a single disc triangle, as where a
    # hole opens through a disc, and the reduced wall names that; a shell
    # hollowing solves the same system
    c = gen_grid(GridSpec((4, 4, 4)))
    face = np.flatnonzero(np.all(c.vertices[c.triangles, 2] == 0.0, axis=1))
    tri_class = np.zeros(c.num_triangles, dtype=np.int64)
    tri_class[face] = -1
    edge_class = np.zeros(c.num_edges, dtype=np.int64)
    edge_class[np.unique(c.tri_edges[face])] = -1
    h = Hollowing(r=48.0, kind="sphere", num_regions=1,
                  tet_region=np.zeros(c.num_tets, dtype=np.int64),
                  edge_class=edge_class, tri_class=tri_class, shells=[face],
                  tri_disc=np.where(tri_class < 0, 0, -1))
    b = c.lap_up(1) @ np.random.default_rng(0).standard_normal(c.num_edges)
    with pytest.raises(UnsupportedGeometryError,
                       match="single disc triangle.*find_hollowing"):
        up_lap_solve(c, h, b, 1e-8)
    _, report = up_lap_solve(c, find_hollowing(c, 48, RELAXED), b, 1e-8)
    assert report.final_residual <= 1e-8 * np.linalg.norm(b)


@pytest.mark.parametrize("name", sorted(HARMONIC_MESHES))
def test_probe_budget_is_b1_on_closed_walls(harmonic_case, name):
    # the ring's surface walls hold triangles with an interior edge, so its
    # budget leaves the wall out, and one more probe finds nothing
    c, state, _, _, _ = harmonic_case(name)
    budget, closed = probe_budget(c, state.hollowing, state.up_state,
                                  state.down_state)
    b1 = betti_numbers(c)[1]
    assert closed == (name != "ring")
    if closed:
        assert budget == b1 == state.probes
    else:
        assert budget > b1 and state.probes == b1 + 1


@settings(max_examples=10, deadline=None, derandomize=True)
@given(**RANDOM_MESHES)
def test_probe_budget_is_b1_on_random_meshes(dims, keep, seed):
    c, _ = random_mesh(dims, keep, seed)
    try:
        h = find_hollowing(c, c.num_simplexes ** 0.75, RELAXED)
    except TetlapError:
        return
    state = build_one_lap_solver(c, h)
    budget, closed = probe_budget(c, h, state.up_state, state.down_state)
    assert closed
    assert budget == betti_numbers(c)[1] == state.harmonic.shape[1] \
        == state.probes


def miscount_interior_rank(monkeypatch, delta):
    real = onelap.build_up_solver

    def miscounted(*args, **kwargs):
        up_state = real(*args, **kwargs)
        up_state.interior.rank += delta
        return up_state
    monkeypatch.setattr(onelap, "build_up_solver", miscounted)


def test_a_probe_short_of_the_budget_raises(monkeypatch):
    # an interior rank one too low makes the budget 2 on the one-tunnel box
    c, h = HARMONIC_MESHES["tunnel"][0]()
    miscount_interior_rank(monkeypatch, -1)
    with pytest.raises(NumericalError, match="harmonic probe 2 added no "
                       "direction: 1 found, but the factors' ranks give "
                       "b1 = 2"):
        build_one_lap_solver(c, h)


def test_a_budget_below_the_euler_bound_raises(monkeypatch):
    # an interior rank one too high makes the budget -1 on a solid box
    c, h = HARMONIC_MESHES["solid"][0]()
    miscount_interior_rank(monkeypatch, 1)
    with pytest.raises(NumericalError, match=r"bound b1 by -1, below a "
                       r"lower bound on b1 \(0, or b0 - chi = 0 "):
        build_one_lap_solver(c, h)


def test_harmonic_basis_is_bit_identical_across_builds():
    c, h = setup((10, 4, 4), 64, TWO_TUNNELS)
    first = build_one_lap_solver(c, h).harmonic
    assert first.shape[1] == 2
    assert first.tobytes() == build_one_lap_solver(c, h).harmonic.tobytes()


@pytest.mark.parametrize("name", ["tunnel", "two_tunnels", "ring"])
def test_one_solve_meets_a_tight_contract_with_harmonic_parts(harmonic_case,
                                                              name):
    c, _, solve, lap1, _ = harmonic_case(name)
    eps = 1e-9
    b = np.random.default_rng(3).standard_normal(c.num_edges)
    x, _ = solve(b, eps)
    target = oracle.projection(lap1) @ b
    assert np.linalg.norm(lap1 @ x - target) <= eps * np.linalg.norm(target)


@pytest.mark.parametrize("name", ["tunnel", "ring"])
def test_report_residual_is_against_the_exact_projection(harmonic_case, name):
    c, _, solve, lap1, kernel = harmonic_case(name)
    b = np.random.default_rng(4).standard_normal(c.num_edges)
    x, rep = solve(b, 1e-6)
    target = b - kernel @ (kernel.T @ b)
    want = np.linalg.norm(lap1 @ x - target)
    assert abs(rep.final_residual - want) <= 1e-12 * np.linalg.norm(target)
    assert rep.converged
    assert rep.params["b1"] == 1
    assert "up_solve" in rep.stages


def test_harmonic_basis_on_widely_spread_triangle_weights():
    # weights over six decades put kappa(Lup) near 4e5; the probe's leftover
    # curl part must neither become a column nor keep the true one out
    c, h = HARMONIC_MESHES["tunnel"][0]()
    rng = np.random.default_rng(0)
    c.weights[2] = np.exp(rng.uniform(np.log(1e-3), np.log(1e3),
                                      c.num_triangles))
    state = build_one_lap_solver(c, h)
    assert probe_budget(c, h, state.up_state, state.down_state) == (1, True)
    assert state.probes == 1
    basis = state.harmonic
    kernel = oracle.kernel_basis(c.lap1().toarray())
    assert basis.shape == kernel.shape == (c.num_edges, 1)
    assert np.linalg.norm(basis - kernel @ (kernel.T @ basis), 2) <= 1e-10


def test_harmonic_input_is_reported_as_such(harmonic_case):
    c, _, solve, lap1, kernel = harmonic_case("tunnel")
    curl = c.boundary(2).astype(float) @ c.weights[2]
    b = kernel[:, 0] + 1e-11 * curl / np.linalg.norm(curl)
    x, rep = solve(b, 1e-6)
    assert not x.any()
    assert rep.params["harmonic_input"] and rep.converged
    target = b - kernel @ (kernel.T @ b)
    assert abs(rep.final_residual - np.linalg.norm(target)) <= 1e-12
    assert rep.final_residual <= HARMONIC_TOL * np.linalg.norm(b)
    _, rep = solve(curl, 1e-6)
    assert not rep.params["harmonic_input"]


@pytest.mark.parametrize("name", ["solid", "tunnel"] + SPHERES)
def test_hodge_curl_of_a_gradient_dominated_chain(harmonic_case, name):
    # the gradient's own error, eps |P_grad f|, would be 1e4 times the
    # curl's allowance eps |P_curl f|
    c, state, _, _, kernel = harmonic_case(name)
    rng = np.random.default_rng(5)
    grad = c.boundary(1).T.astype(float) @ rng.standard_normal(c.num_vertices)
    curl = c.lap_up(1) @ rng.standard_normal(c.num_edges)
    f = grad + 1e-4 * curl * np.linalg.norm(grad) / np.linalg.norm(curl)
    if kernel.shape[1]:
        f += kernel[:, 0]
    eps = 1e-6
    g, got, harm = hodge_decompose(c, state.hollowing, f, eps, state=state)
    want = oracle.projection(c.lap_up(1).toarray()) @ f
    assert np.linalg.norm(got - want) <= eps * np.linalg.norm(want)
    assert np.allclose(g + got + harm, f, rtol=0, atol=1e-12 * np.linalg.norm(f))


@pytest.mark.parametrize("dims, r", [((6, 6, 6), 64), ((5, 5, 5), None)],
                         ids=["box6-r64", "box5-r-n^0.6"])
def test_gradient_dominated_rhs_meets_the_contract(dims, r):
    # a gradient left in b_up lies outside Im(Lup); at 100 times the rest,
    # what an inexact projection left of it stalled the Schur PCG or missed
    # the up solve's contract
    c = gen_grid(GridSpec(dims))
    h = find_hollowing(c, r or c.num_simplexes ** 0.6, RELAXED)
    phi = np.random.default_rng(9).standard_normal(c.num_vertices)
    b = 100 * (c.boundary(1).T @ phi) \
        + np.random.default_rng(0).standard_normal(c.num_edges)
    eps = 1e-6
    x, rep = one_lap_solve(c, h, b, eps)
    target = oracle_pi1(c) @ b
    assert rep.converged
    assert np.linalg.norm(c.lap1() @ x - target) <= eps * np.linalg.norm(target)


def test_full_solve_on_widely_spread_triangle_weights():
    # kappa(Lup) near 4e5, far above what a Lanczos estimate reads: the
    # solve is certified by its own residual, not by a condition bound
    c, h = HARMONIC_MESHES["tunnel"][0]()
    rng = np.random.default_rng(0)
    c.weights[2] = np.exp(rng.uniform(np.log(1e-3), np.log(1e3),
                                      c.num_triangles))
    state = build_one_lap_solver(c, h)
    pi1 = oracle_pi1(c)
    eps = 1e-6
    for seed in range(3):
        b = np.random.default_rng(seed).standard_normal(c.num_edges)
        x, rep = one_lap_solve(c, h, b, eps, state=state)
        target = pi1 @ b
        assert rep.converged
        assert np.linalg.norm(c.lap1() @ x - target) \
            <= eps * np.linalg.norm(target)


def test_missed_first_attempt_is_retried_tighter(monkeypatch):
    # the first up solve runs 1e3 times looser than asked, so the first
    # attempt misses the full contract, and the retry at eps / 100 meets it
    c, h = setup((6, 6, 6), 64)
    state = build_one_lap_solver(c, h)
    real, asked = onelap._up_solve_with_state, []

    def loose_first(up_state, rhs, tol):
        asked.append(tol)
        return real(up_state, rhs, tol * (1e3 if len(asked) == 1 else 1.0))

    monkeypatch.setattr(onelap, "_up_solve_with_state", loose_first)
    b = np.random.default_rng(0).standard_normal(c.num_edges)
    eps = 1e-6
    x, rep = one_lap_solve(c, h, b, eps, state=state)
    assert rep.params["retried"] and rep.converged
    assert {"up_solve", "up_solve_retry"} <= set(rep.stages)
    assert rep.params["delta"] == pytest.approx(eps / 100)
    target = oracle_pi1(c) @ b
    assert np.linalg.norm(c.lap1() @ x - target) <= eps * np.linalg.norm(target)


def test_missed_retry_raises_naming_residual_target_and_floor(monkeypatch):
    # both up solves run 1e5 times looser than asked, so both attempts miss
    # the full contract: the solve raises, never returns a miss
    c, h = setup((6, 6, 6), 64)
    state = build_one_lap_solver(c, h)
    real = onelap._up_solve_with_state
    monkeypatch.setattr(onelap, "_up_solve_with_state",
                        lambda up_state, rhs, tol: real(up_state, rhs,
                                                        tol * 1e5))
    b = np.random.default_rng(0).standard_normal(c.num_edges)
    with pytest.raises(NumericalError) as caught:
        one_lap_solve(c, h, b, 1e-6, state=state)
    message = str(caught.value)
    assert message.startswith("1-Laplacian solve missed its contract: "
                              "residual ")
    assert "> eps * |P1 b| = " in message
    assert "also with the up solve at 1.0e-08" in message
    assert "roundoff floor u * |L1|_1 * |x| = " in message


def test_state_for_another_complex_is_rejected():
    # c2 has the same mesh with triangle weights 10: a state built on c
    # answers for c's L1, not c2's, so every entry point refuses it
    c, h = setup()
    c2, h2 = setup()
    c2.weights[2] = np.full(c2.num_triangles, 10.0)
    b = np.random.default_rng(0).standard_normal(c.num_edges)
    full, up = build_one_lap_solver(c, h), uplap.build_up_solver(c, h)
    sc, sh = sphere_setup((4, 4, 4), 48)
    fast = uplap.build_sphere_fast_solver(sc, sh)
    u, u2 = glue([c], [], [h]), glue([c2], [], [h2])
    calls = [
        lambda: one_lap_solve(c2, h2, b, 1e-6, state=full),
        lambda: one_lap_solve(c, h2, b, 1e-6, state=full),
        lambda: hodge_decompose(c2, h2, b, 1e-6, state=full),
        lambda: up_lap_solve(c2, h2, b, 1e-6, state=up),
        lambda: up_lap_solve_fast(c2, sh, b, 1e-6, state=fast),
        lambda: up_project(c2, h2, b, 1e-6,
                           state=upproj.build_up_projection(c, h)),
        lambda: union_one_lap_solve(u2, b, 1e-6,
                                    state=build_union_solver(u)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^state was built for another"):
            call()


def test_a_state_rejects_weights_changed_in_place():
    # the complex is the same object, so only the recorded weights tell the
    # state's L1 from the complex's: a solve on the stale state would report
    # a small residual against the old L1
    c, h = setup((6, 6, 6), 64)
    b = np.random.default_rng(0).standard_normal(c.num_edges)
    full, up = build_one_lap_solver(c, h), uplap.build_up_solver(c, h)
    u = glue([c], [], [h])
    union = build_union_solver(u)
    projection = upproj.build_up_projection(c, h)
    c.weights[2] *= 10
    u.complex.weights[0][3] = 2.0
    calls = [
        lambda: one_lap_solve(c, h, b, 1e-6, state=full),
        lambda: hodge_decompose(c, h, b, 1e-6, state=full),
        lambda: up_lap_solve(c, h, b, 1e-6, state=up),
        lambda: up_project(c, h, b, 1e-6, state=projection),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^weights w2 changed since"):
            call()
    with pytest.raises(ValueError, match="^weights w0 changed since"):
        union_one_lap_solve(u, b, 1e-6, state=union)
    # a state built on the new weights answers for them
    x, rep = one_lap_solve(c, h, b, 1e-6)
    assert rep.converged
    assert np.linalg.norm(one_laplacian(c) @ x - b) <= 1e-6 * np.linalg.norm(b)


@pytest.mark.parametrize("decades", [3, 4])
def test_spread_vertex_weights_converge_on_the_first_attempt(decades):
    # vertex weights log-uniform over 10^-decades .. 10^decades: the
    # gradient part of x dominates it, the down solve's product rounds at
    # up to 1e-9 relative, and neither costs a retry
    c, h = setup((6, 6, 6), 64)
    b = np.random.default_rng(0).standard_normal(c.num_edges)
    target = oracle_pi1(c) @ b          # Im L1 does not see the weights
    eps = 1e-6
    for seed in range(3):
        c.weights[0] = np.exp(np.random.default_rng(seed).uniform(
            -decades * np.log(10), decades * np.log(10), c.num_vertices))
        x, rep = one_lap_solve(c, h, b, eps)
        assert rep.converged and not rep.params["retried"]
        assert np.linalg.norm(c.lap1() @ x - target) \
            <= eps * np.linalg.norm(target)


def test_requests_neither_iterate_nor_factor_on_the_gradient_side(
        harmonic_case, monkeypatch):
    # the gradient projection is one solve with the vertex-Laplacian factor
    # built with the state
    solid, ring = harmonic_case("solid"), harmonic_case("ring")
    # every factorization, public or per block, goes through _factor_fronts
    real_pcg, real_fronts, seen = pcg_module.pcg, dissection._factor_fronts, []

    def pcg_spy(*args, **kwargs):
        x, rep = real_pcg(*args, **kwargs)
        seen.append(rep.stage)
        return x, rep

    def fronts_spy(*args, **kwargs):
        seen.append("cholesky")
        return real_fronts(*args, **kwargs)

    for mod in (pcg_module, dissection, downlap, uplap, upproj, onelap):
        for name, real, spy in (("pcg", real_pcg, pcg_spy),
                                ("_factor_fronts", real_fronts, fronts_spy)):
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, spy)
    for c, state, solve, _, _ in (solid, ring):
        b = np.random.default_rng(6).standard_normal(c.num_edges)
        solve(b, 1e-6)
        hodge_decompose(c, state.hollowing, b, 1e-6, state=state)
    assert "schur" in seen
    assert "down_projection" not in seen
    assert "cholesky" not in seen


def test_contract_at_fifteen_cubed():
    # past desk scale: the sphere's fast up solve and the shell's full
    # solve, each checked against Laplacians assembled apart from the
    # solvers' states, not against the residuals they report
    c = gen_grid(GridSpec((15, 15, 15)))
    r = c.num_simplexes ** 0.6
    rng = np.random.default_rng(15)
    eps = 1e-6
    lup = c.lap_up(1)
    b = lup @ rng.standard_normal(c.num_edges)
    x, _ = up_lap_solve_fast(c, sphere_hollowing(c, r, RELAXED), b, eps)
    assert np.linalg.norm(lup @ x - b) <= eps * np.linalg.norm(b)

    h = find_hollowing(c, r, RELAXED)
    state = build_one_lap_solver(c, h)
    assert state.harmonic.shape[1] == 0     # b1 = 0, so P1 b = b
    b = rng.standard_normal(c.num_edges)
    x, _ = one_lap_solve(c, h, b, eps, state=state)
    assert np.linalg.norm(c.lap1() @ x - b) <= eps * np.linalg.norm(b)
