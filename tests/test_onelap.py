import dataclasses
import pickle

import numpy as np
import pytest

from tetlap import dissection, oracle
from tetlap.complexes import one_laplacian
from tetlap.downlap import down_projection
from tetlap.hollowing import (
    HollowingConfig,
    check_hollowing,
    find_hollowing,
    surface_hollowing,
)
from tetlap.meshgen import GridSpec, HoleSpec, gen_grid
from tetlap.onelap import (
    betti_numbers,
    build_one_lap_solver,
    build_union_solver,
    glue,
    hodge_decompose,
    one_lap_solve,
    union_one_lap_solve,
)
from tetlap.uplap import up_lap_solve, up_lap_solve_fast
from tetlap.upproj import up_project

RELAXED = HollowingConfig(min_shell_width=2, min_component_separation=2)


def setup(dims=(4, 4, 4), r=48, holes=()):
    c = gen_grid(GridSpec(dims, holes=list(holes)))
    h = find_hollowing(c, r, RELAXED)
    return c, h


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


def test_one_lap_matches_oracle_cavity(rng):
    c, h = setup((6, 6, 6), 64, [HoleSpec((2, 2, 2), (1, 1, 1))])
    state = build_one_lap_solver(c, h)
    lap1 = c.lap1().toarray()
    pi1 = oracle_pi1(c)
    eps = 1e-6
    b = rng.standard_normal(c.num_edges)
    x, rep = one_lap_solve(c, h, b, eps, state=state)
    target = pi1 @ b
    assert np.linalg.norm(lap1 @ x - target) <= eps * np.linalg.norm(target)
    x_oracle = oracle.pinv(lap1) @ target
    diff = x - x_oracle
    assert np.sqrt(diff @ lap1 @ diff) <= 1e-4 * np.linalg.norm(target)


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


ENTRY_POINTS = {
    "one_lap_solve": lambda c, h, u, v: one_lap_solve(c, h, v, 1e-6),
    "union_one_lap_solve": lambda c, h, u, v: union_one_lap_solve(u, v, 1e-6),
    "hodge_decompose": lambda c, h, u, v: hodge_decompose(c, h, v, 1e-6),
    "up_lap_solve": lambda c, h, u, v: up_lap_solve(c, h, v, 1e-6),
    "up_lap_solve_fast": lambda c, h, u, v: up_lap_solve_fast(c, h, v, 1e-6),
    "up_project": lambda c, h, u, v: up_project(c, h, v, 1e-6),
    "down_projection": lambda c, h, u, v: down_projection(c, v, 1e-6),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
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
        ENTRY_POINTS[entry](c, h, u, v)


@pytest.mark.parametrize("field", ["edge_class", "tri_class", "tet_region"])
def test_mislabelled_hollowing_rejected_before_factoring(monkeypatch, field):
    c, h = setup()
    labels = getattr(h, field)
    labels[np.flatnonzero(labels >= 0)[0]] = {
        "edge_class": h.num_regions + 3, "tri_class": 99, "tet_region": -2}[field]

    def no_factor(*args, **kwargs):
        raise AssertionError("factored before checking the hollowing")
    monkeypatch.setattr(dissection, "cholesky", no_factor)
    with pytest.raises(ValueError, match=f"hollowing {field} has class"):
        one_lap_solve(c, h, np.ones(c.num_edges), 1e-6)


def test_check_hollowing_names_a_wrong_length():
    c, h = setup()
    check_hollowing(c, h)
    h.tri_disc = np.full(c.num_triangles - 1, -1)
    with pytest.raises(ValueError, match="hollowing tri_disc has shape"):
        check_hollowing(c, h)


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
