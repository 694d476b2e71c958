import numpy as np
import pytest

from tetlap import oracle, uplap
from tetlap.downlap import build_down_state, down_projection
from tetlap.errors import NumericalError, UnsupportedGeometryError
from tetlap.hollowing import HollowingConfig, find_hollowing, sphere_hollowing
from tetlap.meshgen import GridSpec, HoleSpec, gen_grid
from tetlap.onelap import build_one_lap_solver, hodge_decompose
from tetlap.upproj import build_up_projection, up_project

RELAXED = HollowingConfig(min_shell_width=2, min_component_separation=2)


def setup(dims=(4, 4, 4), r=48, holes=()):
    c = gen_grid(GridSpec(dims, holes=list(holes)))
    h = find_hollowing(c, r, RELAXED)
    return c, h, build_up_projection(c, h)


def oracle_up_projection(c):
    return oracle.projection(c.boundary(2).toarray().astype(float))


def test_down2_schur_matches_dense_oracle(rng):
    c, h, state = setup()
    d2 = c.boundary(2).toarray().astype(float)
    fset, cset = state.f_all, state.c_idx
    gram = d2.T @ d2
    sc = gram[np.ix_(cset, cset)] - gram[np.ix_(cset, fset)] @ oracle.pinv(
        gram[np.ix_(fset, fset)]) @ gram[np.ix_(fset, cset)]
    # the up solve's Schur apply and PCG, run on the triangle Gram matrix
    v = rng.standard_normal(len(cset))
    got = uplap.schur_apply(state, v)
    assert np.linalg.norm(got - sc @ v) <= 1e-8 * np.linalg.norm(sc @ v)

    hv = sc @ rng.standard_normal(len(cset))
    delta = 1e-9
    x, rep = uplap.schur_solve(state, hv, delta, "tri_schur")
    assert np.linalg.norm(sc @ x - hv) <= (delta + 1e-8) * np.linalg.norm(hv)
    x_oracle = oracle.pinv(sc) @ hv
    assert np.linalg.norm(sc @ (x - x_oracle)) <= (delta + 1e-8) * np.linalg.norm(hv)
    zero, _ = uplap.schur_solve(state, np.zeros(len(cset)), delta,
                                "tri_schur")
    assert not zero.any()


def test_projection_pcg_reports_under_its_own_stage(rng):
    # the up projection's triangle Schur PCG and the up solve's Schur PCG
    # name their own stages, the empty case's report included
    c, h, state = setup()
    b = rng.standard_normal(c.num_edges)
    _, report = up_project(c, h, b, 1e-8, state=state)
    assert report.stages["tri_schur"].stage == "tri_schur"
    up_state = uplap.build_up_solver(c, h)
    _, report = uplap.up_lap_solve(c, h, up_state.lup @ b, 1e-8,
                                   state=up_state)
    assert report.stages["schur"].stage == "schur"
    # the empty case: one region and no wall rows
    _, _, bare = setup((2, 2, 2), 280)
    assert len(bare.c_idx) == 0
    for name in ("schur", "tri_schur"):
        _, empty = uplap.schur_solve(bare, np.zeros(0), 1e-8, name)
        assert empty.stage == name


def two_term_formula(c, fset, cset):
    d2 = c.boundary(2).toarray().astype(float)
    proj_f = oracle.projection(d2[:, fset]) if len(fset) \
        else np.zeros((c.num_edges, c.num_edges))
    ker_f = np.eye(c.num_edges) - proj_f
    gram = d2.T @ d2
    sc = gram[np.ix_(cset, cset)] - gram[np.ix_(cset, fset)] @ oracle.pinv(
        gram[np.ix_(fset, fset)]) @ gram[np.ix_(fset, cset)]
    return proj_f + ker_f @ d2[:, cset] @ oracle.pinv(sc) @ d2[:, cset].T @ ker_f


def test_two_term_projection_formula_matches_oracle(rng):
    # the split-projection identity holds for any triangle partition
    c, h, state = setup((4, 4, 4), 48)
    two_term = two_term_formula(c, state.f_all, state.c_idx)
    target = oracle_up_projection(c)
    assert np.linalg.norm(two_term - target) <= 1e-8 * np.linalg.norm(target)

    for dims in ((3, 3, 3), (4, 3, 2), (2, 2, 2)):
        c = gen_grid(GridSpec(dims))
        cset = np.flatnonzero(rng.random(c.num_triangles) < 0.3)
        fset = np.setdiff1d(np.arange(c.num_triangles), cset)
        two_term = two_term_formula(c, fset, cset)
        target = oracle_up_projection(c)
        assert np.linalg.norm(two_term - target) <= 1e-8 * np.linalg.norm(target)


def test_up_project_fixes_curls(rng):
    c, h, state = setup()
    b = c.boundary(2).astype(float) @ rng.standard_normal(c.num_triangles)
    p, _ = up_project(c, h, b, eps=1e-8, state=state)
    assert np.linalg.norm(p - b) <= 1e-8 * np.linalg.norm(b)


def test_up_project_kills_gradients(rng):
    c, h, state = setup()
    b = c.boundary(1).T.astype(float) @ rng.standard_normal(c.num_vertices)
    p, _ = up_project(c, h, b, eps=1e-8, state=state)
    assert np.linalg.norm(p) <= 1e-8 * np.linalg.norm(b)


def test_up_project_matches_oracle_on_cavity_mesh(rng):
    c, h, state = setup((6, 6, 6), 64, [HoleSpec((2, 2, 2), (1, 1, 1))])
    target_proj = oracle_up_projection(c)
    for eps in (1e-6,):
        b = rng.standard_normal(c.num_edges)
        p, _ = up_project(c, h, b, eps, state=state)
        want = target_proj @ b
        assert np.linalg.norm(p - want) <= eps * np.linalg.norm(want)


def test_up_project_output_in_image(rng):
    c, h, state = setup()
    proj = oracle_up_projection(c)
    b = rng.standard_normal(c.num_edges)
    p, _ = up_project(c, h, b, eps=1e-4, state=state)
    assert np.linalg.norm(p - proj @ p) <= 1e-6 * np.linalg.norm(p)


def test_triangle_schur_preconditioner_kappa(rng):
    c, h, state = setup((5, 5, 5), 64)
    d2 = c.boundary(2).toarray().astype(float)
    fset, cset = state.f_all, state.c_idx
    gram = d2.T @ d2
    sc = gram[np.ix_(cset, cset)] - gram[np.ix_(cset, fset)] @ oracle.pinv(
        gram[np.ix_(fset, fset)]) @ gram[np.ix_(fset, cset)]
    m = gram[np.ix_(cset, cset)]
    # generalized Ritz values of (Sc, M) over the image of Sc
    w, v = np.linalg.eigh(m)
    keep = w > 1e-10 * w.max()
    basis = v[:, keep] / np.sqrt(w[keep])
    ritz = np.linalg.eigvalsh(basis.T @ sc @ basis)
    ritz = ritz[ritz > 1e-8]
    assert ritz.max() / ritz.min() <= 64 * h.r


def betti0_projection(c, b):
    """The projection onto Im(Lup) when b1 = 0: b less its gradient part."""
    return b - down_projection(c, b, state=build_down_state(c))


def test_betti0_projection_solid_box(rng):
    c = gen_grid(GridSpec((3, 3, 3)))
    b_curl = c.boundary(2).astype(float) @ rng.standard_normal(c.num_triangles)
    p = betti0_projection(c, b_curl)
    assert np.linalg.norm(p - b_curl) <= 1e-7 * np.linalg.norm(b_curl)

    proj = oracle_up_projection(c)
    b = rng.standard_normal(c.num_edges)
    p = betti0_projection(c, b)
    want = proj @ b
    assert np.linalg.norm(p - want) <= 1e-8 * np.linalg.norm(want)


def test_betti0_projection_documented_misuse_on_tunnel(rng):
    c = gen_grid(GridSpec((4, 4, 4), holes=[HoleSpec((1, 1, 0), (1, 1, 4),
                                                     "tunnel")]))
    lap1 = c.lap1().toarray()
    harm = oracle.kernel_basis(lap1)
    assert harm.shape[1] == 1  # beta_1 = 1
    proj = oracle_up_projection(c)
    b = rng.standard_normal(c.num_edges)
    p = betti0_projection(c, b)
    gap = p - proj @ b
    harm_part = harm @ (harm.T @ b)
    assert np.linalg.norm(gap - harm_part) <= 1e-6 * np.linalg.norm(b)
    assert np.linalg.norm(gap) >= 1e-3 * np.linalg.norm(b)


def test_sphere_hollowing_regions_couple_and_are_unsupported():
    # neighbouring sphere regions share wall edges between their interior
    # triangles, so their triangle Gram blocks couple
    c = gen_grid(GridSpec((6, 6, 6)))
    h = sphere_hollowing(c, 256)
    with pytest.raises(UnsupportedGeometryError,
                       match="couples their triangle Gram blocks; the up "
                             "projection needs uncoupled region interiors"):
        build_up_projection(c, h)
    # a single-region sphere hollowing has no pair of regions to couple
    c = gen_grid(GridSpec((4, 4, 4)))
    h = sphere_hollowing(c, 1000)
    assert h.num_regions == 1
    assert len(h.interior_triangles_by_region()) == 1
    assert build_up_projection(c, h).interior.shape[0] == np.sum(
        h.tri_class == 0)


def test_projection_tolerance_ignores_triangle_weights():
    # the projection does not see weights, so its inner tolerance must not
    # loosen when the triangle weights are small
    c = gen_grid(GridSpec((6, 6, 6)))
    h = find_hollowing(c, 64, RELAXED)
    c.weights[2] = np.full(c.num_triangles, 1e-4)
    state = build_one_lap_solver(c, h)
    proj_state = build_up_projection(c, h)
    p_exact = oracle_up_projection(c)
    eps = 1e-6
    rng = np.random.default_rng(0)
    for _ in range(5):
        b = rng.standard_normal(c.num_edges)
        want = p_exact @ b
        p, _ = up_project(c, h, b, eps, state=proj_state)
        assert np.linalg.norm(p - want) <= eps * np.linalg.norm(want)
        _, curl, _ = hodge_decompose(c, h, b, eps, state=state)
        assert np.linalg.norm(curl - want) <= eps * np.linalg.norm(want)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_eps_below_roundoff_is_named_as_the_cause(seed):
    # eps = 1e-15 asks the triangle Schur PCG for a relative residual
    # below float64 roundoff, where it breaks down as "not PSD"
    c, h, state = setup((5, 5, 5), 48)
    b = np.random.default_rng(seed).standard_normal(c.num_edges)
    with pytest.raises(NumericalError,
                       match="eps = 1.0e-15 is below the attainable accuracy"):
        up_project(c, h, b, 1e-15, state=state)
