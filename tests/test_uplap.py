import json

import numpy as np
import pytest
import scipy.sparse as sp

from tetlap import dissection, oracle, uplap
from tetlap.complexes import build_complex
from tetlap.hollowing import (HollowingConfig, find_hollowing,
                              sphere_hollowing, surface_hollowing)
from tetlap.downlap import GraphDownLap
from tetlap.errors import NumericalError, one_norm
from tetlap.meshgen import GridSpec, HoleSpec, gen_grid
from tetlap.pcg import generalized_ritz_extremes
from tetlap.onelap import (build_one_lap_solver, build_union_solver, glue,
                           one_lap_solve)
from tetlap.upproj import build_up_projection, up_project
from tetlap.uplap import (
    _disc_rows,
    _up_solve_with_state,
    _orient_discs,
    build_sphere_fast_solver,
    build_up_solver,
    schur_apply,
    schur_solve,
    up_lap_solve,
    up_lap_solve_fast,
)

RELAXED = HollowingConfig(min_shell_width=2, min_component_separation=2)


def grid_with_hollowing(dims=(5, 5, 5), r=64):
    c = gen_grid(GridSpec(dims))
    h = find_hollowing(c, r, RELAXED)
    return c, h


def wall_d2(c, h):
    """d2 over the boundary edges and triangles, as `_disc_rows` takes it."""
    return c.boundary(2).astype(float)[h.boundary_edges][:,
                                                        h.boundary_triangles]


def dense_schur(m, cset, fset):
    return m[np.ix_(cset, cset)] - m[np.ix_(cset, fset)] @ oracle.pinv(
        m[np.ix_(fset, fset)]) @ m[np.ix_(fset, cset)]


# -- block facts from random matrices -----------------------------------------

def test_three_factor_identity_reconstructs(rng):
    # PSD block factorization: lower * diag(blocks) * upper equals the matrix
    for _ in range(5):
        b = rng.standard_normal((8, 5))
        a = b @ b.T
        f, c = np.arange(4), np.arange(4, 8)
        aff_pinv = oracle.pinv(a[np.ix_(f, f)])
        lower = np.eye(8)
        lower[np.ix_(c, f)] = a[np.ix_(c, f)] @ aff_pinv
        mid = np.zeros((8, 8))
        mid[np.ix_(f, f)] = a[np.ix_(f, f)]
        mid[np.ix_(c, c)] = dense_schur(a, c, f)
        rec = lower @ mid @ lower.T
        assert np.linalg.norm(rec - a) <= 1e-10 * np.linalg.norm(a)


def test_schur_is_projected_kernel_form(rng):
    for _ in range(5):
        b = rng.standard_normal((9, 6))
        a = b @ b.T
        f, c = np.arange(5), np.arange(5, 9)
        bf, bc = b[f], b[c]
        pi_ker = np.eye(6) - oracle.pinv(bf) @ bf
        lhs = dense_schur(a, c, f)
        rhs = bc @ pi_ker @ bc.T
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(np.linalg.norm(lhs), 1e-30)


# -- building the solver --------------------------------------------------------

def test_single_region_degenerate_solver(rng):
    c = gen_grid(GridSpec((2, 2, 2)))
    h = find_hollowing(c, 280, RELAXED)
    state = build_up_solver(c, h)
    assert len(state.c_idx) == 0
    lup = c.lap_up(1)
    b = lup @ rng.standard_normal(c.num_edges)
    x, rep = up_lap_solve(c, h, b, eps=1e-8, state=state)
    assert np.linalg.norm(lup @ x - b) <= 1e-8 * np.linalg.norm(b)


def test_ff_block_is_region_diagonal():
    c, h = grid_with_hollowing()
    state = build_up_solver(c, h)
    lup = state.lup
    regions = h.interior_edges_by_region()
    for i, fi in enumerate(regions):
        for j, fj in enumerate(regions):
            if i < j and len(fi) and len(fj):
                assert lup[fi][:, fj].nnz == 0


def test_build_rejects_mismatched_hollowing():
    c, h = grid_with_hollowing()
    other = gen_grid(GridSpec((2, 2, 2)))
    with pytest.raises(ValueError, match="mismatch"):
        build_up_solver(other, h)


def test_f_solve_contract(rng):
    c, h = grid_with_hollowing()
    state = build_up_solver(c, h)
    nf = len(state.f_all)
    f_solve = state.interior.solve
    sizes = [len(f) for f in h.interior_edges_by_region()]
    blocks = np.split(np.arange(nf), np.cumsum(sizes)[:-1])
    assert np.array_equal(f_solve(np.zeros(nf)), np.zeros(nf))
    lff = state.lup[state.f_all][:, state.f_all]
    b_f = lff @ rng.standard_normal(nf)
    x = f_solve(b_f)
    assert np.linalg.norm(lff @ x - b_f) <= 1e-8 * np.linalg.norm(b_f)
    # zeroing one region's rhs keeps that region's solution at zero
    b_f2 = b_f.copy()
    b_f2[blocks[0]] = 0.0
    b_f2 = lff @ f_solve(lff @ rng.standard_normal(nf))
    b_region = np.zeros(nf)
    sl = blocks[1]
    b_region[sl] = (lff @ rng.standard_normal(nf))[sl]
    x3 = f_solve(b_region)
    assert np.allclose(x3[blocks[0]], 0.0)


def test_schur_apply_matches_dense_oracle(rng):
    c, h = grid_with_hollowing((4, 4, 4), 48)
    state = build_up_solver(c, h)
    lup = c.lap_up(1).toarray()
    cset, fset = state.c_idx, state.f_all
    sc = dense_schur(lup, cset, fset)
    assert np.array_equal(schur_apply(state, np.zeros(len(cset))),
                          np.zeros(len(cset)))
    for _ in range(5):
        v = rng.standard_normal(len(cset))
        got = schur_apply(state, v)
        want = sc @ v
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)
    for _ in range(100):
        v = rng.standard_normal(len(cset))
        assert v @ schur_apply(state, v) >= -1e-10 * (v @ v)


def glued_ring():
    """Four 3^3 boxes, each one surface-hollowed region, glued in a cycle
    along their x faces."""
    chunks = [gen_grid(GridSpec((3, 3, 3))) for _ in range(4)]
    groups = []
    for k, c in enumerate(chunks):
        nxt = chunks[(k + 1) % 4]
        lookup = {tuple(nxt.vertices[v, 1:]): int(v)
                  for v in np.flatnonzero(nxt.vertices[:, 0] == 0.0)}
        groups += [[(k, int(v)), ((k + 1) % 4, lookup[tuple(c.vertices[v, 1:])])]
                   for v in np.flatnonzero(c.vertices[:, 0] == 3.0)]
    return glue(chunks, groups, [surface_hollowing(c) for c in chunks])


def sphere_state():
    c = gen_grid(GridSpec((6, 6, 6)))
    return build_sphere_fast_solver(c, sphere_hollowing(c, 256))


def holed_state(dims, holes):
    c = gen_grid(GridSpec(dims, holes=holes))
    return build_up_solver(c, find_hollowing(c, 64, RELAXED))


def box_state(k, r=None):
    c = gen_grid(GridSpec((k, k, k)))
    return build_up_solver(
        c, find_hollowing(c, r or c.num_simplexes ** 0.6, RELAXED))


def projection_state(k):
    """The up projection's elimination, of the triangle Gram matrix."""
    c = gen_grid(GridSpec((k, k, k)))
    return build_up_projection(
        c, find_hollowing(c, c.num_simplexes ** 0.6, RELAXED))


SCHUR_STATES = {
    "box": lambda: box_state(4, 48),
    # big enough for regions whose interior reaches below the root front
    "box8": lambda: box_state(8),
    "sphere": sphere_state,
    "tunnel": lambda: holed_state(
        (6, 6, 6), [HoleSpec((2, 2, 0), (1, 1, 6), "tunnel")]),
    "two_tunnels": lambda: holed_state(
        (10, 4, 4), [HoleSpec((1, 1, 0), (1, 1, 4), "tunnel"),
                     HoleSpec((8, 1, 0), (1, 1, 4), "tunnel")]),
    "ring": lambda: build_union_solver(glued_ring()).up_state,
    "projection": lambda: projection_state(8),
}


def full_interior_schur_apply(state, x):
    """The Schur apply through a full interior solve over all of A[C, F]."""
    lup = state.lup
    l_cf = lup[state.c_idx][:, state.f_all].tocsr()
    l_fc = lup[state.f_all][:, state.c_idx].tocsr()
    return state.l_cc @ x - l_cf @ state.interior.solve(l_fc @ x)


@pytest.mark.parametrize("name", list(SCHUR_STATES))
def test_interface_rows_are_interior_root_rows(name):
    # every interior row that A[F, C] couples to the wall is pinned as its
    # region's root separator, so it lies in the interior factor's root
    state = SCHUR_STATES[name]()
    lup = state.lup
    l_fc = lup[state.f_all][:, state.c_idx].tocsr()
    coupled = np.flatnonzero(np.diff(l_fc.indptr))
    assert len(coupled)
    interior = state.interior
    pos = np.empty(interior.shape[0], dtype=np.int64)
    pos[interior.perm] = np.arange(interior.shape[0])
    assert np.isin(pos[coupled], interior.root.cols).all()


@pytest.mark.parametrize("name", list(SCHUR_STATES))
def test_schur_apply_equals_the_full_interior_solve(rng, name):
    # the interface rows sit in the root fronts, so solving through those
    # alone is the same arithmetic on the same rows
    state = SCHUR_STATES[name]()
    assert state.l_ic.nnz
    for _ in range(3):
        x = rng.standard_normal(len(state.c_idx))
        assert np.array_equal(schur_apply(state, x),
                              full_interior_schur_apply(state, x))


@pytest.mark.parametrize("name", ["box8", "sphere", "ring", "projection"])
def test_schur_apply_solves_through_the_interface_root_fronts(rng, monkeypatch,
                                                              name):
    # one packed pseudo-inverse product per root front, and no triangular
    # solve, level product or dense product
    state = SCHUR_STATES[name]()
    factor = state.interior
    roots = factor.root.ranks
    assert factor._nodes and roots and all(roots)
    calls = {"spmv": 0, "trtrs": 0, "level": 0, "gemm": 0}

    def counting(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return spy
    for key, attr in (("spmv", "_SPMV"), ("trtrs", "_TRTRS"),
                      ("level", "_level_update"), ("gemm", "_GEMM")):
        monkeypatch.setattr(dissection, attr,
                            counting(key, getattr(dissection, attr)))
    schur_apply(state, rng.standard_normal(len(state.c_idx)))
    assert calls == {"spmv": len(roots), "trtrs": 0, "level": 0, "gemm": 0}


def two_full_solves(state, b, delta_of):
    """(x, Schur iterations) of the block elimination with a full interior
    solve on each side of the Schur PCG, which runs to delta_of(h): one
    solve for the right-hand side h and one for the back substitution."""
    lup, f, cset = state.lup, state.f_all, state.c_idx
    y = state.interior.solve(b[f], check_image=False)
    h = b[cset] - lup[cset][:, f] @ y
    x_c, rep = schur_solve(state, h, delta_of(h), "schur")
    x = np.zeros_like(b)
    x[f] = state.interior.solve(b[f] - lup[f][:, cset] @ x_c,
                                check_image=False)
    x[cset] = x_c
    return x, rep.iterations


@pytest.mark.parametrize("name", list(SCHUR_STATES))
def test_one_forward_sweep_solves_like_two_full_interior_solves(rng, name):
    # the back substitution finishes the right-hand side's forward sweep:
    # the same Schur iterations, and an answer within rounding of the one
    # from two full interior solves
    state = SCHUR_STATES[name]()
    eps = 1e-8
    b = state.lup @ rng.standard_normal(state.lup.shape[0])
    x, rep = _up_solve_with_state(state, b, eps)
    want, iters = two_full_solves(
        state, b, lambda h: 0.5 * eps * np.linalg.norm(b) / np.linalg.norm(h))
    assert rep.stages["schur"].iterations == iters
    assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
    if name == "projection":
        f = rng.standard_normal(state.d2.shape[0])
        p, prep = up_project(state.complex, state.hollowing, f, eps, state)
        delta = eps / (2.0 * one_norm(state.lup))
        y, iters = two_full_solves(state, state.d2.T @ f, lambda h: delta)
        assert prep.stages["tri_schur"].iterations == iters
        want = state.d2 @ y
        assert np.linalg.norm(p - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("name", ["box8", "sphere"])
def test_up_solve_sweeps_each_interior_front_once_each_way(rng, monkeypatch,
                                                           name):
    # one forward and one backward substitution per front below the root;
    # the walls (folded, or the reduced system) substitute nothing
    state = SCHUR_STATES[name]()
    below = len(state.interior._nodes)
    assert below
    calls = {0: 0, 1: 0}
    real = dissection._TRTRS

    def spy(*args, trans, **kwargs):
        calls[trans] += 1
        return real(*args, trans=trans, **kwargs)
    monkeypatch.setattr(dissection, "_TRTRS", spy)
    b = state.lup @ rng.standard_normal(state.lup.shape[0])
    up_lap_solve(state.complex, state.hollowing, b, 1e-8, state)
    assert calls == {0: below, 1: below}


def test_reduced_wall_apply_makes_one_path_product_each_way(rng,
                                                            monkeypatch):
    wall = sphere_state().wall
    graph = wall.solver
    calls = {"path": 0, "path_t": 0, "solve": 0}

    class Counting:
        def __init__(self, key, matrix):
            self.key, self.matrix = key, matrix

        def __matmul__(self, v):
            calls[self.key] += 1
            return self.matrix @ v
    for key in ("path", "path_t"):
        monkeypatch.setattr(graph, key, Counting(key, getattr(graph, key)))
    real = GraphDownLap.solve

    def spy(self, b):
        calls["solve"] += 1
        return real(self, b)
    monkeypatch.setattr(GraphDownLap, "solve", spy)
    wall.solve(rng.standard_normal(wall.matrix.shape[0]))
    assert calls == {"path": 1, "path_t": 1, "solve": 0}


def test_reduced_wall_solves_columns_as_vectors(rng):
    wall = sphere_state().wall
    n = wall.matrix.shape[0]
    v = wall.matrix @ rng.standard_normal((n, 3))
    x = wall.solve(v)
    assert x.shape == (n, 3)
    for j in range(3):
        col = wall.solve(v[:, j])
        assert col.shape == (n,)
        assert np.linalg.norm(x[:, j] - col) <= 1e-13 * np.linalg.norm(col)


def test_schur_entry_points_reject_bad_input():
    # the 6^3 sphere at r = 64; each check names what it got and wanted
    c = gen_grid(GridSpec((6, 6, 6)))
    state = build_up_solver(c, sphere_hollowing(c, 64))
    n = len(state.c_idx)
    with pytest.raises(ValueError, match=rf"\({n + 1},\).*\({n},\)"):
        state.wall.solve(np.ones(n + 1))
    with pytest.raises(ValueError, match=rf"\({n - 1},\).*\({n},\)"):
        schur_apply(state, np.ones(n - 1))
    h = np.ones(n)
    h[3] = np.nan
    with pytest.raises(ValueError, match="h has non-finite"):
        schur_solve(state, h, 1e-6, "schur")
    with pytest.raises(ValueError, match=rf"h has shape \({n + 1},\)"):
        schur_solve(state, np.ones(n + 1), 1e-6, "schur")
    for delta in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="delta must be finite and "
                                             "positive"):
            schur_solve(state, np.ones(n), delta, "schur")


@pytest.mark.parametrize("kind", ["sphere", "shell"])
def test_up_solve_report_times_its_stages(rng, kind):
    # 12^3 sphere and 10^3 shell: the up stage of a 1-Laplacian solve
    # times its four parts, which make up nearly all of its total
    k = 12 if kind == "sphere" else 10
    c = gen_grid(GridSpec((k, k, k)))
    hollow = sphere_hollowing if kind == "sphere" else find_hollowing
    h = hollow(c, c.num_simplexes ** 0.6, RELAXED)
    state = build_one_lap_solver(c, h)
    _, report = one_lap_solve(c, h, rng.standard_normal(c.num_edges), 1e-6,
                              state)
    timings = report.stages["up_solve"].timings
    parts = ("forward", "schur", "back_substitute", "residual")
    assert sorted(timings) == sorted(parts + ("total",))
    assert all(timings[p] > 0.0 for p in timings)
    share = sum(timings[p] for p in parts) / timings["total"]
    assert 0.9 <= share <= 1.0
    written = json.loads(report.to_json())["stages"]["up_solve"]["timings"]
    assert written == timings


def reference_interface_edges(c, boundary_mask):
    """The interior edges that share a triangle with a wall edge: the
    interface rule before the pins were read off the pattern of Lup[F, C]."""
    cls = boundary_mask[c.tri_edges]
    mixed = cls.any(axis=1)
    interface = np.zeros(c.num_edges, dtype=bool)
    interface[c.tri_edges[mixed][~cls[mixed]]] = True
    return interface


@pytest.mark.parametrize("name", ["box", "two_tunnels", "sphere", "ring"])
def test_pinned_rows_are_the_edges_sharing_a_triangle_with_the_wall(name):
    state = SCHUR_STATES[name]()
    want = reference_interface_edges(state.complex,
                                     state.hollowing.edge_class < 0)
    got = state.f_all[state.interior.perm[state.interior.root.cols]]
    assert np.array_equal(np.sort(got), np.flatnonzero(want))


def test_each_factor_is_scheduled_once_per_build(monkeypatch):
    # per-region fronts are joined before any level is built, and the wall
    # is scheduled folded at once: the interior, the folded wall and the
    # vertex Laplacian on a box; the interior alone on the sphere path,
    # whose wall goes through the reduced system
    real, forms = dissection._schedule, []

    def spy(nodes, n, folded=False):
        forms.append(folded)
        return real(nodes, n, folded)
    monkeypatch.setattr(dissection, "_schedule", spy)
    build_one_lap_solver(*grid_with_hollowing())
    assert sorted(forms) == [False, False, True]
    forms.clear()
    sphere_state()
    assert forms == [False]


def test_schur_solve_matches_pinv_oracle(rng):
    c, h = grid_with_hollowing((4, 4, 4), 48)
    state = build_up_solver(c, h)
    lup = c.lap_up(1).toarray()
    sc = dense_schur(lup, state.c_idx, state.f_all)
    hv = sc @ rng.standard_normal(len(state.c_idx))
    delta = 1e-9
    x, rep = schur_solve(state, hv, delta, "schur")
    assert np.linalg.norm(sc @ x - hv) <= (delta + 1e-8) * np.linalg.norm(hv)
    x_oracle = oracle.pinv(sc) @ hv
    assert np.linalg.norm(sc @ (x - x_oracle)) <= (delta + 1e-8) * np.linalg.norm(hv)
    zero, _ = schur_solve(state, np.zeros(len(state.c_idx)), delta,
                          "schur")
    assert np.array_equal(zero, np.zeros(len(state.c_idx)))


def test_up_lap_solve_contract_and_oracle(rng):
    c, h = grid_with_hollowing((4, 4, 4), 48)
    state = build_up_solver(c, h)
    lup = c.lap_up(1)
    dense = lup.toarray()
    for eps in (1e-6, 1e-8):
        b = lup @ rng.standard_normal(c.num_edges)
        x, rep = up_lap_solve(c, h, b, eps, state=state)
        assert rep.final_residual <= eps * np.linalg.norm(b)
        x_oracle = oracle.pinv(dense) @ b
        assert np.linalg.norm(dense @ (x - x_oracle)) <= 2 * eps * np.linalg.norm(b)


def test_up_lap_solve_zero_rhs():
    c, h = grid_with_hollowing((4, 4, 4), 48)
    x, rep = up_lap_solve(c, h, np.zeros(c.num_edges), 1e-8)
    assert not x.any()


def test_eps_below_roundoff_is_named_as_the_cause():
    # float64 cannot certify eps = 1e-15 here: the up solve's residual sits
    # at the roundoff floor u |Lup|_1 |x|, although b_up is in the image
    c = gen_grid(GridSpec((5, 5, 5)))
    h = find_hollowing(c, c.num_simplexes ** 0.6, RELAXED)
    b = np.random.default_rng(0).standard_normal(c.num_edges)
    with pytest.raises(NumericalError,
                       match="eps = 1.0e-15 is below the attainable accuracy"):
        one_lap_solve(c, h, b, 1e-15)


def test_rhs_with_a_gradient_part_is_named_off_image(rng):
    c = gen_grid(GridSpec((5, 5, 5)))
    h = find_hollowing(c, c.num_simplexes ** 0.6, RELAXED)
    b = c.lap_up(1) @ rng.standard_normal(c.num_edges)
    g = c.boundary(1).T @ rng.standard_normal(c.num_vertices)
    b += 1e-2 * np.linalg.norm(b) * g / np.linalg.norm(g)
    with pytest.raises(NumericalError, match=r"\(b outside the image\?\)$"):
        up_lap_solve(c, h, b, 1e-6)


def test_stalled_schur_pcg_stops_and_names_the_floor(monkeypatch):
    # Lup h for a harmonic h is rounding error with a part in ker Lup, so
    # the Schur PCG's true residual stops falling far above the target; it
    # used to iterate on to max_iters (1,056 iterations)
    c = gen_grid(GridSpec((6, 6, 6),
                          holes=[HoleSpec((2, 2, 0), (1, 1, 6), "tunnel")]))
    h = find_hollowing(c, 64, RELAXED)
    state = build_one_lap_solver(c, h)
    real, traces, shares = uplap.pcg, [], []

    def spy(*args, **kwargs):
        x, rep = real(*args, **kwargs)
        traces.append(rep.residual_trace)
        shares.append(rep.final_residual / np.linalg.norm(args[2]))
        return x, rep
    monkeypatch.setattr(uplap, "pcg", spy)
    b = state.up_state.lup @ state.harmonic[:, 0]
    with pytest.raises(NumericalError, match=r"stopped falling.*roundoff "
                       r"floor u \* \|A\|_1 \* \|x\| = ") as caught:
        _up_solve_with_state(state.up_state, b, 1e-6)
    # the true-residual checks, then the final residual
    checks = traces[-1][1:]
    assert len(checks) - 1 - int(np.argmin(checks)) <= 3
    # the message names the stalled share of |h|, the part of the
    # right-hand side outside the image, which the floor does not show
    assert (f"stalled at {shares[-1]:.2e} of |h|: that share of h lies "
            "outside the image" in str(caught.value))
    assert shares[-1] > 1e-3


def test_up_lap_solve_single_tet(rng):
    c = build_complex([[0, 1, 2, 3]],
                      [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    h = find_hollowing(c, 10, RELAXED)
    lup = c.lap_up(1)
    b = lup @ rng.standard_normal(6)
    x, _ = up_lap_solve(c, h, b, 1e-10)
    assert np.linalg.norm(lup @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_up_lap_solve_weighted(rng):
    c = gen_grid(GridSpec((4, 4, 4)))
    c.weights[2] = rng.uniform(0.5, 2.0, c.num_triangles)
    h = find_hollowing(c, 48, RELAXED)
    lup = c.lap_up(1)
    b = lup @ rng.standard_normal(c.num_edges)
    x, rep = up_lap_solve(c, h, b, 1e-6)
    assert np.linalg.norm(lup @ x - b) <= 1e-6 * np.linalg.norm(b)


def test_up_lap_solve_cavity_oracle(rng):
    c = gen_grid(GridSpec((6, 6, 6), holes=[HoleSpec((2, 2, 2), (1, 1, 1))]))
    h = find_hollowing(c, 64, RELAXED)
    assert h.num_regions > 1
    lup = c.lap_up(1)
    dense = lup.toarray()
    b = lup @ rng.standard_normal(c.num_edges)
    x, rep = up_lap_solve(c, h, b, 1e-6)
    assert rep.final_residual <= 1e-6 * np.linalg.norm(b)
    x_oracle = oracle.pinv(dense) @ b
    assert np.linalg.norm(dense @ (x - x_oracle)) <= 1e-4 * np.linalg.norm(b)


# -- spectral bounds -----------------------------------------------------------

def test_preconditioner_lower_bound_and_kappa(rng):
    c, h = grid_with_hollowing((5, 5, 5), 64)
    state = build_up_solver(c, h)
    lup = c.lap_up(1).toarray()
    sc = dense_schur(lup, state.c_idx, state.f_all)
    bt = h.boundary_triangles
    d2c = c.boundary(2).toarray().astype(float)[state.c_idx][:, bt]
    lt = d2c @ np.diag(c.weights[2][bt]) @ d2c.T
    w, v = np.linalg.eigh(lt)
    keep = w > 1e-10 * w.max()
    basis = v[:, keep] / np.sqrt(w[keep])
    ritz = np.linalg.eigvalsh(basis.T @ sc @ basis)
    assert ritz.min() >= 1 - 1e-6
    assert ritz.max() / ritz.min() <= 64 * h.r
    lo, hi = generalized_ritz_extremes(lambda v: schur_apply(state, v),
                                       state.wall.solve, len(state.c_idx),
                                       iters=60)
    assert hi / lo <= 1.05 * ritz.max() / ritz.min()


# -- sphere fast path -----------------------------------------------------------

def test_fast_solver_requires_sphere():
    c, h = grid_with_hollowing()
    with pytest.raises(ValueError, match="sphere"):
        build_sphere_fast_solver(c, h)


def test_reduced_rows_have_unit_pair_structure():
    c = gen_grid(GridSpec((6, 6, 6)))
    h = sphere_hollowing(c, 256)
    assert h.num_regions > 1
    _, _, b1 = _disc_rows(h, wall_d2(c, h))
    for i in range(b1.shape[0]):
        row = b1.data[b1.indptr[i]:b1.indptr[i + 1]]
        assert sorted(row) == [-1.0, 1.0]


def test_reduced_preconditioner_solves_wall_system(rng):
    c = gen_grid(GridSpec((6, 6, 6)))
    h = sphere_hollowing(c, 256)
    state = build_sphere_fast_solver(c, h)
    lt = state.wall.matrix
    bt = h.boundary_triangles
    d2c = c.boundary(2).astype(float)[state.c_idx][:, bt]
    for _ in range(5):
        b = d2c @ rng.standard_normal(len(bt))
        x = state.wall.solve(b)
        assert np.linalg.norm(lt @ x - b) <= 1e-8 * np.linalg.norm(b)


def test_wall_bytes_for_either_wall_kind():
    # sphere hollowings get the reduced wall, which stores its graph solver
    # and its dense Schur block; shells, surfaces and glued unions get the
    # folded wall, which stores its levels; neither counts the wall matrix
    c = gen_grid(GridSpec((6, 6, 6)))
    reduced = build_up_solver(c, sphere_hollowing(c, 256)).wall
    assert isinstance(reduced, uplap.BlockFactor)
    own = [reduced.rows, reduced.shared, reduced.schur_pinv,
           reduced.path_coupling.data, reduced.path_coupling.indices,
           reduced.path_coupling.indptr]
    assert len(reduced.shared) and reduced.nbytes == \
        reduced.solver.nbytes + sum(a.nbytes for a in own)
    assert reduced.solver.nbytes > reduced.solver.path.data.nbytes > 0
    shell = find_hollowing(c, 256, RELAXED)
    union = glue([c], [], [shell])
    for cx, h in ((c, shell), (c, surface_hollowing(c)),
                  (union.complex, union.hollowing)):
        folded = build_up_solver(cx, h).wall
        assert isinstance(folded, dissection.CholeskyFactor) and folded.folded
        assert folded.nbytes > 0


def test_fast_and_slow_paths_meet_same_contract(rng):
    c = gen_grid(GridSpec((6, 6, 6)))
    hs = sphere_hollowing(c, 256)
    lup = c.lap_up(1)
    b = lup @ rng.standard_normal(c.num_edges)
    eps = 1e-8
    x_fast, rep_fast = up_lap_solve_fast(c, hs, b, eps)
    assert np.linalg.norm(lup @ x_fast - b) <= eps * np.linalg.norm(b)
    hshell = find_hollowing(c, 256, RELAXED)
    x_slow, rep_slow = up_lap_solve(c, hshell, b, eps)
    assert np.linalg.norm(lup @ x_slow - b) <= eps * np.linalg.norm(b)


# -- disc rows against the depth-first reference -------------------------------

def reference_orient_discs(d2tb, disc_of, e1_mask):
    """_orient_discs as a depth-first search from each unsigned triangle in
    index order."""
    nt = d2tb.shape[1]
    signs = np.zeros(nt)
    csr = d2tb.tocsr()
    csc = d2tb.tocsc()
    for start in range(nt):
        if signs[start] != 0.0:
            continue
        signs[start] = 1.0
        stack = [start]
        while stack:
            t = stack.pop()
            lo, hi = csc.indptr[t], csc.indptr[t + 1]
            for e, val in zip(csc.indices[lo:hi], csc.data[lo:hi]):
                if not e1_mask[e]:
                    continue
                elo, ehi = csr.indptr[e], csr.indptr[e + 1]
                for t2, val2 in zip(csr.indices[elo:ehi], csr.data[elo:ehi]):
                    if t2 == t or disc_of[t2] != disc_of[t]:
                        continue
                    want = -signs[t] * val * val2
                    if signs[t2] == 0.0:
                        signs[t2] = want
                        stack.append(t2)
                    elif signs[t2] != want:
                        raise NumericalError("disc is not orientable")
    return signs


def reference_disc_rows(c, h):
    """_disc_rows with the disc signatures held in per-edge sets."""
    c_idx = h.boundary_edges
    bt = h.boundary_triangles
    d2tb = c.boundary(2).astype(float)[c_idx][:, bt].tocsr()
    disc_of = h.tri_disc[bt]
    coo = d2tb.tocoo()
    edge_discs = {}
    for e_local, t_local in zip(coo.row, coo.col):
        edge_discs.setdefault(e_local, set()).add(int(disc_of[t_local]))
    e1_mask = np.array([len(edge_discs.get(e, ())) == 1
                        for e in range(len(c_idx))], dtype=bool)
    signs = reference_orient_discs(d2tb, disc_of, e1_mask)
    b1 = (d2tb @ sp.diags(signs))[e1_mask].tocsr()
    groups = {}
    for e_local in np.flatnonzero(~e1_mask):
        groups.setdefault(frozenset(edge_discs.get(e_local, ())),
                          []).append(e_local)
    e2hat_local = np.array(sorted(min(g) for g in groups.values()),
                           dtype=np.int64)
    return np.flatnonzero(e1_mask), e2hat_local, b1


@pytest.mark.parametrize("k", [6, 8, 12, 16])
def test_disc_rows_match_reference(k):
    c = gen_grid(GridSpec((k, k, k)))
    h = sphere_hollowing(c, c.num_simplexes ** 0.6, RELAXED)
    got = _disc_rows(h, wall_d2(c, h))
    want = reference_disc_rows(c, h)
    for a, b in zip(got[:2], want[:2]):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    for name in ("shape", "indptr", "indices", "data"):
        assert np.array_equal(getattr(got[2], name), getattr(want[2], name))


def test_disc_with_an_odd_cycle_of_flips_is_not_orientable():
    # three triangles in a cycle; consistent signs need each shared edge
    # to hold one +1 and one -1, and the last edge holds two +1s
    d2tb = sp.csr_matrix(np.array([[1.0, -1.0, 0.0],
                                   [0.0, 1.0, -1.0],
                                   [1.0, 0.0, 1.0]]))
    disc_of = np.zeros(3, dtype=np.int64)
    e1_mask = np.ones(3, dtype=bool)
    with pytest.raises(NumericalError, match="disc is not orientable"):
        _orient_discs(d2tb, disc_of, e1_mask)
    d2tb[2, 0] = -1.0
    assert np.array_equal(_orient_discs(d2tb, disc_of, e1_mask), np.ones(3))
