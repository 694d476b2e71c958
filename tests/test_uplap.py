import numpy as np
import pytest
import scipy.sparse as sp

from tetlap import oracle
from tetlap.complexes import build_complex
from tetlap.dissection import pinv_via_pivoted_qr
from tetlap.hollowing import HollowingConfig, find_hollowing, sphere_hollowing
from tetlap.meshgen import GridSpec, HoleSpec, gen_grid
from tetlap.uplap import (
    _disc_rows,
    build_sphere_fast_solver,
    build_up_solver,
    schur_apply,
    schur_condition_estimate,
    schur_solve,
    up_lap_solve,
    up_lap_solve_fast,
)

RELAXED = HollowingConfig(min_shell_width=2, min_component_separation=2)


def grid_with_hollowing(dims=(5, 5, 5), r=64):
    c = gen_grid(GridSpec(dims))
    h = find_hollowing(c, r, RELAXED)
    return c, h


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
    regions = [state.f_all[blk] for blk in state.interior.blocks]
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
    blocks = state.interior.blocks
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


def test_schur_solve_matches_pinv_oracle(rng):
    c, h = grid_with_hollowing((4, 4, 4), 48)
    state = build_up_solver(c, h)
    lup = c.lap_up(1).toarray()
    sc = dense_schur(lup, state.c_idx, state.f_all)
    hv = sc @ rng.standard_normal(len(state.c_idx))
    delta = 1e-9
    x, rep = schur_solve(state, hv, delta)
    assert np.linalg.norm(sc @ x - hv) <= (delta + 1e-8) * np.linalg.norm(hv)
    x_oracle = oracle.pinv(sc) @ hv
    assert np.linalg.norm(sc @ (x - x_oracle)) <= (delta + 1e-8) * np.linalg.norm(hv)
    zero, _ = schur_solve(state, np.zeros(len(state.c_idx)), delta)
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
    est = schur_condition_estimate(state)
    assert est <= 1.05 * ritz.max() / ritz.min()


# -- sphere fast path -----------------------------------------------------------

def test_fast_solver_requires_sphere():
    c, h = grid_with_hollowing()
    with pytest.raises(ValueError, match="sphere"):
        build_sphere_fast_solver(c, h)


def test_reduced_rows_have_unit_pair_structure():
    c = gen_grid(GridSpec((6, 6, 6)))
    h = sphere_hollowing(c, 256)
    assert h.num_regions > 1
    _, _, b1 = _disc_rows(c, h)
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


def test_pinv_via_pivoted_qr_matches_svd(rng):
    for shape, rank in [((6, 6), 6), ((7, 7), 4), ((5, 5), 2)]:
        b = rng.standard_normal((shape[0], rank))
        a = b @ b.T
        got = pinv_via_pivoted_qr(a)
        want = np.linalg.pinv(a, rcond=1e-12)
        assert np.linalg.norm(got - want) <= 1e-8 * max(np.linalg.norm(want), 1)
