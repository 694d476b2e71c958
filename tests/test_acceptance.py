"""Acceptance suite: one test per criterion, each printed as a pass/fail
line with its measured quantity.  Every tolerance is pinned here, not
derived at run time.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import numpy as np
import pytest

from tetlap import oracle
from tetlap.complexes import validate
from tetlap.downlap import down_lap_solve
from tetlap.errors import UnsupportedGeometryError
from tetlap.hollowing import HollowingConfig, find_hollowing, sphere_hollowing, \
    surface_hollowing
from tetlap.meshgen import GridSpec, HoleSpec, gen_grid
from tetlap.onelap import (
    betti_numbers,
    build_one_lap_solver,
    glue,
    hodge_decompose,
    one_lap_solve,
    union_one_lap_solve,
)
from tetlap.pcg import LinearOperator, generalized_ritz_extremes
from tetlap.uplap import (
    build_sphere_fast_solver,
    build_up_solver,
    schur_operator,
    schur_solve,
    up_lap_solve,
    up_lap_solve_fast,
)
from tetlap.upproj import build_up_projection, up_project

RELAXED = HollowingConfig(min_shell_width=2, min_component_separation=2)
SEED = 20240901


def report(criterion, passed, detail):
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def any_hollowing(c, r):
    try:
        h = find_hollowing(c, r, RELAXED)
        if h.num_regions > 1:
            return h
    except UnsupportedGeometryError:
        pass
    return surface_hollowing(c)


@pytest.fixture(scope="module")
def mesh_corpus():
    specs = [
        GridSpec((1, 1, 1)), GridSpec((2, 1, 1)), GridSpec((2, 2, 1)),
        GridSpec((2, 2, 2)), GridSpec((3, 2, 2)), GridSpec((3, 3, 2)),
        GridSpec((3, 3, 3)), GridSpec((4, 3, 3)), GridSpec((4, 4, 3)),
        GridSpec((4, 4, 4)), GridSpec((5, 4, 4)), GridSpec((5, 5, 5)),
        GridSpec((6, 4, 4)), GridSpec((6, 6, 6)), GridSpec((8, 8, 8)),
        GridSpec((4, 4, 4), holes=[HoleSpec((1, 1, 1), (1, 1, 1))]),
        GridSpec((5, 5, 5), holes=[HoleSpec((2, 2, 2), (1, 1, 1))]),
        GridSpec((6, 6, 6), holes=[HoleSpec((2, 2, 2), (1, 1, 1))]),
        GridSpec((4, 4, 4), holes=[HoleSpec((1, 1, 0), (1, 1, 4), "tunnel")]),
        GridSpec((5, 5, 5), holes=[HoleSpec((2, 2, 0), (1, 1, 5), "tunnel")]),
        GridSpec((6, 6, 6), holes=[HoleSpec((2, 2, 0), (1, 1, 6), "tunnel")]),
    ]
    return [(spec, gen_grid(spec)) for spec in specs]


def test_criterion_01_structural_exactness(mesh_corpus):
    rng = np.random.default_rng(SEED)
    count = 0
    worst = 0
    for spec, c in mesh_corpus:
        if count == 3:  # exercise the weighted regime on one mesh
            c.weights[2] = rng.uniform(0.5, 2.0, c.num_triangles)
        d1, d2, d3 = c.boundary(1), c.boundary(2), c.boundary(3)
        worst = max(worst, (d1 @ d2).count_nonzero(), (d2 @ d3).count_nonzero())
        assert validate(c) == []
        count += 1
    report(1, count >= 20 and worst == 0,
           f"d1 d2 = 0 and d2 d3 = 0 exactly (integer) on {count} meshes "
           f"including cavity and tunnel variants")


def test_criterion_02_oracle_equivalence(mesh_corpus):
    rng = np.random.default_rng(SEED + 2)
    eps = 1e-6
    checked = 0
    worst_ratio = 0.0
    slowest = 0.0
    for spec, c in mesh_corpus:
        if c.num_simplexes > 2000:
            continue
        h = any_hollowing(c, float(c.num_simplexes) ** 0.6)
        t0 = time.perf_counter()
        state = build_one_lap_solver(c, h)
        lap1 = c.lap1().toarray()
        pi1 = oracle.projection(lap1)
        for _ in range(20):
            b = rng.standard_normal(c.num_edges)
            x, _ = one_lap_solve(c, h, b, eps, state=state)
            target = pi1 @ b
            ratio = np.linalg.norm(lap1 @ x - target) / np.linalg.norm(target)
            worst_ratio = max(worst_ratio, ratio)
        slowest = max(slowest, time.perf_counter() - t0)
        checked += 1
    report(2, checked >= 5 and worst_ratio <= eps and slowest < 300,
           f"{checked} meshes <= 2000 simplexes, 20 random rhs each: worst "
           f"|L1 x - P1 b| / |P1 b| = {worst_ratio:.2e} <= {eps:.0e}, "
           f"slowest mesh {slowest:.1f}s")


def test_criterion_03_down_solver_exactness(mesh_corpus):
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    meshes = 0
    for spec, c in mesh_corpus[:6]:
        ld = c.lap_down(1)
        for _ in range(100):
            b = ld @ rng.standard_normal(c.num_edges)
            x = down_lap_solve(c, b)
            worst = max(worst, np.linalg.norm(ld @ x - b) / np.linalg.norm(b))
        meshes += 1
    report(3, worst <= 1e-10,
           f"{meshes} meshes x 100 image vectors: worst relative residual "
           f"{worst:.2e} <= 1e-10")


SPECTRAL_CASES = [((6, 6, 6), 32), ((9, 9, 9), 128), ((13, 13, 13), 512)]


@pytest.fixture(scope="module")
def spectral_states():
    out = []
    for dims, r in SPECTRAL_CASES:
        c = gen_grid(GridSpec(dims))
        h = find_hollowing(c, r, RELAXED)
        assert h.num_regions > 1
        out.append((r, c, h, build_up_solver(c, h)))
    return out


def test_criterion_04_spectral_bound(spectral_states):
    worst_kappa_ratio = 0.0
    worst_low = np.inf
    details = []
    for r, c, h, state in spectral_states:
        precond = LinearOperator(dim=len(state.c_idx),
                                 apply=state.wall.solve)
        lo, hi = generalized_ritz_extremes(schur_operator(state), precond,
                                           iters=60)
        worst_kappa_ratio = max(worst_kappa_ratio, (hi / lo) / (64 * r))
        worst_low = min(worst_low, lo)
        details.append(f"r={r}: kappa={hi / lo:.2f}")
    report(4, worst_kappa_ratio <= 1.0 and worst_low >= 1 - 1e-6,
           "; ".join(details) + f" (all <= 64 r; lower Ritz bound "
           f"{worst_low:.9f} >= 1 - 1e-6)")


def test_criterion_05_pcg_iteration_scaling(spectral_states):
    rng = np.random.default_rng(SEED + 5)
    iters = []
    for r, c, h, state in spectral_states:
        hv = schur_operator(state).apply(rng.standard_normal(len(state.c_idx)))
        _, rep = schur_solve(state, hv, 1e-8)
        iters.append(rep.iterations)
    rs = [case[1] for case in SPECTRAL_CASES]
    slope = np.polyfit(np.log(rs), np.log(iters), 1)[0]
    report(5, 0.3 <= slope <= 0.7,
           f"Schur PCG iterations {iters} over r = {rs} at tol 1e-8: "
           f"fitted exponent {slope:.3f} in [0.3, 0.7]")


def test_criterion_06_up_projection_correctness():
    rng = np.random.default_rng(SEED + 6)
    eps = 1e-6
    corpus = [(2, 2, 2), (3, 2, 2), (3, 3, 2), (3, 3, 3), (4, 3, 2)]
    worst_formula = 0.0
    worst_contract = 0.0
    for dims in corpus:
        c = gen_grid(GridSpec(dims))
        assert c.num_simplexes <= 1500
        h = surface_hollowing(c)
        state = build_up_projection(c, h)
        d2 = c.boundary(2).toarray().astype(float)
        target = oracle.projection(d2)
        fset, cset = state.f_all, state.c_idx
        proj_f = oracle.projection(d2[:, fset])
        ker_f = np.eye(c.num_edges) - proj_f
        gram = d2.T @ d2
        sc = gram[np.ix_(cset, cset)] - gram[np.ix_(cset, fset)] @ oracle.pinv(
            gram[np.ix_(fset, fset)]) @ gram[np.ix_(fset, cset)]
        two_term = proj_f + ker_f @ d2[:, cset] @ oracle.pinv(sc) \
            @ d2[:, cset].T @ ker_f
        worst_formula = max(worst_formula,
                            np.linalg.norm(two_term - target)
                            / np.linalg.norm(target))
        b = rng.standard_normal(c.num_edges)
        p, _ = up_project(c, h, b, eps, state=state)
        want = target @ b
        worst_contract = max(worst_contract,
                             np.linalg.norm(p - want) / np.linalg.norm(want))
    report(6, worst_formula <= 1e-8 and worst_contract <= eps,
           f"{len(corpus)} meshes <= 1500 simplexes: two-term formula off by "
           f"{worst_formula:.2e} <= 1e-8; up_project error {worst_contract:.2e}"
           f" <= {eps:.0e}")


def test_criterion_07_lambda_min_diameter_bound():
    import scipy.sparse as sp
    ok = True
    details = []
    for n in (4, 8, 16, 32):
        # path graph: closed-form spectrum 2 - 2 cos(pi k / n)
        lam_path = 2 * (1 - np.cos(np.pi / n))
        d_path = n - 1
        ok &= lam_path >= 4.0 / (n * d_path)
        a = sp.diags([-np.ones(n - 1), np.r_[1, 2 * np.ones(n - 2), 1],
                      -np.ones(n - 1)], [-1, 0, 1]).toarray()
        evs = np.linalg.eigvalsh(a)
        ok &= abs(evs[1] - lam_path) <= 1e-9
        # cycle graph: 2 - 2 cos(2 pi / n), diameter n // 2
        lam_cyc = 2 * (1 - np.cos(2 * np.pi / n))
        d_cyc = n // 2
        ok &= lam_cyc >= 4.0 / (n * d_cyc)
        c = 2 * np.eye(n) - np.roll(np.eye(n), 1, 1) - np.roll(np.eye(n), -1, 1)
        evs = np.linalg.eigvalsh(c)
        ok &= abs(evs[1] - lam_cyc) <= 1e-9
        details.append(f"n={n}")
    report(7, ok, "lambda_min(L) >= 4/(n D) for path and cycle graphs, "
                  + ", ".join(details) + " (closed-form spectra)")


def test_criterion_08_betti_diagnostics():
    solid = betti_numbers(gen_grid(GridSpec((4, 4, 4))))
    cavity = betti_numbers(gen_grid(
        GridSpec((4, 4, 4), holes=[HoleSpec((1, 1, 1), (1, 1, 1))])))
    tunnel = betti_numbers(gen_grid(
        GridSpec((4, 4, 4), holes=[HoleSpec((1, 1, 0), (1, 1, 4), "tunnel")])))
    ok = solid == (1, 0, 0) and cavity == (1, 0, 1) and tunnel == (1, 1, 0)
    report(8, ok, f"solid {solid} = (1,0,0); cavity {cavity} = (1,0,1); "
                  f"tunnel {tunnel} = (1,1,0) via oracle ranks")


def test_criterion_09_hodge_orthogonality():
    rng = np.random.default_rng(SEED + 9)
    eps = 1e-6
    worst = 0.0
    cases = [GridSpec((4, 4, 4)),
             GridSpec((5, 5, 5), holes=[HoleSpec((2, 2, 2), (1, 1, 1))]),
             GridSpec((5, 5, 5), holes=[HoleSpec((2, 2, 0), (1, 1, 5),
                                                 "tunnel")])]
    for spec in cases:
        c = gen_grid(spec)
        h = any_hollowing(c, float(c.num_simplexes) ** 0.6)
        state = build_one_lap_solver(c, h)
        for _ in range(3):
            f = rng.standard_normal(c.num_edges)
            g, curl, harm = hodge_decompose(c, h, f, eps, state=state)
            scale = np.linalg.norm(f) ** 2
            worst = max(worst, abs(g @ curl) / scale, abs(g @ harm) / scale,
                        abs(curl @ harm) / scale)
    report(9, worst <= 10 * eps,
           f"pairwise inner products of (gradient, curl, harmonic): worst "
           f"{worst:.2e} <= 10 eps = {10 * eps:.0e}")


def test_criterion_10_union_solver():
    rng = np.random.default_rng(SEED + 10)
    eps = 1e-6

    def face_groups(c0, c1, pos0):
        groups = []
        lookup = {tuple(np.round(c1.vertices[v, 1:], 9)): int(v)
                  for v in np.flatnonzero(np.isclose(c1.vertices[:, 0], 0.0))}
        for v in np.flatnonzero(np.isclose(c0.vertices[:, 0], pos0)):
            key = tuple(np.round(c0.vertices[v, 1:], 9))
            groups.append([(0, int(v)), (1, lookup[key])])
        return groups

    # two chunks glued on one full face
    c0, c1 = gen_grid(GridSpec((4, 4, 4))), gen_grid(GridSpec((4, 4, 4)))
    u2 = glue([c0, c1], face_groups(c0, c1, 4.0),
              [surface_hollowing(c0), surface_hollowing(c1)])
    lap1 = u2.complex.lap1().toarray()
    pi1 = oracle.projection(lap1)
    b = rng.standard_normal(u2.complex.num_edges)
    x, _ = union_one_lap_solve(u2, b, eps)
    target = pi1 @ b
    two_ok = np.linalg.norm(lap1 @ x - target) <= eps * np.linalg.norm(target)

    # ring of four chunks: global first Betti number at least 1
    chunks = [gen_grid(GridSpec((3, 3, 3))) for _ in range(4)]
    groups = []
    for k in range(4):
        nxt = (k + 1) % 4
        lookup = {tuple(np.round(chunks[nxt].vertices[v, 1:], 9)): int(v)
                  for v in np.flatnonzero(
                      np.isclose(chunks[nxt].vertices[:, 0], 0.0))}
        for v in np.flatnonzero(np.isclose(chunks[k].vertices[:, 0], 3.0)):
            key = tuple(np.round(chunks[k].vertices[v, 1:], 9))
            groups.append([(k, int(v)), (nxt, lookup[key])])
    u4 = glue(chunks, groups, [surface_hollowing(ch) for ch in chunks])
    assert betti_numbers(u4.complex)[1] >= 1
    lap4 = u4.complex.lap1().toarray()
    pi4 = oracle.projection(lap4)
    b4 = rng.standard_normal(u4.complex.num_edges)
    x4, _ = union_one_lap_solve(u4, b4, eps)
    t4 = pi4 @ b4
    ring_ok = np.linalg.norm(lap4 @ x4 - t4) <= eps * np.linalg.norm(t4)

    # a single-chunk union reproduces the plain solver
    c = gen_grid(GridSpec((4, 4, 4)))
    h = find_hollowing(c, 48, RELAXED)
    u1 = glue([c], [], [h])
    b1 = rng.standard_normal(c.num_edges)
    x_plain, _ = one_lap_solve(c, h, b1, eps)
    x_union, _ = union_one_lap_solve(u1, b1, eps)
    pi_c = oracle.projection(c.lap1().toarray())
    gap = np.linalg.norm(pi_c @ (x_plain - x_union)) \
        / max(np.linalg.norm(pi_c @ x_plain), 1e-300)
    single_ok = gap <= 1e-8

    report(10, two_ok and ring_ok and single_ok,
           f"two-chunk and ring-of-four gluings meet eps = {eps:.0e} vs "
           f"oracle; single-chunk union differs from plain solver by "
           f"{gap:.2e} <= 1e-8")


def test_criterion_11_fast_path_parity():
    rng = np.random.default_rng(SEED + 11)
    eps = 1e-8
    c = gen_grid(GridSpec((6, 6, 6)))
    hs = sphere_hollowing(c, 256)
    assert hs.num_regions > 1
    state = build_sphere_fast_solver(c, hs)
    lup = c.lap_up(1)

    # reduced preconditioner solves the wall system exactly
    bt = hs.boundary_triangles
    d2c = c.boundary(2).astype(float)[state.c_idx][:, bt]
    lt = state.wall.matrix
    worst_pre = 0.0
    for _ in range(5):
        b = d2c @ rng.standard_normal(len(bt))
        x = state.wall.solve(b)
        worst_pre = max(worst_pre,
                        np.linalg.norm(lt @ x - b) / np.linalg.norm(b))

    b = lup @ rng.standard_normal(c.num_edges)
    x_fast, _ = up_lap_solve_fast(c, hs, b, eps, state=state)
    fast_res = np.linalg.norm(lup @ x_fast - b) / np.linalg.norm(b)
    h_shell = find_hollowing(c, 256, RELAXED)
    x_slow, _ = up_lap_solve(c, h_shell, b, eps)
    slow_res = np.linalg.norm(lup @ x_slow - b) / np.linalg.norm(b)
    report(11, worst_pre <= 1e-8 and fast_res <= eps and slow_res <= eps,
           f"reduced wall solve residual {worst_pre:.2e} <= 1e-8; fast path "
           f"{fast_res:.2e} and slow path {slow_res:.2e} both <= {eps:.0e}")


def test_criterion_12_runtime_trend():
    rng = np.random.default_rng(SEED + 12)
    eps = 1e-6
    sizes = (7, 10, 15)
    ns, times = [], []
    lines = []
    for k in sizes:
        c = gen_grid(GridSpec((k, k, k)))
        n = c.num_simplexes
        r = float(n) ** 0.6
        t0 = time.perf_counter()
        h = find_hollowing(c, r, RELAXED)
        state = build_one_lap_solver(c, h)
        b = rng.standard_normal(c.num_edges)
        x, rep = one_lap_solve(c, h, b, eps, state=state)
        elapsed = time.perf_counter() - t0
        assert rep.final_residual <= eps * rep.initial_residual
        ns.append(n)
        times.append(elapsed)
        lines.append(f"n={n}: {elapsed:.1f}s")
    slope = np.polyfit(np.log(ns), np.log(times), 1)[0]
    report(12, slope <= 1.9,
           "total solve time " + ", ".join(lines)
           + f" with r = n^(3/5): fitted exponent {slope:.2f} <= 1.9")
