import importlib

import numpy as np
import pytest
import scipy.sparse as sp

from tetlap.errors import NumericalError
from tetlap.pcg import generalized_ritz_extremes, pcg


# the module, which the package's `pcg` function shadows as an attribute
pcg_module = importlib.import_module("tetlap.pcg")


def matrix_operator(m):
    """The function multiplying by the matrix `m`, dense or sparse."""
    m = sp.csr_matrix(m) if sp.issparse(m) else np.asarray(m, dtype=float)
    return lambda v: m @ v


def path_graph_laplacian(n):
    return sp.diags([-np.ones(n - 1), np.r_[1, 2 * np.ones(n - 2), 1],
                     -np.ones(n - 1)], [-1, 0, 1]).toarray()


def test_perfect_preconditioner_one_iteration(rng):
    a = np.diag([1.0, 3.0, 7.0])
    op = matrix_operator(a)
    m = lambda v: np.linalg.solve(a, v)
    x, rep = pcg(op, m, np.array([1.0, 2.0, 3.0]), tol=1e-12)
    assert rep.iterations == 1
    assert np.allclose(a @ x, [1, 2, 3], atol=1e-10)


def test_cg_finite_termination_diag():
    a = np.diag([1.0, 4.0])
    x, rep = pcg(matrix_operator(a), None, np.array([1.0, 2.0]),
                 tol=1e-12)
    assert rep.iterations <= 2
    assert np.allclose(x, [1.0, 0.5], atol=1e-10)


def test_path_laplacian_singular_system(rng):
    n = 16
    lap = path_graph_laplacian(n)
    b = rng.standard_normal(n)
    b -= b.mean()  # orthogonal to the all-ones kernel
    x, rep = pcg(matrix_operator(lap), None, b, tol=1e-8,
                 max_iters=64)
    assert rep.iterations <= 16
    assert np.linalg.norm(lap @ x - b) <= 1e-8 * np.linalg.norm(b)


def test_pcg_zero_rhs():
    a = np.eye(4)
    x, rep = pcg(matrix_operator(a), None, np.zeros(4), tol=1e-10)
    assert np.array_equal(x, np.zeros(4))
    assert rep.iterations == 0


def test_pcg_detects_asymmetry():
    a = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(NumericalError, match="asymmetry"):
        pcg(matrix_operator(a), None, np.array([1.0, 1.0]),
            tol=1e-14, max_iters=50)


def test_pcg_detects_indefiniteness():
    a = np.diag([1.0, -1.0])
    with pytest.raises(NumericalError, match="not PSD"):
        pcg(matrix_operator(a), None, np.array([1.0, 1.0]),
            tol=1e-12)


def test_pcg_reports_nonconvergence(rng):
    n = 40
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = q @ np.diag(np.geomspace(1, 1e8, n)) @ q.T
    a = 0.5 * (a + a.T)
    b = a @ rng.standard_normal(n)
    x, rep = pcg(matrix_operator(a), None, b, tol=1e-12, max_iters=3)
    assert not rep.converged
    assert rep.final_residual > 1e-12 * np.linalg.norm(b)


def test_final_residual_is_recomputed(rng):
    a = np.diag(np.arange(1.0, 9.0))
    b = rng.standard_normal(8)
    x, rep = pcg(matrix_operator(a), None, b, tol=1e-10)
    assert rep.final_residual == pytest.approx(np.linalg.norm(a @ x - b), rel=1e-12)


def test_a_norm_error_monotone(rng):
    # the CG descent property, checked against the exact solution
    n = 24
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = q @ np.diag(np.geomspace(1, 1e4, n)) @ q.T
    a = 0.5 * (a + a.T)
    x_star = rng.standard_normal(n)
    b = a @ x_star
    op = matrix_operator(a)

    errors = []
    for iters in range(1, 12):
        x, _ = pcg(op, None, b, tol=0.0, max_iters=iters)
        e = x - x_star
        errors.append(e @ a @ e)
    assert all(e2 <= e1 * (1 + 1e-9) for e1, e2 in zip(errors, errors[1:]))


def test_preconditioned_residual_trace_monotone_on_small_instances(rng):
    n = 16
    lap = path_graph_laplacian(n)
    b = rng.standard_normal(n)
    b -= b.mean()
    x, rep = pcg(matrix_operator(lap), None, b, tol=1e-10)
    trace = rep.residual_trace
    assert all(t2 <= t1 * (1 + 1e-9) for t1, t2 in zip(trace, trace[1:]))


def test_rel_condition_identity_pair(rng):
    a = np.diag([2.0, 5.0, 9.0, 11.0])
    op = matrix_operator(a)
    m = lambda v: np.linalg.solve(a, v)
    lo, hi = generalized_ritz_extremes(op, m, 4, iters=10)
    assert lo == pytest.approx(1.0, rel=0.05)
    assert hi == pytest.approx(1.0, rel=0.05)


def test_rel_condition_scaled_pair():
    a = np.diag([2.0, 5.0, 9.0, 11.0])
    op = matrix_operator(2.0 * a)
    m = lambda v: np.linalg.solve(a, v)
    lo, hi = generalized_ritz_extremes(op, m, 4, iters=10)
    assert lo == pytest.approx(2.0, rel=0.05)
    assert hi / lo == pytest.approx(1.0, rel=0.05)


def test_rel_condition_diag_vs_identity():
    a = np.diag([1.0, 10.0])
    lo, hi = generalized_ritz_extremes(matrix_operator(a), None, 2, iters=5)
    assert lo == pytest.approx(1.0, rel=0.05)
    assert hi == pytest.approx(10.0, rel=0.05)


def test_residual_checks_leave_the_iterates_alone(rng, monkeypatch):
    # a check reads x and nothing else: checking at every iteration or at
    # none gives the same bytes, and the preconditioner is applied once to
    # start and once per iteration in both.  CG's residual norm is not
    # monotone, so the stall rule is lifted to keep the checks from
    # stopping the solve early
    n, iters = 32, 10
    lap = path_graph_laplacian(n)
    b = rng.standard_normal(n)
    b -= b.mean()   # orthogonal to the all-ones kernel
    diag = lap.diagonal()
    applies = {"a": 0, "m": 0}

    def counted(name, fn):
        def apply(v):
            applies[name] += 1
            return fn(v)
        return apply
    runs = []
    monkeypatch.setattr(pcg_module, "STALL_CHECKS", iters + 1)
    for every in (1, 10**9):
        monkeypatch.setattr(pcg_module, "CHECK_EVERY", every)
        applies.update(a=0, m=0)
        x, rep = pcg(counted("a", lambda v: lap @ v),
                     counted("m", lambda v: v / diag), b, tol=1e-14,
                     max_iters=iters)
        assert rep.iterations == iters and not rep.converged
        assert "stalled" not in rep.params
        assert applies["m"] == rep.iterations + 1
        # one product per step and one per true residual, each counted
        assert applies["a"] == iters + rep.params["checks"]
        assert len(rep.residual_trace) == rep.params["checks"] + 1
        assert rep.final_residual == np.linalg.norm(lap @ x - b)
        runs.append((x, rep))
    (x_all, all_checks), (x_none, no_checks) = runs
    assert x_all.tobytes() == x_none.tobytes()
    # the check after the last step reads the final x: none is recomputed
    assert all_checks.params["checks"] == iters
    assert no_checks.params["checks"] == 1


def test_pcg_rejects_a_negative_preconditioner():
    with pytest.raises(NumericalError, match="not positive semidefinite"):
        pcg(matrix_operator(np.diag([1.0, 2.0])), lambda v: -v,
            np.array([1.0, 1.0]), tol=1e-12)


def test_pcg_rejects_a_preconditioner_turning_negative_mid_run():
    a = np.diag(np.arange(1.0, 9.0))
    calls = []

    def m(v):
        calls.append(1)
        return v if len(calls) < 3 else -v
    with pytest.raises(NumericalError, match="not positive semidefinite"):
        pcg(matrix_operator(a), m, np.ones(8), tol=1e-12)
    assert len(calls) == 3


def test_pcg_rejects_an_operator_of_another_shape():
    with pytest.raises(ValueError, match=r"shape \(3,\).*shape \(2,\)"):
        pcg(lambda v: np.append(v, 0.0), None, np.array([1.0, 1.0]),
            tol=1e-12)
