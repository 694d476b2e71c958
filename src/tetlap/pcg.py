"""Preconditioned conjugate gradients over abstract operators.

Works on singular PSD systems as long as the right-hand side lies in the
image of the operator and the preconditioner shares that image: kernel
components introduced by a particular preconditioner solution are
annihilated by the operator and by every inner product against residuals,
so the iteration effectively runs in the quotient space.

Convergence is judged on the true residual |A x - b| / |b|, recomputed
every `check_every` iterations; the cheap preconditioned estimate only
schedules extra checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .errors import NumericalError
from .reports import SolveReport

CHECK_EVERY = 16
SYMMETRY_DRIFT_TOL = 1e-8
POWER_ITERS = 30
NORM_SAFETY = 2.0


@dataclass
class LinearOperator:
    """A square operator: `apply` maps a vector, `solve` (optional) inverts."""

    dim: int
    apply: Callable[[np.ndarray], np.ndarray]
    solve: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @staticmethod
    def from_matrix(m) -> "LinearOperator":
        m = sp.csr_matrix(m) if sp.issparse(m) else np.asarray(m, dtype=float)
        return LinearOperator(dim=m.shape[0], apply=lambda v: m @ v)

    @staticmethod
    def identity(n: int) -> "LinearOperator":
        return LinearOperator(dim=n, apply=lambda v: v.copy(),
                              solve=lambda v: v.copy())

    def precondition(self, v: np.ndarray) -> np.ndarray:
        """Preconditioner action: prefer `solve`, fall back to `apply`."""
        return self.solve(v) if self.solve is not None else self.apply(v)


def check_linearity(op: LinearOperator, rng, trials: int = 8,
                    tol: float = 1e-8) -> bool:
    """Statistical linearity check: apply(ax+by) == a apply(x) + b apply(y)."""
    for _ in range(trials):
        x = rng.standard_normal(op.dim)
        y = rng.standard_normal(op.dim)
        a, b = rng.standard_normal(2)
        lhs = op.apply(a * x + b * y)
        rhs = a * op.apply(x) + b * op.apply(y)
        scale = np.linalg.norm(rhs) + 1.0
        if np.linalg.norm(lhs - rhs) > tol * scale:
            return False
    return True


def default_max_iters(n: int) -> int:
    return int(20 * np.sqrt(n)) + 200


def pcg(a_op: LinearOperator, m_op: Optional[LinearOperator], b, tol: float,
        max_iters: Optional[int] = None, stage: str = "pcg"):
    """Solve A x = b for b in Im(A) to relative residual `tol`.

    Returns (x, SolveReport).  Non-convergence within max_iters is reported
    (converged=False), never silently accepted; operator asymmetry and
    indefiniteness raise NumericalError.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if a_op.dim != n:
        raise ValueError("dimension mismatch between operator and vector")
    if m_op is None:
        m_op = LinearOperator.identity(n)
    if max_iters is None:
        max_iters = default_max_iters(n)

    report = SolveReport(stage=stage, size=n, params={"tol": tol,
                                                      "max_iters": max_iters})
    norm_b = np.linalg.norm(b)
    report.initial_residual = norm_b
    if norm_b == 0.0:
        report.final_residual = 0.0
        return np.zeros(n), report

    x = np.zeros(n)
    r = b.copy()
    z = m_op.precondition(r)
    rz = r @ z
    if rz < -SYMMETRY_DRIFT_TOL * (np.linalg.norm(r) * np.linalg.norm(z) + 1e-300):
        raise NumericalError("preconditioner is not positive semidefinite")
    p = z.copy()
    target = tol * norm_b
    trace = [norm_b]

    it = 0
    op_scale = 0.0
    while it < max_iters and rz > 0.0:
        ap = a_op.apply(p)
        p_ap = p @ ap
        norm_p = np.linalg.norm(p)
        norm_ap = np.linalg.norm(ap)
        if p_ap <= 0.0:
            # an exhausted direction shows A p collapsing against the
            # operator scale seen so far; anything else is indefiniteness
            exhausted = norm_ap <= 1e-6 * op_scale * norm_p or norm_ap == 0.0
            if exhausted and p_ap >= -SYMMETRY_DRIFT_TOL * (norm_p * norm_ap
                                                            + 1e-300):
                break
            raise NumericalError(f"operator is not PSD (p^T A p = {p_ap:.3e})")
        op_scale = max(op_scale, norm_ap / max(norm_p, 1e-300))
        alpha = rz / p_ap
        x += alpha * p
        r -= alpha * ap
        it += 1

        z = m_op.precondition(r)
        rz_new = r @ z
        if rz_new < 0 and abs(rz_new) > SYMMETRY_DRIFT_TOL * (r @ r + 1e-300):
            raise NumericalError("preconditioner is not positive semidefinite")
        rz_new = max(rz_new, 0.0)

        if it % CHECK_EVERY == 0 or np.sqrt(rz_new) <= target:
            ax = a_op.apply(x)
            # symmetry drift guard: <A p, x> must equal <p, A x>
            drift = abs(p @ ax - x @ ap)
            scale = np.linalg.norm(p) * np.linalg.norm(ax) \
                + np.linalg.norm(x) * np.linalg.norm(ap) + 1e-300
            if drift > SYMMETRY_DRIFT_TOL * scale:
                raise NumericalError(f"operator asymmetry detected ({drift:.3e})")
            true_res = np.linalg.norm(ax - b)
            trace.append(true_res)
            if true_res <= target:
                report.iterations = it
                report.final_residual = true_res
                report.residual_trace = trace
                return x, report
            # refresh against drift and restart the direction: reusing the
            # pre-refresh beta would break conjugacy and stall the iteration
            r = b - ax
            z = m_op.precondition(r)
            rz = max(r @ z, 0.0)
            p = z.copy()
            continue

        beta = rz_new / rz if rz > 0 else 0.0
        rz = rz_new
        p = z + beta * p

    final = np.linalg.norm(a_op.apply(x) - b)
    trace.append(final)
    report.iterations = it
    report.final_residual = final
    report.residual_trace = trace
    report.converged = final <= target
    return x, report


def estimate_rel_condition(a_op: LinearOperator, b_op: LinearOperator,
                           iters: int = 50, seed: int = 7) -> float:
    """Lanczos estimate of the relative condition number kappa(A, B)."""
    lo, hi = generalized_ritz_extremes(a_op, b_op, iters=iters, seed=seed)
    return float(hi / lo)


def power_iteration(op: LinearOperator, seed: int) -> float:
    """Power-iteration estimate of the largest eigenvalue of a PSD operator,
    from a seeded N(0, 1) start so that equal builds give equal values;
    0 for the zero operator."""
    v = np.random.default_rng(seed).standard_normal(op.dim)
    lam = 0.0
    for _ in range(POWER_ITERS):
        w = op.apply(v)
        lam = float(np.linalg.norm(w))
        if lam == 0.0:
            break
        v = w / lam
    return lam


def generalized_ritz_extremes(a_op: LinearOperator, b_op: LinearOperator,
                              iters: int = 50, seed: int = 7):
    """Extreme generalized Ritz values of the pencil (A, B) over the common
    image: runs the PCG recurrence with preconditioner B on a right-hand
    side in Im(A) and reads eigenvalue estimates off the tridiagonal matrix
    assembled from the step coefficients."""
    rng = np.random.default_rng(seed)
    n = a_op.dim
    b = a_op.apply(rng.standard_normal(n))
    if np.linalg.norm(b) == 0:
        return 1.0, 1.0

    alphas, betas = [], []
    x = np.zeros(n)
    r = b.copy()
    z = b_op.precondition(r)
    rz = r @ z
    rz0 = max(rz, 1e-300)
    p = z.copy()
    for _ in range(min(iters, n)):
        ap = a_op.apply(p)
        p_ap = p @ ap
        if p_ap <= 1e-306:
            break
        alpha = rz / p_ap
        x += alpha * p
        r -= alpha * ap
        z = b_op.precondition(r)
        rz_new = r @ z
        alphas.append(alpha)
        # once converged, further coefficients are roundoff junk that would
        # contaminate the Ritz values
        if rz <= 1e-306 or rz_new <= 1e-28 * rz0:
            betas.append(0.0)
            break
        beta = rz_new / rz
        betas.append(beta)
        rz = rz_new
        p = z + beta * p

    k = len(alphas)
    if k == 0:
        return 1.0, 1.0
    t = np.zeros((k, k))
    for i in range(k):
        t[i, i] = 1.0 / alphas[i]
        if i > 0:
            t[i, i] += betas[i - 1] / alphas[i - 1]
        if i + 1 < k and betas[i] > 0:
            t[i, i + 1] = t[i + 1, i] = np.sqrt(betas[i]) / alphas[i]
    ritz = np.linalg.eigvalsh(t)
    ritz = ritz[ritz > 1e-12 * ritz.max()]
    return float(ritz.min()), float(ritz.max())
