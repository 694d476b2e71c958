"""Preconditioned conjugate gradients over abstract operators.

Works on singular PSD systems as long as the right-hand side lies in the
image of the operator and the preconditioner shares that image: kernel
components introduced by a particular preconditioner solution are
annihilated by the operator and by every inner product against residuals,
so the iteration effectively runs in the quotient space.

Convergence is judged on the true residual |A x - b| / |b|, recomputed
every CHECK_EVERY iterations; the cheap preconditioned estimate only
schedules extra checks.  A check reads x and nothing else: the recurrence
does not restart, so the preconditioner is applied iterations + 1 times.
The iteration gives up once STALL_CHECKS checks in a row set no new least
true residual: it has reached the rounding floor of A x, which no further
iteration goes below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NumericalError
from .reports import SolveReport

CHECK_EVERY = 16
STALL_CHECKS = 2
SYMMETRY_DRIFT_TOL = 1e-8


@dataclass
class LinearOperator:
    """A square operator; a preconditioner's `apply` is its inverse's
    action."""

    dim: int
    apply: Callable[[np.ndarray], np.ndarray]

    @staticmethod
    def identity(n: int) -> "LinearOperator":
        return LinearOperator(dim=n, apply=lambda v: v.copy())


def default_max_iters(n: int) -> int:
    return int(20 * np.sqrt(n)) + 200


def pcg(a_op: LinearOperator, m_op: Optional[LinearOperator], b, tol: float,
        max_iters: Optional[int] = None, stage: str = "pcg"):
    """Solve A x = b for b in Im(A) to relative residual `tol`.

    Returns (x, SolveReport).  Non-convergence within max_iters, or a true
    residual that stalls above the target, is reported (converged=False),
    never silently accepted; operator asymmetry and indefiniteness raise
    NumericalError.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if a_op.dim != n:
        raise ValueError("dimension mismatch between operator and vector")
    if m_op is None:
        m_op = LinearOperator.identity(n)
    if max_iters is None:
        max_iters = default_max_iters(n)

    report = SolveReport(stage=stage, size=n, params={
        "tol": tol, "max_iters": max_iters, "checks": 0})
    norm_b = np.linalg.norm(b)
    report.initial_residual = norm_b
    if norm_b == 0.0:
        report.final_residual = 0.0
        return np.zeros(n), report

    x = np.zeros(n)
    r = b.copy()
    z = m_op.apply(r)
    rz = r @ z
    if rz < -SYMMETRY_DRIFT_TOL * (np.linalg.norm(r) * np.linalg.norm(z) + 1e-300):
        raise NumericalError("preconditioner is not positive semidefinite")
    p = z.copy()
    target = tol * norm_b
    trace = [norm_b]
    least, stalls = np.inf, 0

    it = checked = 0   # trace[-1] is the true residual after `checked` steps
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

        z = m_op.apply(r)
        rz_new = r @ z
        if rz_new < 0 and abs(rz_new) > SYMMETRY_DRIFT_TOL * (r @ r + 1e-300):
            raise NumericalError("preconditioner is not positive semidefinite")
        rz_new = max(rz_new, 0.0)

        if it % CHECK_EVERY == 0 or np.sqrt(rz_new) <= target:
            ax = a_op.apply(x)
            checked = it
            # symmetry drift guard: <A p, x> must equal <p, A x>
            drift = abs(p @ ax - x @ ap)
            scale = np.linalg.norm(p) * np.linalg.norm(ax) \
                + np.linalg.norm(x) * np.linalg.norm(ap) + 1e-300
            if drift > SYMMETRY_DRIFT_TOL * scale:
                raise NumericalError(f"operator asymmetry detected ({drift:.3e})")
            true_res = np.linalg.norm(ax - b)
            trace.append(true_res)
            if true_res <= target:
                break
            if true_res < least:
                least, stalls = true_res, 0
            else:
                stalls += 1
                if stalls == STALL_CHECKS:
                    report.params["stalled"] = True
                    break
            # no restart: r, z and p carry on across the check, so it costs
            # no preconditioner apply and keeps the Krylov space

        beta = rz_new / rz if rz > 0 else 0.0
        rz = rz_new
        p = z + beta * p

    if checked != it:
        trace.append(np.linalg.norm(a_op.apply(x) - b))
    report.iterations = it
    report.final_residual = trace[-1]
    report.residual_trace = trace
    report.params["checks"] = len(trace) - 1
    report.converged = bool(trace[-1] <= target)
    return x, report


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
    z = b_op.apply(r)
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
        z = b_op.apply(r)
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
