"""Preconditioned conjugate gradients over apply functions: `pcg(a, m, b,
tol)`, the package's one CG loop, takes `a(v) = A v` and the
preconditioner's action `m(v)` (`m=None` is the identity).

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

The report keeps the step coefficients alpha_k and beta_k;
`generalized_ritz_extremes` reads the Lanczos tridiagonal off them.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np
import scipy.linalg as sla

from .errors import NumericalError
from .reports import SolveReport

CHECK_EVERY = 16
STALL_CHECKS = 2
SYMMETRY_DRIFT_TOL = 1e-8
# the Ritz run's tolerance and right-hand side seed
RITZ_TOL = 1e-14
RITZ_SEED = 7

Apply = Callable[[np.ndarray], np.ndarray]


def default_max_iters(n: int) -> int:
    return int(20 * np.sqrt(n)) + 200


def _precondition(m: Apply, r):
    """(z, max(r^T z, 0)) for z = M r; a negative r^T z beyond rounding
    drift raises."""
    z = m(r)
    rz = r @ z
    if rz < 0:
        if rz < -SYMMETRY_DRIFT_TOL * np.linalg.norm(r) * np.linalg.norm(z):
            raise NumericalError("preconditioner is not positive semidefinite")
        rz = 0.0
    return z, rz


def pcg(a: Apply, m: Optional[Apply], b, tol: float,
        max_iters: Optional[int] = None, stage: str = "pcg"):
    """Solve A x = b for b in Im(A) to relative residual `tol`.

    Returns (x, SolveReport); the report's params carry the step
    coefficients as "alphas" and "betas".  Non-convergence within
    max_iters, or a true residual that stalls above the target, is
    reported (converged=False), never silently accepted; operator
    asymmetry and indefiniteness raise NumericalError, and an `a` that
    returns another shape than b's raises ValueError.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if m is None:
        m = np.copy
    if max_iters is None:
        max_iters = default_max_iters(n)

    alphas, betas = [], []
    report = SolveReport(stage=stage, size=n, params={
        "tol": tol, "max_iters": max_iters, "checks": 0,
        "alphas": alphas, "betas": betas})
    norm_b = np.linalg.norm(b)
    report.initial_residual = norm_b
    if norm_b == 0.0:
        report.final_residual = 0.0
        return np.zeros(n), report

    x = np.zeros(n)
    r = b.copy()
    z, rz = _precondition(m, r)
    p = z.copy()
    target = tol * norm_b
    trace = [norm_b]
    least, stalls = np.inf, 0

    it = checked = 0   # trace[-1] is the true residual after `checked` steps
    op_scale = 0.0
    while it < max_iters and rz > 0.0:
        ap = a(p)
        if ap.shape != b.shape:
            raise ValueError(f"operator returned shape {ap.shape} for a "
                             f"vector of shape {b.shape}")
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
        alphas.append(float(alpha))
        x += alpha * p
        r -= alpha * ap
        it += 1

        z, rz_new = _precondition(m, r)

        if it % CHECK_EVERY == 0 or np.sqrt(rz_new) <= target:
            ax = a(x)
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

        beta = rz_new / rz
        betas.append(float(beta))
        rz = rz_new
        p = z + beta * p

    if checked != it:
        trace.append(np.linalg.norm(a(x) - b))
    report.iterations = it
    report.final_residual = trace[-1]
    report.residual_trace = trace
    report.params["checks"] = len(trace) - 1
    report.converged = bool(trace[-1] <= target)
    return x, report


def generalized_ritz_extremes(a: Apply, m: Optional[Apply], n: int,
                              iters: int = 50):
    """Extreme generalized Ritz values of the pencil (A, M^+) over the
    common image: one `pcg` run with preconditioner `m` on a right-hand
    side in Im(A), and the eigenvalues of the Lanczos tridiagonal built
    from its step coefficients."""
    b = a(np.random.default_rng(RITZ_SEED).standard_normal(n))
    _, report = pcg(a, m, b, RITZ_TOL, max_iters=min(iters, n), stage="ritz")
    alphas = np.array(report.params["alphas"])
    if len(alphas) == 0:
        return 1.0, 1.0
    betas = np.array(report.params["betas"][:len(alphas) - 1])
    diag = 1.0 / alphas
    diag[1:] += betas / alphas[:-1]
    ritz = sla.eigvalsh_tridiagonal(diag, np.sqrt(betas) / alphas[:-1])
    ritz = ritz[ritz > 1e-12 * ritz.max()]
    return float(ritz.min()), float(ritz.max())
