"""Exception types shared across the package, and the input checks of the
public entry points."""

import numpy as np


class TetlapError(Exception):
    """Base class for package errors."""


class NumericalError(TetlapError):
    """A solver failed to meet its accuracy contract (non-convergence,
    right-hand side outside the operator image, indefinite matrix)."""


class UnsupportedGeometryError(TetlapError):
    """The mesh does not satisfy the geometric preconditions of the
    requested operation; the message names the violated condition."""


def check_vector(v, n: int, name: str) -> np.ndarray:
    """`v` as a float vector of length n; raises ValueError naming `name`
    when it has another shape or a non-finite entry."""
    v = np.asarray(v, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"{name} has shape {v.shape}, expected ({n},)")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} has non-finite entries")
    return v


def check_tolerance(eps) -> float:
    """`eps` as a float; raises ValueError naming it unless it is finite
    and positive."""
    eps = float(eps)
    if not (np.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be finite and positive, got {eps!r}")
    return eps
