"""Exception types shared across the package, the input checks of the
public entry points, and the roundoff floor that residual checks allow."""

import numpy as np

# float64's unit roundoff, and the multiple of the roundoff floor
# u |A|_1 |x| within which a residual is put down to rounding rather than
# to a right-hand side outside the image
UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
ROUNDOFF_MULTIPLE = 10.0


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


def check_state(state, c, h) -> None:
    """Raise ValueError unless `state` was built for the complex `c` and,
    if it has a hollowing, for the hollowing `h` themselves, and `c`
    still holds the weights recorded in `state.weights`: a state answers
    for its own operators, whatever the arguments beside it say."""
    if state.complex is not c:
        raise ValueError("state was built for another complex")
    if hasattr(state, "hollowing") and state.hollowing is not h:
        raise ValueError("state was built for another hollowing")
    changed = [f"w{d}" for d, (built, now)
               in enumerate(zip(state.weights, c.weights))
               if not np.array_equal(built, now)]
    if changed:
        raise ValueError(f"weights {', '.join(changed)} changed since the "
                         "state was built; build a new state")


def one_norm(matrix) -> float:
    """|A|_1, the largest absolute column sum of a sparse matrix; 0 when it
    has no columns.  The matrix is left as it is: scipy's abs sums
    duplicates and sorts indices in place, so it runs on a copy."""
    return float(np.max(np.asarray(abs(matrix.copy()).sum(axis=0)),
                        initial=0.0))


def roundoff_floor(norm1: float, x) -> float:
    """u |A|_1 |x|: the size of the rounding error in A x, given |A|_1."""
    return UNIT_ROUNDOFF * norm1 * np.linalg.norm(x)


def missed_contract(what: str, resid: float, bound: str, target: float,
                    eps: float, norm: str, floor: float,
                    cause: str) -> NumericalError:
    """The error of a solve whose recomputed residual `resid` missed
    `target`, written `bound`.  Within ROUNDOFF_MULTIPLE times the roundoff
    floor u |A|_1 |x| (`norm` names |A|_1) the miss is put down to an eps
    below the attainable accuracy; otherwise the message gives `cause`."""
    missed = (f"{what} missed its contract: residual {resid:.3e} > "
              f"{bound} = {target:.3e}")
    if resid <= ROUNDOFF_MULTIPLE * floor:
        return NumericalError(
            f"{missed}; eps = {eps:.1e} is below the attainable accuracy "
            f"(float64 roundoff floor u * {norm} * |x| = {floor:.3e})")
    return NumericalError(f"{missed} ({cause})")
