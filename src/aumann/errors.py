"""Exception types shared across the package, and the finiteness, world-count and target checks."""

import numbers

import numpy as np


class NotCellUnion(ValueError):
    """An event is not a union of the given agent's partition cells."""


class ConditioningOnNull(ValueError):
    """Conditioning was requested on an event of (numerically) zero mass."""


class NotHermitian(ValueError):
    """A matrix deviates from its conjugate transpose beyond tolerance."""


class NotPsd(ValueError):
    """A matrix has an eigenvalue below the negativity tolerance."""


class ScenarioError(ValueError):
    """Base class for scenario-file problems. ``path`` locates the offender."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class ScenarioSyntaxError(ScenarioError):
    """The scenario text is not well-formed."""


class ScenarioValidationError(ScenarioError):
    """The scenario is well-formed but violates a structural invariant."""


def require_finite(a: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` if ``a`` holds a NaN or an infinity.

    Every NaN comparison is False, so range and tolerance checks alone
    would let such input through.
    """
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite")


def require_finite_items(a, what: str) -> None:
    """Raise ``ValueError`` naming, as ``what i``, the first item ``a[i]``
    that holds a NaN or an infinity."""
    finite = np.isfinite(a)
    if not finite.all():
        raise ValueError(f"{what} {int(np.argmin(finite.reshape(len(finite), -1).all(axis=1)))} must be finite")


def require_worlds(what: str, n: int, owner: str, expected: int) -> None:
    """Raise ``ValueError`` unless ``what``, over ``n`` worlds, has the
    ``expected`` world count of ``owner``."""
    if n != expected:
        raise ValueError(f"{what} over {n} worlds, {owner} has {expected}")


def as_number(i: int, x) -> float:
    """Target ``i`` as a float; a ``bool``, a string or ``None`` is not a number."""
    # the exact type test first: an isinstance against the ABC costs about 1 us
    if type(x) is float or (isinstance(x, numbers.Real) and not isinstance(x, bool)):
        return float(x)
    raise ValueError(f"target {i} must be a number")


def as_array(i: int, what: str, x, kinds: str) -> np.ndarray:
    """Target ``i`` as an array whose dtype kind is in ``kinds``; a ragged array,
    strings or booleans raise ``ValueError("target i must be <what>")``, which
    does not echo the value."""
    try:
        a = np.asarray(x)
    except (TypeError, ValueError):
        a = None
    if a is None or a.dtype.kind not in kinds:
        raise ValueError(f"target {i} must be {what}") from None
    return a
