"""Exception types shared across the library, and the checks that raise InputError."""

import math

import numpy as np

INT64_MAX = 2**63 - 1  # numpy's integer arguments and the exact enumeration's sums are int64


class ZenoptError(Exception):
    """Base class for all library errors."""


class CapacityError(ZenoptError):
    """A size limit was exceeded (qubit count, enumeration bound, ...)."""


class ShapeError(ZenoptError):
    """A gate or operand does not fit the state it is applied to."""


class LayoutError(ZenoptError):
    """A register layout cannot hold the values a circuit will produce."""


class ContractError(ZenoptError):
    """An internal contract was violated (asymmetry, non-invertible op, ...)."""


class EmptySubspaceError(ZenoptError):
    """A projective measurement annihilated the state."""


class InputError(ZenoptError):
    """User-supplied input is malformed or inconsistent."""


def check_int(value, what: str, low: int | None = None, high: int | None = None) -> None:
    """InputError naming ``what`` and ``value`` unless ``value`` is a Python or
    numpy integer (never ``bool``), at least ``low`` and at most ``high`` when given."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise InputError(f"{what} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise InputError(f"{what} must be >= {low}, got {value!r}")
    if high is not None and value > high:
        raise InputError(f"{what} must be <= {high}, got {value!r}")


def check_finite(value, what: str) -> None:
    """InputError naming ``what`` and ``value`` unless ``value`` is a finite real number."""
    if not isinstance(value, (int, float, np.integer, np.floating)) or not math.isfinite(value):
        raise InputError(f"{what} must be finite, got {value}")


def check_type(value, cls: type, what: str) -> None:
    """InputError naming ``what`` and ``value`` unless ``value`` is a ``cls``."""
    if not isinstance(value, cls):
        raise InputError(f"{what} must be {cls.__name__}, got {value!r}")


def check_tuple(value, what: str) -> tuple:
    """``value`` as a tuple; InputError naming ``what`` unless it is iterable."""
    try:
        return tuple(value)
    except TypeError:
        raise InputError(f"{what} must be a sequence, got {value!r}") from None
