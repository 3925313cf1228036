"""Exception types shared across the library."""


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
