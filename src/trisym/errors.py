"""Exception hierarchy shared across the package."""


class TrisymError(Exception):
    """Base class for all package errors."""


class InvalidRootSystem(TrisymError):
    """Raised for (family, rank) pairs that do not name a simple type."""


class InvalidMarking(TrisymError):
    """Raised when an involution marking references nodes outside the diagram."""


class IntegrityError(TrisymError):
    """Internal consistency failure (dimension bookkeeping, certification)."""


class InconsistentData(TrisymError):
    """Derived quantities violate a structural identity (wrong anchor or dims)."""


class NotApplicable(TrisymError):
    """The requested computation is documented as out of scope for this case."""


def require_int(value, what: str, error: type[TrisymError] = TrisymError) -> int:
    """``value`` when it is an int; a bool, float, string or anything else is refused by name."""
    if type(value) is not int:
        raise error(f"{what} {value!r} is not an int")
    return value
