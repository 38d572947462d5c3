"""Exception types shared across the package, and require_int: every integer
argument passes or fails there."""


class ParameterDomainError(ValueError):
    """A numeric parameter is outside its documented domain."""


class GraphValidationError(ValueError):
    """An edge list violates the simple-graph invariants."""


class SizeGuardError(ValueError):
    """Input exceeds a guard meant to keep an expensive check cheap."""


class EnumerationCapError(RuntimeError):
    """An enumeration would produce more trees than the configured cap."""


def require_int(value, lo: int, name: str, hi: int | None = None):
    """Refuse value unless it is an int, not a bool, in lo..hi (hi None: no cap)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterDomainError(f"{name} must be an int (got {type(value).__name__})")
    if hi is not None and not lo <= value <= hi:
        raise ParameterDomainError(f"{name} {value} out of range {lo}..{hi}")
    if value < lo:
        raise ParameterDomainError(f"{name} must be >= {lo} (got {value})")
