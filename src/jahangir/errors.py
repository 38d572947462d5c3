"""Exception types shared across the package, and the one parameter check."""


class ParameterDomainError(ValueError):
    """A numeric parameter is outside its documented domain."""


class GraphValidationError(ValueError):
    """An edge list violates the simple-graph invariants."""


class SizeGuardError(ValueError):
    """Input exceeds a guard meant to keep an expensive check cheap."""


class EnumerationCapError(RuntimeError):
    """An enumeration would produce more trees than the configured cap."""


def require_at_least(value: int, lo: int, name: str):
    """The package's one lower-bound check on a numeric parameter."""
    if value < lo:
        raise ParameterDomainError(f"{name} must be >= {lo} (got {value})")
