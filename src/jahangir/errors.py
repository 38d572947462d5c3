"""Exception types shared across the package, and require_int: every integer
argument, alone or in a sequence (require_ints), passes or fails there.  What
the package builds valid itself, trusted makes with no check."""


class ParameterDomainError(ValueError):
    """A numeric parameter is outside its documented domain."""


class GraphValidationError(ValueError):
    """An edge list violates the simple-graph invariants."""


class SizeGuardError(ValueError):
    """Input exceeds a guard meant to keep an expensive check cheap."""


class EnumerationCapError(RuntimeError):
    """A listing would produce more trees than the fixed cap, cli.TREE_CAP."""


def require_int(value, lo: int | None, name: str, hi: int | None = None):
    """Refuse value unless it is an int, not a bool, in lo..hi (lo None: any; hi None: no cap)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterDomainError(f"{name} must be an int (got {type(value).__name__})")
    if lo is not None and hi is not None and not lo <= value <= hi:
        raise ParameterDomainError(f"{name} {value} out of range {lo}..{hi}")
    if lo is not None and value < lo:
        raise ParameterDomainError(f"{name} must be >= {lo} (got {value})")


def require_ints(values, lo: int | None, name: str, hi: int | None = None) -> tuple:
    """tuple(values), each element refused as require_int(x, lo, name, hi) refuses it."""
    values = tuple(values)
    for x in values:
        require_int(x, lo, name, hi)
    return values


def trusted(cls, *fields):
    """cls(*fields) with __post_init__ skipped: for values the package builds valid."""
    value = object.__new__(cls)
    for name, x in zip(cls.__dataclass_fields__, fields):
        object.__setattr__(value, name, x)
    return value
