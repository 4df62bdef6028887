"""Exception types shared across the package, and the integer check of
JSON input."""


class InputError(ValueError):
    """Malformed user input: bad file, bad flag value, inconsistent data."""


class BudgetExceededError(RuntimeError):
    """An enumeration or search exceeded its configured budget."""


class DegenerateSectionError(ValueError):
    """A reduction was requested at a vector meeting a fiber's singular locus."""


def json_int(value: object, what: str) -> int:
    """An integer read from a JSON document: an int, or a float with an
    integral value.  Anything else (bool, string, 1.5, null) is an
    InputError naming `what`, never a silent coercion."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InputError(f"{what} must be an integer, got {value!r}")
