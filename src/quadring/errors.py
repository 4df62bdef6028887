"""Exception types shared across the package, and the reader and integer
check of JSON input."""

import json


class InputError(ValueError):
    """Malformed user input: bad file, bad flag value, inconsistent data."""


class BudgetExceededError(RuntimeError):
    """An enumeration or search exceeded its configured budget."""


class DegenerateSectionError(ValueError):
    """A reduction or a projection was requested at a vector meeting a
    fiber's singular locus."""


def json_int(value: object, what: str) -> int:
    """An integer read from a JSON document: an int, or a float with an
    integral value.  Anything else (bool, string, 1.5, null) is an
    InputError naming `what`, never a silent coercion."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InputError(f"{what} must be an integer, got {value!r}")


def load_json_object(path: str, what: str) -> dict:
    """The JSON object in the file at `path`.  A file that cannot be read
    or decoded, or holds anything but an object, is an InputError naming
    `what`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{what} {path} does not hold a JSON object")
    return doc
