"""Exception types shared across the package, and the one rule by which
every module reads a value from a JSON config."""

import sys


class ValidationError(ValueError):
    """Invalid argument or precondition violation."""


class ResourceError(RuntimeError):
    """Requested computation exceeds the configured memory budget."""


class DegeneracyError(RuntimeError):
    """Moment matrix too close to singular (near-concentration on a hyperplane)."""


class NumericError(ArithmeticError):
    """Non-finite value encountered where a finite one is required."""


def fits(value, default):
    """Whether `value`, as read from JSON, may stand where `default` does.

    Nothing is coerced: a bool is not a number, a numeric string is not a
    number, 8.7 is not an integer, and NaN or an infinity is not a finite
    number.  By the type of `default`, `value` must be: for bool, str and
    dict, the same type; for int, an integer; for float, a finite number;
    for None, null or a finite number; for a tuple, a list of as many items
    that fit its items in turn; for a list, a list whose items fit its
    first item (any items if it is empty).
    """
    if isinstance(value, bool) or isinstance(default, bool):
        return type(value) is type(default)
    if default is None:
        return value is None or fits(value, 0.0)
    if isinstance(default, float):
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if isinstance(default, (int, str, dict)):
        return isinstance(value, type(default))
    if not isinstance(value, (list, tuple)):
        return False
    if isinstance(default, tuple):
        return len(value) == len(default) and all(map(fits, value, default))
    return not default or all(fits(item, default[0]) for item in value)


_KINDS = {bool: "true or false", int: "integers", float: "finite numbers", str: "strings",
          dict: "objects", type(None): "null or finite numbers"}


def _kind(default):
    """The values that fit `default`, in words."""
    if isinstance(default, tuple):
        return f"lists like {list(default)}"
    if isinstance(default, list):
        return f"lists of {_kind(default[0])}" if default else "lists"
    return _KINDS[type(default)]


def check_value(value, default, name):
    """`value` if it fits `default`, else ValidationError."""
    if not fits(value, default):
        raise ValidationError(f"{name} must be {_kind(default)}, got {value!r}")
    return value


def read_config(obj, table, what):
    """The JSON object `obj` read against `table`, as a new dict.

    `table` maps each key `obj` may hold to its default, which a given value
    must fit; the value is kept as given.  A type in place of a default
    makes the key required: its value must fit the type's empty value and
    is read as that type, so an integer in a `float` slot becomes a float.
    """
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} must be an object, got {obj!r}")
    unknown = sorted(set(obj) - set(table))
    if unknown:
        raise ValidationError(f"unknown {what} keys {unknown}; known: {sorted(table)}")
    out = {}
    for key, default in table.items():
        if isinstance(default, type):
            if key not in obj:
                raise ValidationError(f"{what} needs {key!r}")
            out[key] = default(check_value(obj[key], default(), key))
        else:
            out[key] = check_value(obj[key], default, key) if key in obj else default
    return out


def read_tagged(obj, tag, tables, what):
    """`read_config` of the JSON object `obj`, whose `tag` names its table."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} must be an object, got {obj!r}")
    name = obj.get(tag)
    if not isinstance(name, str) or name not in tables:
        raise ValidationError(f"unknown {what} {tag} {name!r}; known: {sorted(tables)}")
    return read_config(obj, {tag: str, **tables[name]}, f"{what} {name!r}")
