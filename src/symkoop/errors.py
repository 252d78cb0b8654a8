"""Exception types shared across the toolkit, and the strict reader and
writer of its JSON files: a malformed file, or a NaN or too deep a nesting
to be written, becomes one of them. Every value read from JSON is checked
by ``json_value``, or, a matrix, by ``json_matrix``."""

import json
import math
import numbers
import reprlib
import sys
from json.encoder import encode_basestring_ascii

import numpy as np


class SymkoopError(Exception):
    """Base class for every error raised by this package."""


class InputError(SymkoopError, ValueError):
    """Malformed or dimensionally inconsistent input."""


class ConfigurationError(SymkoopError):
    """Unknown system name, unreadable file, or invalid config/JSON."""


class NumericalDivergenceError(SymkoopError):
    """Integration produced a non-finite state.

    ``step_index`` is the index of the offending step when known (set by
    ``simulate``), else None. ``start_index`` is the first diverging start
    (row) when a block of states was integrated, else None.
    """

    def __init__(self, message, step_index=None, start_index=None):
        super().__init__(message)
        self.step_index = step_index
        self.start_index = start_index


class NonFiniteGroupError(SymkoopError):
    """Generator closure did not terminate within the allowed order."""


class DegenerateDataError(SymkoopError):
    """Snapshot data carries no usable information (e.g. all-zero Yp)."""


class IsotropyRequiredError(SymkoopError):
    """Commutation check requested for an element outside the isotropy
    subgroup of the fitted set; the check is only meaningful inside it."""


def _reject_constant(token):
    raise ValueError(f"{token} is not a JSON number")


def read_json(path, parse):
    """``parse`` of the JSON object in the file at ``path``, which may hold
    no NaN or Infinity; malformed content, including an integer too large
    for a float or a nesting too deep to parse, raises one
    ConfigurationError naming the file."""
    try:
        with open(path) as fh:
            data = json.load(fh, parse_constant=_reject_constant)
        return parse(json_value(data, "top-level value", "a JSON object"))
    except KeyError as err:
        raise ConfigurationError(f"{path}: missing key {err}") from err
    except (TypeError, ValueError, AttributeError, OverflowError, RecursionError,
            ConfigurationError) as err:
        raise ConfigurationError(f"{path}: {err}") from err


# each kind of value json_value checks, by the words that name it in an error
_JSON_KINDS = {
    "a string": lambda v: type(v) is str,
    "true or false": lambda v: type(v) is bool,
    "a finite number": lambda v: isinstance(v, numbers.Real) and type(v) is not bool
    and (abs(v) <= sys.float_info.max if type(v) is int else math.isfinite(v)),
    "an integer": lambda v: type(v) is int,
    "a nonnegative integer": lambda v: type(v) is int and v >= 0,
    "a positive integer": lambda v: type(v) is int and v >= 1,
    "a JSON object": lambda v: type(v) is dict,
    "a JSON object of strings": lambda v: type(v) is dict
    and all(type(s) is str for s in (*v, *v.values())),
    "a list of strings": lambda v: type(v) is list and all(type(s) is str for s in v),
    "a list of objects": lambda v: type(v) is list and all(type(e) is dict for e in v),
}


def json_value(value, what, kind):
    """``value``, the JSON value of ``what``, if it is of ``kind`` (a number
    as a float), else ``<what> must be <kind>, got <value>`` as one
    ConfigurationError. A null is of no kind. A number is finite, an int or
    a float, or a real numpy scalar, but not true, false or a string."""
    if not _JSON_KINDS[kind](value):
        raise ConfigurationError(f"{what} must be {kind}, got {reprlib.repr(value)}")
    return float(value) if kind == "a finite number" else value


def json_matrix(value, key):
    """``value``, the JSON value of ``key``, as a float array: a list of
    equal-length lists of numbers (not true, false or numeric strings), or
    else a ConfigurationError naming the key."""
    rows = value if type(value) is list else [value]
    for row in rows:
        if type(row) is not list or len(row) != len(rows[0]):
            raise ConfigurationError(
                f"{key} must be a list of equal-length lists, got {reprlib.repr(value)}")
        for v in row:
            if type(v) not in (int, float):
                raise ConfigurationError(f"{key} entries must be numbers, got {v!r}")
    try:
        return np.array(value, dtype=float)
    except OverflowError as err:
        raise ConfigurationError(f"{key}: {err}") from err


def _json_text(value, pad):
    """``value`` as ``json.dumps(value, indent=2, allow_nan=False)`` writes
    it, its continuation lines indented by ``pad``: a list of floats is one
    join over ``float.__repr__``. A NaN or Infinity raises json's
    ValueError, and a type or dict key that json would convert or refuse
    raises TypeError."""
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        sep = ",\n" + inner
        try:
            text = sep.join(map(float.__repr__, value))
            finite = "n" not in text  # "nan" or "inf": only they hold an n
        except TypeError:
            finite = False
        if not finite:  # one value at a time, so a NaN is named as json names it
            text = sep.join([_json_text(v, inner) for v in value])
        return "[\n" + inner + text + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        return "{\n" + inner + (",\n" + inner).join([
            encode_basestring_ascii(k) + ": " + _json_text(v, inner)
            for k, v in value.items()]) + "\n" + pad + "}"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        if "n" in text:
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return text
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def write_json(path, payload):
    """Write ``payload`` to the file at ``path`` as JSON indented by 2, the
    bytes of ``json.dumps(payload, indent=2, allow_nan=False)``. A NaN or
    Infinity in it, or a nesting too deep to encode, raises a SymkoopError
    naming the file before the file is opened, so no partial file is left."""
    try:
        text = _json_text(payload, "")
    except (ValueError, RecursionError) as err:
        raise SymkoopError(f"{path}: cannot write JSON: {err}") from err
    with open(path, "w") as fh:
        fh.write(text)
