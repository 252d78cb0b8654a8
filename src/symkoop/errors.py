"""Exception types shared across the toolkit, and the strict reader and
writer of its JSON files: a malformed file, or a NaN to be written, becomes
one of them."""

import json
import reprlib
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


class DictionaryNotClosedError(SymkoopError):
    """The dictionary span is not invariant under the group action.

    Without an invariant span there is no finite-dimensional feature-space
    representation of the element, so conjugation transport is unavailable
    for this dictionary. ``residual`` holds the measured defect.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


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
    for a float, raises one ConfigurationError naming the file."""
    try:
        with open(path) as fh:
            data = json.load(fh, parse_constant=_reject_constant)
        if not isinstance(data, dict):
            raise TypeError(f"expected a JSON object, got {type(data).__name__}")
        return parse(data)
    except KeyError as err:
        raise ConfigurationError(f"{path}: missing key {err}") from err
    except (TypeError, ValueError, AttributeError, OverflowError,
            ConfigurationError) as err:
        raise ConfigurationError(f"{path}: {err}") from err


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
    join over ``float.__repr__``. A NaN or Infinity raises ValueError, and a
    type or dict key that json would convert or refuse raises TypeError."""
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        sep = ",\n" + inner
        try:
            text = sep.join(map(float.__repr__, value))
            if "n" in text:  # "nan" or "inf": only they hold an n
                raise ValueError(text)
        except TypeError:
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
            raise ValueError(text)
        return text
    raise TypeError(type(value).__name__)


def write_json(path, payload):
    """Write ``payload`` to the file at ``path`` as JSON indented by 2, the
    bytes of ``json.dumps(payload, indent=2, allow_nan=False)``, which
    writes what ``_json_text`` does not handle. A NaN or Infinity in it
    raises a SymkoopError naming the file before the file is opened, so no
    partial file is left."""
    try:
        try:
            text = _json_text(payload, "")
        except (TypeError, ValueError, RecursionError):
            text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as err:
        raise SymkoopError(f"{path}: cannot write JSON: {err}") from err
    with open(path, "w") as fh:
        fh.write(text)
