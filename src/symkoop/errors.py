"""Exception types shared across the toolkit, and the strict reader of its
JSON files, which turns a malformed file into one of them."""

import json


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
    no NaN or Infinity; malformed content raises one ConfigurationError
    naming the file."""
    try:
        with open(path) as fh:
            data = json.load(fh, parse_constant=_reject_constant)
        if not isinstance(data, dict):
            raise TypeError(f"expected a JSON object, got {type(data).__name__}")
        return parse(data)
    except KeyError as err:
        raise ConfigurationError(f"{path}: missing key {err}") from err
    except (TypeError, ValueError, AttributeError) as err:
        raise ConfigurationError(f"{path}: {err}") from err
