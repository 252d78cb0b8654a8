"""The JSON writer: its text is that of json.dumps(indent=2, allow_nan=False)
for every payload it writes itself, it hands every other payload to
json.dumps, and a NaN or Infinity is one error that leaves no file."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from symkoop.errors import SymkoopError, _json_text, write_json


def reference(payload):
    return json.dumps(payload, indent=2, allow_nan=False)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
FLOATS = st.one_of(
    FINITE,
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308,
                     2.2250738585072014e-308, 0.1, 1e16, 1e-7]),
    FINITE.map(np.float64),
)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), FLOATS, st.text())
PAYLOADS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=8), inner, max_size=5),
        st.lists(FLOATS, max_size=8),  # the join over float.__repr__
        st.lists(st.lists(FLOATS, min_size=1, max_size=4), max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=PAYLOADS)
def test_text_is_json_dumps_indent_2(tmp_path, payload):
    # _json_text raises on what it hands to json.dumps, so every generated
    # payload is written by the writer itself
    assert _json_text(payload, "") == reference(payload)
    path = tmp_path / "out.json"
    write_json(path, payload)
    assert path.read_text() == reference(payload)


def test_empty_containers_and_nesting():
    payload = {"a": [], "b": {}, "c": (), "d": [[]], "e": [{}], "f": {"g": [1, [2.5, -0.0]]},
               "hé\U0001f600": ["\x00\"\\", None, True, False]}
    assert _json_text(payload, "") == reference(payload)


@pytest.mark.parametrize("payload", [
    {1: "int key"}, {2.5: [1.0]}, {None: 1, True: 2, False: 3},
    [np.int64(3)], {"a": np.float32(1.0)}, {"a": {1, 2}},
], ids=["int-key", "float-key", "constant-keys", "numpy-int", "numpy-float32", "set"])
def test_what_the_writer_does_not_handle_is_json_dumps(tmp_path, payload):
    path = tmp_path / "out.json"
    try:
        expected = reference(payload)
    except TypeError as err:
        with pytest.raises(TypeError, match=str(err)):
            write_json(path, payload)
        assert not path.exists()
    else:
        write_json(path, payload)
        assert path.read_text() == expected


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("payload, bad", [
    (NAN, NAN),
    ({"a": [1.0, INF]}, INF),
    ([[0.5], [-INF]], -INF),
    ({"k": [1, "x", np.float64(NAN)]}, np.float64(NAN)),
    ((np.float64(INF),), np.float64(INF)),
], ids=["nan", "inf-in-floats", "-inf-in-matrix", "numpy-nan-in-mixed", "numpy-inf-in-tuple"])
def test_nan_or_infinity_is_one_error_and_no_file(tmp_path, payload, bad):
    path = tmp_path / "out.json"
    with pytest.raises(SymkoopError) as info:
        write_json(path, payload)
    assert str(info.value) == (f"{path}: cannot write JSON: Out of range float "
                               f"values are not JSON compliant: {bad!r}")
    assert not path.exists()


def test_a_circular_payload_is_json_dumps_error(tmp_path):
    loop = []
    loop.append(loop)
    path = tmp_path / "out.json"
    with pytest.raises(SymkoopError, match="cannot write JSON: Circular reference detected"):
        write_json(path, {"a": loop})
    assert not path.exists()
