"""The matrix codec: the [re, im] reader read in C against the per-entry one."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parhodge import jsonio
from parhodge.jsonio import SchemaError, complex_from_json, matrix_from_json, matrix_to_json


def _entry_reader(obj, location="$"):
    """The reader matrix_from_json must agree with, one entry at a time."""
    if not isinstance(obj, list) or not obj:
        raise SchemaError(location, "expected a non-empty nested list matrix")
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list):
            raise SchemaError(f"{location}[{i}]", "expected a list row")
        values = [jsonio._complex(z) for z in row]
        if None in values:
            j = values.index(None)
            complex_from_json(row[j], f"{location}[{i}][{j}]")
        rows.append(values)
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise SchemaError(location, "ragged matrix rows")
    return np.array(rows, dtype=complex)


def _outcome(read, obj):
    try:
        m = read(obj, "$.m")
    except SchemaError as exc:
        return "error", exc.location, str(exc)
    assert m.dtype == complex
    return "matrix", m.shape, m.view(np.uint64).tolist()  # the bits, signed zeros included


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e-310, 0, -1, 2**53 + 1, -(2**63)]
_parts = st.sampled_from(_SPECIAL) | st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(2**70), 2**70)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(0, 5), st.data())
def test_pairs_read_in_c_give_the_bits_of_the_entry_reader(n, m, data):
    obj = [[[data.draw(_parts), data.draw(_parts)] for _ in range(m)] for _ in range(n)]
    obj = json.loads(json.dumps(obj))  # as a parsed document holds it
    assert jsonio._pairs_matrix(obj) is not None  # the C path reads it
    assert _outcome(matrix_from_json, obj) == _outcome(_entry_reader, obj)


_hostile_entries = st.sampled_from(
    [
        [True, 0],
        [0, False],
        ["1", 0],
        [0, None],
        [float("inf"), 0],
        [0, float("nan")],
        [10**400, 0],
        [0, 0, 0],
        [0],
        [],
        [[0, 0], 0],
        1.5,
        -0.0,
        True,
        "x",
        None,
        {"re": 0},
    ]
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.lists(_hostile_entries | st.tuples(_parts, _parts).map(list), max_size=3)
        | st.sampled_from([3, "row", None, {}]),
        max_size=3,
    )
)
def test_hostile_matrices_get_the_error_of_the_entry_reader(obj):
    assert _outcome(matrix_from_json, obj) == _outcome(_entry_reader, obj)


@pytest.mark.parametrize(
    "obj",
    [
        json.loads("[[[1e400, 0]]]"),  # parses to inf
        [[[10**400, 0]]],  # float() overflows
        [[[0, 0], [0, 0]], [[0, 0]]],  # ragged
        [[[0, 0]], "row"],
        [[[1, 2], 3]],  # a bare number is a real entry
        [[]],
        [],
        {},
        "x",
    ],
)
def test_hostile_matrix_cases(obj):
    assert _outcome(matrix_from_json, obj) == _outcome(_entry_reader, obj)


def _entry_writer(a):
    """The writer matrix_to_json must agree with, one entry at a time."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(a, dtype=complex)]


@pytest.mark.parametrize("shape", [(1, 1), (3, 2), (2, 0), (0, 2), (6, 6)])
def test_matrix_to_json_gives_the_floats_of_the_entry_writer(shape):
    rng = np.random.default_rng(sum(shape))
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    a.flat[::3] = complex(-0.0, -0.0)
    a.flat[1::4] = complex(5e-324, -0.0)
    got = matrix_to_json(a)
    assert json.dumps(got) == json.dumps(_entry_writer(a))  # repr tells -0.0 from 0.0
    assert {type(x) for row in got for z in row for x in z} <= {float}


def test_matrix_to_json_refuses_a_non_matrix():
    with pytest.raises(ValueError, match="2-d"):
        matrix_to_json(np.zeros(3))
