"""The matrix codec: the [re, im] reader read in C against the per-entry one;
the document reader against the one that built a decoder per call."""

import json
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import document_oracle
from parhodge import jsonio
from parhodge.jsonio import SchemaError, complex_from_json, matrix_from_json, matrix_to_json, parse_document


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


# ---------------------------------------------------------------------------
# the document reader
# ---------------------------------------------------------------------------


def _read(parse, text):
    try:
        return "document", parse(text)
    except SchemaError as exc:
        return "error", exc.location, str(exc)


_SPELLINGS = ["NaN", "Infinity", "-Infinity", "nan", "inf", "a.b", "c[0]", ""]
_NON_FINITE_FLOATS = [float("nan"), float("inf"), -float("inf")]
_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(_SPELLINGS)  # a string that spells a literal is a string
    | st.text(max_size=3)
)
_keys = st.sampled_from(_SPELLINGS) | st.text(max_size=3)


def _planted(scalars):
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_keys, inner, max_size=4),
        max_leaves=25,
    )


# json.dumps spells the planted floats as the literals NaN, Infinity and
# -Infinity; a dict has no duplicate key, which the oracle cannot place
_documents = _planted(_scalars | st.sampled_from(_NON_FINITE_FLOATS)).map(json.dumps)


@settings(max_examples=400, deadline=None)
@given(_documents)
def test_the_reader_refuses_or_accepts_as_the_oracle_does(text):
    assert _read(parse_document, text) == _read(document_oracle.parse_document, text)


@settings(max_examples=300, deadline=None)
@given(_documents, st.data())
def test_the_reader_places_broken_documents_as_the_oracle_does(text, data):
    # a literal before, at or after the point where the document breaks off
    cut = data.draw(st.integers(0, len(text)))
    tail = data.draw(st.sampled_from(["", "}", ",", " NaN", "\ufeff", "]]"]))
    for broken in (text[:cut] + tail, "\ufeff" + text):
        assert _read(parse_document, broken) == _read(document_oracle.parse_document, broken)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize(
    "template, location",
    [
        ('{{"k": {L}, "k": "A", "rank": 2}}', "$.k"),
        ('{{"a": 1, "b": {L}, "a": 2}}', "$.b"),
        ('{{"a": {{"k": {L}, "k": 1}}, "b": 2}}', "$.a.k"),
        ('{{"a": {{"k": {L}}}, "a": 1}}', "$.a.k"),
        ('{{"xs": [{{"k": 1}}, {{"k": {L}, "k": 2}}]}}', "$.xs[1].k"),
        ('[{{"k": 0}}, {{"j": [1, {{"k": {L}, "k": 1}}]}}]', "$[1].j[1].k"),
        ('{{"k": {L}, "k": NaN}}', "$.k"),
    ],
)
def test_a_literal_under_an_overwritten_duplicate_key_is_refused_where_it_sits(literal, template, location):
    # the oracle's walk found no marker under such a key and raised StopIteration
    with pytest.raises(SchemaError) as caught:
        parse_document(template.format(L=literal))
    assert caught.value.location == location
    assert str(caught.value) == f"{location}: {literal} is not a finite number"


def _too_deep(depth):
    return [
        '{"unread": ' + "[" * depth,  # never closed: the decoder recurses first
        "[" * depth + "]" * depth,
        '{"a": [NaN, ' + "[" * depth + "]" * depth + "]}",  # only the locating decode goes deep
    ]


@pytest.mark.parametrize("depth", [sys.getrecursionlimit() + 10, 100_000])
def test_a_document_nested_past_the_recursion_limit_is_refused_at_the_root(depth):
    for text in _too_deep(depth):
        with pytest.raises(SchemaError) as caught:
            parse_document(text)
        assert caught.value.location == "$"
        assert str(caught.value) == "$: input is nested too deeply to read"


def test_a_literal_deep_in_a_readable_document_is_placed():
    depth = sys.getrecursionlimit() // 2
    text = "[" * depth + '{"x": -Infinity}' + "]" * depth
    with pytest.raises(SchemaError) as caught:
        parse_document(text)
    assert caught.value.location == "$" + "[0]" * depth + ".x"


def _read_as_fraction_does(s: str) -> None:
    """frac_from_json(s) is Fraction(s), or a SchemaError at the given
    location exactly when Fraction(s) raises."""
    try:
        want = Fraction(s)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(SchemaError) as refused:
            jsonio.frac_from_json(s, "$.w[1]")
        assert refused.value.location == "$.w[1]"
        return
    got = jsonio.frac_from_json(s, "$.w[1]")
    assert got == want
    assert type(got) is Fraction


LONG = "7" * 4301  # one digit past the default limit of int(str)

# the spellings around the plain "[-]digits/digits" that the reader takes itself
RATIONAL_SPELLINGS = [
    "1/2", "-3/7", "0/5", "-0/3", "007/0030", "1/0", "-1/0", "0/0", "1/-2", "1//2", "/2", "1/", "-/2",
    "+1/2", "--1/2", "+-1/2", "- 1/2", " 1/2", "1/2 ", "1 / 2", "\t-1/2\n", "1/2\n", "1_000/3", "1/2_0",
    "1__0/3", "_1/2", "1.5", "-.5", "1e3", "1E-3", "2.5e1/2", "1.5/2", "5", "-5", "+5", "٣/٤", "1/٤",
    "３/4", "²/3", "1/2/3", "0x1/2", "", " ", "-", "nan", "inf",
    LONG + "/3", "3/" + LONG, "-" + LONG + "/3", LONG[:-1] + "/3", "3/" + LONG[:-1],
]


@pytest.mark.parametrize("s", RATIONAL_SPELLINGS, ids=lambda s: repr(s)[:24])
def test_the_rational_reader_reads_each_spelling_as_fraction_does(s):
    _read_as_fraction_does(s)


# the exponents stay small: Fraction("1e99999999") builds 10**99999999
_rational_pieces = st.tuples(
    st.sampled_from(["", "-", "+", "--", " ", " -"]),
    st.text("0123456789_٣ .", max_size=8),
    st.sampled_from(["/", "//", " / ", "", ".", "/-"]),
    st.text("0123456789_٤ ", max_size=8),
    st.sampled_from(["", "e3", "E-2", "e+1_0", "e"]),
    st.sampled_from(["", " ", "\n"]),
).map("".join)


@seed(28)
@settings(max_examples=500, deadline=None)
@given(st.one_of(_rational_pieces, st.text(st.characters(exclude_characters="eE"), max_size=12)))
def test_the_rational_reader_agrees_with_fraction_on_drawn_strings(s):
    _read_as_fraction_does(s)


# ---------------------------------------------------------------------------
# decimal exponents: refused past the bound before Fraction builds 10^e
# ---------------------------------------------------------------------------

HUGE_EXPONENTS = ["1e4000000", "-1e-4000000", "1.5E+99999999", "2e4301", "2e-4_301", "1e00000004301 "]


@pytest.mark.parametrize("text", HUGE_EXPONENTS)
def test_an_exponent_past_the_bound_is_refused_before_fraction_sees_it(monkeypatch, text):
    real_fraction = jsonio.Fraction

    def guarded(*args):
        assert args != (text,), "Fraction was handed the string"
        return real_fraction(*args)

    monkeypatch.setattr(jsonio, "Fraction", guarded)
    for read in (jsonio.frac_from_json, jsonio.real_from_json):
        with pytest.raises(SchemaError) as refused:
            read(text, "$.point[0]")
        assert refused.value.location == "$.point[0]"
        assert "exponent of at most 4300" in str(refused.value)


@pytest.mark.parametrize("text", ["1e4300", "-1e-4300", "1.5E+4_300", "2e0004300", "3e-0"])
def test_an_exponent_at_the_bound_is_read(text):
    assert jsonio.frac_from_json(text, "$") == Fraction(text)
    if "-" in text:  # a value the float range holds
        assert jsonio.real_from_json(text, "$") == float(Fraction(text))


def test_a_part_past_the_digit_limit_renders_exactly():
    big = 10**5000 + 3
    text = jsonio.frac_to_json(Fraction(big, 7))
    numerator, denominator = text.split("/")
    assert denominator == "7" and len(numerator) == 5001
    assert numerator.startswith("1" + "0" * 100) and numerator.endswith("3")
    assert jsonio.int_text(-big)[:2] == "-1" and jsonio.int_text(12) == "12"
