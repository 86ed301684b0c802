"""JSON encoding helpers shared by the data models and the CLI.

Rationals travel as exact "p/q" strings (or bare integers), complex matrices
as nested [re, im] pairs, so files round-trip without float drift on the
exact fields.

Every field of an input document is read by one ``*_from_json`` reader per
type.  A reader takes ``(value, location)``, where the location is a
JSON-pointer-ish path such as ``$.grid.r_max`` or ``$.s[0][1]``, plus an
optional range or set of allowed values, and raises ``SchemaError`` carrying
that location when the value does not fit.

The matrix codec imports numpy where it runs, so a document with no matrix
is read and written without it.
"""
from __future__ import annotations

import json
import math
import re
from decimal import Decimal
from fractions import Fraction
from itertools import chain
from typing import Any, Callable

from .errors import ParhodgeError


class SchemaError(ParhodgeError, ValueError):
    """Malformed input document; message carries a JSON-pointer-ish location."""

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location


class _NonFinite(Exception):
    """A NaN or Infinity literal, raised where the decoder reads it."""


def _refuse(name: str):
    raise _NonFinite(name)


_NON_FINITE = object()  # stands in for a NaN or Infinity literal until it is located

# one decoder for every document: the first NaN or Infinity literal stops it
_DECODER = json.JSONDecoder(parse_constant=_refuse)
# the decoder that places that literal; it keeps each object as the tuple of
# its (key, value) pairs, so a literal under a key that a later duplicate of
# the key overwrites is found as well
_LOCATOR = json.JSONDecoder(parse_constant=lambda name: _NON_FINITE, object_pairs_hook=tuple)


def _decode(decoder: json.JSONDecoder, text: str) -> Any:
    try:
        return decoder.decode(text)
    except json.JSONDecodeError as exc:
        where = f"$ (line {exc.lineno}, column {exc.colno})"
        raise SchemaError(where, "input is not valid JSON") from exc
    except RecursionError as exc:  # nested past what the decoder can recurse into
        raise SchemaError("$", "input is nested too deeply to read") from exc


def _first_literal(doc: Any) -> str:
    """Location of the first literal in a document that _LOCATOR decoded and
    that holds one, in document order.  The walk keeps its own stack, so a
    document as deep as the decoder can read is walked too."""
    stack = [("$", doc)]
    while stack:
        location, value = stack.pop()
        if value is _NON_FINITE:
            return location
        if type(value) is tuple:  # an object, as its pairs
            stack += [(f"{location}.{key}", item) for key, item in reversed(value)]
        elif type(value) is list:
            stack += [(f"{location}[{i}]", value[i]) for i in reversed(range(len(value)))]


def parse_document(text: str) -> Any:
    """``json.loads`` that refuses NaN and Infinity, naming where the first sits."""
    try:
        return _decode(_DECODER, text)
    except _NonFinite as exc:
        name = exc.args[0]
    raise SchemaError(_first_literal(_decode(_LOCATOR, text)), f"{name} is not a finite number")


_REQUIRED = object()


def field_from_json(
    obj: dict,
    key: str,
    read: Callable[..., Any],
    location: str = "$",
    default: Any = _REQUIRED,
    **limits,
) -> Any:
    """Read ``obj[key]`` with ``read``; an absent or null field gives ``default``."""
    value = obj.get(key)
    if value is None:
        if default is _REQUIRED:
            raise SchemaError(f"{location}.{key}", "missing required field")
        return default
    return read(value, f"{location}.{key}", **limits)


def _finite(obj: Any) -> float | None:
    """The value of a finite JSON number as a float; None for anything else."""
    if not isinstance(obj, (int, float)) or isinstance(obj, bool):
        return None
    try:
        x = float(obj)
    except OverflowError:
        return None
    return x if math.isfinite(x) else None


def int_from_json(obj: Any, location: str, lo: int | None = None, hi: int | None = None) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise SchemaError(location, f"expected an integer, got {obj!r}")
    if lo is not None and obj < lo:
        raise SchemaError(location, f"expected an integer >= {lo}, got {obj}")
    if hi is not None and obj > hi:
        raise SchemaError(location, f"expected an integer <= {hi}, got {obj}")
    return obj


# Fraction(str) builds 10^|e| for a decimal exponent e, in time that grows
# faster than e; 4300 is the most digits int() reads from a string by default
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z")


def _bounded_exponent(text: str, location: str) -> None:
    """Refuse, at location, a decimal exponent past _MAX_EXPONENT in magnitude,
    before Fraction(text) builds its power of ten."""
    exponent = _EXPONENT.search(text)
    if exponent:
        digits = exponent[1].replace("_", "").lstrip("0")
        if len(digits) > len(str(_MAX_EXPONENT)) or int(digits or 0) > _MAX_EXPONENT:
            raise SchemaError(location, f"expected a decimal exponent of at most {_MAX_EXPONENT} in magnitude")


def real_from_json(
    obj: Any, location: str, above: float | None = None, below: float | None = None
) -> float:
    """A finite real number, given as a JSON number or an exact 'p/q' string."""
    x = _finite(obj)
    if x is None and isinstance(obj, str):
        _bounded_exponent(obj, location)
        try:
            x = float(Fraction(obj))
        except (ValueError, ZeroDivisionError, OverflowError):
            pass
    if x is None:
        raise SchemaError(location, f"expected a finite number or 'p/q', got {obj!r}")
    if above is not None and not x > above:
        raise SchemaError(location, f"expected a number > {above}, got {x}")
    if below is not None and not x < below:
        raise SchemaError(location, f"expected a number < {below}, got {x}")
    return x


def _complex(obj: Any) -> complex | None:
    """The value of a finite JSON number or [re, im] pair; None for anything else."""
    if isinstance(obj, list) and len(obj) == 2:
        re, im = _finite(obj[0]), _finite(obj[1])
        if re is not None and im is not None:
            return complex(re, im)
    elif _finite(obj) is not None:
        return complex(obj)
    return None


def complex_from_json(obj: Any, location: str) -> complex:
    """A finite complex number, given as a JSON number or an [re, im] pair."""
    z = _complex(obj)
    if z is None:
        raise SchemaError(location, f"expected a number or [re, im], got {obj!r}")
    return z


def str_from_json(obj: Any, location: str, choices: tuple[str, ...] | None = None) -> str:
    if not isinstance(obj, str):
        raise SchemaError(location, f"expected a string, got {obj!r}")
    if choices is not None and obj not in choices:
        raise SchemaError(location, f"expected one of {', '.join(map(repr, choices))}, got {obj!r}")
    return obj


def bool_from_json(obj: Any, location: str) -> bool:
    if not isinstance(obj, bool):
        raise SchemaError(location, f"expected a boolean, got {obj!r}")
    return obj


def int_text(n: int) -> str:
    """str(n), also past Python's limit on the digits of an int-to-str
    conversion (4300 by default): decimal converts without that limit."""
    try:
        return int.__repr__(n)
    except ValueError:
        return str(Decimal(n))


def frac_to_json(x: Fraction) -> Any:
    if x.denominator == 1:
        return int(x)
    try:
        return f"{x.numerator}/{x.denominator}"
    except ValueError:  # a part past the digit limit
        return f"{int_text(x.numerator)}/{int_text(x.denominator)}"


# the spelling frac_to_json writes; any other goes through Fraction(str)
_PLAIN_RATIONAL = re.compile(r"(-?[0-9]+)/([0-9]+)")


def frac_from_json(obj: Any, location: str = "$") -> Fraction:
    try:
        if isinstance(obj, bool):
            raise TypeError
        if isinstance(obj, int):
            return Fraction(obj)
        if isinstance(obj, str):
            plain = _PLAIN_RATIONAL.fullmatch(obj)
            # int() refuses a part past the digit limit, as Fraction(str) does
            if plain:
                return Fraction(int(plain[1]), int(plain[2]))
            _bounded_exponent(obj, location)
            return Fraction(obj)
    except SchemaError:
        raise
    except (TypeError, ValueError, ZeroDivisionError):
        pass
    raise SchemaError(location, f"expected exact rational (int or 'p/q'), got {obj!r}")


def object_from_json(obj: Any, location: str = "$") -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(location, "expected a JSON object")
    return obj


def list_from_json(
    obj: Any,
    location: str,
    items: Callable[[Any, str], Any] | None = None,
    length: int | None = None,
) -> list:
    """A list, of ``length`` entries when given, each read by ``items`` when given."""
    if not isinstance(obj, list) or (length is not None and len(obj) != length):
        wanted = "" if length is None else f" of {length} entries"
        raise SchemaError(location, f"expected a list{wanted}")
    if items is None:
        return obj
    return [items(x, f"{location}[{i}]") for i, x in enumerate(obj)]


def realvec_from_json(obj: Any, location: str) -> list[float]:
    if not obj:
        raise SchemaError(location, "expected a non-empty list of numbers")
    return list_from_json(obj, location, real_from_json)


def fracvec_to_json(v) -> list[Any]:
    return [frac_to_json(x if type(x) is Fraction else Fraction(x)) for x in v]


def fracvec_from_json(obj: Any, location: str = "$", length: int | None = None) -> tuple[Fraction, ...]:
    """Exact rationals, ``length`` of them when given."""
    return tuple(list_from_json(obj, location, frac_from_json, length))


def matrix_to_json(m: np.ndarray) -> list[list[list[float]]]:
    import numpy as np

    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    # the float view of a contiguous complex array holds re, im side by side:
    # the values of np.stack((a.real, a.imag), -1), -0.0 included
    return np.ascontiguousarray(a).view(float).reshape(*a.shape, 2).tolist()


_LIST, _PAIR, _PART = {list}, {2}, {int, float}


def _pairs_matrix(obj: list) -> np.ndarray | None:
    """The matrix of equal-width rows of [re, im] pairs of finite JSON numbers,
    read in C; None for anything else, which the entry reader then refuses or
    reads one entry at a time."""
    import numpy as np

    if type(obj[0]) is not list:
        return None
    width = len(obj[0])
    pairs = []
    for row in obj:
        if type(row) is not list or len(row) != width:
            return None
        pairs += row
    if not set(map(type, pairs)) <= _LIST or not set(map(len, pairs)) <= _PAIR:
        return None
    parts = list(chain.from_iterable(pairs))
    if not set(map(type, parts)) <= _PART:  # exact types: a bool is no number
        return None
    try:
        flat = np.array(parts, dtype=float)
    except OverflowError:  # an int beyond the float range
        return None
    if not np.isfinite(flat).all():  # 1e400 parses to inf
        return None
    # a view keeps the sign of each part; re + 1j * im would turn -0.0j into +0.0j
    return flat.view(complex).reshape(len(obj), width)


def matrix_from_json(obj: Any, location: str = "$", n: int | None = None) -> np.ndarray:
    """A complex matrix, n x n when n is given."""
    import numpy as np

    if not isinstance(obj, list) or not obj:
        raise SchemaError(location, "expected a non-empty nested list matrix")
    m = _pairs_matrix(obj)
    if m is None:
        rows = []
        for i, row in enumerate(obj):
            if not isinstance(row, list):
                raise SchemaError(f"{location}[{i}]", "expected a list row")
            values = [_complex(z) for z in row]
            if None in values:  # spell a location only for the entry that is refused
                j = values.index(None)
                complex_from_json(row[j], f"{location}[{i}][{j}]")  # raises SchemaError
            rows.append(values)
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise SchemaError(location, "ragged matrix rows")
        m = np.array(rows, dtype=complex)
    if n is not None and m.shape != (n, n):
        raise SchemaError(location, f"expected a {n}x{n} matrix, got {m.shape[0]}x{m.shape[1]}")
    return m
