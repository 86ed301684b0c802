"""JSON encoding helpers shared by the data models and the CLI.

Rationals travel as exact "p/q" strings (or bare integers), complex matrices
as nested [re, im] pairs, so files round-trip without float drift on the
exact fields.

Every field of an input document is read by one ``*_from_json`` reader per
type.  A reader takes ``(value, location)``, where the location is a
JSON-pointer-ish path such as ``$.grid.r_max`` or ``$.s[0][1]``, plus an
optional range or set of allowed values, and raises ``SchemaError`` carrying
that location when the value does not fit.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import chain
from typing import Any, Callable

import numpy as np


class SchemaError(ValueError):
    """Malformed input document; message carries a JSON-pointer-ish location."""

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location


_NON_FINITE = object()  # stands in for a NaN or Infinity literal until it is located


def _walk(obj: Any, location: str = "$"):
    """Every (location, value) pair of a parsed document, depth first."""
    yield location, obj
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _walk(value, f"{location}.{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _walk(value, f"{location}[{i}]")


def parse_document(text: str) -> Any:
    """``json.loads`` that refuses NaN and Infinity, naming where they sit."""
    seen = []

    def constant(name: str) -> object:
        seen.append(name)
        return _NON_FINITE

    try:
        obj = json.loads(text, parse_constant=constant)
    except json.JSONDecodeError as exc:
        where = f"$ (line {exc.lineno}, column {exc.colno})"
        raise SchemaError(where, "input is not valid JSON") from exc
    if seen:
        where = next(location for location, value in _walk(obj) if value is _NON_FINITE)
        raise SchemaError(where, f"{seen[0]} is not a finite number")
    return obj


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


def real_from_json(
    obj: Any, location: str, above: float | None = None, below: float | None = None
) -> float:
    """A finite real number, given as a JSON number or an exact 'p/q' string."""
    x = _finite(obj)
    if x is None and isinstance(obj, str):
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


def frac_to_json(x: Fraction) -> Any:
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def frac_from_json(obj: Any, location: str = "$") -> Fraction:
    try:
        if isinstance(obj, bool):
            raise TypeError
        if isinstance(obj, int):
            return Fraction(obj)
        if isinstance(obj, str):
            return Fraction(obj)
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
    return [frac_to_json(Fraction(x)) for x in v]


def fracvec_from_json(obj: Any, location: str = "$") -> tuple[Fraction, ...]:
    return tuple(list_from_json(obj, location, frac_from_json))


def matrix_to_json(m: np.ndarray) -> list[list[list[float]]]:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    return np.stack((a.real, a.imag), -1).tolist()


_LIST, _PAIR, _PART = {list}, {2}, {int, float}


def _pairs_matrix(obj: list) -> np.ndarray | None:
    """The matrix of equal-width rows of [re, im] pairs of finite JSON numbers,
    read in C; None for anything else, which the entry reader then refuses or
    reads one entry at a time."""
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


def matrix_from_json(obj: Any, location: str = "$") -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise SchemaError(location, "expected a non-empty nested list matrix")
    m = _pairs_matrix(obj)
    if m is not None:
        return m
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
    return np.array(rows, dtype=complex)
