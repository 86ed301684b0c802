"""The input reader as it stood before it reused one decoder: the reference
``jsonio.parse_document`` is checked against, kept as a test oracle.

``parse_document`` builds a decoder per call whose ``parse_constant`` records
each NaN or Infinity literal and leaves a marker in its place, then walks the
parsed document for the first marker.  A literal under a key that a later
duplicate of the key overwrites leaves no marker to find, so the walk fails
with StopIteration: oracle tests leave duplicate keys out.
"""
from __future__ import annotations

import json
from typing import Any

from parhodge.jsonio import SchemaError

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
