"""The report converter as it stood before it dispatched on exact type: the
reference ``cli._plain`` is checked against, kept as a test oracle.

``plain`` tries one ``isinstance`` test after another on every value, and
writes a matrix by stacking its real and imaginary parts.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Any

import numpy as np

from parhodge.jsonio import frac_to_json


def matrix_to_json(m: np.ndarray) -> list[list[list[float]]]:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    return np.stack((a.real, a.imag), -1).tolist()


def plain(obj: Any) -> Any:
    """Recursively convert results to deterministic JSON-serializable values."""
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, Fraction):
        return frac_to_json(obj)
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.ndarray):
        if obj.ndim == 2:
            return matrix_to_json(obj)
        return [plain(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(x) for x in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")
