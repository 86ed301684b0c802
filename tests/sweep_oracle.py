"""The sample sweep of ``degree-relative`` as the per-pair loop it was: a
test oracle.

``_sample_hermitian_pair`` and the two ``relative_position`` calls per pair
are the loop the CLI ran before its sweep went through the stacked kernel
``degree.relative_positions``; the sweep must match them bit for bit.
"""
from __future__ import annotations

import numpy as np

from parhodge.degree import relative_position
from parhodge.liealg import hs_norm


def _sample_hermitian_pair(real, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    out = []
    for _ in range(2):
        a = rng.standard_normal((real.n, real.n)) + 1j * rng.standard_normal((real.n, real.n))
        m = (a + a.conj().T) / 2.0
        norm = hs_norm(m)
        if norm < 1e-8:
            return _sample_hermitian_pair(real, rng)
        out.append(m / norm)
    return out[0], out[1]


def looped_sweep(real, count: int, rng: np.random.Generator, tol: float = 1e-9):
    """(max gap, forward positions, backward positions) of ``count`` drawn
    pairs, one pair and one order at a time.  A refused pair raises its
    ValueError."""
    worst = 0.0
    forwards, backwards = [], []
    for _ in range(count):
        s, sigma = _sample_hermitian_pair(real, rng)
        forward = relative_position(s, sigma, tol)
        backward = relative_position(sigma, s, tol)
        worst = max(worst, abs(forward.value - backward.value))
        forwards.append(forward)
        backwards.append(backward)
    return worst, forwards, backwards
