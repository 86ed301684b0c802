"""The Bruhat elimination of ``degree.relative_position`` as the column loop
it was: a test oracle.

``relative_position`` eliminates on the transposed basis, one contiguous row
per column, with the norm, the pivot search and the rank-one update written
out; it must match this loop bit for bit: value, permutation and
``min_pivot_ratio``.
"""
from __future__ import annotations

import numpy as np

from parhodge.degree import RelativePosition, _commuting_trace


def looped_position(s: np.ndarray, sigma: np.ndarray, tol: float = 1e-9) -> RelativePosition:
    s = np.asarray(s, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    value = _commuting_trace(s, sigma)
    if value is not None:
        return RelativePosition(value=value, permutation=None, min_pivot_ratio=None, method="commuting")
    lam, v_sig = np.linalg.eigh(sigma)
    d, u_s = np.linalg.eigh(s)
    m = v_sig.conj().T @ u_s  # the eigenbasis of s in that of sigma
    perm = []
    worst = 1.0
    for i in range(len(d)):
        col = m[:, i]  # zero in the rows already used
        mags = np.abs(col)
        norm = float(np.linalg.norm(mags))
        rows = np.flatnonzero(mags > tol * norm)
        if not rows.size:
            raise ValueError(f"no entry of column {i} exceeds tol * ||column|| at tol = {tol:g}")
        p = int(rows[-1])
        worst = min(worst, float(mags[p]) / norm)
        m[:, i + 1 :] -= np.outer(col / col[p], m[p, i + 1 :])
        m[p, i + 1 :] = 0
        perm.append(p)
    return RelativePosition(
        value=float(d @ lam[perm]),
        permutation=tuple(perm),
        min_pivot_ratio=worst,
        method="bruhat relative position",
    )
