"""The ad(a)-grading as ``liealg.ad_eigendecompose`` computed it before it
read the grading off one eigendecomposition of a: a test oracle.

The dense path builds an orthonormal basis of the model subspace, the
matrix of ad(a) in it and one eigh of that matrix, O(n^6) for gl_n.  The
structured grading must give the same eigenvalues to rounding, the same
multiplicities and the same NotInCartan verdicts.
"""
from __future__ import annotations

import numpy as np

from parhodge.liealg import NotInCartan, _frobenius
from parhodge.parabolic import _restricted


def dense_eigendecompose(real, a, space: str, tol: float = 1e-9) -> list[tuple[float, list[np.ndarray]]]:
    mats = (real.basis_hC() if space != "m^C" else []) + (real.basis_mC() if space != "h^C" else [])
    if not mats:
        return []
    a = np.asarray(a, dtype=complex)
    q, op = _restricted(mats, lambda b: a @ b - b @ a)
    if _frobenius(op - op.conj().T) > tol * (1 + _frobenius(op)):
        raise NotInCartan("ad(a) is not Hermitian on this subspace; a is not a torus element")
    vals, vecs = np.linalg.eigh(op)
    eigmats = (q @ vecs).T.reshape(-1, real.n, real.n)
    out: list[tuple[float, list[np.ndarray]]] = []
    for lam, mat in zip(vals, eigmats):
        if out and abs(lam - out[-1][0]) <= max(tol, 1e-9 * (1 + abs(lam))):
            out[-1][1].append(mat)
        else:
            out.append((float(lam), [mat]))
    return out
