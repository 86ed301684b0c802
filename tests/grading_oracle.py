"""The ad(a)-grading as ``liealg.ad_eigendecompose`` computed it before it
read the grading off one eigendecomposition of a, and the fixed spaces of
Ad(e^{2 pi i alpha}) as ``parabolic.levi_centralizer_tilde`` did: test oracles.

The dense path builds an orthonormal basis of the model subspace, the
matrix of ad(a) in it and one eigh of that matrix, O(n^6) for gl_n.  The
structured grading must give the same eigenvalues to rounding, the same
multiplicities and the same NotInCartan verdicts.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
from realization_oracle import oracle_of

from parhodge.liealg import NotInCartan, _exp_hermitian, _frobenius


def model_basis(real, space: str) -> list[np.ndarray]:
    """The explicit basis of h^C, m^C or their sum g^C in the model of ``real``."""
    oracle = oracle_of(real)
    return (oracle.basis_hC() if space != "m^C" else []) + (oracle.basis_mC() if space != "h^C" else [])


def _restricted(basis: list[np.ndarray], apply: Callable) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal columns q spanning the row-major vectorized basis, and the
    matrix q^H vec(L(q)) of a linear map L on n x n matrices; L receives the
    whole (k, n, n) stack of the columns at once."""
    n = basis[0].shape[0]
    q, _ = np.linalg.qr(np.stack([b.ravel() for b in basis]).T)
    stack = q.T.reshape(-1, n, n)
    return q, q.conj().T @ apply(stack).reshape(len(stack), -1).T


def _fixed_space(mats: list[np.ndarray], u: np.ndarray) -> list[np.ndarray]:
    if not mats:
        return []
    u_inv = np.linalg.inv(u)
    q, op = _restricted(mats, lambda b: u @ b @ u_inv - b)
    _, s, vh = np.linalg.svd(op)
    top = s[0] if len(s) and s[0] > 1 else 1.0
    rank = int(np.sum(s > 1e-8 * top))
    n = mats[0].shape[0]
    return list((q @ vh[rank:].conj().T).T.reshape(-1, n, n))


def dense_levi_centralizer_tilde(real, alpha: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The fixed spaces of Ad(e^{2 pi i alpha}) on (m^C, h^C) as
    ``parabolic.levi_centralizer_tilde`` computed them before it read the
    integer ad(alpha)-eigenspaces: the kernel of Ad(u) - 1 compressed onto the
    model basis, O(n^6), for u = e^{2 pi i alpha}."""
    u = _exp_hermitian(alpha, 2j * np.pi)  # alpha is Hermitian, a compact torus element
    return _fixed_space(model_basis(real, "m^C"), u), _fixed_space(model_basis(real, "h^C"), u)


def dense_eigendecompose(real, a, space: str, tol: float = 1e-9) -> list[tuple[float, list[np.ndarray]]]:
    mats = model_basis(real, space)
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
