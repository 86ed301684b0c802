"""Parabolic-type subalgebras attached to torus elements and alcove weights.

For a Hermitian s the subalgebra p_s collects the nonpositive ad(s)-eigenspaces
(the stabilizer of the ascending eigenvalue flag), l_s its kernel, n_s the
strictly negative part; chi_s is the trace pairing against s, which vanishes
on n_s and on commutators of the Levi.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .liealg import NotInCartan, Realization, ad_eigendecompose, comm, hs_norm, trace_form
from .liealg import _exp_hermitian, _restricted


@dataclass(frozen=True)
class ParabolicDatum:
    s: np.ndarray
    space: str
    p_basis: list[np.ndarray]
    l_basis: list[np.ndarray]
    n_basis: list[np.ndarray]
    eigenvalues: tuple[float, ...]

    def chi(self, x: np.ndarray) -> complex:
        return trace_form(self.s, x)


def parabolic_from(real: Realization, s: np.ndarray, space: str = "g^C", tol: float = 1e-9) -> ParabolicDatum:
    """Parabolic p_s = (nonpositive ad(s)-eigenspaces) inside the chosen model."""
    eig = ad_eigendecompose(real, s, space=space, tol=tol)
    p, l, n = [], [], []
    for lam, basis in eig:
        if abs(lam) <= tol:
            l.extend(basis)
            p.extend(basis)
        elif lam < 0:
            n.extend(basis)
            p.extend(basis)
    return ParabolicDatum(
        s=np.asarray(s, dtype=complex),
        space=space,
        p_basis=p,
        l_basis=l,
        n_basis=n,
        eigenvalues=tuple(lam for lam, _ in eig),
    )


def chi_vanishing_defect(real: Realization, datum: ParabolicDatum) -> float:
    """Max |chi_s| over n_s and over brackets of the Levi basis (should be ~0)."""
    worst = 0.0
    for b in datum.n_basis:
        worst = max(worst, abs(datum.chi(b)))
    for i, a in enumerate(datum.l_basis):
        for b in datum.l_basis[i + 1 :]:
            worst = max(worst, abs(datum.chi(comm(a, b))))
    return worst


def p1_subalgebra(real: Realization, alpha: np.ndarray, tol: float = 1e-9) -> list[np.ndarray]:
    """Basis of the (-1)-eigenspace of ad(alpha) on h^C (gauge directions n/z).

    Empty exactly when alpha lies in the open star for the h-scope.
    """
    out = []
    for lam, basis in ad_eigendecompose(real, alpha, space="h^C", tol=tol):
        if abs(lam + 1.0) <= 1e-7:
            out.extend(basis)
    return out


def _fixed_space(mats: list[np.ndarray], u: np.ndarray, tol: float) -> list[np.ndarray]:
    if not mats:
        return []
    u_inv = np.linalg.inv(u)
    q, op = _restricted(mats, lambda b: u @ b @ u_inv - b)
    _, s, vh = np.linalg.svd(op)
    top = s[0] if len(s) and s[0] > 1 else 1.0
    rank = int(np.sum(s > tol * top))
    n = mats[0].shape[0]
    return list((q @ vh[rank:].conj().T).T.reshape(-1, n, n))


def levi_centralizer_tilde(
    real: Realization, alpha: np.ndarray, tol: float = 1e-8
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Fixed spaces of Ad(e^{2 pi i alpha}) on (m^C, h^C): the residue ambient
    space m~0 and the Lie algebra of the stabilizer inside H^C."""
    u = _exp_hermitian(alpha, 2j * np.pi)  # alpha is Hermitian (Realization.cartan_element)
    m_tilde = _fixed_space(real.basis_mC(), u, tol)
    stab = _fixed_space(real.basis_hC(), u, tol)
    return m_tilde, stab
