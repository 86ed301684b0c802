"""Parabolic-type subalgebras attached to torus elements and alcove weights.

For a Hermitian s the subalgebra p_s collects the nonpositive ad(s)-eigenspaces
(the stabilizer of the ascending eigenvalue flag), l_s its kernel, n_s the
strictly negative part; chi_s is the trace pairing against s, which vanishes
on n_s and on commutators of the Levi.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .liealg import Realization, _exp_hermitian, _restricted, ad_eigendecompose, ad_grading, trace_form


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


@dataclass(frozen=True)
class ParabolicGrading:
    """The eigenvalues of ad(s) and the dimensions of p_s, l_s and n_s."""

    eigenvalues: tuple[float, ...]
    dim_l: int
    dim_n: int

    @property
    def dim_p(self) -> int:
        return self.dim_l + self.dim_n


def _part(lam: float, tol: float) -> str | None:
    """The part of p_s an ad(s)-eigenvalue grades: "l" (zero), "n" (negative) or None."""
    return "l" if abs(lam) <= tol else "n" if lam < 0 else None


def parabolic_from(real: Realization, s: np.ndarray, space: str = "g^C", tol: float = 1e-9) -> ParabolicDatum:
    """Parabolic p_s = (nonpositive ad(s)-eigenspaces) inside the chosen model."""
    eig = ad_eigendecompose(real, s, space=space, tol=tol)
    parts: dict[str | None, list[np.ndarray]] = {"l": [], "n": [], None: []}
    for lam, basis in eig:
        parts[_part(lam, tol)].extend(basis)
    return ParabolicDatum(
        s=np.asarray(s, dtype=complex),
        space=space,
        p_basis=parts["n"] + parts["l"],  # ascending, as the eigenvalues
        l_basis=parts["l"],
        n_basis=parts["n"],
        eigenvalues=tuple(lam for lam, _ in eig),
    )


def parabolic_grading(real: Realization, s: np.ndarray, space: str, tol: float = 1e-9) -> ParabolicGrading:
    """The grading of ``parabolic_from``, without a basis."""
    grading = ad_grading(real, s, space=space, tol=tol)
    dims = {"l": 0, "n": 0, None: 0}
    for lam, mult in grading:
        dims[_part(lam, tol)] += mult
    return ParabolicGrading(tuple(lam for lam, _ in grading), dims["l"], dims["n"])


def p1_subalgebra(real: Realization, alpha: np.ndarray) -> list[np.ndarray]:
    """Basis of the (-1)-eigenspace of ad(alpha) on h^C (gauge directions n/z).

    Empty exactly when alpha lies in the open star for the h-scope.
    """
    out = []
    for lam, basis in ad_eigendecompose(real, alpha, space="h^C"):
        if abs(lam + 1.0) <= 1e-7:
            out.extend(basis)
    return out


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


def levi_centralizer_tilde(real: Realization, alpha: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Fixed spaces of Ad(e^{2 pi i alpha}) on (m^C, h^C): the residue ambient
    space m~0 and the Lie algebra of the stabilizer inside H^C."""
    u = _exp_hermitian(alpha, 2j * np.pi)  # alpha is Hermitian, a compact torus element
    m_tilde = _fixed_space(real.basis_mC(), u)
    stab = _fixed_space(real.basis_hC(), u)
    return m_tilde, stab
