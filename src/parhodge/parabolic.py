"""Parabolic-type subalgebras attached to torus elements and alcove weights.

For a Hermitian s the subalgebra p_s collects the nonpositive ad(s)-eigenspaces
(the stabilizer of the ascending eigenvalue flag), l_s its kernel, n_s the
strictly negative part; chi_s is the trace pairing against s, which vanishes
on n_s and on commutators of the Levi.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .liealg import Realization, _pow2_of, ad_eigendecompose, ad_grading, trace_form


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
    top = _pow2_of(np.asarray(s, dtype=complex))  # zero is read as the grading reads s
    parts: dict[str | None, list[np.ndarray]] = {"l": [], "n": [], None: []}
    for lam, basis in eig:
        parts[_part(lam / top, tol)].extend(basis)
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
    top = _pow2_of(np.asarray(s, dtype=complex))
    dims = {"l": 0, "n": 0, None: 0}
    for lam, mult in grading:
        dims[_part(lam / top, tol)] += mult
    return ParabolicGrading(tuple(lam for lam, _ in grading), dims["l"], dims["n"])


# an ad(alpha)-eigenvalue within this of an integer puts alpha on a wall
_WALL_TOL = 1e-7


def p1_subalgebra(real: Realization, alpha: np.ndarray) -> list[np.ndarray]:
    """Basis of the (-1)-eigenspace of ad(alpha) on h^C (gauge directions n/z).

    Empty exactly when alpha lies in the open star for the h-scope.
    """
    out = []
    for lam, basis in ad_eigendecompose(real, alpha, space="h^C"):
        if abs(lam + 1.0) <= _WALL_TOL:
            out.extend(basis)
    return out


def levi_centralizer_tilde(real: Realization, alpha: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Fixed spaces of Ad(e^{2 pi i alpha}) on (m^C, h^C): the residue ambient
    space m~0 and the Lie algebra of the stabilizer inside H^C.  Ad(e^{2 pi i
    alpha}) = e^{2 pi i ad(alpha)}, so they are the ad(alpha)-eigenspaces of
    integer eigenvalue; on a real form alpha must be theta-fixed."""
    out: dict[str, list[np.ndarray]] = {"m^C": [], "h^C": []}
    for space, kept in out.items():
        for lam, basis in ad_eigendecompose(real, alpha, space=space):
            if abs(lam - round(lam)) <= _WALL_TOL:
                kept.extend(basis)
    return out["m^C"], out["h^C"]
