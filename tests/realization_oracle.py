"""``Realization`` as it was before the per-family table, one if-chain per
method, frozen: the table's oracle, and the explicit bases of g, h^C and m^C
that the models no longer carry, which the dense test oracles read."""

from dataclasses import dataclass

import numpy as np

from parhodge.liealg import UnsupportedGroup, hs_norm


@dataclass(frozen=True)
class OracleRealization:
    """Realization as it was before the family table, one if-chain per method."""

    label: str
    family: str  # GL_C | SL_C | U | SU | SL_R | SU_pq
    n: int
    signature: tuple[int, int] | None = None

    # ----- involutions and conjugations ---------------------------------

    def theta(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if self.family in ("GL_C", "SL_C", "U", "SU"):
            return -x.conj().T
        if self.family == "SL_R":
            return -x.T
        if self.family == "SU_pq":
            j = self._J()
            return j @ x @ j
        raise UnsupportedGroup(self.family)

    def sigma(self, x: np.ndarray) -> np.ndarray:
        """Conjugation of g^C over the real form (on the honest g^C model)."""
        x = np.asarray(x, dtype=complex)
        if self.family == "SL_R":
            return x.conj()
        if self.family == "SU_pq":
            j = self._J()
            return -j @ x.conj().T @ j
        if self.family in ("U", "SU"):
            return -x.conj().T
        if self.family in ("GL_C", "SL_C"):
            # on the m^C model (all of gl_n) the real points are the Hermitian matrices
            return x.conj().T
        raise UnsupportedGroup(self.family)

    @staticmethod
    def tau(x: np.ndarray) -> np.ndarray:
        """-x^*, matrix by matrix over the leading axes of a stack."""
        return -np.asarray(x, dtype=complex).conj().swapaxes(-1, -2)

    def _J(self) -> np.ndarray:
        p, q = self.signature
        return np.diag([1.0] * p + [-1.0] * q).astype(complex)

    # ----- subspace projections -----------------------------------------

    def project_hC(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if self.family in ("GL_C", "SL_C", "U", "SU"):
            return x  # abstract model: h^C is a full copy of gl_n / sl_n
        if self.family == "SL_R":
            return (x - x.T) / 2
        if self.family == "SU_pq":
            p, _ = self.signature
            out = x.copy()
            out[:p, p:] = 0
            out[p:, :p] = 0
            return out
        raise UnsupportedGroup(self.family)

    def project_mC(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if self.family in ("GL_C", "SL_C"):
            return x
        if self.family in ("U", "SU"):
            return np.zeros_like(x)
        if self.family == "SL_R":
            sym = (x + x.T) / 2
            return sym - np.trace(sym) / self.n * np.eye(self.n)
        if self.family == "SU_pq":
            p, _ = self.signature
            out = np.zeros_like(x)
            out[:p, p:] = x[:p, p:]
            out[p:, :p] = x[p:, :p]
            return out
        raise UnsupportedGroup(self.family)

    def in_mC(self, x: np.ndarray, tol: float = 1e-9) -> bool:
        return hs_norm(self.project_mC(x) - x) <= tol * (1 + hs_norm(x))

    def in_hC(self, x: np.ndarray, tol: float = 1e-9) -> bool:
        return hs_norm(self.project_hC(x) - x) <= tol * (1 + hs_norm(x))

    def in_g(self, x: np.ndarray, tol: float = 1e-9) -> bool:
        """Membership in the real form (fixed points of sigma on the g^C model)."""
        if self.family in ("GL_C", "SL_C", "U", "SU"):
            # the real Lie algebra of a complex/compact group model is gl_n(C)/u(n) itself
            x = np.asarray(x, dtype=complex)
            if self.family in ("U", "SU"):
                return hs_norm(x + x.conj().T) <= tol * (1 + hs_norm(x))
            return True
        return hs_norm(self.sigma(x) - x) <= tol * (1 + hs_norm(x))

    # ----- bases ----------------------------------------------------------

    def basis_g(self) -> list[np.ndarray]:
        """Real basis of the real form g (as complex arrays)."""
        n = self.n
        out: list[np.ndarray] = []
        if self.family == "SL_R":
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    m = np.zeros((n, n), dtype=complex)
                    m[i, j] = 1
                    out.append(m)
            for i in range(n - 1):
                m = np.zeros((n, n), dtype=complex)
                m[i, i], m[i + 1, i + 1] = 1, -1
                out.append(m)
            return out
        if self.family == "SU_pq":
            p, q = self.signature
            for i in range(n):
                for j in range(i + 1, n):
                    eps = 1.0 if (i < p) == (j < p) else -1.0
                    m = np.zeros((n, n), dtype=complex)
                    m[i, j], m[j, i] = 1, -eps
                    out.append(m)
                    m = np.zeros((n, n), dtype=complex)
                    m[i, j], m[j, i] = 1j, 1j * eps
                    out.append(m)
            for i in range(n - 1):
                m = np.zeros((n, n), dtype=complex)
                m[i, i], m[i + 1, i + 1] = 1j, -1j
                out.append(m)
            return out
        raise UnsupportedGroup(f"basis_g only provided for real forms, not {self.label}")

    def basis_hC(self) -> list[np.ndarray]:
        n = self.n
        if self.family in ("GL_C", "U"):
            return _gl_basis(n)
        if self.family in ("SL_C", "SU"):
            return _sl_basis(n)
        if self.family == "SL_R":
            return [_unit(n, i, j) - _unit(n, j, i) for i in range(n) for j in range(i + 1, n)]
        if self.family == "SU_pq":
            p, q = self.signature
            out = [_unit(n, i, j) for i in range(n) for j in range(n) if (i < p) == (j < p) and i != j]
            out += _sl_diag_basis(n)
            return out
        raise UnsupportedGroup(self.family)

    def basis_mC(self) -> list[np.ndarray]:
        n = self.n
        if self.family in ("GL_C",):
            return _gl_basis(n)
        if self.family in ("SL_C",):
            return _sl_basis(n)
        if self.family in ("U", "SU"):
            return []
        if self.family == "SL_R":
            out = [_unit(n, i, j) + _unit(n, j, i) for i in range(n) for j in range(i + 1, n)]
            out += [_unit(n, i, i) - _unit(n, i + 1, i + 1) for i in range(n - 1)]
            return out
        if self.family == "SU_pq":
            p, _ = self.signature
            return [_unit(n, i, j) for i in range(n) for j in range(n) if (i < p) != (j < p)]
        raise UnsupportedGroup(self.family)


def _unit(n: int, i: int, j: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1
    return m


def _gl_basis(n: int) -> list[np.ndarray]:
    return [_unit(n, i, j) for i in range(n) for j in range(n)]


def _sl_diag_basis(n: int) -> list[np.ndarray]:
    return [_unit(n, i, i) - _unit(n, i + 1, i + 1) for i in range(n - 1)]


def _sl_basis(n: int) -> list[np.ndarray]:
    return [_unit(n, i, j) for i in range(n) for j in range(n) if i != j] + _sl_diag_basis(n)


def oracle_of(real) -> OracleRealization:
    """The frozen model of the same label as the realization ``real``."""
    return OracleRealization(real.label, real.family, real.n, real.signature)
