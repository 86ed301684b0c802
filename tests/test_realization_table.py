"""The per-family table behind ``Realization`` against the if-chain class it
replaced, kept here frozen as the oracle; and the guard that only ``liealg``
reads a realization's family."""

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

from parhodge.liealg import (
    NotInCartan,
    Realization,
    UnsupportedGroup,
    build_realization,
    comm,
    hs_norm,
    is_nilpotent,
)

# ---------------------------------------------------------------------------
# the oracle: Realization with one family if-chain per method, frozen
# ---------------------------------------------------------------------------


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

    # ----- Cartan data ----------------------------------------------------

    def cartan_element(self, coeffs: Sequence) -> np.ndarray:
        """Hermitian torus element from weight coordinates (diagonal models)."""
        vals = [float(c) for c in coeffs]
        n = self.n
        if self.family == "SL_R":
            if n != 2:
                raise UnsupportedGroup("cartan_element for SL(n,R) implemented for n = 2")
            if len(vals) != 1:
                raise NotInCartan("SL(2,R) torus coordinate is one number")
            (a,) = vals
            return a * np.array([[0, 1j], [-1j, 0]], dtype=complex)
        if len(vals) != n:
            raise NotInCartan(f"expected {n} diagonal coordinates")
        if self.family in ("SL_C", "SU", "SU_pq") and abs(sum(vals)) > 1e-12:
            raise NotInCartan("traceless model needs coordinates summing to zero")
        return np.diag(vals).astype(complex)


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



# ---------------------------------------------------------------------------
# the table against the oracle
# ---------------------------------------------------------------------------

LABELS = [f"{g}({n}{f})" for n in range(1, 6) for g, f in (("GL", ",C"), ("SL", ",C"), ("SL", ",R"), ("U", ""), ("SU", ""))]
LABELS += [f"SU({p},{q})" for p in range(1, 5) for q in range(1, 6 - p)]


def outcome(call):
    """What a call returns, down to the bytes of its arrays, or what it raises."""
    try:
        value = call()
    except Exception as exc:  # the oracle and the table must raise alike
        return ("raises", type(exc), str(exc))
    return ("returns", flat(value))


def flat(value):
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (list, tuple)):
        return [flat(v) for v in value]
    return value


def random_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


@pytest.mark.parametrize("label", LABELS)
def test_table_matches_the_if_chain_oracle(label):
    real = build_realization(label)
    oracle = OracleRealization(real.label, real.family, real.n, real.signature)
    n = real.n
    rng = np.random.default_rng(n + 10 * len(label))
    calls = {}
    for name in ("basis_g", "basis_hC", "basis_mC"):
        calls[name] = lambda r, name=name: getattr(r, name)()
    for k in range(4):
        x = random_matrix(rng, n)
        real_x = rng.standard_normal((n, n))
        for name in ("theta", "sigma", "tau", "project_hC", "project_mC"):
            calls[f"{name} {k}"] = lambda r, name=name, x=x: getattr(r, name)(x)
            calls[f"{name} real {k}"] = lambda r, name=name, x=real_x: getattr(r, name)(x)
        # membership on random matrices (mostly False) and on projected,
        # sigma-symmetrized and theta-symmetrized ones (True where the model says so)
        for kind, y in (
            ("random", x),
            ("h^C", oracle.project_hC(x)),
            ("m^C", oracle.project_mC(x)),
            ("sigma-fixed", (x + oracle.sigma(x)) / 2),
        ):
            for name in ("in_hC", "in_mC", "in_g"):
                calls[f"{name} {kind} {k}"] = lambda r, name=name, y=y: getattr(r, name)(y)
        coords = rng.standard_normal(n)
        for kind, c in (("free", coords), ("traceless", coords - coords.mean()), ("one", coords[:1])):
            calls[f"cartan_element {kind} {k}"] = lambda r, c=c: r.cartan_element(list(c))
    if real.signature is not None:
        calls["J"] = lambda r: r._J if isinstance(r, Realization) else r._J()
    for name, call in calls.items():
        assert outcome(lambda: call(real)) == outcome(lambda: call(oracle)), (label, name)


def test_unknown_family_and_empty_rank_are_refused_at_construction():
    with pytest.raises(UnsupportedGroup):
        Realization("Sp(4,R)", "Sp_R", 4)
    with pytest.raises(UnsupportedGroup):
        build_realization("GL(0,C)")
    with pytest.raises(UnsupportedGroup):
        build_realization("SU(0)")


# ---------------------------------------------------------------------------
# what other modules ask of a realization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("label", LABELS)
def test_class_answers(label):
    real = build_realization(label)
    assert real.real_form == (real.family in ("SL_R", "SU_pq"))
    assert real.split_rank_one == (label == "SL(2,R)")
    assert (real.eigenlines is not None) == (label in ("SL(2,R)", "SU(1,1)"))
    expected = real.signature if real.signature is not None else (1, 1) if label == "SL(2,R)" else None
    assert real.hermitian_signature == expected


@pytest.mark.parametrize("label", ["SL(2,R)", "SU(1,1)"])
def test_eigenlines_are_the_two_nilpotent_mC_lines(label):
    real = build_realization(label)
    (h_plus, plus), (h_minus, minus) = real.eigenlines
    for h, y in ((h_plus, plus), (h_minus, minus)):
        assert hs_norm(comm(h, y) + 2 * y) < 1e-12
        assert real.in_mC(y) and real.in_hC(h) and is_nilpotent(y)
    assert hs_norm(h_plus + h_minus) < 1e-12
    assert abs(np.vdot(plus, minus)) < 1e-12


# ---------------------------------------------------------------------------
# the guard
# ---------------------------------------------------------------------------


def test_only_liealg_reads_the_family():
    package = Path(__file__).resolve().parents[1] / "src" / "parhodge"
    readers = []
    for path in sorted(package.glob("*.py")):
        if path.name == "liealg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "family":
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []
