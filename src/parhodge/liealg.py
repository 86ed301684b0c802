"""Matrix models of the supported real/complex reductive groups, sl2-triples,
Jacobson-Morozov, Kostant-Sekiguchi normalization, Cayley transform and the
multiplicative Jordan decomposition.

Conventions used throughout:
  * theta is the Cartan involution, tau(M) = -M^H the compact conjugation,
    sigma the conjugation over the real form; on every matrix model here
    tau(M) = -M^H holds verbatim.
  * sl2-triples (x, e, f) satisfy [x,e] = 2e, [x,f] = -2f, [e,f] = x.
  * The invariant form is the trace form tr(xy) (complex bilinear); its real
    part is negative definite on h and positive definite on m for every
    supported realization, which the tests pin down.
"""
from __future__ import annotations

import re as _re
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import expm


class UnsupportedGroup(ValueError):
    pass


class NotInModel(ValueError):
    """Matrix fails the membership/projection check of the requested subspace."""


class NotInCartan(ValueError):
    pass


class ZeroElement(ValueError):
    pass


class NotNilpotent(ValueError):
    pass


class NotInvertible(ValueError):
    pass


class NumericallyDefective(RuntimeError):
    """Eigenvalue clustering or the Jordan-Chevalley iteration failed."""


class TripleCompletionFailure(RuntimeError):
    pass


class ConvergenceFailure(RuntimeError):
    pass


def comm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def hs_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=complex)))


def trace_form(x: np.ndarray, y: np.ndarray) -> complex:
    """Complex bilinear trace form tr(xy)."""
    return complex(np.trace(np.asarray(x, dtype=complex) @ np.asarray(y, dtype=complex)))


_LABEL_RE = _re.compile(
    r"^(?:GL\((?P<gln>\d+),C\)|SL\((?P<sln>\d+),(?P<slf>[CR])\)|U\((?P<un>\d+)\)"
    r"|SU\((?P<sun>\d+)\)|SU\((?P<p>\d+),(?P<q>\d+)\))$"
)


@dataclass(frozen=True)
class Realization:
    """A concrete matrix model of one supported group."""

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

    def m_weights(self, rank_coords: int | None = None):
        """Covectors (on the diagonal coordinates) of ad(t) acting on m^C, or None."""
        n = self.n
        if self.family in ("GL_C", "SL_C"):
            return [_coord_diff(n, i, j) for i in range(n) for j in range(n) if i != j]
        if self.family in ("U", "SU"):
            return []
        if self.family == "SU_pq":
            p, _ = self.signature
            return [
                _coord_diff(n, i, j)
                for i in range(n)
                for j in range(n)
                if (i < p) != (j < p)
            ]
        if self.family == "SL_R" and n == 2:
            return [(2,), (-2,)]
        return None


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


def _coord_diff(n: int, i: int, j: int) -> tuple[int, ...]:
    return tuple(1 if k == i else (-1 if k == j else 0) for k in range(n))


def build_realization(label: str) -> Realization:
    """Parse a group label like 'GL(2,C)', 'SL(3,R)', 'SU(1,1)' into its model."""
    m = _LABEL_RE.match(label.replace(" ", ""))
    if not m:
        raise UnsupportedGroup(f"unrecognized group label {label!r}")
    if m.group("gln"):
        n = int(m.group("gln"))
        return Realization(label=f"GL({n},C)", family="GL_C", n=n)
    if m.group("sln"):
        n = int(m.group("sln"))
        fam = "SL_C" if m.group("slf") == "C" else "SL_R"
        return Realization(label=f"SL({n},{m.group('slf')})", family=fam, n=n)
    if m.group("un"):
        n = int(m.group("un"))
        return Realization(label=f"U({n})", family="U", n=n)
    if m.group("sun"):
        n = int(m.group("sun"))
        return Realization(label=f"SU({n})", family="SU", n=n)
    p, q = int(m.group("p")), int(m.group("q"))
    if min(p, q) < 1:
        raise UnsupportedGroup("SU(p,q) needs p, q >= 1")
    return Realization(label=f"SU({p},{q})", family="SU_pq", n=p + q, signature=(p, q))


# --------------------------------------------------------------------------
# ad-eigendecomposition
# --------------------------------------------------------------------------


def _orthonormalize(basis: list[np.ndarray]) -> list[np.ndarray]:
    flat = np.stack([b.ravel() for b in basis]).T  # columns = basis vectors
    q, r = np.linalg.qr(flat)
    n = basis[0].shape[0]
    return [q[:, k].reshape(n, n) for k in range(q.shape[1])]


def ad_eigendecompose(
    real: Realization, a: np.ndarray, space: str = "m^C", tol: float = 1e-9
) -> list[tuple[float, list[np.ndarray]]]:
    """Eigenvalues and eigenspace bases of ad(a) on the chosen model subspace.

    a must act semisimply with real spectrum (Hermitian ad-operator in an
    orthonormal basis); otherwise NotInCartan is raised.
    """
    basis = {"h^C": real.basis_hC, "m^C": real.basis_mC, "g^C": None}.get(space, "bad")
    if basis == "bad":
        raise ValueError(f"space must be one of h^C, m^C, g^C, got {space!r}")
    if basis is None:
        mats = real.basis_hC() + real.basis_mC()
    else:
        mats = basis()
    if not mats:
        return []
    mats = _orthonormalize(mats)
    a = np.asarray(a, dtype=complex)
    op = np.zeros((len(mats), len(mats)), dtype=complex)
    for j, b in enumerate(mats):
        img = comm(a, b)
        for i, c in enumerate(mats):
            op[i, j] = np.vdot(c, img)
    if np.linalg.norm(op - op.conj().T) > tol * (1 + np.linalg.norm(op)):
        raise NotInCartan("ad(a) is not Hermitian on this subspace; a is not a torus element")
    vals, vecs = np.linalg.eigh(op)
    out: list[tuple[float, list[np.ndarray]]] = []
    for k, lam in enumerate(vals):
        mat = sum(vecs[i, k] * mats[i] for i in range(len(mats)))
        if out and abs(lam - out[-1][0]) <= max(tol, 1e-9 * (1 + abs(lam))):
            out[-1][1].append(mat)
        else:
            out.append((float(lam), [mat]))
    return out


# --------------------------------------------------------------------------
# sl2-triples
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SL2Triple:
    x: np.ndarray
    e: np.ndarray
    f: np.ndarray
    flavor: str = "plain"  # plain | normal | ks_real | ks_normal

    def scaled(self, c: complex) -> "SL2Triple":
        return SL2Triple(self.x, c * self.e, self.f / c, self.flavor)


def validate_triple(real: Realization, t: SL2Triple, tol: float = 1e-8) -> None:
    """Raise NotInModel if the bracket relations or the flavor conditions fail."""
    scale = 1 + hs_norm(t.x) + hs_norm(t.e) + hs_norm(t.f)
    if hs_norm(comm(t.x, t.e) - 2 * t.e) > tol * scale:
        raise NotInModel("[x,e] != 2e")
    if hs_norm(comm(t.x, t.f) + 2 * t.f) > tol * scale:
        raise NotInModel("[x,f] != -2f")
    if hs_norm(comm(t.e, t.f) - t.x) > tol * scale:
        raise NotInModel("[e,f] != x")
    if t.flavor == "plain":
        return
    if t.flavor == "normal":
        if not (real.in_mC(t.e, tol) and real.in_mC(t.f, tol) and real.in_hC(t.x, tol)):
            raise NotInModel("normal triple needs e,f in m^C and x in h^C")
        return
    if t.flavor == "ks_real":
        if not (real.in_g(t.x, tol) and real.in_g(t.e, tol) and real.in_g(t.f, tol)):
            raise NotInModel("ks_real triple must lie in the real form")
        if hs_norm(real.theta(t.e) + t.f) > tol * scale:
            raise NotInModel("ks_real needs theta(e) = -f")
        return
    if t.flavor == "ks_normal":
        if not (real.in_mC(t.e, tol) and real.in_mC(t.f, tol) and real.in_hC(t.x, tol)):
            raise NotInModel("ks_normal triple needs e,f in m^C and x in h^C")
        if hs_norm(real.sigma(t.e) - t.f) > tol * scale:
            raise NotInModel("ks_normal needs f = sigma(e)")
        return
    raise ValueError(f"unknown flavor {t.flavor!r}")


def is_nilpotent(m: np.ndarray, tol: float = 1e-8) -> bool:
    # power test, not eigenvalues: the spectrum of a defective matrix
    # scatters like norm * eps**(1/n) in floating point, while ||m^n||
    # stays at rounding level
    m = np.asarray(m, dtype=complex)
    scale = np.linalg.norm(m)
    if scale == 0:
        return True
    power = np.linalg.matrix_power(m / scale, m.shape[0])
    return bool(np.linalg.norm(power) <= tol)


def _jordan_chains(e: np.ndarray, tol: float = 1e-9) -> list[list[np.ndarray]]:
    """Jordan chains of a nilpotent matrix, longest blocks first."""
    n = e.shape[0]
    powers = [np.eye(n, dtype=complex)]
    while np.linalg.norm(powers[-1]) > tol and len(powers) <= n:
        powers.append(powers[-1] @ e)
    depth = len(powers) - 1  # e^depth = 0

    def null_basis(m):
        u, s, vh = np.linalg.svd(m)
        r = int(np.sum(s > tol * max(1.0, s[0] if len(s) else 1.0)))
        return vh[r:].conj().T  # columns

    kernels = [np.zeros((n, 0), dtype=complex)] + [null_basis(powers[j]) for j in range(1, depth + 1)]
    chains: list[list[np.ndarray]] = []
    # choose chain tops level by level, from the deepest down
    used = np.zeros((n, 0), dtype=complex)
    for j in range(depth, 0, -1):
        # span to quotient by: ker e^{j-1} plus e * (tops of longer chains), plus already chosen tops
        span_cols = [kernels[j - 1]]
        for ch in chains:
            if len(ch) >= j:
                # the element of a longer chain sitting in ker e^j is e^{len-j} top = ch[j-1]
                span_cols.append(ch[j - 1].reshape(n, 1))
        span = np.hstack(span_cols) if span_cols else np.zeros((n, 0), dtype=complex)
        cand = kernels[j]
        # project candidates off the span, take independent leftovers as new tops
        if span.shape[1]:
            q, _ = np.linalg.qr(span)
            proj = cand - q @ (q.conj().T @ cand)
        else:
            proj = cand
        u, s, vh = np.linalg.svd(proj, full_matrices=False)
        new_tops = [u[:, k] for k in range(len(s)) if s[k] > tol * max(1.0, s[0] if len(s) else 1.0)]
        for top in new_tops:
            chain = [top]
            for _ in range(j - 1):
                chain.append(e @ chain[-1])
            chain.reverse()  # chain[0] = e^{j-1} top ... chain[-1] = top
            chains.append(chain)
    chains.sort(key=len, reverse=True)
    return chains


def jacobson_morozov(real: Realization | None, e: np.ndarray, tol: float = 1e-8) -> SL2Triple:
    """Complete a nonzero nilpotent matrix to an sl2-triple (x, e, f).

    Uses the Jordan normal form of e: per block of size d the standard triple
    has x = diag(d-1, d-3, ..., 1-d) and f with entries k(d-k) below the
    diagonal.  Real input gives a real triple.
    """
    e = np.asarray(e, dtype=complex)
    if hs_norm(e) < 1e-14:
        raise ZeroElement("e = 0 has no sl2-triple")
    if not is_nilpotent(e, tol):
        raise NotNilpotent("jacobson_morozov needs a nilpotent element")
    was_real = np.allclose(e.imag, 0, atol=1e-12 * (1 + hs_norm(e)))
    n = e.shape[0]
    chains = _jordan_chains(e)
    cols, xs, fs = [], [], []
    x_std = np.zeros((n, n), dtype=complex)
    f_std = np.zeros((n, n), dtype=complex)
    pos = 0
    for chain in chains:
        d = len(chain)
        cols.extend(chain)
        for k in range(d):
            x_std[pos + k, pos + k] = d - 1 - 2 * k
        for k in range(1, d):
            f_std[pos + k, pos + k - 1] = k * (d - k)
        pos += d
    p = np.stack(cols, axis=1)
    p_inv = np.linalg.inv(p)
    x = p @ x_std @ p_inv
    f = p @ f_std @ p_inv
    if was_real:
        x, f = x.real.astype(complex), f.real.astype(complex)
    t = SL2Triple(x=x, e=e, f=f, flavor="plain")
    scale = 1 + hs_norm(x) + hs_norm(e) + hs_norm(f)
    if hs_norm(comm(x, e) - 2 * e) > 1e-7 * scale or hs_norm(comm(e, f) - x) > 1e-7 * scale:
        raise TripleCompletionFailure("Jordan-chain completion failed the bracket check")
    return t


def cayley_transform(real: Realization, t: SL2Triple, tol: float = 1e-8) -> SL2Triple:
    """ks_real -> ks_normal: (x,e,f) |-> (H,X,Y) = (i(e-f), (e+f+ix)/2, (e+f-ix)/2)."""
    if t.flavor != "ks_real":
        raise NotInModel("cayley_transform expects a ks_real triple")
    validate_triple(real, t, tol)
    h = 1j * (t.e - t.f)
    x_new = (t.e + t.f + 1j * t.x) / 2
    y_new = (t.e + t.f - 1j * t.x) / 2
    out = SL2Triple(x=h, e=x_new, f=y_new, flavor="ks_normal")
    validate_triple(real, out, max(tol, 1e-8))
    return out


def inverse_cayley_transform(real: Realization, t: SL2Triple, tol: float = 1e-8) -> SL2Triple:
    """ks_normal -> ks_real: (H,X,Y) |-> ((X+Y-iH)/2, (X+Y+iH)/2 swapped into (x,e,f))."""
    if t.flavor != "ks_normal":
        raise NotInModel("inverse_cayley_transform expects a ks_normal triple")
    validate_triple(real, t, tol)
    h, x_big, y_big = t.x, t.e, t.f
    e = (x_big + y_big - 1j * h) / 2
    f = (x_big + y_big + 1j * h) / 2
    x = -1j * (x_big - y_big)
    out = SL2Triple(x=x, e=e, f=f, flavor="ks_real")
    validate_triple(real, out, max(tol, 1e-8))
    return out


def normalize_kostant_sekiguchi(
    real: Realization,
    t: SL2Triple,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> SL2Triple:
    """Conjugate a triple into Kostant-Sekiguchi normal form.

    plain (in g)        -> ks_real   (theta(e) = -f), by descent over g
    normal (in h^C,m^C) -> ks_normal (f = sigma(e)), by the torus scaling when
                           the defect is a scaling, else by descent.

    Descent directions include the noncompact part of the algebra: conjugation
    by the compact group alone preserves ||theta(e)+f|| identically, so a
    compact-only search cannot make progress.
    """
    validate_triple(real, t, max(tol, 1e-8))
    if t.flavor == "ks_real" or t.flavor == "ks_normal":
        return t
    if t.flavor == "normal":
        fixed = _normalize_normal_by_scaling(real, t, tol)
        if fixed is not None:
            return fixed
        raise TripleCompletionFailure(
            "normal triple defect is not a torus scaling; conjugate it into a "
            "standard component first"
        )
    if t.flavor != "plain":
        raise NotInModel(f"cannot normalize flavor {t.flavor!r}")
    for m in (t.x, t.e, t.f):
        if not real.in_g(m, 1e-6):
            raise NotInModel("plain triple must lie in the real form g")
    if real.family == "SL_R" and real.n == 2:
        return _ks_real_closed_form_sl2(real, t)

    basis = real.basis_g()
    x, e, f = (np.asarray(m, dtype=complex) for m in (t.x, t.e, t.f))

    def defect(e_, f_):
        d = real.theta(e_) + f_
        return float(np.vdot(d, d).real)

    val = defect(e, f)
    step = 0.5
    it = 0
    while val > tol * tol and it < max_iter:
        it += 1
        d = real.theta(e) + f
        grads = []
        for z in basis:
            de = comm(z, e)
            df = comm(z, f)
            g = 2 * np.vdot(d, real.theta(de) + df).real
            grads.append(g)
        gvec = np.array(grads)
        gn = np.linalg.norm(gvec)
        if gn < 1e-15:
            break
        direction = sum(-g * z for g, z in zip(gvec, basis)) / gn
        # backtracking line search on the conjugated defect
        improved = False
        s = step
        for _ in range(40):
            g_ = expm(s * direction)
            g_inv = np.linalg.inv(g_)
            e2, f2 = g_ @ e @ g_inv, g_ @ f @ g_inv
            v2 = defect(e2, f2)
            if v2 < val - 1e-16:
                x = g_ @ x @ g_inv
                e, f, val = e2, f2, v2
                improved = True
                step = min(s * 1.5, 1.0)
                break
            s *= 0.5
        if not improved:
            break
    if val > 1e-12 * max(1.0, hs_norm(e) ** 2):
        raise ConvergenceFailure(
            f"Kostant-Sekiguchi descent stalled with defect {val ** 0.5:.3e}"
        )
    out = SL2Triple(x=x, e=e, f=f, flavor="ks_real")
    validate_triple(real, out, 1e-6)
    return out


def _ks_real_closed_form_sl2(real: Realization, t: SL2Triple) -> SL2Triple:
    """Exact ks_real representative of a plain triple in sl(2,R).

    In the basis (e u, u), u a lowest-weight vector of x, the triple becomes
    the standard one; the fixed orthogonal change Q then lands on the triple
    with f = e^T.  The determinant sign of the chain basis decides which of
    the two nilpotent SL(2,R)-orbits we are in, so the target is reflected
    accordingly and the overall conjugation stays orientation-preserving.
    """
    x = np.asarray(t.x, dtype=complex).real
    e = np.asarray(t.e, dtype=complex).real
    vals, vecs = np.linalg.eig(x)
    k = int(np.argmin(np.abs(vals - (-1))))
    if abs(vals[k] + 1) > 1e-6:
        raise TripleCompletionFailure("x has no eigenvalue -1; not an sl2-triple over R")
    u = vecs[:, k].real
    if np.linalg.norm(u) < 1e-9:  # eigenvector came out imaginary; rotate the phase
        u = vecs[:, k].imag
    p = np.stack([e @ u, u], axis=1)
    det = float(np.linalg.det(p))
    if abs(det) < 1e-12:
        raise TripleCompletionFailure("degenerate chain basis")
    x_hat = np.array([[0.0, -1.0], [-1.0, 0.0]])
    e_hat = 0.5 * np.array([[1.0, 1.0], [-1.0, -1.0]])
    if det < 0:
        r = np.diag([1.0, -1.0])
        x_hat, e_hat = r @ x_hat @ r, r @ e_hat @ r
    f_hat = e_hat.T
    out = SL2Triple(
        x=x_hat.astype(complex), e=e_hat.astype(complex), f=f_hat.astype(complex), flavor="ks_real"
    )
    validate_triple(real, out, 1e-9)
    return out


def _normalize_normal_by_scaling(real: Realization, t: SL2Triple, tol: float):
    """If f = mu * sigma(e) with mu > 0, rescale by the torus to reach f = sigma(e)."""
    se = real.sigma(t.e)
    denom = float(np.vdot(se, se).real)
    if denom < 1e-28:
        return None
    mu = complex(np.vdot(se, t.f)) / denom
    if hs_norm(t.f - mu * se) > 1e-8 * (1 + hs_norm(t.f)):
        return None
    if abs(mu.imag) > 1e-8 or mu.real <= 0:
        return None
    c = float(mu.real) ** 0.5
    out = SL2Triple(t.x, c * t.e, t.f / c, "ks_normal")
    validate_triple(real, out, 1e-7)
    return out


# --------------------------------------------------------------------------
# orbit certificates for the Kostant-Sekiguchi correspondence
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitCertificate:
    """Conjugation-invariant data of the H^C-orbit of a nilpotent in m^C."""

    rank_sequence: tuple[int, ...]
    component_signs: tuple[int, ...] | None  # rank-one models: which ad(h)-eigenline
    representative: np.ndarray = field(compare=False, repr=False, default=None)
    triple: SL2Triple | None = field(compare=False, repr=False, default=None)


def rank_sequence(m: np.ndarray, tol: float = 1e-9) -> tuple[int, ...]:
    m = np.asarray(m, dtype=complex)
    seq = []
    acc = np.eye(m.shape[0], dtype=complex)
    for _ in range(m.shape[0]):
        acc = acc @ m
        seq.append(int(np.linalg.matrix_rank(acc, tol=tol * max(1.0, hs_norm(acc)))))
    return tuple(seq)


# SL(2,R): the m^C eigenlines of ad(i*J0) are spanned by these two nilpotents
_U_PLUS = np.array([[1, -1j], [-1j, -1]], dtype=complex) / 2
_U_MINUS = np.array([[1, 1j], [1j, -1]], dtype=complex) / 2


def _component_signs(real: Realization, y: np.ndarray) -> tuple[int, ...] | None:
    """For the 2x2 real-rank-one models: signs of the nonzero m^C eigencomponents."""
    if real.n != 2 or real.family not in ("SL_R", "SU_pq"):
        return None
    if real.family == "SU_pq":
        signs = []
        if abs(y[0, 1]) > 1e-9 * (1 + hs_norm(y)):
            signs.append(+1)
        if abs(y[1, 0]) > 1e-9 * (1 + hs_norm(y)):
            signs.append(-1)
        return tuple(signs)
    signs = []
    if abs(np.vdot(_U_PLUS, y)) > 1e-9 * (1 + hs_norm(y)):
        signs.append(+1)
    if abs(np.vdot(_U_MINUS, y)) > 1e-9 * (1 + hs_norm(y)):
        signs.append(-1)
    return tuple(signs)


def kostant_sekiguchi_orbit_map(real: Realization, e: np.ndarray, tol: float = 1e-10) -> OrbitCertificate:
    """Nilpotent G-orbit in g  ->  H^C-orbit certificate in m^C.

    Chains: Jacobson-Morozov in g, descent to a ks_real triple, Cayley
    transform to a ks_normal triple; the certificate records the invariants
    of its nilpositive element.
    """
    if real.family not in ("SL_R", "SU_pq"):
        raise UnsupportedGroup("orbit map implemented for the real forms SL(n,R), SU(p,q)")
    e = np.asarray(e, dtype=complex)
    if hs_norm(e) < 1e-14:
        return OrbitCertificate(
            rank_sequence=tuple(0 for _ in range(real.n)),
            component_signs=() if real.n == 2 else None,
            representative=np.zeros_like(e),
            triple=None,
        )
    if not real.in_g(e, 1e-8):
        raise NotInModel("e must lie in the real form")
    plain = jacobson_morozov(real, e)
    # project the triple into g when rounding pushed it off (real forms are closed here)
    ks = normalize_kostant_sekiguchi(real, plain, tol=max(tol, 1e-9))
    normal = cayley_transform(real, ks)
    y = normal.e
    return OrbitCertificate(
        rank_sequence=rank_sequence(y),
        component_signs=_component_signs(real, y),
        representative=y,
        triple=normal,
    )


# --------------------------------------------------------------------------
# Jordan decompositions
# --------------------------------------------------------------------------


def _cluster(vals: np.ndarray, tol: float) -> list[complex]:
    reps: list[list[complex]] = []
    for v in sorted(vals, key=lambda z: (z.real, z.imag)):
        for grp in reps:
            if abs(v - grp[0]) <= tol:
                grp.append(v)
                break
        else:
            reps.append([v])
    return [complex(np.mean(g)) for g in reps]


def jordan_additive(m: np.ndarray, tol: float = 1e-8, max_iter: int = 60) -> tuple[np.ndarray, np.ndarray]:
    """Additive Jordan-Chevalley decomposition m = s + n by the Newton iteration
    on the squarefree characteristic polynomial of the clustered spectrum."""
    m = np.asarray(m, dtype=complex)
    scale = max(1.0, hs_norm(m))
    vals = np.linalg.eigvals(m)
    reps = _cluster(vals, tol * scale)
    if len(reps) == len(vals):
        return m.copy(), np.zeros_like(m)
    coeffs = np.poly(np.array(reps))

    def ev(a):  # q(a), q'(a)
        n = a.shape[0]
        q = np.zeros_like(a)
        dq = np.zeros_like(a)
        for c in coeffs:
            dq = dq @ a + q
            q = q @ a + c * np.eye(n, dtype=complex)
        return q, dq

    s = m.copy()
    for _ in range(max_iter):
        q, dq = ev(s)
        if hs_norm(q) <= 1e-13 * scale ** max(1, len(reps)):
            break
        try:
            delta = np.linalg.solve(dq, q)
        except np.linalg.LinAlgError as exc:
            raise NumericallyDefective("Jordan-Chevalley Newton step singular") from exc
        s = s - delta
        if hs_norm(delta) < 1e-15 * scale:
            break
    else:
        raise NumericallyDefective("Jordan-Chevalley iteration did not converge")
    n_part = m - s
    if not is_nilpotent(n_part, 1e-6):
        raise NumericallyDefective("nilpotent part check failed after the iteration")
    return s, n_part


@dataclass(frozen=True)
class JordanFactors:
    elliptic: np.ndarray
    hyperbolic: np.ndarray
    unipotent: np.ndarray
    semisimple: np.ndarray
    nilpotent_log: np.ndarray  # log of the unipotent factor


def jordan_multiplicative(g: np.ndarray, tol: float = 1e-8) -> JordanFactors:
    """g = elliptic * hyperbolic * unipotent with pairwise commuting factors.

    The semisimple part comes from the Jordan-Chevalley iteration; its polar
    split uses spectral projectors built by Lagrange interpolation on the
    clustered spectrum, so no eigenvector matrix is ever inverted.
    """
    g = np.asarray(g, dtype=complex)
    n = g.shape[0]
    scale = max(1.0, hs_norm(g))
    vals = np.linalg.eigvals(g)
    if np.min(np.abs(vals)) < 1e-10 * scale:
        raise NotInvertible("Jordan factorization needs an invertible matrix")
    s, nil = jordan_additive(g, tol)
    u = np.linalg.solve(s, g)  # unipotent: I + s^{-1} nil
    reps = _cluster(np.linalg.eigvals(s), tol * scale)
    projs = []
    for lam in reps:
        p = np.eye(n, dtype=complex)
        for mu in reps:
            if mu != lam:
                p = p @ (s - mu * np.eye(n)) / (lam - mu)
        projs.append(p)
    g_h = sum(abs(lam) * p for lam, p in zip(reps, projs))
    g_e = sum((lam / abs(lam)) * p for lam, p in zip(reps, projs))
    log_u = np.zeros_like(g)
    acc = u - np.eye(n)
    sign = 1.0
    for k in range(1, n + 1):
        log_u = log_u + sign * acc / k
        acc = acc @ (u - np.eye(n))
        sign = -sign
    was_real = np.allclose(g.imag, 0, atol=1e-12 * scale)
    if was_real:
        for name, mval in (("h", g_h), ("e", g_e), ("u", u)):
            if np.max(np.abs(mval.imag)) > 1e-7 * scale:
                raise NumericallyDefective(f"real input produced complex factor {name}")
        g_h, g_e, u, log_u = (z.real.astype(complex) for z in (g_h, g_e, u, log_u))
    fac = JordanFactors(elliptic=g_e, hyperbolic=g_h, unipotent=u, semisimple=s, nilpotent_log=log_u)
    err = hs_norm(g_e @ g_h @ u - g)
    if err > 1e-7 * scale:
        raise NumericallyDefective(f"reconstruction error {err:.2e}")
    return fac
