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

import functools
import math
import re as _re
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


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


def comm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def hs_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=complex)))


def trace_form(x: np.ndarray, y: np.ndarray) -> complex:
    """Complex bilinear trace form tr(xy)."""
    return complex(np.trace(np.asarray(x, dtype=complex) @ np.asarray(y, dtype=complex)))


# Every matrix exponential in the library has an exponent whose structure the
# caller already knows, Hermitian up to a scalar or nilpotent, and each has a
# closed form.


def _exp_hermitian(h: np.ndarray, c) -> np.ndarray:
    """exp(c h) for Hermitian h, as V diag(exp(c lambda)) V^H from one eigh.

    ``c`` is a scalar or an array of scalars; for an array the exponentials
    stack along its axes.  Raises NotInModel unless h is Hermitian to 1e-9
    relative.
    """
    h = np.asarray(h, dtype=complex)
    d = h - h.conj().T
    if np.vdot(d, d).real > 1e-18 * np.vdot(h, h).real:  # squared Frobenius norms
        raise NotInModel("the exponent is not Hermitian")
    lam, v = np.linalg.eigh(h)
    return (v * np.exp(np.multiply.outer(c, lam))[..., None, :]) @ v.conj().T


def _nilpotent_series(n_mat: np.ndarray, c=1) -> list[np.ndarray]:
    """(c N)^k / k! for k = 0 .. n-1: the whole series of exp(c N) when N^n = 0."""
    m = c * np.asarray(n_mat, dtype=complex)
    terms = [np.eye(m.shape[0], dtype=complex)]
    for k in range(1, m.shape[0]):
        terms.append(terms[-1] @ m / k)
    return terms


def _exp_nilpotent(n_mat: np.ndarray, c) -> np.ndarray:
    """exp(c N) for nilpotent N, as the finite sum of ``_nilpotent_series``."""
    return sum(_nilpotent_series(n_mat, c))


_LABEL_RE = _re.compile(
    r"^(?:GL\((?P<gln>\d+),C\)|SL\((?P<sln>\d+),(?P<slf>[CR])\)|U\((?P<un>\d+)\)"
    r"|SU\((?P<sun>\d+)\)|SU\((?P<p>\d+),(?P<q>\d+)\))$"
)


@dataclass(frozen=True)
class Realization:
    """A concrete matrix model of one supported group.

    What depends on the family is read from its row of ``_FAMILIES``; an
    unknown family is refused at construction.
    """

    label: str
    family: str  # GL_C | SL_C | U | SU | SL_R | SU_pq
    n: int
    signature: tuple[int, int] | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise UnsupportedGroup(f"unknown group family {self.family!r}")
        if self.n < 1:
            raise UnsupportedGroup(f"{self.label} needs n >= 1")

    @property
    def _row(self) -> _Family:
        return _FAMILIES[self.family]

    # ----- involutions and conjugations ---------------------------------

    def theta(self, x: np.ndarray) -> np.ndarray:
        return self._row.theta(self, np.asarray(x, dtype=complex))

    def sigma(self, x: np.ndarray) -> np.ndarray:
        """Conjugation of g^C over the real form (on the honest g^C model)."""
        return self._row.sigma(self, np.asarray(x, dtype=complex))

    @staticmethod
    def tau(x: np.ndarray) -> np.ndarray:
        """-x^*, matrix by matrix over the leading axes of a stack."""
        return -np.asarray(x, dtype=complex).conj().swapaxes(-1, -2)

    @functools.cached_property
    def _J(self) -> np.ndarray:
        p, q = self.signature
        return np.diag([1.0] * p + [-1.0] * q).astype(complex)

    # ----- subspace projections -----------------------------------------

    def project_hC(self, x: np.ndarray) -> np.ndarray:
        return self._row.project_hC(self, np.asarray(x, dtype=complex))

    def project_mC(self, x: np.ndarray) -> np.ndarray:
        return self._row.project_mC(self, np.asarray(x, dtype=complex))

    def in_mC(self, x: np.ndarray, tol: float = 1e-9) -> bool:
        return hs_norm(self.project_mC(x) - x) <= tol * (1 + hs_norm(x))

    def in_hC(self, x: np.ndarray, tol: float = 1e-9) -> bool:
        return hs_norm(self.project_hC(x) - x) <= tol * (1 + hs_norm(x))

    def in_g(self, x: np.ndarray, tol: float = 1e-9) -> bool:
        """Membership in the real form (fixed points of sigma on the g^C model);
        the real Lie algebra of a complex group model is gl_n(C)/sl_n(C) itself."""
        if self._row.complex_group:
            return True
        return hs_norm(self.sigma(x) - x) <= tol * (1 + hs_norm(x))

    # ----- bases ----------------------------------------------------------

    def basis_g(self) -> list[np.ndarray]:
        """Real basis of the real form g (as complex arrays)."""
        if not self.real_form:
            raise UnsupportedGroup(f"basis_g only provided for real forms, not {self.label}")
        return self._row.basis_g(self)

    def basis_hC(self) -> list[np.ndarray]:
        return self._row.basis_hC(self)

    def basis_mC(self) -> list[np.ndarray]:
        return self._row.basis_mC(self)

    # ----- the class of the group -----------------------------------------

    @property
    def real_form(self) -> bool:
        """A noncompact real form: h^C and m^C are the +-1-eigenspaces of theta."""
        return self._row.basis_g is not None

    @property
    def eigenlines(self) -> tuple | None:
        """The two nilpotent m^C lines ((H+, Y+), (H-, Y-)), [H, Y] = -2Y, of
        the rank-one models SL(2,R) and SU(1,1); None for every other model."""
        return self._row.eigenlines if self.n == 2 else None

    @property
    def split_rank_one(self) -> bool:
        """SL(2,R) in its split frame, whose compact torus is not diagonal.
        The closed-form triples of both rank-one models key on ``eigenlines``."""
        return self._row.split and self.n == 2

    @property
    def hermitian_signature(self) -> tuple[int, int] | None:
        """(p, q) of the Toledo pairing, None unless G is of Hermitian type; in
        the split frame of SL(2,R) the two summands are the isotropic lines."""
        return (1, 1) if self.eigenlines is not None else self.signature

    # ----- Cartan data ----------------------------------------------------

    def cartan_element(self, coeffs: Sequence) -> np.ndarray:
        """Hermitian torus element from weight coordinates (diagonal models)."""
        vals = [float(c) for c in coeffs]
        n = self.n
        if self._row.split:  # the compact torus is not diagonal in the split frame
            if not self.split_rank_one:
                raise UnsupportedGroup("cartan_element for SL(n,R) implemented for n = 2")
            if len(vals) != 1:
                raise NotInCartan("SL(2,R) torus coordinate is one number")
            (a,) = vals
            return a * np.array([[0, 1j], [-1j, 0]], dtype=complex)
        if len(vals) != n:
            raise NotInCartan(f"expected {n} diagonal coordinates")
        if self._row.traceless and abs(sum(vals)) > 1e-12:
            raise NotInCartan("traceless model needs coordinates summing to zero")
        return np.diag(vals).astype(complex)


def _unit(n: int, i: int, j: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1
    return m


def _units(real: Realization, keep: Callable[[int, int], bool]) -> list[np.ndarray]:
    n = real.n
    return [_unit(n, i, j) for i in range(n) for j in range(n) if keep(i, j)]


def _sl_diag_basis(n: int) -> list[np.ndarray]:
    return [_unit(n, i, i) - _unit(n, i + 1, i + 1) for i in range(n - 1)]


def _gl_basis(real: Realization) -> list[np.ndarray]:
    return _units(real, lambda i, j: True)


def _sl_basis(real: Realization) -> list[np.ndarray]:
    return _units(real, lambda i, j: i != j) + _sl_diag_basis(real.n)


def _su_pq_basis_g(real: Realization) -> list[np.ndarray]:
    n, (p, _) = real.n, real.signature
    out: list[np.ndarray] = []
    for i in range(n):
        for j in range(i + 1, n):
            eps = 1.0 if (i < p) == (j < p) else -1.0
            out += [_unit(n, i, j) - eps * _unit(n, j, i), 1j * (_unit(n, i, j) + eps * _unit(n, j, i))]
    return out + [1j * d for d in _sl_diag_basis(n)]


def _theta_plus(real: Realization, x: np.ndarray) -> np.ndarray:
    return (x + real.theta(x)) / 2


def _theta_minus(real: Realization, x: np.ndarray) -> np.ndarray:
    # both real forms are traceless, and theta(1) = -1 for SL(n,R)
    out = (x - real.theta(x)) / 2
    return out - np.trace(out) / real.n * np.eye(real.n)


def _same(real: Realization, x: np.ndarray) -> np.ndarray:
    return x  # abstract model: the subspace is a full copy of gl_n / sl_n


def _zero(real: Realization, x: np.ndarray) -> np.ndarray:
    return np.zeros_like(x)


def _adjoint(real: Realization, x: np.ndarray) -> np.ndarray:
    return x.conj().T


def _neg_adjoint(real: Realization, x: np.ndarray) -> np.ndarray:
    return -x.conj().T


@dataclass(frozen=True)
class _Family:
    """What one family of models fixes.  theta, sigma and the projections
    map (realization, matrix) to a matrix; the bases take the realization."""

    theta: Callable
    sigma: Callable
    project_hC: Callable
    project_mC: Callable
    basis_hC: Callable
    basis_mC: Callable
    traceless: bool = False
    basis_g: Callable | None = None  # noncompact real forms only
    complex_group: bool = False  # g is all of g^C
    split: bool = False  # theta = -transpose
    eigenlines: tuple | None = None  # of the rank-one (n = 2) model


_J2 = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
# SL(2,R): the m^C eigenlines of ad(i*J0); SU(1,1): the off-diagonal units
_SL2R_LINES = (
    (-1j * _J2, np.array([[1, -1j], [-1j, -1]], dtype=complex) / 2),
    (1j * _J2, np.array([[1, 1j], [1j, -1]], dtype=complex) / 2),
)
_SU11_LINES = (
    (np.diag([-1.0, 1.0]).astype(complex), np.array([[0, 1], [0, 0]], dtype=complex)),
    (np.diag([1.0, -1.0]).astype(complex), np.array([[0, 0], [1, 0]], dtype=complex)),
)

_FAMILIES = {
    # on the m^C model (all of gl_n) the real points of GL(n,C) are the Hermitian matrices
    "GL_C": _Family(_neg_adjoint, _adjoint, _same, _same, _gl_basis, _gl_basis, complex_group=True),
    "SL_C": _Family(
        _neg_adjoint, _adjoint, _same, _same, _sl_basis, _sl_basis, traceless=True, complex_group=True
    ),
    "U": _Family(_neg_adjoint, _neg_adjoint, _same, _zero, _gl_basis, lambda r: []),
    "SU": _Family(_neg_adjoint, _neg_adjoint, _same, _zero, _sl_basis, lambda r: [], traceless=True),
    "SL_R": _Family(
        lambda r, x: -x.T,
        lambda r, x: x.conj(),
        _theta_plus,
        _theta_minus,
        lambda r: [_unit(r.n, i, j) - _unit(r.n, j, i) for i in range(r.n) for j in range(i + 1, r.n)],
        lambda r: [_unit(r.n, i, j) + _unit(r.n, j, i) for i in range(r.n) for j in range(i + 1, r.n)]
        + _sl_diag_basis(r.n),
        traceless=True, basis_g=_sl_basis, split=True, eigenlines=_SL2R_LINES,
    ),
    "SU_pq": _Family(
        lambda r, x: r._J @ x @ r._J,
        lambda r, x: -r._J @ x.conj().T @ r._J,
        _theta_plus,
        _theta_minus,
        # units inside the two diagonal blocks, then the traceless diagonal; units across them
        lambda r: _units(r, lambda i, j: (i < r.signature[0]) == (j < r.signature[0]) and i != j)
        + _sl_diag_basis(r.n),
        lambda r: _units(r, lambda i, j: (i < r.signature[0]) != (j < r.signature[0])),
        traceless=True, basis_g=_su_pq_basis_g, eigenlines=_SU11_LINES,
    ),
}


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


def _restricted(basis: list[np.ndarray], apply: Callable) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal columns q spanning the row-major vectorized basis, and the
    matrix q^H vec(L(q)) of a linear map L on n x n matrices; L receives the
    whole (k, n, n) stack of the columns at once."""
    n = basis[0].shape[0]
    q, _ = np.linalg.qr(np.stack([b.ravel() for b in basis]).T)
    stack = q.T.reshape(-1, n, n)
    return q, q.conj().T @ apply(stack).reshape(len(stack), -1).T


SPACES = ("h^C", "m^C", "g^C")  # the model subspaces ad_eigendecompose acts on


def ad_eigendecompose(
    real: Realization, a: np.ndarray, space: str = "m^C", tol: float = 1e-9
) -> list[tuple[float, list[np.ndarray]]]:
    """Eigenvalues and eigenspace bases of ad(a) on the chosen model subspace.

    a must act semisimply with real spectrum (Hermitian ad-operator in an
    orthonormal basis); otherwise NotInCartan is raised.
    """
    if space not in SPACES:
        raise ValueError(f"space must be one of {', '.join(SPACES)}, got {space!r}")
    mats = (real.basis_hC() if space != "m^C" else []) + (real.basis_mC() if space != "h^C" else [])
    if not mats:
        return []
    a = np.asarray(a, dtype=complex)
    q, op = _restricted(mats, lambda b: a @ b - b @ a)
    if np.linalg.norm(op - op.conj().T) > tol * (1 + np.linalg.norm(op)):
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
    # stays at rounding level.  Dividing by the Frobenius norm instead of the
    # spectral norm would shrink m^n by up to (||m||_F / ||m||_2)^n, and a
    # 16-cycle permutation would pass as nilpotent
    m = np.asarray(m, dtype=complex)
    scale = np.linalg.norm(m, 2)
    if scale == 0:
        return True
    power = np.linalg.matrix_power(m / scale, m.shape[0])
    return bool(np.linalg.norm(power) <= tol)


def _jordan_chains(e: np.ndarray, tol: float = 1e-9) -> list[list[np.ndarray]]:
    """Jordan chains of a nilpotent matrix, longest blocks first.

    e^k counts as zero below tol * ||e||^k (spectral norms), the size its
    rounding scales with, so no cutoff depends on the scale of e.
    """
    n = e.shape[0]
    norm = np.linalg.norm(e, 2)
    # kernels[k] = ker e^k as columns, up to the first k with e^k = 0
    kernels = [np.zeros((n, 0), dtype=complex)]
    power = np.eye(n, dtype=complex)
    while len(kernels) <= n and kernels[-1].shape[1] < n:
        power = power @ e
        _, s, vh = np.linalg.svd(power)
        kernels.append(vh[int(np.sum(s > tol * norm ** len(kernels))):].conj().T)
    depth = len(kernels) - 1  # e^depth = 0
    chains: list[list[np.ndarray]] = []
    # choose chain tops level by level, from the deepest down
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
    diagonal.  The triple is built for e / c, c a power of two within a
    factor sqrt(2) of the spectral norm of e, so neither the bracket check
    nor the powers of e see its scale; f is rescaled by 1/c.  Real input
    gives a real triple.
    """
    e = np.asarray(e, dtype=complex)
    scale = np.linalg.norm(e, 2)
    if scale == 0:
        raise ZeroElement("e = 0 has no sl2-triple")
    if not is_nilpotent(e, tol):
        raise NotNilpotent("jacobson_morozov needs a nilpotent element")
    # dividing by a power of two is exact: only the cutoffs see the new scale,
    # the digits of the triple do not
    step = 2.0 ** round(np.log2(scale))
    unit = e / step
    was_real = np.allclose(unit.imag, 0, atol=1e-12)
    n = e.shape[0]
    chains = _jordan_chains(unit)
    cols = []
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
    bound = 1e-7 * (1 + hs_norm(x) + hs_norm(unit) + hs_norm(f))
    if hs_norm(comm(x, unit) - 2 * unit) > bound or hs_norm(comm(unit, f) - x) > bound:
        raise TripleCompletionFailure("Jordan-chain completion failed the bracket check")
    return SL2Triple(x=x, e=e, f=f / step, flavor="plain")


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


def normalize_kostant_sekiguchi(real: Realization, t: SL2Triple, tol: float = 1e-10) -> SL2Triple:
    """Conjugate a normal triple (x in h^C; e, f in m^C) into ks_normal form f = sigma(e).

    The torus element that scales e by c and f by 1/c does it when
    f = mu * sigma(e) with mu > 0, at c = sqrt(mu); any other defect is refused.
    """
    validate_triple(real, t, max(tol, 1e-8))
    if t.flavor == "ks_normal":
        return t
    if t.flavor != "normal":
        raise NotInModel(f"normalize_kostant_sekiguchi takes a normal triple, not {t.flavor!r}")
    se = real.sigma(t.e)
    denom = float(np.vdot(se, se).real)
    mu = complex(np.vdot(se, t.f)) / denom if denom else 0j
    if (
        hs_norm(t.f - mu * se) > 1e-8 * hs_norm(t.f)
        or abs(mu.imag) > 1e-8 * abs(mu)
        or mu.real <= 0
    ):
        raise TripleCompletionFailure(
            "normal triple defect is not a torus scaling; conjugate it into a "
            "standard component first"
        )
    # correctly rounded, so c scales exactly with e under powers of two
    c = math.sqrt(mu.real)
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


def rank_sequence(m: np.ndarray, tol: float = 1e-9) -> tuple[int, ...]:
    """Ranks of m, m^2, ..., m^n, read on the powers of m / ||m||_2: a Jordan
    block keeps spectral norm 1 in every nonzero power, so the cutoff tol
    depends neither on the scale of m nor on its size."""
    m = np.asarray(m, dtype=complex)
    scale = np.linalg.norm(m, 2)
    if scale == 0:
        return tuple(0 for _ in range(m.shape[0]))
    unit = m / scale
    seq = []
    acc = np.eye(m.shape[0], dtype=complex)
    for _ in range(m.shape[0]):
        acc = acc @ unit
        seq.append(int(np.linalg.matrix_rank(acc, tol=tol)))
    return tuple(seq)


def _component_signs(real: Realization, y: np.ndarray) -> tuple[int, ...] | None:
    """For the rank-one models: signs of the nonzero m^C eigencomponents."""
    if real.eigenlines is None:
        return None
    (_, plus), (_, minus) = real.eigenlines
    floor = 1e-9 * hs_norm(y)
    return tuple(sign for sign, line in ((+1, plus), (-1, minus)) if abs(np.vdot(line, y)) > floor)


def kostant_sekiguchi_orbit_map(real: Realization, e: np.ndarray) -> OrbitCertificate:
    """Nilpotent G-orbit in g  ->  H^C-orbit certificate in m^C.

    The Kostant-Sekiguchi image y of e lies in the G^C-orbit of e
    (Sekiguchi 1987), so the rank sequence of e is that of y.  On the
    rank-one models the eigenline of y is the sign of Im tr(e H+), H+ the
    neutral element of the first eigenline; |Im tr(e H+)| = ||e|| on every
    nilpotent of sl(2,R) and su(1,1), so the sign never degenerates.
    """
    if not real.real_form:
        raise UnsupportedGroup("orbit map implemented for the real forms SL(n,R), SU(p,q)")
    e = np.asarray(e, dtype=complex)
    scale = np.linalg.norm(e, 2)
    if scale == 0:
        return OrbitCertificate(
            rank_sequence=tuple(0 for _ in range(real.n)),
            component_signs=() if real.eigenlines is not None else None,
        )
    if not real.in_g(e / scale, 1e-8):
        raise NotInModel("e must lie in the real form")
    if not is_nilpotent(e, 1e-8):
        raise NotNilpotent("the orbit map needs a nilpotent element")
    ranks = rank_sequence(e)
    # the rank of a nilpotent's k-th power is lower than the (k-1)-th by the
    # number of Jordan blocks of size >= k, a count that never grows, and the
    # n-th power is 0; a near-nilpotent read at the rank cutoff can break this
    drops = [a - b for a, b in zip((real.n,) + ranks, ranks)]
    if ranks[-1] != 0 or any(a < b for a, b in zip(drops, drops[1:])):
        raise NotNilpotent(f"e has rank sequence {ranks}, which no nilpotent has")
    signs = None
    if real.eigenlines is not None:
        (h_plus, _), _ = real.eigenlines
        signs = (1 if np.trace(e @ h_plus).imag > 0 else -1,)
    return OrbitCertificate(rank_sequence=ranks, component_signs=signs)


# --------------------------------------------------------------------------
# Jordan decompositions
# --------------------------------------------------------------------------


# rounding of size eps * |m| moves the eigenvalue of a defective k-block by up
# to about eps^(1/k) * |m|; the factor 16 covers the worst of a few hundred
# random conjugated blocks, k = 2..4
_ROUNDING = 16 * np.finfo(float).eps


def _order(z: complex) -> tuple[float, float]:
    return (z.real, z.imag)


def _linked(vals, gap: float) -> list[list[complex]]:
    """Groups of vals joined by chains of steps of length <= gap, each sorted."""
    groups: list[list[complex]] = []
    for v in sorted(vals, key=_order):
        near = [g for g in groups if any(abs(v - u) <= gap for u in g)]
        joined = sorted([v, *(u for g in near for u in g)], key=_order)
        groups = [g for g in groups if g not in near] + [joined]
    return groups


def _cluster(vals: np.ndarray, tol: float, scale: float) -> list[complex]:
    """Means of the groups of eigenvalues that are numerically one eigenvalue.

    A chain of k values, linked by steps up to the scatter bound of a
    defective block of full size, is one group when all k lie within
    max(tol, _ROUNDING^(1/k)) * scale of their mean; otherwise it splits into
    chains linked by steps up to tol * scale.
    """
    groups: list[list[complex]] = []
    for chain in _linked(vals, 2 * max(tol, _ROUNDING ** (1 / len(vals))) * scale):
        mean = np.mean(chain)
        if max(abs(v - mean) for v in chain) <= max(tol, _ROUNDING ** (1 / len(chain))) * scale:
            groups.append(chain)
        else:
            groups += _linked(chain, tol * scale)
    groups.sort(key=lambda g: _order(g[0]))
    return [complex(np.mean(g)) for g in groups]


# Newton steps before the Jordan-Chevalley iteration gives up
_JORDAN_MAX_ITER = 60


def jordan_additive(m: np.ndarray, tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Additive Jordan-Chevalley decomposition m = s + n by the Newton iteration
    on the squarefree characteristic polynomial of the clustered spectrum."""
    m = np.asarray(m, dtype=complex)
    scale = max(1.0, hs_norm(m))
    vals = np.linalg.eigvals(m)
    reps = _cluster(vals, tol, scale)
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
    for _ in range(_JORDAN_MAX_ITER):
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
    hyperbolic_log: np.ndarray  # log of the hyperbolic factor


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
    reps = _cluster(np.linalg.eigvals(s), tol, scale)
    projs = []
    for lam in reps:
        p = np.eye(n, dtype=complex)
        for mu in reps:
            if mu != lam:
                p = p @ (s - mu * np.eye(n)) / (lam - mu)
        projs.append(p)
    g_h = sum(abs(lam) * p for lam, p in zip(reps, projs))
    log_h = sum(np.log(abs(lam)) * p for lam, p in zip(reps, projs))
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
        g_h, g_e, u, log_u, log_h = (z.real.astype(complex) for z in (g_h, g_e, u, log_u, log_h))
    fac = JordanFactors(
        elliptic=g_e, hyperbolic=g_h, unipotent=u, semisimple=s, nilpotent_log=log_u, hyperbolic_log=log_h
    )
    err = hs_norm(g_e @ g_h @ u - g)
    if err > 1e-7 * scale:
        raise NumericallyDefective(f"reconstruction error {err:.2e}")
    return fac
