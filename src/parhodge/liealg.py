"""Matrix models of the supported real/complex reductive groups, sl2-triples,
Jacobson-Morozov, Kostant-Sekiguchi normalization and the multiplicative
Jordan decomposition.

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
from typing import Callable

import numpy as np


class UnsupportedGroup(ValueError):
    pass


class NotInModel(ValueError):
    """Matrix fails the membership/projection check of the requested subspace."""


class NotInCartan(ValueError):
    pass


class NotThetaFixed(NotInCartan):
    """theta(a) != a, so ad(a) leaves h^C and m^C of a real form."""


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


def _pow2_at(x: float) -> float:
    """2^k for the binary exponent k of x > 0, so x / 2^k lies in [1/2, 1).

    k is capped to [-1021, 1023], where 2^k and 1 / 2^k are both finite, so
    past 2^1023 the quotient lies in [1, 2) and below 2^-1022 under 1/2.
    Dividing by 2^k is exact.
    """
    return 2.0 ** min(max(math.frexp(x)[1], -1021), 1023)


def _pow2_of(a: np.ndarray) -> float:
    """_pow2_at the largest real or imaginary part of a nonempty complex array,
    1 for a = 0: a divided by it, which is exact, has that part in [1/2, 1)."""
    return _pow2_at(float(np.abs(a.ravel().view(float)).max()))


def _frobenius(a: np.ndarray) -> float:
    """np.linalg.norm(a) of a complex array, by the same formula without its
    axis and ord dispatch.  Real vdot sums as ndarray.dot does, so the bits
    agree, but it raises no overflow warning: a sum of squares past the float
    range is inf, silently."""
    a = a.ravel(order="K")
    re, im = a.real, a.imag
    return math.sqrt(np.vdot(re, re) + np.vdot(im, im))


def hs_norm(a: np.ndarray) -> float:
    """Frobenius norm; inf only when the norm itself exceeds the float range.

    The sum of squares overflows once entries pass about 1e154.  Then the
    matrix is divided by the power of two at its largest entry and the norm
    multiplied back, both exact, so hs_norm(2^k a) = 2^k hs_norm(a).
    """
    a = np.asarray(a, dtype=complex)
    norm = _frobenius(a)
    if norm == math.inf:
        big = max(float(np.max(np.abs(a.real))), float(np.max(np.abs(a.imag))))
        if math.isfinite(big):
            scale = _pow2_at(big)
            norm = _frobenius(a / scale) * scale
    return norm


def hs_norms(a: np.ndarray) -> np.ndarray:
    """hs_norm of each matrix of a (k, n, n) stack, bit for bit: matmul of a
    1 x m row by an m x 1 column sums as the dot of _frobenius does.  A sum
    of squares past the float range is redone by hs_norm."""
    a = np.asarray(a, dtype=complex)
    flat = a.reshape(len(a), 1, -1)
    re, im = flat.real, flat.imag
    with np.errstate(over="ignore"):
        norms = np.sqrt((re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0, 0])
    if norms.max(initial=0) == math.inf:
        for j in np.flatnonzero(norms == math.inf):
            norms[j] = hs_norm(a[j])
    return norms


def spectral_norm(a: np.ndarray) -> float:
    """np.linalg.norm(a, 2) of a matrix: its largest singular value."""
    return np.linalg.svd(a, compute_uv=False)[0]


def numerical_rank(a: np.ndarray, tol: float) -> int:
    """np.linalg.matrix_rank(a, tol=tol) of a matrix: its singular values above tol."""
    return int(np.count_nonzero(np.linalg.svd(a, compute_uv=False) > tol))


def trace_form(x: np.ndarray, y: np.ndarray) -> complex:
    """Complex bilinear trace form tr(xy)."""
    return complex(np.trace(np.asarray(x, dtype=complex) @ np.asarray(y, dtype=complex)))


# Every matrix exponential in the library has an exponent whose structure the
# caller already knows, Hermitian up to a scalar or nilpotent, and each has a
# closed form.

_LOG_FLOAT_MAX = math.log(np.finfo(float).max)  # about 709.78


def _exp_hermitian(h: np.ndarray, c) -> np.ndarray:
    """exp(c h) for Hermitian h, as V diag(exp(c lambda)) V^H from one eigh.

    ``c`` is a scalar or an array of scalars; for an array the exponentials
    stack along its axes.  Raises NotInModel unless h is Hermitian to 1e-9
    relative, and NumericallyDefective, before it exponentiates, where some
    |Re(c lambda)| passes ln of the largest float.
    """
    h = np.asarray(h, dtype=complex)
    d = h - h.conj().T
    if np.vdot(d, d).real > 1e-18 * np.vdot(h, h).real:  # squared Frobenius norms
        raise NotInModel("the exponent is not Hermitian")
    lam, v = np.linalg.eigh(h)
    exponents = np.multiply.outer(c, lam)
    if np.abs(exponents.real).max() > _LOG_FLOAT_MAX:
        raise NumericallyDefective("exp(c h) leaves the float range: Re(c lambda) passes ln(max float)")
    return (v * np.exp(exponents)[..., None, :]) @ v.conj().T


def _nilpotent_series(n_mat: np.ndarray, c=1) -> list[np.ndarray]:
    """(c N)^k / k! for k = 0 .. n-1: the whole series of exp(c N) when N^n = 0.

    ``c`` is a scalar or an array that broadcasts against N, such as one
    coefficient per leading index of shape (k, 1, 1); then the terms stack."""
    m = c * np.asarray(n_mat, dtype=complex)
    eye = np.eye(m.shape[-1], dtype=complex)
    terms = [eye if m.ndim == 2 else np.broadcast_to(eye, m.shape).copy()]
    for k in range(1, m.shape[-1]):
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
        return _read_only(np.diag([1.0] * p + [-1.0] * q).astype(complex))

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

    # ----- the class of the group -----------------------------------------

    @property
    def real_form(self) -> bool:
        """A noncompact real form: h^C and m^C are the +-1-eigenspaces of theta."""
        return self._row.real_form

    @property
    def eigenlines(self) -> tuple | None:
        """The two nilpotent m^C lines ((H+, Y+), (H-, Y-)), [H, Y] = -2Y, of
        the rank-one models SL(2,R) and SU(1,1); None for every other model."""
        return self._row.eigenlines if self.n == 2 else None

    @property
    def hermitian_signature(self) -> tuple[int, int] | None:
        """(p, q) of the Toledo pairing, None unless G is of Hermitian type; in
        the split frame of SL(2,R) the two summands are the isotropic lines."""
        return (1, 1) if self.eigenlines is not None else self.signature


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
    map (realization, matrix) to a matrix."""

    theta: Callable
    sigma: Callable
    project_hC: Callable
    project_mC: Callable
    real_form: bool = False  # noncompact: h^C and m^C are the theta-eigenspaces
    complex_group: bool = False  # g is all of g^C
    eigenlines: tuple | None = None  # of the rank-one (n = 2) model
    # what ad(a) grades on (h^C, m^C, g^C), in the order of SPACES: "gl" or "sl"
    # (gl_n or sl_n), "0" (the zero space), "hJ" or "mJ" (the block-diagonal or
    # off-block part of sl_n, split by J) or "hT" or "mT" (the antisymmetric or
    # symmetric part of sl_n, split by transposition)
    ad_spaces: tuple[str, str, str] = ("hT", "mT", "sl")


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, made read-only: every caller of a shared model sees the same array."""
    a.setflags(write=False)
    return a


_J2 = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
# SL(2,R): the m^C eigenlines of ad(i*J0); SU(1,1): the off-diagonal units
_SL2R_LINES = tuple(
    tuple(map(_read_only, line))
    for line in (
        (-1j * _J2, np.array([[1, -1j], [-1j, -1]], dtype=complex) / 2),
        (1j * _J2, np.array([[1, 1j], [1j, -1]], dtype=complex) / 2),
    )
)
_SU11_LINES = tuple(
    tuple(map(_read_only, line))
    for line in (
        (np.diag([-1.0, 1.0]).astype(complex), np.array([[0, 1], [0, 0]], dtype=complex)),
        (np.diag([1.0, -1.0]).astype(complex), np.array([[0, 0], [1, 0]], dtype=complex)),
    )
)

_FAMILIES = {
    # on the m^C model (all of gl_n) the real points of GL(n,C) are the Hermitian matrices
    "GL_C": _Family(_neg_adjoint, _adjoint, _same, _same, complex_group=True, ad_spaces=("gl", "gl", "gl")),
    # g^C is sl_n, which both sl_n copies span
    "SL_C": _Family(_neg_adjoint, _adjoint, _same, _same, complex_group=True, ad_spaces=("sl", "sl", "sl")),
    "U": _Family(_neg_adjoint, _neg_adjoint, _same, _zero, ad_spaces=("gl", "0", "gl")),
    "SU": _Family(_neg_adjoint, _neg_adjoint, _same, _zero, ad_spaces=("sl", "0", "sl")),
    "SL_R": _Family(
        lambda r, x: -x.T, lambda r, x: x.conj(), _theta_plus, _theta_minus, real_form=True, eigenlines=_SL2R_LINES
    ),
    "SU_pq": _Family(
        lambda r, x: r._J @ x @ r._J,
        lambda r, x: -r._J @ x.conj().T @ r._J,
        _theta_plus,
        _theta_minus,
        real_form=True, eigenlines=_SU11_LINES, ad_spaces=("hJ", "mJ", "sl"),
    ),
}


# models built so far, by canonical label; the oldest goes past the bound
_REALIZATIONS: dict[str, Realization] = {}
_MAX_REALIZATIONS = 64


def build_realization(label: str) -> Realization:
    """Parse a group label like 'GL(2,C)', 'SL(3,R)', 'SU(1,1)' into its model.

    Built once per canonical label ('SU(2, 1)' reads as 'SU(2,1)') and
    process, so every caller shares the model's cached arrays, which are
    read-only; a label the models do not support raises on every call.
    """
    m = _LABEL_RE.match(label.replace(" ", ""))
    if not m:
        raise UnsupportedGroup(f"unrecognized group label {label!r}")
    signature = None
    if m.group("gln"):
        n = int(m.group("gln"))
        canonical, family = f"GL({n},C)", "GL_C"
    elif m.group("sln"):
        n = int(m.group("sln"))
        canonical, family = f"SL({n},{m.group('slf')})", "SL_C" if m.group("slf") == "C" else "SL_R"
    elif m.group("un"):
        n = int(m.group("un"))
        canonical, family = f"U({n})", "U"
    elif m.group("sun"):
        n = int(m.group("sun"))
        canonical, family = f"SU({n})", "SU"
    else:
        p, q = int(m.group("p")), int(m.group("q"))
        if min(p, q) < 1:
            raise UnsupportedGroup("SU(p,q) needs p, q >= 1")
        n, signature = p + q, (p, q)
        canonical, family = f"SU({p},{q})", "SU_pq"
    real = _REALIZATIONS.get(canonical)
    if real is None:
        real = Realization(label=canonical, family=family, n=n, signature=signature)
        if len(_REALIZATIONS) >= _MAX_REALIZATIONS:
            del _REALIZATIONS[next(iter(_REALIZATIONS))]
        _REALIZATIONS[canonical] = real
    return real


# --------------------------------------------------------------------------
# ad-eigendecomposition
# --------------------------------------------------------------------------


SPACES = ("h^C", "m^C", "g^C")  # the model subspaces ad(a) is graded on

# a is theta-fixed when its m^C part is at most this share of its traceless part
_THETA_FIXED_TOL = 1e-9


def grading_space(real: Realization, space: str) -> str:
    """What ad(a) grades on the model subspace ``space``, as a ``_Family.ad_spaces`` kind."""
    if space not in SPACES:
        raise ValueError(f"space must be one of {', '.join(SPACES)}, got {space!r}")
    return real._row.ad_spaces[SPACES.index(space)]


def _ad_norm(kind: str, x: np.ndarray, p: int) -> float:
    """Frobenius norm of ad(x) on the structured space ``kind``, block-diagonal
    x on "hJ" and "mJ" with blocks of sizes p and q = n - p, and x
    antisymmetric up to a scalar on "hT" and "mT".

    ad(x) kills the scalars, so on gl_n and sl_n ||ad(x)||^2 = 2n ||x_0||^2
    for the traceless part x_0 = x - (tr x / n) 1.  With the block-traceless
    parts x_1, x_2 and the block means c_1, c_2 it is 2p ||x_1||^2 + 2q ||x_2||^2
    on the blocks and 2q ||x_1||^2 + 2p ||x_2||^2 + 2pq |c_1 - c_2|^2 across them.
    For an antisymmetric x_0, tr(ad(x)^H ad(x) theta) = -4 ||x_0||^2 on gl_n, so
    ||ad(x)||^2 is (n - 2) ||x_0||^2 on "hT" and (n + 2) ||x_0||^2 on "mT".
    The parts are taken before any square, so nothing cancels.
    """
    n = len(x)
    if kind not in ("hJ", "mJ"):
        weight = {"hT": max(n - 2, 0), "mT": n + 2}.get(kind, 2 * n)
        return math.sqrt(weight) * hs_norm(x - np.trace(x) / n * np.eye(n))
    q = n - p
    c1, c2 = np.trace(x[:p, :p]) / p, np.trace(x[p:, p:]) / q
    r1, r2 = hs_norm(x[:p, :p] - c1 * np.eye(p)), hs_norm(x[p:, p:] - c2 * np.eye(q))
    if kind == "hJ":
        return math.hypot(math.sqrt(2 * p) * r1, math.sqrt(2 * q) * r2)
    return math.hypot(math.sqrt(2 * q) * r1, math.sqrt(2 * p) * r2, math.sqrt(2 * p * q) * abs(c1 - c2))


def _outer(u: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The stack of the matrices u_i u_j^H over the index pairs (i, j)."""
    return u[:, i].T[:, :, None] * u[:, j].conj().T[:, None, :]


def _theta_split(kind: str, lam: np.ndarray, u: np.ndarray, values: np.ndarray, i: np.ndarray, j: np.ndarray, bases):
    """_structured_spectrum on "hT" or "mT" from the ascending pairs (i, j) of
    gl_n.  a = c + iB, B real antisymmetric: U takes u_{n-1-k} = conj(u_k) over
    the p pairs c -+ mu, mu > 0, a real basis of ker B between them, and its
    polar factor, which keeps that pairing and undoes what eigh mixes of c -+ mu
    at a small mu.  Then theta(E_ij) = -E_pi(j)pi(i), E_ij = u_i u_j^H: h^C takes
    (E_ij - E_pi(j)pi(i)) / sqrt 2 from each orbit of two, m^C the sums and the
    fixed pairs less the identity, each at the least value of its rounding group."""
    n, gap = len(lam), 64 * np.finfo(float).eps * max(1.0, float(np.abs(lam).max()))
    least = np.maximum.accumulate(np.where(np.diff(values, prepend=-np.inf) > gap, values, -np.inf))
    p = int(np.count_nonzero(lam[::-1][: n // 2] - lam[: n // 2] > gap / 2))
    pi = np.concatenate([np.arange(n - 1, n - p - 1, -1), np.arange(p, n - p), np.arange(p - 1, -1, -1)])
    partner = np.argsort(i * n + j)[pi[j] * n + pi[i]]  # the position of theta's image of each pair
    sel = np.flatnonzero(np.arange(n * n) < partner if kind == "hT" else np.arange(n * n) <= partner)
    diag = np.flatnonzero(i[sel] == j[sel])
    graded = np.delete(least[sel], diag[0]) if kind == "mT" else least[sel]
    if not bases:
        return graded, None
    real = np.linalg.svd(np.hstack([u[:, p : n - p].real, u[:, p : n - p].imag]))[0][:, : n - 2 * p]
    w, _, vh = np.linalg.svd(np.hstack([u[:, :p], real, u[:, :p][:, ::-1].conj()]))
    mats = _outer(w @ vh, i, j)
    fixed = sel == partner[sel]
    out = (mats[sel] + (1 if kind == "mT" else -1) * mats[partner[sel]]) / np.where(fixed, 2, 2**0.5)[:, None, None]
    if kind == "mT":  # a Householder reflection takes the unit identity on the diagonal part to the first
        v = np.where(fixed[diag], 1, 2**0.5) / math.sqrt(n) + np.eye(len(diag))[0]
        out[diag] -= np.multiply.outer(v / v[0], np.tensordot(v, out[diag], 1))
        out = np.delete(out, diag[0], axis=0)
    return graded, out


def _structured_spectrum(
    kind: str, a: np.ndarray, p: int, tol: float, bases: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """Ascending eigenvalues of ad(a) on a structured space, and an orthonormal
    eigenvector stack in the same order when ``bases``, from one eigh of a
    (one per J-block on "hJ" and "mJ").

    With a = U diag(lambda) U^H, ad(a) has the eigenvectors u_i u_j^H with the
    eigenvalues lambda_i - lambda_j.  The traceless spaces drop one diagonal
    pair, and their n - 1 others become U diag(w) U^H for orthonormal w of sum 0.
    """
    n = len(a)
    d = a - a.conj().T
    if _ad_norm(kind, d, p) > tol * (1 + _ad_norm(kind, a, p)):
        raise NotInCartan("ad(a) is not Hermitian on this subspace; a is not a torus element")
    h = a - d / 2 if d.any() else a  # the Hermitian part, whose ad agrees with ad(a) up to the check
    if kind in ("hJ", "mJ"):
        (lam1, u1), (lam2, u2) = np.linalg.eigh(h[:p, :p]), np.linalg.eigh(h[p:, p:])
        lam = np.concatenate([lam1, lam2])
        u = np.zeros((n, n), dtype=complex)
        u[:p, :p], u[p:, p:] = u1, u2
    else:
        lam, u = np.linalg.eigh(h)
    i, j = np.divmod(np.arange(n * n), n)
    keep = ((i < p) == (j < p)) == (kind == "hJ") if kind in ("hJ", "mJ") else np.ones(n * n, dtype=bool)
    traceless = kind in ("sl", "hJ")
    if traceless:
        keep[-1] = False  # the pair (n - 1, n - 1)
    i, j = i[keep], j[keep]
    values = lam[i] - lam[j]
    order = np.argsort(values, kind="stable")
    values, i, j = values[order], i[order], j[order]
    if kind in ("hT", "mT"):
        return _theta_split(kind, lam, u, values, i, j, bases)
    mats = _outer(u, i, j) if bases else None
    if bases and traceless and n > 1:
        # Helmert rows: (1, ..., 1, -k, 0, ..., 0) / sqrt(k (k + 1)), k = 1 .. n - 1
        k = np.arange(1, n)[:, None]
        cols = np.arange(n)[None, :]
        w = np.where(cols < k, 1.0, np.where(cols == k, -k, 0.0)) / np.sqrt(k * (k + 1))
        mats[np.flatnonzero(i == j)] = (u * w[:, None, :]) @ u.conj().T
    return values, mats


def _ad_graded(real: Realization, a: np.ndarray, space: str, tol: float, bases: bool):
    """(first eigenvalue, start, stop) of each cluster of the ad(a)-spectrum on
    ``space``, and the eigenvector stack when ``bases``.  A cluster gathers the
    ascending eigenvalues of ad(a / 2^k), 2^k at the largest entry of a, within
    max(tol, 1e-9 (1 + |lambda|)) of its first, which is reported times 2^k."""
    kind = grading_space(real, space)
    if kind == "0":
        return [], None
    a = np.asarray(a, dtype=complex)
    top = _pow2_of(a)
    a = a / top
    if real.real_form and space != "g^C":
        stray = real.project_mC(a)
        if hs_norm(stray) > _THETA_FIXED_TOL * hs_norm(a - np.trace(a) / real.n * np.eye(real.n)):
            raise NotThetaFixed(f"ad(a) preserves {space} only when theta(a) = a; this a has a part in m^C")
        a = a - stray  # below the test, and ad(a) would take h^C into m^C
    values, mats = _structured_spectrum(kind, a, real.signature[0] if real.signature else 0, tol, bases)
    clusters: list[list] = []
    for k, lam in enumerate(values.tolist()):
        if clusters and abs(lam - clusters[-1][0]) <= max(tol, 1e-9 * (1 + abs(lam))):
            clusters[-1][2] = k + 1
        else:
            clusters.append([lam, k, k + 1])
    return [(lam * top, start, stop) for lam, start, stop in clusters], mats


def ad_grading(real: Realization, a: np.ndarray, space: str = "m^C", tol: float = 1e-9) -> list[tuple[float, int]]:
    """(eigenvalue, multiplicity) of each eigenspace of ad(a) on the chosen
    model subspace, ascending, as ``ad_eigendecompose`` groups them; no
    eigenvector is built."""
    clusters, _ = _ad_graded(real, a, space, tol, bases=False)
    return [(lam, stop - start) for lam, start, stop in clusters]


def ad_eigendecompose(
    real: Realization, a: np.ndarray, space: str = "m^C", tol: float = 1e-9
) -> list[tuple[float, list[np.ndarray]]]:
    """Eigenvalues and orthonormal eigenspace bases of ad(a) on the chosen
    model subspace, ascending.

    a must act semisimply with real spectrum (Hermitian ad-operator in an
    orthonormal basis), and on h^C or m^C of a real form be theta-fixed;
    otherwise NotInCartan is raised.  The grading comes from one eigh of a.
    """
    clusters, mats = _ad_graded(real, a, space, tol, bases=True)
    return [(lam, list(mats[start:stop])) for lam, start, stop in clusters]


# --------------------------------------------------------------------------
# sl2-triples
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SL2Triple:
    x: np.ndarray
    e: np.ndarray
    f: np.ndarray
    flavor: str = "plain"  # plain | normal | ks_normal


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
    if t.flavor == "ks_normal":
        if not (real.in_mC(t.e, tol) and real.in_mC(t.f, tol) and real.in_hC(t.x, tol)):
            raise NotInModel("ks_normal triple needs e,f in m^C and x in h^C")
        if hs_norm(real.sigma(t.e) - t.f) > tol * scale:
            raise NotInModel("ks_normal needs f = sigma(e)")
        return
    raise ValueError(f"unknown flavor {t.flavor!r}")


# the one relative rank cutoff of the kernel flag
_FLAG_CUTOFF = 1e-9


def _kernel_flag(
    e: np.ndarray, bases: bool = False, sv: np.ndarray | None = None
) -> tuple[float, tuple[int, ...], list[np.ndarray] | None]:
    """(step, dims, kernels) of the kernel flag ker e < ker e^2 < ... = C^n,
    which every nilpotent decision reads (Golub-Wilkinson 1976, Kagstrom-Ruhe
    1980): step the power of two nearest rho = ||e||_2 (within [2^-1021,
    2^1023]; 0 for e = 0), dims[k-1] = dim ker e^k up to the first that is n,
    and, if ``bases``, orthonormal bases kernels[k] of ker e^k, k = 0 .. d.
    One SVD per power of e / step, which is exact; a singular value of the
    k-th counts as zero below _FLAG_CUTOFF (rho / step)^k, as a Jordan block
    keeps norm 1 in every nonzero power.  Without bases, a power whose
    Frobenius norm is already at most that cutoff (compared squared) has
    rank 0 and takes no SVD, as no singular value exceeds the Frobenius
    norm; ``sv``, the singular values of e, spares the first SVD to a caller
    that has them.  NotNilpotent where the flag stalls short of n, or a drop
    dim ker e^k - dim ker e^(k-1), the number of blocks of size >= k,
    exceeds the one before."""
    e = np.asarray(e, dtype=complex)
    n = e.shape[0]

    def svd(a):  # (singular values, right singular vectors or None)
        return np.linalg.svd(a)[1:] if bases else (np.linalg.svd(a, compute_uv=False), None)

    sv, vh = svd(e) if sv is None else (sv, None)
    if not sv[0]:
        return 0.0, (n,), [np.zeros((n, 0), dtype=complex), np.eye(n, dtype=complex)] if bases else None
    top = float(sv[0])
    step = 2.0 ** min(max(round(np.log2(top)), -1021), 1023)
    unit, rho = e / step, top / step
    limit = _FLAG_CUTOFF * top  # on the values of e itself, step times those of e / step
    dims, drop = [0], n
    kernels = [np.zeros((n, 0), dtype=complex)] if bases else None
    power = unit
    while dims[-1] < n:
        if len(dims) > 1:
            power = power @ unit
            limit = _FLAG_CUTOFF * rho ** len(dims)
            if bases or np.vdot(power, power).real > limit * limit:
                sv, vh = svd(power)
            else:  # rank 0: no singular value exceeds the Frobenius norm
                sv = np.zeros(0)
        rank = sum(v > limit for v in sv.tolist())
        prev, drop = drop, n - rank - dims[-1]
        if not 0 < drop <= prev:
            raise NotNilpotent(f"no nilpotent has powers with kernels of dimensions {(*dims[1:], n - rank)}")
        dims.append(n - rank)
        if bases:
            kernels.append(vh[rank:].conj().T)
    return step, tuple(dims[1:]), kernels


def is_nilpotent(m: np.ndarray) -> bool:
    """Whether m has the kernel flag of a nilpotent."""
    try:
        return bool(_kernel_flag(m))
    except NotNilpotent:
        return False


def _jordan_chains(e: np.ndarray, kernels: list[np.ndarray]) -> list[list[np.ndarray]]:
    """Jordan chains of a nilpotent matrix from the bases of its kernel flag,
    longest first.  From the deepest level j down, the new tops complete
    ker e^(j-1) plus the longer chains to ker e^j: as many as the flag's drop
    at j less its drop at j + 1, the leading singular vectors of ker e^j
    projected off that span, so the chain lengths sum to n."""
    n = e.shape[0]
    chains: list[list[np.ndarray]] = []
    for j in range(len(kernels) - 1, 0, -1):
        # every chain chosen so far is longer than j; its member in ker e^j is ch[j - 1]
        span = np.hstack([kernels[j - 1]] + [ch[j - 1].reshape(n, 1) for ch in chains])
        cand = kernels[j]
        count = cand.shape[1] - span.shape[1]
        if not count:
            continue
        q, _ = np.linalg.qr(span)
        cand = cand - q @ (q.conj().T @ cand)
        for top in np.linalg.svd(cand, full_matrices=False)[0].T[:count]:
            chain = [top]
            for _ in range(j - 1):
                chain.append(e @ chain[-1])
            chain.reverse()  # chain[0] = e^{j-1} top ... chain[-1] = top
            chains.append(chain)
    return chains


def jacobson_morozov(e: np.ndarray) -> SL2Triple:
    """Complete a nonzero nilpotent matrix to an sl2-triple (x, e, f).

    Uses the Jordan normal form of e: per block of size d the standard triple
    has x = diag(d-1, d-3, ..., 1-d) and f with entries k(d-k) below the
    diagonal.  The triple is built for e / c, c a power of two within a
    factor sqrt(2) of the spectral norm of e (and at most 2^1023, which is
    finite), so neither the bracket check nor the powers of e see its scale;
    f is rescaled by 1/c.  Real input gives a real triple.
    """
    e = np.asarray(e, dtype=complex)
    return _flag_triple(e, _kernel_flag(e, bases=True))


def _flag_triple(e: np.ndarray, flag) -> SL2Triple:
    """jacobson_morozov(e) from the kernel flag of e, read with bases."""
    step, _, kernels = flag
    if step == 0:
        raise ZeroElement("e = 0 has no sl2-triple")
    # dividing by a power of two is exact: only the cutoffs see the new scale,
    # the digits of the triple do not
    unit = e / step
    was_real = np.allclose(unit.imag, 0, atol=1e-12)
    chains = _jordan_chains(unit, kernels)
    sizes = [len(chain) for chain in chains]
    x_std = np.diag(np.array([d - 1 - 2 * k for d in sizes for k in range(d)], dtype=complex))
    # k (d - k) for k = 1 .. d below the diagonal: the last, 0, parts the blocks
    f_std = np.diag(np.array([k * (d - k) for d in sizes for k in range(1, d + 1)][:-1], dtype=complex), -1)
    p = np.stack([v for chain in chains for v in chain], axis=1)
    try:
        p_inv = np.linalg.inv(p)
    except np.linalg.LinAlgError as exc:  # chains of a near-nilpotent that are exactly dependent
        raise TripleCompletionFailure("the Jordan chains are not independent") from exc
    x = p @ x_std @ p_inv
    f = p @ f_std @ p_inv
    if was_real:
        x, f = x.real.astype(complex), f.real.astype(complex)
    bound = 1e-7 * (1 + hs_norm(x) + hs_norm(unit) + hs_norm(f))
    if hs_norm(comm(x, unit) - 2 * unit) > bound or hs_norm(comm(unit, f) - x) > bound:
        raise TripleCompletionFailure("Jordan-chain completion failed the bracket check")
    return SL2Triple(x=x, e=e, f=f / step, flavor="plain")


def normalize_kostant_sekiguchi(real: Realization, t: SL2Triple) -> SL2Triple:
    """Conjugate a normal triple (x in h^C; e, f in m^C) into ks_normal form f = sigma(e).

    The torus element that scales e by c and f by 1/c does it when
    f = mu * sigma(e) with mu > 0, at c = sqrt(mu); any other defect is refused.
    """
    validate_triple(real, t)
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


def _zero_certificate(real: Realization) -> OrbitCertificate:
    """The certificate of the zero orbit: every power has rank 0, and on the
    rank-one models no eigenline carries a component."""
    return OrbitCertificate(
        rank_sequence=(0,) * real.n,
        component_signs=() if real.eigenlines is not None else None,
    )


def rank_sequence(m: np.ndarray) -> tuple[int, ...]:
    """Ranks of m, m^2, ..., m^n of a nilpotent m, read off its kernel flag."""
    return _flag_ranks(len(m), _kernel_flag(m)[1])


def _flag_ranks(n: int, dims: tuple[int, ...]) -> tuple[int, ...]:
    """The ranks of the n powers of a nilpotent from its kernel dimensions."""
    return tuple(n - d for d in dims) + (0,) * (n - len(dims))


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
    sv = np.linalg.svd(e, compute_uv=False)  # the flag's first SVD
    if sv[0] == 0:
        return _zero_certificate(real)
    if not real.in_g(e / sv[0], 1e-8):
        raise NotInModel("e must lie in the real form")
    # NotNilpotent unless the kernel flag is a nilpotent's
    ranks = _flag_ranks(len(e), _kernel_flag(e, sv=sv)[1])
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
    """Groups of vals joined by chains of steps of length <= gap, each sorted.
    The groups hold Python complex numbers: numpy scalars would pay numpy's
    dispatch on every step compared."""
    groups: list[list[complex]] = []
    for v in sorted(map(complex, vals), key=_order):
        near = [g for g in groups if any(abs(v - u) <= gap for u in g)]
        joined = sorted([v, *(u for g in near for u in g)], key=_order)
        groups = [g for g in groups if g not in near] + [joined]
    return groups


def _mean(group: list[complex]) -> complex:
    """complex(np.mean(group)), bit for bit.  One member costs no numpy call:
    np.mean adds it to 0 and divides by 1 + 0j, which turns -0.0 into 0.0 and
    a part beside an infinite or NaN one into NaN, and so does this.  A pure
    Python mean of two or more would differ in the last bit, as numpy sums
    and divides in an order of its own."""
    if len(group) > 1:
        return complex(np.mean(group))
    re, im = group[0].real + 0.0, group[0].imag + 0.0
    return complex(re + im * 0.0, im - re * 0.0)


def _means(groups: list[list[complex]]) -> list[complex]:
    """The mean of each group, the groups ordered by their first member."""
    groups.sort(key=lambda g: _order(g[0]))
    return [_mean(g) for g in groups]


def _cluster(vals: np.ndarray, tol: float, scale: float) -> list[complex]:
    """Means of the groups of eigenvalues that are numerically one eigenvalue.

    A chain of k values, linked by steps up to the scatter bound of a
    defective block of full size, is one group when all k lie within
    max(tol, _ROUNDING^(1/k)) * scale of their mean; otherwise it splits into
    chains linked by steps up to tol * scale.
    """
    groups: list[list[complex]] = []
    for chain in _linked(vals, 2 * max(tol, _ROUNDING ** (1 / len(vals))) * scale):
        mean = _mean(chain)
        if max(abs(v - mean) for v in chain) <= max(tol, _ROUNDING ** (1 / len(chain))) * scale:
            groups.append(chain)
        else:
            groups += _linked(chain, tol * scale)
    return _means(groups)


# Newton steps before the Jordan-Chevalley iteration gives up
_JORDAN_MAX_ITER = 60

# relative gap below which the polar split interpolates on one node: sqrt(eps)
_NODE_GAP = math.sqrt(np.finfo(float).eps)

# the largest eigenbasis condition number that still reads as diagonalizable:
# eps^(-1/4), halfway in log scale between an orthonormal basis (1) and the
# eigenbasis of a defective pair, whose eigenvectors lie within sqrt(eps)
_EIGENBASIS_COND = np.finfo(float).eps ** -0.25


def _semisimple_part(m: np.ndarray, reps: list[complex], scale: float) -> np.ndarray:
    """The Newton iteration s <- s - q'(s)^-1 q(s) from s = m, q the monic
    polynomial with roots reps.

    It stops once ||q(s)|| <= 1e-13 scale^deg q.  Where that bound leaves the
    float range, so does q(s): then m and reps are divided by the power of two
    that puts scale in [1, 2), which is exact, and s is multiplied back.
    """
    try:
        q_tol = 1e-13 * scale ** max(1, len(reps))
    except OverflowError:
        shift = math.frexp(scale)[1] - 1
        lowered = [complex(math.ldexp(r.real, -shift), math.ldexp(r.imag, -shift)) for r in reps]
        return _ldexp(_semisimple_part(_ldexp(m, -shift), lowered, math.ldexp(scale, -shift)), shift)
    coeffs = np.poly(np.array(reps))
    eye = np.eye(m.shape[0], dtype=complex)

    def ev(a):  # q(a), q'(a)
        q = np.zeros_like(a)
        dq = np.zeros_like(a)
        for c in coeffs:
            dq = dq @ a + q
            q = q @ a + c * eye
        return q, dq

    s = m.copy()
    for _ in range(_JORDAN_MAX_ITER):
        q, dq = ev(s)
        if hs_norm(q) <= q_tol:
            return s
        try:
            delta = np.linalg.solve(dq, q)
        except np.linalg.LinAlgError as exc:
            raise NumericallyDefective("Jordan-Chevalley Newton step singular") from exc
        s = s - delta
        if hs_norm(delta) < 1e-15 * scale:
            return s
    raise NumericallyDefective("Jordan-Chevalley iteration did not converge")


def _nilpotent_remainder(n_part: np.ndarray) -> bool:
    """||(n / ||n||_2)^n||_F <= 1e-6 for the Jordan-Chevalley remainder n: a
    power test, as rounding magnified by an ill-conditioned Jordan basis can
    stall the kernel flag short of n, while the n-th power stays small."""
    scale = spectral_norm(n_part)
    if scale == 0:
        return True
    return bool(_frobenius(np.linalg.matrix_power(n_part / scale, n_part.shape[0])) <= 1e-6)


def _jordan_split(
    m: np.ndarray, vals: np.ndarray, tol: float, scale: float
) -> tuple[np.ndarray, np.ndarray, list[complex] | None]:
    """(s, n, nodes): m = s + n from the spectrum vals of m, and the spectrum
    of s clustered into interpolation nodes for functions of s, or None when
    the caller must cluster eigvals(s) at tol itself.

    Merging is right for a defective block, whose computed eigenvalues
    scatter; it is wrong for distinct eigenvalues closer than the clustering
    radius, and then the remainder is not nilpotent.  So a remainder that
    fails the test sends the split to finer groups, linked by steps up to
    tol * scale, and at last to every eigenvalue on its own: s = m, n = 0.
    That last step claims m is diagonalizable, so it needs an eigenbasis
    with condition number at most _EIGENBASIS_COND; the scattered eigenvalues
    of a defective block come with nearly parallel eigenvectors instead.
    After such a retry the nodes are linked by steps up to _NODE_GAP * scale,
    where the two errors of interpolation on close eigenvalues meet: merging
    two nodes moves f(s) by about their gap, keeping them apart leaves the
    Lagrange projectors a rounding error of about eps * scale / gap.
    """
    reps = _cluster(vals, tol, scale)
    if len(reps) == len(vals):
        return m.copy(), np.zeros_like(m), reps
    s = _semisimple_part(m, reps, scale)
    n_part = m - s
    if _nilpotent_remainder(n_part):
        return s, n_part, None
    finer = _means(_linked(vals, tol * scale))
    if len(reps) < len(finer) < len(vals):
        s = _semisimple_part(m, finer, scale)
        n_part = m - s
        if _nilpotent_remainder(n_part):
            return s, n_part, _means(_linked(np.linalg.eigvals(s), _NODE_GAP * scale))
    if np.linalg.cond(np.linalg.eig(m)[1]) > _EIGENBASIS_COND:
        raise NumericallyDefective("nilpotent part check failed after the iteration")
    return m.copy(), np.zeros_like(m), _means(_linked(vals, _NODE_GAP * scale))


def _ldexp(a: np.ndarray, k: int) -> np.ndarray:
    """a * 2^k for a complex array, exact wherever the parts stay normal, for
    any integer k (2^k itself may leave the float range)."""
    out = np.empty_like(a)
    out.real = np.ldexp(a.real, k)
    out.imag = np.ldexp(a.imag, k)
    return out


def jordan_additive(m: np.ndarray, tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Additive Jordan-Chevalley decomposition m = s + n by the Newton iteration
    on the squarefree characteristic polynomial of the clustered spectrum.

    A finite nonzero strictly triangular m is nilpotent as it stands: s = 0,
    n = m.  The iteration measures its steps against max(1, hs_norm(m)), so
    a finite nonzero m with hs_norm(m) < 1 or inf is first multiplied by the
    power of two that puts its norm in [1, 2), read at its largest entry so
    that no sum of squares underflows, and s and n are divided back: the
    split does not depend on the scale of m.  Every other m runs as it stands.
    """
    m = np.asarray(m, dtype=complex)
    square = m.ndim == 2 and m.shape[0] == m.shape[1]
    finite = np.isfinite(m).all()
    if square and finite and m.any() and not (np.tril(m).any() and np.triu(m).any()):
        return np.zeros_like(m), m.copy()
    norm = hs_norm(m)
    shift = 0
    if finite and m.any() and not 1 <= norm < math.inf:
        big = max(float(np.max(np.abs(m.real))), float(np.max(np.abs(m.imag))))
        shift = -math.frexp(big)[1]
        shift += 1 - math.frexp(hs_norm(_ldexp(m, shift)))[1]
        m = _ldexp(m, shift)
        norm = hs_norm(m)
    s, n_part, _ = _jordan_split(m, np.linalg.eigvals(m), tol, max(1.0, norm))
    return (s, n_part) if not shift else (_ldexp(s, -shift), _ldexp(n_part, -shift))


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
    s, _, reps = _jordan_split(g, vals, tol, scale)
    u = np.linalg.solve(s, g)  # unipotent: I + s^{-1} nil
    if reps is None:  # eigenvalues merged: cluster the spectrum of s itself
        reps = _cluster(np.linalg.eigvals(s), tol, scale)
    eye = np.eye(n, dtype=complex)
    shifted = [s - mu * eye for mu in reps]
    projs = []
    for lam in reps:
        p = eye
        for mu, s_mu in zip(reps, shifted):
            if mu != lam:
                p = p @ s_mu / (lam - mu)
        projs.append(p)
    g_h = sum(abs(lam) * p for lam, p in zip(reps, projs))
    log_h = sum(np.log(abs(lam)) * p for lam, p in zip(reps, projs))
    g_e = sum((lam / abs(lam)) * p for lam, p in zip(reps, projs))
    log_u = np.zeros_like(g)
    u_minus = u - eye
    acc = u_minus
    sign = 1.0
    for k in range(1, n + 1):
        log_u = log_u + sign * acc / k
        acc = acc @ u_minus
        sign = -sign
    # elementwise, so a NaN reads as not real
    was_real = bool(np.all(np.abs(g.imag) <= 1e-12 * scale))
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
