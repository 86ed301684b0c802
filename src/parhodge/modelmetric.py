"""Numerical checks of the local model near a puncture.

Everything here lives on the punctured unit disc in the unitary gauge, where
the model data is a weight vector alpha, a semisimple piece s, and a
normalized sl2-triple (H, X, Y) through the nilpotent residue:

* the adapted metric  h0 = |z|^-alpha (-ln|z|^2)^Ad(exp(i theta alpha))H |z|^-alpha,
* the model connection, whose only component is angular,
      A = -i (alpha - Ad(exp(i theta alpha)) H / ln|z|^2) d theta,
* the model Higgs field  (s - Ad(exp(i theta alpha)) Y / ln|z|^2) dz/z.

The curvature of A equals Ad(exp(i theta alpha)) H dz dz-bar / (|z| ln|z|^2)^2
exactly, and the bracket [phi, tau(phi)] reproduces it, so the pure model
solves the Hermite-Einstein equation identically; a nonzero residual profile
requires higher-order Higgs terms, which ``hitchin_residual`` accepts in the
holomorphic gauge and transports itself.  ``holonomy_check`` transports around
a circle in closed form and compares with the predicted monodromy factors of
the translation dictionary.  The transport is exp(2 pi i alpha) times the
exponential of -2 pi i (s + tau(s)) + pi i N / ln r, N = Y - H - X; s + tau(s)
commutes with N (checked), so that exponential is the product of the
exponentials of a Hermitian matrix (times -2 pi) and of a nilpotent one.

alpha is diagonal, so Ad(exp(i theta alpha)) multiplies entry (j, k) by the
phase exp(i theta (alpha_j - alpha_k)).  ``connection_angular_part``,
``higgs_field_part`` and ``curvature_pair`` also take an array of angles and
then stack their matrices along its axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ParhodgeError
from .liealg import Realization, SL2Triple, _exp_hermitian, _exp_nilpotent, comm, hs_norm
from .nahodge import CommutationFailure, NotSingleValued  # the checks raise both; re-exported
from .nahodge import _at_unit_scale, _check_residue_data, _realize, monodromy_factors
from .parhiggs import alpha_matrix


class GridTooCoarse(ParhodgeError, ValueError):
    """Finite-difference and analytic curvature disagree beyond the threshold."""

    exit_code = 4


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialGrid:
    """Geometric radii (strictly decreasing, inside the unit disc) and a
    number of equispaced angular samples."""

    radii: tuple[float, ...]
    n_theta: int = 64

    def __post_init__(self):
        if not self.radii:
            raise ValueError("the grid needs at least one radius")
        if any(not 0 < r < 1 for r in self.radii):
            raise ValueError("radii must lie in (0, 1)")
        if any(b >= a for a, b in zip(self.radii, self.radii[1:])):
            raise ValueError("radii must be strictly decreasing")
        if self.n_theta < 64:
            raise ValueError("need at least 64 angular samples")

    @property
    def thetas(self) -> np.ndarray:
        return np.linspace(0.0, 2 * math.pi, self.n_theta, endpoint=False)


def radial_grid(r_max: float, r_min: float, count: int, n_theta: int = 64) -> RadialGrid:
    """Geometric sequence of ``count`` radii from r_max down to r_min, both
    ends as given: the last radius is r_min itself, not r_max·ratio^(count−1)."""
    if not 0 < r_min < r_max < 1:
        raise ValueError("need 0 < r_min < r_max < 1")
    if count < 2:
        raise ValueError("need at least two radii")
    ratio = (r_min / r_max) ** (1.0 / (count - 1))
    return RadialGrid(radii=(*(r_max * ratio**k for k in range(count - 1)), r_min), n_theta=n_theta)


# ---------------------------------------------------------------------------
# field evaluation
# ---------------------------------------------------------------------------


def _polar(z) -> tuple[float, float]:
    if isinstance(z, tuple):
        r, theta = float(z[0]), float(z[1])
    else:
        zc = complex(z)
        r, theta = abs(zc), math.atan2(zc.imag, zc.real)
    if not 0 < r < 1:
        raise ValueError("the model lives on the punctured unit disc: need 0 < |z| < 1")
    return r, theta


def _angular_conj(a_mat: np.ndarray, theta: float | np.ndarray, v: np.ndarray) -> np.ndarray:
    """Ad(exp(i theta alpha)) v: entry (j, k) times exp(i theta (alpha_j - alpha_k))."""
    a = np.diag(a_mat).real
    return v * np.exp(1j * np.multiply.outer(theta, a[:, None] - a[None, :]))


def model_metric_eval(alpha, h_elem, z) -> np.ndarray:
    """The adapted metric at a point of the punctured disc.

    ``z`` is a nonzero complex number inside the unit disc, or an (r, theta)
    pair when the angle matters beyond its class mod 2 pi.  Reduces to
    |z|^(-2 alpha) for h_elem = 0.  Raises NotSingleValued when the grading
    element is not fixed by Ad(exp(2 pi i alpha)).
    """
    a_mat = alpha_matrix(alpha)
    h_elem = np.asarray(h_elem, dtype=complex)
    r, theta = _polar(z)
    _check_residue_data(alpha, np.zeros_like(h_elem), 1e-10, [("H", h_elem)])
    radial = np.exp(-math.log(r) * np.diag(a_mat).real)  # the diagonal of |z|^-alpha
    # exp(c Ad(u) H) = Ad(u) exp(c H) for u = exp(i theta alpha), and H is Hermitian
    log_factor = _angular_conj(a_mat, theta, _exp_hermitian(h_elem, math.log(-2 * math.log(r))))
    return log_factor * np.outer(radial, radial)


def connection_angular_part(
    alpha, triple: SL2Triple | None, r: float, theta: float | np.ndarray
) -> np.ndarray:
    """a(r, theta) in A = -i a d theta for the model connection."""
    a_mat = alpha_matrix(alpha)
    if triple is None:
        return a_mat.astype(complex)
    log_z2 = 2 * math.log(r)
    return a_mat - _angular_conj(a_mat, theta, triple.x) / log_z2


def higgs_field_part(
    alpha,
    s: np.ndarray,
    triple: SL2Triple | None,
    r: float,
    theta: float | np.ndarray,
    extra_terms: Sequence[tuple[int, np.ndarray]] = (),
) -> np.ndarray:
    """dz/z-coefficient of the Higgs field in the unitary gauge.

    ``extra_terms`` are holomorphic-gauge corrections psi * z^k dz/z with
    k >= 1; they are transported by the gauge change, picking up their
    |z|^k z-decay and logarithmic distortion.
    """
    a_mat = alpha_matrix(alpha)
    val = np.array(s, dtype=complex)
    log_z2 = 2 * math.log(r)
    if triple is not None:
        val = val - _angular_conj(a_mat, theta, triple.f) / log_z2
    if extra_terms:
        h_elem = np.zeros_like(a_mat) if triple is None else triple.x
        # g0 = |z|^alpha (-ln|z|^2)^(-H_theta/2); the Higgs field transforms
        # by Ad(g0^{-1}), and (-ln|z|^2)^(-H_theta/2) = Ad(exp(i theta alpha)) E
        # for E = exp(c H) below; H is Hermitian, so one eigh gives E and E^-1
        radial = np.exp(math.log(r) * np.diag(a_mat).real)  # the diagonal of |z|^alpha
        c = -0.5 * math.log(-log_z2)
        log_part, log_part_inv = _exp_hermitian(h_elem, (c, -c))
        g0 = radial[:, None] * _angular_conj(a_mat, theta, log_part)
        g0_inv = _angular_conj(a_mat, theta, log_part_inv) / radial[None, :]
        spin = np.exp(1j * np.asarray(theta))[..., None, None]  # z / |z|
        for k, psi in extra_terms:
            if int(k) < 1:
                raise ValueError("holomorphic corrections need order k >= 1")
            zpow = r ** int(k) * spin ** int(k)
            val = val + zpow * (g0_inv @ np.asarray(psi, dtype=complex) @ g0)
    return val


def curvature_pair(
    alpha,
    triple: SL2Triple | None,
    r: float,
    theta: float | np.ndarray,
    fd_step: float = 1e-3,
) -> tuple[np.ndarray, np.ndarray]:
    """(analytic, finite-difference) dz dz-bar curvature coefficients of A.

    The analytic value is Ad(exp(i theta alpha)) H / (|z| ln|z|^2)^2; the
    numeric one is the central difference of the angular coefficient in r
    (the only nonzero derivative: A has no radial component and the
    quadratic term is killed by d theta ^ d theta).
    """
    a_mat = alpha_matrix(alpha)
    if triple is None:
        n = a_mat.shape[0]
        return np.zeros((n, n), dtype=complex), np.zeros((n, n), dtype=complex)
    log_z2 = 2 * math.log(r)
    analytic = _angular_conj(a_mat, theta, triple.x) / (r * log_z2) ** 2
    step = fd_step * r
    plus = connection_angular_part(alpha, triple, r + step, theta)
    minus = connection_angular_part(alpha, triple, r - step, theta)
    fd = (plus - minus) / (2 * step) / (2 * r)
    return analytic, fd


# ---------------------------------------------------------------------------
# the residual profile
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResidualProfile:
    """Per-radius weighted residual of the Hermite-Einstein equation.

    ``rho[k]`` is sup over theta of  || AdH - L^2 [c, tau(c)] ||  at radius
    radii[k] (L = ln|z|^2, c the unitary-gauge Higgs coefficient): the
    residual of R(h0) = [phi, tau(phi)] rescaled by |z|^2 L^2 so the pure
    model sits at exactly zero.  ``fd_mismatch`` is the same weight applied
    to | analytic - finite-difference | curvature.
    """

    radii: tuple[float, ...]
    rho: tuple[float, ...]
    fd_mismatch: tuple[float, ...]
    fd_step: float


def _check_model_data(alpha, s: np.ndarray, triple: SL2Triple | None, tol: float) -> None:
    """The residue checks of the dictionary, and the model's own flatness
    [s, tau(s)] = 0, read on s over the power of two at its largest entry."""
    _check_residue_data(alpha, s, tol, triple=triple)
    s = _at_unit_scale(s)
    tau_s = Realization.tau(s)
    scale = 1 + hs_norm(s)
    if hs_norm(comm(s, tau_s)) > tol * scale * scale:
        raise CommutationFailure("s does not commute with tau(s); the model connection is not flat")


# largest weighted gap between the finite-difference and analytic curvature
_FD_TOL = 1e-4

# matrices in one stacked pass of the residual: 64 radii on the default grid
_PASS_MATRICES = 4096


def _per_radius(values: list[float]) -> np.ndarray:
    """Per-radius scalars shaped to lead a (radius, theta, n, n) stack."""
    return np.array(values)[:, None, None, None]


def hitchin_residual(
    alpha,
    s,
    triple: SL2Triple | None,
    grid: RadialGrid,
    realization,
    extra_terms: Sequence[tuple[int, np.ndarray]] = (),
    fd_step: float = 1e-3,
    transport: CircleTransport | None = None,
) -> ResidualProfile:
    """Weighted Hermite-Einstein residual of the model metric over a grid.

    Raises GridTooCoarse when the finite-difference curvature drifts from
    the analytic one beyond 1e-4 in the weighted norm (a sign that
    ``fd_step`` and the radii resolve nothing).  The model data are checked
    to 1e-8; ``transport``, the ``circle_transport`` of these same data, has
    checked them already, and then the checks are skipped.
    """
    real = _realize(realization)
    a_mat = alpha_matrix(alpha)
    s = np.asarray(s, dtype=complex)
    if transport is None:
        _check_model_data(alpha, s, triple, 1e-8)

    radii = tuple(grid.radii)
    phases = np.diag(a_mat).real
    # with every alpha_j equal each phase is exp(0) = 1 at every angle, so
    # every theta slice is the theta = 0 slice bit for bit and one stands for
    # all; the corrections turn with z^k and need the whole grid
    scalar_alpha = bool(np.all(phases == phases[0]))
    thetas = grid.thetas[:1] if scalar_alpha and not extra_terms else grid.thetas
    if triple is None:
        ad_h = np.zeros((1, *a_mat.shape), dtype=complex)
    else:
        # the (theta, n, n) stacks of Ad(exp(i theta alpha)) H and Y do not
        # depend on r; the radii only rescale them, with the operations of
        # connection_angular_part and higgs_field_part
        ad_h = _angular_conj(a_mat, thetas, triple.x)
        ad_y = _angular_conj(a_mat, thetas, triple.f)
    rho: list[float] = []
    mismatch: list[float] = []
    # one pass stacks (radius, theta, n, n) arrays of about _PASS_MATRICES
    # matrices, so the memory does not grow with the number of radii
    per_pass = max(1, _PASS_MATRICES // len(thetas))
    for start in range(0, len(radii), per_pass):
        part = radii[start : start + per_pass]
        # the per-radius scalars come from math.log, one radius at a time
        logs = [2 * math.log(r) for r in part]
        weight = _per_radius([x**2 for x in logs])
        # r^2 L^2 times the analytic curvature ad_h / (r L)^2 is ad_h itself: the
        # weight is folded in before any division, and no (r L)^2 underflows
        if triple is not None:
            plus = a_mat - ad_h / _per_radius([2 * math.log(r + fd_step * r) for r in part])
            minus = a_mat - ad_h / _per_radius([2 * math.log(r - fd_step * r) for r in part])
            fd = weight * (plus - minus) / (4 * fd_step)
        if extra_terms:
            c_phi = np.stack(
                [higgs_field_part(alpha, s, triple, r, thetas, extra_terms=extra_terms) for r in part]
            )
        else:
            c_phi = s if triple is None else s - ad_y / _per_radius(logs)
        tau_c = real.tau(c_phi)
        bracket = c_phi @ tau_c - tau_c @ c_phi
        # sup over theta of the Hilbert-Schmidt norm, per radius
        rho += np.linalg.norm(ad_h - weight * bracket, axis=(-2, -1)).max(axis=-1).tolist()
        if triple is None:
            mismatch += [0.0] * len(part)
        else:
            mismatch += np.linalg.norm(ad_h - fd, axis=(-2, -1)).max(axis=-1).tolist()
        for r, worst in zip(part, mismatch[start:]):
            if worst > _FD_TOL:
                raise GridTooCoarse(
                    f"finite-difference curvature off by {worst:.3e} at r={r:g} "
                    f"(threshold {_FD_TOL:g}); refine fd_step"
                )
    return ResidualProfile(radii=radii, rho=tuple(rho), fd_mismatch=tuple(mismatch), fd_step=fd_step)


# ---------------------------------------------------------------------------
# holonomy of the model connection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HolonomyReport:
    """Circle holonomy against the predicted monodromy, at one radius or
    at each of a sequence of radii: then ``numeric`` stacks the holonomies
    along its first axis and the deviations are tuples, one per radius.
    ``steps`` counts ODE steps, which the closed form does not take: it is
    always 0, and no report shows it; the benchmark's tracer still reads it."""

    numeric: np.ndarray
    predicted_levi: np.ndarray
    predicted_full: np.ndarray
    deviation_levi: float | tuple[float, ...]
    deviation_full: float | tuple[float, ...]
    steps: int


@dataclass(frozen=True)
class CircleTransport:
    """The part of the circle holonomy that does not depend on the radius:
    U(2 pi) = ``rotation`` exp(pi i N / ln r), and the predicted monodromy."""

    rotation: np.ndarray  # exp(2 pi i alpha) exp(-2 pi i (s + tau(s)))
    nilpotent: np.ndarray  # N = Y - H - X
    predicted_levi: np.ndarray
    predicted_full: np.ndarray


def circle_transport(
    alpha,
    s,
    triple: SL2Triple | None,
    realization,
    convention: str = "2pi_i",
    tol: float = 1e-9,
) -> CircleTransport:
    """Checks the model data and builds the radius-independent factors of
    ``holonomy_check``, so that a table over many radii does this once."""
    real = _realize(realization)
    s = np.asarray(s, dtype=complex)
    _check_model_data(alpha, s, triple, tol)

    g_e, g_h, g_u, n_mat = monodromy_factors(alpha, s, triple, real, convention=convention)
    # g_e is exp(2 pi i alpha) under every convention, and under "2pi_i" g_h is
    # exp(-2 pi i (s + tau(s))), so the rotation is the Levi prediction itself
    levi = g_e @ g_h
    if convention == "2pi_i":
        rotation = levi
    else:
        rotation = g_e @ _exp_hermitian(1j * (s + real.tau(s)), -2 * math.pi)
    return CircleTransport(
        rotation=rotation,
        nilpotent=n_mat,
        predicted_levi=levi,
        predicted_full=levi @ g_u,
    )


def holonomy_check(
    alpha,
    s,
    triple: SL2Triple | None,
    r: float | Sequence[float],
    realization,
    convention: str = "2pi_i",
    transport: CircleTransport | None = None,
) -> HolonomyReport:
    """Parallel transport of the angular model connection once around |z| = r,
    for one radius r or for each radius of a sequence.

    The transport equation is dU/d theta = -A_theta U with
    A_theta = i(-alpha + s + tau(s) - Ad(exp(i theta alpha)) N / ln r^2),
    N = Y - H - X.  alpha is diagonal and commutes with s and tau(s), so in
    the rotating frame V = exp(-i theta alpha) U the coefficients are
    constant and
        U(2 pi) = exp(2 pi i alpha) exp(-2 pi i (s + tau(s) - N / ln r^2)).
    s + tau(s) commutes with N: the checks of the model data give
    [s, H] = [s, X] = [s, Y] = [s, tau(s)] = 0, and X = -tau(Y) on a
    normalized triple carries them over to tau(s) (so does the normality of
    s, which makes tau(s) = -s^H a polynomial in s).  So the exponential
    splits into closed forms,
        U(2 pi) = exp(2 pi i alpha) exp(-2 pi i (s + tau(s))) exp(pi i N / ln r),
    the middle factor from the Hermitian i (s + tau(s)) and the last a finite
    series.  Those checks hold to a tolerance, and a triple that is not
    normalized can turn their slack into a commutator of order one, so
    [s + tau(s), N] is checked too (CommutationFailure).  The deviations
    compare U(2 pi) against the predicted semisimple (Levi) part and the full
    predicted monodromy.  The holonomy converges to the Levi part as r -> 0
    (exactly, for Y = 0).

    Only the last factor depends on r; for a sequence of radii its series
    is summed once, stacked over the radii.  ``transport``, the
    ``circle_transport`` of these same data, skips the checks and the other
    factors; without it they are computed here.
    """
    one = np.ndim(r) == 0
    radii = (r,) if one else tuple(r)
    if not all(0 < x < 1 for x in radii):
        raise ValueError("need a circle radius in (0, 1)")
    if transport is None:
        transport = circle_transport(alpha, s, triple, realization, convention=convention)
    # the coefficients from math.log, one radius at a time
    coeffs = np.array([1j * math.pi / math.log(x) for x in radii])[:, None, None]
    numeric = transport.rotation @ _exp_nilpotent(transport.nilpotent, coeffs)
    levi = tuple(hs_norm(u - transport.predicted_levi) for u in numeric)
    full = tuple(hs_norm(u - transport.predicted_full) for u in numeric)
    return HolonomyReport(
        numeric=numeric[0] if one else numeric,
        predicted_levi=transport.predicted_levi,
        predicted_full=transport.predicted_full,
        deviation_levi=levi[0] if one else levi,
        deviation_full=full[0] if one else full,
        steps=0,
    )
