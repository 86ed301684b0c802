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
the translation dictionary.

alpha is diagonal, so Ad(exp(i theta alpha)) multiplies entry (j, k) by the
phase exp(i theta (alpha_j - alpha_k)).  ``connection_angular_part``,
``higgs_field_part`` and ``curvature_pair`` also take an array of angles and
then stack their matrices along its axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import expm

from .liealg import Realization, SL2Triple, hs_norm
from .nahodge import CommutationFailure, _realize, monodromy_factors
from .parhiggs import alpha_matrix


class NotSingleValued(ValueError):
    """Angular conjugation of a field that exp(2 pi i alpha) does not fix."""


class GridTooCoarse(ValueError):
    """Finite-difference and analytic curvature disagree beyond the threshold."""


class IntegratorFailure(ValueError):
    """Step refinement did not reach the requested tolerance."""


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
    """Geometric sequence of ``count`` radii from r_max down to r_min."""
    if not 0 < r_min < r_max < 1:
        raise ValueError("need 0 < r_min < r_max < 1")
    if count < 2:
        raise ValueError("need at least two radii")
    ratio = (r_min / r_max) ** (1.0 / (count - 1))
    return RadialGrid(radii=tuple(r_max * ratio**k for k in range(count)), n_theta=n_theta)


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


def _phase(a_mat: np.ndarray, theta: float | np.ndarray) -> np.ndarray:
    """exp(i theta (alpha_j - alpha_k)), the entrywise factor of Ad(exp(i theta alpha))."""
    a = np.diag(a_mat).real
    return np.exp(1j * np.multiply.outer(theta, a[:, None] - a[None, :]))


def _check_angular_fix(a_mat: np.ndarray, fields: Sequence[tuple[str, np.ndarray]], tol: float):
    turn = _phase(a_mat, 2 * math.pi)
    for name, v in fields:
        if hs_norm(v * turn - v) > tol * (1 + hs_norm(v)):
            raise NotSingleValued(
                f"Ad(exp(2 pi i alpha)) does not fix {name}; "
                "the angular conjugation would be multivalued"
            )


def _angular_conj(a_mat: np.ndarray, theta: float | np.ndarray, v: np.ndarray) -> np.ndarray:
    return v * _phase(a_mat, theta)


def model_metric_eval(alpha, h_elem, z, tol: float = 1e-10) -> np.ndarray:
    """The adapted metric at a point of the punctured disc.

    ``z`` is a nonzero complex number inside the unit disc, or an (r, theta)
    pair when the angle matters beyond its class mod 2 pi.  Reduces to
    |z|^(-2 alpha) for h_elem = 0.  Raises NotSingleValued when the grading
    element is not fixed by Ad(exp(2 pi i alpha)).
    """
    a_mat = alpha_matrix(alpha)
    h_elem = np.asarray(h_elem, dtype=complex)
    r, theta = _polar(z)
    _check_angular_fix(a_mat, [("H", h_elem)], tol)
    radial = np.exp(-math.log(r) * np.diag(a_mat).real)  # the diagonal of |z|^-alpha
    # expm(c Ad(u) H) = Ad(u) expm(c H) for u = exp(i theta alpha)
    log_factor = _angular_conj(a_mat, theta, expm(math.log(-2 * math.log(r)) * h_elem))
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
        # for the one exponential E below
        radial = np.exp(math.log(r) * np.diag(a_mat).real)  # the diagonal of |z|^alpha
        log_part = expm(-0.5 * math.log(-log_z2) * h_elem)
        g0 = radial[:, None] * _angular_conj(a_mat, theta, log_part)
        g0_inv = _angular_conj(a_mat, theta, np.linalg.inv(log_part)) / radial[None, :]
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


def _validate_model_data(real: Realization, a_mat, s, triple, tol: float):
    fields = []
    if triple is not None:
        fields = [("H", triple.x), ("X", triple.e), ("Y", triple.f)]
    _check_angular_fix(a_mat, fields, tol)
    scale = 1 + hs_norm(s)
    if hs_norm(a_mat @ s - s @ a_mat) > tol * scale:
        raise CommutationFailure("alpha and s do not commute")
    tau_s = real.tau(s)
    if hs_norm(s @ tau_s - tau_s @ s) > tol * scale * scale:
        raise CommutationFailure(
            "s does not commute with tau(s); the model connection is not flat"
        )
    if triple is not None:
        for name, part in fields:
            if hs_norm(s @ part - part @ s) > tol * scale * (1 + hs_norm(part)):
                raise CommutationFailure(f"s does not commute with the triple element {name}")


def _sup_norm(stack: np.ndarray) -> float:
    """Largest Hilbert-Schmidt norm over the leading axes of a matrix stack."""
    return float(np.max(np.linalg.norm(stack, axis=(-2, -1))))


def hitchin_residual(
    alpha,
    s,
    triple: SL2Triple | None,
    grid: RadialGrid,
    realization,
    extra_terms: Sequence[tuple[int, np.ndarray]] = (),
    fd_step: float = 1e-3,
    fd_tol: float = 1e-4,
    tol: float = 1e-8,
) -> ResidualProfile:
    """Weighted Hermite-Einstein residual of the model metric over a grid.

    Raises GridTooCoarse when the finite-difference curvature drifts from
    the analytic one beyond ``fd_tol`` in the weighted norm (a sign that
    ``fd_step`` and the radii resolve nothing).
    """
    real = _realize(realization)
    a_mat = alpha_matrix(alpha)
    s = np.asarray(s, dtype=complex)
    _validate_model_data(real, a_mat, s, triple, tol)

    thetas = grid.thetas
    rho = []
    mismatch = []
    for r in grid.radii:
        weight = (2 * math.log(r)) ** 2
        analytic, fd = curvature_pair(alpha, triple, r, thetas, fd_step=fd_step)
        c_phi = higgs_field_part(alpha, s, triple, r, thetas, extra_terms=extra_terms)
        tau_c = real.tau(c_phi)
        bracket = c_phi @ tau_c - tau_c @ c_phi
        worst_res = _sup_norm(weight * (r * r * analytic - bracket))
        worst_fd = _sup_norm(weight * r * r * (analytic - fd))
        rho.append(worst_res)
        mismatch.append(worst_fd)
        if worst_fd > fd_tol:
            raise GridTooCoarse(
                f"finite-difference curvature off by {worst_fd:.3e} at r={r:g} "
                f"(threshold {fd_tol:g}); refine fd_step"
            )
    return ResidualProfile(
        radii=tuple(grid.radii), rho=tuple(rho), fd_mismatch=tuple(mismatch), fd_step=fd_step
    )


# ---------------------------------------------------------------------------
# holonomy of the model connection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HolonomyReport:
    """Circle holonomy against the predicted monodromy.  ``steps`` counts ODE
    steps, which the closed form does not take: it is always 0."""

    numeric: np.ndarray
    predicted_levi: np.ndarray
    predicted_full: np.ndarray
    deviation_levi: float
    deviation_full: float
    steps: int


def _rk4_circle(coeff: Callable[[np.ndarray], np.ndarray], n: int, dim: int) -> np.ndarray:
    h = 2 * math.pi / n
    c = coeff(np.arange(2 * n + 1) * (h / 2))  # the coefficient at every half step
    u = np.eye(dim, dtype=complex)
    for k in range(n):
        k1 = c[2 * k] @ u
        k2 = c[2 * k + 1] @ (u + h / 2 * k1)
        k3 = c[2 * k + 1] @ (u + h / 2 * k2)
        k4 = c[2 * k + 2] @ (u + h * k3)
        u = u + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return u


def _rk4_holonomy(
    alpha,
    s,
    triple: SL2Triple | None,
    r: float,
    realization,
    tol: float = 1e-10,
    max_doublings: int = 8,
) -> tuple[np.ndarray, int, float]:
    """Reference for ``holonomy_check``: U(2 pi) integrated by RK4.

    The step count doubles from 128 until two sweeps agree to ``tol``
    (Richardson estimate, absolute); returns (U, steps, estimate).  Raises
    IntegratorFailure after ``max_doublings`` refinements.  A sweep holds its
    coefficients in memory, so the default stops at 32768 steps (a few MB).
    """
    real = _realize(realization)
    a_mat = alpha_matrix(alpha)
    s = np.asarray(s, dtype=complex)
    base = -a_mat + s + real.tau(s)
    n_mat = np.zeros_like(s) if triple is None else triple.f - triple.x - triple.e
    log_z2 = 2 * math.log(r)

    def coeff(theta: np.ndarray) -> np.ndarray:
        return -1j * (base - _angular_conj(a_mat, theta, n_mat) / log_z2)

    steps = 128
    u_prev = _rk4_circle(coeff, steps, a_mat.shape[0])
    est = math.inf
    for _ in range(max_doublings):
        steps *= 2
        u_next = _rk4_circle(coeff, steps, a_mat.shape[0])
        est = hs_norm(u_next - u_prev) / 15.0  # RK4 Richardson estimate
        u_prev = u_next
        if est < tol / 2:  # absolute: the acceptance tolerances are absolute
            return u_prev, steps, est
    raise IntegratorFailure(f"no convergence to {tol:g} after {steps} steps (est {est:.3e})")


def holonomy_check(
    alpha,
    s,
    triple: SL2Triple | None,
    r: float,
    realization,
    convention: str = "2pi_i",
    tol: float = 1e-10,
) -> HolonomyReport:
    """Parallel transport of the angular model connection once around |z| = r.

    The transport equation is dU/d theta = -A_theta U with
    A_theta = i(-alpha + s + tau(s) - Ad(exp(i theta alpha)) N / ln r^2),
    N = Y - H - X.  alpha is diagonal and commutes with s and tau(s), so in
    the rotating frame V = exp(-i theta alpha) U the coefficients are
    constant and
        U(2 pi) = exp(2 pi i alpha) exp(-2 pi i (s + tau(s) - N / ln r^2)).
    The deviations compare U(2 pi) against the predicted semisimple (Levi)
    part and the full predicted monodromy; ``tol`` bounds the commutation
    checks.  The holonomy converges to the Levi part as r -> 0 (exactly, for
    Y = 0).
    """
    real = _realize(realization)
    a_mat = alpha_matrix(alpha)
    s = np.asarray(s, dtype=complex)
    if not 0 < r < 1:
        raise ValueError("need a circle radius in (0, 1)")
    _validate_model_data(real, a_mat, s, triple, max(tol, 1e-9))

    g_e, g_h, g_u, n_mat = monodromy_factors(alpha, s, triple, real, convention=convention)
    # g_e is exp(2 pi i alpha) under every convention
    numeric = g_e @ expm(-2j * math.pi * (s + real.tau(s) - n_mat / (2 * math.log(r))))
    levi = g_e @ g_h
    full = levi @ g_u
    return HolonomyReport(
        numeric=numeric,
        predicted_levi=levi,
        predicted_full=full,
        deviation_levi=hs_norm(numeric - levi),
        deviation_full=hs_norm(numeric - full),
        steps=0,
    )
