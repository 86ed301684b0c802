"""RK4 circle transport: the reference ``modelmetric.holonomy_check`` was
checked against before its closed form, kept as a test oracle.

``rk4_holonomy`` integrates dU/d theta = -A_theta U once around |z| = r with
RK4 and doubles the step count until two sweeps agree.  Its cost grows with
the step count, so tests feed it few radii.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from parhodge.liealg import SL2Triple, hs_norm
from parhodge.modelmetric import _angular_conj
from parhodge.nahodge import _realize
from parhodge.parhiggs import alpha_matrix


class IntegratorFailure(ValueError):
    """Step refinement did not reach the requested tolerance."""


def rk4_circle(coeff: Callable[[np.ndarray], np.ndarray], n: int, dim: int) -> np.ndarray:
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


def rk4_holonomy(
    alpha,
    s,
    triple: SL2Triple | None,
    r: float,
    realization,
    tol: float = 1e-10,
    max_doublings: int = 8,
) -> tuple[np.ndarray, int, float]:
    """U(2 pi) integrated by RK4.

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
    u_prev = rk4_circle(coeff, steps, a_mat.shape[0])
    est = math.inf
    for _ in range(max_doublings):
        steps *= 2
        u_next = rk4_circle(coeff, steps, a_mat.shape[0])
        est = hs_norm(u_next - u_prev) / 15.0  # RK4 Richardson estimate
        u_prev = u_next
        if est < tol / 2:  # absolute: the acceptance tolerances are absolute
            return u_prev, steps, est
    raise IntegratorFailure(f"no convergence to {tol:g} after {steps} steps (est {est:.3e})")
