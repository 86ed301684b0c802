"""The residual and holonomy tables one radius at a time.

``looped_residual`` is ``modelmetric.hitchin_residual`` as a loop over the
radii, each radius with its own (theta, n, n) stacks over the full angle
grid; ``one_radius_holonomy`` is ``modelmetric.holonomy_check`` at a single
radius, with exp(pi i N / ln r) summed from its own series.  The library
builds both tables in one stacked pass, and the oracle tests ask for the
same floats, bit for bit, and the same GridTooCoarse.
"""

from __future__ import annotations

import math

import numpy as np

from residue_check_oracle import _validate_model_data

from parhodge.liealg import hs_norm
from parhodge.modelmetric import (
    _FD_TOL,
    GridTooCoarse,
    HolonomyReport,
    ResidualProfile,
    _angular_conj,
    circle_transport,
    higgs_field_part,
)
from parhodge.nahodge import _realize
from parhodge.parhiggs import alpha_matrix


def _sup_norm(stack: np.ndarray) -> float:
    """Largest Hilbert-Schmidt norm over the leading axes of a matrix stack."""
    return float(np.max(np.linalg.norm(stack, axis=(-2, -1))))


def looped_residual(
    alpha, s, triple, grid, realization, extra_terms=(), fd_step=1e-3, transport=None
) -> ResidualProfile:
    real = _realize(realization)
    a_mat = alpha_matrix(alpha)
    s = np.asarray(s, dtype=complex)
    if transport is None:
        _validate_model_data(real, a_mat, s, triple, 1e-8)

    thetas = grid.thetas
    if triple is None:
        ad_h = fd = np.zeros(a_mat.shape, dtype=complex)
    else:
        ad_h = _angular_conj(a_mat, thetas, triple.x)
        ad_y = _angular_conj(a_mat, thetas, triple.f)
    rho = []
    mismatch = []
    for r in grid.radii:
        log_z2 = 2 * math.log(r)
        weight = log_z2**2
        if triple is not None:
            step = fd_step * r
            plus = a_mat - ad_h / (2 * math.log(r + step))
            minus = a_mat - ad_h / (2 * math.log(r - step))
            fd = weight * (plus - minus) / (4 * fd_step)
        if extra_terms:
            c_phi = higgs_field_part(alpha, s, triple, r, thetas, extra_terms=extra_terms)
        else:
            c_phi = s if triple is None else s - ad_y / log_z2
        tau_c = real.tau(c_phi)
        bracket = c_phi @ tau_c - tau_c @ c_phi
        worst_res = _sup_norm(ad_h - weight * bracket)
        worst_fd = _sup_norm(ad_h - fd)
        rho.append(worst_res)
        mismatch.append(worst_fd)
        if worst_fd > _FD_TOL:
            raise GridTooCoarse(
                f"finite-difference curvature off by {worst_fd:.3e} at r={r:g} "
                f"(threshold {_FD_TOL:g}); refine fd_step"
            )
    return ResidualProfile(
        radii=tuple(grid.radii), rho=tuple(rho), fd_mismatch=tuple(mismatch), fd_step=fd_step
    )


def one_radius_holonomy(
    alpha, s, triple, r: float, realization, convention="2pi_i", transport=None
) -> HolonomyReport:
    if not 0 < r < 1:
        raise ValueError("need a circle radius in (0, 1)")
    if transport is None:
        transport = circle_transport(alpha, s, triple, realization, convention=convention)
    m = 1j * math.pi / math.log(r) * transport.nilpotent
    terms = [np.eye(m.shape[0], dtype=complex)]
    for k in range(1, m.shape[0]):
        terms.append(terms[-1] @ m / k)
    numeric = transport.rotation @ sum(terms)
    return HolonomyReport(
        numeric=numeric,
        predicted_levi=transport.predicted_levi,
        predicted_full=transport.predicted_full,
        deviation_levi=hs_norm(numeric - transport.predicted_levi),
        deviation_full=hs_norm(numeric - transport.predicted_full),
        steps=0,
    )
