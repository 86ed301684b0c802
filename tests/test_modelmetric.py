"""Adapted metric, Hermite-Einstein residual, and circle holonomy checks."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from parhodge import modelmetric
from parhodge.cli import cli_dispatch
from parhodge.liealg import build_realization, hs_norm
from parhodge.modelmetric import (
    GridTooCoarse,
    IntegratorFailure,
    NotSingleValued,
    RadialGrid,
    _angular_conj,
    _rk4_holonomy,
    curvature_pair,
    higgs_field_part,
    hitchin_residual,
    holonomy_check,
    model_metric_eval,
    radial_grid,
)
from parhodge.nahodge import CommutationFailure, complete_ks_triple

E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = np.array([[0, 0], [1, 0]], dtype=complex)
Z2 = np.zeros((2, 2), dtype=complex)

SU11 = build_realization("SU(1,1)")
CUSP_TRIPLE = complete_ks_triple(SU11, E21)


# ---------------------------------------------------------------------------
# the adapted metric
# ---------------------------------------------------------------------------


def test_metric_weight_only():
    r = 0.3
    h = model_metric_eval((0.5, -0.5), Z2, r)
    assert np.allclose(h, np.diag([1 / r, r]), atol=1e-14)


def test_metric_log_factor_only():
    r = 0.3
    ell = -math.log(r**2)
    h = model_metric_eval((0, 0), np.diag([1.0, -1.0]), r)
    assert np.allclose(h, np.diag([ell, 1 / ell]), atol=1e-14)


def test_metric_single_valued():
    h1 = model_metric_eval((0.25, -0.25), Z2, (0.2, 1.0))
    h2 = model_metric_eval((0.25, -0.25), Z2, (0.2, 1.0 + 2 * math.pi))
    assert hs_norm(h1 - h2) < 1e-12
    # with a grading element along the wall weight
    h1 = model_metric_eval((0.5, -0.5), CUSP_TRIPLE.x, (0.2, 0.3))
    h2 = model_metric_eval((0.5, -0.5), CUSP_TRIPLE.x, (0.2, 0.3 + 2 * math.pi))
    assert hs_norm(h1 - h2) < 1e-12


def test_metric_positive_hermitian():
    h = model_metric_eval((0.5, -0.5), CUSP_TRIPLE.x, 0.1 + 0.2j)
    assert hs_norm(h - h.conj().T) < 1e-12
    assert np.min(np.linalg.eigvalsh(h)) > 0


def test_metric_rejects_multivalued_grading():
    with pytest.raises(NotSingleValued):
        model_metric_eval((0.25, 0.0), E12 + E21, 0.3)


def test_metric_needs_punctured_disc():
    with pytest.raises(ValueError):
        model_metric_eval((0, 0), Z2, 1.5)
    with pytest.raises(ValueError):
        model_metric_eval((0, 0), Z2, 0.0)


@settings(max_examples=25, deadline=None)
@given(
    a=st.integers(min_value=-2, max_value=2),
    b=st.integers(min_value=-2, max_value=2),
    h1=st.integers(min_value=-2, max_value=2),
    theta=st.floats(min_value=0.0, max_value=6.28),
)
def test_metric_positivity_property(a, b, h1, theta):
    alpha = (a / 4, b / 4)
    h_elem = np.diag([float(h1), -float(h1)])
    h = model_metric_eval(alpha, h_elem, (0.15, theta))
    assert hs_norm(h - h.conj().T) < 1e-10 * (1 + hs_norm(h))
    assert np.min(np.linalg.eigvalsh(h)) > 0


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_radial_grid_geometric():
    grid = radial_grid(1e-2, 1e-6, 5)
    assert grid.radii == pytest.approx((1e-2, 1e-3, 1e-4, 1e-5, 1e-6))
    assert len(grid.thetas) == 64


def test_radial_grid_invariants():
    with pytest.raises(ValueError):
        RadialGrid(radii=(1e-3, 1e-2))  # increasing
    with pytest.raises(ValueError):
        RadialGrid(radii=(0.5,), n_theta=32)  # too few angles
    with pytest.raises(ValueError):
        RadialGrid(radii=(1.5, 0.5))  # outside the disc
    with pytest.raises(ValueError):
        radial_grid(1e-6, 1e-2, 5)  # swapped bounds


# ---------------------------------------------------------------------------
# the residual profile
# ---------------------------------------------------------------------------


def test_pure_cusp_residual_is_zero():
    grid = radial_grid(1e-2, 1e-6, 5)
    prof = hitchin_residual((0, 0), Z2, CUSP_TRIPLE, grid, "SU(1,1)")
    assert max(prof.rho) < 1e-12
    assert max(prof.fd_mismatch) < 1e-5


def test_weight_only_residual_is_zero():
    # flat model: no grading element, normal s
    grid = radial_grid(1e-2, 1e-4, 3)
    s = np.array([[0, 0.2], [0.2j, 0]], dtype=complex)
    prof = hitchin_residual((0.3, 0.3), s, None, grid, "SU(1,1)")
    assert max(prof.rho) < 1e-14
    assert max(prof.fd_mismatch) == 0


def test_perturbed_cusp_residual_decreases():
    grid = radial_grid(1e-2, 1e-6, 5)
    prof = hitchin_residual(
        (0, 0), Z2, CUSP_TRIPLE, grid, "SU(1,1)", extra_terms=[(1, 0.5 * E12)]
    )
    assert all(a > b for a, b in zip(prof.rho, prof.rho[1:]))
    assert prof.rho[0] > 1e-2
    assert prof.rho[-1] < 1e-6


def test_residual_preconditions():
    grid = radial_grid(1e-2, 1e-3, 2)
    bad_s = np.array([[0, 0.2], [0.3, 0]], dtype=complex)  # |b| != |c|: not normal
    with pytest.raises(CommutationFailure):
        hitchin_residual((0, 0), bad_s, None, grid, "SU(1,1)")
    with pytest.raises(CommutationFailure):
        hitchin_residual((0.5, -0.5), E12, CUSP_TRIPLE, grid, "SU(1,1)")
    with pytest.raises(NotSingleValued):
        hitchin_residual((0.25, 0.0), Z2, CUSP_TRIPLE, grid, "SU(1,1)")
    with pytest.raises(ValueError):
        higgs_field_part((0, 0), Z2, CUSP_TRIPLE, 0.1, 0.0, extra_terms=[(0, E12)])


def test_grid_too_coarse():
    grid = radial_grid(1e-2, 1e-3, 2)
    with pytest.raises(GridTooCoarse):
        hitchin_residual((0, 0), Z2, CUSP_TRIPLE, grid, "SU(1,1)", fd_step=0.5)


def test_curvature_fd_is_second_order():
    a1, f1 = curvature_pair((0, 0), CUSP_TRIPLE, 1e-3, 0.7, fd_step=1e-3)
    a2, f2 = curvature_pair((0, 0), CUSP_TRIPLE, 1e-3, 0.7, fd_step=5e-4)
    order = math.log2(hs_norm(a1 - f1) / hs_norm(a2 - f2))
    assert abs(order - 2) < 0.05


# ---------------------------------------------------------------------------
# holonomy
# ---------------------------------------------------------------------------


def test_holonomy_weight_only_exact():
    rep = holonomy_check((0.5, -0.5), Z2, None, 1e-3, "GL(2,C)")
    assert rep.deviation_levi < 1e-10
    assert rep.deviation_full < 1e-10  # no unipotent part
    assert np.allclose(rep.numeric, -np.eye(2), atol=1e-10)


def test_holonomy_hyperbolic_exact():
    s = np.array([[0, 0.2], [0.2j, 0]], dtype=complex)
    rep = holonomy_check((0.1, 0.1), s, None, 1e-3, "SU(1,1)")
    assert rep.deviation_levi < 1e-10


def test_holonomy_rank_three_exact():
    s3 = np.diag([0.1 + 0.2j, -0.3, 0.05 - 0.1j])
    rep = holonomy_check((0.3, 0.0, -0.2), s3, None, 1e-4, "GL(3,C)")
    assert rep.deviation_levi < 1e-10


def test_holonomy_cusp_scaling():
    radii = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    devs = []
    for r in radii:
        rep = holonomy_check((0, 0), Z2, CUSP_TRIPLE, r, "SU(1,1)")
        devs.append(rep.deviation_levi)
        # the unipotent factor never converges into the numeric holonomy
        assert rep.deviation_full > 1
    assert all(a > b for a, b in zip(devs, devs[1:]))
    # deviation * |ln r| is the constant 2*pi for this instance
    consts = [d * abs(math.log(r)) for d, r in zip(devs, radii)]
    assert max(abs(c - 2 * math.pi) for c in consts) < 1e-6
    # least-squares fit of dev against 1/|ln r| explains the data
    x = np.array([1 / abs(math.log(r)) for r in radii])
    y = np.array(devs)
    c_fit = float(x @ y / (x @ x))
    ss_res = float(np.sum((y - c_fit * x) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    assert 1 - ss_res / ss_tot > 0.999


def test_holonomy_wall_weight_with_triple():
    rep = holonomy_check((0.5, -0.5), Z2, CUSP_TRIPLE, 1e-4, "SU(1,1)")
    assert abs(rep.deviation_levi * abs(math.log(1e-4)) - 2 * math.pi) < 1e-6


def test_holonomy_integrator_failure():
    with pytest.raises(IntegratorFailure):
        _rk4_holonomy((0, 0), Z2, CUSP_TRIPLE, 1e-3, "SU(1,1)", tol=1e-10, max_doublings=0)


def test_holonomy_rejects_bad_radius():
    with pytest.raises(ValueError):
        holonomy_check((0, 0), Z2, None, 2.0, "GL(2,C)")


def _unit(rng) -> complex:
    return complex(np.exp(1j * rng.uniform(0, 2 * math.pi)))


def _cusp(rng, model: str, alpha):
    """A random cusp model: s a complex scalar, y a unit-modulus multiple of E_{n1}."""
    n = len(alpha)
    y = np.zeros((n, n), dtype=complex)
    y[n - 1, 0] = _unit(rng)
    s = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)) * np.eye(n)
    return alpha, s, complete_ks_triple(build_realization(model), y), model


def _holonomy_instances(rng):
    """(alpha, s, triple, realization): diagonal GL(n,C) models for n = 2, 3,
    SU(1,1) hyperbolic models, SU(1,1) and SU(2,1) cusps, and the wall weight
    (1/2, -1/2) with a nilpotent."""
    out = []
    for n in (2, 3):
        for _ in range(10):
            alpha = tuple(rng.uniform(-0.5, 0.5, n))
            s = np.diag(rng.uniform(-0.3, 0.3, n) + 1j * rng.uniform(-0.3, 0.3, n))
            out.append((alpha, s, None, f"GL({n},C)"))
    for _ in range(5):
        a, b = rng.uniform(-0.3, 0.3), 0.3 * _unit(rng)
        s = np.array([[0, b], [abs(b) * _unit(rng), 0]])  # |b| = |c|: normal
        out.append(((a, a), s, None, "SU(1,1)"))
    for _ in range(10):
        a = rng.uniform(-0.5, 0.5)
        out.append(_cusp(rng, "SU(1,1)", (a, a)))
    for _ in range(10):
        a, b = rng.uniform(-0.5, 0.5, 2)
        alpha = (a, b, a) if rng.integers(2) else (0.5, b, -0.5)
        out.append(_cusp(rng, "SU(2,1)", alpha))
    for _ in range(10):
        out.append(_cusp(rng, "SU(1,1)", (0.5, -0.5)))
    return out


def test_closed_form_holonomy_matches_rk4_reference():
    rng = np.random.default_rng(2015)
    instances = _holonomy_instances(rng)
    assert len(instances) >= 50
    for alpha, s, triple, model in instances:
        r = 10 ** rng.uniform(-6, -2)
        report = holonomy_check(alpha, s, triple, r, model)
        reference, steps, _ = _rk4_holonomy(alpha, s, triple, r, model)
        assert report.steps == 0 < steps
        assert hs_norm(report.numeric - reference) < 1e-9, (alpha, model, r)


def test_phase_arithmetic_matches_the_expm_formulas():
    rng = np.random.default_rng(7)
    for _ in range(20):
        alpha = rng.uniform(-1, 1, 3)
        a_mat = np.diag(alpha).astype(complex)
        v = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        theta = rng.uniform(0, 2 * math.pi)
        u = expm(1j * theta * a_mat)
        assert hs_norm(_angular_conj(a_mat, theta, v) - u @ v @ np.linalg.inv(u)) < 1e-12
    # the adapted metric and the transported Higgs term, through expm of
    # the conjugated grading element; in SU(2,1), y = E31 + E32 has an H that
    # mixes two coordinates of different weight
    y21 = np.zeros((3, 3), dtype=complex)
    y21[2, :2] = 1
    models = [
        _cusp(rng, "SU(1,1)", (0.5, -0.5))[:3],
        ((0.5, -0.5, -0.5), None, complete_ks_triple(build_realization("SU(2,1)"), y21)),
    ]
    for alpha, _, triple in models:
        n = len(alpha)
        a_mat = np.diag(alpha).astype(complex)
        psi = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        zero = np.zeros((n, n), dtype=complex)
        for r, theta in ((0.3, 0.4), (1e-3, 2.5), (1e-5, 5.9)):
            u = expm(1j * theta * a_mat)
            h_theta = u @ triple.x @ np.linalg.inv(u)
            radial = expm(-math.log(r) * a_mat)
            metric = radial @ expm(math.log(-2 * math.log(r)) * h_theta) @ radial
            got = model_metric_eval(alpha, triple.x, (r, theta))
            assert hs_norm(got - metric) < 1e-12 * hs_norm(metric)
            g0 = expm(math.log(r) * a_mat) @ expm(-0.5 * math.log(-2 * math.log(r)) * h_theta)
            z = r * complex(math.cos(theta), math.sin(theta))
            want = higgs_field_part(alpha, zero, triple, r, theta) + z**2 * (
                np.linalg.inv(g0) @ psi @ g0
            )
            got = higgs_field_part(alpha, zero, triple, r, theta, extra_terms=[(2, psi)])
            assert hs_norm(got - want) < 1e-12 * hs_norm(want)


def _looped_residual(alpha, s, triple, grid, model, extra_terms, fd_step):
    """hitchin_residual evaluated one angle at a time."""
    real = build_realization(model)
    rho, mismatch = [], []
    for r in grid.radii:
        weight = (2 * math.log(r)) ** 2
        worst_res = worst_fd = 0.0
        for theta in grid.thetas:
            analytic, fd = curvature_pair(alpha, triple, r, float(theta), fd_step=fd_step)
            c_phi = higgs_field_part(alpha, s, triple, r, float(theta), extra_terms=extra_terms)
            tau_c = real.tau(c_phi)
            bracket = c_phi @ tau_c - tau_c @ c_phi
            worst_res = max(worst_res, hs_norm(weight * (r * r * analytic - bracket)))
            worst_fd = max(worst_fd, hs_norm(weight * r * r * (analytic - fd)))
        rho.append(worst_res)
        mismatch.append(worst_fd)
    return rho, mismatch


def test_batched_residual_matches_per_angle_loop():
    rng = np.random.default_rng(64)
    instances = [_cusp(rng, "SU(1,1)", (a, a)) for a in rng.uniform(-0.5, 0.5, 3)]
    instances += [_cusp(rng, "SU(1,1)", (0.5, -0.5)) for _ in range(3)]
    instances += [_cusp(rng, "SU(2,1)", (0.5, b, -0.5)) for b in rng.uniform(-0.5, 0.5, 3)]
    instances += [((0.3, 0.3), np.array([[0, 0.2], [0.2j, 0]]), None, "SU(1,1)")]
    for alpha, s, triple, model in instances:
        n = len(alpha)
        extra = [
            (k, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            for k in rng.permutation([1, 2])[: rng.integers(0, 3)]
        ]
        grid = radial_grid(10 ** rng.uniform(-2, -1), 10 ** rng.uniform(-4, -3), 3)
        fd_step = 10 ** rng.uniform(-4, -3)
        prof = hitchin_residual(alpha, s, triple, grid, model, extra_terms=extra, fd_step=fd_step)
        rho, mismatch = _looped_residual(alpha, s, triple, grid, model, extra, fd_step)
        np.testing.assert_allclose(prof.rho, rho, rtol=1e-12, atol=0)
        np.testing.assert_allclose(prof.fd_mismatch, mismatch, rtol=1e-12, atol=0)


def test_verify_model_makes_few_expm_calls_and_no_rk4(tmp_path, monkeypatch):
    calls = {"expm": 0, "rk4": 0}
    real_expm = modelmetric.expm

    def counted_expm(a):
        calls["expm"] += 1
        return real_expm(a)

    def no_rk4(*args, **kwargs):
        calls["rk4"] += 1
        raise AssertionError("verify-model reached the RK4 reference")

    monkeypatch.setattr(modelmetric, "expm", counted_expm)
    monkeypatch.setattr(modelmetric, "_rk4_circle", no_rk4)
    source = tmp_path / "cusp.json"
    source.write_text(
        json.dumps(
            {
                "realization": "SU(1,1)",
                "alpha": [0, 0],
                "y": [[0, 0], [1, 0]],
                "grid": {"r_max": 1e-2, "r_min": 1e-6, "count": 5},
            }
        )
    )
    code, report = cli_dispatch(
        ["verify-model", "--input", str(source), "--output", str(tmp_path / "out.json")]
    )
    assert code == 0, report.get("error")
    table = report["outputs"]["table"]
    assert len(table) == 5
    assert all(row["ode_steps"] == 0 for row in table)
    assert 0 < calls["expm"] <= 2 * len(table)
    assert calls["rk4"] == 0
