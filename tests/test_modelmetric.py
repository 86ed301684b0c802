"""Adapted metric, Hermite-Einstein residual, and circle holonomy checks."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from residual_oracle import looped_residual, one_radius_holonomy
from rk4_oracle import IntegratorFailure, rk4_holonomy

from parhodge import modelmetric
from parhodge.cli import cli_dispatch
from parhodge.liealg import SL2Triple, _flag_triple, build_realization, hs_norm
from parhodge.modelmetric import (
    GridTooCoarse,
    NotSingleValued,
    RadialGrid,
    _angular_conj,
    circle_transport,
    connection_angular_part,
    curvature_pair,
    higgs_field_part,
    hitchin_residual,
    holonomy_check,
    model_metric_eval,
    radial_grid,
)
from parhodge.nahodge import CommutationFailure, complete_ks_triple
from parhodge.parhiggs import alpha_matrix

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


@pytest.mark.parametrize("r_max, r_min, count", [(1e-2, 1e-300, 3), (0.5, 1e-7, 9), (1e-2, 1e-6, 5), (0.9, 0.1, 7)])
def test_radial_grid_ends_on_both_bounds(r_max, r_min, count):
    # r_max * ratio**(count - 1) can miss r_min by an ulp: 1e-300 came out as 9.999999999999999e-301
    radii = radial_grid(r_max, r_min, count).radii
    assert (radii[0], radii[-1], len(radii)) == (r_max, r_min, count)


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
        rk4_holonomy((0, 0), Z2, CUSP_TRIPLE, 1e-3, "SU(1,1)", tol=1e-10, max_doublings=0)


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
        reference, steps, _ = rk4_holonomy(alpha, s, triple, r, model)
        assert report.steps == 0 < steps
        assert hs_norm(report.numeric - reference) < 1e-9, (alpha, model, r)


def test_factorized_holonomy_matches_expm_of_the_summed_exponent():
    rng = np.random.default_rng(2015)
    for alpha, s, triple, model in _holonomy_instances(rng):
        r = 10 ** rng.uniform(-6, -2)
        real = build_realization(model)
        n_mat = np.zeros_like(s) if triple is None else triple.f - triple.x - triple.e
        exponent = -2j * math.pi * (s + real.tau(s) - n_mat / (2 * math.log(r)))
        want = np.diag(np.exp(2j * math.pi * np.array(alpha))) @ expm(exponent)
        for convention in ("2pi_i", "2pi"):  # the transport does not depend on it
            got = holonomy_check(alpha, s, triple, r, model, convention=convention).numeric
            assert hs_norm(got - want) <= 1e-12 * hs_norm(want), (alpha, model, r, convention)


def test_one_circle_transport_serves_every_radius():
    rng = np.random.default_rng(12)
    for alpha, s, triple, model in _holonomy_instances(rng):
        for convention in ("2pi_i", "2pi"):
            transport = circle_transport(alpha, s, triple, model, convention=convention)
            for r in (1e-2, 3e-4, 1e-6):
                shared = holonomy_check(alpha, s, triple, r, model, transport=transport)
                alone = holonomy_check(alpha, s, triple, r, model, convention=convention)
                for field in ("numeric", "predicted_levi", "predicted_full"):
                    assert np.array_equal(getattr(shared, field), getattr(alone, field))
                assert shared.deviation_levi == alone.deviation_levi
                assert shared.deviation_full == alone.deviation_full


def test_holonomy_refuses_an_exponent_that_does_not_split():
    # a triple conjugated by a non-unitary g is not normalized, and
    # s = lambda + E with E = g diag(0, 0, 1) g^-1 commutes with it exactly;
    # for lambda = 1e5, [s, tau(s)] = [E, -E^H] passes the normality check
    # (relative to (1 + ||s||)^2), but E - E^H does not commute with N
    g = np.array([[1, 0, 0.5], [0, 1, 0], [0.5j, 0, 1]], dtype=complex)
    g_inv = np.linalg.inv(g)
    x, e, f = (g @ np.asarray(m, dtype=complex) @ g_inv for m in (
        np.diag([1, -1, 0]), [[0, 1, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [1, 0, 0], [0, 0, 0]]
    ))
    triple = SL2Triple(x, e, f)
    s = 1e5 * np.eye(3) + g @ np.diag([0, 0, 1]) @ g_inv
    with pytest.raises(CommutationFailure, match="N = Y - H - X"):
        holonomy_check((0, 0, 0), s, triple, 1e-3, "GL(3,C)")
    with pytest.raises(CommutationFailure, match="N = Y - H - X"):
        circle_transport((0, 0, 0), s, triple, "GL(3,C)")
    # the same triple with s a multiple of the identity splits
    holonomy_check((0, 0, 0), 1e5 * np.eye(3), triple, 1e-3, "GL(3,C)")


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
    """hitchin_residual evaluated one angle at a time, with the same folded
    weight: r^2 L^2 times the analytic curvature is Ad(exp(i theta alpha)) H."""
    real = build_realization(model)
    a_mat = alpha_matrix(alpha)
    rho, mismatch = [], []
    for r in grid.radii:
        weight = (2 * math.log(r)) ** 2
        step = fd_step * r
        worst_res = worst_fd = 0.0
        for theta in grid.thetas:
            ad_h = fd = np.zeros(a_mat.shape, dtype=complex)
            if triple is not None:
                ad_h = _angular_conj(a_mat, float(theta), triple.x)
                plus = connection_angular_part(alpha, triple, r + step, float(theta))
                minus = connection_angular_part(alpha, triple, r - step, float(theta))
                fd = weight * (plus - minus) / (4 * fd_step)
            c_phi = higgs_field_part(alpha, s, triple, r, float(theta), extra_terms=extra_terms)
            tau_c = real.tau(c_phi)
            bracket = c_phi @ tau_c - tau_c @ c_phi
            worst_res = max(worst_res, hs_norm(ad_h - weight * bracket))
            worst_fd = max(worst_fd, hs_norm(ad_h - fd))
        rho.append(worst_res)
        mismatch.append(worst_fd)
    return rho, mismatch


def _unfolded_residual(alpha, s, triple, grid, model, extra_terms, fd_step):
    """The residual as it was formed before the weight was folded in: the
    curvature_pair of each angle, then the weight r^2 L^2.  Returns rho,
    fd_mismatch and the largest weighted term of each, which sets the
    rounding scale of the difference."""
    real = build_realization(model)
    rho, mismatch, size = [], [], 1.0
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
            size = max(size, hs_norm(weight * r * r * analytic), hs_norm(weight * bracket))
        rho.append(worst_res)
        mismatch.append(worst_fd)
    return rho, mismatch, size


def _residual_instances(rng):
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
        yield alpha, s, triple, grid, model, extra, fd_step


def test_batched_residual_matches_per_angle_loop():
    for case in _residual_instances(np.random.default_rng(64)):
        alpha, s, triple, grid, model, extra, fd_step = case
        prof = hitchin_residual(alpha, s, triple, grid, model, extra_terms=extra, fd_step=fd_step)
        rho, mismatch = _looped_residual(*case)
        np.testing.assert_allclose(prof.rho, rho, rtol=1e-12, atol=0)
        np.testing.assert_allclose(prof.fd_mismatch, mismatch, rtol=1e-12, atol=0)


def test_folded_residual_moves_only_at_rounding_level():
    for case in _residual_instances(np.random.default_rng(64)):
        alpha, s, triple, grid, model, extra, fd_step = case
        prof = hitchin_residual(alpha, s, triple, grid, model, extra_terms=extra, fd_step=fd_step)
        rho, mismatch, size = _unfolded_residual(*case)
        # the two orders differ by a few roundings of the largest weighted term
        atol = 16 * np.finfo(float).eps * size
        np.testing.assert_allclose(prof.rho, rho, rtol=0, atol=atol)
        np.testing.assert_allclose(prof.fd_mismatch, mismatch, rtol=0, atol=atol)


def test_verify_model_makes_few_expm_calls_and_no_rk4(tmp_path, monkeypatch):
    calls = {"expm": 0}

    def counted(exp):
        def wrapper(*args):
            calls["expm"] += 1
            return exp(*args)

        return wrapper

    # the RK4 reference lives in tests/rk4_oracle.py: no module of the library can reach it
    assert not [name for name in vars(modelmetric) if "rk4" in name.lower()]
    for name in ("_exp_hermitian", "_exp_nilpotent"):
        monkeypatch.setattr(modelmetric, name, counted(getattr(modelmetric, name)))
    source = tmp_path / "cusp.json"
    per_table = []
    for count in (3, 40):
        calls["expm"] = 0
        source.write_text(
            json.dumps(
                {
                    "realization": "SU(1,1)",
                    "alpha": [0, 0],
                    "y": [[0, 0], [1, 0]],
                    "grid": {"r_max": 1e-2, "r_min": 1e-6, "count": count},
                }
            )
        )
        code, report = cli_dispatch(
            ["verify-model", "--input", str(source), "--output", str(tmp_path / "out.json")]
        )
        assert code == 0, report.get("error")
        assert len(report["outputs"]["table"]) == count
        per_table.append(calls["expm"])
    # one stacked exp(pi i N / ln r) for the whole table, whatever its length
    assert per_table[0] > 0
    assert per_table[0] == per_table[1]


def _verify_model_table(tmp_path, payload):
    source = tmp_path / "model.json"
    source.write_text(json.dumps(payload))
    code, report = cli_dispatch(
        ["verify-model", "--input", str(source), "--output", str(tmp_path / "out.json")]
    )
    assert code == 0, report.get("error")
    return report["outputs"]["table"]


@pytest.mark.parametrize("model", ["SU(1,1)", "SU(2,1)"])
def test_verify_model_cusp_table_does_not_see_the_scale_of_y(tmp_path, monkeypatch, model):
    from parhodge import nahodge

    # complete_ks_triple runs Jacobson-Morozov from the kernel flag it has read
    calls = {"jacobson_morozov": 0}

    def counted(*args, **kwargs):
        calls["jacobson_morozov"] += 1
        return _flag_triple(*args, **kwargs)

    monkeypatch.setattr(nahodge, "_flag_triple", counted)
    n = build_realization(model).n
    grid = {"r_max": 1e-2, "r_min": 1e-6, "count": 5}  # the README cusp on SU(1,1)
    tables = []
    for c in (1, 1e200, 1e-200):
        y = [[0] * n for _ in range(n)]
        y[n - 1][0] = c
        payload = {"realization": model, "alpha": [0] * n, "y": y, "grid": grid}
        tables.append(_verify_model_table(tmp_path, payload))
    # the triple is normalized, so the tables agree up to the rounding of the
    # normalization; the closed form of the rank-one models keeps only the phase
    for table in tables[1:]:
        assert [row["r"] for row in table] == [row["r"] for row in tables[0]]
        for row, ref in zip(table, tables[0]):
            assert max(row["rho"], ref["rho"]) < 1e-14  # the pure cusp: rounding noise
            for key in ("holonomy_deviation", "holonomy_deviation_full"):
                assert row[key] == pytest.approx(ref[key], rel=1e-12)
        assert table == tables[0] or n > 2
    # the rank-one models complete their triples in closed form
    assert calls["jacobson_morozov"] == (0 if n == 2 else 3)


# ---------------------------------------------------------------------------
# the stacked tables against the per-radius oracle
# ---------------------------------------------------------------------------


def _oracle_models(rng):
    """(alpha, s, triple, realization) on SU(1,1), SL(2,R), SU(2,1), GL(2,C)
    and GL(3,C), with scalar and non-scalar alpha, with and without a triple."""
    sl2r = build_realization("SL(2,R)")
    gl3 = build_realization("GL(3,C)")
    out = []
    for _ in range(2):
        a, b = rng.uniform(-0.5, 0.5, 2)
        z, w = (complex(*rng.uniform(-0.3, 0.3, 2)) for _ in range(2))
        out += [_cusp(rng, "SU(1,1)", (a, a)), _cusp(rng, "SU(1,1)", (0.5, -0.5))]
        out += [_cusp(rng, "SU(2,1)", (a, a, a)), _cusp(rng, "SU(2,1)", (0.5, b, -0.5))]
        out += [_cusp(rng, "GL(2,C)", (a, a)), _cusp(rng, "GL(2,C)", (0.5, -0.5))]
        c = 0.3 * _unit(rng)
        out.append(((a, a), np.array([[0, c], [abs(c) * _unit(rng), 0]]), None, "SU(1,1)"))
        out.append(((a, b), np.diag([z, w]), None, "SU(1,1)"))
        # y on an eigenline of the split frame of SL(2,R), whose H is not diagonal
        line = sl2r.eigenlines[rng.integers(2)][1]
        triple = complete_ks_triple(sl2r, _unit(rng) * line)
        out += [((a, a), z * np.eye(2), triple, "SL(2,R)"), ((0.5, -0.5), z * np.eye(2), triple, "SL(2,R)")]
        for n in (2, 3):
            s = np.diag(rng.uniform(-0.3, 0.3, n) + 1j * rng.uniform(-0.3, 0.3, n))
            out += [(tuple(rng.uniform(-0.5, 0.5, n)), s, None, f"GL({n},C)"), ((a,) * n, s, None, f"GL({n},C)")]
        # a triple on the first two coordinates beside a third weight
        y = np.zeros((3, 3), dtype=complex)
        y[1, 0] = _unit(rng)
        out.append(((a, a, b), np.diag([z, z, w]), complete_ks_triple(gl3, y), "GL(3,C)"))
    return out


@pytest.mark.parametrize("pass_matrices", [4096, 128, 1])  # all radii, 2 per pass, 1 per pass
@pytest.mark.parametrize("count", [2, 3, 5, 9])
def test_stacked_tables_match_the_per_radius_oracle_bit_for_bit(monkeypatch, count, pass_matrices):
    monkeypatch.setattr(modelmetric, "_PASS_MATRICES", pass_matrices)
    rng = np.random.default_rng(2400 + count)
    seen = set()
    for alpha, s, triple, model in _oracle_models(rng):
        n = len(alpha)
        extra = [
            (int(k), rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            for k in rng.permutation([1, 2])[: rng.integers(0, 3)]
        ]
        grid = radial_grid(10 ** rng.uniform(-2, -0.5), 10 ** rng.uniform(-8, -3), count)
        fd_step = 10 ** rng.uniform(-4, -3)
        transport = circle_transport(alpha, s, triple, model) if rng.integers(2) else None
        seen.add((len(set(alpha)) == 1, triple is not None, bool(extra)))
        args = (alpha, s, triple, grid, model)
        kwargs = {"extra_terms": extra, "fd_step": fd_step, "transport": transport}
        got = hitchin_residual(*args, **kwargs)
        want = looped_residual(*args, **kwargs)
        assert got.rho == want.rho, (alpha, model)
        assert got.fd_mismatch == want.fd_mismatch, (alpha, model)
        assert got == want
        for convention in ("2pi_i", "2pi"):
            transport = circle_transport(alpha, s, triple, model, convention=convention)
            for shared in (None, transport):
                table = holonomy_check(
                    alpha, s, triple, grid.radii, model, convention=convention, transport=shared
                )
                rows = [
                    one_radius_holonomy(
                        alpha, s, triple, r, model, convention=convention, transport=shared
                    )
                    for r in grid.radii
                ]
                assert table.deviation_levi == tuple(row.deviation_levi for row in rows)
                assert table.deviation_full == tuple(row.deviation_full for row in rows)
                assert np.array_equal(table.numeric, np.stack([row.numeric for row in rows]))
                assert table.steps == 0
                # one radius gives one matrix and plain floats
                alone = holonomy_check(
                    alpha, s, triple, grid.radii[-1], model, convention=convention, transport=shared
                )
                assert alone.deviation_levi == rows[-1].deviation_levi
                assert alone.deviation_full == rows[-1].deviation_full
                assert np.array_equal(alone.numeric, rows[-1].numeric)
    # scalar and non-scalar alpha, with and without a triple, with and without corrections
    assert {(a, t) for a, t, _ in seen} == {(True, True), (True, False), (False, True), (False, False)}
    assert {e for _, _, e in seen} == {True, False}


@pytest.mark.parametrize("pass_matrices", [4096, 128])
@pytest.mark.parametrize("fd_step", [1e-10, 1e-11, 1e-12, 0.05])
def test_grid_too_coarse_is_raised_where_the_oracle_raises_it(monkeypatch, fd_step, pass_matrices):
    monkeypatch.setattr(modelmetric, "_PASS_MATRICES", pass_matrices)
    rng = np.random.default_rng(24)
    grid = radial_grid(0.5, 1e-300, 9)
    radii = []
    for alpha, s, triple, model in _oracle_models(rng):
        if triple is None:
            continue
        with pytest.raises(GridTooCoarse) as want:
            looped_residual(alpha, s, triple, grid, model, fd_step=fd_step)
        with pytest.raises(GridTooCoarse) as got:
            hitchin_residual(alpha, s, triple, grid, model, fd_step=fd_step)
        assert str(got.value) == str(want.value)
        radii.append(str(want.value).split(" at r=")[1].split(" ")[0])
    # rounding grows as r falls, so a tiny step fails first past the outer radius
    assert (radii[0] == "0.5") == (fd_step == 0.05)


def test_a_long_table_is_stacked_in_bounded_passes(monkeypatch):
    # a (radius, theta, n, n) stack over every radius at once would grow with
    # the table; a pass holds 64 radii of the default 64-angle grid
    sizes = []

    def recorded(values):
        sizes.append(len(values))
        return per_radius(values)

    per_radius = modelmetric._per_radius
    monkeypatch.setattr(modelmetric, "_per_radius", recorded)
    grid = radial_grid(1e-2, 1e-8, 200)
    triple = _cusp(np.random.default_rng(5), "SU(1,1)", (0.5, -0.5))[2]
    profile = hitchin_residual((0.5, -0.5), Z2, triple, grid, "SU(1,1)")
    assert len(profile.rho) == 200
    assert max(sizes) == 64 and sum(sizes) == 4 * 200  # weight, plus, minus, log_z2
