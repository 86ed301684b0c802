from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parhodge.degree import (
    FlagError,
    LocalSystemDegree,
    NonConvergence,
    local_system_degree,
    relative_degree,
    relative_degree_filtration,
)


def _unitary(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q @ np.diag(np.sign(np.diag(r).real + 1e-300))


def test_commuting_closed_form():
    s = np.diag([1.0, 2.0, 5.0]).astype(complex)
    sigma = np.diag([0.0, 1.0, -1.0]).astype(complex)
    res = relative_degree(s, sigma)
    assert res.method == "commuting"
    assert abs(res.value - np.trace(s @ sigma).real) < 1e-12


def test_identical_flags_pair_diagonally():
    # same eigenbasis after a unitary twist: value = sum a_i b_i exactly
    rng = np.random.default_rng(5)
    u = _unitary(rng, 3)
    a = np.array([-1.0, 0.5, 2.0])
    b = np.array([0.0, 1.0, 3.0])
    s = u @ np.diag(a) @ u.conj().T
    sigma = u @ np.diag(b) @ u.conj().T
    res = relative_degree(s, sigma)
    assert abs(res.value - float(np.dot(a, b))) < 1e-9


def test_transverse_lines_pair_to_zero():
    # weights (0,1) on two transverse lines in C^2: the pairing vanishes
    e1 = np.array([[1.0], [0.0]])
    full = np.eye(2)
    l2 = np.array([[1.0], [1.0]]) / np.sqrt(2)
    val = relative_degree_filtration([e1, full], [0.0, 1.0], [l2, full], [0.0, 1.0])
    assert abs(val) < 1e-12
    # and the numeric flow agrees
    s = np.diag([0.0, 1.0]).astype(complex)
    u = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    sigma = u @ np.diag([0.0, 1.0]).astype(complex) @ u.conj().T
    res = relative_degree(s, sigma)
    assert abs(res.value - 0.0) < 1e-7


def test_filtration_exact_fractions():
    e1 = [[Q(1)], [Q(0)]]
    full = [[Q(1), Q(0)], [Q(0), Q(1)]]
    val = relative_degree_filtration(
        [e1, full], [Q(-1, 2), Q(1, 2)], [e1, full], [Q(1), Q(0)]
    )
    assert val == Q(-1, 2)
    assert isinstance(val, Q)


def test_flag_validation_errors():
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    full = np.eye(2)
    with pytest.raises(FlagError):
        relative_degree_filtration([e1], [1.0], [e1, full], [1.0, 0.0])  # not full
    with pytest.raises(FlagError):
        # second step does not contain the first
        relative_degree_filtration(
            [e1, np.hstack([e2, e2])], [0.0, 1.0], [e1, full], [0.0, 1.0]
        )
    with pytest.raises(FlagError):
        relative_degree_filtration([e1, full], [0.0], [e1, full], [0.0, 1.0])


def test_numeric_matches_filtration_random_gl3():
    rng = np.random.default_rng(42)
    for _ in range(5):
        n = 3
        ua, ub = _unitary(rng, n), _unitary(rng, n)
        a = np.sort(rng.standard_normal(n))
        b = np.sort(rng.standard_normal(n))
        s = ua @ np.diag(a) @ ua.conj().T
        sigma = ub @ np.diag(b) @ ub.conj().T
        flag_a = [ua[:, : k + 1] for k in range(n)]
        flag_b = [ub[:, : k + 1] for k in range(n)]
        exact = relative_degree_filtration(flag_a, list(a), flag_b, list(b))
        res = relative_degree(s, sigma)
        assert abs(res.value - exact) < 1e-6


def test_t_trace_monotone_nonincreasing():
    rng = np.random.default_rng(9)
    u = _unitary(rng, 3)
    s = np.diag([0.0, 1.0, 2.0]).astype(complex)
    sigma = u @ np.diag([-1.0, 0.0, 1.0]).astype(complex) @ u.conj().T
    res = relative_degree(s, sigma)
    vals = [v for _, v in res.t_trace]
    assert all(vals[i + 1] <= vals[i] + 1e-9 for i in range(len(vals) - 1))


def test_local_system_degree_commuting():
    beta = np.diag([1.0, -1.0]).astype(complex)
    s = np.diag([1.0, -1.0]).astype(complex)
    out = local_system_degree([beta, beta], s, zeta=None)
    assert isinstance(out, LocalSystemDegree)
    assert abs(out.value - (-4.0)) < 1e-12
    zeta = np.eye(2, dtype=complex)
    assert abs(local_system_degree([beta], s, zeta=zeta).slope - (-2.0)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_reciprocity_random(seed):
    # mu_s(sigma) = mu_sigma(s) for Hermitian pairs
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    ua, ub = _unitary(rng, n), _unitary(rng, n)
    s = ua @ np.diag(np.sort(rng.standard_normal(n))) @ ua.conj().T
    sigma = ub @ np.diag(np.sort(rng.standard_normal(n))) @ ub.conj().T
    v1 = relative_degree(s, sigma).value
    v2 = relative_degree(sigma, s).value
    assert abs(v1 - v2) < 1e-6


# --------------------------------------------------------------------------
# the flow against its earlier form, which rescaled every column in log space
# --------------------------------------------------------------------------


def _log_scaled_relative_degree(s, sigma, tol=1e-9):
    """relative_degree as it was before the column rescaling was dropped:
    (value, trace length, method, converged), or NonConvergence."""
    s = np.asarray(s, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    n = s.shape[0]
    scale = (1 + np.linalg.norm(s)) * (1 + np.linalg.norm(sigma))
    if np.linalg.norm(s @ sigma - sigma @ s) <= 1e-12 * scale:
        return float(np.trace(s @ sigma).real), 1, "commuting", True
    lam, v_sig = np.linalg.eigh(sigma)
    d, u_s = np.linalg.eigh(s)
    ds = np.diag(d).astype(complex)

    def flow_qr(frame, dt):
        y_all = v_sig.conj().T @ frame
        cols = []
        for j in range(n):
            y = y_all[:, j]
            mags = np.abs(y)
            expo = np.where(mags > 0, dt * lam + np.log(np.maximum(mags, 1e-300)), -np.inf)
            cols.append(v_sig @ (y * np.exp(dt * lam - np.max(expo))))
        return np.linalg.qr(np.stack(cols, axis=1))[0]

    dt_cap = 15.0 / max(float(lam[-1] - lam[0]), 1e-12)
    trace = []
    prev = None
    frame = u_s
    t = 0.0
    dt = min(1.0, dt_cap)
    for _ in range(4096):
        frame = flow_qr(frame, dt)
        t += dt
        val = float(np.trace(frame @ ds @ frame.conj().T @ sigma).real)
        trace.append((t, val))
        if prev is not None and abs(val - prev) < tol:
            return val, len(trace), "qr_flow", True
        prev = val
        dt = min(2.0 * dt, dt_cap)
        if t > 2.0**20:
            break
    raise NonConvergence(trace)


def _unit_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = (a + a.conj().T) / 2
    return m / np.linalg.norm(m)


def _assert_matches_log_scaled(s, sigma):
    res = relative_degree(s, sigma)
    value, length, method, converged = _log_scaled_relative_degree(s, sigma)
    assert abs(res.value - value) <= 1e-12
    assert (len(res.t_trace), res.method, res.converged) == (length, method, converged)


def test_flow_matches_log_scaled_flow_on_random_unit_pairs():
    rng = np.random.default_rng(8)
    pairs = 0
    for n, count in ((2, 60), (3, 60), (4, 40), (8, 20), (16, 12), (32, 8)):
        for _ in range(count):
            _assert_matches_log_scaled(_unit_hermitian(rng, n), _unit_hermitian(rng, n))
            pairs += 1
    assert pairs >= 200


@pytest.mark.parametrize("n", [3, 4, 8])
def test_flow_matches_log_scaled_flow_on_repeated_eigenvalues(n):
    rng = np.random.default_rng(n)
    for _ in range(10):
        u = _unitary(rng, n)
        # one eigenvalue of multiplicity n - 1, then two of multiplicity n / 2
        for weights in ([0.0] * (n - 1) + [1.0], [-1.0] * (n // 2) + [1.0] * (n - n // 2)):
            sigma = u @ np.diag(weights).astype(complex) @ u.conj().T
            s = _unit_hermitian(rng, n)
            _assert_matches_log_scaled(s, sigma)
            _assert_matches_log_scaled(sigma, s)


@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9, 1e-11])
def test_flow_matches_log_scaled_flow_on_nearly_commuting_pairs(eps):
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        for _ in range(5):
            u = _unitary(rng, n)
            a = np.sort(rng.standard_normal(n))
            b = np.sort(rng.standard_normal(n))
            tilt = u @ (np.eye(n) + 1j * eps * _unit_hermitian(rng, n))
            tilt, _ = np.linalg.qr(tilt)
            s = u @ np.diag(a).astype(complex) @ u.conj().T
            sigma = tilt @ np.diag(b).astype(complex) @ tilt.conj().T
            _assert_matches_log_scaled(s, sigma)


def test_flow_and_log_scaled_flow_both_give_up_at_zero_tolerance():
    rng = np.random.default_rng(12)
    s, sigma = _unit_hermitian(rng, 3), _unit_hermitian(rng, 3)
    with pytest.raises(NonConvergence) as new:
        relative_degree(s, sigma, tol=0)
    with pytest.raises(NonConvergence) as old:
        _log_scaled_relative_degree(s, sigma, tol=0)
    assert len(new.value.trace) == len(old.value.trace)
    assert max(abs(a[1] - b[1]) for a, b in zip(new.value.trace, old.value.trace)) <= 1e-12
