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
