import itertools
import json
import tracemalloc
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parhodge import cli, degree
from parhodge.cli import cli_dispatch
from parhodge.degree import (
    FlagError,
    LocalSystemDegree,
    NonConvergence,
    local_system_degree,
    relative_degree,
    relative_degree_filtration,
    relative_position,
    relative_positions,
)
from parhodge.liealg import build_realization
from bruhat_oracle import looped_position
from flow_oracle import relative_degree_one
from sweep_oracle import _sample_hermitian_pair, looped_sweep


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
    (value, trace length, method), or NonConvergence."""
    s = np.asarray(s, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    n = s.shape[0]
    scale = (1 + np.linalg.norm(s)) * (1 + np.linalg.norm(sigma))
    if np.linalg.norm(s @ sigma - sigma @ s) <= 1e-12 * scale:
        return float(np.trace(s @ sigma).real), 1, "commuting"
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
            return val, len(trace), "qr_flow"
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
    value, length, method = _log_scaled_relative_degree(s, sigma)
    assert abs(res.value - value) <= 1e-12
    assert (len(res.t_trace), res.method) == (length, method)


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


def test_flow_and_log_scaled_flow_both_give_up_at_zero_tolerance(monkeypatch):
    rng = np.random.default_rng(12)
    s, sigma = _unit_hermitian(rng, 3), _unit_hermitian(rng, 3)
    monkeypatch.setattr(degree, "_SETTLE_TOL", 0)
    with pytest.raises(NonConvergence) as new:
        relative_degree(s, sigma)
    with pytest.raises(NonConvergence) as old:
        _log_scaled_relative_degree(s, sigma, tol=0)
    assert len(new.value.trace) == len(old.value.trace)
    assert max(abs(a[1] - b[1]) for a, b in zip(new.value.trace, old.value.trace)) <= 1e-12


# --------------------------------------------------------------------------
# the flow in the eigenbasis of sigma against its form in the standard basis
# --------------------------------------------------------------------------


def _standard_frame_relative_degree(s, sigma, tol=1e-9):
    """relative_degree as it was before the flow moved into the eigenbasis of
    sigma: the frame in the standard basis, two v_sig products and a
    three-product trace per step.  (trace, method), or NonConvergence."""
    s = np.asarray(s, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    scale = (1 + np.linalg.norm(s)) * (1 + np.linalg.norm(sigma))
    if np.linalg.norm(s @ sigma - sigma @ s) <= 1e-12 * scale:
        return ((0.0, float(np.trace(s @ sigma).real)),), "commuting"
    lam, v_sig = np.linalg.eigh(sigma)
    d, u_s = np.linalg.eigh(s)
    ds = np.diag(d).astype(complex)
    dt_cap = 15.0 / max(float(lam[-1] - lam[0]), 1e-12)
    trace = []
    prev = None
    frame = u_s
    t = 0.0
    dt = min(1.0, dt_cap)
    for _ in range(4096):
        grow = np.exp(dt * (lam - lam[-1]))[:, None]
        frame, _ = np.linalg.qr(v_sig @ (grow * (v_sig.conj().T @ frame)))
        t += dt
        val = float(np.trace(frame @ ds @ frame.conj().T @ sigma).real)
        trace.append((t, val))
        if prev is not None and abs(val - prev) < tol:
            return tuple(trace), "qr_flow"
        prev = val
        dt = min(2.0 * dt, dt_cap)
        if t > 2.0**20:
            break
    raise NonConvergence(trace)


def test_eigenbasis_flow_matches_the_standard_frame_flow():
    rng = np.random.default_rng(13)
    pairs = 0
    for n, count in ((2, 40), (3, 40), (4, 30), (8, 20), (16, 10), (32, 6)):
        for _ in range(count):
            s, sigma = _unit_hermitian(rng, n), _unit_hermitian(rng, n)
            res = relative_degree(s, sigma)
            trace, method = _standard_frame_relative_degree(s, sigma)
            assert (len(res.t_trace), res.method) == (len(trace), method)
            assert max(abs(a[1] - b[1]) for a, b in zip(res.t_trace, trace)) <= 1e-12
            assert [a[0] for a in res.t_trace] == [b[0] for b in trace]
            pairs += 1
    assert pairs >= 140


# --------------------------------------------------------------------------
# the relative position kernel against the filtration pairing
# --------------------------------------------------------------------------


def _flag(basis):
    """The increasing flag spanned by the leading columns of a basis."""
    return [basis[:, : k + 1] for k in range(basis.shape[1])]


def _planted_pair(rng, w, d, lam):
    """s = diag(d) and sigma = Q^H diag(lam) Q with Q from the QR of B P_w, B
    upper triangular: M = V_sigma^H U_s = Q lies in the Bruhat cell B P_w B, so
    the i-th eigenvector of s reaches the sigma-eigenvector w[i] and no higher.
    (The QR of P_w B would give a monomial Q, hence a commuting pair.)"""
    n = len(w)
    p_w = np.zeros((n, n))
    p_w[list(w), range(n)] = 1
    b = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    q, _ = np.linalg.qr(b @ p_w)
    return np.diag(d).astype(complex), q.conj().T @ np.diag(lam) @ q, q.conj().T


@pytest.mark.parametrize("n", [2, 3, 4])
def test_position_matches_filtration_in_every_bruhat_cell(n):
    rng = np.random.default_rng(100 + n)
    for w in itertools.permutations(range(n)):
        for _ in range(4):
            d = np.sort(rng.standard_normal(n))
            lam = np.sort(rng.standard_normal(n))
            s, sigma, v_sigma = _planted_pair(rng, w, d, lam)
            result = relative_position(s, sigma)
            exact = relative_degree_filtration(_flag(np.eye(n)), list(d), _flag(v_sigma), list(lam))
            assert abs(result.value - exact) <= 1e-9
            assert result.value == pytest.approx(float(d @ lam[list(w)]), abs=1e-12)
            if w == tuple(range(n)):  # the unitary part of B is diagonal: the flags agree
                assert result.method == "commuting"
                continue
            assert result.method == "bruhat relative position"
            assert result.permutation == w
            assert 1e-9 < result.min_pivot_ratio <= 1


@pytest.mark.parametrize("n", [3, 4])
def test_position_matches_filtration_with_repeated_eigenvalues(n):
    # only the value is determined when a spectrum repeats: the complete flags
    # eigh returns are one choice among many
    rng = np.random.default_rng(200 + n)
    for w in itertools.permutations(range(n)):
        d = np.array([-1.0] * (n - 1) + [2.0])
        lam = np.array([0.5] * (n // 2) + [1.5] * (n - n // 2))
        s, sigma, v_sigma = _planted_pair(rng, w, d, lam)
        result = relative_position(s, sigma)
        exact = relative_degree_filtration(_flag(np.eye(n)), list(d), _flag(v_sigma), list(lam))
        assert abs(result.value - exact) <= 1e-9


def test_position_commuting_pair_takes_no_elimination():
    result = relative_position(np.diag([1.0, 2.0]), np.diag([0.0, 3.0]))
    assert (result.value, result.permutation, result.min_pivot_ratio, result.method) == (
        6.0,
        None,
        None,
        "commuting",
    )


def test_position_refuses_non_hermitian_input():
    with pytest.raises(ValueError, match="sigma must be Hermitian"):
        relative_position(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_position_agrees_with_the_flow_on_random_pairs():
    rng = np.random.default_rng(21)
    for n in (2, 3, 5, 8, 16, 32):
        for _ in range(6):
            s, sigma = _unit_hermitian(rng, n), _unit_hermitian(rng, n)
            forward = relative_position(s, sigma)
            assert sorted(forward.permutation) == list(range(n))
            assert abs(forward.value - relative_degree(s, sigma).value) <= 1e-7
            assert abs(forward.value - relative_position(sigma, s).value) <= 1e-12


# --------------------------------------------------------------------------
# pair mode of degree-relative: the two families the flow gets wrong
# --------------------------------------------------------------------------


def _cmat(m):
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def _pair_report(tmp_path, s, sigma, *extra):
    source = tmp_path / "pair.json"
    source.write_text(json.dumps({"s": _cmat(s), "sigma": _cmat(sigma)}))
    return cli_dispatch(
        ["degree-relative", "--input", str(source), "--output", str(tmp_path / "out.json"), *extra]
    )


def _shared_eigenvector_pair(rng, n):
    """s and sigma with one common eigenvector, otherwise in general position:
    (s, sigma, eigenbasis of s, eigenbasis of sigma, d, lam)."""
    u_s = _unitary(rng, n)
    k, j = rng.integers(n, size=2)
    rest = _unitary(rng, n - 1)
    # the other sigma-eigenvectors: a random basis of the complement of u_s[:, k]
    others = np.delete(u_s, k, axis=1) @ rest
    v_sigma = np.insert(others, j, u_s[:, k], axis=1)
    d = np.sort(rng.standard_normal(n))
    lam = np.sort(rng.standard_normal(n))
    s = u_s @ np.diag(d) @ u_s.conj().T
    sigma = v_sigma @ np.diag(lam) @ v_sigma.conj().T
    return (s + s.conj().T) / 2, (sigma + sigma.conj().T) / 2, u_s, v_sigma, d, lam


@pytest.mark.parametrize("n", [4, 8, 32])
def test_pair_mode_is_exact_on_a_shared_eigenvector(tmp_path, n):
    rng = np.random.default_rng(300 + n)
    for _ in range(3 if n == 32 else 10):
        s, sigma, u_s, v_sigma, d, lam = _shared_eigenvector_pair(rng, n)
        code, report = _pair_report(tmp_path, s, sigma)
        assert code == 0, report.get("error")
        exact = relative_degree_filtration(_flag(u_s), list(d), _flag(v_sigma), list(lam))
        assert abs(report["outputs"]["value"]["value"] - exact) <= 1e-9


@pytest.mark.parametrize("n", [4, 8])
def test_local_system_degree_is_exact_on_a_shared_eigenvector(n):
    rng = np.random.default_rng(500 + n)
    for _ in range(10):
        beta, s, u_beta, v_s, d, lam = _shared_eigenvector_pair(rng, n)
        exact = relative_degree_filtration(_flag(u_beta), list(d), _flag(v_s), list(lam))
        out = local_system_degree([beta], s)
        assert abs(out.value + exact) <= 1e-9


def test_pair_mode_decides_close_sigma_eigenvalues(tmp_path):
    rng = np.random.default_rng(17)
    lam = [0.0, 1e-5, 1.0]
    for _ in range(200):
        u_s, v_sigma = _unitary(rng, 3), _unitary(rng, 3)
        d = np.sort(rng.standard_normal(3))
        s = u_s @ np.diag(d) @ u_s.conj().T
        sigma = v_sigma @ np.diag(lam) @ v_sigma.conj().T
        code, report = _pair_report(tmp_path, (s + s.conj().T) / 2, (sigma + sigma.conj().T) / 2)
        assert code == 0, report.get("error")
        exact = relative_degree_filtration(_flag(u_s), list(d), _flag(v_sigma), lam)
        assert abs(report["outputs"]["value"]["value"] - exact) <= 1e-9


def test_pair_report_fields_and_tolerance(tmp_path):
    rng = np.random.default_rng(5)
    s, sigma = _unit_hermitian(rng, 4), _unit_hermitian(rng, 4)
    code, report = _pair_report(tmp_path, s, sigma)
    assert code == 0
    outputs = report["outputs"]
    assert set(outputs) == {"value", "converged", "permutation", "min_pivot_ratio"}
    assert outputs["converged"] is True
    assert outputs["value"]["method"] == "bruhat relative position"
    assert sorted(outputs["permutation"]) == [0, 1, 2, 3]
    # a cutoff above the smallest pivot ratio moves that pivot to another row
    ratio = outputs["min_pivot_ratio"]["value"]
    code, strict = _pair_report(tmp_path, s, sigma, f"--tolerance={ratio * 1.01}")
    assert code == 0
    assert strict["outputs"]["permutation"] != outputs["permutation"]
    assert strict["outputs"]["min_pivot_ratio"]["value"] > ratio


@pytest.mark.parametrize(
    "mode, tol",
    [
        pytest.param("pair", "0.9", id="0.9"),
        pytest.param("pair", "1", id="1"),
        pytest.param("pair", "1e300", id="1e300"),
        # the sample sweep reads the same cutoff, in both orders of every pair
        pytest.param("sample", "1", id="sample-1"),
    ],
)
def test_pair_mode_refuses_a_cutoff_no_entry_clears(tmp_path, mode, tol):
    if mode == "pair":
        rng = np.random.default_rng(6)
        code, report = _pair_report(tmp_path, _unit_hermitian(rng, 2), _unit_hermitian(rng, 2), f"--tolerance={tol}")
    else:
        source = tmp_path / "sample.json"
        source.write_text(json.dumps({"sample": {"model": "GL(2,C)", "count": 3}}))
        code, report = cli_dispatch(
            ["degree-relative", "--input", str(source), "--output", str(tmp_path / "out.json"), f"--tolerance={tol}"]
        )
    assert code == 3
    assert report["error"]["type"] == "ValueError"
    assert "exceeds tol * ||column||" in report["error"]["message"]


# --------------------------------------------------------------------------
# which kernel each mode reaches
# --------------------------------------------------------------------------


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(degree, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(degree, name, counted)
    return calls


def test_pair_mode_runs_the_position_kernel_and_no_flow(tmp_path, monkeypatch):
    flows = _count_calls(monkeypatch, "relative_degree")
    positions = _count_calls(monkeypatch, "relative_position")
    rng = np.random.default_rng(9)
    code, _ = _pair_report(tmp_path, _unit_hermitian(rng, 8), _unit_hermitian(rng, 8))
    assert code == 0
    assert (len(flows), len(positions)) == (0, 1)


def test_sample_mode_reads_the_position_in_both_orders_and_runs_no_flow(tmp_path, monkeypatch):
    flows = _count_calls(monkeypatch, "relative_degree")
    positions = _count_calls(monkeypatch, "relative_position")
    stacked = []  # (forward, backward) positions returned by each stacked call
    original = degree.relative_positions

    def counted(*args, **kwargs):
        out = original(*args, **kwargs)
        stacked.append(tuple(map(len, out)))
        return out

    monkeypatch.setattr(degree, "relative_positions", counted)
    source = tmp_path / "sample.json"
    source.write_text(json.dumps({"sample": {"model": "GL(3,C)", "count": 7}}))
    code, _ = cli_dispatch(["degree-relative", "--input", str(source), "--output", str(tmp_path / "out.json")])
    assert code == 0
    # one stacked pass reads the 7 pairs in both orders; the per-pair kernel is pair mode's
    assert (len(flows), len(positions), stacked) == (0, 0, [(7, 7)])


# --------------------------------------------------------------------------
# the flow against the single-pair oracle
# --------------------------------------------------------------------------


def _mixed_stack(rng, n, k):
    """k pairs of n x n Hermitian matrices: random pairs, commuting pairs and
    pairs with near-degenerate spectra, in random order."""
    s, sigma = [], []
    for _ in range(k):
        kind = rng.integers(0, 3)
        if kind == 0:
            a, b = _unit_hermitian(rng, n), _unit_hermitian(rng, n)
        elif kind == 1:  # one eigenbasis: a commuting pair
            u = _unitary(rng, n)
            a = u @ np.diag(rng.standard_normal(n)) @ u.conj().T
            b = u @ np.diag(rng.standard_normal(n)) @ u.conj().T
        else:  # eigenvalues that coincide or differ by ~1e-9
            close = np.sort(rng.standard_normal(n))
            close[1:] = np.where(rng.random(n - 1) < 0.5, close[:-1], close[:-1] + 1e-9)
            u = _unitary(rng, n)
            a = u @ np.diag(close) @ u.conj().T
            b = _unit_hermitian(rng, n)
            if rng.random() < 0.5:
                a, b = b, a
        s.append(a)
        sigma.append(b)
    return np.array(s), np.array(sigma)


def _outcome(call):
    """A result's fields, or an error's type, message and trace."""
    try:
        result = call()
    except (NonConvergence, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "trace", None)
    return result.value, result.t_trace, result.method


@pytest.mark.parametrize("tol", [None, 1e-6, 1e-12, 0])
def test_flow_matches_the_single_pair_oracle_bit_for_bit(monkeypatch, tol):
    # at tol 0 no flow settles: every non-commuting pair fails with NonConvergence
    if tol is not None:
        monkeypatch.setattr(degree, "_SETTLE_TOL", tol)
    kwargs = {} if tol is None else {"tol": tol}
    # a flow that never settles runs its 4096 steps: fewer and shorter stacks at tol 0
    stacks, size = (6, 12) if tol != 0 else (1, 4)
    rng = np.random.default_rng(21)
    kinds = set()
    made = 0
    for n in range(1, 9):
        for _ in range(stacks):
            s, sigma = _mixed_stack(rng, n, int(rng.integers(1, size)))
            made += 1
            # a non-Hermitian side, on either side, in every third stack
            if n > 1 and made % 3 == 0:
                s[0] = s[0] + np.triu(np.ones((n, n)), 1)
                sigma[-1] = sigma[-1] + 0.1j * np.eye(n)
            for a, b in zip(s, sigma):
                got = _outcome(lambda: relative_degree(a, b))
                want = _outcome(lambda: relative_degree_one(a, b, **kwargs))
                assert got == want
                kinds.add(got[2] if isinstance(got[2], str) else got[0].__name__)
    expected = {"commuting", "ValueError"} | ({"NonConvergence"} if tol == 0 else {"qr_flow"})
    assert kinds == expected


def _sample_report(tmp_path, count, seed, *extra, model="GL(2,C)"):
    source = tmp_path / "sample.json"
    source.write_text(json.dumps({"sample": {"model": model, "count": count}}))
    target = tmp_path / "out.json"
    code, report = cli_dispatch(
        ["degree-relative", "--input", str(source), "--output", str(target), "--seed", str(seed), *extra]
    )
    assert code == 0
    return target.read_bytes(), report["outputs"]["max_reciprocity_gap"]["value"]


@pytest.mark.parametrize("count", [1, 7, 130])
@pytest.mark.parametrize("tol", [None, 1e-6])
def test_sample_report_is_byte_identical_to_the_oracle_sweep(tmp_path, count, tol):
    extra = () if tol is None else (f"--tolerance={tol}",)
    text, gap = _sample_report(tmp_path, count, 31, *extra)
    # the test-side loop draws the same pairs and takes the same maximum
    rng = np.random.default_rng(31)
    want, _, _ = looped_sweep(build_realization("GL(2,C)"), count, rng, **({} if tol is None else {"tol": tol}))
    assert gap == want
    assert json.loads(text)["outputs"] == {
        "model": "GL(2,C)",
        "count": count,
        "max_reciprocity_gap": {"value": want, "method": "bruhat relative position, both orders"},
    }
    assert f'"value": {want!r}'.encode() in text


def _sweep_peak(tmp_path, model, count):
    _sample_report(tmp_path, 1, 0, model=model)  # warm: parser, imports, caches
    tracemalloc.start()
    try:
        _sample_report(tmp_path, count, 0, model=model)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sample_sweep_memory_does_not_grow_with_count(tmp_path):
    small, large = _sweep_peak(tmp_path, "GL(2,C)", 100), _sweep_peak(tmp_path, "GL(2,C)", 1000)
    # the sweep holds one pass of drawn pairs at a time, whatever the count
    assert large <= 1.25 * small + 32 * 1024, (small, large)


def test_sample_sweep_memory_at_the_size_and_count_bounds(tmp_path):
    # GL(16,C) at count 10000: without passes the stacks would hold every pair
    small, large = _sweep_peak(tmp_path, "GL(16,C)", 100), _sweep_peak(tmp_path, "GL(16,C)", 10_000)
    assert large <= 1.25 * small + 32 * 1024, (small, large)


# --------------------------------------------------------------------------
# the stacked sweep against the per-pair loop
# --------------------------------------------------------------------------

SWEEP_MODELS = ["GL(1,C)", "U(1)", "GL(2,C)", "SU(1,1)", "SL(2,R)", "SU(2,1)", "GL(8,C)", "SU(8,8)", "GL(16,C)"]


def _stacked_sweep(real, count, rng, tol=1e-9):
    """(max gap, forward positions, backward positions, pass sizes) of the
    CLI's sweep: its draws, fed to the stacked kernel pass by pass."""
    worst, forwards, backwards, sizes = 0.0, [], [], []
    for s, sigma in cli._sampled_pairs(real.n, rng, count):
        forward, backward = relative_positions(s, sigma, tol)
        worst = max([worst] + [abs(f.value - b.value) for f, b in zip(forward, backward)])
        forwards += forward
        backwards += backward
        sizes.append(len(s))
    return worst, forwards, backwards, sizes


@pytest.mark.parametrize("model", SWEEP_MODELS)
@pytest.mark.parametrize(
    "pass_pairs, counts",
    [(None, (1, 10, 63, 64, 65)), (7, (1, 6, 7, 8, 15)), (1, (1, 2, 3))],
    ids=["default-pass", "pass-7", "pass-1"],
)
def test_stacked_sweep_matches_the_per_pair_loop_bit_for_bit(tmp_path, monkeypatch, model, pass_pairs, counts):
    if pass_pairs is not None:
        monkeypatch.setattr(cli, "_PASS_PAIRS", pass_pairs)
    size = cli._PASS_PAIRS
    real = build_realization(model)
    for count in counts:
        seed = 2700 + count
        gap, forwards, backwards, sizes = _stacked_sweep(real, count, np.random.default_rng(seed))
        want_gap, want_forwards, want_backwards = looped_sweep(real, count, np.random.default_rng(seed))
        assert sizes == [size] * (count // size) + [count % size] * bool(count % size)
        # value, permutation, min_pivot_ratio and method of every pair, in both orders
        assert forwards == want_forwards
        assert backwards == want_backwards
        assert gap == want_gap
        _, reported = _sample_report(tmp_path, count, seed, model=model)
        assert reported == want_gap
        commuting = {p.method == "commuting" for p in forwards + backwards}
        assert commuting == {real.n == 1}  # GL(1,C) and U(1): every pair commutes


def _looped_positions(s, sigma, tol):
    """relative_position in both orders of each pair, one at a time: the
    positions, or the first ValueError's message."""
    out = ([], [])
    try:
        for a, b in zip(s, sigma):
            out[0].append(relative_position(a, b, tol))
            out[1].append(relative_position(b, a, tol))
    except ValueError as exc:
        return str(exc)
    return out


@pytest.mark.parametrize("tol", [1e-9, 1e-6, 0.75])
def test_stacked_positions_match_the_single_pair_kernel_bit_for_bit(tol):
    # random, commuting and near-degenerate pairs, a non-Hermitian side in
    # every third stack, and at 0.75 pivots that some columns refuse
    rng = np.random.default_rng(27)
    kinds = set()
    for made, n in enumerate(list(range(1, 9)) * 5):
        s, sigma = _mixed_stack(rng, n, int(rng.integers(1, 12)))
        if n > 1 and made % 3 == 0:
            at = int(rng.integers(len(s)))
            (s if rng.random() < 0.5 else sigma)[at] += np.triu(np.ones((n, n)), 1)
        want = _looped_positions(s, sigma, tol)
        try:
            got = relative_positions(s, sigma, tol)
        except ValueError as exc:
            got = str(exc)
        assert got == want
        if isinstance(got, str):
            kinds.add(got.split(" ")[0] if "Hermitian" in got else "refused")
        else:
            kinds.update(p.method for p in got[0] + got[1])
    assert {"commuting", "bruhat relative position"} <= kinds
    assert ("s" in kinds and "sigma" in kinds) or tol == 0.75
    assert ("refused" in kinds) == (tol == 0.75)


def _near_cut_pair(rng, n):
    """A diagonal s and a sigma whose eigenbasis is the identity moved by
    about 1e-9: the off-diagonal entries of V_sigma^H U_s sit near the cutoff."""
    v, _ = np.linalg.qr(np.eye(n) + 1e-9 * rng.uniform(0.3, 3.0) * _unitary(rng, n))
    s = np.diag(np.sort(rng.standard_normal(n))).astype(complex)
    return s, v @ np.diag(np.sort(rng.standard_normal(n))) @ v.conj().T


def _bits(call):
    """A position with its floats as hex, or the message of its ValueError."""
    try:
        p = call()
    except ValueError as exc:
        return str(exc)
    ratio = None if p.min_pivot_ratio is None else p.min_pivot_ratio.hex()
    return p.value.hex(), p.permutation, ratio, p.method


@pytest.mark.parametrize("tol", [1e-9, 1e-6, 0.75])
def test_position_matches_the_column_loop_bit_for_bit(tol):
    # random, commuting, repeated or near-degenerate spectra and pivots near
    # the cutoff, in both orders, for n up to 32
    rng = np.random.default_rng(28)
    kinds = set()
    for n in (1, 2, 3, 4, 5, 8, 16, 31, 32):
        s, sigma = _mixed_stack(rng, n, 6)
        repeated = np.repeat(rng.standard_normal((n + 1) // 2), 2)[:n]
        u = _unitary(rng, n)
        pairs = [*zip(s, sigma), (u @ np.diag(repeated) @ u.conj().T, _unit_hermitian(rng, n))]
        pairs += [_near_cut_pair(rng, n) for _ in range(3)]
        for a, b in pairs:
            for x, y in ((a, b), (b, a)):
                got = _bits(lambda: relative_position(x, y, tol))
                assert got == _bits(lambda: looped_position(x, y, tol))
                kinds.add("refused" if isinstance(got, str) else got[3])
    assert {"commuting", "bruhat relative position"} <= kinds
    assert ("refused" in kinds) == (tol == 0.75)


def _refusals(real, count, seed, tol):
    """Every (pair, order, message) the per-pair loop refuses, read past the
    first refusal."""
    rng = np.random.default_rng(seed)
    out = []
    for j in range(count):
        s, sigma = _sample_hermitian_pair(real, rng)
        for order, (a, b) in enumerate(((s, sigma), (sigma, s))):
            try:
                relative_position(a, b, tol)
            except ValueError as exc:
                out.append((j, order, str(exc)))
    return out


@pytest.mark.parametrize("pass_pairs", [None, 7, 1])
def test_a_refused_cutoff_reports_the_first_pair_the_loop_refuses(tmp_path, monkeypatch, pass_pairs):
    if pass_pairs is not None:
        monkeypatch.setattr(cli, "_PASS_PAIRS", pass_pairs)
    real = build_realization("GL(3,C)")
    telling = 0  # cases where a later refusal's message differs from the first one's
    for tol in (0.75, 0.8):
        for seed in range(12):
            refusals = _refusals(real, 10, seed, tol)
            if not refusals:
                continue
            with pytest.raises(ValueError) as caught:
                looped_sweep(real, 10, np.random.default_rng(seed), tol)
            assert str(caught.value) == refusals[0][2]
            telling += any(message != refusals[0][2] for _, _, message in refusals)
            source = tmp_path / "sample.json"
            source.write_text(json.dumps({"sample": {"model": "GL(3,C)", "count": 10}}))
            code, report = cli_dispatch(
                ["degree-relative", "--input", str(source), "--output", str(tmp_path / "out.json"),
                 "--seed", str(seed), f"--tolerance={tol}"]
            )
            assert code == 3
            assert report["error"] == {"type": "ValueError", "message": refusals[0][2]}
    assert telling >= 3


class _Zeroed:
    """A generator whose standard normals are those of ``rng``, except that
    the matrices at the given places of the stream are zero, however the
    draws are shaped: the stream is read as matrices of 2 n^2 normals, real
    part then imaginary part."""

    def __init__(self, rng, n, zeroed):
        self.rng = rng
        self.n, self.zeroed, self.drawn = n, zeroed, 0

    def standard_normal(self, shape):
        x = self.rng.standard_normal(shape)
        flat = x.reshape(-1)
        place = (self.drawn + np.arange(flat.size)) // (2 * self.n * self.n)
        flat[np.isin(place, list(self.zeroed))] = 0.0
        self.drawn += flat.size
        return x


@pytest.mark.parametrize(
    "zeroed",
    [
        pytest.param({0}, id="first"),  # the first matrix of the first pair: drawn again
        pytest.param({0, 1, 3}, id="first-twice-then-second"),  # a second matrix: its pair starts over
    ],
)
@pytest.mark.parametrize("pass_pairs", [None, 1])
def test_a_zero_draw_starts_its_pair_over_as_the_loop_does(tmp_path, monkeypatch, zeroed, pass_pairs):
    if pass_pairs is not None:
        monkeypatch.setattr(cli, "_PASS_PAIRS", pass_pairs)
    real = build_realization("GL(2,C)")
    got = _stacked_sweep(real, 5, _Zeroed(np.random.default_rng(4), 2, zeroed))
    want = looped_sweep(real, 5, _Zeroed(np.random.default_rng(4), 2, zeroed))
    assert got[:3] == want
    # the zero matrices were drawn and passed over: no pair is the unstubbed stream's first
    plain = looped_sweep(real, 5, np.random.default_rng(4))
    assert got[1][0] != plain[1][0]
    # through the CLI, whose generator is the stub
    plain_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _Zeroed(plain_rng(seed), 2, zeroed))
    _, gap = _sample_report(tmp_path, 5, 4)
    assert gap == want[0]
