import json
import math
import warnings

import jordan_oracle
import numpy as np
import pytest
from cayley_oracle import cayley_transform, inverse_cayley_transform, validate_ks_real
from grading_oracle import _restricted, dense_eigendecompose, model_basis
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, logm

from parhodge.cli import cli_dispatch

from parhodge.liealg import (
    SPACES,
    NotInvertible,
    NotInModel,
    NotNilpotent,
    NumericallyDefective,
    SL2Triple,
    UnsupportedGroup,
    ZeroElement,
    _exp_hermitian,
    _cluster,
    _exp_nilpotent,
    _order,
    _pow2_at,
    _pow2_of,
    NotInCartan,
    NotThetaFixed,
    ad_eigendecompose,
    ad_grading,
    build_realization,
    comm,
    hs_norm,
    is_nilpotent,
    jacobson_morozov,
    jordan_additive,
    jordan_multiplicative,
    kostant_sekiguchi_orbit_map,
    normalize_kostant_sekiguchi,
    numerical_rank,
    rank_sequence,
    spectral_norm,
    validate_triple,
)


def test_build_realization_labels():
    assert build_realization("GL(2,C)").family == "GL_C"
    assert build_realization("SL(3,R)").family == "SL_R"
    assert build_realization("SU(1,1)").signature == (1, 1)
    assert build_realization("U(2)").n == 2
    with pytest.raises(UnsupportedGroup):
        build_realization("Sp(4,R)")


def test_trace_form_signs():
    # Re tr is negative definite on h and positive definite on m
    sl2r = build_realization("SL(2,R)")
    j0 = np.array([[0, 1], [-1, 0]], dtype=complex)
    assert np.trace(j0 @ j0).real < 0
    for m in model_basis(sl2r, "m^C"):
        assert np.trace(m @ m).real > 0
    su11 = build_realization("SU(1,1)")
    for h in [np.diag([1j, -1j])]:
        assert np.trace(h @ h).real < 0
    s = np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.trace(s @ s).real > 0


@pytest.mark.parametrize(
    "label", ["GL(3,C)", "SL(3,C)", "U(3)", "SU(3)", "SL(2,R)", "SL(3,R)", "SU(1,1)", "SU(2,1)"]
)
def test_involutions(label):
    real = build_realization(label)
    n = real.n
    rng = np.random.default_rng(7)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    theta, sigma = real.theta, real.sigma
    assert hs_norm(theta(theta(x)) - x) < 1e-12
    # theta is a Lie algebra homomorphism
    assert hs_norm(theta(comm(x, y)) - comm(theta(x), theta(y))) < 1e-10
    # sigma is antilinear and involutive, and commutes with theta
    assert hs_norm(sigma(1j * x) + 1j * sigma(x)) < 1e-12
    assert hs_norm(sigma(sigma(x)) - x) < 1e-12
    assert hs_norm(sigma(theta(x)) - theta(sigma(x))) < 1e-12
    # the projections are idempotent
    for project in (real.project_hC, real.project_mC):
        assert hs_norm(project(project(x)) - project(x)) < 1e-12
    if real.real_form:
        # h^C and m^C are the +-eigenspaces of theta, and tau = sigma theta
        assert hs_norm(theta(real.project_hC(x)) - real.project_hC(x)) < 1e-12
        assert hs_norm(theta(real.project_mC(x)) + real.project_mC(x)) < 1e-12
        assert hs_norm(sigma(theta(x)) - real.tau(x)) < 1e-12
        assert real.in_g((x + sigma(x)) / 2)


def test_ad_eigendecompose_gl3_multiplicities():
    gl3 = build_realization("GL(3,C)")
    a = np.diag([0.5, 0.0, 0.0]).astype(complex)
    eig = ad_eigendecompose(gl3, a, space="m^C")
    table = {round(v, 9): len(basis) for v, basis in eig}
    assert table == {-0.5: 2, 0.0: 5, 0.5: 2}


def test_sl2_triple_flavors():
    sl2r = build_realization("SL(2,R)")
    x = np.diag([1.0, -1.0]).astype(complex)
    e = np.array([[0, 1], [0, 0]], dtype=complex)
    f = np.array([[0, 0], [1, 0]], dtype=complex)
    validate_triple(sl2r, SL2Triple(x, e, f, "plain"))
    with pytest.raises(NotInModel):
        validate_triple(sl2r, SL2Triple(x, e, 2 * f, "plain"))
    with pytest.raises(NotInModel):
        # e is not symmetric, so not in m^C of SL(2,R)
        validate_triple(sl2r, SL2Triple(x, e, f, "normal"))


def test_jacobson_morozov_sl3_regular():
    gl3 = build_realization("SL(3,C)")
    e = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
    t = jacobson_morozov(e)
    # regular nilpotent: neutral element has eigenvalues (2, 0, -2)
    vals = sorted(np.linalg.eigvals(t.x).real)
    assert np.allclose(vals, [-2, 0, 2], atol=1e-8)
    validate_triple(gl3, t)


def test_jacobson_morozov_mixed_block_and_errors():
    gl3 = build_realization("GL(3,C)")
    e = np.zeros((3, 3), dtype=complex)
    e[0, 1] = 3.0  # one 2-block and one 1-block
    t = jacobson_morozov(e)
    validate_triple(gl3, t)
    vals = sorted(np.linalg.eigvals(t.x).real)
    assert np.allclose(vals, [-1, 0, 1], atol=1e-8)
    with pytest.raises(ZeroElement):
        jacobson_morozov(np.zeros((3, 3)))
    with pytest.raises(NotNilpotent):
        jacobson_morozov(np.eye(3))


def test_jacobson_morozov_scaling_covariance():
    # (x of JM(c e)) is conjugate to (x of JM(e)): equal eigenvalue multisets,
    # and scaling the triple of c e back by 1/c gives a triple through e
    gl4 = build_realization("GL(4,C)")
    rng = np.random.default_rng(3)
    e = np.triu(rng.standard_normal((4, 4)), k=1).astype(complex)
    t1 = jacobson_morozov(e)
    v1 = np.sort(np.linalg.eigvals(t1.x).real)
    for c in (1e-12, 1e-8, 9.0, 1e8):
        t2 = jacobson_morozov(c * e)
        v2 = np.sort(np.linalg.eigvals(t2.x).real)
        assert np.allclose(v1, v2, atol=1e-7)
        validate_triple(gl4, SL2Triple(t2.x, (1 / c) * t2.e, t2.f / (1 / c), t2.flavor), tol=1e-7)


def test_cayley_transform_round_trip():
    sl2r = build_realization("SL(2,R)")
    x = np.array([[0, -1], [-1, 0]], dtype=complex)
    e = 0.5 * np.array([[1, 1], [-1, -1]], dtype=complex)
    f = e.T.copy()
    ks = SL2Triple(x, e, f, "ks_real")
    validate_ks_real(sl2r, ks)
    normal = cayley_transform(sl2r, ks)
    assert normal.flavor == "ks_normal"
    # X = -tau(Y) and H lies in i*h (purely imaginary antisymmetric)
    assert hs_norm(normal.e + sl2r.tau(normal.f)) < 1e-12
    assert hs_norm(normal.x + normal.x.T) < 1e-12
    assert hs_norm(normal.x.real) < 1e-12
    back = inverse_cayley_transform(sl2r, normal)
    for a, b in [(back.x, x), (back.e, e), (back.f, f)]:
        assert hs_norm(a - b) < 1e-12


def test_normal_triple_torus_scaling():
    su11 = build_realization("SU(1,1)")
    x = np.diag([1.0, -1.0]).astype(complex)
    e = 3.0 * np.array([[0, 1], [0, 0]], dtype=complex)
    f = np.array([[0, 0], [1, 0]], dtype=complex) / 3.0
    out = normalize_kostant_sekiguchi(su11, SL2Triple(x, e, f, "normal"))
    assert out.flavor == "ks_normal"
    assert abs(abs(out.e[0, 1]) - 1.0) < 1e-10
    assert hs_norm(su11.sigma(out.e) - out.f) < 1e-10
    with pytest.raises(NotInModel):  # only normal triples are normalized
        normalize_kostant_sekiguchi(su11, SL2Triple(x, e, f, "plain"))


def test_orbit_map_bijection_sl2r():
    sl2r = build_realization("SL(2,R)")
    e12 = np.array([[0, 1], [0, 0]], dtype=complex)
    e21 = e12.T.copy()
    rng = np.random.default_rng(11)
    reps = {"zero": np.zeros((2, 2)), "plus": e12, "minus": e21}
    # -e21 lies in the orbit of e12 and -e12 in the orbit of e21
    extra = {"plus": [-e21], "minus": [-e12]}
    for key, mats in extra.items():
        for i in range(3):
            a = rng.standard_normal((2, 2))
            a = a - np.trace(a) / 2 * np.eye(2)
            g = expm(a)
            mats.append(g @ reps[key] @ np.linalg.inv(g))
    certs = {k: kostant_sekiguchi_orbit_map(sl2r, m) for k, m in reps.items()}
    assert certs["zero"].rank_sequence == (0, 0)
    assert certs["plus"].rank_sequence == (1, 0)
    assert certs["plus"].component_signs != certs["minus"].component_signs
    for key, mats in extra.items():
        for m in mats:
            c = kostant_sekiguchi_orbit_map(sl2r, m)
            assert c.component_signs == certs[key].component_signs


def test_jordan_multiplicative_frozen_2x2():
    g = np.array([[2.0, 1.0], [0.0, 2.0]])
    fac = jordan_multiplicative(g)
    assert np.allclose(fac.elliptic, np.eye(2), atol=1e-10)
    assert np.allclose(fac.hyperbolic, 2 * np.eye(2), atol=1e-10)
    assert np.allclose(fac.unipotent, [[1, 0.5], [0, 1]], atol=1e-10)


def test_jordan_multiplicative_rotation():
    c, s = np.cos(0.7), np.sin(0.7)
    g = np.array([[c, -s], [s, c]])
    fac = jordan_multiplicative(g)
    assert np.allclose(fac.elliptic, g, atol=1e-9)
    assert np.allclose(fac.hyperbolic, np.eye(2), atol=1e-9)
    assert np.allclose(fac.unipotent, np.eye(2), atol=1e-9)


def test_jordan_additive_defective():
    m = np.array([[1.0, 1.0], [0.0, 1.0]])
    s, n = jordan_additive(m)
    assert np.allclose(s, np.eye(2), atol=1e-10)
    assert np.allclose(n, [[0, 1], [0, 0]], atol=1e-10)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_jordan_additive_conjugated_block(k):
    # a k-block at 1 + i beside the simple eigenvalue 3, conjugated: rounding
    # scatters the block's computed eigenvalues by about eps^(1/k) * |m|
    rng = np.random.default_rng(k)
    p = np.eye(k + 1) + 0.3 * rng.standard_normal((k + 1, k + 1))
    p_inv = np.linalg.inv(p)
    semi = np.diag([1 + 1j] * k + [3])
    nil = np.diag([1.0] * (k - 1) + [0.0], 1)
    s, n = jordan_additive(p @ (semi + nil) @ p_inv)
    assert np.allclose(s, p @ semi @ p_inv, atol=1e-10)
    assert np.allclose(n, p @ nil @ p_inv, atol=1e-10)


# relative gap between the first two eigenvalues; "defective" also joins them
# by a Jordan block
_GAPS = {"simple": None, "close": 1e-4, "clustered": 1e-14, "repeated": 0.0, "defective": 0.0}


def _positive_spectrum_factor(rng, n, kind, real):
    """p (diag(lam) + nil) p^-1 with lam of random modulus in [e^-1, e]."""
    p = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    mods = np.exp(rng.uniform(-1, 1, n))
    if real:
        lam = mods * rng.choice([-1.0, 1.0], n)
    else:
        p = p + 0.3j * rng.standard_normal((n, n))
        lam = mods * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    if _GAPS[kind] is not None:
        lam[1] = lam[0] * (1 + _GAPS[kind])
    nil = np.zeros((n, n))
    if kind == "defective":
        nil[0, 1] = 1.0
    return p @ (np.diag(lam) + nil) @ np.linalg.inv(p)


@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("kind", sorted(_GAPS))
def test_hyperbolic_log_matches_scipy_logm(kind, real):
    rng = np.random.default_rng(11)
    for n in (2, 3, 4):
        for _ in range(15):
            g = _positive_spectrum_factor(rng, n, kind, real)
            fac = jordan_multiplicative(g)
            oracle = logm(fac.hyperbolic)
            assert hs_norm(fac.hyperbolic_log - oracle) < 1e-9 * (1 + hs_norm(oracle))
            if real:
                assert not fac.hyperbolic_log.imag.any()


def test_jordan_not_invertible():
    with pytest.raises(NotInvertible):
        jordan_multiplicative(np.diag([1.0, 0.0]))


def test_rank_sequence():
    e = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
    for c in (1e-12, 1e-8, 1.0, 1e8):
        assert rank_sequence(c * e) == (2, 1, 0)
    assert rank_sequence(np.zeros((3, 3))) == (0, 0, 0)


def jordan_block(n: int) -> np.ndarray:
    return np.diag(np.ones(n - 1), 1).astype(complex)


# 2**0.51 sits just above sqrt(2): the nearest power of two is 2, and the
# k-th power of the block divided by it has norm 0.71^k, 5e-10 at k = 63
# past 2^1023.5 the nearest power of two, 2^1024, leaves the float range, and
# the step is capped at 2^1023
@pytest.mark.parametrize("scale", [1e-8, 1.0, 2**0.51, 1e8, 1.5e308])
@pytest.mark.parametrize("n", [2, 5, 10, 16, 17, 20, 64])
def test_long_jordan_blocks_at_every_scale(n, scale):
    # the k-th power of a Jordan block keeps spectral norm 1 for k < n, while
    # its Frobenius-normalized power shrinks like (n - 1)^(-k/2)
    e = scale * jordan_block(n)
    assert rank_sequence(e) == tuple(range(n - 1, -1, -1))
    gl = build_realization(f"GL({n},C)")
    t = jacobson_morozov(e)
    validate_triple(gl, SL2Triple(t.x, (1 / scale) * t.e, t.f / (1 / scale), t.flavor), tol=1e-7)
    assert np.allclose(np.sort(np.linalg.eigvals(t.x).real), np.arange(1 - n, n, 2), atol=1e-7)


@pytest.mark.parametrize("n", [3, 16, 20])
def test_cyclic_permutation_is_not_nilpotent(n):
    # a Jordan block closed into an n-cycle has the n-th roots of unity as
    # eigenvalues; divided by its Frobenius norm sqrt(n), its n-th power is
    # n^(-n/2) * identity, below any fixed cutoff for n >= 16
    cycle = jordan_block(n)
    cycle[n - 1, 0] = 1
    assert not is_nilpotent(cycle)
    with pytest.raises(NotNilpotent):
        jacobson_morozov(cycle)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_jordan_multiplicative_properties(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    g = rng.standard_normal((n, n)) + np.eye(n) * 3.0
    if abs(np.linalg.det(g)) < 1e-3:
        g = g + np.eye(n)
    fac = jordan_multiplicative(g)
    scale = max(1.0, hs_norm(g))
    assert hs_norm(fac.elliptic @ fac.hyperbolic @ fac.unipotent - g) < 1e-8 * scale
    for a, b in [
        (fac.elliptic, fac.hyperbolic),
        (fac.elliptic, fac.unipotent),
        (fac.hyperbolic, fac.unipotent),
    ]:
        assert hs_norm(comm(a, b)) < 1e-7 * scale
    # factors of a real matrix are real
    assert np.max(np.abs(fac.hyperbolic.imag)) < 1e-9 * scale


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_jacobson_morozov_random_nilpotents(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    gl = build_realization(f"GL({n},C)")
    e = np.triu(rng.standard_normal((n, n)), k=1).astype(complex)
    if hs_norm(e) < 1e-9:
        e[0, n - 1] = 1.0
    t = jacobson_morozov(e)
    validate_triple(gl, t, tol=1e-6)


def restricted_by_columns(basis, apply):
    """The per-column loop that the batched restricted operator replaced:
    entry (i, j) is <q_i, L(q_j)> for the orthonormalized basis q."""
    n = basis[0].shape[0]
    q, _ = np.linalg.qr(np.stack([b.ravel() for b in basis]).T)
    op = np.zeros((q.shape[1], q.shape[1]), dtype=complex)
    for j in range(q.shape[1]):
        img = apply(q[:, j].reshape(n, n))
        for i in range(q.shape[1]):
            op[i, j] = np.vdot(q[:, i], img.ravel())
    return q, op


SMALL_MODELS = [
    f"{group}({n}{field})"
    for n in range(2, 6)
    for group, field in (("GL", ",C"), ("SL", ",C"), ("U", ""), ("SU", ""), ("SL", ",R"))
] + [f"SU({p},{q})" for p in range(1, 5) for q in range(1, 6 - p)]


@pytest.mark.parametrize("label", SMALL_MODELS)
def test_restricted_operator_matches_the_column_loop(label):
    real = build_realization(label)
    n = real.n
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    s = (a + a.conj().T) / 2  # Hermitian: ad(s) is Hermitian on every subspace
    u = expm(1j * s)
    u_inv = np.linalg.inv(u)
    ad, twist = (lambda b: s @ b - b @ s), (lambda b: u @ b @ u_inv - b)
    for space in SPACES:
        basis = model_basis(real, space)
        if real.real_form and space != "g^C":
            # a random s is not theta-fixed, so ad(s) leaves h^C and m^C
            with pytest.raises(NotThetaFixed):
                ad_eigendecompose(real, s, space=space)
            eig = None
        else:
            eig = ad_eigendecompose(real, s, space=space)
        if not basis:
            assert eig == []
            continue
        for apply in (ad, twist):
            q, op = _restricted(basis, apply)
            q_ref, op_ref = restricted_by_columns(basis, apply)
            assert np.array_equal(q, q_ref)
            assert np.allclose(op, op_ref, rtol=0, atol=1e-13 * (1 + np.abs(op_ref).max()))
            if apply is ad and eig is not None:
                got = [lam for lam, mats in eig for _ in mats]
                want = np.linalg.eigvalsh(op_ref)
                if real.family == "SL_C" and space == "g^C":
                    # the two sl_n copies span sl_n, and the QR of their stack
                    # completes it to gl_n: the grading drops the scalar's zero
                    assert len(got) == n * n - 1
                    want = np.delete(want, np.argmin(np.abs(want)))
                assert np.allclose(got, want, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# structured exponentials against scipy.linalg.expm
# ---------------------------------------------------------------------------


def _unitary(rng, n: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


def _spectrum(rng, n: int, kind: str) -> np.ndarray:
    if kind == "simple":
        return rng.uniform(-3, 3, n)
    if kind == "repeated":  # pairs of equal eigenvalues
        return np.repeat(rng.uniform(-3, 3, (n + 1) // 2), 2)[:n]
    # clustered: every gap 1e-14, and one far eigenvalue when n > 2
    vals = rng.uniform(-3, 3) + 1e-14 * np.arange(n)
    if n > 2:
        vals[-1] = rng.uniform(-3, 3)
    return vals


EXP_SCALARS = [1.0, -0.4, 2j * np.pi, 0.3 - 1.7j]


@pytest.mark.parametrize("seed, kind", enumerate(["simple", "repeated", "clustered"]))
@pytest.mark.parametrize("c", EXP_SCALARS)
def test_exp_hermitian_matches_expm(seed, kind, c):
    rng = np.random.default_rng([seed, EXP_SCALARS.index(c)])
    for n in range(1, 8):
        for _ in range(6):
            v = _unitary(rng, n)
            h = (v * _spectrum(rng, n, kind)) @ v.conj().T  # Hermitian up to rounding
            want = expm(c * h)
            assert hs_norm(_exp_hermitian(h, c) - want) <= 1e-12 * hs_norm(want), (kind, n)
            # a stack of scalars gives the stack of exponentials
            plus, minus = _exp_hermitian(h, (c, -c))
            assert hs_norm(plus - want) <= 1e-12 * hs_norm(want)
            assert hs_norm(minus - expm(-c * h)) <= 1e-12 * hs_norm(minus)


def test_exp_hermitian_refuses_a_non_hermitian_exponent():
    rng = np.random.default_rng(11)
    v = _unitary(rng, 3)
    h = (v * rng.uniform(-1, 1, 3)) @ v.conj().T
    skew = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], dtype=complex)
    _exp_hermitian(h + 1e-12 * skew, 1.0)  # within 1e-9 relative
    for bad in (h + 1e-6 * skew, np.array([[0, 1], [0, 0]], dtype=complex), 1j * h):
        with pytest.raises(NotInModel):
            _exp_hermitian(bad, 1.0)


@pytest.mark.parametrize("scale", [1e-8, 1e-4, 1.0, 1e4, 1e8])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 20])
def test_exp_nilpotent_matches_expm_on_jordan_blocks(n, scale):
    offset = np.subtract.outer(np.arange(n), np.arange(n))  # i - j
    for c in (1.0, 2j * np.pi):
        got = _exp_nilpotent(scale * jordan_block(n), c)
        # entry (i, j) of exp(c t J) is (c t)^(j - i) / (j - i)! exactly
        exact = np.array(
            [[(c * scale) ** -k / math.factorial(-k) if k <= 0 else 0 for k in row] for row in offset]
        )
        assert np.all(np.abs(got - exact) <= 1e-14 * np.abs(exact))
        # scaling and squaring in expm loses up to 1.5e-3 relative on blocks
        # of size 13 and 20 at scales above 1 (against the exact entries), so
        # there the exact entries are the only oracle
        if n <= 8 or scale <= 1:
            want = expm(c * scale * jordan_block(n))
            assert hs_norm(got - want) <= 1e-12 * hs_norm(want), c


def test_exp_nilpotent_matches_expm_on_conjugated_nilpotents():
    rng = np.random.default_rng(2005)
    for _ in range(200):
        n = int(rng.integers(2, 8))
        # a random Jordan form: cut a superdiagonal into blocks
        j = np.diag((rng.random(n - 1) < 0.7).astype(float), 1).astype(complex)
        g = np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        nil = 10 ** rng.uniform(-3, 1) * g @ j @ np.linalg.inv(g)
        c = EXP_SCALARS[int(rng.integers(len(EXP_SCALARS)))]
        want = expm(c * nil)
        assert hs_norm(_exp_nilpotent(nil, c) - want) <= 1e-10 * hs_norm(want)


# --------------------------------------------------------------------------
# the Jordan split against its frozen form, and the close pairs it now splits
# --------------------------------------------------------------------------

_NOT_NILPOTENT = ("NumericallyDefective", "nilpotent part check failed after the iteration")


def _outcome(fn, m, tol):
    """(None, result) or ((error type, message), None)."""
    try:
        return None, fn(m, tol=tol)
    except (ValueError, RuntimeError) as exc:  # LinAlgError is a ValueError
        return (type(exc).__name__, str(exc)), None


def _oracle_additive(m, tol=1e-8):
    """The frozen additive split at the scale jordan_additive runs it: a
    finite nonzero m with hs_norm below 1 is multiplied up by the power of
    two that puts its norm in [1, 2), and s and n are divided back."""
    m = np.asarray(m, dtype=complex)
    if not (np.isfinite(m).all() and m.any() and hs_norm(m) < 1):
        return jordan_oracle.jordan_additive(m, tol=tol)

    def times_pow2(a, k):  # in two steps, as 2^k may leave the float range
        return a * 2.0 ** (k // 2) * 2.0 ** (k - k // 2)

    k = 1 - math.frexp(np.abs(m).max())[1]  # the largest entry in [1, 2)
    while hs_norm(times_pow2(m, k)) >= 2:
        k -= 1
    s, n = jordan_oracle.jordan_additive(times_pow2(m, k), tol=tol)
    return times_pow2(s, -k), times_pow2(n, -k)


def _same_arrays(got, want) -> bool:
    if isinstance(want, tuple):  # jordan_additive: (s, n)
        return all(np.array_equal(a, b) for a, b in zip(got, want))
    return all(np.array_equal(getattr(got, f), getattr(want, f)) for f in want.__dataclass_fields__)


def _conjugated_jordan(rng, n, real):
    """p J p^-1 with J a random Jordan form: each eigenvalue repeats its
    predecessor with a 1 above it with probability 0.4."""
    p = rng.standard_normal((n, n)) + (0 if real else 1j * rng.standard_normal((n, n)))
    j = np.diag(rng.standard_normal(n) + (0 if real else 1j * rng.standard_normal(n)))
    for i in range(n - 1):
        if rng.random() < 0.4:
            j[i + 1, i + 1] = j[i, i]
            j[i, i + 1] = 1
    return p @ j @ np.linalg.inv(p)


def test_jordan_split_matches_the_frozen_oracle():
    rng = np.random.default_rng(7)
    inputs = [(_conjugated_jordan(rng, int(rng.integers(1, 7)), bool(rng.integers(0, 2))), 1e-8) for _ in range(3000)]
    inputs += [(_positive_spectrum_factor(rng, n, kind, real), 1e-6) for kind in _GAPS for real in (False, True) for n in (2, 3, 4)]
    inputs += [(np.array([[1.0, np.nan], [0.0, 1.0]]), 1e-8), (np.diag([1.0, 0.0]), 1e-8)]
    seen = {"factors": 0, "refused": 0, "not_nilpotent": 0}
    for m, tol in inputs:
        for ours, frozen in ((jordan_additive, _oracle_additive), (jordan_multiplicative, jordan_oracle.jordan_multiplicative)):
            want_error, want = _outcome(frozen, m, tol)
            got_error, got = _outcome(ours, m, tol)
            if want_error == _NOT_NILPOTENT and got_error is None:
                continue  # close distinct eigenvalues, which the retry splits
            assert got_error == want_error, (m, got_error, want_error)
            if want_error is None:
                assert _same_arrays(got, want), m
            kind = "factors" if want_error is None else "not_nilpotent" if want_error == _NOT_NILPOTENT else "refused"
            seen[kind] += 1
    # the guard of the last retry refuses the defective inputs it cannot split
    assert seen["factors"] > 5000 and seen["refused"] > 10 and seen["not_nilpotent"] >= 2


@pytest.mark.parametrize("gap", [1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14])
def test_translate_l2h_splits_two_close_distinct_eigenvalues(tmp_path, gap):
    c, s = np.cos(0.7), np.sin(0.7)
    rot = np.array([[c, -s], [s, c]])
    mono = rot @ np.diag([2.0, 2.0 * (1 + gap)]) @ rot.T
    source = tmp_path / "in.json"
    source.write_text(json.dumps({"realization": "GL(2,C)", "monodromy": mono.tolist()}))
    code, report = cli_dispatch(["translate-l2h", "--input", str(source), "--output", str(tmp_path / "out.json")])
    assert code == 0, report.get("error")


def test_close_distinct_eigenvalues_are_decided():
    # 45 complex conjugated matrices, n = 2..4, with two eigenvalues at a
    # relative gap of 1e-7..1e-10: the split leaves no nilpotent part
    rng = np.random.default_rng(25)
    for k in range(45):
        n = 2 + k % 3
        p = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        lam = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lam[1] = lam[0] * (1 + 10.0 ** -(7 + (k // 3) % 4))
        m = p @ np.diag(lam) @ np.linalg.inv(p)
        scale = max(1.0, hs_norm(m))
        s, nil = jordan_additive(m)
        assert hs_norm(nil) <= 1e-6 * scale
        fac = jordan_multiplicative(m)
        assert hs_norm(fac.nilpotent_log) <= 1e-6 * scale
        assert hs_norm(fac.elliptic @ fac.hyperbolic @ fac.unipotent - m) <= 1e-7 * scale


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_perturbed_jordan_block_keeps_its_nilpotent_part(n):
    rng = np.random.default_rng(n)
    m = 3 * np.eye(n) + jordan_block(n) + 1e-14 * rng.standard_normal((n, n))
    s, nil = jordan_additive(m)
    assert hs_norm(nil - jordan_block(n)) < 1e-6
    assert hs_norm(s - 3 * np.eye(n)) < 1e-6


@pytest.mark.parametrize("nu", [1e-3, 1e-4])
def test_jordan_block_beside_a_close_pair_splits_into_finer_groups(nu):
    # a 2-block (off-diagonal nu) at 1 beside eigenvalues 1 + 1e-4 and
    # 1 + 1.1e-4: at tol 1e-6 all four merge, and the remainder is not
    # nilpotent; the groups linked at tol * scale keep the block's part
    rng = np.random.default_rng(5)
    for _ in range(4):
        p = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
        j = np.diag([1.0, 1.0, 1 + 1e-4, 1 + 1.1e-4])
        j[0, 1] = nu
        m = p @ j @ np.linalg.inv(p)
        nil = p @ np.diag([nu, 0.0, 0.0], 1) @ np.linalg.inv(p)
        with pytest.raises(NumericallyDefective, match="nilpotent part check failed"):
            jordan_oracle.jordan_additive(m, tol=1e-6)
        s, n = jordan_additive(m, tol=1e-6)
        assert hs_norm(n - nil) <= 5e-6 * hs_norm(m)  # tol-level
        assert hs_norm(n) >= 0.5 * hs_norm(nil)
        fac = jordan_multiplicative(m, tol=1e-6)
        assert hs_norm(fac.elliptic @ fac.hyperbolic @ fac.unipotent - m) <= 1e-7 * hs_norm(m)


def _strictly_triangular(rng, n: int, exponent: int) -> np.ndarray:
    """A random strictly upper or lower triangular n x n matrix, real or
    complex, scaled by 2^exponent, with -0.0 in some of its zero entries."""
    m = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if rng.integers(2) else 0)
    m = np.triu(m * 2.0**exponent * (rng.random((n, n)) < 0.7), 1)
    m[np.tril(rng.random((n, n)) < 0.5)] = -0.0
    return m.T.copy() if rng.integers(2) else m


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_strictly_triangular_matrices_split_exactly():
    # at every scale a nonzero one splits as (0, m), as the iteration does on
    # it once its norm is in [1, 2); unscaled, the Newton loop measured
    # against max(1, hs_norm(m)) stopped at once for hs_norm(m) <= 1e-13 and
    # called such an m semisimple
    rng = np.random.default_rng(41)
    below_stop = 0
    for _ in range(2000):
        m = _strictly_triangular(rng, int(rng.integers(1, 9)), int(rng.choice([-600, -30, 0, 30, 600])))
        s, nil = jordan_additive(m)
        want_s, want_n = _oracle_additive(m)
        assert np.array_equal(s, want_s) and np.array_equal(nil, want_n), m
        if m.any():
            assert not s.any() and np.array_equal(nil, m)
            assert np.array_equal(np.signbit(nil.real), np.signbit(m.real))
            below_stop += hs_norm(m) <= 1e-13
        else:
            assert np.array_equal(s, m) and not nil.any()
    assert 300 < below_stop < 700
    for split in (jordan_oracle.jordan_additive, jordan_additive):  # 0 x 0 keeps the iteration too
        with pytest.raises(ZeroDivisionError):
            split(np.zeros((0, 0)))


@pytest.mark.parametrize("k", [-600, 0, 600])
@pytest.mark.parametrize("size", [1e-16, 1e-14, 1e-6])
def test_a_conjugated_jordan_block_splits_as_nilpotent_at_every_scale(size, k):
    # unscaled, the iteration measured against max(1, hs_norm(m)) called
    # 1e-16 * P J3 P^-1 (hs_norm about 2e-15) semisimple: s = m, n = 0
    rng = np.random.default_rng(67)
    p = rng.standard_normal((3, 3))
    block = p @ jordan_block(3) @ np.linalg.inv(p)
    c = 2.0**k * size
    s, nil = jordan_additive(c * block)
    # read at unit scale, where no sum of squares underflows
    assert hs_norm(s / c) <= 1e-6 * hs_norm(block)
    assert hs_norm(nil / c - block) <= 1e-6 * hs_norm(block)
    assert is_nilpotent(nil)


def test_a_jordan_block_just_above_the_smallest_float_splits_as_nilpotent():
    # an integer conjugate of J3 at 2^-1072: every entry and the norm are
    # subnormal, and the split is exact there too
    p = np.array([[1.0, 0, 0], [1, 1, 0], [1, 1, 1]])
    block = p @ jordan_block(3) @ np.linalg.inv(p)
    assert np.array_equal(block, np.round(block)) and np.tril(block).any() and np.triu(block).any()
    m = 2.0**-1072 * block
    s, nil = jordan_additive(m)
    assert not s.any() and np.array_equal(nil, m)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_non_finite_or_diagonal_entries_take_the_iteration():
    rng = np.random.default_rng(43)
    refused = 0
    for k in range(400):
        n = int(rng.integers(1, 9))
        m = _strictly_triangular(rng, n, int(rng.choice([-600, 0, 600])))
        i, j = rng.integers(n, size=2)
        if k % 2:
            m[i, j] = rng.choice([np.inf, -np.inf, np.nan])
        else:
            m[i, i] = rng.standard_normal() * 2.0 ** int(rng.integers(-10, 10))
        want_error, want = _outcome(_oracle_additive, m, 1e-8)
        got_error, got = _outcome(jordan_additive, m, 1e-8)
        if want_error == _NOT_NILPOTENT and got_error is None:
            continue  # a diagonal entry inside the clustering radius of 0, which the retry splits
        assert got_error == want_error, (m, got_error, want_error)
        if want_error is None:
            assert _same_arrays(got, want), m
        refused += want_error is not None
    assert refused >= 150


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("k", [520, 700, 1000, 1023])
def test_hs_norm_scales_by_powers_of_two_past_overflow(k):
    # the sum of squares overflows from k = 512 on; the norm itself does not,
    # save at k = 1023 for a norm of 2 or more, where both sides read inf
    rng = np.random.default_rng(k)
    for n in (1, 2, 3, 5, 8):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        # the largest real or imaginary part lands in [1, 2): past 2^1023 at k = 1023
        a /= 2.0 ** (math.frexp(max(np.abs(a.real).max(), np.abs(a.imag).max()))[1] - 1)
        assert hs_norm(a * 2.0**k) == 2.0**k * hs_norm(a)
        assert hs_norm(a.real * 2.0**k) == 2.0**k * hs_norm(a.real)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_hs_norm_reaches_the_top_of_the_float_range():
    a = np.array([[1.5, 0.25], [0, -0.5]])
    assert hs_norm(a * 2.0**1023) == 2.0**1023 * hs_norm(a) < math.inf
    assert hs_norm(np.full((2, 2), 1.7e308)) == math.inf
    assert hs_norm(np.array([[1e308, 1e308], [0, 0]])) == pytest.approx(math.sqrt(2) * 1e308, rel=1e-15)


def test_hs_norm_past_overflow_warns_of_nothing():
    # numpy's norm of this matrix warns "overflow encountered in dot" before
    # hs_norm rescales; the sum of squares that hs_norm takes does not warn
    a = np.array([[1e200, -1e200j], [0, 1e200 + 1e200j]])
    scale = _pow2_at(1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = hs_norm(a)
        assert hs_norm(a.real) == hs_norm(a.real.astype(complex))
    assert got == float(np.linalg.norm(a / scale)) * scale == 2e200


def _random_matrices(rng, count: int):
    """Random complex, real and integer matrices up to 8 x 8 over a wide range
    of scales, some of them transposed or sliced, so not C-contiguous."""
    for _ in range(count):
        n, m = (int(k) for k in rng.integers(1, 9, size=2))
        a = rng.standard_normal((n, m)) * 10.0 ** float(rng.integers(-150, 150))
        kind = rng.integers(4)
        if kind == 0:
            a = a + 1j * rng.standard_normal((n, m))
        elif kind == 1:
            a = rng.integers(-3, 4, size=(n, m)).astype(complex)
        a[rng.random((n, m)) < 0.2] = -0.0
        yield a.T if rng.integers(2) else a[:, ::-1] if rng.integers(2) else a


def test_hs_norm_gives_the_bits_of_numpys_norm():
    rng = np.random.default_rng(101)
    for a in _random_matrices(rng, 4000):
        assert hs_norm(a) == float(np.linalg.norm(np.asarray(a, dtype=complex))), a


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_hs_norm_past_overflow_gives_the_bits_of_the_rescaled_numpy_norm():
    rng = np.random.default_rng(102)
    for _ in range(2000):
        n = int(rng.integers(1, 9))
        a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * 10.0 ** float(rng.integers(155, 300))
        a[rng.random((n, n)) < 0.2] = -0.0
        big = max(np.abs(a.real).max(), np.abs(a.imag).max())
        want = float(np.linalg.norm(a))
        if want == math.inf:
            scale = _pow2_at(big)
            want = float(np.linalg.norm(a / scale)) * scale
        assert hs_norm(a) == want, a


def test_spectral_norm_and_rank_give_what_numpy_gives():
    rng = np.random.default_rng(103)
    for a in _random_matrices(rng, 2000):
        assert spectral_norm(a) == np.linalg.norm(a, 2), a
        # a product of thin factors: rank below the size, and cutoffs around it
        k = int(rng.integers(0, min(a.shape) + 1))
        low = a[:, :k] @ rng.standard_normal((k, a.shape[1])) if k else np.zeros(a.shape)
        for m in (a, low):
            for tol in (0.0, 1e-9, 1e-9 * float(np.linalg.norm(m)), float(np.linalg.norm(m, 2))):
                assert numerical_rank(m, tol) == np.linalg.matrix_rank(m, tol=tol), (m, tol)


def _linked_numpy(vals, gap):
    """liealg._linked as it grouped numpy scalars: the reference _cluster is checked against."""
    groups = []
    for v in sorted(vals, key=_order):
        near = [g for g in groups if any(abs(v - u) <= gap for u in g)]
        joined = sorted([v, *(u for g in near for u in g)], key=_order)
        groups = [g for g in groups if g not in near] + [joined]
    return groups


def _cluster_numpy(vals, tol, scale):
    rounding = 16 * np.finfo(float).eps
    groups = []
    for chain in _linked_numpy(vals, 2 * max(tol, rounding ** (1 / len(vals))) * scale):
        mean = np.mean(chain)
        if max(abs(v - mean) for v in chain) <= max(tol, rounding ** (1 / len(chain))) * scale:
            groups.append(chain)
        else:
            groups += _linked_numpy(chain, tol * scale)
    groups.sort(key=lambda g: _order(g[0]))
    return [complex(np.mean(g)) for g in groups]


def test_cluster_gives_the_numpy_scalar_means_bit_for_bit():
    rng = np.random.default_rng(104)
    merged = 0
    for _ in range(3000):
        centers = rng.standard_normal(int(rng.integers(1, 4))) + 1j * rng.standard_normal(1)
        sizes = rng.integers(1, 4, size=len(centers))
        spread = 10.0 ** rng.uniform(-12, -2, size=int(sizes.sum()))
        vals = np.repeat(centers, sizes) + spread * (rng.standard_normal(len(spread)) + 1j * rng.standard_normal(len(spread)))
        rng.shuffle(vals)
        tol, scale = float(10.0 ** rng.integers(-9, -3)), float(rng.choice([1.0, 3.0, 1e3]))
        got = _cluster(vals, tol, scale)
        want = _cluster_numpy(vals, tol, scale)
        assert [(z.real, z.imag) for z in got] == [(z.real, z.imag) for z in want], (vals, tol, scale)
        assert all(type(z) is complex for z in got)
        merged += len(got) < len(vals)
    assert merged > 1000


# ---------------------------------------------------------------------------
# the structured ad-grading against the dense compression
# ---------------------------------------------------------------------------

GRADING_MODELS = [
    f"{group}({n}{field})"
    for n in range(1, 6)
    for group, field in (("GL", ",C"), ("SL", ",C"), ("U", ""), ("SU", ""), ("SL", ",R"))
] + [f"SU({p},{q})" for p in range(1, 4) for q in range(1, 5 - p)]


def _grading_inputs(real, rng):
    """(kind, a): random Hermitian a, repeated spectra, real and imaginary
    scalar shifts, theta-fixed a (J-block-diagonal on SU(p,q), also with
    off-diagonal blocks at 1e-12 of it; i times a real antisymmetric matrix,
    also with repeated rotation angles, on SL(n,R)), and non-Hermitian a."""
    n = real.n
    u = _unitary(rng, n)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (x + x.conj().T) / 2
    repeated = u @ np.diag(rng.integers(-2, 3, n).astype(float)) @ u.conj().T
    out = [("random", h), ("repeated", repeated), ("shift", h + 3.5 * np.eye(n)), ("i-shift", repeated + 2.25j * np.eye(n))]
    if real.signature is not None:
        p = real.signature[0]
        block = h.copy()
        block[:p, p:] = block[p:, :p] = 0
        diagonal = np.diag(rng.integers(-2, 3, n).astype(float)).astype(complex)
        split = 0.75j * np.diag([1.0] * p + [-1.0] * (n - p))  # ad kills it on h^C, not on m^C
        out += [
            ("J-block", block),
            ("J-diagonal", diagonal),
            ("J-block-shift", block + 1.5j * np.eye(n)),
            ("J-block-split", block + split),
            ("J-block-tiny-off", block + 1e-12 * (h - block)),
        ]
    if real.family == "SL_R":
        y = x.real
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        rotations = np.zeros((n, n))
        for k, angle in enumerate(rng.integers(-2, 3, n // 2).astype(float)):
            rotations[2 * k, 2 * k + 1], rotations[2 * k + 1, 2 * k] = angle, -angle
        out += [("i-antisymmetric", 1j * (y - y.T) / 2), ("rotations", 1j * q @ rotations @ q.T)]
    out += [("non-Hermitian", x), ("skew", 1j * h + 0.1 * repeated)]
    return out


def _grading_or_verdict(call):
    try:
        return call()
    except NotInCartan:
        return "NotInCartan"


@pytest.mark.parametrize("label", GRADING_MODELS)
def test_structured_grading_matches_the_dense_compression(label):
    real = build_realization(label)
    rng = np.random.default_rng(len(label) * 31 + real.n)
    for kind, a in _grading_inputs(real, rng):
        # every input is theta-fixed to 1e-12 or has an m^C part of order 1
        theta_fixed = hs_norm(real.project_mC(a)) <= 1e-6 * hs_norm(a)
        for space in SPACES:
            if real.real_form and space != "g^C" and not theta_fixed:
                # ad(a) leaves the theta-eigenspace, so the dense compression is no grading
                for call in (ad_eigendecompose, ad_grading):
                    with pytest.raises(NotThetaFixed):
                        call(real, a, space=space)
                continue
            # g^C of SL(n,C) is sl_n, the span of its h^C and its m^C, which are sl_n each
            dense_space = "h^C" if real.family == "SL_C" else space
            want = _grading_or_verdict(lambda: dense_eigendecompose(real, a, dense_space))
            got = _grading_or_verdict(lambda: ad_eigendecompose(real, a, space=space))
            graded = _grading_or_verdict(lambda: ad_grading(real, a, space=space))
            if want == "NotInCartan":
                assert got == graded == "NotInCartan", (label, kind, space)
                continue
            assert [len(b) for _, b in got] == [m for _, m in graded] == [len(b) for _, b in want], (label, kind, space)
            values = [lam for lam, _ in want]
            assert [lam for lam, _ in got] == [lam for lam, _ in graded]
            assert np.allclose([lam for lam, _ in got], values, rtol=0, atol=1e-12 * (1 + np.abs(values).max(initial=0)))
            # orthonormal eigenvectors of ad(a), inside the subspace
            stack = np.array([m for _, b in got for m in b]).reshape(-1, real.n * real.n)
            assert np.allclose(stack.conj() @ stack.T, np.eye(len(stack)), atol=1e-12)
            inside = {"h^C": real.in_hC, "m^C": real.in_mC, "g^C": lambda m: True}[space]
            for lam, basis in got:
                for m in basis:
                    assert hs_norm(comm(a, m) - lam * m) <= 1e-10 * (1 + hs_norm(a))
                    assert inside(m)


@pytest.mark.parametrize("n", range(1, 9))
def test_each_theta_orbit_lies_in_one_exact_c_group(n):
    # on h^C and m^C of SL(n,R) the grading pairs E_ij = u_i u_j^H with theta's
    # image -E_pi(j)pi(i), pi the pairing of the eigenvalues c -+ mu of a, and
    # reads the orbit's eigenvalue off its first member: both values must fall
    # in one group of the values at rounding level, at every scale of a
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, n))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    rotations = np.zeros((n, n))
    for k, angle in enumerate(rng.choice([0.25, 0.5, 1.0], n // 2)):
        rotations[2 * k, 2 * k + 1], rotations[2 * k + 1, 2 * k] = angle, -angle
    i, j = np.divmod(np.arange(n * n), n)
    for a in (1j * (x - x.T) / 2, 1j * q @ rotations @ q.T, 1j * rotations):
        for k in (-600, 0, 600):
            b = 2.0**k * a
            lam = np.linalg.eigvalsh(b / _pow2_of(b))
            gap = 64 * np.finfo(float).eps * max(1.0, np.abs(lam).max())
            p = int(np.count_nonzero(lam[::-1][: n // 2] - lam[: n // 2] > gap / 2))
            pi = np.concatenate([np.arange(n - 1, n - p - 1, -1), np.arange(p, n - p), np.arange(p - 1, -1, -1)])
            values = np.sort(lam[i] - lam[j])
            cuts = values[1:][np.diff(values) > gap]  # the least value of each group but the first
            group = np.searchsorted(cuts, lam[i] - lam[j], side="right")
            assert np.array_equal(group, np.searchsorted(cuts, lam[pi[j]] - lam[pi[i]], side="right")), (n, k)


@pytest.mark.parametrize("n", range(4, 8))
def test_theta_eigenbases_stay_orthonormal_beside_a_small_rotation(n):
    # a rotation angle mu far below ||a|| leaves eigh's eigenvectors of c -+ mu
    # mixed to about eps ||a|| / mu; the bases of h^C and m^C of SL(n,R) must
    # still be orthonormal, inside the subspace and eigenvectors of ad(a) (the
    # per-eigenspace SVD made them orthonormal only to 1.6e-4)
    real = build_realization(f"SL({n},R)")
    rng = np.random.default_rng(n)
    for mu in (30 * np.finfo(float).eps, 1e-13, 1e-10, 1e-6):
        rotations = np.zeros((n, n))
        rotations[0, 1], rotations[1, 0] = mu, -mu
        rotations[2, 3], rotations[3, 2] = 0.7, -0.7
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = 1j * q @ rotations @ q.T
        for space, inside, dim in (("h^C", real.in_hC, n * (n - 1) // 2), ("m^C", real.in_mC, n * (n + 1) // 2 - 1)):
            eig = ad_eigendecompose(real, a, space=space)
            stack = np.array([m.ravel() for _, basis in eig for m in basis])
            assert len(stack) == dim, (mu, space)
            assert np.allclose(stack.conj() @ stack.T, np.eye(dim), rtol=0, atol=1e-12), (mu, space)
            for lam, basis in eig:
                for m in basis:
                    assert inside(m, tol=1e-12), (mu, space)
                    assert hs_norm(comm(a, m) - lam * m) <= 1e-9, (mu, space)


@pytest.mark.parametrize("label", ["GL(3,C)", "SL(3,R)", "SU(2,1)", "SU(3)"])
def test_the_grading_refuses_a_non_hermitian_a_at_every_scale(label):
    real = build_realization(label)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((real.n, real.n)) + 1j * rng.standard_normal((real.n, real.n))
    # the check reads a at the power of two at its largest entry, so no scale
    # gets past it; on h^C of SL(3,R) and SU(2,1) the theta test refuses x first
    spaces = ["g^C", "h^C"] if real.real_form else ["g^C"]
    for c in (1.0, 2.0**300, 2.0**600, 2.0**-300, 2.0**-600):
        for space in spaces:
            with pytest.raises(NotInCartan):
                ad_grading(real, c * x, space=space)
    # a Hermitian a grades at 2^600 and at 2^-600 as at scale 1, since the
    # grading reads a at the power of two at its largest entry; on h^C of a
    # real form, its theta-fixed part
    h = (x + x.conj().T) / 2
    one = ad_grading(real, h, space="g^C")
    big = ad_grading(real, 2.0**600 * h, space="g^C", tol=0.0)
    assert [m for _, m in big] == [m for _, m in one]
    for space in spaces:
        b = h if space == "g^C" else h - real.project_mC(h)
        one = ad_grading(real, b, space=space)
        assert [m for _, m in ad_grading(real, 2.0**-600 * b, space=space)] == [m for _, m in one]
