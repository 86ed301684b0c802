import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, logm

from parhodge.liealg import (
    SPACES,
    NotInvertible,
    NotInModel,
    NotNilpotent,
    SL2Triple,
    UnsupportedGroup,
    ZeroElement,
    _exp_hermitian,
    _exp_nilpotent,
    _restricted,
    ad_eigendecompose,
    build_realization,
    cayley_transform,
    comm,
    hs_norm,
    inverse_cayley_transform,
    is_nilpotent,
    jacobson_morozov,
    jordan_additive,
    jordan_multiplicative,
    kostant_sekiguchi_orbit_map,
    normalize_kostant_sekiguchi,
    rank_sequence,
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
    for m in sl2r.basis_mC():
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
    a = gl3.cartan_element([0.5, 0.0, 0.0])
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
    t = jacobson_morozov(gl3, e)
    # regular nilpotent: neutral element has eigenvalues (2, 0, -2)
    vals = sorted(np.linalg.eigvals(t.x).real)
    assert np.allclose(vals, [-2, 0, 2], atol=1e-8)
    validate_triple(gl3, t)


def test_jacobson_morozov_mixed_block_and_errors():
    gl3 = build_realization("GL(3,C)")
    e = np.zeros((3, 3), dtype=complex)
    e[0, 1] = 3.0  # one 2-block and one 1-block
    t = jacobson_morozov(gl3, e)
    validate_triple(gl3, t)
    vals = sorted(np.linalg.eigvals(t.x).real)
    assert np.allclose(vals, [-1, 0, 1], atol=1e-8)
    with pytest.raises(ZeroElement):
        jacobson_morozov(gl3, np.zeros((3, 3)))
    with pytest.raises(NotNilpotent):
        jacobson_morozov(gl3, np.eye(3))


def test_jacobson_morozov_scaling_covariance():
    # (x of JM(c e)) is conjugate to (x of JM(e)): equal eigenvalue multisets,
    # and scaling the triple of c e back by 1/c gives a triple through e
    gl4 = build_realization("GL(4,C)")
    rng = np.random.default_rng(3)
    e = np.triu(rng.standard_normal((4, 4)), k=1).astype(complex)
    t1 = jacobson_morozov(gl4, e)
    v1 = np.sort(np.linalg.eigvals(t1.x).real)
    for c in (1e-12, 1e-8, 9.0, 1e8):
        t2 = jacobson_morozov(gl4, c * e)
        v2 = np.sort(np.linalg.eigvals(t2.x).real)
        assert np.allclose(v1, v2, atol=1e-7)
        validate_triple(gl4, t2.scaled(1 / c), tol=1e-7)


def test_cayley_transform_round_trip():
    sl2r = build_realization("SL(2,R)")
    x = np.array([[0, -1], [-1, 0]], dtype=complex)
    e = 0.5 * np.array([[1, 1], [-1, -1]], dtype=complex)
    f = e.T.copy()
    ks = SL2Triple(x, e, f, "ks_real")
    validate_triple(sl2r, ks)
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
@pytest.mark.parametrize("scale", [1e-8, 1.0, 2**0.51, 1e8])
@pytest.mark.parametrize("n", [2, 5, 10, 16, 17, 20, 64])
def test_long_jordan_blocks_at_every_scale(n, scale):
    # the k-th power of a Jordan block keeps spectral norm 1 for k < n, while
    # its Frobenius-normalized power shrinks like (n - 1)^(-k/2)
    e = scale * jordan_block(n)
    assert rank_sequence(e) == tuple(range(n - 1, -1, -1))
    gl = build_realization(f"GL({n},C)")
    t = jacobson_morozov(gl, e)
    validate_triple(gl, t.scaled(1 / scale), tol=1e-7)
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
        jacobson_morozov(None, cycle)


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
    t = jacobson_morozov(gl, e)
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
        basis = (real.basis_hC() if space != "m^C" else []) + (real.basis_mC() if space != "h^C" else [])
        eig = ad_eigendecompose(real, s, space=space)
        if not basis:
            assert eig == []
            continue
        for apply in (ad, twist):
            q, op = _restricted(basis, apply)
            q_ref, op_ref = restricted_by_columns(basis, apply)
            assert np.array_equal(q, q_ref)
            assert np.allclose(op, op_ref, rtol=0, atol=1e-13 * (1 + np.abs(op_ref).max()))
            if apply is ad:
                got = [lam for lam, mats in eig for _ in mats]
                assert np.allclose(got, np.linalg.eigvalsh(op_ref), rtol=0, atol=1e-12)


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
