import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from parhodge.liealg import (
    NotInvertible,
    NotInModel,
    NotNilpotent,
    SL2Triple,
    UnsupportedGroup,
    ZeroElement,
    ad_eigendecompose,
    build_realization,
    cayley_transform,
    comm,
    hs_norm,
    inverse_cayley_transform,
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
    # (x of JM(c^2 e)) is conjugate to (x of JM(e)): equal eigenvalue multisets
    gl4 = build_realization("GL(4,C)")
    rng = np.random.default_rng(3)
    e = np.triu(rng.standard_normal((4, 4)), k=1).astype(complex)
    t1 = jacobson_morozov(gl4, e)
    t2 = jacobson_morozov(gl4, 9.0 * e)
    v1 = np.sort(np.linalg.eigvals(t1.x).real)
    v2 = np.sort(np.linalg.eigvals(t2.x).real)
    assert np.allclose(v1, v2, atol=1e-7)


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


def test_normalize_ks_sl2r_closed_form():
    sl2r = build_realization("SL(2,R)")
    x = np.diag([1.0, -1.0]).astype(complex)
    e = np.array([[0, 1], [0, 0]], dtype=complex)
    f = np.array([[0, 0], [1, 0]], dtype=complex)
    out = normalize_kostant_sekiguchi(sl2r, SL2Triple(x, e, f, "plain"))
    assert out.flavor == "ks_real"
    assert hs_norm(sl2r.theta(out.e) + out.f) < 1e-10


def test_normalize_ks_descent_su11():
    # a ks_real triple in su(1,1), conjugated off normal form by a noncompact element
    su11 = build_realization("SU(1,1)")
    s = np.array([[0, 1], [1, 0]], dtype=complex)
    e = 0.5 * np.array([[1j, -1j], [1j, -1j]], dtype=complex)
    f = 0.5 * np.array([[-1j, -1j], [1j, 1j]], dtype=complex)
    validate_triple(su11, SL2Triple(s, e, f, "ks_real"))
    g = expm(0.3 * np.array([[0, -1j], [1j, 0]], dtype=complex))
    gi = np.linalg.inv(g)
    t = SL2Triple(g @ s @ gi, g @ e @ gi, g @ f @ gi, "plain")
    out = normalize_kostant_sekiguchi(su11, t)
    assert hs_norm(su11.theta(out.e) + out.f) < 1e-5


def test_normal_triple_torus_scaling():
    su11 = build_realization("SU(1,1)")
    x = np.diag([1.0, -1.0]).astype(complex)
    e = 3.0 * np.array([[0, 1], [0, 0]], dtype=complex)
    f = np.array([[0, 0], [1, 0]], dtype=complex) / 3.0
    out = normalize_kostant_sekiguchi(su11, SL2Triple(x, e, f, "normal"))
    assert out.flavor == "ks_normal"
    assert abs(abs(out.e[0, 1]) - 1.0) < 1e-10
    assert hs_norm(su11.sigma(out.e) - out.f) < 1e-10


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


def test_jordan_not_invertible():
    with pytest.raises(NotInvertible):
        jordan_multiplicative(np.diag([1.0, 0.0]))


def test_rank_sequence():
    e = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
    assert rank_sequence(e) == (2, 1, 0)


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
