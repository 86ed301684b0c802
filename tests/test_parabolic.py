import json
import time
import tracemalloc

import numpy as np
import pytest

from grading_oracle import dense_eigendecompose, dense_levi_centralizer_tilde, model_basis

from parhodge.cli import cli_dispatch

from parhodge.liealg import NotThetaFixed, Realization, ad_eigendecompose, ad_grading, build_realization, comm, hs_norm
from parhodge.parabolic import (
    ParabolicDatum,
    levi_centralizer_tilde,
    p1_subalgebra,
    parabolic_from,
    parabolic_grading,
)

# the compact torus of SL(2,R) in its split frame, which is not diagonal
SL2R_TORUS = np.array([[0, 1j], [-1j, 0]], dtype=complex)


def chi_vanishing_defect(real: Realization, datum: ParabolicDatum) -> float:
    """Max |chi_s| over n_s and over brackets of the Levi basis (should be ~0)."""
    worst = 0.0
    for b in datum.n_basis:
        worst = max(worst, abs(datum.chi(b)))
    for i, a in enumerate(datum.l_basis):
        for b in datum.l_basis[i + 1 :]:
            worst = max(worst, abs(datum.chi(comm(a, b))))
    return worst


def test_parabolic_from_sl2r_unit_vector():
    sl2r = build_realization("SL(2,R)")
    s = np.array([[1, 0], [0, -1]], dtype=complex) / np.sqrt(2)
    datum = parabolic_from(sl2r, s)
    # Borel-type: 2-dimensional, with 1-dimensional Levi and nilradical
    assert len(datum.p_basis) == 2
    assert len(datum.l_basis) == 1
    assert len(datum.n_basis) == 1
    assert chi_vanishing_defect(sl2r, datum) < 1e-10


def test_parabolic_from_gl3_two_block():
    gl3 = build_realization("GL(3,C)")
    s = np.diag([1.0, 1.0, 0.0]).astype(complex)
    datum = parabolic_from(gl3, s)
    # block sizes (2,1): Levi gl_2 x gl_1 is 5-dimensional, nilradical 2-dimensional
    assert len(datum.l_basis) == 5
    assert len(datum.n_basis) == 2
    assert chi_vanishing_defect(gl3, datum) < 1e-9


def test_p1_empty_iff_interior():
    sl2r = build_realization("SL(2,R)")
    # interior weight: |2a| < 1
    assert p1_subalgebra(sl2r, 0.25 * SL2R_TORUS) == []
    # wall weight a = 1/2: the -1 eigenspace of ad(alpha) on h^C is nonzero
    gl2 = build_realization("GL(2,C)")
    q1 = p1_subalgebra(gl2, np.diag([0.5, -0.5]).astype(complex))
    assert len(q1) == 1
    # the direction is the lowered root vector E21
    assert abs(q1[0][1, 0]) > 0.9


def test_p1_of_a_theta_fixed_wall_weight_of_sl3r():
    # alpha = i (E12 - E21) grades the antisymmetric h^C as -1, 0, 1, one
    # dimension each, and the -1 direction is a gauge direction
    real = build_realization("SL(3,R)")
    alpha = np.zeros((3, 3), dtype=complex)
    alpha[0, 1], alpha[1, 0] = 1j, -1j
    grading = ad_grading(real, alpha, space="h^C")
    assert [m for _, m in grading] == [1, 1, 1]
    assert np.allclose([lam for lam, _ in grading], [-1.0, 0.0, 1.0], rtol=0, atol=1e-12)
    (m,) = p1_subalgebra(real, alpha)
    assert real.in_hC(m)
    assert hs_norm(comm(alpha, m) + m) <= 1e-10


def test_p1_refuses_a_split_weight_of_sl3r():
    # diag(1/2, 0, -1/2) is not theta-fixed, so ad of it leaves h^C: no
    # grading of h^C exists, and none is made up
    real = build_realization("SL(3,R)")
    alpha = np.diag([0.5, 0.0, -0.5]).astype(complex)
    with pytest.raises(NotThetaFixed):
        p1_subalgebra(real, alpha)
    for space in ("h^C", "m^C"):
        with pytest.raises(NotThetaFixed):
            ad_eigendecompose(real, alpha, space=space)


@pytest.mark.parametrize("label", ["GL(3,C)", "SU(2,1)", "SL(3,R)"])
def test_the_grading_does_not_see_the_scale_of_s(label):
    # s is graded over the power of two at its largest entry, and so is the
    # zero cut between l_s and n_s: 2^k s grades as s, eigenvalues times 2^k
    real = build_realization(label)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    s = (x + x.conj().T) / 2
    if label == "SL(3,R)":
        s = 1j * (x.real - x.real.T) / 2  # theta-fixed, so h^C and m^C grade too
    spaces = ["g^C", "h^C", "m^C"] if label == "SL(3,R)" else ["g^C"]
    for space in spaces:
        one = parabolic_grading(real, s, space)
        ref = ad_grading(real, s, space=space)
        for k in (-600, -300, -30, 0, 30, 300, 600):
            got = ad_grading(real, 2.0**k * s, space=space)
            assert [m for _, m in got] == [m for _, m in ref], (space, k)
            want = 2.0**k * np.array([lam for lam, _ in ref])
            assert np.allclose([lam for lam, _ in got], want, rtol=0, atol=1e-12 * np.abs(want).max())
            scaled = parabolic_grading(real, 2.0**k * s, space)
            assert (scaled.dim_l, scaled.dim_n) == (one.dim_l, one.dim_n), (space, k)


def test_levi_centralizer_wall_is_everything():
    # alpha with root value exactly 1: e^{2 pi i alpha} = -1 is central,
    # so the twisted centralizer in m^C is all of m^C
    sl2r = build_realization("SL(2,R)")
    alpha = 0.5 * SL2R_TORUS
    m0, stab = levi_centralizer_tilde(sl2r, alpha)
    assert len(m0) == len(model_basis(sl2r, "m^C")) == 2
    assert len(stab) == len(model_basis(sl2r, "h^C")) == 1


def test_levi_centralizer_interior_is_kernel():
    gl2 = build_realization("GL(2,C)")
    alpha = np.diag([0.25, 0.0]).astype(complex)
    m0, stab = levi_centralizer_tilde(gl2, alpha)
    # only the diagonal survives on both sides
    assert len(m0) == 2
    assert len(stab) == 2


def _projector(basis: list[np.ndarray]) -> np.ndarray:
    """The orthogonal projector onto the span of the vectorized basis."""
    if not basis:
        return np.zeros((0, 0))
    q, _ = np.linalg.qr(np.stack([m.ravel() for m in basis]).T)
    return q @ q.conj().T


def _wall_weights(delta: float) -> list[tuple[str, np.ndarray]]:
    """Weights whose ad on h^C has the eigenvalue -1 - delta: E21 of GL(2,C)
    and of the first block of SU(2,1), and a theta-fixed rotation of SL(3,R)."""
    rotation = np.zeros((3, 3), dtype=complex)
    rotation[0, 1], rotation[1, 0] = 1j, -1j
    return [
        ("GL(2,C)", np.diag([0.5 + delta / 2, -0.5 - delta / 2]).astype(complex)),
        ("SU(2,1)", np.diag([0.5 + delta / 2, -0.5 - delta / 2, 0.0]).astype(complex)),
        ("SL(3,R)", (1 + delta) * rotation),
    ]


@pytest.mark.parametrize("delta", [1e-6, 1e-8, 1e-10])
def test_the_gauge_directions_lie_in_the_stabilizer(delta):
    # p1_subalgebra and the stabilizer read one wall tolerance: where p1 finds
    # alpha on the wall, its gauge directions n/z lie in the algebra of the
    # stabilizer; near the wall, at 1e-6, p1 is empty
    for label, alpha in _wall_weights(delta):
        real = build_realization(label)
        p1 = p1_subalgebra(real, alpha)
        _, stab = levi_centralizer_tilde(real, alpha)
        assert len(p1) == (delta < 1e-7), (label, delta)
        outside = np.eye(real.n**2) - _projector(stab)
        for m in p1:
            assert np.linalg.norm(outside @ m.ravel()) <= 1e-8, (label, delta)


def _torus_weights(real, rng) -> list[tuple[str, np.ndarray]]:
    """Theta-fixed weights alpha: generic, on walls, and zero.  On SL(n,R)
    alpha = i Q R Q^T for rotation blocks R, at random angles and at +-1/2
    and +-1/4; on SU(p,q) J-block-diagonal; a random unitary frame elsewhere."""
    n = real.n

    def frame(d):
        if real.family == "SL_R":
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            rotations = np.zeros((n, n))
            for k, angle in enumerate(d[: n // 2]):
                rotations[2 * k, 2 * k + 1], rotations[2 * k + 1, 2 * k] = angle, -angle
            return 1j * q @ rotations @ q.T
        blocks = [(0, n)] if real.signature is None else [(0, real.signature[0]), (real.signature[0], n)]
        out = np.zeros((n, n), dtype=complex)
        for start, stop in blocks:
            x = rng.standard_normal((stop - start,) * 2) + 1j * rng.standard_normal((stop - start,) * 2)
            u, _ = np.linalg.qr(x)
            out[start:stop, start:stop] = u @ np.diag(d[start:stop]) @ u.conj().T
        return out

    return [
        ("generic", frame(rng.uniform(-1.5, 1.5, n))),
        ("half-wall", frame(rng.choice([-0.5, 0.5], n))),
        ("quarter-wall", frame(rng.choice([-0.5, -0.25, 0.25, 0.5], n))),
        ("integer-wall", frame(rng.integers(-2, 3, n).astype(float))),
        ("zero", np.zeros((n, n), dtype=complex)),
    ]


TORUS_MODELS = [
    f"{group}({n}{field})"
    for n in range(1, 7)
    for group, field in (("GL", ",C"), ("SL", ",C"), ("U", ""), ("SU", ""), ("SL", ",R"))
] + [f"SU({p},{q})" for p in range(1, 6) for q in range(1, 7 - p)]


@pytest.mark.parametrize("label", TORUS_MODELS)
def test_levi_centralizer_matches_the_dense_fixed_space(label):
    # the integer ad(alpha)-eigenspaces are the fixed spaces of Ad(e^{2 pi i alpha})
    real = build_realization(label)
    rng = np.random.default_rng(real.n * 17 + len(label))
    for kind, alpha in _torus_weights(real, rng):
        for got, want in zip(levi_centralizer_tilde(real, alpha), dense_levi_centralizer_tilde(real, alpha)):
            assert len(got) == len(want), (label, kind)
            if not got:
                continue
            assert np.linalg.norm(_projector(got) - _projector(want)) <= 1e-8, (label, kind)
            stack = np.stack([m.ravel() for m in got])
            assert np.allclose(stack.conj() @ stack.T, np.eye(len(got)), rtol=0, atol=1e-10), (label, kind)


def test_levi_centralizer_refuses_a_weight_that_is_not_theta_fixed():
    # ad(alpha) leaves h^C and m^C of a real form unless theta(alpha) = alpha;
    # diag(1/2, 0, -1/2) of SL(3,R) is refused too, although e^{2 pi i alpha}
    # = diag(-1, 1, -1) happens to lie in K, where the dense compression gave
    # correct fixed spaces
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    for label in ("SL(3,R)", "SU(2,1)"):
        with pytest.raises(NotThetaFixed):
            levi_centralizer_tilde(build_realization(label), (x + x.conj().T) / 2)
    with pytest.raises(NotThetaFixed):
        levi_centralizer_tilde(build_realization("SL(3,R)"), np.diag([0.5, 0.0, -0.5]).astype(complex))


# the tracemalloc peaks of one call measured at alpha = 0, in MB (the wall
# weights below peak lower); the dense compression took 40-70 ms on each
LEVI_PEAK_MB = {"SL(24,R)": 12.8, "SU(12,12)": 5.6, "GL(16,C)": 2.44}


@pytest.mark.parametrize("label", sorted(LEVI_PEAK_MB))
def test_the_levi_centralizer_stays_cubic(label):
    real = build_realization(label)
    n = real.n
    wall = np.zeros((n, n), dtype=complex)
    angles = [0.5, 0.25, -0.5, -0.25] * (n // 4)
    if real.family == "SL_R":  # rotation blocks at 1/2 and 1/4
        for k in range(n // 2):
            wall[2 * k, 2 * k + 1], wall[2 * k + 1, 2 * k] = 1j * angles[k], -1j * angles[k]
    else:
        wall[np.diag_indices(n)] = angles
    for alpha in (np.zeros((n, n), dtype=complex), wall):
        levi_centralizer_tilde(real, alpha)  # warm
        start = time.perf_counter()
        levi_centralizer_tilde(real, alpha)
        seconds = time.perf_counter() - start
        tracemalloc.start()
        try:
            levi_centralizer_tilde(real, alpha)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seconds < 0.25, (label, seconds)
        assert peak <= 2 * LEVI_PEAK_MB[label] * 2**20, (label, peak)


# ---------------------------------------------------------------------------
# the cost contract of the `parabolic` command
# ---------------------------------------------------------------------------


def _parabolic(tmp_path, label, s, space="g^C"):
    source, out = tmp_path / "input.json", tmp_path / "report.json"
    source.write_text(json.dumps({"realization": label, "s": np.stack([s.real, s.imag], -1).tolist(), "space": space}))
    return cli_dispatch(["parabolic", "--input", str(source), "--output", str(out)])


def _hermitian(rng, n, block=None):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    s = (x + x.conj().T) / 2
    if block is not None:  # commutes with J = diag(1_p, -1_q)
        s[:block, block:] = s[block:, :block] = 0
    return s


def _cost(tmp_path, label, s, space="g^C"):
    """(exit code, report, wall seconds, tracemalloc peak bytes) of one warm run."""
    _parabolic(tmp_path, label, s, space)  # warm: parser, imports, caches
    start = time.perf_counter()
    code, report = _parabolic(tmp_path, label, s, space)
    seconds = time.perf_counter() - start
    tracemalloc.start()
    try:
        _parabolic(tmp_path, label, s, space)
        return code, report, seconds, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [8, 16, 24, 32, 40])
def test_the_structured_grading_stays_cubic(tmp_path, n):
    # the dense compression held n^2 matrices of n^2 entries (41 MB at
    # n = 40) and took 0.49 s at n = 24; ceilings are generous for a shared host
    rng = np.random.default_rng(n)
    for label in (f"GL({n},C)", f"SL({n},R)", f"SU({n})", f"SU({n // 2},{n - n // 2})"):
        s = _hermitian(rng, n)
        code, report, seconds, peak = _cost(tmp_path, label, s)
        assert code == 0, report.get("error")
        assert report["outputs"]["dim_p"]["value"] + report["outputs"]["dim_n"]["value"] >= n * n - 1
        assert seconds < 0.5, (label, seconds)
        assert peak < 4 * 2**20, (label, peak)


def test_the_grading_of_a_j_commuting_s_has_no_bound_on_n(tmp_path):
    rng = np.random.default_rng(2)
    n = 24
    s = _hermitian(rng, n, block=n // 2)
    for space in ("h^C", "m^C"):
        code, report, seconds, peak = _cost(tmp_path, f"SU({n // 2},{n - n // 2})", s, space)
        assert code == 0, report.get("error")
        assert seconds < 0.5 and peak < 4 * 2**20, (space, seconds, peak)


def _theta_fixed(rng, label, n):
    """A Hermitian s with theta(s) = s: i times a real antisymmetric matrix on
    SL(n,R); on SU(p,q) a J-block s whose off-diagonal blocks are below the
    theta test, 1e-12 of it, but not zero."""
    if label.startswith("SL"):
        x = rng.standard_normal((n, n))
        return 1j * (x - x.T) / 2
    p = n // 2
    off = _hermitian(rng, n)
    off[:p, :p] = off[p:, p:] = 0
    return _hermitian(rng, n, block=p) + 1e-12 * off


@pytest.mark.parametrize("n", [8, 16, 24, 32, 40])
def test_the_theta_fixed_grading_stays_cubic(tmp_path, n):
    # h^C and m^C of SL(n,R) and SU(p,q) grade off one n x n eigh, as g^C does;
    # the ceilings are those of the g^C sweep
    rng = np.random.default_rng(3)
    for space in ("h^C", "m^C"):
        for label in (f"SL({n},R)", f"SU({n // 2},{n - n // 2})"):
            code, report, seconds, peak = _cost(tmp_path, label, _theta_fixed(rng, label, n), space)
            assert code == 0, report.get("error")
            assert seconds < 0.5 and peak < 4 * 2**20, (label, space, seconds, peak)


@pytest.mark.parametrize("space", ["h^C", "m^C"])
def test_a_zero_s_grades_past_n_16(tmp_path, space):
    # s = 0 is theta-fixed at every n: ad(0) grades the whole space at 0
    code, report = _parabolic(tmp_path, "SL(17,R)", np.zeros((17, 17), dtype=complex), space)
    assert code == 0, report.get("error")
    dim = 17 * 16 // 2 if space == "h^C" else 17 * 18 // 2 - 1
    assert report["outputs"]["eigenvalues"]["value"] == [0.0]
    assert report["outputs"]["dim_l"]["value"] == dim


@pytest.mark.parametrize("space", ["h^C", "m^C"])
def test_parabolic_refuses_an_s_whose_ad_leaves_the_subspace(tmp_path, space):
    # ad(s) maps h^C and m^C of SL(3,R) into themselves only when theta(s) = s;
    # otherwise no grading of them exists and the command refuses s
    rng = np.random.default_rng(11)
    for c in (1.0, 2.0**600, 2.0**-600):
        for label in ("SL(3,R)", "SU(2,1)"):
            code, report = _parabolic(tmp_path, label, c * _hermitian(rng, 3), space)
            assert code == 3
            assert report["error"]["location"] == "$.s"
            assert report["error"]["message"] == (
                f"$.s: ad(s) preserves {space} only when theta(s) = s; this s has a part in m^C"
            )
            assert report["outputs"] == {}


@pytest.mark.parametrize("space", ["h^C", "m^C"])
def test_a_theta_fixed_s_is_graded_as_before(tmp_path, space):
    # the theta-fixed s of SL(3,R) keeps the grading of the dense compression
    # (grading_oracle), which is an honest one: each eigenvector m of it has
    # [s, m] = lambda m; the closed form agrees with it to rounding
    rng = np.random.default_rng(12)
    real = build_realization("SL(3,R)")
    for _ in range(5):
        s = _theta_fixed(rng, "SL", 3)
        want = dense_eigendecompose(real, s, space)
        for lam, basis in want:
            for m in basis:
                assert np.linalg.norm(comm(s, m) - lam * m) < 1e-10
        code, report = _parabolic(tmp_path, "SL(3,R)", s, space)
        assert code == 0, report.get("error")
        got = report["outputs"]["eigenvalues"]["value"]
        assert len(got) == len(want)
        assert np.allclose(got, [lam for lam, _ in want], rtol=0, atol=1e-12)
        assert report["outputs"]["dim_l"]["value"] == sum(len(b) for lam, b in want if abs(lam) <= 1e-9)
