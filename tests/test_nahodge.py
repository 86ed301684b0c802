"""Monodromy dictionary, Hitchin section, Toledo invariant, Milnor-Wood."""

import itertools
import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from test_residue_check import _draws

from parhodge.jsonio import SchemaError, parse_document
from parhodge.liealg import (
    NotNilpotent,
    NumericallyDefective,
    TripleCompletionFailure,
    build_realization,
    comm,
    hs_norm,
    SL2Triple,
    is_nilpotent,
    jacobson_morozov,
    jordan_multiplicative,
    normalize_kostant_sekiguchi,
    rank_sequence,
    validate_triple,
)
from parhodge.nahodge import (
    _JORDAN_TOL,
    BadTopology,
    CommutationFailure,
    NotHermitianType,
    PoleOrderViolation,
    canonical_alpha,
    complete_ks_triple,
    entry_from_json,
    entry_to_json,
    higgs_to_localsystem,
    hitchin_section,
    localsystem_to_higgs,
    milnor_wood_check,
    monodromy_factors,
    toledo_character,
    toledo_invariant,
    y_orbit_certificate,
)
from parhodge.parhiggs import (
    ReductionCertificate,
    check_pole_orders,
    gr_res,
    make_data,
    pardeg_reduction,
    stability_check,
)

E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = np.array([[0, 0], [1, 0]], dtype=complex)
U_PLUS = np.array([[1, -1j], [-1j, -1]], dtype=complex) / 2
U_MINUS = np.array([[1, 1j], [1j, -1]], dtype=complex) / 2
I2 = np.eye(2, dtype=complex)
Z2 = np.zeros((2, 2), dtype=complex)
HALF = Fraction(1, 2)
TWO_PI = 2 * math.pi


# ---------------------------------------------------------------------------
# forward translation
# ---------------------------------------------------------------------------


def test_trivial_entry_is_identity():
    entry = higgs_to_localsystem((0, 0), Z2, Z2, "GL(2,C)")
    assert np.allclose(entry.monodromy, I2)
    assert hs_norm(entry.beta) == 0
    assert entry.triple is None
    assert entry.y_certificate.rank_sequence == (0, 0)


def test_cusp_monodromy_is_unipotent_frozen():
    # Y = E21 in the su(1,1) model: the normalized triple is
    # (H, X, Y) = (diag(1,-1), E12, E21), N = Y - H - X = [[-1,-1],[1,1]],
    # and the monodromy is exactly I + 2*pi*i*N since N^2 = 0.
    entry = higgs_to_localsystem((0, 0), Z2, E21, "SU(1,1)")
    n_expected = np.array([[-1, -1], [1, 1]], dtype=complex)
    assert np.allclose(entry.nilpotent_log, n_expected, atol=1e-12)
    assert np.allclose(entry.monodromy, I2 + 2j * math.pi * n_expected, atol=1e-10)
    m = entry.monodromy
    assert np.allclose((m - I2) @ (m - I2), 0, atol=1e-9)
    assert not np.allclose(m, I2)
    assert np.allclose(entry.triple.x, np.diag([1, -1]), atol=1e-12)
    assert np.allclose(entry.triple.e, E12, atol=1e-12)
    assert np.allclose(entry.triple.f, E21, atol=1e-12)
    assert entry.y_certificate.component_signs == (-1,)


def test_wall_weight_gives_minus_unipotent():
    entry = higgs_to_localsystem((HALF, -HALF), Z2, U_PLUS, "SL(2,R)")
    assert np.allclose(entry.elliptic, -I2, atol=1e-12)
    minus_m = -entry.monodromy
    assert np.allclose((minus_m - I2) @ (minus_m - I2), 0, atol=1e-9)


def test_triple_normalization_invariants():
    # X = -tau(Y'), H Hermitian-diagonal, and every factor pair commutes.
    entry = higgs_to_localsystem((0, 0), Z2, 3.0j * E21, "SU(1,1)")
    t = entry.triple
    assert np.allclose(t.e, -build_realization("SU(1,1)").tau(t.f), atol=1e-10)
    assert abs(hs_norm(t.f) - 1) < 1e-10  # unit scale, phase kept
    assert np.allclose(t.f, 1j * E21, atol=1e-10)
    for a, b in ((entry.elliptic, entry.hyperbolic), (entry.elliptic, entry.unipotent), (entry.hyperbolic, entry.unipotent)):
        assert hs_norm(a @ b - b @ a) < 1e-10
    assert is_nilpotent(entry.nilpotent_log)


def test_scaled_nilpotent_same_certificate():
    e1 = higgs_to_localsystem((0, 0), Z2, E21, "SU(1,1)")
    e2 = higgs_to_localsystem((0, 0), Z2, 7.5 * E21, "SU(1,1)")
    assert np.allclose(e1.monodromy, e2.monodromy, atol=1e-10)
    assert e1.y_certificate.rank_sequence == e2.y_certificate.rank_sequence
    assert e1.y_certificate.component_signs == e2.y_certificate.component_signs


def test_incompatible_residue_data_raises():
    with pytest.raises(CommutationFailure):
        higgs_to_localsystem((Fraction(1, 3), 0), np.array([[0, 1], [1, 0]], complex), Z2, "GL(2,C)")
    with pytest.raises(CommutationFailure):
        # exp(2 pi i alpha) = diag(i, -i) conjugates E21 to -E21
        higgs_to_localsystem((Fraction(1, 4), -Fraction(1, 4)), Z2, E21, "SU(1,1)")


def test_hyperbolic_factor_frozen():
    s = np.diag([0.2 + 0.1j, -0.4]).astype(complex)
    g_e, g_h, g_u, n = monodromy_factors((Fraction(1, 3), 0), s, None, "GL(2,C)")
    assert np.allclose(g_h, np.diag([math.exp(0.4 * math.pi), 1.0]), atol=1e-12)
    assert np.allclose(g_e, np.diag(np.exp(2j * math.pi * np.array([1 / 3, 0]))), atol=1e-14)
    assert hs_norm(n) == 0 and np.allclose(g_u, I2)


def test_convention_flag_changes_factor_type():
    # anti-Hermitian s: the default scaling gives a positive Hermitian
    # hyperbolic factor, the literal scaling gives a unitary one.
    s = np.array([[0, 0.3], [-0.3, 0]], dtype=complex)
    _, g_h_default, _, _ = monodromy_factors((0, 0), s, None, "GL(2,C)", convention="2pi_i")
    _, g_h_literal, _, _ = monodromy_factors((0, 0), s, None, "GL(2,C)", convention="2pi")
    assert np.allclose(g_h_default, g_h_default.conj().T, atol=1e-12)
    assert np.min(np.linalg.eigvalsh(g_h_default)) > 0
    assert np.allclose(g_h_literal @ g_h_literal.conj().T, I2, atol=1e-12)


# ---------------------------------------------------------------------------
# inverse translation
# ---------------------------------------------------------------------------


def test_identity_monodromy_recovers_zeros():
    entry = localsystem_to_higgs(I2, "GL(2,C)")
    assert entry.alpha == (0.0, 0.0)
    assert hs_norm(entry.s) < 1e-12
    assert entry.y_certificate.rank_sequence == (0, 0)
    assert entry.branch_warnings == ()


def test_minus_identity_hits_the_branch_wall():
    entry = localsystem_to_higgs(-I2, "GL(2,C)")
    assert entry.alpha == (0.5, 0.5)
    assert entry.branch_warnings
    assert hs_norm(entry.s) < 1e-12
    assert entry.y_certificate.rank_sequence == (0, 0)


def test_unipotent_block_recovers_regular_orbit():
    entry = localsystem_to_higgs(np.array([[1, 1], [0, 1]], dtype=complex), "GL(2,C)")
    assert entry.alpha == (0.0, 0.0)
    assert hs_norm(entry.s) < 1e-12
    assert entry.y_certificate.rank_sequence == (1, 0)
    assert entry.y_certificate.component_signs is None
    assert is_nilpotent(entry.nilpotent_log)


def test_real_unipotent_monodromies_pick_orbit_sides():
    # the two nilpotent orbits exponentiate to the two shear directions
    plus = higgs_to_localsystem((0, 0), Z2, U_PLUS, "SL(2,R)")
    minus = higgs_to_localsystem((0, 0), Z2, U_MINUS, "SL(2,R)")
    assert np.allclose(plus.monodromy, I2 + 4 * math.pi * E21, atol=1e-9)
    assert np.allclose(minus.monodromy, I2 - 4 * math.pi * E21, atol=1e-9)
    for fwd in (plus, minus):
        back = localsystem_to_higgs(fwd.monodromy, "SL(2,R)")
        assert back.y_certificate.component_signs == fwd.y_certificate.component_signs
        assert back.y_certificate.rank_sequence == (1, 0)


def test_beta_carries_the_hermitian_part():
    # a Hermitian s leaves no trace in the monodromy; it rides on beta
    s = np.diag([0.3, -0.2]).astype(complex)
    fwd = higgs_to_localsystem((0, 0), s, Z2, "GL(2,C)")
    assert np.allclose(fwd.hyperbolic, I2, atol=1e-12)
    bare = localsystem_to_higgs(fwd.monodromy, "GL(2,C)")
    assert hs_norm(bare.s) < 1e-10
    weighted = localsystem_to_higgs(fwd.monodromy, "GL(2,C)", beta=fwd.beta)
    assert np.allclose(weighted.s, s, atol=1e-10)


def test_hyperbolic_frame_guard():
    # positive spectrum but a non-Hermitian hyperbolic factor: not in the
    # image of any harmonic frame, so the rebuild check must refuse it
    shear = np.array([[1, 1], [0, 1]], dtype=complex)
    m = shear @ np.diag([2.0, 0.5]) @ np.linalg.inv(shear)
    with pytest.raises(NumericallyDefective):
        localsystem_to_higgs(m, "GL(2,C)")


def test_beta_model_checks():
    from parhodge.liealg import NotInModel

    with pytest.raises(NotInModel):
        localsystem_to_higgs(I2, "GL(2,C)", beta=np.array([[1j, 0], [0, 0]]))
    with pytest.raises(CommutationFailure):
        localsystem_to_higgs(
            np.diag([2j, 0.5]).astype(complex), "GL(2,C)", beta=np.array([[0, 1], [1, 0]], complex)
        )


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------


def _hyp_exponents(s: np.ndarray) -> np.ndarray:
    """Real log-eigenvalues of the hyperbolic factor over 2*pi.

    The dictionary resolves the factors only when these stay apart (cluster
    tolerance) and bounded (the monodromy must remain well-conditioned)."""
    return np.linalg.eigvalsh(-1j * (-s + s.conj().T))


def _tame_hyperbolic(s: np.ndarray, need_gap: bool = True) -> bool:
    t = _hyp_exponents(s)
    if float(np.max(np.abs(t))) > 0.75:
        return False
    return not need_gap or float(t[-1] - t[0]) > 1e-2


def _random_higgs_instance(model: str, rng: np.random.Generator):
    """(alpha, s, y) drawn from the commuting families of one model."""

    def weight(lo=-0.49, hi=0.49):
        return round(float(rng.uniform(lo, hi)), 3)

    def cnormal(scale=0.35):
        return scale * complex(rng.normal(), rng.normal())

    kind = rng.integers(0, 3)
    if model == "GL(2,C)":
        if kind == 0:  # distinct weights, diagonal s
            a = weight()
            b = weight()
            while abs(a - b) < 5e-3:
                b = weight()
            alpha = (a, b)
            s = np.diag([cnormal(), cnormal()])
            while not _tame_hyperbolic(s, need_gap=False):
                s = np.diag([cnormal(), cnormal()])
            y = Z2
        elif kind == 1:  # central weight, full s
            a = weight()
            alpha = (a, a)
            s = np.array([[cnormal(), cnormal()], [cnormal(), cnormal()]])
            while not _tame_hyperbolic(s):
                s = np.array([[cnormal(), cnormal()], [cnormal(), cnormal()]])
            y = Z2
        else:  # integer weight gap, central s, nilpotent residue
            a = weight()
            alpha = (a, a + 1)
            s = cnormal() * I2
            y = cnormal(1.0) * (E21 if rng.integers(0, 2) else E12)
    elif model == "SU(1,1)":
        if kind == 0:  # central weight, off-diagonal semisimple s
            a = weight()
            alpha = (a, a)

            def draw():
                b, c = cnormal(), cnormal()
                return np.array([[0, b], [c, 0]], dtype=complex)

            s = draw()
            while abs(s[0, 1] * s[1, 0]) < 1e-2 or not _tame_hyperbolic(s):
                s = draw()
            y = Z2
        elif kind == 1:  # generic diagonal weight, nothing else
            alpha = (weight(), weight())
            s = Z2
            y = Z2
        else:  # wall weight with a nilpotent residue
            alpha = (HALF, -HALF) if rng.integers(0, 2) else (0, 0)
            s = Z2
            y = cnormal(1.0) * (E21 if rng.integers(0, 2) else E12)
    elif model == "SL(2,R)":
        if kind == 0:  # generic diagonal weight, diagonal s in the model
            alpha = (weight(), weight())
            p = cnormal()
            s = np.array([[p, 0], [0, -p]], dtype=complex)
            while not _tame_hyperbolic(s):
                p = cnormal()
                s = np.array([[p, 0], [0, -p]], dtype=complex)
            y = Z2
        elif kind == 1:  # central weight, full symmetric traceless s
            a = weight()
            alpha = (a, a)

            def draw():
                p, q = cnormal(), cnormal()
                return np.array([[p, q], [q, -p]], dtype=complex)

            s = draw()
            while abs(np.trace(s @ s)) < 1e-2 or not _tame_hyperbolic(s):
                s = draw()
            y = Z2
        else:
            alpha = (HALF, -HALF) if rng.integers(0, 2) else (0, 0)
            s = Z2
            y = cnormal(1.0) * (U_PLUS if rng.integers(0, 2) else U_MINUS)
    else:
        raise ValueError(model)
    return alpha, s, y


def _sorted_spectrum(m: np.ndarray):
    return sorted(np.linalg.eigvals(m), key=lambda z: (round(z.real, 9), round(z.imag, 9)))


@pytest.mark.parametrize("model", ["GL(2,C)", "SU(1,1)", "SL(2,R)"])
def test_round_trip_recovers_invariants(model):
    rng = np.random.default_rng(20260815)
    for _ in range(12):
        alpha, s, y = _random_higgs_instance(model, rng)
        fwd = higgs_to_localsystem(alpha, s, y, model)
        back = localsystem_to_higgs(fwd.monodromy, model, beta=fwd.beta)
        want = canonical_alpha(alpha)
        assert max(abs(a - b) for a, b in zip(back.alpha, want)) < 1e-8
        got_spec = _sorted_spectrum(back.s)
        want_spec = _sorted_spectrum(s)
        assert max(abs(a - b) for a, b in zip(got_spec, want_spec)) < 1e-8
        assert back.y_certificate.rank_sequence == fwd.y_certificate.rank_sequence
        assert back.y_certificate.component_signs == fwd.y_certificate.component_signs


def test_round_trip_reproduces_factors():
    rng = np.random.default_rng(7)
    for model in ("GL(2,C)", "SU(1,1)", "SL(2,R)"):
        alpha, s, y = _random_higgs_instance(model, rng)
        fwd = higgs_to_localsystem(alpha, s, y, model)
        back = localsystem_to_higgs(fwd.monodromy, model, beta=fwd.beta)
        for ours, theirs in (
            (fwd.elliptic, back.elliptic),
            (fwd.hyperbolic, back.hyperbolic),
            (fwd.unipotent, back.unipotent),
        ):
            assert hs_norm(ours - theirs) < 1e-8 * (1 + hs_norm(ours))


def test_round_trip_literal_convention():
    # the literal scaling is self-consistent on the real families
    fwd = higgs_to_localsystem((0, 0), Z2, U_MINUS, "SL(2,R)", convention="2pi")
    back = localsystem_to_higgs(fwd.monodromy, "SL(2,R)", convention="2pi")
    assert back.y_certificate.component_signs == fwd.y_certificate.component_signs
    assert max(abs(a) for a in back.alpha) < 1e-10


def _jordan_audit(entry) -> list[str]:
    """The check higgs_to_localsystem ran under the default convention before
    it trusted its factors: the names of those that differ from the
    multiplicative Jordan split of their product by more than 1e-8 relative."""
    jf = jordan_multiplicative(entry.monodromy, tol=_JORDAN_TOL)
    return [
        name
        for name, ours, theirs in (
            ("elliptic", entry.elliptic, jf.elliptic),
            ("hyperbolic", entry.hyperbolic, jf.hyperbolic),
            ("unipotent", entry.unipotent, jf.unipotent),
        )
        if hs_norm(ours - theirs) > 1e-8 * (1 + hs_norm(ours))
    ]


def test_the_factors_are_the_multiplicative_jordan_split():
    # exp(2 pi i alpha) is elliptic, the hyperbolic factor positive Hermitian,
    # the unipotent one unipotent, and the residue check makes the three
    # commute, so by uniqueness they are the split of their product: on the
    # families of the round-trip gate, and on GL(3,C) and SU(2,1), the
    # split agrees with them on every draw, scalar alpha or not
    rng = np.random.default_rng(26)
    draws = [(model, *_random_higgs_instance(model, rng)) for model in ("GL(2,C)", "SU(1,1)", "SL(2,R)") for _ in range(200)]
    draws += [(model, *draw) for model in ("GL(3,C)", "SU(2,1)") for _ in range(40) for draw in _draws(rng, model)]
    scalar = Counter()
    for model, alpha, s, y in draws:
        assert _jordan_audit(higgs_to_localsystem(alpha, s, y, model)) == [], (model, alpha, s, y)
        scalar[model, len(set(alpha)) == 1] += 1
    assert len(scalar) == 10  # every model, with scalar and with non-scalar alpha


def test_the_split_fails_where_it_cannot_resolve_a_close_hyperbolic_pair():
    # a unipotent block beside two hyperbolic eigenvalues at a relative gap
    # of 1e-3 .. 1e-9: the numerical split merges or misplaces them, and
    # the audit exited 4 on 41 of these 200 inputs; the factors the
    # translation builds are exact, commute and multiply to the monodromy.
    # The inverse translation reads the misplaced split as a nilpotent log
    # that is no nilpotent or has no normalized triple, and refuses it
    rng = np.random.default_rng(3)
    failed = Counter()
    back = Counter()
    for d in range(3, 13):
        for _ in range(10):
            z = 0.3 * complex(*rng.standard_normal(2))
            w = z + 10.0**-d * complex(*rng.standard_normal(2))
            a, b = (round(float(x), 3) for x in rng.uniform(-0.49, 0.49, 2))
            for alpha in ((a, a, a), (a, b, a)):
                y = np.zeros((3, 3), dtype=complex)
                y[2, 0] = complex(*rng.standard_normal(2))
                entry = higgs_to_localsystem(alpha, np.diag([z, w, z]), y, "GL(3,C)")
                factors = (entry.elliptic, entry.hyperbolic, entry.unipotent)
                for left, right in itertools.combinations(factors, 2):
                    assert hs_norm(comm(left, right)) <= 1e-12
                assert np.array_equal(entry.monodromy, factors[0] @ factors[1] @ factors[2])
                if _jordan_audit(entry):
                    failed[d] += 1
                try:
                    localsystem_to_higgs(entry.monodromy, "GL(3,C)", beta=entry.beta)
                    back["recovered"] += 1
                except (NotNilpotent, TripleCompletionFailure) as exc:
                    back[type(exc).__name__] += 1
    assert sum(failed.values()) == 41 and max(failed) <= 9
    assert back == {"recovered": 155, "TripleCompletionFailure": 43, "NotNilpotent": 2}


@pytest.mark.parametrize("model", ["GL(3,C)", "SL(3,C)"])
def test_regular_nilpotent_rank_three(model):
    # the monodromy is a single unipotent 3-block; its computed eigenvalues
    # scatter by about eps^(1/3) * |g|, far beyond the Jordan tolerance
    y = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
    fwd = higgs_to_localsystem((0, 0, 0), np.zeros((3, 3)), y, model)
    i3 = np.eye(3)
    scale = 1 + hs_norm(fwd.monodromy)
    assert hs_norm(fwd.elliptic - i3) < 1e-8 and hs_norm(fwd.hyperbolic - i3) < 1e-8
    assert hs_norm(fwd.unipotent - fwd.monodromy) < 1e-8 * scale
    assert fwd.y_certificate.rank_sequence == (2, 1, 0)
    back = localsystem_to_higgs(fwd.monodromy, model, beta=fwd.beta)
    assert max(abs(a) for a in back.alpha) < 1e-8
    assert hs_norm(back.s) < 1e-8
    assert back.y_certificate.rank_sequence == (2, 1, 0)
    for part in ("elliptic", "hyperbolic", "unipotent", "nilpotent_log"):
        ours, theirs = getattr(fwd, part), getattr(back, part)
        assert hs_norm(ours - theirs) < 1e-8 * (1 + hs_norm(ours))


@pytest.mark.parametrize("model", ["SU(2,1)", "SL(3,R)"])
def test_round_trip_rank_three_nilpotent(model):
    # here N = Y - H - X has a part in h^C; the inverse must split it off
    # before completing the triple through Y
    rng = np.random.default_rng(21)
    for k in range(6):
        c = complex(rng.normal(), rng.normal())
        a = float(rng.uniform(-0.4, 0.4))
        if model == "SU(2,1)":
            y = np.zeros((3, 3), dtype=complex)
            y[2, 0] = c
            alpha = (HALF, a, -HALF) if k % 2 else (0, a, 0)
        else:
            y = c * np.pad(U_PLUS if k % 2 else U_MINUS, ((0, 1), (0, 1)))
            alpha = (0, 0, 0)
        fwd = higgs_to_localsystem(alpha, np.zeros((3, 3)), y, model)
        back = localsystem_to_higgs(fwd.monodromy, model, beta=fwd.beta)
        assert max(abs(p - q) for p, q in zip(back.alpha, canonical_alpha(alpha))) < 1e-8
        assert back.y_certificate.rank_sequence == fwd.y_certificate.rank_sequence
        for part in ("x", "e", "f"):
            assert hs_norm(getattr(back.triple, part) - getattr(fwd.triple, part)) < 1e-8


def test_section_residue_translates_in_the_block_frame():
    data = hitchin_section("SL2R", 0, 3)
    res = gr_res(data, 0)
    weight = data.punctures[0].weight
    # the section's residues are off-diagonal: that is the block frame
    entry = higgs_to_localsystem(weight, res.semisimple, res.nilpotent, "SU(1,1)")
    assert entry.realization == "SU(1,1)"
    assert np.allclose(entry.elliptic, -I2, atol=1e-12)  # wall weight
    assert entry.y_certificate.rank_sequence == (1, 0)
    assert entry.y_certificate.component_signs == (-1,)
    with pytest.raises(TripleCompletionFailure):
        # E21 is not in the symmetric frame
        higgs_to_localsystem(weight, res.semisimple, res.nilpotent, data.realization)


# ---------------------------------------------------------------------------
# triples and certificates
# ---------------------------------------------------------------------------


def test_complete_ks_triple_balanced_gl3_chain():
    y = (1 + 1j) * np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=complex)
    t = complete_ks_triple(build_realization("GL(3,C)"), y)
    real = build_realization("GL(3,C)")
    assert np.allclose(t.e, -real.tau(t.f), atol=1e-9)
    assert rank_sequence(t.f) == (2, 1, 0)


def test_complete_ks_triple_unbalanced_chain_refused():
    y = np.array([[0, 0, 0], [1, 0, 0], [0, 2, 0]], dtype=complex)
    with pytest.raises(TripleCompletionFailure):
        complete_ks_triple(build_realization("GL(3,C)"), y)


@pytest.mark.parametrize("label", ["SL(2,R)", "SU(1,1)"])
def test_rank_one_closed_form_matches_jacobson_morozov(label):
    # the closed form against the path it replaced: Jacobson-Morozov through
    # y, flipped to a normal triple, then the torus normalization
    real = build_realization(label)
    rng = np.random.default_rng(2)
    for _ in range(40):
        (_, line) = real.eigenlines[rng.integers(2)]
        y = 10 ** rng.uniform(-3, 3) * np.exp(2j * math.pi * rng.uniform()) * line
        plain = jacobson_morozov(y)
        flipped = SL2Triple(x=-plain.x, e=plain.f, f=y, flavor="normal")
        oracle = normalize_kostant_sekiguchi(real, flipped)
        t = complete_ks_triple(real, y)
        for got, want in ((t.x, oracle.x), (t.e, oracle.e), (t.f, oracle.f)):
            assert hs_norm(got - want) <= 1e-12 * hs_norm(want)


@pytest.mark.parametrize("label", ["SL(2,R)", "SU(1,1)"])
@pytest.mark.parametrize("c", [2.0**600, 2.0**-600, 1.0, 3.7])
def test_rank_one_closed_form_is_a_normalized_triple(label, c):
    # the closed form returns its triple without a check: here is the check,
    # on each eigenline at random unit phases and at scales far from 1
    real = build_realization(label)
    rng = np.random.default_rng(600)
    for _, line in real.eigenlines:
        for _ in range(25):
            phi = np.exp(2j * math.pi * rng.uniform())
            t = complete_ks_triple(real, c * phi * line)
            assert t.flavor == "ks_normal"
            validate_triple(real, t, 1e-9)
            assert np.array_equal(t.e, -real.tau(t.f))


@pytest.mark.parametrize("c", [1.0, 1e200, 1e-200])
def test_complete_ks_triple_membership_check_does_not_see_the_scale(c):
    # E21 is not symmetric, so it is outside the m^C model of SL(2,R); read
    # at the scale of y, the membership tolerance 1e-8 (1 + |y|) used to wave
    # it through at |c| = 1e200 (inf) and at |c| = 1e-200 (above |y|)
    with pytest.raises(TripleCompletionFailure, match="m\\^C model"):
        complete_ks_triple(build_realization("SL(2,R)"), c * E21)


def test_complete_ks_triple_rejects_nonnilpotent():
    with pytest.raises(TripleCompletionFailure):
        complete_ks_triple(build_realization("GL(2,C)"), np.diag([1.0, -1.0]))


def test_y_orbit_certificate_signs():
    real = build_realization("SU(1,1)")
    assert y_orbit_certificate(real, E12).component_signs == (1,)
    assert y_orbit_certificate(real, E21).component_signs == (-1,)
    assert y_orbit_certificate(real, Z2).rank_sequence == (0, 0)
    real_r = build_realization("SL(2,R)")
    assert y_orbit_certificate(real_r, U_PLUS).component_signs == (1,)
    assert y_orbit_certificate(real_r, U_MINUS).component_signs == (-1,)


# ---------------------------------------------------------------------------
# JSON records
# ---------------------------------------------------------------------------


def test_entry_json_round_trip_is_byte_stable():
    def dumps(entry):
        return json.dumps(entry_to_json(entry), sort_keys=True, separators=(",", ":"))

    entry = higgs_to_localsystem((HALF, -HALF), Z2, U_PLUS, "SL(2,R)")
    text = dumps(entry)
    parsed = entry_from_json(parse_document(text))
    assert dumps(parsed) == text
    assert parsed.convention == "2pi_i"
    assert parsed.y_certificate.rank_sequence == (1, 0)
    assert np.allclose(parsed.monodromy, entry.monodromy)


def test_entry_json_schema_errors_carry_locations():
    entry = higgs_to_localsystem((0, 0), Z2, Z2, "GL(2,C)")
    obj = entry_to_json(entry)
    bad = dict(obj)
    bad["schema"] = "nope"
    with pytest.raises(SchemaError) as exc:
        entry_from_json(bad)
    assert exc.value.location == "$.schema"
    bad = dict(obj)
    bad["convention"] = "3pi"
    with pytest.raises(SchemaError) as exc:
        entry_from_json(bad)
    assert exc.value.location == "$.convention"
    bad = dict(obj)
    bad["local"] = {k: v for k, v in obj["local"].items() if k != "nilpotent_log"}
    with pytest.raises(SchemaError) as exc:
        entry_from_json(bad)
    assert exc.value.location == "$.local.nilpotent_log"


# ---------------------------------------------------------------------------
# the section
# ---------------------------------------------------------------------------


def test_section_rank_two_matches_the_wall_instance():
    data = hitchin_section("SL2R", 0, 3)
    assert [check_pole_orders(data, i).kind for i in range(3)] == ["parabolic"] * 3
    assert data.punctures[0].weight == (-HALF, HALF)
    assert data.summand_degrees == (Fraction(-1), Fraction(1))
    line = ReductionCertificate(label="flag L", chi=(Fraction(1), Fraction(0)), phi_compatible=False)
    assert pardeg_reduction(data, line) == HALF
    split = ReductionCertificate(label="split", chi=(Fraction(1), Fraction(-1)), phi_compatible=True)
    assert stability_check(data, reductions=[split]).verdict == "stable"


def test_section_quadratic_differential_terms():
    data = hitchin_section("SL2R", 0, 3, q_terms=[[(2, 0, 1.5)], [], [(2, 2, -0.5j)]])
    assert check_pole_orders(data, 0).kind == "parabolic"
    res = gr_res(data, 0)
    assert rank_sequence(res.nilpotent) == (1, 0)  # q2 never touches the residue
    assert any(t.order == 0 and t.matrix[0, 1] == 1.5 for t in data.punctures[0].laurent)


def test_section_pole_order_violations():
    with pytest.raises(PoleOrderViolation):
        hitchin_section("SL2R", 0, 3, q_terms=[[(2, -1, 1.0)], [], []])
    with pytest.raises(PoleOrderViolation):
        hitchin_section("SLnR_principal", 0, 3, rank=3, q_terms=[[(3, 0, 1.0)], [], []])
    with pytest.raises(ValueError):
        hitchin_section("SL2R", 0, 3, q_terms=[[(3, 1, 1.0)], [], []])


@pytest.mark.parametrize("mode", ["SL2R", "SLnR_principal"])
def test_random_sections_have_parabolic_poles_and_a_regular_residue(mode):
    # what hitchin_section builds and does not check again: differentials at
    # every admissible order, with coefficients from 1e-300 to 1e300, never
    # reach the graded residue, which stays the subdiagonal of ones
    rng = np.random.default_rng(23 if mode == "SL2R" else 29)
    lowest = 0 if mode == "SL2R" else 1  # one above the eigenvalue of entry (0, j-1)
    for _ in range(40):
        n = 2 if mode == "SL2R" else int(rng.integers(2, 8))
        punctures = int(rng.integers(1, 4))
        q_terms = [
            [
                (
                    int(rng.integers(2, n + 1)),
                    lowest + int(rng.integers(0, 3)),
                    complex(*rng.standard_normal(2)) * 10.0 ** int(rng.integers(-300, 301)),
                )
                for _ in range(int(rng.integers(0, 4)))
            ]
            for _ in range(punctures)
        ]
        data = hitchin_section(mode, 1, punctures, q_terms=q_terms, rank=n)
        for i in range(punctures):
            assert check_pole_orders(data, i).kind == "parabolic"
            assert rank_sequence(gr_res(data, i).nilpotent) == tuple(range(n - 1, -1, -1))


def test_section_bad_topology():
    with pytest.raises(BadTopology):
        hitchin_section("SL2R", 0, 2)
    with pytest.raises(BadTopology):
        hitchin_section("SLnR_principal", 1, 0, rank=3)


def test_section_principal_rank_three():
    data = hitchin_section("SLnR_principal", 0, 3, rank=3)
    assert [check_pole_orders(data, i).kind for i in range(3)] == ["parabolic"] * 3
    assert data.summand_degrees == (Fraction(-2), Fraction(0), Fraction(2))
    assert data.punctures[0].weight == (0, 0, 0)
    res = gr_res(data, 0)
    assert rank_sequence(res.nilpotent) == (2, 1, 0)
    data_q = hitchin_section(
        "SLnR_principal", 1, 1, rank=3, q_terms=[[(2, 1, 2.0), (3, 2, 1 + 1j)]]
    )
    assert check_pole_orders(data_q, 0).kind == "parabolic"
    assert rank_sequence(gr_res(data_q, 0).nilpotent) == (2, 1, 0)


# ---------------------------------------------------------------------------
# Toledo invariant and Milnor-Wood
# ---------------------------------------------------------------------------


def test_toledo_character_frozen():
    assert toledo_character(1, 1) == (Fraction(1), Fraction(-1))
    assert toledo_character(2, 2) == (Fraction(1),) * 2 + (Fraction(-1),) * 2
    assert toledo_character(1, 2) == (Fraction(4, 3), Fraction(-2, 3), Fraction(-2, 3))
    assert sum(toledo_character(3, 2)) == 0


def test_toledo_zero_data():
    data = make_data(1, "SU(1,1)", [(0, 0)], [[]], (0, 0))
    assert toledo_invariant(data) == 0


def test_toledo_maximal_section():
    data = hitchin_section("SL2R", 0, 3)
    tau = toledo_invariant(data)
    assert tau == 1  # = 2g - 2 + n
    report = milnor_wood_check(data)
    assert report.ok and report.margins == (Fraction(1), Fraction(0))
    assert report.rank_minus == 1 and report.rank_plus == 0


def test_toledo_sign_flips_under_block_swap():
    data = hitchin_section("SL2R", 0, 3)
    swapped = make_data(
        0,
        "SU(1,1)",
        [tuple(reversed(p.weight)) for p in data.punctures],
        [
            [(t.order, -t.eigenvalue, t.matrix[::-1, ::-1].copy()) for t in p.laurent]
            for p in data.punctures
        ],
        tuple(reversed(data.summand_degrees)),
    )
    assert toledo_invariant(swapped) == -toledo_invariant(data)


def test_toledo_additive_on_direct_sums():
    a = make_data(1, "SU(1,1)", [(Fraction(1, 4), -Fraction(1, 4))], [[]], (2, -1))
    b = make_data(1, "SU(1,1)", [(Fraction(1, 3), 0)], [[]], (0, 1))
    tau_a, tau_b = toledo_invariant(a), toledo_invariant(b)
    summed = make_data(
        1,
        "SU(2,2)",
        [(Fraction(1, 4), Fraction(1, 3), -Fraction(1, 4), 0)],
        [[]],
        (2, 0, -1, 1),
    )
    assert toledo_invariant(summed) == tau_a + tau_b


def test_toledo_rejects_non_hermitian_realizations():
    data = hitchin_section("SLnR_principal", 0, 3, rank=3)
    with pytest.raises(NotHermitianType):
        toledo_invariant(data)


def test_milnor_wood_trivial_and_explicit_bound():
    data = make_data(1, "SU(1,1)", [(0, 0)], [[]], (0, 0))
    report = milnor_wood_check(data, rank_plus=1, rank_minus=1)
    assert report.ok and report.tau == 0 and report.margins == (Fraction(1), Fraction(1))
    # genus 1, one puncture: window is [-1, 1]
    data = make_data(1, "SU(1,1)", [(Fraction(1, 4), -Fraction(1, 4))], [[]], (1, 0))
    report = milnor_wood_check(data, rank_plus=1, rank_minus=1)
    assert report.tau == HALF
    assert report.ok and report.margins == (Fraction(3, 2), HALF)


def test_milnor_wood_violation_reports_side():
    data = make_data(0, "SU(1,1)", [(0, 0)] * 3, [[(1, Fraction(1), E21)]] * 3, (3, -3))
    report = milnor_wood_check(data)
    assert not report.ok and report.side == "upper"
    assert report.tau == 6 and report.rank_minus == 1


def test_milnor_wood_on_certificate_semistable_family():
    # pull the wall weights of the rank-(1,1) section inward and apply
    # common shifts: every instance stays semistable for the off-diagonal
    # reduction and inside the window
    rng = np.random.default_rng(3)
    base = hitchin_section("SL2R", 0, 3)
    split = ReductionCertificate(label="split", chi=(Fraction(1), Fraction(-1)), phi_compatible=True)
    for _ in range(20):
        eps = [Fraction(int(rng.integers(0, 5)), 16) for _ in range(3)]
        shift = Fraction(int(rng.integers(-2, 3)))
        weights = [(-HALF + e + shift, HALF - e + shift) for e in eps]
        data = make_data(
            0,
            "SU(1,1)",
            weights,
            [[(t.order, t.eigenvalue, t.matrix) for t in p.laurent] for p in base.punctures],
            tuple(d + 3 * shift for d in base.summand_degrees),
        )
        if stability_check(data, reductions=[split]).verdict == "unstable":
            continue
        report = milnor_wood_check(data)
        assert report.ok
        assert report.tau == 1 - 2 * sum(eps)
