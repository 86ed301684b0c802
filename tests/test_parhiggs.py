"""Pole orders, graded residue, gauges, stability, Hecke and genericity."""

import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parhodge import parhiggs
from parhodge.degree import FlagError, relative_degree_filtration
from parhodge.jsonio import SchemaError
from parhodge.liealg import rank_sequence
from parhodge.parhiggs import (
    GaugeReport,
    GenericityResult,
    LaurentTerm,
    MissingEigenbasis,
    InadmissiblePoles,
    NotInLattice,
    Puncture,
    ReductionCertificate,
    check_pole_orders,
    conjugate_laurent,
    coordinate_flag,
    coordinate_pairing,
    dumps,
    exp_pole_gauge,
    genericity_check,
    gr_res,
    hecke_apply,
    hecke_transform,
    is_parabolic_gauge,
    loads,
    make_data,
    pardeg_reduction,
    stability_check,
    validate,
)

E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = np.array([[0, 0], [1, 0]], dtype=complex)
H2 = np.array([[1, 0], [0, -1]], dtype=complex)

HALF = Fraction(1, 2)


def _sl2r_wall_data(q2_at_zero=0.0, n_punctures=3, genus=0):
    """Square root of K with weight -1/2: E = L + L^{-1}, phi = (0 q2; 1 0)."""
    terms = [(1, Fraction(1), E21)]
    if q2_at_zero:
        terms.append((1, Fraction(-1), q2_at_zero * E12))
    return make_data(
        genus=genus,
        realization="SL(2,R)",
        weights=[(-HALF, HALF)] * n_punctures,
        laurent=[list(terms)] * n_punctures,
        degrees=(genus - 1, 1 - genus),
    )


# ---------------------------------------------------------------------------
# pole orders
# ---------------------------------------------------------------------------


def test_pole_orders_wall_picture():
    # phi = (0 z phi+; phi-/z 0) dz/z with weight (1/2, -1/2)
    data = make_data(
        genus=0,
        realization="SL(2,R)",
        weights=[(HALF, -HALF)],
        laurent=[[(1, Fraction(1), 2.0 * E12), (-1, Fraction(-1), 3.0 * E21)]],
        degrees=(0, 0),
    )
    report = check_pole_orders(data, 0)
    assert report.kind == "parabolic"
    assert report.offenders == ()


def test_pole_orders_zero_field_is_strict():
    data = make_data(0, "SL(2,R)", [(HALF, -HALF)], [[]], (0, 0))
    assert check_pole_orders(data, 0).kind == "strictly_parabolic"


def test_pole_orders_inadmissible_names_component():
    data = make_data(
        0,
        "SL(2,R)",
        [(HALF, -HALF)],
        [[(-2, Fraction(-1), E21)]],
        (0, 0),
    )
    report = check_pole_orders(data, 0)
    assert report.kind == "inadmissible"
    assert report.offenders == ((Fraction(-1), -2),)


def test_pole_orders_rejects_wrong_eigencomponent():
    data = make_data(
        0,
        "SL(2,R)",
        [(HALF, -HALF)],
        [[(0, Fraction(1), E12 + E21)]],
        (0, 0),
    )
    with pytest.raises(MissingEigenbasis):
        check_pole_orders(data, 0)


@settings(max_examples=150, deadline=None)
@given(
    num=st.integers(-6, 6),
    den=st.integers(1, 4),
    order=st.integers(-3, 3),
)
def test_pole_orders_match_growth_exponent(num, den, order):
    # the (order k, eigenvalue mu) piece of |z|^{-alpha} phi |z|^{alpha} grows
    # like |z|^{k - mu}: admissible iff k >= mu, strictly decaying iff k > mu
    mu = Fraction(num, den)
    data = make_data(
        0,
        "GL(2,C)",
        [(mu / 2, -mu / 2)],
        [[(order, mu, E12)]],
        (0, 0),
    )
    kind = check_pole_orders(data, 0).kind
    if order < mu:
        assert kind == "inadmissible"
    elif order > mu:
        assert kind == "strictly_parabolic"
    else:
        assert kind == "parabolic"


# ---------------------------------------------------------------------------
# graded residue
# ---------------------------------------------------------------------------


def test_gr_res_wall_picture_frozen():
    data = make_data(
        0,
        "SL(2,R)",
        [(HALF, -HALF)],
        [[(1, Fraction(1), 2.0 * E12), (-1, Fraction(-1), 3.0 * E21), (2, Fraction(1), 7.0 * E12)]],
        (0, 0),
    )
    res = gr_res(data, 0)
    assert np.allclose(res.value, np.array([[0, 2], [3, 0]]))
    # [[0,2],[3,0]] is semisimple, so the nilpotent part vanishes
    assert np.allclose(res.nilpotent, 0)
    assert np.allclose(res.semisimple, res.value)
    assert np.allclose(res.torus_generator, np.diag([0.5, -0.5]))


def test_gr_res_levi_projection_interior_weight():
    # interior weight, simple pole: GrRes keeps only the ad(alpha)-invariant block
    data = make_data(
        0,
        "GL(2,C)",
        [(Fraction(1, 3), 0)],
        [[(0, Fraction(0), H2), (0, Fraction(-1, 3), E21)]],
        (0, 0),
    )
    res = gr_res(data, 0)
    assert np.allclose(res.value, H2)


def test_gr_res_zero_field():
    data = make_data(0, "GL(2,C)", [(0, 0)], [[]], (0, 0))
    assert np.allclose(gr_res(data, 0).value, 0)


def test_gr_res_requires_admissible_poles():
    data = make_data(0, "SL(2,R)", [(HALF, -HALF)], [[(-2, Fraction(-1), E21)]], (0, 0))
    with pytest.raises(InadmissiblePoles):
        gr_res(data, 0)


def test_gr_res_equivariant_under_pole_gauge():
    # g = exp(n/z) with n in ker(ad alpha + 1) sends GrRes to Ad(e^n) GrRes
    weight = (-HALF, HALF)
    data = make_data(0, "SL(2,R)", [weight], [[(1, Fraction(1), E21)]], (0, 0))
    c = 0.7
    n_mat = c * E12  # ad(alpha)-eigenvalue -1
    gauge = exp_pole_gauge(n_mat)
    assert is_parabolic_gauge(gauge, weight).bounded
    new_terms = conjugate_laurent(gauge, data.punctures[0].laurent, weight)
    data2 = make_data(
        0,
        "SL(2,R)",
        [weight],
        [[(t.order, t.eigenvalue, t.matrix) for t in new_terms]],
        (0, 0),
    )
    res2 = gr_res(data2, 0)
    expm = np.eye(2) + n_mat  # n is nilpotent of square zero
    expected = expm @ gr_res(data, 0).value @ np.linalg.inv(expm)
    assert np.allclose(res2.value, expected)
    # orbit invariants: still nilpotent with the regular rank sequence
    assert np.allclose(res2.semisimple, 0)
    assert rank_sequence(res2.nilpotent) == rank_sequence(gr_res(data, 0).nilpotent)


# ---------------------------------------------------------------------------
# parabolic gauge membership
# ---------------------------------------------------------------------------


def test_gauge_exp_pole_in_minus_one_eigenspace():
    gauge = exp_pole_gauge(E12)
    assert is_parabolic_gauge(gauge, (-HALF, HALF)).bounded


def test_exp_pole_gauge_reads_the_nilpotent_series():
    j3 = np.diag([1.0, 1.0], 1).astype(complex)
    gauge = exp_pole_gauge(2 * j3)
    assert [k for k, _ in gauge] == [0, -1, -2]
    for (_, got), want in zip(gauge, (np.eye(3), 2 * j3, 2 * j3 @ j3)):
        assert np.array_equal(got, want)
    for not_nilpotent in (np.eye(2), j3 + j3.T):
        with pytest.raises(ValueError, match="nilpotent"):
            exp_pole_gauge(not_nilpotent)


def test_gauge_holomorphic_with_value_in_parabolic():
    terms = [(0, np.eye(2) + 0.3 * E12), (1, E21)]
    assert is_parabolic_gauge(terms, (-HALF, HALF)).bounded


def test_gauge_pole_fails_for_interior_weight():
    report = is_parabolic_gauge(exp_pole_gauge(E12), (-Fraction(3, 10), Fraction(3, 10)))
    assert not report.bounded
    assert report.offenders == ((-1, Fraction(-3, 5)),)


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------


def test_teichmueller_lift_line_degree_exact():
    data = _sl2r_wall_data()
    # the line L itself: deg L - sum_i pairing = (g-1) + n/2
    value = pardeg_reduction(data, ReductionCertificate("L", chi=(Fraction(1), Fraction(0))))
    assert value == HALF


def test_teichmueller_lift_is_stable():
    data = _sl2r_wall_data()
    # phi = (0 0; 1 0): the only invariant line is the second summand
    row = ReductionCertificate("flag L^-1", chi=(Fraction(1), Fraction(-1)))
    verdict = stability_check(data, mode="certificate", reductions=[row])
    assert verdict.verdict == "stable"
    assert verdict.slope_table[0][2] == 1
    nilp = gr_res(data, 0).nilpotent
    assert rank_sequence(nilp) == (1, 0)  # regular nilpotent certificate


def test_unstable_split_bundle_witness():
    data = make_data(0, "GL(2,C)", [], None, (1, -1))
    row = ReductionCertificate("flag L", chi=(Fraction(-1), Fraction(1)))
    verdict = stability_check(data, mode="certificate", reductions=[row])
    assert verdict.verdict == "unstable"
    assert verdict.witness == "flag L"
    assert verdict.slope_table[0][2] == -2


def test_polystable_needs_levi_reduction():
    data = make_data(0, "GL(2,C)", [], None, (0, 0))
    row = ReductionCertificate("diag", chi=(Fraction(-1), Fraction(1)), levi_reduction=True)
    assert stability_check(data, "certificate", [row]).verdict == "polystable"
    row2 = ReductionCertificate("diag", chi=(Fraction(-1), Fraction(1)))
    assert stability_check(data, "certificate", [row2]).verdict == "strictly_semistable"


def test_incompatible_rows_are_skipped():
    data = make_data(0, "GL(2,C)", [], None, (1, -1))
    row = ReductionCertificate("flag L", chi=(Fraction(-1), Fraction(1)), phi_compatible=False)
    assert stability_check(data, "certificate", [row]).verdict == "stable"


@settings(max_examples=60, deadline=None)
@given(
    scale=st.integers(1, 7),
    chi0=st.integers(-3, 0),
    chi1=st.integers(1, 3),
    d0=st.integers(-2, 2),
    num=st.integers(-2, 2),
)
def test_pardeg_scales_linearly_in_character(scale, chi0, chi1, d0, num):
    data = make_data(0, "GL(2,C)", [(Fraction(num, 3), 0)], None, (d0, -d0))
    chi = (Fraction(chi0), Fraction(chi1))
    base = pardeg_reduction(data, ReductionCertificate("r", chi=chi))
    scaled = pardeg_reduction(
        data, ReductionCertificate("r", chi=tuple(scale * x for x in chi))
    )
    assert scaled == scale * base


_tied_values = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-1, 3), Fraction(1), Fraction(-2)])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(st.tuples(_tied_values, _tied_values), min_size=n, max_size=n)))
def test_coordinate_flags_pair_to_the_dot_product_of_their_weights(pairs):
    alpha, chi = zip(*pairs)
    a_steps, a_weights = coordinate_flag(alpha)
    chi_steps, chi_weights = coordinate_flag(chi)
    exact = relative_degree_filtration(a_steps, a_weights, chi_steps, chi_weights)
    assert coordinate_pairing(alpha, chi) == exact
    assert type(exact) is Fraction


def _counted_flag_pairings(monkeypatch) -> dict:
    calls = {"relative_degree_filtration": 0}
    inner = parhiggs.relative_degree_filtration

    def counted(*args):
        calls["relative_degree_filtration"] += 1
        return inner(*args)

    monkeypatch.setattr(parhiggs, "relative_degree_filtration", counted)
    return calls


def test_coordinate_flags_pair_without_the_flag_pairing(monkeypatch):
    calls = _counted_flag_pairings(monkeypatch)
    weights = [(Fraction(0), Fraction(1, 2)), (Fraction(1, 3), Fraction(0))]
    data = make_data(0, "GL(2,C)", weights, None, (1, -1))
    chi = (Fraction(1), Fraction(-1))
    value = pardeg_reduction(data, ReductionCertificate("r", chi=chi))
    assert calls["relative_degree_filtration"] == 0
    # deg(sigma, chi) = 1 + 1; the punctures pair to -1/2 and 1/3
    assert value == 2 - Fraction(-1, 2) - Fraction(1, 3)


def test_a_puncture_flag_still_takes_the_flag_pairing(monkeypatch):
    calls = _counted_flag_pairings(monkeypatch)
    flag = [[[1], [1]], [[1, 0], [1, 1]]]  # line through (1, 1), then C^2
    data = make_data(0, "GL(2,C)", [(Fraction(0), Fraction(1, 2))], None, (1, -1), flags=[flag])
    pardeg_reduction(data, ReductionCertificate("r", chi=(Fraction(1), Fraction(-1))))
    assert calls["relative_degree_filtration"] == 1


@pytest.mark.parametrize(
    "chi, message",
    [((1, -1, 0), "flag_b must end with the full space"), ((1,), "flag_b must end with the full space"), ((), "flags need at least one step")],
)
def test_a_chi_of_the_wrong_length_is_still_refused(chi, message):
    data = make_data(0, "GL(2,C)", [(Fraction(0), Fraction(1, 2))], None, (0, -1))
    with pytest.raises(FlagError, match=message):
        pardeg_reduction(data, ReductionCertificate("r", chi=tuple(Fraction(x) for x in chi)))


def test_exhaustive_small_stable_with_note():
    data = make_data(
        0,
        "GL(2,C)",
        [(Fraction(0), Fraction(0))],
        [[(0, Fraction(0), E21)]],
        (1, -1),
    )
    verdict = stability_check(data, mode="exhaustive_small")
    assert verdict.verdict == "stable"
    assert "bound" in verdict.note


def test_exhaustive_small_finds_coordinate_destabilizer():
    data = make_data(0, "GL(2,C)", [(Fraction(0), Fraction(0))], [[]], (0, 1))
    verdict = stability_check(data, mode="exhaustive_small")
    assert verdict.verdict == "unstable"
    assert verdict.witness == "coordinate 1"


def test_exhaustive_small_polystable_eigenline():
    residue = np.array([[1, 1], [1, 1]], dtype=complex)
    data = make_data(0, "GL(2,C)", [(Fraction(0), Fraction(0))], [[(0, Fraction(0), residue)]], (0, 0))
    verdict = stability_check(data, mode="exhaustive_small")
    assert verdict.verdict == "polystable"


# ---------------------------------------------------------------------------
# Hecke transforms
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    lam=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=3),
    wnum=st.integers(-2, 2),
)
def test_hecke_involution_exact(lam, wnum):
    weights = [(Fraction(wnum, 5), Fraction(-wnum, 5))] * len(lam)
    degrees = (2, -1)
    forward = hecke_transform(weights, lam, degrees)
    back = hecke_transform(forward.weights, [(-a, -b) for a, b in lam], forward.degrees)
    assert back.weights == tuple(tuple(Fraction(x) for x in w) for w in weights)
    assert back.degrees == tuple(Fraction(d) for d in degrees)


def test_hecke_identity():
    res = hecke_transform([(HALF, -HALF)], [(0, 0)], (1, 2))
    assert res.weights == ((HALF, -HALF),)
    assert res.degrees == (1, 2)


def test_hecke_lattice_rejection():
    with pytest.raises(NotInLattice):
        hecke_transform([(0, 0)], [(HALF, -HALF)], (0, 0), lattice="GL")
    with pytest.raises(NotInLattice):
        hecke_transform([(0, 0)], [(HALF, -HALF)], (0, 0), lattice="simply_connected")


def test_hecke_half_shift_in_adjoint_lattice():
    # the Teichmueller lift: weight -1/2 data moves to weight 0 at the cost
    # of twisting the degrees by half-integers
    data = _sl2r_wall_data()
    res = hecke_transform(
        [p.weight for p in data.punctures],
        [(HALF, -HALF)] * 3,
        data.summand_degrees,
        lattice="adjoint",
    )
    assert all(w == (0, 0) for w in res.weights)
    assert res.degrees == (HALF, -HALF)
    # pardeg of the line L is unchanged by the transform
    shifted = hecke_apply(data, [(HALF, -HALF)] * 3, lattice="adjoint")
    chi = (Fraction(1), Fraction(0))
    assert pardeg_reduction(shifted, ReductionCertificate("L", chi=chi)) == HALF


@settings(max_examples=50, deadline=None)
@given(
    d0=st.integers(-2, 2),
    d1=st.integers(-2, 2),
    a=st.integers(-2, 2),
    b=st.integers(-2, 2),
    w1=st.integers(-1, 1),
    w2=st.integers(-1, 1),
)
def test_hecke_preserves_stability_verdict(d0, d1, a, b, w1, w2):
    data = make_data(
        0,
        "GL(2,C)",
        [(Fraction(w1, 3), 0), (0, Fraction(w2, 4))],
        None,
        (d0, d1),
    )
    rows = [
        ReductionCertificate("first", chi=(Fraction(-1), Fraction(1))),
        ReductionCertificate("second", chi=(Fraction(1), Fraction(-1))),
    ]
    before = stability_check(data, "certificate", rows)
    after = stability_check(hecke_apply(data, [(a, b), (a, b)]), "certificate", rows)
    assert before.verdict == after.verdict
    assert [r[2] for r in before.slope_table] == [r[2] for r in after.slope_table]


# ---------------------------------------------------------------------------
# genericity
# ---------------------------------------------------------------------------


def test_genericity_zero_weights_hit_wall():
    res = genericity_check([(0, 0)])
    assert not res.generic
    assert res.character == "det"
    assert res.value == 0


def test_genericity_third_weight_is_generic():
    assert genericity_check([(Fraction(1, 3), 0)]).generic


def test_genericity_half_half_two_punctures_hits_det_wall():
    res = genericity_check([(HALF, HALF), (HALF, HALF)])
    assert not res.generic
    assert res.character == "det"
    assert res.value == 2


def test_genericity_subset_wall():
    # det sum 1/2 + 1/2 = 1 is integral only through the rank-1 sweep when
    # the total is non-integral: (1/2, 0) at two punctures has total 1
    res = genericity_check([(HALF, 0), (HALF, 0)])
    assert not res.generic


def _reference_genericity(weights, max_combinations=200000):
    """The product-order Fraction enumerator the residue sweep replaced, frozen as its oracle."""
    ws = [tuple(Fraction(v) for v in w) for w in weights]
    if not ws:
        return GenericityResult(generic=False, character="det", value=Fraction(0))
    n = len(ws[0])
    total = sum((sum(w, Fraction(0)) for w in ws), Fraction(0))
    if total.denominator == 1:
        return GenericityResult(generic=False, character="det", value=total)
    for k in range(1, n):
        g = math.gcd(n, k)
        per_puncture = [
            [sum((w[j] for j in subset), Fraction(0)) for subset in combinations(range(n), k)]
            for w in ws
        ]
        count = 1
        for choices in per_puncture:
            count *= len(choices)
        if count > max_combinations:
            raise ValueError("character sweep exceeds the combination budget")
        for pick in product(*per_puncture):
            v = n * sum(pick, Fraction(0)) - k * total
            if v % g == 0:
                return GenericityResult(
                    generic=False,
                    character=f"rank-{k} reduction slope equality",
                    value=v,
                )
    return GenericityResult(generic=True, character=None, value=None)


def _random_weights(rng, n, punctures, q=None):
    """Weights over one shared denominator q, or over mixed denominators 1..9."""
    if q is not None or rng.random() < 0.5:
        q = q or int(rng.choice([2, 3, 4, 6, 10, 12]))
        return [[Fraction(int(rng.integers(0, q)), q) for _ in range(n)] for _ in range(punctures)]
    return [
        [Fraction(int(rng.integers(0, 7)), int(rng.integers(1, 10))) for _ in range(n)]
        for _ in range(punctures)
    ]


def _plant(rng, weights, k):
    """Move one weight so that the rank-k slope equality holds on random subsets."""
    n = len(weights[0])
    subsets = [[int(j) for j in rng.choice(n, k, replace=False)] for _ in weights]
    moved = subsets[-1][0]
    weights[-1][moved] = Fraction(0)
    chosen = sum(w[j] for w, s in zip(weights, subsets) for j in s)
    total = sum(map(sum, weights))
    # n * (chosen + x) - k * (total + x) = gcd(n, k) * t
    t = int(rng.integers(-3, 4))
    weights[-1][moved] = (math.gcd(n, k) * t - n * chosen + k * total) / (n - k)


def test_genericity_matches_the_product_enumerator():
    rng = np.random.default_rng(2024)
    shapes = [
        (n, punctures)
        for n in range(2, 7)
        for punctures in range(1, 7)
        if max(math.comb(n, k) for k in range(1, n)) ** punctures <= 3000
    ]
    planted_hits = 0
    for _ in range(250):
        n, punctures = shapes[int(rng.integers(len(shapes)))]
        # plant at 2 <= k <= n/2: the rank-k and rank-(n-k) walls coincide (S <-> its
        # complement), and a prime denominator seldom meets a rank-1 wall first
        k = int(rng.integers(2, n // 2 + 1)) if n >= 4 and rng.random() < 0.5 else None
        weights = _random_weights(rng, n, punctures, q=None if k is None else 10007)
        if k is not None:
            _plant(rng, weights, k)
        got, want = genericity_check(weights), _reference_genericity(weights)
        assert (got, type(got.value)) == (want, type(want.value)), weights
        if k is not None and got.character not in (None, "det", "rank-1 reduction slope equality"):
            planted_hits += 1
    assert planted_hits >= 30


def test_genericity_budget_still_refuses_coprime_denominators():
    primes = [p for p in range(2, 200) if all(p % d for d in range(2, p))][:36]
    weights = [[Fraction(1, primes[6 * i + j]) for j in range(6)] for i in range(6)]
    # every C(6,k) <= 20 fits: the suffix residue sets outgrow the budget
    with pytest.raises(ValueError, match="suffix step .* max_combinations = 1000"):
        genericity_check(weights, max_combinations=1000)
    with pytest.raises(ValueError):
        _reference_genericity(weights, max_combinations=1000)


def test_genericity_decides_shared_denominators_past_the_product_count():
    # C(6,2)^3 = 3375 rank-2 picks overrun a budget of 1000, but the residues
    # live modulo gcd(6,2) * 2 = 4: no rank-1 wall (6 * sum is an integer, the
    # total is not), the rank-2 wall at the first pair that holds the half
    weights = [[HALF, 0, 0, 0, 0, 0]] + [[0] * 6] * 2
    with pytest.raises(ValueError):
        _reference_genericity(weights, max_combinations=1000)
    res = genericity_check(weights, max_combinations=1000)
    assert (res.generic, res.character, res.value) == (
        False, "rank-2 reduction slope equality", Fraction(2)
    )


@pytest.mark.parametrize("weights", [[(HALF, 0), (HALF,)], [(), ()], [()]])
def test_genericity_refuses_ragged_or_empty_rows(weights):
    with pytest.raises(ValueError, match="weight row"):
        genericity_check(weights)


# ---------------------------------------------------------------------------
# JSON round trip and validation
# ---------------------------------------------------------------------------


def test_json_round_trip():
    data = _sl2r_wall_data(q2_at_zero=0.25)
    text = dumps(data)
    back = loads(text)
    assert back.genus == data.genus
    assert back.summand_degrees == data.summand_degrees
    assert back.punctures[0].weight == data.punctures[0].weight
    for t1, t2 in zip(back.punctures[0].laurent, data.punctures[0].laurent):
        assert t1.order == t2.order
        assert t1.eigenvalue == t2.eigenvalue
        assert np.allclose(t1.matrix, t2.matrix)
    assert dumps(back) == text


def test_json_schema_errors_carry_location():
    with pytest.raises(SchemaError) as exc:
        loads("{}")
    assert "$.schema" in str(exc.value)
    good = dumps(_sl2r_wall_data())
    import json

    broken = json.loads(good)
    broken["punctures"][0]["laurent"]["terms"][0]["order"] = "one"
    with pytest.raises(SchemaError) as exc:
        loads(json.dumps(broken))
    assert "terms[0].order" in str(exc.value)


def test_validate_flags_bad_weight_and_eigencomponent():
    data = make_data(0, "GL(2,C)", [(Fraction(5, 2), 0)], [[]], (0, 0))
    problems = validate(data)
    assert any("alcove" in p for p in problems)
    data2 = make_data(0, "GL(2,C)", [(HALF, -HALF)], [[(0, Fraction(1), E12 + E21)]], (0, 0))
    assert any("eigenvector" in p for p in validate(data2))
    assert validate(_sl2r_wall_data()) == []


# ---------------------------------------------------------------------------
# type-A closed forms against the root-datum path they replace
# ---------------------------------------------------------------------------


def _diag_to_coroot(diag):
    """Diagonal coordinates to simple-coroot coordinates of the traceless part."""
    mean = sum(diag, Fraction(0)) / len(diag)
    central = [Fraction(d) - mean for d in diag]
    return [sum(central[: k + 1], Fraction(0)) for k in range(len(diag) - 1)]


@st.composite
def _rank_and_vector(draw):
    """A rank 2 <= n <= 13 and a rational vector whose entries share a few
    denominators, so that both sides of every lattice and alcove test occur."""
    n = draw(st.integers(2, 13))
    den = draw(st.sampled_from([1, 2, 3, n, 2 * n]))
    common = draw(st.integers(0, den - 1))
    entries = [
        Fraction(draw(st.integers(-2 * den, 2 * den)) if draw(st.booleans()) else common, den)
        + draw(st.integers(-1, 1))
        for _ in range(n)
    ]
    return n, entries


@settings(max_examples=300, deadline=None)
@given(_rank_and_vector())
def test_alcove_closed_form_matches_the_root_datum(case):
    from parhodge.cartan import alcove_membership, build_root_datum

    n, weight = case
    data = make_data(0, f"GL({n},C)", [tuple(weight)], [[]], (0,) * n)
    outside = any("alcove" in p for p in validate(data))
    coords = _diag_to_coroot(sorted(weight, reverse=True))
    kind = alcove_membership(build_root_datum("A", n - 1), coords).kind
    assert outside == (kind == "outside")


@settings(max_examples=300, deadline=None)
@given(_rank_and_vector(), st.sampled_from(["simply_connected", "adjoint"]))
def test_lattice_closed_forms_match_the_root_datum(case, lattice):
    from parhodge.cartan import build_root_datum, cochar_contains

    n, lam = case
    lam[-1] -= sum(lam, Fraction(0)) - round(sum(lam, Fraction(0)))  # integral central part
    try:
        hecke_transform([(0,) * n], [lam], (0,) * n, lattice=lattice)
        accepted = True
    except NotInLattice:
        accepted = False
    rd = build_root_datum("A", n - 1, lattice=lattice)
    assert accepted == cochar_contains(rd, _diag_to_coroot(lam))


def test_unknown_lattice_is_refused_at_every_rank():
    for n in (1, 2, 3):
        with pytest.raises(ValueError, match="unknown lattice"):
            hecke_transform([(0,) * n], [(0,) * n], (0,) * n, lattice="x")


def test_turn_defect_matches_the_conjugation_by_expm():
    from scipy.linalg import expm

    from parhodge.parhiggs import _turn_defect, alpha_matrix

    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 5):
        a_mat = alpha_matrix([Fraction(int(k), 6) for k in rng.integers(-9, 9, n)])
        u = expm(2j * np.pi * a_mat)
        v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        want = np.linalg.norm(u @ v @ np.linalg.inv(u) - v)
        assert abs(_turn_defect(a_mat, v) - want) < 1e-12 * (1 + want)
