"""The exact kernels on integer numerators against their ``Fraction`` forms.

``cartan.alcove_normalize`` scales the point once by the lcm of its
denominators and runs every k of its search on ``int`` numerators;
``parhiggs.coordinate_pairing`` sums integer numerators over lcm(u) * lcm(v).
Here they meet the ``Fraction`` code they replace: the old alcove loop, kept
verbatim in ``star_oracle``, and plain ``Fraction`` sums for the pairing and
the sums that read through it (``pardeg_reduction``, ``toledo_invariant``,
``hecke_transform``).  Two ratchets count ``Fraction`` constructions, so no
timing decides that the loops stay on integers.
"""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import star_oracle
from parhodge.cartan import SearchExhausted, alcove_normalize, build_root_datum
from parhodge.nahodge import toledo_character, toledo_invariant
from parhodge.parhiggs import (
    NotInLattice,
    ReductionCertificate,
    coordinate_pairing,
    hecke_transform,
    make_data,
    pardeg_reduction,
)

ORACLE_SEED = 20260428
SUPPORTED = (
    [("A", r) for r in range(1, 13)]
    + [("B", r) for r in range(2, 13)]
    + [("C", r) for r in range(2, 13)]
    + [("D", r) for r in range(3, 13)]
)


def _coprime_denominators(rng: random.Random, count: int) -> list[int]:
    dens: list[int] = []
    while len(dens) < count:
        q = rng.randint(2, 10**9)
        if all(math.gcd(q, p) == 1 for p in dens):
            dens.append(q)
    return dens


def _wall_point(rng: random.Random, cartan_type: str, rank: int) -> tuple[Fraction, ...]:
    """A point whose ambient coordinates are quarters, with ties: the fractional
    parts tie (the A sort), halves sit between two integers (round half to
    even), and k * a meets a wall of the star for several k."""
    x = [Fraction(rng.randint(-8, 8), 4) for _ in range(rank if cartan_type != "A" else rank + 1)]
    if cartan_type == "A":
        x[-1] -= sum(x)  # the ambient coordinates of type A sum to 0
    point = star_oracle._coroot_point(cartan_type, x)
    assert star_oracle._ambient_point(cartan_type, point) == x
    return point


def _cases(cartan_type: str, rank: int) -> list[tuple[tuple[Fraction, ...], int]]:
    """15 (point, search_bound) cases of one type and rank."""
    rng = random.Random(f"{ORACLE_SEED}-{cartan_type}{rank}")
    cases = []
    for _ in range(4):  # pairwise-coprime denominators up to 1e9, signed
        point = tuple(Fraction(rng.randint(-3 * q, 3 * q), q) for q in _coprime_denominators(rng, rank))
        cases.append((point, 64))
    for _ in range(4):  # one small denominator: many of these need k > 1
        q = rng.randint(1, 6)
        cases.append((tuple(Fraction(rng.randint(-3 * q, 3 * q), q) for _ in range(rank)), 64))
    for _ in range(4):
        cases.append((_wall_point(rng, cartan_type, rank), 64))
    for bound in (1, 2, 3):  # small bounds, which some of these exhaust
        cases.append((_wall_point(rng, cartan_type, rank), bound))
    return cases


def _outcome(normalize, rd, point, bound):
    try:
        res = normalize(rd, point, search_bound=bound)
    except SearchExhausted as exc:
        return ("exhausted", exc.bound)
    values = res.lattice_vector + res.normalized + res.dominant
    assert all(type(x) is Fraction for x in values)
    return (res.k, res.lattice_vector, res.normalized, res.dominant)


def test_integer_alcove_kernel_matches_the_fraction_loop():
    # 660 cases: 15 for each of the 44 types and ranks A1-A12, B2-B12, C2-C12, D3-D12
    seen = {"k = 1": 0, "k > 1": 0, "exhausted": 0}
    count = 0
    for cartan_type, rank in SUPPORTED:
        rd = build_root_datum(cartan_type, rank)
        for point, bound in _cases(cartan_type, rank):
            want = _outcome(star_oracle.alcove_normalize, rd, point, bound)
            assert _outcome(alcove_normalize, rd, point, bound) == want, (cartan_type, rank, point, bound)
            seen["exhausted" if want[0] == "exhausted" else "k = 1" if want[0] == 1 else "k > 1"] += 1
            count += 1
    assert count == 660
    assert min(seen.values()) >= 30, seen  # every branch of the search is exercised


def _count_fractions(monkeypatch) -> list[int]:
    """A counter of every ``Fraction`` built from now on, arithmetic results
    included (Python 3.12 builds those through ``_from_coprime_ints``)."""
    built = [0]
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
    if "_from_coprime_ints" in Fraction.__dict__:
        coprime = Fraction._from_coprime_ints.__func__

        def counted_coprime(cls, *args):
            built[0] += 1
            return coprime(cls, *args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counted_coprime))
    return built


def _fractions_built(built: list[int], call) -> int:
    before = built[0]
    call()
    return built[0] - before


def test_an_exhausted_search_builds_no_fraction_per_k(monkeypatch):
    # ambient coordinates 1/2, 1/4, ..., 1/4096 of C12: every k < 4096 puts
    # the coordinate of its 2-adic valuation at 1/2 mod 1, on a wall of the star
    rd = build_root_datum("C", 12)
    ambient = [Fraction(1, 2 ** (j + 1)) for j in range(12)]
    point = star_oracle._coroot_point("C", ambient)
    built = _count_fractions(monkeypatch)

    def exhaust(bound):
        with pytest.raises(SearchExhausted):
            alcove_normalize(rd, point, search_bound=bound)

    assert _fractions_built(built, lambda: exhaust(8)) == _fractions_built(built, lambda: exhaust(64))
    # the counter sees the Fraction loop of the oracle
    spent = [
        _fractions_built(built, lambda: pytest.raises(SearchExhausted, star_oracle.alcove_normalize, rd, point, bound))
        for bound in (8, 64)
    ]
    assert spent[1] > spent[0]


def test_coordinate_pairing_builds_one_fraction_whatever_the_length(monkeypatch):
    rng = random.Random(ORACLE_SEED)
    vectors = {
        n: [tuple(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) for _ in range(n)) for _ in range(2)]
        for n in (1, 10, 300)
    }
    ints = [rng.randint(-9, 9) for _ in range(300)]
    built = _count_fractions(monkeypatch)
    counts = {_fractions_built(built, lambda: coordinate_pairing(u, v)) for u, v in vectors.values()}
    counts.add(_fractions_built(built, lambda: coordinate_pairing(ints, vectors[300][0])))
    assert len(counts) == 1 and counts.pop() <= 1


# ---------------------------------------------------------------------------
# the pairings against plain Fraction sums
# ---------------------------------------------------------------------------

# ints (as ``int``), small rationals, and rationals with terms up to 10^40
rationals = st.one_of(
    st.integers(-10**6, 10**6),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**40)),
)


def _plain(u, v) -> Fraction:
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


@seed(28)
@settings(max_examples=300, deadline=None)
@given(st.lists(rationals, max_size=12), st.lists(rationals, max_size=12))
def test_coordinate_pairing_is_the_fraction_dot_product(u, v):
    got = coordinate_pairing(u, v)
    assert got == _plain(u, v)
    assert type(got) is Fraction


@st.composite
def split_data(draw, n=None):
    """(weights, degrees, chi) of split rank-n data on 0 to 4 punctures."""
    n = draw(st.integers(1, 5)) if n is None else n
    vec = st.lists(rationals, min_size=n, max_size=n)
    return draw(st.lists(vec, max_size=4)), draw(vec), draw(vec)


@seed(28)
@settings(max_examples=200, deadline=None)
@given(split_data(), st.one_of(st.none(), rationals))
def test_pardeg_reduction_is_the_fraction_sum(drawn, degree):
    weights, degrees, chi = drawn
    data = make_data(0, f"GL({len(chi)},C)", weights, None, degrees)
    red = ReductionCertificate("r", chi=tuple(map(Fraction, chi)), degree=degree)
    total = _plain(chi, degrees) if degree is None else Fraction(degree)
    want = total - sum((_plain(w, chi) for w in weights), Fraction(0))
    got = pardeg_reduction(data, red)
    assert got == want
    assert type(got) is Fraction


@st.composite
def hermitian_data(draw):
    """(p, q, weights, degrees) of split data of rank p + q."""
    p, q = draw(st.integers(1, 6)), draw(st.integers(0, 6))
    weights, degrees, _ = draw(split_data(p + q))
    return p, q, weights, degrees


@seed(28)
@settings(max_examples=200, deadline=None)
@given(hermitian_data())
def test_toledo_invariant_is_the_fraction_sum(drawn):
    p, q, weights, degrees = drawn
    data = make_data(0, f"SU({p},{q})", weights, None, degrees)
    chi = toledo_character(p, q)
    want = _plain(chi, degrees) - sum((_plain(chi, w) for w in weights), Fraction(0))
    got = toledo_invariant(data, (p, q))
    assert got == want
    assert type(got) is Fraction


def _plain_hecke(weights, lambdas, degrees, lattice):
    """hecke_transform in plain Fraction arithmetic: the shifted weights and
    degrees, or None where the shift is outside the lattice."""
    n = len(degrees)
    for lam in lambdas:
        lam = [Fraction(x) for x in lam]
        total = sum(lam, Fraction(0))
        if lattice == "GL":
            if any(x.denominator != 1 for x in lam):
                return None
            continue
        if total.denominator != 1:
            return None
        base = total / n if lattice == "simply_connected" else lam[0]
        if any((x - base).denominator != 1 for x in lam):
            return None
    new_weights = tuple(tuple(Fraction(a) + Fraction(b) for a, b in zip(w, lam)) for w, lam in zip(weights, lambdas))
    new_degrees = tuple(Fraction(d) + sum((Fraction(lam[k]) for lam in lambdas), Fraction(0)) for k, d in enumerate(degrees))
    return new_weights, new_degrees


@st.composite
def hecke_inputs(draw):
    weights, degrees, _ = draw(split_data())
    n = len(degrees)
    integers = st.lists(st.integers(-5, 5), min_size=n, max_size=n)

    @st.composite
    def central(draw):  # an integer shift plus j/n or j/2 on every entry
        t = Fraction(draw(st.integers(-2 * n, 2 * n)), draw(st.sampled_from([n, 2])))
        return [m + t for m in draw(integers)]

    shift = st.one_of(integers, central(), st.lists(rationals, min_size=n, max_size=n))
    lambdas = draw(st.lists(shift, min_size=len(weights), max_size=len(weights)))
    return weights, lambdas, degrees, draw(st.sampled_from(["GL", "simply_connected", "adjoint"]))


@seed(28)
@settings(max_examples=300, deadline=None)
@given(hecke_inputs())
def test_hecke_transform_is_the_fraction_sum(drawn):
    weights, lambdas, degrees, lattice = drawn
    want = _plain_hecke(weights, lambdas, degrees, lattice)
    if want is None:
        with pytest.raises(NotInLattice):
            hecke_transform(weights, lambdas, degrees, lattice)
        return
    got = hecke_transform(weights, lambdas, degrees, lattice)
    assert (got.weights, got.degrees) == want
    assert all(type(x) is Fraction for x in got.degrees)
