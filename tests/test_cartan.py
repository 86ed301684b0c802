import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parhodge.cartan import (
    CARTAN_TYPES,
    LATTICES,
    DimensionMismatch,
    MissingWeights,
    SearchExhausted,
    UnsupportedType,
    alcove_membership,
    alcove_normalize,
    build_root_datum,
    cochar_contains,
    in_A_prime,
    _ROOT_DATA,
    _ambient_tables,
    _build_root_datum,
)
from reflection_oracle import alcove_normalize_by_reflection, apply_word, weyl_reduce


def _weyl_order(rd):
    # oracle: orbit size of a regular vector under simple reflections
    primes = [17, 19, 23, 29, 31, 37]
    start = tuple(Q(1, primes[i]) for i in range(rd.rank))
    assert all(rd.root_value(r, start) != 0 for r in rd.positive_roots)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(rd.rank):
                w = apply_word(rd, (i,), v)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen)


def test_a2_root_counts_and_weyl_order():
    rd = build_root_datum("A", 2)
    # reflection-closure oracle: A2 has 3 positive roots and |W| = 6
    assert len(rd.positive_roots) == 3
    assert _weyl_order(rd) == 6


def test_c2_root_counts_and_length_ratio():
    rd = build_root_datum("C", 2)
    # reflection-closure oracle: C2 has 4 positive roots, long/short length^2 ratio 2
    assert len(rd.positive_roots) == 4
    assert _weyl_order(rd) == 8
    norms = sorted({rd.norm2(c) for c in rd.coroots})
    assert norms[1] / norms[0] == 2


def test_b3_and_d4_counts():
    assert len(build_root_datum("B", 3).positive_roots) == 9
    assert len(build_root_datum("D", 4).positive_roots) == 12


def test_unsupported_type_raises():
    with pytest.raises(UnsupportedType):
        build_root_datum("E", 8)
    with pytest.raises(UnsupportedType):
        build_root_datum("D", 2)


def test_root_datum_is_built_once_per_key():
    rd = build_root_datum("C", 3, "adjoint")
    assert build_root_datum("C", 3, "adjoint") is rd
    assert build_root_datum("C", 3, lattice="adjoint") is rd
    assert build_root_datum(cartan_type="C", rank=3, lattice="adjoint") is rd
    assert build_root_datum("C", 3) is build_root_datum("C", 3, lattice="simply_connected")
    assert build_root_datum("C", 3) is not rd
    # a refused request is refused again, not remembered
    for args in (("D", 2), ("B", 1), ("A", 2, "x")):
        for _ in range(2):
            with pytest.raises(UnsupportedType):
                build_root_datum(*args)
    assert not any(key[:2] in (("D", 2), ("B", 1)) or key[2] == "x" for key in _ROOT_DATA)


def test_dimension_mismatch():
    rd = build_root_datum("A", 2)
    with pytest.raises(DimensionMismatch):
        alcove_membership(rd, [Q(1, 2)])


def test_coroots_lie_in_cochar_lattice():
    for t, r in [("A", 3), ("B", 2), ("C", 3), ("D", 3)]:
        rd = build_root_datum(t, r)
        for c in rd.coroots:
            assert cochar_contains(rd, c)


def test_adjoint_lattice_contains_coroot_lattice():
    rd = build_root_datum("A", 2, lattice="adjoint")
    for c in rd.coroots:
        assert cochar_contains(rd, c)
    # the fundamental coweight of A2 is not in the coroot lattice
    sc = build_root_datum("A", 2)
    assert not cochar_contains(sc, rd.cochar_lattice_basis[0])


SUPPORTED = [(t, r) for t in CARTAN_TYPES for r in range({"A": 1, "B": 2, "C": 2, "D": 3}[t], 13)]


@pytest.mark.parametrize("lattice", LATTICES)
@pytest.mark.parametrize("cartan_type,rank", SUPPORTED)
def test_root_datum_coroots_and_coweights(cartan_type, rank, lattice):
    # oracle: the ambient model; coroot coordinates in the simple-coroot basis
    # must reassemble the ambient coroot, and the adjoint basis must be dual
    # to the simple roots
    simples_amb, positives_amb, coroot_amb = _ambient_tables(cartan_type, rank)
    basis_amb = [coroot_amb(s) for s in simples_amb]
    by_covec = {tuple(sum(x * y for x, y in zip(p, b)) for b in basis_amb): p for p in positives_amb}
    rd = build_root_datum(cartan_type, rank, lattice)
    assert rd == _build_root_datum(cartan_type, rank, lattice)  # the shared datum is unchanged
    assert sorted(rd.positive_roots) == sorted(by_covec)
    for root, coroot in zip(rd.positive_roots, rd.coroots):
        ambient = tuple(sum(c * b[i] for c, b in zip(coroot, basis_amb)) for i in range(len(basis_amb[0])))
        assert ambient == coroot_amb(by_covec[root])
        assert rd.root_value(root, coroot) == 2
    if lattice == "adjoint":
        for i, w in enumerate(rd.cochar_lattice_basis):
            assert [rd.root_value(a, w) for a in rd.simple_roots] == [int(i == j) for j in range(rank)]
    else:
        assert rd.cochar_lattice_basis == tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))


def test_alcove_membership_kinds():
    rd = build_root_datum("A", 1)
    # coordinate c has root value 2c
    assert alcove_membership(rd, [Q(1, 4)]).kind == "interior"
    on_wall = alcove_membership(rd, [Q(1, 2)])
    assert on_wall.kind == "boundary"
    assert on_wall.walls == ((0, 1),)
    assert alcove_membership(rd, [Q(3, 4)]).kind == "outside"
    assert alcove_membership(rd, [Q(0)]).walls == ((0, 0),)


def test_in_A_prime_scopes():
    rd = build_root_datum("A", 1)
    assert in_A_prime(rd, [Q(1, 4)])
    assert not in_A_prime(rd, [Q(1, 2)])  # root value exactly 1
    # rank-one real-group scope: m-weights +-2a again exclude the wall point
    assert in_A_prime(rd, [Q(1, 4)], scope="g", m_weights=[(Q(2),), (Q(-2),)])
    with pytest.raises(MissingWeights):
        in_A_prime(rd, [Q(1, 4)], scope="g")


def test_weyl_reduce_is_idempotent_and_exact():
    rd = build_root_datum("C", 2)
    word, dom = weyl_reduce(rd, [Q(-3, 7), Q(5, 11)])
    assert apply_word(rd, word, [Q(-3, 7), Q(5, 11)]) == dom
    assert weyl_reduce(rd, dom)[0] == ()
    assert all(rd.root_value(s, dom) >= 0 for s in rd.simple_roots)


def test_alcove_normalize_trivial_and_boundary():
    rd = build_root_datum("A", 1)
    # already inside the open star: k = 1, no shift
    res = alcove_normalize(rd, [Q(1, 4)])
    assert (res.k, res.lattice_vector) == (1, (Q(0),))
    # root value exactly 1: k = 2 with the negative coroot, landing at 0
    res = alcove_normalize(rd, [Q(1, 2)])
    assert res.k == 2
    assert res.lattice_vector == (Q(-1),)
    assert res.normalized == (Q(0),)


def test_alcove_normalize_c2_wall_point():
    rd = build_root_datum("C", 2)
    # a on the level-1 wall of the highest root: k=1 must be rejected
    a = next(
        v
        for v in [(Q(1, 2), Q(1, 2)), (Q(1, 2), Q(1, 4))]
        if any(rd.root_value(r, v) == 1 for r in rd.positive_roots)
    )
    res = alcove_normalize(rd, a)
    assert res.k >= 2
    assert in_A_prime(rd, res.normalized)


def test_alcove_normalize_exhaustion():
    rd = build_root_datum("A", 1)
    with pytest.raises(SearchExhausted) as exc:
        # root value exactly 1 needs k = 2, so a bound of 1 must exhaust
        alcove_normalize(rd, [Q(1, 2)], search_bound=1)
    assert exc.value.bound == 1


def _normalize_or_exhausted(normalize, rd, point, bound):
    try:
        res = normalize(rd, point, search_bound=bound)
    except SearchExhausted as exc:
        return ("exhausted", exc.bound)
    return (res.k, res.lattice_vector, res.normalized, res.dominant)


@pytest.mark.parametrize("cartan_type,rank", SUPPORTED)
def test_alcove_normalize_matches_reflection_replay(cartan_type, rank):
    # oracle: the affine reflection loop; small denominators keep its wall count low,
    # and bounds 1-3 make some points exhaust the search on both sides
    rd = build_root_datum(cartan_type, rank)
    rng = random.Random(f"{cartan_type}{rank}")
    for bound in (1, 2, 3, 64):
        q = rng.randint(2, 6)
        point = [Q(rng.randint(-2 * q, 2 * q), q) for _ in range(rank)]
        want = _normalize_or_exhausted(alcove_normalize_by_reflection, rd, point, bound)
        assert _normalize_or_exhausted(alcove_normalize, rd, point, bound) == want


@st.composite
def rational_vectors(draw, rank):
    den = draw(st.integers(min_value=1, max_value=24))
    return tuple(Q(draw(st.integers(min_value=-3 * den, max_value=3 * den)), den) for _ in range(rank))


@settings(max_examples=60, deadline=None)
@given(rational_vectors(2))
def test_weyl_reduce_preserves_norm_a2(v):
    rd = build_root_datum("A", 2)
    _, dom = weyl_reduce(rd, v)
    assert rd.norm2(dom) == rd.norm2(v)


@settings(max_examples=60, deadline=None)
@given(rational_vectors(2))
def test_alcove_normalize_verified_c2(v):
    rd = build_root_datum("C", 2)
    res = alcove_normalize(rd, v, search_bound=64)
    assert res.normalized == tuple(res.k * x + l for x, l in zip(v, res.lattice_vector))
    assert in_A_prime(rd, res.normalized)
    assert cochar_contains(rd, res.lattice_vector)
