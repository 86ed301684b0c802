"""Root data, alcove membership and affine-Weyl normalization, in exact arithmetic.

Weight coordinates are always given in the basis of simple coroots, so the
simply-connected cocharacter lattice is exactly ``Z^rank``.  Roots are stored
as covectors: tuples of values on the simple coroots.  Root values on coroots
are integers, so the root tables are tuples of ``int``, and the membership
tests read the positive roots on a point as integer numerators over one
common denominator.  Coordinates, coweights and results are ``Fraction``s;
no floats enter.

Normalization looks for k*a + lambda, lambda in the coroot lattice Q^vee,
inside the open star {|root| < 1}.  The star is W times the open fundamental
alcove with its inner walls added, so its volume |W| vol(alcove) is the
covolume of Q^vee: it is an open fundamental domain, and each k*a has at most
one representative in it.  In the ambient coordinates of ``_ambient_tables``
one rounding step finds it, however many walls lie in between: for A_r lower
the s largest fractional parts by 1 (s their sum); for C_r (Q^vee = Z^r) round
every coordinate; for B_r and D_r (the even-sum lattice) round every
coordinate and, if the rounded sum is odd, move the one farthest from its
integer to the other side (the D_n decoder of Conway and Sloane, IEEE Trans.
Inf. Theory 28, 1982).  The point is scaled once by the lcm d of its
denominators, so each k costs O(rank log rank) operations on ``int``
numerators over d, and ``Fraction``s are formed for the accepted k only.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import ParhodgeError

Vec = tuple[Fraction, ...]
Covec = tuple[Fraction, ...]
IntVec = tuple[int, ...]

CARTAN_TYPES = ("A", "B", "C", "D")
LATTICES = ("simply_connected", "adjoint")


class UnsupportedType(ParhodgeError, ValueError):
    """Cartan type/rank combination outside the supported classical range."""


class DimensionMismatch(ParhodgeError, ValueError):
    """Coordinate vector length does not match the rank."""


class MissingWeights(ParhodgeError, ValueError):
    """Scope 'g' membership requested without the m-weight covectors."""


class SearchExhausted(ParhodgeError, RuntimeError):
    """alcove_normalize found no admissible multiplier k <= search_bound."""

    exit_code = 4

    def __init__(self, bound: int):
        super().__init__(f"no k <= {bound} with k*a + lattice vector inside the open star")
        self.bound = bound


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected exact rational, got {type(x).__name__}")


def _as_vec(a: Sequence, rank: int) -> Vec:
    v = tuple(_frac(x) for x in a)
    if len(v) != rank:
        raise DimensionMismatch(f"expected {rank} coordinates, got {len(v)}")
    return v


def _dot(u: Sequence, v: Sequence):
    return sum(map(mul, u, v))


def _numerators(values: Sequence) -> tuple[list[int], int]:
    """(nums, d) with values[i] == nums[i] / d, d the lcm of the denominators
    of the exact rationals (``int``s or ``Fraction``s) in values."""
    d = lcm(*(x.denominator for x in values))
    return [x.numerator * (d // x.denominator) for x in values], d


def _row_reduce(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q; returns (reduced rows, pivot columns).

    The rank is the number of pivots.  For an augmented matrix [A | B] with A
    square and invertible, the pivots are A's columns and the reduced rows end
    in the solution columns of A X = B.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    for col in range(len(m[0]) if m else 0):
        top = len(pivots)
        piv = next((r for r in range(top, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[top], m[piv] = m[piv], m[top]
        inv = 1 / m[top][col]
        m[top] = [x * inv for x in m[top]]
        for r in range(len(m)):
            if r != top and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[top])]
        pivots.append(col)
        if len(pivots) == len(m):
            break
    return m, pivots


def _solve_exact(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Sequence[Fraction]]) -> list[Vec]:
    """Solutions x of rows @ x = b for each b in rhs; rows is square and invertible."""
    n = len(rows)
    reduced, _ = _row_reduce([list(row) + [b[i] for b in rhs] for i, row in enumerate(rows)])
    return [tuple(reduced[i][n + j] for i in range(n)) for j in range(len(rhs))]


def _ambient_tables(cartan_type: str, rank: int):
    """Simple roots, positive roots and coroot map in the standard ambient
    coordinates, all integer vectors."""
    t, r = cartan_type, rank

    def e(i, dim):
        return tuple(int(j == i) for j in range(dim))

    def add(u, v, su=1, sv=1):
        return tuple(su * a + sv * b for a, b in zip(u, v))

    if t == "A":
        if r < 1:
            raise UnsupportedType("A_r needs r >= 1")
        dim = r + 1
        simples = [add(e(i, dim), e(i + 1, dim), 1, -1) for i in range(r)]
        positives = [add(e(i, dim), e(j, dim), 1, -1) for i in range(dim) for j in range(i + 1, dim)]
    elif t == "B":
        if r < 2:
            raise UnsupportedType("B_r needs r >= 2")
        dim = r
        simples = [add(e(i, dim), e(i + 1, dim), 1, -1) for i in range(r - 1)] + [e(r - 1, dim)]
        positives = (
            [add(e(i, dim), e(j, dim), 1, -1) for i in range(r) for j in range(i + 1, r)]
            + [add(e(i, dim), e(j, dim), 1, 1) for i in range(r) for j in range(i + 1, r)]
            + [e(i, dim) for i in range(r)]
        )
    elif t == "C":
        if r < 2:
            raise UnsupportedType("C_r needs r >= 2")
        dim = r
        simples = [add(e(i, dim), e(i + 1, dim), 1, -1) for i in range(r - 1)] + [
            tuple(2 * x for x in e(r - 1, dim))
        ]
        positives = (
            [add(e(i, dim), e(j, dim), 1, -1) for i in range(r) for j in range(i + 1, r)]
            + [add(e(i, dim), e(j, dim), 1, 1) for i in range(r) for j in range(i + 1, r)]
            + [tuple(2 * x for x in e(i, dim)) for i in range(r)]
        )
    elif t == "D":
        if r < 3:
            raise UnsupportedType("D_r needs r >= 3")
        dim = r
        simples = [add(e(i, dim), e(i + 1, dim), 1, -1) for i in range(r - 1)] + [
            add(e(r - 2, dim), e(r - 1, dim), 1, 1)
        ]
        positives = [add(e(i, dim), e(j, dim), 1, -1) for i in range(r) for j in range(i + 1, r)] + [
            add(e(i, dim), e(j, dim), 1, 1) for i in range(r) for j in range(i + 1, r)
        ]
    else:
        raise UnsupportedType(f"unknown Cartan type {cartan_type!r}")

    def coroot(root):
        # |root|^2 is 1, 2 or 4, and 2 * root / |root|^2 is an integer vector
        norm2 = _dot(root, root)
        return tuple(2 * x // norm2 for x in root)

    return simples, positives, coroot


def _ambient_point(cartan_type: str, c: Sequence[int]) -> list[int]:
    """Ambient coordinates of sum_i c_i alpha_i^vee."""
    x = [c[0]] + [c[j] - c[j - 1] for j in range(1, len(c))]
    if cartan_type == "A":
        x.append(-c[-1])  # alpha_r^vee = e_r - e_(r+1)
    elif cartan_type == "B":
        x[-1] += c[-1]  # alpha_r^vee = 2 e_r
    elif cartan_type == "D":
        x[-2] += c[-1]  # alpha_r^vee = e_(r-1) + e_r
    return x


def _coroot_numerators(cartan_type: str, y: Sequence[int]) -> list[int]:
    """Twice the simple-coroot coordinates of the ambient point y: its partial
    sums, with a type-dependent tail, so the B and D halves stay integers."""
    c = [2 * v for v in accumulate(y)]
    if cartan_type == "A":
        c.pop()  # the coordinates sum to 0
    elif cartan_type == "B":
        c[-1] //= 2
    elif cartan_type == "D":
        c[-2], c[-1] = c[-2] // 2 - y[-1], c[-2] // 2 + y[-1]
    return c


def _star_numerators(cartan_type: str, x: Sequence[int], d: int) -> tuple[list[int], list[int]] | None:
    """The representative of x / d modulo Q^vee inside the open star and its
    dominant image, as numerators over d, or None."""
    if cartan_type == "A":
        # integer vectors of sum 0: fractional parts summing to s, the s largest lowered by 1
        y = [v % d for v in x]
        for i in sorted(range(len(y)), key=y.__getitem__, reverse=True)[: sum(y) // d]:
            y[i] -= d
        return (y, sorted(y, reverse=True)) if max(y) - min(y) < d else None
    y = []
    odd = 0  # the parity of the sum of the nearest integers
    for v in x:
        n, r = divmod(v, d)
        if 2 * r > d or 2 * r == d and n % 2:  # round half to even, as round(Fraction) does
            n, r = n + 1, r - d
        odd ^= n & 1
        y.append(r)
    if cartan_type != "C" and odd:
        # the even-sum lattice: move the coordinate farthest from its integer to the other side
        i = max(range(len(y)), key=lambda j: abs(y[j]))
        y[i] -= d if y[i] >= 0 else -d
    s = sorted((abs(v) for v in y), reverse=True)
    # the binding roots: 2 e_i for C, e_i + e_j for B and D
    if (2 * s[0] if cartan_type == "C" else s[0] + s[1]) >= d:
        return None
    if cartan_type == "D" and sum(v < 0 for v in y) % 2:
        s[-1] = -s[-1]  # even sign changes only; a zero entry absorbs the parity
    return y, s


@dataclass(frozen=True)
class RootDatum:
    """A classical root datum with coordinates in the simple-coroot basis.

    positive_roots are covectors (values on the simple coroots); coroots are
    coordinate vectors in the simple-coroot basis; inner_product is the Gram
    matrix of the simple coroots.  These four tables hold ``int``s; the
    cocharacter basis holds ``Fraction``s, as the adjoint coweights need.
    """

    cartan_type: str
    rank: int
    simple_roots: tuple[IntVec, ...]
    positive_roots: tuple[IntVec, ...]
    coroots: tuple[IntVec, ...]
    cochar_lattice_basis: tuple[Vec, ...]
    inner_product: tuple[IntVec, ...]
    lattice: str


# (cartan_type, rank, lattice) -> RootDatum; a RootDatum is frozen and made of
# tuples, so every caller in the process can share one
_ROOT_DATA: dict[tuple[str, int, str], RootDatum] = {}


def build_root_datum(cartan_type: str, rank: int, lattice: str = "simply_connected") -> RootDatum:
    """Construct the root datum of a classical type with an exact coroot-basis model.

    Built once per (cartan_type, rank, lattice) and process; a request the
    types do not support raises on every call.
    """
    key = (cartan_type, rank, lattice)
    datum = _ROOT_DATA.get(key)
    if datum is None:
        datum = _ROOT_DATA[key] = _build_root_datum(cartan_type, rank, lattice)
    return datum


def _build_root_datum(cartan_type: str, rank: int, lattice: str) -> RootDatum:
    simples_amb, positives_amb, coroot_amb = _ambient_tables(cartan_type, rank)
    basis_amb = [coroot_amb(s) for s in simples_amb]  # simple coroots, ambient
    gram = tuple(tuple(_dot(b, c) for c in basis_amb) for b in basis_amb)

    def covec(root_amb) -> Covec:
        # value of the root on each simple coroot, under the ambient pairing
        return tuple(_dot(root_amb, c) for c in basis_amb)

    simple_covecs = tuple(covec(s) for s in simples_amb)
    positives = sorted(((covec(p), p) for p in positives_amb), key=lambda cp: (sum(cp[0]), cp[0]))
    positive_covecs = tuple(c for c, _ in positives)
    # coroots lie in the coroot lattice: gram @ x = pairings with the basis has an integer solution
    coroot_vecs = tuple(
        tuple(map(int, x)) for x in _solve_exact(gram, [covec(coroot_amb(p)) for _, p in positives])
    )

    unit = tuple(tuple(Fraction(int(i == j)) for j in range(rank)) for i in range(rank))
    if lattice == "simply_connected":
        basis = unit
    elif lattice == "adjoint":
        # fundamental coweights: alpha_j(w_i) = delta_ij
        basis = tuple(_solve_exact(simple_covecs, unit))
    else:
        raise UnsupportedType(f"unknown lattice {lattice!r}")

    return RootDatum(
        cartan_type=cartan_type,
        rank=rank,
        simple_roots=simple_covecs,
        positive_roots=positive_covecs,
        coroots=coroot_vecs,
        cochar_lattice_basis=basis,
        inner_product=gram,
        lattice=lattice,
    )


def _root_numerators(rd: RootDatum, v: Vec) -> tuple[list[int], int]:
    """(nums, d): the value of the idx-th positive root on v is nums[idx] / d,
    d the lcm of the denominators of v."""
    scaled, d = _numerators(v)
    return [sum(map(mul, root, scaled)) for root in rd.positive_roots], d


@dataclass(frozen=True)
class MembershipResult:
    kind: str  # "interior" | "boundary" | "outside"
    walls: tuple[tuple[int, int], ...]  # (positive-root index, level 0 or 1)


def alcove_membership(rd: RootDatum, a: Sequence) -> MembershipResult:
    """Locate a relative to the closed fundamental alcove {0 <= root values <= 1}."""
    nums, d = _root_numerators(rd, _as_vec(a, rd.rank))
    walls = tuple((idx, int(num == d)) for idx, num in enumerate(nums) if num in (0, d))
    if any(num < 0 or num > d for num in nums):
        return MembershipResult("outside", walls)
    return MembershipResult("boundary" if walls else "interior", walls)


def in_A_prime(rd: RootDatum, a: Sequence, scope: str = "h", m_weights: Iterable[Covec] | None = None) -> bool:
    """Open-star test: all ad-eigenvalues of a on the chosen scope lie in (-1,1)."""
    v = _as_vec(a, rd.rank)
    weights: list[Covec] = []
    if scope == "g":
        if m_weights is None:
            raise MissingWeights("scope 'g' needs the m-weight covectors of the realization")
        weights = [tuple(_frac(x) for x in w) for w in m_weights]
    elif scope != "h":
        raise ValueError(f"scope must be 'h' or 'g', got {scope!r}")
    nums, d = _root_numerators(rd, v)
    return all(-d < num < d for num in nums) and all(abs(_dot(w, v)) < 1 for w in weights)


@dataclass(frozen=True)
class AlcoveNormalization:
    k: int
    lattice_vector: Vec
    normalized: Vec  # k*a + lattice_vector, inside the open star
    dominant: Vec    # its dominant representative


def alcove_normalize(rd: RootDatum, a: Sequence, search_bound: int = 64) -> AlcoveNormalization:
    """Find minimal k <= search_bound and a lattice vector with k*a + v in W*(open star).

    ``_star_numerators`` finds the representative of k*a in the open star, if
    any (see the module docstring); a level-1 wall is outside, so the next k is
    tried.  Its binding roots are below 1, which is the open-star condition, so
    the result is not tested again.
    """
    nums, d = _numerators(_as_vec(a, rd.rank))
    t = rd.cartan_type
    x0 = _ambient_point(t, nums)
    for k in range(1, search_bound + 1):
        found = _star_numerators(t, [k * x for x in x0], d)
        if found is None:
            continue
        normalized, dominant = (_coroot_numerators(t, y) for y in found)
        e = 2 * d  # the coroot numerators are doubled
        return AlcoveNormalization(
            k=k,
            lattice_vector=tuple(Fraction(c - 2 * k * x, e) for c, x in zip(normalized, nums)),
            normalized=tuple(Fraction(c, e) for c in normalized),
            dominant=tuple(Fraction(c, e) for c in dominant),
        )
    raise SearchExhausted(search_bound)


def cochar_contains(rd: RootDatum, v: Sequence) -> bool:
    """Exact test that v lies in the integer span of the cocharacter basis."""
    vec = _as_vec(v, rd.rank)
    rows = [[rd.cochar_lattice_basis[j][i] for j in range(rd.rank)] for i in range(rd.rank)]
    (coeffs,) = _solve_exact(rows, [vec])
    return all(c.denominator == 1 for c in coeffs)
