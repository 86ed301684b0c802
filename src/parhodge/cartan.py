"""Root data, alcove membership and affine-Weyl normalization, in exact arithmetic.

Weight coordinates are always given in the basis of simple coroots, so the
simply-connected cocharacter lattice is exactly ``Z^rank``.  Roots are stored
as covectors: tuples of values on the simple coroots.  Everything here is a
``Fraction``; no floats enter.

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
Inf. Theory 28, 1982).  Each k costs O(rank log rank) ``Fraction`` operations.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import floor
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Covec = tuple[Fraction, ...]

CARTAN_TYPES = ("A", "B", "C", "D")
LATTICES = ("simply_connected", "adjoint")


class UnsupportedType(ValueError):
    """Cartan type/rank combination outside the supported classical range."""


class DimensionMismatch(ValueError):
    """Coordinate vector length does not match the rank."""


class MissingWeights(ValueError):
    """Scope 'g' membership requested without the m-weight covectors."""


class SearchExhausted(RuntimeError):
    """alcove_normalize found no admissible multiplier k <= search_bound."""

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


def _dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(u, v) if x), Fraction(0))


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
    """Simple roots, positive roots and coroot map in the standard ambient coordinates."""
    t, r = cartan_type, rank

    def e(i, dim):
        return tuple(Fraction(1) if j == i else Fraction(0) for j in range(dim))

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
        norm2 = _dot(root, root)
        return tuple(2 * x / norm2 for x in root)

    return simples, positives, coroot


def _ambient_point(cartan_type: str, c: Sequence[Fraction]) -> list[Fraction]:
    """Ambient coordinates of sum_i c_i alpha_i^vee."""
    x = [c[0]] + [c[j] - c[j - 1] for j in range(1, len(c))]
    if cartan_type == "A":
        x.append(-c[-1])  # alpha_r^vee = e_r - e_(r+1)
    elif cartan_type == "B":
        x[-1] += c[-1]  # alpha_r^vee = 2 e_r
    elif cartan_type == "D":
        x[-2] += c[-1]  # alpha_r^vee = e_(r-1) + e_r
    return x


def _coroot_point(cartan_type: str, y: Sequence[Fraction]) -> Vec:
    """Simple-coroot coordinates of y: its partial sums, with a type-dependent tail."""
    c = list(accumulate(y))
    if cartan_type == "A":
        c.pop()  # the coordinates sum to 0
    elif cartan_type == "B":
        c[-1] /= 2
    elif cartan_type == "D":
        c[-2], c[-1] = (c[-2] - y[-1]) / 2, (c[-2] + y[-1]) / 2
    return tuple(c)


def _star_point(cartan_type: str, x: Sequence[Fraction]) -> tuple[list[Fraction], list[Fraction]] | None:
    """The representative y of x modulo Q^vee inside the open star and its dominant image, or None."""
    if cartan_type == "A":
        # integer vectors of sum 0: fractional parts summing to s, the s largest lowered by 1
        y = [v - floor(v) for v in x]
        for i in sorted(range(len(y)), key=y.__getitem__, reverse=True)[: int(sum(y))]:
            y[i] -= 1
        return (y, sorted(y, reverse=True)) if max(y) - min(y) < 1 else None
    n = [round(v) for v in x]
    y = [v - m for v, m in zip(x, n)]
    if cartan_type != "C" and sum(n) % 2:
        # the even-sum lattice: move the coordinate farthest from its integer to the other side
        i = max(range(len(y)), key=lambda j: abs(y[j]))
        y[i] -= 1 if y[i] >= 0 else -1
    d = sorted((abs(v) for v in y), reverse=True)
    # the binding roots: 2 e_i for C, e_i + e_j for B and D
    if (2 * d[0] if cartan_type == "C" else d[0] + d[1]) >= 1:
        return None
    if cartan_type == "D" and sum(v < 0 for v in y) % 2:
        d[-1] = -d[-1]  # even sign changes only; a zero entry absorbs the parity
    return y, d


@dataclass(frozen=True)
class RootDatum:
    """A classical root datum with coordinates in the simple-coroot basis.

    positive_roots are covectors (values on the simple coroots); coroots are
    coordinate vectors in the simple-coroot basis; inner_product is the Gram
    matrix of the simple coroots.
    """

    cartan_type: str
    rank: int
    simple_roots: tuple[Covec, ...]
    positive_roots: tuple[Covec, ...]
    coroots: tuple[Vec, ...]
    cochar_lattice_basis: tuple[Vec, ...]
    inner_product: tuple[tuple[Fraction, ...], ...]
    lattice: str

    def root_value(self, root: Covec, a: Sequence) -> Fraction:
        v = _as_vec(a, self.rank)
        return _dot(root, v)

    def norm2(self, a: Sequence) -> Fraction:
        v = _as_vec(a, self.rank)
        return sum(
            (v[i] * v[j] * self.inner_product[i][j] for i in range(self.rank) for j in range(self.rank)),
            Fraction(0),
        )


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
    # coroots lie in the span of the simple coroots: gram @ x = pairings with the basis
    coroot_vecs = tuple(_solve_exact(gram, [covec(coroot_amb(p)) for _, p in positives]))

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


@dataclass(frozen=True)
class MembershipResult:
    kind: str  # "interior" | "boundary" | "outside"
    walls: tuple[tuple[int, int], ...]  # (positive-root index, level 0 or 1)
    violations: tuple[tuple[int, Fraction], ...]  # roots with value outside [0,1]


def alcove_membership(rd: RootDatum, a: Sequence) -> MembershipResult:
    """Locate a relative to the closed fundamental alcove {0 <= root values <= 1}."""
    v = _as_vec(a, rd.rank)
    walls: list[tuple[int, int]] = []
    violations: list[tuple[int, Fraction]] = []
    for idx, root in enumerate(rd.positive_roots):
        val = _dot(root, v)
        if val < 0 or val > 1:
            violations.append((idx, val))
        elif val == 0:
            walls.append((idx, 0))
        elif val == 1:
            walls.append((idx, 1))
    if violations:
        return MembershipResult("outside", tuple(walls), tuple(violations))
    if walls:
        return MembershipResult("boundary", tuple(walls), ())
    return MembershipResult("interior", tuple(walls), ())


def in_A_prime(rd: RootDatum, a: Sequence, scope: str = "h", m_weights: Iterable[Covec] | None = None) -> bool:
    """Open-star test: all ad-eigenvalues of a on the chosen scope lie in (-1,1)."""
    v = _as_vec(a, rd.rank)
    covecs: list[Covec] = list(rd.positive_roots)
    if scope == "g":
        if m_weights is None:
            raise MissingWeights("scope 'g' needs the m-weight covectors of the realization")
        covecs.extend(tuple(_frac(x) for x in w) for w in m_weights)
    elif scope != "h":
        raise ValueError(f"scope must be 'h' or 'g', got {scope!r}")
    return all(abs(_dot(c, v)) < 1 for c in covecs)


@dataclass(frozen=True)
class AlcoveNormalization:
    k: int
    lattice_vector: Vec
    normalized: Vec  # k*a + lattice_vector, inside the open star
    dominant: Vec    # its dominant representative


def alcove_normalize(rd: RootDatum, a: Sequence, search_bound: int = 64) -> AlcoveNormalization:
    """Find minimal k <= search_bound and a lattice vector with k*a + v in W*(open star).

    ``_star_point`` finds the representative of k*a in the open star, if any
    (see the module docstring); a level-1 wall is outside, so the next k is tried.
    """
    v0 = _as_vec(a, rd.rank)
    t = rd.cartan_type
    x0 = _ambient_point(t, v0)
    for k in range(1, search_bound + 1):
        found = _star_point(t, [k * x for x in x0])
        if found is None:
            continue
        normalized, dominant = (_coroot_point(t, y) for y in found)
        lam = tuple(c - k * x for c, x in zip(normalized, v0))
        if not in_A_prime(rd, normalized):
            raise RuntimeError("internal: normalized point escaped the open star")
        return AlcoveNormalization(k=k, lattice_vector=lam, normalized=normalized, dominant=dominant)
    raise SearchExhausted(search_bound)


def cochar_contains(rd: RootDatum, v: Sequence) -> bool:
    """Exact test that v lies in the integer span of the cocharacter basis."""
    vec = _as_vec(v, rd.rank)
    rows = [[rd.cochar_lattice_basis[j][i] for j in range(rd.rank)] for i in range(rd.rank)]
    (coeffs,) = _solve_exact(rows, [vec])
    return all(c.denominator == 1 for c in coeffs)
