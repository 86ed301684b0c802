"""Root data, alcove membership and affine-Weyl normalization, in exact arithmetic.

Weight coordinates are always given in the basis of simple coroots, so the
simply-connected cocharacter lattice is exactly ``Z^rank``.  Roots are stored
as covectors: tuples of values on the simple coroots.  Everything here is a
``Fraction``; no floats enter.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


def _simple_reflect(rd: RootDatum, i: int, a: Vec) -> Vec:
    # s_i(a) = a - alpha_i(a) * alpha_i^vee; the simple coroot is the i-th basis vector
    val = _dot(rd.simple_roots[i], a)
    return tuple(x - val if k == i else x for k, x in enumerate(a))


def weyl_reduce(rd: RootDatum, a: Sequence) -> tuple[tuple[int, ...], Vec]:
    """Reduce a to the dominant chamber; returns (word of simple reflections, dominant rep).

    The word lists indices in the order applied, always choosing the first
    simple index with negative value, so the output is deterministic.
    """
    v = _as_vec(a, rd.rank)
    word: list[int] = []
    guard = 0
    while True:
        neg = next((i for i in range(rd.rank) if _dot(rd.simple_roots[i], v) < 0), None)
        if neg is None:
            return tuple(word), v
        v = _simple_reflect(rd, neg, v)
        word.append(neg)
        guard += 1
        if guard > 100_000:
            raise RuntimeError("weyl_reduce did not terminate (corrupted root datum?)")


def apply_word(rd: RootDatum, word: Sequence[int], a: Sequence) -> Vec:
    v = _as_vec(a, rd.rank)
    for i in word:
        v = _simple_reflect(rd, i, v)
    return v


@dataclass(frozen=True)
class AlcoveNormalization:
    k: int
    lattice_vector: Vec
    normalized: Vec  # k*a + lattice_vector, inside the open star
    dominant: Vec    # its dominant representative


def alcove_normalize(rd: RootDatum, a: Sequence, search_bound: int = 64) -> AlcoveNormalization:
    """Find minimal k <= search_bound and a lattice vector with k*a + v in W*(open star).

    Reduces k*a into the fundamental alcove of the affine Weyl group by exact
    affine reflections, recording the linear part of each step as a (root,
    coroot) pair.  Every linear reflection is an involution, so replaying the
    record in reverse on the reduced point gives k*a + lattice vector.  The
    open-star test is the strict one, so points landing exactly on a wall of
    level 1 are rejected and the next k is tried.
    """
    v0 = _as_vec(a, rd.rank)
    n = rd.rank
    simple = [(rd.simple_roots[i], tuple(Fraction(int(i == j)) for j in range(n))) for i in range(n)]
    for k in range(1, search_bound + 1):
        cur = tuple(k * x for x in v0)
        applied: list[tuple[Covec, Vec]] = []  # cur == w @ (k*a + lam), w the product of these
        guard = 0
        while True:
            word, cur = weyl_reduce(rd, cur)
            applied.extend(simple[i] for i in word)
            hot = next(
                (
                    j
                    for j, root in enumerate(rd.positive_roots)
                    if _dot(root, cur) > 1
                ),
                None,
            )
            if hot is None:
                break
            root, coroot = rd.positive_roots[hot], rd.coroots[hot]
            excess = _dot(root, cur) - 1
            # affine reflection s_{root,1} = translation by coroot after s_root
            cur = tuple(x - excess * c for x, c in zip(cur, coroot))
            applied.append((root, coroot))
            guard += 1
            if guard > 100_000:
                raise RuntimeError("affine reduction did not terminate")
        if all(abs(_dot(root, cur)) < 1 for root in rd.positive_roots):
            normalized = cur
            for root, coroot in reversed(applied):
                val = _dot(root, normalized)
                normalized = tuple(x - val * c for x, c in zip(normalized, coroot))
            lam = tuple(y - k * x for y, x in zip(normalized, v0))
            if not in_A_prime(rd, normalized):
                raise RuntimeError("internal: normalized point escaped the open star")
            return AlcoveNormalization(k=k, lattice_vector=lam, normalized=normalized, dominant=cur)
    raise SearchExhausted(search_bound)


def cochar_contains(rd: RootDatum, v: Sequence) -> bool:
    """Exact test that v lies in the integer span of the cocharacter basis."""
    vec = _as_vec(v, rd.rank)
    rows = [[rd.cochar_lattice_basis[j][i] for j in range(rd.rank)] for i in range(rd.rank)]
    (coeffs,) = _solve_exact(rows, [vec])
    return all(c.denominator == 1 for c in coeffs)
