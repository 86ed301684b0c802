"""Reflection replay: the affine-Weyl reduction that ``cartan.alcove_normalize``
used before its closed form, kept as a test oracle.

``weyl_reduce`` walks a point into the dominant chamber by simple reflections;
``alcove_normalize_by_reflection`` reduces k*a into the fundamental alcove one
affine wall at a time and replays the recorded reflections in reverse.  Its
cost grows with the number of walls crossed, so tests feed it small points.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from parhodge.cartan import (
    AlcoveNormalization,
    Covec,
    RootDatum,
    SearchExhausted,
    Vec,
    _as_vec,
    _dot,
    in_A_prime,
)


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


def alcove_normalize_by_reflection(rd: RootDatum, a: Sequence, search_bound: int = 64) -> AlcoveNormalization:
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
