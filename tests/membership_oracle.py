"""The alcove tests as they stood when every root value was a ``Fraction``
sum, kept as a test oracle for the integer root-value kernel of ``cartan``.

``alcove_membership`` and ``in_A_prime`` evaluate each positive root on the
point with ``cartan._dot``; the library now reads the same values as integer
numerators over one common denominator.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from parhodge.cartan import Covec, MembershipResult, MissingWeights, RootDatum, _as_vec, _dot, _frac


def alcove_membership(rd: RootDatum, a: Sequence) -> MembershipResult:
    """Locate a relative to the closed fundamental alcove {0 <= root values <= 1}."""
    v = _as_vec(a, rd.rank)
    walls: list[tuple[int, int]] = []
    outside = False
    for idx, root in enumerate(rd.positive_roots):
        val = _dot(root, v)
        if val < 0 or val > 1:
            outside = True
        elif val == 0:
            walls.append((idx, 0))
        elif val == 1:
            walls.append((idx, 1))
    if outside:
        return MembershipResult("outside", tuple(walls))
    if walls:
        return MembershipResult("boundary", tuple(walls))
    return MembershipResult("interior", tuple(walls))


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
