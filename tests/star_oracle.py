"""``cartan.alcove_normalize`` as it stood when every step of the k loop was
``Fraction`` arithmetic, kept as a test oracle for the integer kernel.

``_ambient_point``, ``_coroot_point``, ``_star_point`` and the k loop are the
library's code of that time, unchanged; the library now runs the same
rounding on ``int`` numerators over the lcm of the point's denominators.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import floor
from typing import Sequence

from parhodge.cartan import AlcoveNormalization, RootDatum, SearchExhausted, Vec, _as_vec


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


def alcove_normalize(rd: RootDatum, a: Sequence, search_bound: int = 64) -> AlcoveNormalization:
    """Find minimal k <= search_bound and a lattice vector with k*a + v in W*(open star)."""
    v0 = _as_vec(a, rd.rank)
    t = rd.cartan_type
    x0 = _ambient_point(t, v0)
    for k in range(1, search_bound + 1):
        found = _star_point(t, [k * x for x in x0])
        if found is None:
            continue
        normalized, dominant = (_coroot_point(t, y) for y in found)
        lam = tuple(c - k * x for c, x in zip(normalized, v0))
        return AlcoveNormalization(k=k, lattice_vector=lam, normalized=normalized, dominant=dominant)
    raise SearchExhausted(search_bound)
