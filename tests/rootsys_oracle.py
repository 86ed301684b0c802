"""The root tables of ``cartan.build_root_datum`` as they were built before
they became ``int``s, every entry a ``Fraction``, kept as a test oracle for
the ``rootsys`` report.

``fraction_tables(cartan_type, rank, lattice)`` returns the five tables the
report prints, by name; an unsupported type and rank raise ``ValueError``.
"""
from __future__ import annotations

from fractions import Fraction


def _dot(u, v) -> Fraction:
    return sum((x * y for x, y in zip(u, v) if x), Fraction(0))


def _solve(rows, rhs) -> list[tuple[Fraction, ...]]:
    """Solutions x of rows @ x = b for each b in rhs; rows is square and invertible."""
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(b[i]) for b in rhs] for i, row in enumerate(rows)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [tuple(m[i][n + j] for i in range(n)) for j in range(len(rhs))]


def _ambient(cartan_type: str, r: int):
    """Simple and positive roots in the standard ambient coordinates."""

    def e(i):
        return tuple(Fraction(int(j == i)) for j in range(dim))

    def add(u, v, sv=1):
        return tuple(a + sv * b for a, b in zip(u, v))

    least = {"A": 1, "B": 2, "C": 2, "D": 3}.get(cartan_type)
    if least is None or r < least:
        raise ValueError(f"{cartan_type}_{r} is not supported")
    dim = r + 1 if cartan_type == "A" else r
    differences = [add(e(i), e(j), -1) for i in range(dim) for j in range(i + 1, dim)]
    sums = [add(e(i), e(j)) for i in range(r) for j in range(i + 1, r)]
    chain = [add(e(i), e(i + 1), -1) for i in range(dim - 1)]
    if cartan_type == "A":
        return chain, differences
    if cartan_type == "B":
        return chain + [e(r - 1)], differences + sums + [e(i) for i in range(r)]
    if cartan_type == "C":
        double = [tuple(2 * x for x in e(i)) for i in range(r)]
        return chain + [double[-1]], differences + sums + double
    return chain + [add(e(r - 2), e(r - 1))], differences + sums


def fraction_tables(cartan_type: str, rank: int, lattice: str) -> dict:
    simples, positives = _ambient(cartan_type, rank)

    def coroot(root):
        return tuple(2 * x / _dot(root, root) for x in root)

    basis = [coroot(s) for s in simples]

    def covec(root):
        return tuple(_dot(root, c) for c in basis)

    gram = tuple(tuple(_dot(b, c) for c in basis) for b in basis)
    simple_covecs = tuple(covec(s) for s in simples)
    ordered = sorted(((covec(p), p) for p in positives), key=lambda cp: (sum(cp[0]), cp[0]))
    unit = tuple(tuple(Fraction(int(i == j)) for j in range(rank)) for i in range(rank))
    return {
        "simple_roots": simple_covecs,
        "positive_roots": tuple(c for c, _ in ordered),
        "coroots": tuple(_solve(gram, [covec(coroot(p)) for _, p in ordered])),
        "cochar_lattice_basis": unit if lattice == "simply_connected" else tuple(_solve(simple_covecs, unit)),
        "inner_product": gram,
    }
