"""Seeded operation streams for the parhodge benchmark, with an oracle per operation.

A workload is a *deck*: a fixed list of operation slots (command plus the size
parameters that set its cost), each filled with fresh random content from the
seed.  The slot structure is the same for every seed, so the cost mix of a run
does not depend on the seed; only the matrices, points, weights and radii do.
Every slot emits an input whose exit code is known before the program runs,
and every operation carries a check taken from the acceptance gates of
``tests/test_acceptance.py`` or known by construction.

The generator may call the library (to build valid Higgs data, or to derive
the input of the second half of a round trip), but only before timing starts:
the timed loop hands the program nothing but the JSON files written here.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from parhodge.cartan import build_root_datum, cochar_contains, in_A_prime
from parhodge.nahodge import canonical_alpha, entry_to_json, higgs_to_localsystem, hitchin_section
from parhodge.parhiggs import ParabolicHiggsData, Puncture, from_json, hecke_apply, to_json

Check = Callable[[dict], "str | None"]  # report -> None when correct, else the reason


@dataclass
class Op:
    """One CLI invocation: ``parhodge <command> --input <file>`` plus ``extra``."""

    command: str
    payload: dict
    expect_code: int
    check: Check
    slot: str  # the deck slot, e.g. "alcove-normalize A7"; one warm-up per slot
    extra: tuple[str, ...] = ()
    root_datum: tuple | None = None  # (type, rank, lattice) the command builds
    size: str | None = None  # "rank7", "n32", ... for the traffic histogram
    alpha_nonzero: bool | None = None  # verify-model only


@dataclass
class Workload:
    name: str
    copies: int  # decks per pass; sized so a 30 s run makes 3-6 passes today
    make_deck: Callable[[np.random.Generator], list[Op]]
    # inputs that fail at present: sent outside the timed stream and reported
    # apart, so the defect shows in every run without failing the stream
    known_defects: Callable[[np.random.Generator], list[Op]] | None = None


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def cmat(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def from_cmat(obj) -> np.ndarray:
    return np.array([[complex(z[0], z[1]) for z in row] for row in obj], dtype=complex)


def frac(x) -> Fraction:
    return Fraction(str(x))


def out(report: dict, *path):
    node = report.get("outputs", {})
    for key in path:
        node = node[key]
    return node


def all_of(*checks: Check) -> Check:
    def run(report: dict):
        for c in checks:
            reason = c(report)
            if reason:
                return reason
        return None

    return run


def expect_equal(what: str, got, want) -> str | None:
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


def _section(rng: np.random.Generator, genus: int, n_punct: int) -> tuple[dict, list]:
    """Rank-2 Hitchin-section data with random degree-2 differential terms."""
    q_terms = []
    for _ in range(n_punct):
        terms = []
        for _ in range(int(rng.integers(0, 3))):
            a = complex(round(float(rng.normal()), 3), round(float(rng.normal()), 3))
            terms.append((2, int(rng.integers(0, 3)), a))
        q_terms.append(terms)
    data = hitchin_section("SL2R", genus, n_punct, q_terms=q_terms)
    raw = [[[j, k, [a.real, a.imag]] for j, k, a in terms] for terms in q_terms]
    return to_json(data), raw


def _topology(rng: np.random.Generator) -> tuple[int, int]:
    # 2g - 2 + n > 0 always: the section refuses the other cases with exit 3
    genus = int(rng.integers(0, 4))
    low = 3 if genus == 0 else 1
    return genus, int(rng.integers(low, low + 4))


def _split_bundle(genus: int, degrees: tuple[int, int], n_punct: int) -> dict:
    punctures = tuple(
        Puncture(weight=(Fraction(0), Fraction(0)), laurent=(), flag=None) for _ in range(n_punct)
    )
    data = ParabolicHiggsData(
        genus=genus,
        realization="SU(1,1)",
        punctures=punctures,
        summand_degrees=tuple(Fraction(d) for d in degrees),
        summand_ranks=(1, 1),
        c=(Fraction(0), Fraction(0)),
    )
    return to_json(data)


# ---------------------------------------------------------------------------
# exact-mix: small exact commands on section data, plus root-system work
# ---------------------------------------------------------------------------

# (type, rank) of the rootsys slots
ROOTSYS_SLOTS = (("A", 2), ("B", 3), ("C", 4), ("D", 5), ("B", 6), ("A", 7))

# (type, rank, L): alcove-normalize slots on translated interior points.  L is
# the number of affine walls separating the point from the fundamental
# alcove; the reduction does one reflection step per wall crossed, so fixing
# L per slot fixes the cost of the slot and bounds it (an unbounded random
# point at rank 6 can take 10 s).  Each L is the median wall count of the
# sampler below for that slot.
ALCOVE_SLOTS = (
    ("A", 2, 7),
    ("B", 3, 21),
    ("C", 3, 20),
    ("D", 4, 26),
    ("A", 4, 23),
    ("C", 4, 37),
    ("B", 5, 58),
    ("D", 5, 46),
    ("A", 6, 48),
    ("A", 7, 64),
)

POSITIVE_ROOTS = {"A": lambda r: r * (r + 1) // 2, "B": lambda r: r * r, "C": lambda r: r * r, "D": lambda r: r * (r - 1)}

_ROOT_DATA: dict = {}


def root_datum(cartan_type: str, rank: int, lattice: str = "simply_connected"):
    key = (cartan_type, rank, lattice)
    if key not in _ROOT_DATA:
        _ROOT_DATA[key] = build_root_datum(cartan_type, rank, lattice=lattice)
    return _ROOT_DATA[key]


def _solve(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    n = len(rhs)
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [a[i][n] / a[i][i] for i in range(n)]


def _root_value(root, point) -> Fraction:
    return sum((Fraction(c) * p for c, p in zip(root, point)), Fraction(0))


def walls_crossed(rd, point) -> int:
    """Affine walls {root = m} between a generic point and the open fundamental alcove."""
    total = 0
    for root in rd.positive_roots:
        v = _root_value(root, point)
        total += math.floor(v) if v > 0 else math.floor(-v) + 1
    return total


def _interior_point(rng: np.random.Generator, rd) -> list[Fraction]:
    # simple-root values u_i > 0, scaled so every positive root value is in (0, 1)
    u = [Fraction(int(rng.integers(1, 5))) for _ in range(rd.rank)]
    x0 = _solve([list(row) for row in rd.simple_roots], u)
    top = max(_root_value(root, x0) for root in rd.positive_roots)
    scale = top + int(rng.integers(1, 4))
    return [x / scale for x in x0]


def _alcove_point(rng: np.random.Generator, rd, target_walls: int) -> list[Fraction]:
    x = _interior_point(rng, rd)
    while True:
        y = list(x)
        for _ in range(int(rng.integers(0, 3 * rd.rank))):
            i = int(rng.integers(0, rd.rank))
            y[i] -= _root_value(rd.simple_roots[i], y)
        point = [a + int(rng.integers(-2, 3)) for a in y]
        if walls_crossed(rd, point) == target_walls:
            return point


def _wall_point(rng: np.random.Generator, rd) -> list[Fraction]:
    # closed-alcove boundary points drawn like the bounded-normalization gate;
    # these need k > 1 more often than not
    while True:
        den = int(rng.integers(2, 7))
        point = [Fraction(int(rng.integers(0, den + 1)), den) for _ in range(rd.rank)]
        values = [_root_value(root, point) for root in rd.positive_roots]
        if all(0 <= v <= 1 for v in values) and any(v in (0, 1) for v in values):
            return point


def _check_alcove(cartan_type: str, rank: int, point: list[Fraction]) -> Check:
    def check(report: dict):
        k = out(report, "k", "value")
        lam = [frac(x) for x in out(report, "lattice_vector", "value")]
        normalized = [frac(x) for x in out(report, "normalized", "value")]
        if not 1 <= k <= 64:
            return f"k = {k} outside [1, 64]"
        if normalized != [k * a + l for a, l in zip(point, lam)]:
            return "normalized != k*a + lattice_vector"
        rd = root_datum(cartan_type, rank)
        if not in_A_prime(rd, normalized):
            return "normalized point is not in the open star"
        if not cochar_contains(rd, lam):
            return "lattice vector is not in the cocharacter lattice"
        return None

    return check


def _check_rootsys(cartan_type: str, rank: int) -> Check:
    def check(report: dict):
        simple = out(report, "simple_roots", "value")
        if [simple[i][i] for i in range(rank)] != [2] * rank:
            return "simple roots do not pair to 2 with their coroots"
        return expect_equal(
            "positive roots", len(out(report, "positive_roots", "value")), POSITIVE_ROOTS[cartan_type](rank)
        )

    return check


def _generic_weights(rng: np.random.Generator, n: int, punctures: int) -> list[list[str]]:
    """Weights m/q with q prime and sum M coprime to n: generic by construction.

    n*sum_S(alpha) - k*total = (n*m_S - k*M)/q is never in gcd(n,k)*Z: q is
    larger than |n*m_S - k*M|, so it would need n*m_S = k*M, hence n | k*M,
    impossible for 0 < k < n when gcd(M, n) = 1.
    """
    q = 10007
    while True:
        m = [[int(rng.integers(0, 5)) for _ in range(n)] for _ in range(punctures)]
        if math.gcd(sum(map(sum, m)), n) == 1:
            return [[f"{x}/{q}" for x in row] for row in m]


def _planted_weights(rng: np.random.Generator, n: int, punctures: int) -> list[list[str]]:
    """Weights with a rank-1 slope equality planted on coordinate 0: non-generic."""
    q = 10007
    while True:
        m = [[int(rng.integers(0, q)) for _ in range(n)] for _ in range(punctures)]
        rest = sum(map(sum, m)) - m[-1][0]
        head = sum(row[0] for row in m[:-1])
        # n*(head + x) - (rest + x) = 0 mod q
        m[-1][0] = ((rest - n * head) * pow(n - 1, -1, q)) % q
        if sum(map(sum, m)) % q:
            return [[f"{x}/{q}" for x in row] for row in m]


def _exact_small(rng: np.random.Generator) -> list[Op]:
    ops: list[Op] = []

    def section_op(command, payload_extra, check):
        genus, n_punct = _topology(rng)
        data, _ = _section(rng, genus, n_punct)
        payload = {"data": data, **payload_extra(genus, n_punct)}
        ops.append(Op(command, payload, 0, check(genus, n_punct), command, size=f"n{n_punct}"))

    # hitchin-section: degrees (g-1, 1-g) and weights (-1/2, 1/2) by construction
    for _ in range(2):
        genus, n_punct = _topology(rng)
        _, raw = _section(rng, genus, n_punct)

        def check(report, g=genus, n=n_punct):
            return all_of(
                lambda r: expect_equal("degrees", out(r, "degrees", "value"), [g - 1, 1 - g]),
                lambda r: expect_equal("weights", out(r, "weights", "value"), [["-1/2", "1/2"]] * n),
            )(report)

        payload = {"mode": "SL2R", "genus": genus, "n_punctures": n_punct, "q_terms": raw}
        ops.append(Op("hitchin-section", payload, 0, check, "hitchin-section SL2R", size=f"n{n_punct}"))
    rank = int(rng.integers(3, 5))
    genus = int(rng.integers(1, 3))
    n_punct = int(rng.integers(1, 4))
    q_terms = [
        [[j, int(rng.integers(1, 3)), [round(float(rng.normal()), 3), 0.0]] for j in range(2, rank + 1)]
        for _ in range(n_punct)
    ]
    want = [(genus - 1) * (rank + 1 - 2 * k) for k in range(1, rank + 1)]
    ops.append(
        Op(
            "hitchin-section",
            {"mode": "SLnR_principal", "genus": genus, "n_punctures": n_punct, "rank": rank, "q_terms": q_terms},
            0,
            lambda r, want=want: expect_equal("degrees", out(r, "degrees", "value"), want),
            "hitchin-section principal",
            size=f"n{n_punct}",
        )
    )

    # toledo: the section attains |tau| = 2g - 2 + n (Milnor-Wood gate)
    for _ in range(3):
        section_op(
            "toledo",
            lambda g, n: {},
            lambda g, n: lambda r: expect_equal("|tau|", abs(frac(out(r, "tau", "value"))), 2 * g - 2 + n),
        )

    # mw-check: attained with zero margin on sections; split bundles violate
    for _ in range(2):
        section_op(
            "mw-check",
            lambda g, n: {},
            lambda g, n: lambda r: expect_equal(
                "min margin", min(frac(x) for x in out(r, "margins", "value")), 0
            ),
        )
    genus, d = int(rng.integers(0, 3)), int(rng.integers(1, 4))
    ops.append(
        Op(
            "mw-check",
            {"data": _split_bundle(genus, (d, -d), int(rng.integers(1, 4)))},
            2,
            lambda r, d=d: expect_equal("tau", frac(out(r, "tau", "value")), 2 * d),
            "mw-check violation",
        )
    )

    # stability: the split certificate has slope 2g - 2 + n on sections;
    # a positive-degree split bundle is destabilized by its negative line
    for _ in range(2):
        section_op(
            "stability",
            lambda g, n: {"reductions": [{"label": "split", "chi": [1, -1]}, {"label": "center", "chi": [1, 1]}]},
            lambda g, n: lambda r: all_of(
                lambda r: expect_equal("verdict", out(r, "verdict"), "stable"),
                lambda r: expect_equal("split slope", frac(out(r, "slope_table")[0]["slope"]["value"]), 2 * g - 2 + n),
            )(r),
        )
    genus, d = int(rng.integers(0, 3)), int(rng.integers(1, 4))
    ops.append(
        Op(
            "stability",
            {
                "data": _split_bundle(genus, (d, -d), int(rng.integers(1, 4))),
                "reductions": [{"label": "neg-line", "chi": [0, 1]}],
            },
            2,
            lambda r: expect_equal("witness", out(r, "witness"), "neg-line"),
            "stability unstable",
        )
    )

    # hecke: forward shift, then the inverse restores the canonical bytes
    for lattice in ("GL", "simply_connected"):
        genus, n_punct = _topology(rng)
        data, _ = _section(rng, genus, n_punct)
        if lattice == "GL":
            lambdas = [[int(x) for x in rng.integers(-6, 7, size=2)] for _ in range(n_punct)]
        else:
            lambdas = []
            for _ in range(n_punct):
                c, e = (int(x) for x in rng.integers(-3, 4, size=2))
                lambdas.append([c + e, c - e])
        there = to_json(hecke_apply(from_json(data), lambdas, lattice=lattice))
        want_degrees = [genus - 1 + sum(l[0] for l in lambdas), 1 - genus + sum(l[1] for l in lambdas)]
        want_weights = [[Fraction(-1, 2) + l[0], Fraction(1, 2) + l[1]] for l in lambdas]
        fwd = Op(
            "hecke",
            {"data": data, "lambdas": lambdas, "lattice": lattice},
            0,
            lambda r, there=there, degrees=want_degrees, weights=want_weights: all_of(
                lambda r: expect_equal("degrees", [frac(x) for x in out(r, "degrees", "value")], degrees),
                lambda r: expect_equal("weights", [[frac(x) for x in w] for w in out(r, "weights", "value")], weights),
                lambda r: expect_equal("forward data", canon(out(r, "data")), canon(there)),
            )(r),
            f"hecke {lattice}",
            root_datum=("A", 1, lattice) if lattice != "GL" else None,
            size=f"n{n_punct}",
        )
        back = Op(
            "hecke",
            {"data": there, "lambdas": [[-x for x in l] for l in lambdas], "lattice": lattice},
            0,
            lambda r, data=data: expect_equal("inverse restores the input", canon(out(r, "data")), canon(data)),
            f"hecke {lattice} inverse",
            root_datum=("A", 1, lattice) if lattice != "GL" else None,
            size=f"n{n_punct}",
        )
        ops += [fwd, back]

    # degree-parabolic: the line summand has pardeg g - 1 + n/2
    for chi, sign in (([1, 0], 1), ([0, 1], -1), ([1, 0], 1)):
        section_op(
            "degree-parabolic",
            lambda g, n, chi=chi: {"chi": chi, "label": "line"},
            lambda g, n, sign=sign: lambda r: expect_equal(
                "pardeg", frac(out(r, "pardeg", "value")), sign * (g - 1 + Fraction(n, 2))
            ),
        )

    # gr-res: every section residue is the regular nilpotent E21
    e21 = [[[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
    for _ in range(3):
        genus, n_punct = _topology(rng)
        data, _ = _section(rng, genus, n_punct)
        ops.append(
            Op(
                "gr-res",
                {"data": data, "puncture": int(rng.integers(0, n_punct))},
                0,
                lambda r: expect_equal("nilpotent", out(r, "nilpotent", "value"), e21),
                "gr-res",
                size=f"n{n_punct}",
            )
        )
    return ops


def _exact_heavy(rng: np.random.Generator) -> list[Op]:
    ops: list[Op] = []
    for cartan_type, rank in ROOTSYS_SLOTS:
        lattice = "adjoint" if rng.integers(0, 2) else "simply_connected"
        ops.append(
            Op(
                "rootsys",
                {"cartan_type": cartan_type, "rank": rank, "lattice": lattice},
                0,
                _check_rootsys(cartan_type, rank),
                f"rootsys {cartan_type}{rank}",
                root_datum=(cartan_type, rank, lattice),
                size=f"rank{rank}",
            )
        )
    for cartan_type, rank, walls in ALCOVE_SLOTS:
        point = _alcove_point(rng, root_datum(cartan_type, rank), walls)
        ops.append(_alcove_op(cartan_type, rank, point, f"alcove-normalize {cartan_type}{rank}"))
    for cartan_type in ("A", "C"):
        point = _wall_point(rng, root_datum(cartan_type, 2))
        ops.append(_alcove_op(cartan_type, 2, point, f"alcove-normalize {cartan_type}2 wall"))

    def genericity(weights, generic, slot):
        n = len(weights[0])
        ops.append(
            Op(
                "genericity",
                {"weights": weights},
                0 if generic else 2,
                lambda r: expect_equal("generic", out(r, "generic"), generic),
                slot,
                size=f"n{n}",
            )
        )

    genericity(_generic_weights(rng, 4, 5), True, "genericity 4x5 generic")
    genericity(_generic_weights(rng, 3, 6), True, "genericity 3x6 generic")
    genericity(_planted_weights(rng, 6, 4), False, "genericity 6x4 planted")
    return ops


def _alcove_op(cartan_type: str, rank: int, point: list[Fraction], slot: str) -> Op:
    return Op(
        "alcove-normalize",
        {"cartan_type": cartan_type, "rank": rank, "point": [str(x) for x in point]},
        0,
        _check_alcove(cartan_type, rank, point),
        slot,
        root_datum=(cartan_type, rank, "simply_connected"),
        size=f"rank{rank}",
    )


def exact_mix(rng: np.random.Generator) -> list[Op]:
    return _exact_small(rng) + _exact_heavy(rng)


# ---------------------------------------------------------------------------
# dictionary-mix: puncture dictionary round trips and the Lie kernels
# ---------------------------------------------------------------------------

E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = np.array([[0, 0], [1, 0]], dtype=complex)
U_PLUS = 0.5 * np.array([[1, -1j], [-1j, -1]], dtype=complex)
U_MINUS = np.conj(U_PLUS)
Z2 = np.zeros((2, 2), dtype=complex)


def _hyp_exponents(s):
    return np.linalg.eigvalsh(-1j * (-s + s.conj().T))


def _tame_hyperbolic(s, need_gap=True) -> bool:
    t = _hyp_exponents(s)
    if float(np.max(np.abs(t))) > 0.75:
        return False
    return not need_gap or float(t[-1] - t[0]) > 1e-2


def _higgs_instance(model: str, kind: int, rng: np.random.Generator):
    """(alpha, s, y) drawn as the dictionary round-trip gate draws them;
    SU(2,1) uses the SU(1,1) families embedded in coordinates (0, 2)."""

    def weight(lo=-0.49, hi=0.49):
        return round(float(rng.uniform(lo, hi)), 3)

    def cnormal(scale=0.35):
        return scale * complex(rng.normal(), rng.normal())

    half = Fraction(1, 2)
    if model == "GL(2,C)":
        if kind == 0:
            a, b = weight(), weight()
            while abs(a - b) < 5e-3:
                b = weight()
            s = np.diag([cnormal(), cnormal()])
            while not _tame_hyperbolic(s, need_gap=False):
                s = np.diag([cnormal(), cnormal()])
            return (a, b), s, Z2
        if kind == 1:
            a = weight()
            s = np.array([[cnormal(), cnormal()], [cnormal(), cnormal()]])
            while not _tame_hyperbolic(s):
                s = np.array([[cnormal(), cnormal()], [cnormal(), cnormal()]])
            return (a, a), s, Z2
        a = weight()
        return (a, a + 1), cnormal() * np.eye(2, dtype=complex), cnormal(1.0) * (E21 if rng.integers(0, 2) else E12)
    if model == "SU(1,1)":
        if kind == 0:
            a = weight()

            def draw():
                return np.array([[0, cnormal()], [cnormal(), 0]], dtype=complex)

            s = draw()
            while abs(s[0, 1] * s[1, 0]) < 1e-2 or not _tame_hyperbolic(s):
                s = draw()
            return (a, a), s, Z2
        if kind == 1:
            return (weight(), weight()), Z2, Z2
        alpha = (half, -half) if rng.integers(0, 2) else (0, 0)
        return alpha, Z2, cnormal(1.0) * (E21 if rng.integers(0, 2) else E12)
    if model == "SL(2,R)":
        if kind == 0:
            p = cnormal()
            s = np.array([[p, 0], [0, -p]], dtype=complex)
            while not _tame_hyperbolic(s):
                p = cnormal()
                s = np.array([[p, 0], [0, -p]], dtype=complex)
            return (weight(), weight()), s, Z2
        if kind == 1:
            a = weight()

            def draw():
                p, q = cnormal(), cnormal()
                return np.array([[p, q], [q, -p]], dtype=complex)

            s = draw()
            while abs(np.trace(s @ s)) < 1e-2 or not _tame_hyperbolic(s):
                s = draw()
            return (a, a), s, Z2
        alpha = (half, -half) if rng.integers(0, 2) else (0, 0)
        return alpha, Z2, cnormal(1.0) * (U_PLUS if rng.integers(0, 2) else U_MINUS)
    z3 = np.zeros((3, 3), dtype=complex)
    if kind == 0:
        a = weight()
        s = z3.copy()
        while True:
            s[0, 2], s[2, 0] = cnormal(), cnormal()
            if abs(s[0, 2] * s[2, 0]) >= 1e-2 and _tame_hyperbolic(s):
                break
        return (a, weight(), a), s, z3
    if kind == 1:
        return (weight(), weight(), weight()), z3, z3
    # nilpotent: the inverse direction fails at present, so this family is
    # sent only by the known-defect probe (su21_nilpotent_round_trips, README)
    alpha = (half, weight(), -half) if rng.integers(0, 2) else (0, weight(), 0)
    y = z3.copy()
    y[2, 0] = cnormal(1.0)
    return alpha, z3, y


def _spectrum(m):
    return sorted(np.linalg.eigvals(m), key=lambda z: (round(z.real, 9), round(z.imag, 9)))


def _round_trip(rng: np.random.Generator, model: str, kind: int) -> list[Op]:
    alpha, s, y = _higgs_instance(model, kind, rng)
    alpha_json = [str(a) if isinstance(a, Fraction) else a for a in alpha]
    entry = higgs_to_localsystem([float(a) for a in alpha], s, y, model)
    fwd_entry = entry_to_json(entry)
    want_alpha = canonical_alpha(alpha)
    want_spec = _spectrum(s)
    want_cert = fwd_entry["certificate"]

    def back_check(report: dict):
        higgs = out(report, "entry", "higgs")
        gap = max(abs(a - b) for a, b in zip(higgs["alpha"], want_alpha))
        if gap >= 1e-8:
            return f"round trip moved alpha by {gap:.3e}"
        got = _spectrum(from_cmat(higgs["s"]))
        gap = max(abs(a - b) for a, b in zip(got, want_spec))
        if gap >= 1e-8:
            return f"round trip moved the spectrum of s by {gap:.3e}"
        return expect_equal("certificate", out(report, "entry", "certificate"), want_cert)

    n = len(alpha)
    return [
        Op(
            "translate-h2l",
            {"realization": model, "alpha": alpha_json, "s": cmat(s), "y": cmat(y)},
            0,
            lambda r: expect_equal("entry", canon(out(r, "entry")), canon(fwd_entry)),
            f"translate-h2l {model}",
            size=f"n{n}",
        ),
        Op(
            "translate-l2h",
            {
                "realization": model,
                "monodromy": fwd_entry["local"]["monodromy"],
                "beta": fwd_entry["local"]["beta"],
            },
            0,
            back_check,
            f"translate-l2h {model}",
            size=f"n{n}",
        ),
    ]


def _unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q @ np.diag(np.sign(np.diag(r).real + 1e-300))


def _hermitian_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = (a + a.conj().T) / 2.0
    return m / np.linalg.norm(m)


def _ks_op(rng: np.random.Generator, n: int, partition: tuple[int, ...]) -> Op:
    jordan = np.zeros((n, n))
    pos = 0
    for block in partition:
        for k in range(block - 1):
            jordan[pos + k, pos + k + 1] = 1.0
        pos += block
    a = 0.3 * rng.standard_normal((n, n))
    a -= np.trace(a) / n * np.eye(n)
    # g = exp(a) in SL(n,R) by a truncated series, renormalized to det 1
    g = np.eye(n)
    term = np.eye(n)
    for k in range(1, 12):
        term = term @ a / k
        g = g + term
    g /= abs(np.linalg.det(g)) ** (1.0 / n)
    e = g @ jordan @ np.linalg.inv(g)
    want = [sum(max(b - k, 0) for b in partition) for k in range(1, n + 1)]
    return Op(
        "ks-orbit",
        {"realization": f"SL({n},R)", "e": e.tolist()},
        0,
        lambda r: expect_equal("rank sequence", out(r, "rank_sequence", "value"), want),
        f"ks-orbit SL({n},R) {partition}",
        size=f"n{n}",
    )


def _parabolic_op(rng: np.random.Generator, label: str, n: int, special: bool) -> Op:
    # eigenvalues with random multiplicities; dim l = sum m^2 (minus 1 on sl_n)
    distinct = int(rng.integers(2, n + 1))
    values = sorted(float(v) for v in rng.choice(np.arange(-3, 4), size=distinct, replace=False))
    mult = [1] * distinct
    for _ in range(n - distinct):
        mult[int(rng.integers(0, distinct))] += 1
    diag = [v for v, m in zip(values, mult) for _ in range(m)]
    if special:
        mean = sum(diag) / n
        diag = [d - mean for d in diag]
        s = np.diag(diag).astype(complex)
    else:
        u = _unitary(rng, n)
        s = u @ np.diag(diag) @ u.conj().T
    dim_l = sum(m * m for m in mult) - (1 if special else 0)
    dim_n = (n * n - sum(m * m for m in mult)) // 2
    want = [dim_l + dim_n, dim_l, dim_n]
    return Op(
        "parabolic",
        {"realization": label, "s": cmat(s)},
        0,
        lambda r: expect_equal(
            "dims (p, l, n)", [out(r, k, "value") for k in ("dim_p", "dim_l", "dim_n")], want
        ),
        f"parabolic {label}",
        size=f"n{n}",
    )


def _degree_pair(rng: np.random.Generator, n: int) -> list[Op]:
    s, sigma = _hermitian_unit(rng, n), _hermitian_unit(rng, n)
    values: dict = {}

    def check(order: int):
        def run(report: dict):
            if out(report, "converged") is not True:
                return "flow did not converge"
            values[order] = out(report, "value", "value")
            if abs(values[order]) > 1 + 1e-9:
                return f"|value| = {abs(values[order])} exceeds the unit-norm bound"
            if len(values) == 2 and abs(values[0] - values[1]) >= 1e-6:
                return f"reciprocity gap {abs(values[0] - values[1]):.3e}"
            return None

        return run

    return [
        Op("degree-relative", {"s": cmat(a), "sigma": cmat(b)}, 0, check(i), f"degree-relative n{n}", size=f"n{n}")
        for i, (a, b) in enumerate(((s, sigma), (sigma, s)))
    ]


def dictionary_mix(rng: np.random.Generator) -> list[Op]:
    ops: list[Op] = []
    for model in ("GL(2,C)", "SU(1,1)", "SL(2,R)"):
        for kind in range(3):
            ops += _round_trip(rng, model, kind)
    for kind in range(2):
        ops += _round_trip(rng, "SU(2,1)", kind)
    # two principal SL(4,R) slots: the costliest block of the deck, 22 operations
    # in a run, so the p97.5 tail falls inside it rather than among the
    # heavy-tailed n = 32 relative degrees
    for n, partition in ((2, (2,)), (3, (3,)), (3, (2, 1)), (4, (4,)), (4, (4,)), (4, (3, 1))):
        ops.append(_ks_op(rng, n, partition))
    for label, n, special in (("GL(2,C)", 2, False), ("GL(3,C)", 3, False), ("GL(4,C)", 4, False),
                              ("SU(2,1)", 3, True), ("SU(2,2)", 4, True), ("SU(3,3)", 6, True)):
        ops.append(_parabolic_op(rng, label, n, special))
    for n in (2, 8, 16, 32):
        ops += _degree_pair(rng, n)
    for model in ("GL(2,C)", "SU(1,1)"):
        seed = str(int(rng.integers(0, 2**31)))
        ops.append(
            Op(
                "degree-relative",
                {"sample": {"model": model, "count": 10}},
                0,
                lambda r: None
                if out(r, "max_reciprocity_gap", "value") < 1e-6
                else f"reciprocity gap {out(r, 'max_reciprocity_gap', 'value'):.3e}",
                f"degree-relative sample {model}",
                extra=("--seed", seed),
                size="n2",
            )
        )
    return ops


def su21_nilpotent_round_trips(rng: np.random.Generator) -> list[Op]:
    """SU(2,1) cusp round trips, s = 0 and y = c*E31, with the same oracle as the
    stream's round trips: ``translate-l2h`` exits 3 on them at present."""
    ops: list[Op] = []
    for _ in range(4):
        ops += _round_trip(rng, "SU(2,1)", 2)
    return ops


# ---------------------------------------------------------------------------
# model-cusp: verify-model, where the RK4 holonomy dominates
# ---------------------------------------------------------------------------


def _grid(rng: np.random.Generator, count: int) -> dict:
    r_max = 10 ** float(rng.uniform(-3, -2))
    r_min = max(r_max * 10 ** float(-rng.uniform(2, 4)), 1e-6)
    return {"r_max": r_max, "r_min": r_min, "count": count}


def _check_model(pure_cusp: bool, constant: bool) -> Check:
    def check(report: dict):
        table = out(report, "table")
        if pure_cusp and max(row["rho"] for row in table) >= 1e-12:
            return f"pure cusp residual {max(row['rho'] for row in table):.3e} >= 1e-12"
        devs = [row["holonomy_deviation"] for row in table]
        if constant:
            worst = max(row["holonomy_deviation_full"] for row in table)
            return None if worst < 1e-10 else f"constant-coefficient deviation {worst:.3e}"
        if not all(a > b for a, b in zip(devs, devs[1:])):
            return f"holonomy deviation not strictly decreasing: {devs}"
        return None

    return check


def _cusp_op(rng: np.random.Generator, model: str, alpha: list, count: int) -> Op:
    n = len(alpha)
    y = np.zeros((n, n), dtype=complex)
    y[n - 1, 0] = 1.0
    nonzero = any(frac(a) != 0 for a in alpha)
    return Op(
        "verify-model",
        {"realization": model, "alpha": alpha, "y": cmat(y), "grid": _grid(rng, count)},
        0,
        _check_model(pure_cusp=True, constant=False),
        f"verify-model {model} cusp alpha={'half' if nonzero else 'zero'} r{count}",
        size=f"r{count}",
        alpha_nonzero=nonzero,
    )


def model_cusp(rng: np.random.Generator) -> list[Op]:
    # cost blocks, cheapest first: 7 hyperbolic at 3 radii, 6 at 4 radii,
    # 4 SU(1,1) cusps at 3 radii, then 3 at 0.2-0.7 s; p50 falls in the
    # middle of the second block and p75 in the middle of the third
    ops = []
    for count in (3,) * 7 + (4,) * 6:
        # 0.05 <= |a| <= 0.2 keeps the RK4 refinement at 512 steps, fixing the slot's cost
        a = round(float(rng.choice([-1, 1]) * rng.uniform(0.05, 0.2)), 3)
        ops.append(
            Op(
                "verify-model",
                {
                    "realization": "SU(1,1)",
                    "alpha": [a, a],
                    "s": [[0, 0.2], [[0, 0.2], 0]],
                    "grid": _grid(rng, count),
                },
                0,
                _check_model(pure_cusp=False, constant=True),
                f"verify-model SU(1,1) hyperbolic r{count}",
                size=f"r{count}",
                alpha_nonzero=True,
            )
        )
    ops += [_cusp_op(rng, "SU(1,1)", [0, 0], 3) for _ in range(4)]
    ops.append(_cusp_op(rng, "SU(2,1)", [0, 0, 0], 3))
    ops.append(_cusp_op(rng, "SU(1,1)", [0, 0], 5))
    ops.append(_cusp_op(rng, "SU(1,1)", ["1/2", "-1/2"], 3))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact-mix",
            copies=4,
            make_deck=exact_mix,
        ),
        Workload(
            "dictionary-mix",
            copies=11,
            make_deck=dictionary_mix,
            known_defects=su21_nilpotent_round_trips,
        ),
        Workload(
            "model-cusp",
            copies=2,
            make_deck=model_cusp,
        ),
    )
}


def _rng(workload: Workload, seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, sorted(WORKLOADS).index(workload.name), *stream])


def generate(workload: Workload, seed: int, copies: int | None = None) -> list[Op]:
    """The run's operation list: ``copies`` decks, each shuffled, all from ``seed``."""
    rng = _rng(workload, seed)
    ops: list[Op] = []
    for _ in range(workload.copies if copies is None else copies):
        deck = workload.make_deck(rng)
        order = rng.permutation(len(deck))
        ops += [deck[i] for i in order]
    return ops


def generate_known_defects(workload: Workload, seed: int) -> list[Op]:
    """The workload's known-defect inputs, from a stream of ``seed`` apart from the deck's."""
    return workload.known_defects(_rng(workload, seed, 1)) if workload.known_defects else []
