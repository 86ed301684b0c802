"""Parabolic Higgs-bundle data on a punctured surface, with verdict engines.

The desk model is a split bundle ``E = O(d_1) + ... + O(d_n)`` whose parabolic
structure at each puncture is a weighted flag written in a declared holomorphic
trivialization, and whose Higgs field near each puncture is a finite Laurent
series ``phi = sum_k M_k z^k dz/z`` with every coefficient ``M_k`` decomposed
on the ad(alpha)-eigenbasis.  All verdicts (pole admissibility, graded
residue, gauge boundedness, stability, genericity) are computed from this
data in exact rational arithmetic whenever the inputs are rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from itertools import accumulate, combinations
from operator import mul
from typing import Any, Sequence

import numpy as np

from .cartan import _numerators
from .degree import relative_degree_filtration
from .errors import ParhodgeError
from .jsonio import (
    SchemaError,
    field_from_json,
    frac_from_json,
    frac_to_json,
    fracvec_from_json,
    fracvec_to_json,
    int_from_json,
    list_from_json,
    matrix_from_json,
    matrix_to_json,
    object_from_json,
    str_from_json,
)
from .liealg import _nilpotent_series, hs_norm, jordan_additive


class MissingEigenbasis(ParhodgeError, ValueError):
    """A Laurent coefficient does not lie in its declared ad(alpha)-eigenspace."""


class InadmissiblePoles(ParhodgeError, ValueError):
    """Requested an operation that needs parabolic pole orders."""

    def __init__(self, i: int, offenders: tuple[tuple[Fraction, int], ...]):
        super().__init__(f"puncture {i}: offending components {offenders}")
        self.offenders = offenders


class NotInLattice(ParhodgeError, ValueError):
    """A Hecke shift is not in the declared cocharacter lattice."""


# ---------------------------------------------------------------------------
# data model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaurentTerm:
    """Coefficient of ``z^order dz/z`` lying in one ad(alpha)-eigenspace."""

    order: int
    eigenvalue: Fraction
    matrix: np.ndarray


@dataclass(frozen=True)
class Puncture:
    """Weight vector (one value per summand), optional explicit flag, Laurent data.

    ``flag`` is a list of nested steps (row-major matrices whose columns span
    each step); ``None`` means the coordinate flag determined by the weight.
    """

    weight: tuple[Fraction, ...]
    laurent: tuple[LaurentTerm, ...] = ()
    flag: tuple | None = None


@dataclass(frozen=True)
class ParabolicHiggsData:
    genus: int
    realization: str
    punctures: tuple[Puncture, ...]
    summand_degrees: tuple[Fraction, ...]
    summand_ranks: tuple[int, ...] = ()
    c: tuple[Fraction, ...] = ()

    @property
    def n(self) -> int:
        return len(self.summand_degrees) if not self.summand_ranks else sum(self.summand_ranks)


def _fracs(values: Sequence) -> tuple[Fraction, ...]:
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


def make_data(
    genus: int,
    realization: str,
    weights: Sequence[Sequence],
    laurent: Sequence[Sequence[tuple[int, Fraction, np.ndarray]]] | None,
    degrees: Sequence,
    flags: Sequence | None = None,
) -> ParabolicHiggsData:
    """Convenience constructor from plain sequences (one entry per puncture),
    with no central twist: c = 0."""
    punctures = []
    for i, w in enumerate(weights):
        terms = ()
        if laurent is not None:
            terms = tuple(
                LaurentTerm(int(k), Fraction(mu), np.asarray(m, dtype=complex))
                for k, mu, m in laurent[i]
            )
        fl = None if flags is None else flags[i]
        punctures.append(Puncture(weight=_fracs(w), laurent=terms, flag=fl))
    deg = _fracs(degrees)
    return ParabolicHiggsData(
        genus=int(genus),
        realization=realization,
        punctures=tuple(punctures),
        summand_degrees=deg,
        summand_ranks=tuple(1 for _ in deg),
        c=tuple(Fraction(0) for _ in deg),
    )


# ---------------------------------------------------------------------------
# weighted coordinate flags
# ---------------------------------------------------------------------------


def _ascending_groups(values: Sequence[Fraction]) -> list[tuple[Fraction, list[int]]]:
    """Group coordinate indices by value, ascending (flag steps grow with the value)."""
    groups: dict[Fraction, list[int]] = {}
    for idx, v in enumerate(values):
        groups.setdefault(Fraction(v), []).append(idx)
    return [(v, groups[v]) for v in sorted(groups)]


def coordinate_flag(values: Sequence[Fraction]):
    """Exact nested coordinate flag of the grouped values, with step weights."""
    n = len(values)
    steps = []
    weights = []
    cols: list[int] = []
    for v, idxs in _ascending_groups(values):
        cols = cols + idxs
        step = [[Fraction(1) if r == j else Fraction(0) for j in cols] for r in range(n)]
        steps.append(step)
        weights.append(v)
    return steps, weights


def alpha_matrix(weight: Sequence[Fraction]) -> np.ndarray:
    return np.diag([float(w) for w in weight]).astype(complex)


def _turn_defect(weight: Sequence, v: np.ndarray) -> float:
    """||Ad(exp(2 pi i alpha)) v - v|| for the weight vector alpha: alpha is
    diagonal, so Ad multiplies entry (j, k) by exp(2 pi i (alpha_j - alpha_k))."""
    a = np.array([float(w) for w in weight])
    return hs_norm(v * np.exp(2j * np.pi * (a[:, None] - a[None, :])) - v)


# ---------------------------------------------------------------------------
# JSON round trip (schema "parhiggs-v1")
# ---------------------------------------------------------------------------

SCHEMA = "parhiggs-v1"


def to_json(data: ParabolicHiggsData) -> dict:
    punctures = []
    for p in data.punctures:
        terms = [
            {
                "order": t.order,
                "eigenvalue": frac_to_json(t.eigenvalue),
                "matrix": matrix_to_json(np.asarray(t.matrix, dtype=complex)),
            }
            for t in p.laurent
        ]
        flag = None
        if p.flag is not None:
            flag = [matrix_to_json(np.asarray(step, dtype=complex)) for step in p.flag]
        punctures.append(
            {"weight": fracvec_to_json(p.weight), "flag": flag, "laurent": {"terms": terms}}
        )
    return {
        "schema": SCHEMA,
        "genus": data.genus,
        "realization": data.realization,
        "punctures": punctures,
        "bundle": {
            "summands": [
                {"degree": frac_to_json(d), "rank": r}
                for d, r in zip(data.summand_degrees, data.summand_ranks)
            ]
        },
        "c": fracvec_to_json(data.c),
    }


def _summand_from_json(obj: Any, location: str) -> tuple[Fraction, int]:
    obj = object_from_json(obj, location)
    degree = field_from_json(obj, "degree", frac_from_json, location)
    return degree, field_from_json(obj, "rank", int_from_json, location, default=1, lo=1)


def _term_from_json(obj: Any, location: str, n: int) -> LaurentTerm:
    obj = object_from_json(obj, location)
    return LaurentTerm(
        order=field_from_json(obj, "order", int_from_json, location),
        eigenvalue=field_from_json(obj, "eigenvalue", frac_from_json, location),
        matrix=field_from_json(obj, "matrix", matrix_from_json, location, n=n),
    )


def _puncture_from_json(obj: Any, location: str, n: int) -> Puncture:
    """A puncture of rank-n data: a weight of n entries, n x n Laurent terms, and
    any flag in one step per distinct weight value, each of n rows and of as many
    columns as the weight has entries up to that value."""
    obj = object_from_json(obj, location)
    flag = field_from_json(obj, "flag", list_from_json, location, default=None, items=matrix_from_json)
    laurent = field_from_json(obj, "laurent", object_from_json, location, default={"terms": []})
    terms = field_from_json(
        laurent, "terms", list_from_json, location + ".laurent", items=partial(_term_from_json, n=n)
    )
    weight = field_from_json(obj, "weight", fracvec_from_json, location, length=n)
    if flag is not None:
        dims = list(accumulate(len(idxs) for _, idxs in _ascending_groups(weight)))
        if len(flag) != len(dims):
            message = f"expected one step per distinct weight value, {len(dims)}, got {len(flag)}"
            raise SchemaError(f"{location}.flag", message)
        for j, (step, dim) in enumerate(zip(flag, dims)):
            if step.shape != (n, dim):  # a column per weight entry up to the step's value
                raise SchemaError(f"{location}.flag[{j}]", f"expected a {n}x{dim} step, got {step.shape[0]}x{step.shape[1]}")
    return Puncture(weight=weight, laurent=tuple(terms), flag=None if flag is None else tuple(flag))


def from_json(obj: Any, location: str = "$") -> ParabolicHiggsData:
    """The data of a parhiggs-v1 document at ``location``.  Every size is
    checked against the rank n, the sum of the summand ranks: a weight and the
    central twist ``c`` take one entry per coordinate, a Laurent term is n x n."""
    obj = object_from_json(obj, location)
    if obj.get("schema") != SCHEMA:
        raise SchemaError(f"{location}.schema", f"expected {SCHEMA!r}")
    bundle = field_from_json(obj, "bundle", object_from_json, location)
    summands = field_from_json(
        bundle, "summands", list_from_json, f"{location}.bundle", items=_summand_from_json
    )
    degrees = tuple(degree for degree, _ in summands)
    ranks = tuple(rank for _, rank in summands)
    n = sum(ranks)
    return ParabolicHiggsData(
        genus=field_from_json(obj, "genus", int_from_json, location, lo=0),
        realization=field_from_json(obj, "realization", str_from_json, location, default=""),
        punctures=tuple(
            field_from_json(obj, "punctures", list_from_json, location, items=partial(_puncture_from_json, n=n))
        ),
        summand_degrees=degrees,
        summand_ranks=ranks,
        c=field_from_json(obj, "c", fracvec_from_json, location, default=(Fraction(0),) * n, length=n),
    )


# ---------------------------------------------------------------------------
# pole orders and graded residue
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoleOrderReport:
    kind: str  # parabolic | strictly_parabolic | inadmissible
    offenders: tuple[tuple[Fraction, int], ...]  # (eigenvalue, observed valuation)


def check_pole_orders(data: ParabolicHiggsData, i: int, tol: float = 1e-9) -> PoleOrderReport:
    """Admissibility of the Laurent data at puncture ``i``.

    A component of ad(alpha)-eigenvalue ``mu`` expanded as ``sum_k c_k z^k dz/z``
    is bounded in the model growth iff its valuation is at least ``ceil(mu)``,
    and strictly decaying iff the valuation is at least ``floor(mu) + 1`` (the
    two thresholds differ exactly when ``mu`` is an integer).
    """
    p = data.punctures[i]
    amat = alpha_matrix(p.weight)
    valuation: dict[Fraction, int] = {}
    for t in p.laurent:
        m = np.asarray(t.matrix, dtype=complex)
        nrm = hs_norm(m)
        if nrm <= tol:
            continue
        if hs_norm(amat @ m - m @ amat - float(t.eigenvalue) * m) > tol * max(1.0, nrm):
            raise MissingEigenbasis(
                f"puncture {i}: order-{t.order} coefficient is not in the "
                f"eigenvalue-{t.eigenvalue} eigenspace of ad(alpha)"
            )
        mu = Fraction(t.eigenvalue)
        valuation[mu] = min(valuation.get(mu, t.order), t.order)
    offenders = []
    strict = True
    for mu, v in sorted(valuation.items()):
        if v < math.ceil(mu):
            offenders.append((mu, v))
        elif v < math.floor(mu) + 1:
            strict = False
    if offenders:
        return PoleOrderReport(kind="inadmissible", offenders=tuple(offenders))
    return PoleOrderReport(kind="strictly_parabolic" if strict else "parabolic", offenders=())


@dataclass(frozen=True)
class GradedResidue:
    value: np.ndarray
    semisimple: np.ndarray
    nilpotent: np.ndarray
    torus_generator: np.ndarray  # GrRes is defined up to Ad(exp(t * generator))


def gr_res(data: ParabolicHiggsData, i: int, tol: float = 1e-9) -> GradedResidue:
    """Graded residue at puncture ``i``: the integer-eigenvalue coefficients at k = mu.

    The result lies in ker(Ad(exp 2 pi i alpha) - 1) and is well defined up to
    the one-parameter torus generated by alpha, recorded in the result.
    """
    report = check_pole_orders(data, i, tol=tol)
    if report.kind == "inadmissible":
        raise InadmissiblePoles(i, report.offenders)
    p = data.punctures[i]
    n = data.n
    total = np.zeros((n, n), dtype=complex)
    for t in p.laurent:
        if t.eigenvalue.denominator == 1 and t.order == t.eigenvalue.numerator:
            total = total + np.asarray(t.matrix, dtype=complex)
    amat = alpha_matrix(p.weight)
    if _turn_defect(p.weight, total) > 1e-8 * max(1.0, hs_norm(total)):
        raise MissingEigenbasis(f"puncture {i}: graded residue escapes the Ad-fixed space")
    if hs_norm(total) <= tol:
        s_part = np.zeros_like(total)
        y_part = np.zeros_like(total)
    else:
        s_part, y_part = jordan_additive(total)
    return GradedResidue(value=total, semisimple=s_part, nilpotent=y_part, torus_generator=amat)


# ---------------------------------------------------------------------------
# parabolic gauge transformations
# ---------------------------------------------------------------------------


# an entry of a gauge series at or below this size counts as zero
_GAUGE_ZERO = 1e-12


@dataclass(frozen=True)
class GaugeReport:
    bounded: bool
    offenders: tuple[tuple[int, Fraction], ...]  # (order, ad(alpha) eigenvalue)


def is_parabolic_gauge(
    terms: Sequence[tuple[int, np.ndarray]],
    weight: Sequence[Fraction],
) -> GaugeReport:
    """Boundedness of ``|z|^{-alpha} g(z) |z|^{alpha}`` for Laurent data of g.

    Each coefficient of ``z^k`` is split along the ad(alpha)-eigenvalues
    ``lambda = alpha_r - alpha_c``; the (k, lambda) piece grows like
    ``|z|^{k - lambda}``, so boundedness requires ``k >= lambda`` wherever the
    piece is nonzero.
    """
    w = _fracs(weight)
    offenders: dict[tuple[int, Fraction], bool] = {}
    for order, mat in terms:
        m = np.asarray(mat, dtype=complex)
        for r in range(m.shape[0]):
            for c in range(m.shape[1]):
                if abs(m[r, c]) <= _GAUGE_ZERO:
                    continue
                lam = w[r] - w[c]
                if Fraction(order) < lam:
                    offenders[(int(order), lam)] = True
    keys = tuple(sorted(offenders))
    return GaugeReport(bounded=not keys, offenders=keys)


def exp_pole_gauge(n_mat: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Laurent coefficients of ``exp(n / z)`` for nilpotent ``n`` (plus identity)."""
    m = np.asarray(n_mat, dtype=complex)
    series = _nilpotent_series(m)
    if hs_norm(series[-1] @ m / m.shape[0]) > _GAUGE_ZERO:  # ||N^n / n!||
        raise ValueError("exp_pole_gauge requires a nilpotent argument")
    terms = [(0, series[0])]
    for k, power in enumerate(series[1:], 1):
        if hs_norm(power) <= _GAUGE_ZERO:
            break
        terms.append((-k, power))
    return terms


def conjugate_laurent(
    gauge: Sequence[tuple[int, np.ndarray]],
    terms: Sequence[LaurentTerm],
    weight: Sequence[Fraction],
) -> tuple[LaurentTerm, ...]:
    """Laurent data of ``g phi g^{-1}`` re-expanded on the ad(alpha)-eigenbasis."""
    n = np.asarray(gauge[0][1]).shape[0]
    # inverse series of the gauge up to the pole depth present
    orders = sorted(k for k, _ in gauge)
    depth = -min(orders) if orders else 0
    g = {int(k): np.asarray(m, dtype=complex) for k, m in gauge}
    inv: dict[int, np.ndarray] = {0: np.linalg.inv(g.get(0, np.eye(n, dtype=complex)))}
    for k in range(1, 2 * depth + 1):
        acc = np.zeros((n, n), dtype=complex)
        for j in range(0, k):
            acc = acc + g.get(-(k - j), np.zeros((n, n))) @ inv.get(-j, np.zeros((n, n)))
        inv[-k] = -inv[0] @ acc
    out: dict[int, np.ndarray] = {}
    for t in terms:
        phi = np.asarray(t.matrix, dtype=complex)
        for ka, ma in g.items():
            for kb, mb in inv.items():
                k = ka + t.order + kb
                out[k] = out.get(k, np.zeros((n, n), dtype=complex)) + ma @ phi @ mb
    w = _fracs(weight)
    result = []
    for k in sorted(out):
        m = out[k]
        if hs_norm(m) <= _GAUGE_ZERO:
            continue
        by_eig: dict[Fraction, np.ndarray] = {}
        for r in range(n):
            for c in range(n):
                if abs(m[r, c]) <= _GAUGE_ZERO:
                    continue
                lam = w[r] - w[c]
                comp = by_eig.setdefault(lam, np.zeros((n, n), dtype=complex))
                comp[r, c] = m[r, c]
        for lam in sorted(by_eig):
            result.append(LaurentTerm(order=int(k), eigenvalue=lam, matrix=by_eig[lam]))
    return tuple(result)


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReductionCertificate:
    """One candidate reduction: an antidominant character given per summand.

    ``chi`` lists the character value on each summand coordinate; the reduction
    flag is the coordinate flag of ``chi`` unless explicit per-puncture
    ``flags`` are supplied.  ``degree`` overrides the global term (defaults to
    ``sum chi_k d_k`` for coordinate reductions).  ``phi_compatible`` is the
    caller's assertion that the Higgs field preserves the reduction.
    """

    label: str
    chi: tuple[Fraction, ...]
    phi_compatible: bool = True
    degree: Fraction | None = None
    flags: tuple | None = None
    levi_reduction: bool | None = None


@dataclass(frozen=True)
class StabilityVerdict:
    verdict: str  # stable | strictly_semistable | polystable | unstable
    witness: str | None
    slope_table: tuple[tuple[str, str, object], ...]
    note: str | None = None


def _pairing_against_weight(
    weight: Sequence[Fraction],
    alpha_flag,
    chi_steps,
    chi_weights,
):
    if alpha_flag is None:
        a_steps, a_weights = coordinate_flag(weight)
    else:
        a_steps = [np.asarray(s, dtype=complex) for s in alpha_flag]
        a_weights = [v for v, _ in _ascending_groups(weight)]
        chi_steps = [np.asarray(s, dtype=complex) for s in chi_steps]
    return relative_degree_filtration(a_steps, a_weights, chi_steps, chi_weights)


def coordinate_pairing(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    """Exact sum_k u_k v_k of two weights on the coordinate frame: the central
    twist <c, chi>, the global term <chi, deg>, and the pairing of the
    coordinate flags of alpha and chi, whose m_ij counts the coordinates k with
    alpha_k = a_i and chi_k = b_j; the sum runs to the shorter length.

    The entries are ``int``s or ``Fraction``s.  The sum runs on integer
    numerators over lcm(u) * lcm(v), so the result is the only ``Fraction`` it
    builds."""
    nu, du = _numerators(u)
    nv, dv = _numerators(v)
    return Fraction(sum(map(mul, nu, nv)), du * dv)


def pardeg_reduction(data: ParabolicHiggsData, red: ReductionCertificate):
    """pardeg E(sigma, chi) = deg(sigma, chi) - sum_i deg((Q_i, alpha_i), (sigma, chi))."""
    chi = _fracs(red.chi)
    if red.degree is not None:
        total = Fraction(red.degree)
    else:
        total = coordinate_pairing(chi, data.summand_degrees)
    chi_flag = None  # built only for a pairing that needs it
    for i, p in enumerate(data.punctures):
        # two coordinate flags pair in closed form; an empty chi or one whose
        # length differs from the weight takes the flag pairing, which refuses it
        if p.flag is None and red.flags is None and chi and len(chi) == len(p.weight):
            total = total - coordinate_pairing(p.weight, chi)
            continue
        if chi_flag is None:
            chi_flag = coordinate_flag(chi)
        steps = chi_flag[0] if red.flags is None else red.flags[i]
        total = total - _pairing_against_weight(p.weight, p.flag, steps, chi_flag[1])
    return total


STABILITY_MODES = ("certificate", "exhaustive_small")


def stability_check(
    data: ParabolicHiggsData,
    mode: str = "certificate",
    reductions: Sequence[ReductionCertificate] = (),
    tol: float = 1e-9,
) -> StabilityVerdict:
    """Slope trichotomy over a supplied certificate set or a small desk search.

    Certificate mode evaluates ``pardeg - <c, s>`` for every supplied
    phi-compatible reduction; the verdict quantifies only over that set.
    Exhaustive mode (split GL/SL bundles of rank <= 3, genus 0, simple poles)
    enumerates coordinate subbundles and constant-vector subbundles picked out
    by the residue eigendata, and the note names those families.
    """
    if mode == "certificate":
        rows = [r for r in reductions if r.phi_compatible]
        note = None
    elif mode == "exhaustive_small":
        rows = _enumerate_small(data, tol=tol)
        note = "searched coordinate subbundles and residue-eigenvector lines only"
    else:
        raise ValueError(f"unknown stability mode {mode!r}")

    table = []
    worst = None
    for red in rows:
        value = pardeg_reduction(data, red) - coordinate_pairing(data.c, red.chi)
        central = len(set(red.chi)) <= 1
        table.append((red.label, "chi_s", value))
        if central:
            if value != 0:
                return StabilityVerdict(
                    verdict="unstable",
                    witness=red.label,
                    slope_table=tuple(table),
                    note="central character has nonzero slope",
                )
            continue
        if worst is None or value < worst[1]:
            worst = (red, value)

    if worst is None:
        return StabilityVerdict(
            verdict="stable", witness=None, slope_table=tuple(table), note=note
        )
    red, value = worst
    if value < 0:
        return StabilityVerdict(
            verdict="unstable", witness=red.label, slope_table=tuple(table), note=note
        )
    if value > 0:
        return StabilityVerdict(
            verdict="stable", witness=None, slope_table=tuple(table), note=note
        )
    zero_rows = [r for r, (_, _, v) in zip(rows, table) if len(set(r.chi)) > 1 and v == 0]
    if zero_rows and all(r.levi_reduction for r in zero_rows):
        return StabilityVerdict(
            verdict="polystable", witness=zero_rows[0].label, slope_table=tuple(table), note=note
        )
    return StabilityVerdict(
        verdict="strictly_semistable",
        witness=red.label,
        slope_table=tuple(table),
        note=note,
    )


def _laurent_matrices(data: ParabolicHiggsData) -> list[list[np.ndarray]]:
    return [[np.asarray(t.matrix, dtype=complex) for t in p.laurent] for p in data.punctures]


def _reduces(mats: list[np.ndarray], basis: np.ndarray, tol: float) -> tuple[bool, bool]:
    """(invariant, levi): every matrix keeps span(basis), and every one also
    keeps its orthogonal complement; one projector serves both tests."""
    q, _ = np.linalg.qr(basis)
    proj = q @ q.conj().T
    rest = np.eye(proj.shape[0], dtype=complex) - proj
    levi = True
    for m in mats:
        bound = tol * max(1.0, hs_norm(m))
        below = hs_norm(rest @ m @ proj)
        if below > bound:
            return False, False
        levi = levi and not below + hs_norm(proj @ m @ rest) > bound
    return True, levi


def _enumerate_small(data: ParabolicHiggsData, tol: float) -> list[ReductionCertificate]:
    n = data.n
    if n > 3:
        raise ValueError("exhaustive_small handles split bundles of rank <= 3")
    if data.genus != 0:
        raise ValueError("exhaustive_small handles genus 0 only")
    all_terms = [m for mats in _laurent_matrices(data) for m in mats]
    rows: list[ReductionCertificate] = []

    # coordinate subbundles: exact degrees and exact flag pairings
    for mask in range(1, 2**n - 1):
        idxs = [j for j in range(n) if mask >> j & 1]
        k = len(idxs)
        invariant, levi = _reduces(all_terms, np.eye(n, dtype=complex)[:, idxs], tol)
        if not invariant:
            continue
        chi = tuple(Fraction(-(n - k)) if j in idxs else Fraction(k) for j in range(n))
        rows.append(
            ReductionCertificate(
                label="coordinate " + "".join(str(j) for j in idxs),
                chi=chi,
                levi_reduction=levi,
            )
        )

    # constant-vector line subbundles from the residue eigendata
    residues = []
    for p in data.punctures:
        r = np.zeros((n, n), dtype=complex)
        for t in p.laurent:
            if t.order == 0:
                r = r + np.asarray(t.matrix, dtype=complex)
        residues.append(r)
    seen: list[np.ndarray] = []
    for r in residues:
        if hs_norm(r) <= tol:
            continue
        _, vecs = np.linalg.eig(r)
        for j in range(n):
            v = vecs[:, j] / hs_norm(vecs[:, j])
            if any(abs(abs(v.conj() @ w) - 1.0) < 1e-9 for w in seen):
                continue
            invariant, levi = _reduces(all_terms, v.reshape(-1, 1), tol)
            if not invariant:
                continue
            support = [k for k in range(n) if abs(v[k]) > 1e-9]
            if len(support) == 1:
                continue  # already covered by the coordinate sweep
            seen.append(v)
            deg = min(data.summand_degrees[k] for k in support)
            chi = (Fraction(-(n - 1)),) + tuple(Fraction(1) for _ in range(n - 1))
            # deg(sigma, chi) = -(n-1) deg(line) + (deg E - deg(line))
            rows.append(
                ReductionCertificate(
                    label=f"line through {np.round(v, 4).tolist()}",
                    chi=chi,
                    degree=Fraction(-(n - 1)) * deg
                    + (sum(data.summand_degrees, Fraction(0)) - deg),
                    flags=tuple(_vector_flag(v) for _ in data.punctures),
                    levi_reduction=levi,
                )
            )
    return rows


def _vector_flag(v: np.ndarray):
    """Two-step flag [span v, C^n] matching a chi with two distinct values."""
    n = v.shape[0]
    q, _ = np.linalg.qr(np.hstack([v.reshape(-1, 1), np.eye(n, dtype=complex)]))
    full = np.hstack([v.reshape(-1, 1), q[:, 1:n]])
    return [v.reshape(-1, 1), full]


# ---------------------------------------------------------------------------
# Hecke transforms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeckeResult:
    weights: tuple[tuple[Fraction, ...], ...]
    degrees: tuple[Fraction, ...]


def hecke_transform(
    weights: Sequence[Sequence],
    lambdas: Sequence[Sequence],
    degrees: Sequence,
    lattice: str = "GL",
) -> HeckeResult:
    """Shift each puncture weight by a cocharacter and retwist the degrees.

    The frame change ``z^{lambda}`` adds ``lambda_i`` to the weight at puncture
    ``i`` and adds ``sum_i lambda_{i,k}`` to the k-th summand degree, which
    keeps the parabolic degree of every coordinate reduction unchanged.

    ``lattice`` selects the cocharacter lattice: "GL" admits every integer
    vector; "simply_connected" and "adjoint" admit vectors with integral sum
    whose traceless part lies in the corresponding type-A lattice (the adjoint
    lattice contains the half-integral shifts such as (1/2, -1/2)).
    """
    ws = [_fracs(w) for w in weights]
    ls = [_fracs(l) for l in lambdas]
    ds = _fracs(degrees)
    if len(ws) != len(ls):
        raise ValueError("one cocharacter per puncture is required")
    n = len(ds)
    if lattice not in ("GL", "simply_connected", "adjoint"):
        raise ValueError(f"unknown lattice {lattice!r}")
    for i, lam in enumerate(ls):
        if len(lam) != n:
            raise NotInLattice(f"puncture {i}: cocharacter length differs from the rank")
        nums, d = _numerators(lam)
        if lattice == "GL":
            if d != 1:
                raise NotInLattice(f"puncture {i}: {tuple(map(str, lam))} is not an integer vector")
            continue
        total = sum(nums)
        if total % d:
            raise NotInLattice(f"puncture {i}: central part {Fraction(total, d)} is not integral")
        if not lam:
            continue
        # type A: the simply-connected lattice holds the shifts whose entries
        # are all total/n mod 1, the adjoint one those with integral differences
        scale, base = (n, total) if lattice == "simply_connected" else (1, nums[0])
        if any((scale * x - base) % (scale * d) for x in nums):
            raise NotInLattice(
                f"puncture {i}: traceless part of {tuple(map(str, lam))} is outside the "
                f"{lattice} cocharacter lattice"
            )
    new_weights = tuple(tuple(a + b for a, b in zip(w, lam)) for w, lam in zip(ws, ls))
    # summand k gains the k-th entry of every shift
    nums, d = _numerators([*ds, *(x for lam in ls for x in lam)])
    degrees = tuple(Fraction(sum(nums[k::n]), d) for k in range(n))
    return HeckeResult(weights=new_weights, degrees=degrees)


def hecke_apply(data: ParabolicHiggsData, lambdas: Sequence[Sequence], lattice: str = "GL") -> ParabolicHiggsData:
    res = hecke_transform([p.weight for p in data.punctures], lambdas, data.summand_degrees, lattice)
    punctures = tuple(
        replace(p, weight=w) for p, w in zip(data.punctures, res.weights)
    )
    return replace(data, punctures=punctures, summand_degrees=res.degrees)


# ---------------------------------------------------------------------------
# weight genericity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenericityResult:
    generic: bool
    character: str | None
    value: Fraction | None


def genericity_check(weights: Sequence[Sequence], max_combinations: int = 200000) -> GenericityResult:
    """Exact wall test for GL/SL weights: some reduction slope equality becomes integral.

    The determinant character is integral iff the total weight sum is an
    integer; a rank-k proper reduction admits integer degree solutions with
    equal slopes iff ``n * sum_S alpha - k * sum alpha`` lies in gcd(n,k) Z
    for some per-puncture choice of k-element coordinate subsets S.

    Scaled by the lcm D of the denominators, that is a sum of per-puncture
    integer residues hitting ``k * D * sum alpha`` modulo ``gcd(n,k) * D``.
    The residue sets reachable from each puncture to the last decide it, and
    a forward walk that keeps the remainder reachable recovers the first
    witness in puncture-major ``combinations`` order.  ``max_combinations``
    bounds C(n, k) and the residue sums formed at each suffix step, hence the
    size of every suffix set.
    """
    ws = [_fracs(w) for w in weights]
    if not ws:
        return GenericityResult(generic=False, character="det", value=Fraction(0))
    n = len(ws[0])
    for i, w in enumerate(ws):
        if not w or len(w) != n:
            raise ValueError(f"weight row {i} has {len(w)} entries; every row needs the same n >= 1")
    nums, d = _numerators([a for w in ws for a in w])
    scaled = [nums[i : i + n] for i in range(0, len(nums), n)]
    scaled_total = sum(nums)
    if scaled_total % d == 0:
        return GenericityResult(generic=False, character="det", value=Fraction(scaled_total, d))
    for k in range(1, n):
        if math.comb(n, k) > max_combinations:
            raise ValueError(
                f"rank-{k} sweep: C({n},{k}) = {math.comb(n, k)} exceeds"
                f" max_combinations = {max_combinations}"
            )
        modulus = math.gcd(n, k) * d
        rows = [[n * a % modulus for a in row] for row in scaled]
        reach = [{0}]
        for row in reversed(rows):
            # combinations of the entries run in ``combinations(range(n), k)`` order
            distinct = {r % modulus for r in map(sum, combinations(row, k))}
            after = reach[-1]
            sums = len(distinct) * len(after)
            if sums > max_combinations:
                raise ValueError(
                    f"rank-{k} sweep: a suffix step forms {sums} residue sums, over"
                    f" max_combinations = {max_combinations}"
                )
            # the last puncture (after == {0}) reaches exactly its own residues
            reach.append({(r + s) % modulus for r in distinct for s in after} if after != {0} else distinct)
        reach.reverse()  # reach[i]: the residues the punctures i, i+1, ... can sum to
        need = k * scaled_total % modulus
        if need not in reach[0]:
            continue
        chosen = 0  # sum_S alpha, scaled by d
        for w, row, after in zip(scaled, rows, reach[1:]):
            subset, r = next(
                (subset, r)
                for subset, r in zip(combinations(range(n), k), map(sum, combinations(row, k)))
                if (need - r) % modulus in after
            )
            need = (need - r) % modulus
            chosen += sum(w[i] for i in subset)
        return GenericityResult(
            generic=False,
            character=f"rank-{k} reduction slope equality",
            value=Fraction(n * chosen - k * scaled_total, d),
        )
    return GenericityResult(generic=True, character=None, value=None)
