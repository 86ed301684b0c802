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

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Sequence

import numpy as np

from .cartan import alcove_membership, build_root_datum, cochar_contains
from .degree import relative_degree_filtration
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
    parse_document,
    str_from_json,
)
from .liealg import jordan_additive


class MissingEigenbasis(ValueError):
    """A Laurent coefficient does not lie in its declared ad(alpha)-eigenspace."""


class InadmissiblePoles(ValueError):
    """Requested an operation that needs parabolic pole orders."""


class NotInLattice(ValueError):
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
    return tuple(Fraction(v) for v in values)


def make_data(
    genus: int,
    realization: str,
    weights: Sequence[Sequence],
    laurent: Sequence[Sequence[tuple[int, Fraction, np.ndarray]]] | None,
    degrees: Sequence,
    c: Sequence | None = None,
    flags: Sequence | None = None,
) -> ParabolicHiggsData:
    """Convenience constructor from plain sequences (one entry per puncture)."""
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
    cc = _fracs(c) if c is not None else tuple(Fraction(0) for _ in deg)
    return ParabolicHiggsData(
        genus=int(genus),
        realization=realization,
        punctures=tuple(punctures),
        summand_degrees=deg,
        summand_ranks=tuple(1 for _ in deg),
        c=cc,
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


def validate(data: ParabolicHiggsData, tol: float = 1e-9) -> list[str]:
    """Return the list of violated invariants (empty when the data is coherent)."""
    problems: list[str] = []
    n = data.n
    if data.c and len(data.c) != n:
        problems.append("central parameter length differs from the rank")
    rd = build_root_datum("A", n - 1) if n >= 2 else None
    for i, p in enumerate(data.punctures):
        if len(p.weight) != n:
            problems.append(f"puncture {i}: weight length differs from the rank")
            continue
        if rd is not None:
            dom = sorted(p.weight, reverse=True)
            coords = _diag_to_coroot(dom)
            kind = alcove_membership(rd, coords).kind
            if kind not in ("interior", "boundary"):
                problems.append(f"puncture {i}: weight lies outside the closed alcove")
        if p.flag is not None:
            dims = [np.asarray(step, dtype=complex).shape[1] for step in p.flag]
            expected = []
            total = 0
            for _, idxs in _ascending_groups(p.weight):
                total += len(idxs)
                expected.append(total)
            if dims != expected:
                problems.append(f"puncture {i}: flag step dimensions do not match the weight multiplicities")
        amat = alpha_matrix(p.weight)
        for t in p.laurent:
            m = np.asarray(t.matrix, dtype=complex)
            defect = np.linalg.norm(amat @ m - m @ amat - float(t.eigenvalue) * m)
            if defect > tol * max(1.0, np.linalg.norm(m)):
                problems.append(
                    f"puncture {i}: order-{t.order} term is not an ad(alpha) eigenvector of eigenvalue {t.eigenvalue}"
                )
    return problems


def _diag_to_coroot(diag: Sequence[Fraction]) -> list[Fraction]:
    """Type-A conversion: diagonal coordinates to simple-coroot coordinates."""
    n = len(diag)
    mean = sum(diag, Fraction(0)) / n
    central = [Fraction(d) - mean for d in diag]
    return [sum(central[: k + 1], Fraction(0)) for k in range(n - 1)]


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


def _term_from_json(obj: Any, location: str) -> LaurentTerm:
    obj = object_from_json(obj, location)
    return LaurentTerm(
        order=field_from_json(obj, "order", int_from_json, location),
        eigenvalue=field_from_json(obj, "eigenvalue", frac_from_json, location),
        matrix=field_from_json(obj, "matrix", matrix_from_json, location),
    )


def _puncture_from_json(obj: Any, location: str) -> Puncture:
    obj = object_from_json(obj, location)
    flag = field_from_json(obj, "flag", list_from_json, location, default=None, items=matrix_from_json)
    laurent = field_from_json(obj, "laurent", object_from_json, location, default={"terms": []})
    terms = field_from_json(laurent, "terms", list_from_json, location + ".laurent", items=_term_from_json)
    return Puncture(
        weight=field_from_json(obj, "weight", fracvec_from_json, location),
        laurent=tuple(terms),
        flag=None if flag is None else tuple(flag),
    )


def from_json(obj: dict) -> ParabolicHiggsData:
    obj = object_from_json(obj)
    if obj.get("schema") != SCHEMA:
        raise SchemaError("$.schema", f"expected {SCHEMA!r}")
    bundle = field_from_json(obj, "bundle", object_from_json)
    summands = field_from_json(bundle, "summands", list_from_json, "$.bundle", items=_summand_from_json)
    degrees = tuple(degree for degree, _ in summands)
    return ParabolicHiggsData(
        genus=field_from_json(obj, "genus", int_from_json, lo=0),
        realization=field_from_json(obj, "realization", str_from_json, default=""),
        punctures=tuple(field_from_json(obj, "punctures", list_from_json, items=_puncture_from_json)),
        summand_degrees=degrees,
        summand_ranks=tuple(rank for _, rank in summands),
        c=field_from_json(obj, "c", fracvec_from_json, default=tuple(Fraction(0) for _ in degrees)),
    )


def dumps(data: ParabolicHiggsData) -> str:
    return json.dumps(to_json(data), sort_keys=True, separators=(",", ":"))


def loads(text: str) -> ParabolicHiggsData:
    return from_json(parse_document(text))


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
        nrm = np.linalg.norm(m)
        if nrm <= tol:
            continue
        if np.linalg.norm(amat @ m - m @ amat - float(t.eigenvalue) * m) > tol * max(1.0, nrm):
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
        raise InadmissiblePoles(f"puncture {i}: offending components {report.offenders}")
    p = data.punctures[i]
    n = data.n
    total = np.zeros((n, n), dtype=complex)
    for t in p.laurent:
        if t.eigenvalue.denominator == 1 and t.order == t.eigenvalue.numerator:
            total = total + np.asarray(t.matrix, dtype=complex)
    amat = alpha_matrix(p.weight)
    u = _expm_diag(2j * np.pi * amat)
    if np.linalg.norm(u @ total @ np.linalg.inv(u) - total) > 1e-8 * max(1.0, np.linalg.norm(total)):
        raise MissingEigenbasis(f"puncture {i}: graded residue escapes the Ad-fixed space")
    if np.linalg.norm(total) <= tol:
        s_part = np.zeros_like(total)
        y_part = np.zeros_like(total)
    else:
        s_part, y_part = jordan_additive(total)
    return GradedResidue(value=total, semisimple=s_part, nilpotent=y_part, torus_generator=amat)


def _expm_diag(m: np.ndarray) -> np.ndarray:
    # alpha is diagonal in the declared trivialization
    return np.diag(np.exp(np.diagonal(m)))


# ---------------------------------------------------------------------------
# parabolic gauge transformations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaugeReport:
    bounded: bool
    offenders: tuple[tuple[int, Fraction], ...]  # (order, ad(alpha) eigenvalue)


def is_parabolic_gauge(
    terms: Sequence[tuple[int, np.ndarray]],
    weight: Sequence[Fraction],
    tol: float = 1e-12,
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
                if abs(m[r, c]) <= tol:
                    continue
                lam = w[r] - w[c]
                if Fraction(order) < lam:
                    offenders[(int(order), lam)] = True
    keys = tuple(sorted(offenders))
    return GaugeReport(bounded=not keys, offenders=keys)


def exp_pole_gauge(n_mat: np.ndarray, tol: float = 1e-12) -> list[tuple[int, np.ndarray]]:
    """Laurent coefficients of ``exp(n / z)`` for nilpotent ``n`` (plus identity)."""
    m = np.asarray(n_mat, dtype=complex)
    size = m.shape[0]
    terms = [(0, np.eye(size, dtype=complex))]
    power = np.eye(size, dtype=complex)
    for k in range(1, size + 1):
        power = power @ m / k
        if np.linalg.norm(power) <= tol:
            break
        terms.append((-k, power))
    else:
        if np.linalg.norm(power @ m) > tol:
            raise ValueError("exp_pole_gauge requires a nilpotent argument")
    return terms


def conjugate_laurent(
    gauge: Sequence[tuple[int, np.ndarray]],
    terms: Sequence[LaurentTerm],
    weight: Sequence[Fraction],
    tol: float = 1e-12,
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
        if np.linalg.norm(m) <= tol:
            continue
        by_eig: dict[Fraction, np.ndarray] = {}
        for r in range(n):
            for c in range(n):
                if abs(m[r, c]) <= tol:
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


def _central_pairing(c: Sequence[Fraction], chi: Sequence[Fraction]) -> Fraction:
    return sum((Fraction(a) * Fraction(b) for a, b in zip(c, chi)), Fraction(0))


def pardeg_reduction(data: ParabolicHiggsData, red: ReductionCertificate):
    """pardeg E(sigma, chi) = deg(sigma, chi) - sum_i deg((Q_i, alpha_i), (sigma, chi))."""
    chi = _fracs(red.chi)
    if red.degree is not None:
        total = Fraction(red.degree)
    else:
        total = sum((x * d for x, d in zip(chi, data.summand_degrees)), Fraction(0))
    chi_steps_default, chi_weights = coordinate_flag(chi)
    for i, p in enumerate(data.punctures):
        steps = chi_steps_default if red.flags is None else red.flags[i]
        total = total - _pairing_against_weight(p.weight, p.flag, steps, chi_weights)
    return total


STABILITY_MODES = ("certificate", "exhaustive_small")


def stability_check(
    data: ParabolicHiggsData,
    mode: str = "certificate",
    reductions: Sequence[ReductionCertificate] = (),
    degree_bound: int = 3,
    tol: float = 1e-9,
) -> StabilityVerdict:
    """Slope trichotomy over a supplied certificate set or a bounded desk search.

    Certificate mode evaluates ``pardeg - <c, s>`` for every supplied
    phi-compatible reduction; the verdict quantifies only over that set.
    Exhaustive mode (split GL/SL bundles of rank <= 3, genus 0, simple poles)
    enumerates coordinate subbundles and constant-vector subbundles picked out
    by the residue eigendata, and the verdict records the search bound.
    """
    if mode == "certificate":
        rows = [r for r in reductions if r.phi_compatible]
        note = None
    elif mode == "exhaustive_small":
        rows = _enumerate_small(data, tol=tol)
        note = f"no destabilizer found up to degree bound {degree_bound} in the enumerated families"
    else:
        raise ValueError(f"unknown stability mode {mode!r}")

    table = []
    worst = None
    for red in rows:
        value = pardeg_reduction(data, red) - _central_pairing(data.c, red.chi)
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
    zero_rows = [r for r in rows if len(set(r.chi)) > 1 and pardeg_reduction(data, r) - _central_pairing(data.c, r.chi) == 0]
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


def _subspace_invariant(mats: list[np.ndarray], basis: np.ndarray, tol: float) -> bool:
    q, _ = np.linalg.qr(basis)
    proj = q @ q.conj().T
    eye = np.eye(proj.shape[0], dtype=complex)
    for m in mats:
        if np.linalg.norm((eye - proj) @ m @ proj) > tol * max(1.0, np.linalg.norm(m)):
            return False
    return True


def _levi_split(mats: list[np.ndarray], basis: np.ndarray, tol: float) -> bool:
    q, _ = np.linalg.qr(basis)
    proj = q @ q.conj().T
    eye = np.eye(proj.shape[0], dtype=complex)
    for m in mats:
        off = np.linalg.norm((eye - proj) @ m @ proj) + np.linalg.norm(proj @ m @ (eye - proj))
        if off > tol * max(1.0, np.linalg.norm(m)):
            return False
    return True


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
        basis = np.eye(n, dtype=complex)[:, idxs]
        if not _subspace_invariant(all_terms, basis, tol):
            continue
        chi = tuple(Fraction(-(n - k)) if j in idxs else Fraction(k) for j in range(n))
        levi = _levi_split(all_terms, basis, tol)
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
        if np.linalg.norm(r) <= tol:
            continue
        _, vecs = np.linalg.eig(r)
        for j in range(n):
            v = vecs[:, j] / np.linalg.norm(vecs[:, j])
            if any(abs(abs(v.conj() @ w) - 1.0) < 1e-9 for w in seen):
                continue
            if not _subspace_invariant(all_terms, v.reshape(-1, 1), tol):
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
                    levi_reduction=_levi_split(all_terms, v.reshape(-1, 1), tol),
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
    ds = list(_fracs(degrees))
    if len(ws) != len(ls):
        raise ValueError("one cocharacter per puncture is required")
    n = len(ds)
    rd = None
    if lattice != "GL" and n >= 2:
        rd = build_root_datum("A", n - 1, lattice=lattice)
    for i, lam in enumerate(ls):
        if len(lam) != n:
            raise NotInLattice(f"puncture {i}: cocharacter length differs from the rank")
        if lattice == "GL":
            bad = [x for x in lam if x.denominator != 1]
            if bad:
                raise NotInLattice(f"puncture {i}: {tuple(map(str, lam))} is not an integer vector")
            continue
        total = sum(lam, Fraction(0))
        if total.denominator != 1:
            raise NotInLattice(f"puncture {i}: central part {total} is not integral")
        if rd is not None and not cochar_contains(rd, _diag_to_coroot(lam)):
            raise NotInLattice(
                f"puncture {i}: traceless part of {tuple(map(str, lam))} is outside the "
                f"{lattice} cocharacter lattice"
            )
    new_weights = tuple(tuple(a + b for a, b in zip(w, lam)) for w, lam in zip(ws, ls))
    for lam in ls:
        for k in range(n):
            ds[k] = ds[k] + lam[k]
    return HeckeResult(weights=new_weights, degrees=tuple(ds))


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
    equal slopes iff ``n * sum_S alpha - k * sum alpha`` lies in gcd(n,k) Z,
    swept over every per-puncture choice of a k-element coordinate subset.
    """
    ws = [_fracs(w) for w in weights]
    if not ws:
        return GenericityResult(generic=False, character="det", value=Fraction(0))
    n = len(ws[0])
    total = sum((sum(w, Fraction(0)) for w in ws), Fraction(0))
    if total.denominator == 1:
        return GenericityResult(generic=False, character="det", value=total)
    from itertools import combinations, product

    for k in range(1, n):
        g = math.gcd(n, k)
        per_puncture = [
            [sum((w[j] for j in subset), Fraction(0)) for subset in combinations(range(n), k)]
            for w in ws
        ]
        count = 1
        for choices in per_puncture:
            count *= len(choices)
        if count > max_combinations:
            raise ValueError("character sweep exceeds the combination budget")
        for pick in product(*per_puncture):
            v = n * sum(pick, Fraction(0)) - k * total
            if v % g == 0:
                return GenericityResult(
                    generic=False,
                    character=f"rank-{k} reduction slope equality",
                    value=v,
                )
    return GenericityResult(generic=True, character=None, value=None)
