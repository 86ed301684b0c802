"""Dictionary between parabolic Higgs residue data and filtered local systems.

Per puncture, the Higgs side carries a weight vector ``alpha`` together with
the semisimple and nilpotent parts ``(s, Y)`` of the graded residue; the
local-system side carries a filtration weight ``beta = s - tau(s)`` and a
monodromy assembled from three commuting factors

    elliptic    exp(2*pi*i * alpha)
    hyperbolic  exp(c * (-s - tau(s)))
    unipotent   exp(c * (Y - H - X))

where (H, X, Y) is the normalized sl2-triple through Y (H in i*h and
X = -tau(Y)), so that Y - H - X = Ad(exp(-X)) Y is nilpotent.  Two scalings
of the noncompact exponent ``c`` are in circulation; both are implemented
behind the ``convention`` flag:

``"2pi_i"`` (default)
    c = 2*pi*i.  The hyperbolic factor then has positive spectrum whenever
    the entry comes from a harmonic-metric frame, the three factors are the
    multiplicative Jordan factors of their product, and the inverse
    translation below separates them exactly.

``"2pi"``
    c = 2*pi.  The same formulas with the imaginary unit dropped from the
    noncompact exponents.  The factor types no longer match the
    multiplicative Jordan split for complex ``s``.

All matrices live in the split (diagonal-weight) frame used by the
parabolic-Higgs data; ``s``, ``Y`` and ``beta`` are model-frame matrices of
the chosen realization, ``alpha`` is the vector of diagonal weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .jsonio import (
    SchemaError,
    field_from_json,
    int_from_json,
    list_from_json,
    matrix_from_json,
    matrix_to_json,
    object_from_json,
    realvec_from_json,
    str_from_json,
)
from .liealg import (
    NotInModel,
    NotNilpotent,
    NumericallyDefective,
    OrbitCertificate,
    Realization,
    SL2Triple,
    TripleCompletionFailure,
    _component_signs,
    _exp_hermitian,
    _exp_nilpotent,
    _flag_ranks,
    _kernel_flag,
    _pow2_at,
    _pow2_of,
    _zero_certificate,
    build_realization,
    comm,
    hs_norm,
    jordan_multiplicative,
    numerical_rank,
    rank_sequence,
)
from .parhiggs import ParabolicHiggsData, _turn_defect, coordinate_pairing, make_data


class CommutationFailure(ValueError):
    """Residue pieces that must commute (or be fixed by the torus) do not."""


class NotSingleValued(CommutationFailure):
    """An element that Ad(exp 2*pi*i*alpha) does not fix: its angular conjugation is multivalued."""


class BadTopology(ValueError):
    """The punctured surface has 2g - 2 + n <= 0."""


class PoleOrderViolation(ValueError):
    """A differential coefficient sits at a deeper pole than allowed."""


class NotHermitianType(ValueError):
    """The realization has no invariant Hermitian structure to pair against."""


CONVENTIONS = ("2pi_i", "2pi")

_TWO_PI_I = 2j * math.pi

# Eigenvalue clustering for the multiplicative Jordan split of monodromies.
# Unipotent blocks make the spectrum defective, and floating-point eigenvalues
# of a defective matrix scatter by about sqrt(machine epsilon) relatively, so
# the split needs a coarser merge radius than the library default.  Weight
# gaps below this resolution are out of scope for the numeric dictionary.
_JORDAN_TOL = 1e-6


def _noncompact_scale(convention: str) -> complex:
    if convention == "2pi_i":
        return 2j * math.pi
    if convention == "2pi":
        return complex(2 * math.pi)
    raise ValueError(f"unknown convention {convention!r}; expected one of {CONVENTIONS}")


def _realize(realization) -> Realization:
    if isinstance(realization, Realization):
        return realization
    return build_realization(realization)


# ---------------------------------------------------------------------------
# orbit certificates on the m^C side
# ---------------------------------------------------------------------------


def y_orbit_certificate(real: Realization, y: np.ndarray) -> OrbitCertificate:
    """Conjugation invariants of the H^C-orbit of a nilpotent ``y`` in m^C."""
    y = np.asarray(y, dtype=complex)
    try:
        dims = _kernel_flag(y)[1]
    except NotNilpotent as exc:
        raise NotInModel("orbit certificates are defined for nilpotent elements") from exc
    return _y_certificate(real, y, dims)


def _y_certificate(real: Realization, y: np.ndarray, dims: tuple[int, ...]) -> OrbitCertificate:
    """y_orbit_certificate from the kernel dimensions of the flag of y."""
    return OrbitCertificate(rank_sequence=_flag_ranks(len(y), dims), component_signs=_component_signs(real, y))


# ---------------------------------------------------------------------------
# normalized sl2-triples through a nilpotent in m^C
# ---------------------------------------------------------------------------

def complete_ks_triple(real: Realization, y: np.ndarray) -> SL2Triple | None:
    """Normalized sl2-triple (H, X, Y') with X = -tau(Y') and H in i*h.

    Y' is the torus-normalized representative of the H^C-orbit of ``y``
    (same orbit certificate, unit scale with the phase of ``y`` kept).
    Returns None for y = 0.  Nothing here sees the scale of ``y``: it is
    first divided by a power of two near its largest entry, which is exact
    and keeps mu from overflow and underflow.  Every triple is closed-form
    and returned without a check.

    On the rank-one models SL(2,R) and SU(1,1), y lies on one eigenline
    (H_k, Y_k), and with phi the phase of its coordinate there the triple is
    (H_k, conj(phi) Y_other, phi Y_k), the constant triple of the line times
    a unit phase: the constants of each line form a ks_normal triple with
    Y_other = -tau(Y_k), and scaling X by conj(phi) and Y by phi, |phi| = 1,
    keeps every bracket, f = sigma(e) and X = -tau(Y).

    On the other models a normalized triple through a positive multiple of y
    exists exactly when y is a zero of the Kempf-Ness moment map up to scale,
    [[y*, y], y] = -2 mu y with mu > 0 (Kempf-Ness 1979, Sekiguchi 1987), and
    then it is (H, X, Y') = ([y*, y] / mu, Y'^*, y / sqrt(mu)): X = -tau(Y')
    holds exactly, [X, Y'] = H by definition, [H, X] = 2X is the adjoint of
    [H, Y'] = -2Y' as H is Hermitian, and y* in m^C with [m^C, m^C] in h^C
    puts the parts in their subspaces.  y is refused unless its bracket is
    -2 mu y to _NORMAL_TOL and the spectrum of [y*, y] / mu is, to
    _WEIGHT_TOL, the weights d - 1, d - 3, ..., 1 - d of the Jordan blocks of
    size d that the kernel flag of y reads.
    """
    return _ks_triple(real, y)[0]


# the closed form's refusals: the bracket [[y*, y], y] against -2 mu y,
# relative to its norm, and the spectrum of H against the Jordan weights
_NORMAL_TOL = 1e-8
_WEIGHT_TOL = 1e-6


def _jordan_weights(dims: tuple[int, ...]) -> np.ndarray:
    """Ascending eigenvalues of the neutral element of an sl2-triple through a
    nilpotent with kernel dimensions dims: d - 1, d - 3, ..., 1 - d for each
    Jordan block of size d.  dims[k] - dims[k-1] blocks have size > k."""
    longer = [b - a for a, b in zip((0,) + dims, dims)] + [0]
    sizes = [k for k in range(1, len(dims) + 1) for _ in range(longer[k - 1] - longer[k])]
    return np.sort([d - 1 - 2 * j for d in sizes for j in range(d)]).astype(float)


def _ks_triple(real: Realization, y: np.ndarray) -> tuple[SL2Triple | None, tuple[int, ...]]:
    """complete_ks_triple and the kernel dimensions of y, from one kernel
    flag read without bases."""
    y = np.asarray(y, dtype=complex)
    if not y.any():
        return None, (len(y),)
    # exact: the largest entry of y lands in [1/2, 1), save on extreme entries
    y = y / _pow2_at(float(np.abs(y).max()))
    try:
        dims = _kernel_flag(y)[1]
    except NotNilpotent as exc:
        raise TripleCompletionFailure("the nilpotent part must be nilpotent") from exc
    if not real.in_mC(y, 1e-8):
        raise TripleCompletionFailure(f"y does not lie in the m^C model of {real.label}")
    lines = real.eigenlines
    if lines is not None:
        coeffs = [complex(np.vdot(line, y)) for _, line in lines]
        if min(abs(c) for c in coeffs) > 1e-8 * (1 + hs_norm(y)):
            raise TripleCompletionFailure("y meets both eigenlines; it cannot be nilpotent")
        k = 0 if abs(coeffs[0]) >= abs(coeffs[1]) else 1  # the line y lies on
        phase = coeffs[k] / abs(coeffs[k])
        (h, line), (_, other) = lines[k], lines[1 - k]
        return SL2Triple(x=h.copy(), e=np.conj(phase) * other, f=phase * line, flavor="ks_normal"), dims
    y_star = y.conj().T
    h0 = y_star @ y - y @ y_star
    bracket = h0 @ y - y @ h0
    mu = -float(np.vdot(y, bracket).real) / (2 * float(np.vdot(y, y).real))
    normal = mu > 0 and hs_norm(bracket + 2 * mu * y) <= _NORMAL_TOL * hs_norm(bracket)
    if not (normal and np.abs(np.linalg.eigvalsh(h0 / mu) - _jordan_weights(dims)).max() <= _WEIGHT_TOL):
        raise TripleCompletionFailure(
            f"no torus-normalized triple through this nilpotent in {real.label}: "
            "normal triple defect is not a torus scaling; conjugate it into a standard component first"
        )
    f = y / math.sqrt(mu)
    return SL2Triple(x=h0 / mu, e=f.conj().T, f=f, flavor="ks_normal"), dims


# ---------------------------------------------------------------------------
# dictionary entries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PunctureDictionaryEntry:
    """Both sides of the dictionary at one puncture.

    ``alpha`` is the weight vector; ``s``/``beta``/``nilpotent_log`` are
    matrices in the frame of the input data.  ``triple`` is the normalized
    (H, X, Y) triple stored as SL2Triple(x=H, e=X, f=Y), None when Y = 0.
    ``monodromy`` is the product elliptic @ hyperbolic @ unipotent, and
    ``nilpotent_log`` is N = Y - H - X with unipotent = exp(c * N).
    """

    realization: str
    provenance: str  # "higgs" | "local"
    convention: str
    alpha: tuple
    s: np.ndarray
    triple: SL2Triple | None
    beta: np.ndarray
    elliptic: np.ndarray
    hyperbolic: np.ndarray
    unipotent: np.ndarray
    monodromy: np.ndarray
    nilpotent_log: np.ndarray
    y_certificate: OrbitCertificate
    branch_warnings: tuple[str, ...] = ()


def monodromy_factors(
    alpha: Sequence,
    s: np.ndarray,
    triple: SL2Triple | None,
    realization,
    convention: str = "2pi_i",
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Elliptic, hyperbolic and unipotent monodromy factors of one puncture.

    Returns (elliptic, hyperbolic, unipotent, N) with N = Y - H - X (zero
    when the triple is absent).
    """
    real = _realize(realization)
    s = np.asarray(s, dtype=complex)
    a_vals = np.array([float(a) for a in alpha])
    g_e = np.diag(np.exp(_TWO_PI_I * a_vals))
    c = _noncompact_scale(convention)
    g_h = _hyperbolic(real, s, c)
    if triple is None:
        n_nil = np.zeros_like(s)
        g_u = np.eye(s.shape[0], dtype=complex)
    else:
        n_nil = triple.f - triple.x - triple.e
        g_u = _exp_nilpotent(n_nil, c)
    return g_e, g_h, g_u, n_nil


def _hyperbolic(real: Realization, s: np.ndarray, c: complex) -> np.ndarray:
    """exp(c (-s - tau(s))).  s + tau(s) = s - s^H is skew-Hermitian for every
    s, so i (s + tau(s)) is Hermitian and the exponent is c i times it."""
    return _exp_hermitian(1j * (s + real.tau(s)), 1j * c)


def _at_unit_scale(m: np.ndarray) -> np.ndarray:
    """m over the power of two at its largest entry, which is exact."""
    m = np.asarray(m, dtype=complex)
    return m / _pow2_of(m)


def _check_residue_data(
    alpha: Sequence, s: np.ndarray, tol: float, fixed=(), triple: SL2Triple | None = None
) -> None:
    """Residue data (alpha, s) against the (name, matrix) pairs of ``fixed`` and
    the parts H, X, Y of ``triple``: Ad(exp 2*pi*i*alpha) fixes each element
    (NotSingleValued), and [alpha, s] = 0, [s, element] = 0 and, given a
    triple, [s + tau(s), N] = 0 for N = Y - H - X (CommutationFailure); with
    the rest, the last makes the three monodromy factors commute.  alpha is
    the weight vector, read entrywise; every matrix is read over the power of
    two at its largest entry (one for the triple), which is exact."""
    named = [(name, _at_unit_scale(v)) for name, v in fixed]
    if triple is not None:
        parts = _at_unit_scale(np.stack([triple.x, triple.e, triple.f]))
        named += zip("HXY", parts)
    named = [(name, v, 1 + hs_norm(v)) for name, v in named]
    for name, v, v_scale in named:
        if _turn_defect(alpha, v) > tol * v_scale:
            raise NotSingleValued(
                f"Ad(exp(2 pi i alpha)) does not fix {name}; the angular conjugation would be multivalued"
            )
    a = np.array([float(x) for x in alpha])
    s = _at_unit_scale(s)
    scale = 1 + hs_norm(s)
    if hs_norm(s * (a[:, None] - a[None, :])) > tol * scale:
        raise CommutationFailure("alpha and s do not commute")
    for name, v, v_scale in named:
        if hs_norm(comm(s, v)) > tol * scale * v_scale:
            raise CommutationFailure(f"s does not commute with {name}")
    if triple is not None:
        skew = s + Realization.tau(s)
        n_mat = parts[2] - parts[0] - parts[1]
        if hs_norm(comm(skew, n_mat)) > tol * (1 + hs_norm(skew)) * (1 + hs_norm(n_mat)):
            raise CommutationFailure(
                "s + tau(s) does not commute with N = Y - H - X; the triple is not normalized"
            )


def higgs_to_localsystem(
    alpha: Sequence,
    s: np.ndarray,
    y: np.ndarray,
    realization,
    convention: str = "2pi_i",
    tol: float = 1e-10,
) -> PunctureDictionaryEntry:
    """Translate graded-residue data (alpha, s, Y) into a filtered local system.

    Checks the residue pieces (Ad(exp 2*pi*i*alpha) Y = Y, [alpha, s] = 0,
    [s, Y] = 0) to ``tol``, completes Y to a normalized triple, checks that
    the triple stays in the common centralizer and that s + tau(s) commutes
    with N to 1e-8 (TripleCompletionFailure), which makes the three factors
    commute, and assembles them.  Under the default convention they are the
    multiplicative Jordan decomposition of their product, by its uniqueness:
    exp(2 pi i alpha) is elliptic, the hyperbolic factor positive Hermitian,
    the unipotent one unipotent, and the three commute.
    """
    real = _realize(realization)
    s = np.asarray(s, dtype=complex)
    y = np.asarray(y, dtype=complex)
    _check_residue_data(alpha, s, tol, [("Y", y)])
    triple, dims = _ks_triple(real, y)
    if triple is not None:
        try:
            _check_residue_data(alpha, s, 1e-8, triple=triple)
        except CommutationFailure as exc:
            raise TripleCompletionFailure(f"normalized triple escaped the residue data: {exc}") from exc
    g_e, g_h, g_u, n_nil = monodromy_factors(alpha, s, triple, real, convention)
    monodromy = g_e @ g_h @ g_u
    beta = s - real.tau(s)
    return PunctureDictionaryEntry(
        realization=real.label,
        provenance="higgs",
        convention=convention,
        alpha=tuple(alpha),
        s=s,
        triple=triple,
        beta=beta,
        elliptic=g_e,
        hyperbolic=g_h,
        unipotent=g_u,
        monodromy=monodromy,
        nilpotent_log=n_nil,
        y_certificate=_y_certificate(real, y, dims),
    )


def canonical_alpha(alpha: Sequence) -> tuple[float, ...]:
    """The weight vector normalized the way the inverse translation reports it:
    each coordinate moved to (-1/2, 1/2] by an integer shift, then sorted
    descending (the dominant representative of the fundamental alcove)."""
    out = []
    for a in alpha:
        v = float(a) - math.floor(float(a))  # [0, 1)
        if v > 0.5 + 1e-15:
            v -= 1.0
        out.append(v)
    return tuple(sorted(out, reverse=True))


def _local_orbit_data(
    real: Realization, n_mat: np.ndarray, tol: float
) -> tuple[OrbitCertificate, SL2Triple | None]:
    """Orbit certificate and normalized triple recovered from N = Y - H - X."""
    if hs_norm(n_mat) < 1e-12:
        return _zero_certificate(real), None
    ranks = rank_sequence(n_mat)
    y = n_mat
    if real.eigenlines is not None:
        # N = Y - H - X pairs with the neutral element H+ of the first line
        # to -tr(H+ H) = -2 on that line and to +2 on the other
        (h_plus, plus), (_, minus) = real.eigenlines
        marker = float(np.trace(n_mat @ h_plus).real)
        if abs(marker) < tol * hs_norm(n_mat):
            raise NumericallyDefective("cannot resolve the orbit side from N")
        y = plus if marker < 0 else minus
    elif real.real_form:
        # N = Y - H - X with H in h^C and X, Y in m^C; the grading
        # [H, Y] = -2Y, [H, X] = 2X then separates Y from m = Y - X
        h = -real.project_hC(n_mat)
        m = real.project_mC(n_mat)
        y = (m - comm(h, m) / 2) / 2
    triple = complete_ks_triple(real, y)
    cert = OrbitCertificate(
        rank_sequence=ranks,
        component_signs=_component_signs(real, y),
    )
    return cert, triple


def localsystem_to_higgs(
    monodromy: np.ndarray,
    realization,
    beta: np.ndarray | None = None,
    convention: str = "2pi_i",
    tol: float = 1e-8,
) -> PunctureDictionaryEntry:
    """Translate a monodromy matrix (plus filtration weight) back to residue data.

    The multiplicative Jordan factors of the monodromy give, in order: the
    weight ``alpha`` as the normalized elliptic logarithm (each eigenvalue
    angle taken in (-pi, pi], coordinates sorted descending), the semisimple
    part ``s = (beta - A)/2`` where A is the hyperbolic logarithm over the
    convention scale, and the nilpotent orbit from the unipotent logarithm.
    Eigenvalues on the negative real axis make the elliptic logarithm
    ambiguous; the +1/2 branch is applied and reported in branch_warnings.

    Raises NumericallyDefective when the recovered data fails to rebuild the
    factors to ``tol`` (for instance a hyperbolic factor that is not positive
    in the harmonic frame).
    """
    real = _realize(realization)
    m = np.asarray(monodromy, dtype=complex)
    if m.shape != (real.n, real.n):
        raise SchemaError("$.monodromy", f"expected a {real.n}x{real.n} matrix")
    jf = jordan_multiplicative(m, tol=_JORDAN_TOL)
    c = _noncompact_scale(convention)
    warnings: list[str] = []

    vals, vecs = np.linalg.eig(jf.elliptic)
    angles = np.angle(vals)
    on_cut = np.abs(vals + np.abs(vals)) < 1e-6 * np.abs(vals)
    if np.any(on_cut):
        angles[on_cut] = math.pi
        warnings.append(
            "elliptic eigenvalue on the negative real axis; weight branch fixed at +1/2"
        )
    order = np.argsort(-angles, kind="stable")
    alpha = tuple(float(angles[k]) / (2 * math.pi) for k in order)
    vecs = vecs[:, order]

    a_part = jf.hyperbolic_log / c
    if beta is None:
        beta_mat = np.zeros_like(m)
    else:
        beta_mat = np.asarray(beta, dtype=complex)
        if hs_norm(real.tau(beta_mat) + beta_mat) > 1e-8 * (1 + hs_norm(beta_mat)):
            raise NotInModel("beta must satisfy tau(beta) = -beta")
        # beta commutes with the elliptic factor and the unipotent log for
        # every entry produced by the forward translation; it need not
        # commute with the hyperbolic log unless s is normal
        bsc = 1 + hs_norm(beta_mat)
        if hs_norm(comm(beta_mat, jf.elliptic)) > 1e-8 * bsc * (1 + hs_norm(jf.elliptic)):
            raise CommutationFailure("beta does not commute with the elliptic factor")
        if hs_norm(comm(beta_mat, jf.nilpotent_log)) > 1e-8 * bsc * (
            1 + hs_norm(jf.nilpotent_log)
        ):
            raise CommutationFailure("beta does not commute with the unipotent factor")
    s = (beta_mat - a_part) / 2
    n_mat = np.asarray(jf.nilpotent_log, dtype=complex) / c
    cert, triple = _local_orbit_data(real, n_mat, tol)

    g_e_rebuilt = vecs @ np.diag(np.exp(_TWO_PI_I * np.array(alpha))) @ np.linalg.inv(vecs)
    g_h_rebuilt = _hyperbolic(real, s, c)
    g_u_rebuilt = _exp_nilpotent(n_mat, c)
    for name, rebuilt, fac in (
        ("elliptic", g_e_rebuilt, jf.elliptic),
        ("hyperbolic", g_h_rebuilt, jf.hyperbolic),
        ("unipotent", g_u_rebuilt, jf.unipotent),
    ):
        if hs_norm(rebuilt - fac) > tol * (1 + hs_norm(fac)):
            raise NumericallyDefective(
                f"recovered data does not rebuild the {name} factor; "
                "the monodromy is not in the image of this frame"
            )
    return PunctureDictionaryEntry(
        realization=real.label,
        provenance="local",
        convention=convention,
        alpha=alpha,
        s=s,
        triple=triple,
        beta=s - real.tau(s),
        elliptic=jf.elliptic,
        hyperbolic=jf.hyperbolic,
        unipotent=jf.unipotent,
        monodromy=m,
        nilpotent_log=n_mat,
        y_certificate=cert,
        branch_warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# JSON records
# ---------------------------------------------------------------------------

DICTIONARY_SCHEMA = "dictionary-v1"


def entry_to_json(entry: PunctureDictionaryEntry) -> dict:
    triple = None
    if entry.triple is not None:
        triple = {
            "H": matrix_to_json(entry.triple.x),
            "X": matrix_to_json(entry.triple.e),
            "Y": matrix_to_json(entry.triple.f),
        }
    signs = entry.y_certificate.component_signs
    return {
        "schema": DICTIONARY_SCHEMA,
        "provenance": entry.provenance,
        "convention": entry.convention,
        "realization": entry.realization,
        "higgs": {
            "alpha": [float(a) for a in entry.alpha],
            "s": matrix_to_json(entry.s),
            "triple": triple,
        },
        "local": {
            "beta": matrix_to_json(entry.beta),
            "monodromy": matrix_to_json(entry.monodromy),
            "nilpotent_log": matrix_to_json(entry.nilpotent_log),
            "factors": {
                "elliptic": matrix_to_json(entry.elliptic),
                "hyperbolic": matrix_to_json(entry.hyperbolic),
                "unipotent": matrix_to_json(entry.unipotent),
            },
        },
        "certificate": {
            "rank_sequence": list(entry.y_certificate.rank_sequence),
            "component_signs": None if signs is None else list(signs),
        },
        "warnings": list(entry.branch_warnings),
    }


def entry_from_json(obj: dict) -> PunctureDictionaryEntry:
    obj = object_from_json(obj)
    if obj.get("schema") != DICTIONARY_SCHEMA:
        raise SchemaError("$.schema", f"expected {DICTIONARY_SCHEMA!r}")
    higgs = field_from_json(obj, "higgs", object_from_json)
    local = field_from_json(obj, "local", object_from_json)
    factors = field_from_json(local, "factors", object_from_json, "$.local")
    cert = field_from_json(obj, "certificate", object_from_json)

    def matrix(parent: dict, key: str, location: str) -> np.ndarray:
        return field_from_json(parent, key, matrix_from_json, location)

    triple = field_from_json(higgs, "triple", object_from_json, "$.higgs", default=None)
    if triple is not None:
        triple = SL2Triple(
            x=matrix(triple, "H", "$.higgs.triple"),
            e=matrix(triple, "X", "$.higgs.triple"),
            f=matrix(triple, "Y", "$.higgs.triple"),
            flavor="ks_normal",
        )
    ranks = field_from_json(
        cert, "rank_sequence", list_from_json, "$.certificate", items=int_from_json
    )
    signs = field_from_json(
        cert, "component_signs", list_from_json, "$.certificate", default=None, items=int_from_json
    )
    return PunctureDictionaryEntry(
        realization=field_from_json(obj, "realization", str_from_json),
        provenance=field_from_json(obj, "provenance", str_from_json),
        convention=field_from_json(obj, "convention", str_from_json, choices=CONVENTIONS),
        alpha=tuple(field_from_json(higgs, "alpha", realvec_from_json, "$.higgs")),
        s=matrix(higgs, "s", "$.higgs"),
        triple=triple,
        beta=matrix(local, "beta", "$.local"),
        elliptic=matrix(factors, "elliptic", "$.local.factors"),
        hyperbolic=matrix(factors, "hyperbolic", "$.local.factors"),
        unipotent=matrix(factors, "unipotent", "$.local.factors"),
        monodromy=matrix(local, "monodromy", "$.local"),
        nilpotent_log=matrix(local, "nilpotent_log", "$.local"),
        y_certificate=OrbitCertificate(
            rank_sequence=tuple(ranks),
            component_signs=None if signs is None else tuple(signs),
        ),
        branch_warnings=tuple(
            field_from_json(obj, "warnings", list_from_json, default=[], items=str_from_json)
        ),
    )


# ---------------------------------------------------------------------------
# the section through the space of Higgs data
# ---------------------------------------------------------------------------


SECTION_MODES = ("SL2R", "SLnR_principal")


def hitchin_section(
    mode: str,
    genus: int,
    n_punctures: int,
    q_terms: Sequence[Sequence[tuple[int, int, complex]]] | None = None,
    rank: int = 2,
) -> ParabolicHiggsData:
    """Higgs data of the section determined by tuples of differentials.

    ``q_terms`` gives the local expansion of the differentials at each
    puncture: one list per puncture of tuples (j, k, a) meaning the degree-j
    differential contributes ``a`` at order k of the local frame (the
    coefficient of z^k dz/z in the matrix entry that carries it).

    Both modes build the principal section of SL(n,R), degrees
    (g-1)(n+1-2k), from one weight alpha at every puncture.  ad(alpha)
    multiplies entry (r, c) by alpha_r - alpha_c: the subdiagonal of ones
    sits at the order of its eigenvalue, and the degree-j differential
    feeds entry (0, j-1) at orders k above the eigenvalue of that entry,
    so the poles are parabolic and the graded residue is exactly the
    subdiagonal, the regular nilpotent; the result is not checked again.

    mode "SL2R"
        rank 2, alpha = (-1/2, +1/2): the subdiagonal sits at order 1 and
        the quadratic differential at orders k >= 0 (a simple pole is
        allowed, a deeper pole is not).

    mode "SLnR_principal"
        rank n, alpha = 0: the subdiagonal sits at order 0 (a simple pole
        with residue the regular nilpotent), the differentials at k >= 1.
    """
    if 2 * genus - 2 + n_punctures <= 0:
        raise BadTopology(
            f"need 2g - 2 + n > 0, got g = {genus}, n = {n_punctures}"
        )
    if q_terms is not None and len(q_terms) != n_punctures:
        raise ValueError("q_terms needs one entry per puncture")
    if mode == "SL2R":
        n, weight = 2, (Fraction(-1, 2), Fraction(1, 2))
        refusal = "mode SL2R carries only the degree-2 differential, got j = {j}"
    elif mode == "SLnR_principal":
        n = int(rank)
        if n < 2:
            raise ValueError("principal mode needs rank >= 2")
        weight = (Fraction(0),) * n
        refusal = "degree-{j} differential does not exist for rank {n}"
    else:
        raise ValueError(f"unknown mode {mode!r}; expected SL2R or SLnR_principal")

    sub_eigenvalue = weight[1] - weight[0]
    sub = np.zeros((n, n), dtype=complex)
    for k in range(n - 1):
        sub[k + 1, k] = 1
    laurent = []
    offenders = []
    for i in range(n_punctures):
        terms = [(int(sub_eigenvalue), sub_eigenvalue, sub)]
        for j, k, a in () if q_terms is None else q_terms[i]:
            if not 2 <= j <= n:
                raise ValueError(refusal.format(j=j, n=n))
            eigenvalue = weight[0] - weight[j - 1]
            if k < eigenvalue + 1:
                offenders.append((i, j, k))
                continue
            mat = np.zeros((n, n), dtype=complex)
            mat[0, j - 1] = complex(a)
            terms.append((int(k), eigenvalue, mat))
        laurent.append(terms)
    if offenders:
        raise PoleOrderViolation(
            f"differential coefficients below the allowed order: {offenders}"
        )
    degrees = tuple((genus - 1) * (n + 1 - 2 * k) for k in range(1, n + 1))
    return make_data(genus, f"SL({n},R)", [weight] * n_punctures, laurent, degrees)


# ---------------------------------------------------------------------------
# Toledo invariant and the Milnor-Wood window
# ---------------------------------------------------------------------------


def _hermitian_signature(data: ParabolicHiggsData, signature: tuple[int, int] | None):
    if signature is not None:
        p, q = signature
        if p + q != data.n:
            raise ValueError(f"signature {signature} does not match rank {data.n}")
        return int(p), int(q)
    hermitian = build_realization(data.realization).hermitian_signature
    if hermitian is None:
        raise NotHermitianType(
            f"{data.realization} carries no Hermitian structure for the Toledo pairing"
        )
    return hermitian


def toledo_character(p: int, q: int) -> tuple[Fraction, ...]:
    """The central character paired against the data in toledo_invariant."""
    top = Fraction(2 * q, p + q)
    bottom = Fraction(-2 * p, p + q)
    return tuple([top] * p + [bottom] * q)


def toledo_invariant(
    data: ParabolicHiggsData, signature: tuple[int, int] | None = None
) -> Fraction:
    """Parabolic degree of the data against the Toledo character.

    The character is (2q/(p+q), ..., -2p/(p+q), ...) on the block
    coordinates, scaled so the rank-(1,1) section of hitchin_section attains
    |tau| = 2g - 2 + n.  Swapping the blocks flips the sign; direct sums of
    equal-signature data add.
    """
    p, q = _hermitian_signature(data, signature)
    chi = toledo_character(p, q)
    value = coordinate_pairing(chi, data.summand_degrees)
    for punc in data.punctures:
        value -= coordinate_pairing(chi, punc.weight)
    return value


@dataclass(frozen=True)
class MilnorWoodReport:
    ok: bool
    tau: Fraction
    rank_plus: int
    rank_minus: int
    margins: tuple[Fraction, Fraction]  # (tau - lower bound, upper bound - tau)
    side: str | None  # "lower" | "upper" when violated


def _block_rank(mats: list[np.ndarray], rows: slice, cols: slice) -> int:
    blocks = [m[rows, cols] for m in mats]
    if not blocks:
        return 0
    stacked = np.hstack(blocks)
    if hs_norm(stacked) < 1e-12:
        return 0
    return numerical_rank(stacked, 1e-9 * max(1.0, hs_norm(stacked)))


def milnor_wood_check(
    data: ParabolicHiggsData,
    signature: tuple[int, int] | None = None,
    rank_plus: int | None = None,
    rank_minus: int | None = None,
) -> MilnorWoodReport:
    """Check -rk(phi+) * (2g-2+n) <= tau <= rk(phi-) * (2g-2+n).

    phi+ is the upper-right block (first p rows), phi- the lower-left block;
    when the ranks are not declared they are sampled as the generic rank of
    the stacked local coefficients.
    """
    p, q = _hermitian_signature(data, signature)
    tau = toledo_invariant(data, (p, q))
    mats = [term.matrix for punc in data.punctures for term in punc.laurent]
    if rank_plus is None:
        rank_plus = _block_rank(mats, slice(0, p), slice(p, p + q))
    if rank_minus is None:
        rank_minus = _block_rank(mats, slice(p, p + q), slice(0, p))
    chi_top = 2 * data.genus - 2 + len(data.punctures)
    lower = Fraction(-rank_plus * chi_top)
    upper = Fraction(rank_minus * chi_top)
    margins = (tau - lower, upper - tau)
    side = None
    if margins[0] < 0:
        side = "lower"
    elif margins[1] < 0:
        side = "upper"
    return MilnorWoodReport(
        ok=side is None,
        tau=tau,
        rank_plus=int(rank_plus),
        rank_minus=int(rank_minus),
        margins=margins,
        side=side,
    )
