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
    multiplicative Jordan split for complex ``s``, so the product/split
    validation is only performed under ``"2pi_i"``.

All matrices live in the split (diagonal-weight) frame used by the
parabolic-Higgs data; ``s``, ``Y`` and ``beta`` are model-frame matrices of
the chosen realization, ``alpha`` is the vector of diagonal weights.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.linalg import expm, logm

from .jsonio import (
    SchemaError,
    field_from_json,
    int_from_json,
    list_from_json,
    matrix_from_json,
    matrix_to_json,
    object_from_json,
    parse_document,
    realvec_from_json,
    str_from_json,
)
from .liealg import (
    NotInModel,
    NumericallyDefective,
    OrbitCertificate,
    Realization,
    SL2Triple,
    TripleCompletionFailure,
    _U_MINUS,
    _U_PLUS,
    _component_signs,
    build_realization,
    comm,
    hs_norm,
    is_nilpotent,
    jacobson_morozov,
    jordan_multiplicative,
    normalize_kostant_sekiguchi,
    rank_sequence,
    validate_triple,
)
from .parhiggs import (
    ParabolicHiggsData,
    alpha_matrix,
    check_pole_orders,
    gr_res,
    make_data,
)


class CommutationFailure(ValueError):
    """Residue pieces that must commute (or be fixed by the torus) do not."""


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


def y_orbit_certificate(real: Realization, y: np.ndarray, tol: float = 1e-9) -> OrbitCertificate:
    """Conjugation invariants of the H^C-orbit of a nilpotent ``y`` in m^C."""
    y = np.asarray(y, dtype=complex)
    if hs_norm(y) < 1e-13:
        signs = () if (real.n == 2 and real.family in ("SL_R", "SU_pq")) else None
        return OrbitCertificate(
            rank_sequence=tuple(0 for _ in range(real.n)),
            component_signs=signs,
            representative=np.zeros_like(y),
            triple=None,
        )
    if not is_nilpotent(y, max(tol, 1e-9)):
        raise NotInModel("orbit certificates are defined for nilpotent elements")
    return OrbitCertificate(
        rank_sequence=rank_sequence(y, tol),
        component_signs=_component_signs(real, y),
        representative=y,
        triple=None,
    )


# ---------------------------------------------------------------------------
# normalized sl2-triples through a nilpotent in m^C
# ---------------------------------------------------------------------------

_J2 = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)


def complete_ks_triple(real: Realization, y: np.ndarray, tol: float = 1e-10) -> SL2Triple | None:
    """Normalized sl2-triple (H, X, Y') with X = -tau(Y') and H in i*h.

    Y' is the torus-normalized representative of the H^C-orbit of ``y``
    (same orbit certificate, unit scale with the phase of ``y`` kept).
    Returns None for y = 0.
    """
    y = np.asarray(y, dtype=complex)
    if hs_norm(y) < 1e-13:
        return None
    if not is_nilpotent(y, max(tol, 1e-9)):
        raise TripleCompletionFailure("the nilpotent part must be nilpotent")
    if not real.in_mC(y, 1e-8):
        raise TripleCompletionFailure(f"y does not lie in the m^C model of {real.label}")
    if real.family == "SL_R" and real.n == 2:
        c_plus = complex(np.vdot(_U_PLUS, y))
        c_minus = complex(np.vdot(_U_MINUS, y))
        if min(abs(c_plus), abs(c_minus)) > 1e-8 * (1 + hs_norm(y)):
            raise TripleCompletionFailure("y meets both eigenlines; it cannot be nilpotent")
        if abs(c_plus) >= abs(c_minus):
            phase = c_plus / abs(c_plus)
            h, x_part, y_part = -1j * _J2, np.conj(phase) * _U_MINUS, phase * _U_PLUS
        else:
            phase = c_minus / abs(c_minus)
            h, x_part, y_part = 1j * _J2, np.conj(phase) * _U_PLUS, phase * _U_MINUS
        out = SL2Triple(x=h, e=x_part, f=y_part, flavor="ks_normal")
        validate_triple(real, out, 1e-9)
        return out
    plain = jacobson_morozov(real, y)
    flipped = SL2Triple(x=-plain.x, e=plain.f, f=y, flavor="normal")
    try:
        validate_triple(real, flipped, 1e-7)
        out = normalize_kostant_sekiguchi(real, flipped)
    except (NotInModel, TripleCompletionFailure) as exc:
        raise TripleCompletionFailure(
            f"no torus-normalized triple through this nilpotent in {real.label}: {exc}"
        ) from exc
    scale = 1 + hs_norm(out.f)
    if hs_norm(out.e + real.tau(out.f)) > 1e-8 * scale:
        raise TripleCompletionFailure("normalization did not reach X = -tau(Y)")
    return out


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
    g_h = expm(c * (-s - real.tau(s)))
    if triple is None:
        n_nil = np.zeros_like(s)
        g_u = np.eye(s.shape[0], dtype=complex)
    else:
        n_nil = triple.f - triple.x - triple.e
        g_u = expm(c * n_nil)
    return g_e, g_h, g_u, n_nil


def _check_commuting(pairs, tol: float, context: str) -> None:
    for name, a, b in pairs:
        scale = 1 + hs_norm(a) * hs_norm(b)
        if hs_norm(comm(a, b)) > tol * scale:
            raise CommutationFailure(f"{context}: [{name}] != 0")


def higgs_to_localsystem(
    alpha: Sequence,
    s: np.ndarray,
    y: np.ndarray,
    realization,
    convention: str = "2pi_i",
    tol: float = 1e-10,
) -> PunctureDictionaryEntry:
    """Translate graded-residue data (alpha, s, Y) into a filtered local system.

    Validates the compatibility of the residue pieces ([alpha, s] = 0,
    [s, Y] = 0, Ad(exp 2*pi*i*alpha) Y = Y), completes Y to a normalized
    triple inside the common centralizer, and assembles the monodromy
    factors.  Under the default convention the factors are checked against
    the multiplicative Jordan decomposition of their product.
    """
    real = _realize(realization)
    s = np.asarray(s, dtype=complex)
    y = np.asarray(y, dtype=complex)
    a_mat = alpha_matrix(alpha)
    sc = 1 + hs_norm(s) + hs_norm(y)
    _check_commuting([("alpha, s", a_mat, s), ("s, Y", s, y)], tol, "residue data")
    u = np.diag(np.exp(_TWO_PI_I * np.diag(a_mat)))
    u_inv = np.diag(1 / np.diag(u))
    if hs_norm(u @ y @ u_inv - y) > tol * sc:
        raise CommutationFailure("residue data: Ad(exp 2*pi*i*alpha) does not fix Y")
    triple = complete_ks_triple(real, y, tol)
    if triple is not None:
        for name, part in (("H", triple.x), ("X", triple.e), ("Y", triple.f)):
            psc = 1 + hs_norm(part)
            if hs_norm(u @ part @ u_inv - part) > 1e-8 * psc:
                raise TripleCompletionFailure(
                    f"normalized triple escaped the torus centralizer at {name}"
                )
            if hs_norm(comm(s, part)) > 1e-8 * psc * (1 + hs_norm(s)):
                raise TripleCompletionFailure(
                    f"normalized triple escaped the centralizer of s at {name}"
                )
    g_e, g_h, g_u, n_nil = monodromy_factors(alpha, s, triple, real, convention)
    _check_commuting(
        [
            ("elliptic, hyperbolic", g_e, g_h),
            ("elliptic, unipotent", g_e, g_u),
            ("hyperbolic, unipotent", g_h, g_u),
        ],
        1e-10,
        "monodromy factors",
    )
    monodromy = g_e @ g_h @ g_u
    if convention == "2pi_i":
        jf = jordan_multiplicative(monodromy, tol=_JORDAN_TOL)
        for name, ours, theirs in (
            ("elliptic", g_e, jf.elliptic),
            ("hyperbolic", g_h, jf.hyperbolic),
            ("unipotent", g_u, jf.unipotent),
        ):
            if hs_norm(ours - theirs) > 1e-8 * (1 + hs_norm(ours)):
                raise NumericallyDefective(
                    f"{name} factor disagrees with the multiplicative Jordan split"
                )
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
        y_certificate=y_orbit_certificate(real, y),
    )


def puncture_entry(
    data: ParabolicHiggsData,
    i: int,
    realization=None,
    convention: str = "2pi_i",
    tol: float = 1e-10,
) -> PunctureDictionaryEntry:
    """Dictionary entry of puncture ``i``, with (s, Y) read off the graded residue.

    ``realization`` overrides the stored label when the residue matrices are
    presented in a different frame of the same group; split rank-two data with
    off-diagonal residues is the block model SU(1,1).
    """
    res = gr_res(data, i)
    return higgs_to_localsystem(
        data.punctures[i].weight,
        res.semisimple,
        res.nilpotent,
        data.realization if realization is None else realization,
        convention=convention,
        tol=tol,
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
    n = real.n
    if hs_norm(n_mat) < 1e-12:
        return y_orbit_certificate(real, np.zeros((n, n), dtype=complex)), None
    ranks = rank_sequence(n_mat)
    if real.n == 2 and real.family in ("SL_R", "SU_pq"):
        if real.family == "SU_pq":
            marker = float(n_mat[0, 0].real)
            rep = np.zeros((2, 2), dtype=complex)
            if abs(marker) < tol * hs_norm(n_mat):
                raise NumericallyDefective("cannot resolve the orbit side from N")
            if marker > 0:
                rep[0, 1] = 1
            else:
                rep[1, 0] = 1
        else:
            marker = float(np.trace(np.imag(n_mat).astype(complex) @ _J2).real)
            if abs(marker) < tol * hs_norm(n_mat):
                raise NumericallyDefective("cannot resolve the orbit side from N")
            rep = _U_PLUS if marker < 0 else _U_MINUS
        triple = complete_ks_triple(real, rep, tol)
        cert = OrbitCertificate(
            rank_sequence=ranks,
            component_signs=_component_signs(real, rep),
            representative=rep,
            triple=triple,
        )
        return cert, triple
    y = n_mat
    if real.family in ("SL_R", "SU_pq"):
        # N = Y - H - X with H in h^C and X, Y in m^C; the grading
        # [H, Y] = -2Y, [H, X] = 2X then separates Y from m = Y - X
        h = -real.project_hC(n_mat)
        m = real.project_mC(n_mat)
        y = (m - comm(h, m) / 2) / 2
    triple = complete_ks_triple(real, y, tol)
    cert = OrbitCertificate(
        rank_sequence=ranks,
        component_signs=None,
        representative=triple.f if triple is not None else y,
        triple=triple,
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

    log_h = logm(jf.hyperbolic)
    a_part = np.asarray(log_h, dtype=complex) / c
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
    g_h_rebuilt = expm(c * (-s - real.tau(s)))
    g_u_rebuilt = expm(c * n_mat)
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


def entry_dumps(entry: PunctureDictionaryEntry) -> str:
    return json.dumps(entry_to_json(entry), sort_keys=True, separators=(",", ":"))


def entry_loads(text: str) -> PunctureDictionaryEntry:
    return entry_from_json(parse_document(text))


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

    mode "SL2R"
        rank 2, weights (-1/2, +1/2), degrees (g-1, 1-g); the constant
        subdiagonal entry sits at order 1 and the degree-2 differential
        feeds the top-right entry at orders k >= 0 (a simple pole of the
        quadratic differential at the puncture is allowed, a deeper pole is
        not).

    mode "SLnR_principal"
        rank n, trivial parabolic structure, degrees (g-1)(n+1-2k); the
        subdiagonal of ones sits at order 0 (a simple pole with residue the
        regular nilpotent) and the degree-j differentials feed the first row
        at orders k >= 1 so the residue stays untouched.
    """
    if 2 * genus - 2 + n_punctures <= 0:
        raise BadTopology(
            f"need 2g - 2 + n > 0, got g = {genus}, n = {n_punctures}"
        )
    if q_terms is not None and len(q_terms) != n_punctures:
        raise ValueError("q_terms needs one entry per puncture")

    def terms_at(i: int):
        return () if q_terms is None else tuple(q_terms[i])

    if mode == "SL2R":
        weights = [(Fraction(-1, 2), Fraction(1, 2))] * n_punctures
        degrees = (genus - 1, 1 - genus)
        laurent = []
        offenders = []
        for i in range(n_punctures):
            e12 = np.zeros((2, 2), dtype=complex)
            e12[0, 1] = 1
            e21 = np.zeros((2, 2), dtype=complex)
            e21[1, 0] = 1
            terms = [(1, Fraction(1), e21)]
            for j, k, a in terms_at(i):
                if j != 2:
                    raise ValueError(f"mode SL2R carries only the degree-2 differential, got j = {j}")
                if k < 0:
                    offenders.append((i, j, k))
                    continue
                terms.append((int(k), Fraction(-1), complex(a) * e12))
            laurent.append(terms)
        if offenders:
            raise PoleOrderViolation(
                f"differential coefficients below the allowed order: {offenders}"
            )
        data = make_data(genus, "SL(2,R)", weights, laurent, degrees)
    elif mode == "SLnR_principal":
        n = int(rank)
        if n < 2:
            raise ValueError("principal mode needs rank >= 2")
        weights = [tuple(Fraction(0) for _ in range(n))] * n_punctures
        degrees = tuple((genus - 1) * (n + 1 - 2 * k) for k in range(1, n + 1))
        sub = np.zeros((n, n), dtype=complex)
        for k in range(n - 1):
            sub[k + 1, k] = 1
        laurent = []
        offenders = []
        for i in range(n_punctures):
            terms = [(0, Fraction(0), sub)]
            for j, k, a in terms_at(i):
                if not 2 <= j <= n:
                    raise ValueError(f"degree-{j} differential does not exist for rank {n}")
                if k < 1:
                    offenders.append((i, j, k))
                    continue
                mat = np.zeros((n, n), dtype=complex)
                mat[0, j - 1] = complex(a)
                terms.append((int(k), Fraction(0), mat))
            laurent.append(terms)
        if offenders:
            raise PoleOrderViolation(
                f"differential coefficients below the allowed order: {offenders}"
            )
        label = f"SL({n},R)" if n > 2 else "SL(2,R)"
        data = make_data(genus, label, weights, laurent, degrees)
    else:
        raise ValueError(f"unknown mode {mode!r}; expected SL2R or SLnR_principal")

    for i in range(n_punctures):
        report = check_pole_orders(data, i)
        if report.kind == "inadmissible":
            raise PoleOrderViolation(
                f"puncture {i}: inadmissible coefficients {report.offenders}"
            )
        res = gr_res(data, i)
        expected = tuple(range(data.n - 1, -1, -1))
        if rank_sequence(res.nilpotent) != expected:
            raise PoleOrderViolation(
                f"puncture {i}: residue nilpotent part is not regular"
            )
    return data


# ---------------------------------------------------------------------------
# Toledo invariant and the Milnor-Wood window
# ---------------------------------------------------------------------------


def _hermitian_signature(data: ParabolicHiggsData, signature: tuple[int, int] | None):
    if signature is not None:
        p, q = signature
        if p + q != data.n:
            raise ValueError(f"signature {signature} does not match rank {data.n}")
        return int(p), int(q)
    real = build_realization(data.realization)
    if real.family == "SU_pq":
        return real.signature
    if real.family == "SL_R" and real.n == 2:
        # rank-2 split-frame data: the two summands are the two isotropic lines
        return (1, 1)
    raise NotHermitianType(
        f"{data.realization} carries no Hermitian structure for the Toledo pairing"
    )


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
    value = sum(c * d for c, d in zip(chi, data.summand_degrees))
    for punc in data.punctures:
        value -= sum(c * w for c, w in zip(chi, punc.weight))
    return Fraction(value)


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
    return int(np.linalg.matrix_rank(stacked, tol=1e-9 * max(1.0, hs_norm(stacked))))


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
