"""The checks of the residue data as the two commands ran them before one
scale-safe check served both, kept as a test oracle.

``h2l_check`` is the check part of ``nahodge.higgs_to_localsystem``: the
pairwise commutators of ``_check_commuting`` and the turn defect of Y (to
``tol``, against norms of the unscaled data), the parts of the completed
triple (to 1e-8, ``TripleCompletionFailure``), and the commutators of the
three monodromy factors (to 1e-10).  It returns the completed triple.

``model_check`` is the check part of ``modelmetric.circle_transport``:
``_validate_model_data`` (the angular fix of the triple, ``NotSingleValued``,
then [alpha, s], [s, tau(s)] and [s, part] on s over the power of two at its
largest part) and the unscaled [s + tau(s), N] test.  ``_validate_model_data``
alone is what ``hitchin_residual`` ran without a transport.

Each raises where its command refused; the bodies are the library's as they
were, with ``_turn_defect`` reading the diagonal of alpha_matrix(alpha).  The
triple comes from ``nilpotent_oracle.complete_ks_triple``, and the factors
from ``monodromy_factors`` below, which exponentiates the hyperbolic factor
past the float range as the library did, to inf and nan.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from nilpotent_oracle import complete_ks_triple

from parhodge.liealg import Realization, TripleCompletionFailure, _exp_nilpotent, _pow2_at, comm, hs_norm
from parhodge.nahodge import CommutationFailure, _noncompact_scale, _realize
from parhodge.parhiggs import alpha_matrix


class NotSingleValued(ValueError):
    """Angular conjugation of a field that exp(2 pi i alpha) does not fix."""


def _turn_defect(a_mat: np.ndarray, v: np.ndarray) -> float:
    """||Ad(exp(2 pi i alpha)) v - v||: alpha is diagonal, so Ad multiplies
    entry (j, k) by exp(2 pi i (alpha_j - alpha_k))."""
    a = a_mat.diagonal().real
    return hs_norm(v * np.exp(2j * np.pi * (a[:, None] - a[None, :])) - v)


def monodromy_factors(alpha, s, triple, real: Realization, convention: str = "2pi_i"):
    """nahodge.monodromy_factors with the hyperbolic factor exp(c i (s + tau(s)))
    taken by eigh whatever the size of its exponents."""
    g_e = np.diag(np.exp(2j * np.pi * np.array([float(a) for a in alpha])))
    lam, v = np.linalg.eigh(1j * (s + real.tau(s)))
    g_h = (v * np.exp(1j * _noncompact_scale(convention) * lam)) @ v.conj().T
    if triple is None:
        return g_e, g_h, np.eye(len(alpha), dtype=complex), np.zeros_like(s)
    n_nil = triple.f - triple.x - triple.e
    return g_e, g_h, _exp_nilpotent(n_nil, _noncompact_scale(convention)), n_nil


# ---------------------------------------------------------------------------
# translate-h2l
# ---------------------------------------------------------------------------


def _check_commuting(pairs, tol: float, context: str) -> None:
    for name, a, b in pairs:
        scale = 1 + hs_norm(a) * hs_norm(b)
        if hs_norm(comm(a, b)) > tol * scale:
            raise CommutationFailure(f"{context}: [{name}] != 0")


def h2l_check(alpha, s, y, realization, convention: str = "2pi_i", tol: float = 1e-10):
    real = _realize(realization)
    s = np.asarray(s, dtype=complex)
    y = np.asarray(y, dtype=complex)
    a_mat = alpha_matrix(alpha)
    sc = 1 + hs_norm(s) + hs_norm(y)
    _check_commuting([("alpha, s", a_mat, s), ("s, Y", s, y)], tol, "residue data")
    if _turn_defect(a_mat, y) > tol * sc:
        raise CommutationFailure("residue data: Ad(exp 2*pi*i*alpha) does not fix Y")
    triple = complete_ks_triple(real, y, tol)
    if triple is not None:
        for name, part in (("H", triple.x), ("X", triple.e), ("Y", triple.f)):
            psc = 1 + hs_norm(part)
            if _turn_defect(a_mat, part) > 1e-8 * psc:
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
    return triple


# ---------------------------------------------------------------------------
# verify-model
# ---------------------------------------------------------------------------


def _check_angular_fix(a_mat: np.ndarray, fields: Sequence[tuple[str, np.ndarray]], tol: float):
    for name, v in fields:
        if _turn_defect(a_mat, v) > tol * (1 + hs_norm(v)):
            raise NotSingleValued(
                f"Ad(exp(2 pi i alpha)) does not fix {name}; "
                "the angular conjugation would be multivalued"
            )


def _validate_model_data(real: Realization, a_mat, s, triple, tol: float):
    fields = []
    if triple is not None:
        fields = [("H", triple.x), ("X", triple.e), ("Y", triple.f)]
    _check_angular_fix(a_mat, fields, tol)
    # the checks read s over the power of two at its largest part, which is
    # exact and leaves no norm or product to overflow
    s = s / _pow2_at(max(float(np.max(np.abs(s.real))), float(np.max(np.abs(s.imag)))))
    scale = 1 + hs_norm(s)
    if hs_norm(a_mat @ s - s @ a_mat) > tol * scale:
        raise CommutationFailure("alpha and s do not commute")
    tau_s = real.tau(s)
    if hs_norm(s @ tau_s - tau_s @ s) > tol * scale * scale:
        raise CommutationFailure(
            "s does not commute with tau(s); the model connection is not flat"
        )
    if triple is not None:
        for name, part in fields:
            if hs_norm(s @ part - part @ s) > tol * scale * (1 + hs_norm(part)):
                raise CommutationFailure(f"s does not commute with the triple element {name}")


def model_check(alpha, s, triple, realization, convention: str = "2pi_i", tol: float = 1e-9):
    real = _realize(realization)
    a_mat = alpha_matrix(alpha)
    s = np.asarray(s, dtype=complex)
    _validate_model_data(real, a_mat, s, triple, tol)

    g_e, g_h, g_u, n_mat = monodromy_factors(alpha, s, triple, real, convention=convention)
    skew = s + real.tau(s)
    if triple is not None:  # else N = 0
        if hs_norm(comm(skew, n_mat)) > tol * (1 + hs_norm(skew)) * (1 + hs_norm(n_mat)):
            raise CommutationFailure(
                "s + tau(s) does not commute with N = Y - H - X; the triple is not normalized"
            )
