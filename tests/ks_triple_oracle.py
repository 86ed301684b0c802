"""The normalized sl2-triple through a nilpotent in m^C as ``nahodge._ks_triple``
built it before it read the triple off [[y*, y], y] = -2 mu y: a test oracle.

Off the rank-one models it ran Jacobson-Morozov on the kernel flag read with
bases, flipped the plain triple to a normal one, checked it, rescaled it by
the torus element of ``normalize_kostant_sekiguchi`` and checked X = -tau(Y).
The closed form must return the same triples to rounding and refuse the same
inputs with the same error.
"""
from __future__ import annotations

import numpy as np

from parhodge.liealg import (
    NotInModel,
    NotNilpotent,
    Realization,
    SL2Triple,
    TripleCompletionFailure,
    _flag_triple,
    _kernel_flag,
    _pow2_at,
    hs_norm,
    normalize_kostant_sekiguchi,
    validate_triple,
)


def ks_triple(real: Realization, y: np.ndarray) -> tuple[SL2Triple | None, tuple[int, ...]]:
    """complete_ks_triple and the kernel dimensions of y, from one kernel
    flag: read with bases where Jacobson-Morozov runs, without them on the
    rank-one models."""
    y = np.asarray(y, dtype=complex)
    if not y.any():
        return None, (len(y),)
    # exact: the largest entry of y lands in [1/2, 1), save on extreme entries
    y = y / _pow2_at(float(np.abs(y).max()))
    try:
        flag = _kernel_flag(y, bases=real.eigenlines is None)
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
        return SL2Triple(x=h.copy(), e=np.conj(phase) * other, f=phase * line, flavor="ks_normal"), flag[1]
    plain = _flag_triple(y, flag)
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
    return out, flag[1]
