"""The nilpotent decisions before one kernel flag served them all, kept as a
test oracle.

``is_nilpotent`` (the power test), ``rank_sequence`` (ranks of the powers of
m / ||m||_2 at 1e-9), ``_jordan_chains`` (the chain tops that pass a second
cutoff), ``jacobson_morozov`` on those chains, the orbit map with its own drop
check, and ``complete_ks_triple`` with its ``tol``, all as the library had
them.  Each raises where the library refused.
"""
from __future__ import annotations

import numpy as np

from parhodge.liealg import (
    NotInModel,
    NotNilpotent,
    OrbitCertificate,
    Realization,
    SL2Triple,
    TripleCompletionFailure,
    UnsupportedGroup,
    ZeroElement,
    _frobenius,
    _pow2_at,
    _zero_certificate,
    comm,
    hs_norm,
    normalize_kostant_sekiguchi,
    numerical_rank,
    spectral_norm,
    validate_triple,
)


def is_nilpotent(m: np.ndarray, tol: float = 1e-8) -> bool:
    # power test, not eigenvalues: the spectrum of a defective matrix
    # scatters like norm * eps**(1/n) in floating point, while ||m^n||
    # stays at rounding level.  Dividing by the Frobenius norm instead of the
    # spectral norm would shrink m^n by up to (||m||_F / ||m||_2)^n, and a
    # 16-cycle permutation would pass as nilpotent
    m = np.asarray(m, dtype=complex)
    scale = spectral_norm(m)
    if scale == 0:
        return True
    power = np.linalg.matrix_power(m / scale, m.shape[0])
    return bool(_frobenius(power) <= tol)


def _jordan_chains(e: np.ndarray) -> list[list[np.ndarray]]:
    """Jordan chains of a nilpotent matrix, longest blocks first.

    e^k counts as zero below 1e-9 * ||e||^k (spectral norms), the size its
    rounding scales with, so no cutoff depends on the scale of e.
    """
    n = e.shape[0]
    norm = spectral_norm(e)
    # kernels[k] = ker e^k as columns, up to the first k with e^k = 0
    kernels = [np.zeros((n, 0), dtype=complex)]
    power = np.eye(n, dtype=complex)
    while len(kernels) <= n and kernels[-1].shape[1] < n:
        power = power @ e
        _, s, vh = np.linalg.svd(power)
        kernels.append(vh[int(np.sum(s > 1e-9 * norm ** len(kernels))):].conj().T)
    depth = len(kernels) - 1  # e^depth = 0
    chains: list[list[np.ndarray]] = []
    # choose chain tops level by level, from the deepest down
    for j in range(depth, 0, -1):
        # span to quotient by: ker e^{j-1} plus e * (tops of longer chains), plus already chosen tops
        span_cols = [kernels[j - 1]]
        for ch in chains:
            if len(ch) >= j:
                # the element of a longer chain sitting in ker e^j is e^{len-j} top = ch[j-1]
                span_cols.append(ch[j - 1].reshape(n, 1))
        span = np.hstack(span_cols) if span_cols else np.zeros((n, 0), dtype=complex)
        cand = kernels[j]
        # project candidates off the span, take independent leftovers as new tops
        if span.shape[1]:
            q, _ = np.linalg.qr(span)
            proj = cand - q @ (q.conj().T @ cand)
        else:
            proj = cand
        u, s, vh = np.linalg.svd(proj, full_matrices=False)
        new_tops = [u[:, k] for k in range(len(s)) if s[k] > 1e-9 * max(1.0, s[0] if len(s) else 1.0)]
        for top in new_tops:
            chain = [top]
            for _ in range(j - 1):
                chain.append(e @ chain[-1])
            chain.reverse()  # chain[0] = e^{j-1} top ... chain[-1] = top
            chains.append(chain)
    chains.sort(key=len, reverse=True)
    return chains


def jacobson_morozov(e: np.ndarray) -> SL2Triple:
    """Complete a nonzero nilpotent matrix to an sl2-triple (x, e, f).

    Uses the Jordan normal form of e: per block of size d the standard triple
    has x = diag(d-1, d-3, ..., 1-d) and f with entries k(d-k) below the
    diagonal.  The triple is built for e / c, c a power of two within a
    factor sqrt(2) of the spectral norm of e (and at most 2^1023, which is
    finite), so neither the bracket check nor the powers of e see its scale;
    f is rescaled by 1/c.  Real input gives a real triple.
    """
    e = np.asarray(e, dtype=complex)
    scale = spectral_norm(e)
    if scale == 0:
        raise ZeroElement("e = 0 has no sl2-triple")
    if not is_nilpotent(e):
        raise NotNilpotent("jacobson_morozov needs a nilpotent element")
    # dividing by a power of two is exact: only the cutoffs see the new scale,
    # the digits of the triple do not
    step = 2.0 ** min(max(round(np.log2(scale)), -1021), 1023)
    unit = e / step
    was_real = np.allclose(unit.imag, 0, atol=1e-12)
    n = e.shape[0]
    chains = _jordan_chains(unit)
    cols = []
    x_std = np.zeros((n, n), dtype=complex)
    f_std = np.zeros((n, n), dtype=complex)
    pos = 0
    for chain in chains:
        d = len(chain)
        cols.extend(chain)
        for k in range(d):
            x_std[pos + k, pos + k] = d - 1 - 2 * k
        for k in range(1, d):
            f_std[pos + k, pos + k - 1] = k * (d - k)
        pos += d
    p = np.stack(cols, axis=1)
    p_inv = np.linalg.inv(p)
    x = p @ x_std @ p_inv
    f = p @ f_std @ p_inv
    if was_real:
        x, f = x.real.astype(complex), f.real.astype(complex)
    bound = 1e-7 * (1 + hs_norm(x) + hs_norm(unit) + hs_norm(f))
    if hs_norm(comm(x, unit) - 2 * unit) > bound or hs_norm(comm(unit, f) - x) > bound:
        raise TripleCompletionFailure("Jordan-chain completion failed the bracket check")
    return SL2Triple(x=x, e=e, f=f / step, flavor="plain")


def rank_sequence(m: np.ndarray) -> tuple[int, ...]:
    """Ranks of m, m^2, ..., m^n, read on the powers of m / ||m||_2: a Jordan
    block keeps spectral norm 1 in every nonzero power, so the cutoff 1e-9
    depends neither on the scale of m nor on its size."""
    m = np.asarray(m, dtype=complex)
    scale = spectral_norm(m)
    if scale == 0:
        return tuple(0 for _ in range(m.shape[0]))
    unit = m / scale
    seq = []
    acc = np.eye(m.shape[0], dtype=complex)
    for _ in range(m.shape[0]):
        acc = acc @ unit
        seq.append(numerical_rank(acc, 1e-9))
    return tuple(seq)


def kostant_sekiguchi_orbit_map(real: Realization, e: np.ndarray) -> OrbitCertificate:
    """Nilpotent G-orbit in g  ->  H^C-orbit certificate in m^C.

    The Kostant-Sekiguchi image y of e lies in the G^C-orbit of e
    (Sekiguchi 1987), so the rank sequence of e is that of y.  On the
    rank-one models the eigenline of y is the sign of Im tr(e H+), H+ the
    neutral element of the first eigenline; |Im tr(e H+)| = ||e|| on every
    nilpotent of sl(2,R) and su(1,1), so the sign never degenerates.
    """
    if not real.real_form:
        raise UnsupportedGroup("orbit map implemented for the real forms SL(n,R), SU(p,q)")
    e = np.asarray(e, dtype=complex)
    scale = spectral_norm(e)
    if scale == 0:
        return _zero_certificate(real)
    if not real.in_g(e / scale, 1e-8):
        raise NotInModel("e must lie in the real form")
    if not is_nilpotent(e, 1e-8):
        raise NotNilpotent("the orbit map needs a nilpotent element")
    ranks = rank_sequence(e)
    # the rank of a nilpotent's k-th power is lower than the (k-1)-th by the
    # number of Jordan blocks of size >= k, a count that never grows, and the
    # n-th power is 0; a near-nilpotent read at the rank cutoff can break this
    drops = [a - b for a, b in zip((real.n,) + ranks, ranks)]
    if ranks[-1] != 0 or any(a < b for a, b in zip(drops, drops[1:])):
        raise NotNilpotent(f"e has rank sequence {ranks}, which no nilpotent has")
    signs = None
    if real.eigenlines is not None:
        (h_plus, _), _ = real.eigenlines
        signs = (1 if np.trace(e @ h_plus).imag > 0 else -1,)
    return OrbitCertificate(rank_sequence=ranks, component_signs=signs)


def complete_ks_triple(real: Realization, y: np.ndarray, tol: float = 1e-10) -> SL2Triple | None:
    """Normalized sl2-triple (H, X, Y') with X = -tau(Y') and H in i*h.

    Y' is the torus-normalized representative of the H^C-orbit of ``y``
    (same orbit certificate, unit scale with the phase of ``y`` kept).
    Returns None for y = 0.  Nothing here sees the scale of ``y``: it is
    first divided by a power of two near its largest entry, which is exact
    and keeps mu = |c|^2 of the torus normalization from overflow and
    underflow.  On the rank-one models SL(2,R) and SU(1,1) the triple is
    closed-form: y lies on one eigenline (H_k, Y_k), and with phi the phase
    of its coordinate there it is (H_k, conj(phi) Y_other, phi Y_k), the
    constant triple of the line times a unit phase.  It is returned without a
    check: the constants of each line form a ks_normal triple with
    Y_other = -tau(Y_k), and scaling X by conj(phi) and Y by phi, |phi| = 1,
    keeps every bracket, f = sigma(e) and X = -tau(Y).  The other models run
    Jacobson-Morozov and the torus normalization, and their triples are
    checked.
    """
    y = np.asarray(y, dtype=complex)
    if not y.any():
        return None
    # exact: the largest entry of y lands in [1/2, 1), save on extreme entries
    y = y / _pow2_at(float(np.abs(y).max()))
    if not is_nilpotent(y, max(tol, 1e-9)):
        raise TripleCompletionFailure("the nilpotent part must be nilpotent")
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
        return SL2Triple(x=h.copy(), e=np.conj(phase) * other, f=phase * line, flavor="ks_normal")
    plain = jacobson_morozov(y)
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
