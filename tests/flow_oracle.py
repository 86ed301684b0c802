"""The relative-degree QR flow one pair at a time: a test oracle.

``relative_degree_one`` is the single-pair kernel with its checks spelled out
and the settle tolerance as a parameter; ``degree.relative_degree`` must match
it bit for bit.  The sample sweep's oracle is ``sweep_oracle``.
"""
from __future__ import annotations

import numpy as np

from parhodge.degree import NonConvergence, RelativeDegreeResult
from parhodge.liealg import comm, hs_norm

_MAX_EXP = 20


def _eigenframe(s, sigma):
    s = np.asarray(s, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    scale = (1 + hs_norm(s)) * (1 + hs_norm(sigma))
    for name, m in (("s", s), ("sigma", sigma)):
        if hs_norm(m - m.conj().T) > 1e-10 * scale:
            raise ValueError(f"{name} must be Hermitian")
    if hs_norm(comm(s, sigma)) <= 1e-12 * scale:
        return float(np.trace(s @ sigma).real)
    lam, v_sig = np.linalg.eigh(sigma)
    d, u_s = np.linalg.eigh(s)
    return d, lam, v_sig.conj().T @ u_s


def relative_degree_one(s, sigma, tol: float = 1e-9) -> RelativeDegreeResult:
    frame = _eigenframe(s, sigma)
    if isinstance(frame, float):
        return RelativeDegreeResult(value=frame, t_trace=((0.0, frame),), method="commuting")
    d, lam, frame = frame
    spread = float(lam[-1] - lam[0])
    dt_cap = 15.0 / max(spread, 1e-12)
    trace: list[tuple[float, float]] = []
    prev = None
    t = 0.0
    dt = min(1.0, dt_cap)
    for _ in range(4096):
        grow = np.exp(dt * (lam - lam[-1]))[:, None]
        frame, _ = np.linalg.qr(grow * frame)
        t += dt
        val = float(lam @ (frame.real**2 + frame.imag**2) @ d)
        trace.append((t, val))
        if prev is not None and abs(val - prev) < tol:
            return RelativeDegreeResult(value=val, t_trace=tuple(trace), method="qr_flow")
        prev = val
        dt = min(2.0 * dt, dt_cap)
        if t > 2.0**_MAX_EXP:
            break
    raise NonConvergence(trace)
