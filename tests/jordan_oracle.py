"""The Jordan-Chevalley split before it shared one eigensolve between the
additive and multiplicative forms, kept as a test oracle.

``jordan_additive`` and ``jordan_multiplicative`` are the library functions
as they stood: each calls ``eigvals`` on its own, and the multiplicative form
clusters the spectrum of the semisimple part again.  Only the inputs whose
clustered remainder is not nilpotent (a diagonalizable matrix with a small
eigenvalue gap) are decided differently by the library now.
"""
from __future__ import annotations

import numpy as np

from nilpotent_oracle import is_nilpotent

from parhodge.liealg import JordanFactors, NotInvertible, NumericallyDefective, hs_norm

# rounding of size eps * |m| moves the eigenvalue of a defective k-block by up
# to about eps^(1/k) * |m|; the factor 16 covers the worst of a few hundred
# random conjugated blocks, k = 2..4
_ROUNDING = 16 * np.finfo(float).eps


def _order(z: complex) -> tuple[float, float]:
    return (z.real, z.imag)


def _linked(vals, gap: float) -> list[list[complex]]:
    """Groups of vals joined by chains of steps of length <= gap, each sorted."""
    groups: list[list[complex]] = []
    for v in sorted(vals, key=_order):
        near = [g for g in groups if any(abs(v - u) <= gap for u in g)]
        joined = sorted([v, *(u for g in near for u in g)], key=_order)
        groups = [g for g in groups if g not in near] + [joined]
    return groups


def _cluster(vals: np.ndarray, tol: float, scale: float) -> list[complex]:
    """Means of the groups of eigenvalues that are numerically one eigenvalue.

    A chain of k values, linked by steps up to the scatter bound of a
    defective block of full size, is one group when all k lie within
    max(tol, _ROUNDING^(1/k)) * scale of their mean; otherwise it splits into
    chains linked by steps up to tol * scale.
    """
    groups: list[list[complex]] = []
    for chain in _linked(vals, 2 * max(tol, _ROUNDING ** (1 / len(vals))) * scale):
        mean = np.mean(chain)
        if max(abs(v - mean) for v in chain) <= max(tol, _ROUNDING ** (1 / len(chain))) * scale:
            groups.append(chain)
        else:
            groups += _linked(chain, tol * scale)
    groups.sort(key=lambda g: _order(g[0]))
    return [complex(np.mean(g)) for g in groups]


# Newton steps before the Jordan-Chevalley iteration gives up
_JORDAN_MAX_ITER = 60


def jordan_additive(m: np.ndarray, tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Additive Jordan-Chevalley decomposition m = s + n by the Newton iteration
    on the squarefree characteristic polynomial of the clustered spectrum."""
    m = np.asarray(m, dtype=complex)
    scale = max(1.0, hs_norm(m))
    vals = np.linalg.eigvals(m)
    reps = _cluster(vals, tol, scale)
    if len(reps) == len(vals):
        return m.copy(), np.zeros_like(m)
    coeffs = np.poly(np.array(reps))

    def ev(a):  # q(a), q'(a)
        n = a.shape[0]
        q = np.zeros_like(a)
        dq = np.zeros_like(a)
        for c in coeffs:
            dq = dq @ a + q
            q = q @ a + c * np.eye(n, dtype=complex)
        return q, dq

    s = m.copy()
    for _ in range(_JORDAN_MAX_ITER):
        q, dq = ev(s)
        if hs_norm(q) <= 1e-13 * scale ** max(1, len(reps)):
            break
        try:
            delta = np.linalg.solve(dq, q)
        except np.linalg.LinAlgError as exc:
            raise NumericallyDefective("Jordan-Chevalley Newton step singular") from exc
        s = s - delta
        if hs_norm(delta) < 1e-15 * scale:
            break
    else:
        raise NumericallyDefective("Jordan-Chevalley iteration did not converge")
    n_part = m - s
    if not is_nilpotent(n_part, 1e-6):
        raise NumericallyDefective("nilpotent part check failed after the iteration")
    return s, n_part


def jordan_multiplicative(g: np.ndarray, tol: float = 1e-8) -> JordanFactors:
    """g = elliptic * hyperbolic * unipotent with pairwise commuting factors.

    The semisimple part comes from the Jordan-Chevalley iteration; its polar
    split uses spectral projectors built by Lagrange interpolation on the
    clustered spectrum, so no eigenvector matrix is ever inverted.
    """
    g = np.asarray(g, dtype=complex)
    n = g.shape[0]
    scale = max(1.0, hs_norm(g))
    vals = np.linalg.eigvals(g)
    if np.min(np.abs(vals)) < 1e-10 * scale:
        raise NotInvertible("Jordan factorization needs an invertible matrix")
    s, nil = jordan_additive(g, tol)
    u = np.linalg.solve(s, g)  # unipotent: I + s^{-1} nil
    reps = _cluster(np.linalg.eigvals(s), tol, scale)
    projs = []
    for lam in reps:
        p = np.eye(n, dtype=complex)
        for mu in reps:
            if mu != lam:
                p = p @ (s - mu * np.eye(n)) / (lam - mu)
        projs.append(p)
    g_h = sum(abs(lam) * p for lam, p in zip(reps, projs))
    log_h = sum(np.log(abs(lam)) * p for lam, p in zip(reps, projs))
    g_e = sum((lam / abs(lam)) * p for lam, p in zip(reps, projs))
    log_u = np.zeros_like(g)
    acc = u - np.eye(n)
    sign = 1.0
    for k in range(1, n + 1):
        log_u = log_u + sign * acc / k
        acc = acc @ (u - np.eye(n))
        sign = -sign
    was_real = np.allclose(g.imag, 0, atol=1e-12 * scale)
    if was_real:
        for name, mval in (("h", g_h), ("e", g_e), ("u", u)):
            if np.max(np.abs(mval.imag)) > 1e-7 * scale:
                raise NumericallyDefective(f"real input produced complex factor {name}")
        g_h, g_e, u, log_u, log_h = (z.real.astype(complex) for z in (g_h, g_e, u, log_u, log_h))
    fac = JordanFactors(
        elliptic=g_e, hyperbolic=g_h, unipotent=u, semisimple=s, nilpotent_log=log_u, hyperbolic_log=log_h
    )
    err = hs_norm(g_e @ g_h @ u - g)
    if err > 1e-7 * scale:
        raise NumericallyDefective(f"reconstruction error {err:.2e}")
    return fac
