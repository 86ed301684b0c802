"""Relative degrees: the asymptotic pairing that drives every parabolic-degree
and local-system-degree computation.

Three routes are provided and must agree:

  * relative_degree: numeric limit of t |-> <s . e^{-t sigma}, sigma>, computed
    by pushing the ascending eigenvalue flag of s through e^{t sigma} in capped
    steps and re-orthonormalizing (QR) after each; the step cap keeps every
    factor of a step in [e^-15, 1], so no overflow occurs even at t = 2^20.
  * relative_position: the same limit read off the relative position (the
    Bruhat cell) of the two eigenflags, by one elimination.
  * relative_degree_filtration: the exact pairing of two weighted flags
    sum a_i b_j m_ij with m_ij the graded intersection dimensions.

Flags are increasing filtrations; weights are listed per graded step in the
same (ascending) order the eigenvalue flag of a Hermitian matrix uses.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cartan import _row_reduce
from .liealg import comm, hs_norm


class NonConvergence(RuntimeError):
    def __init__(self, trace: list[tuple[float, float]]):
        super().__init__(
            f"relative degree did not settle within tolerance after t = {trace[-1][0]:.3g}"
        )
        self.trace = trace


class FlagError(ValueError):
    pass


@dataclass(frozen=True)
class RelativeDegreeResult:
    value: float
    t_trace: tuple[tuple[float, float], ...]
    method: str
    converged: bool


@dataclass(frozen=True)
class RelativePosition:
    """The relative degree read off the Bruhat cell of the two eigenflags.

    ``permutation[i]`` is the index of the sigma-eigenvalue (ascending) that
    the i-th eigenvalue of s (ascending) pairs with, and ``min_pivot_ratio``
    the smallest accepted |pivot| / ||column||: how close the decision came to
    the cutoff ``tol``.  A commuting pair takes no elimination, and both are
    None.
    """

    value: float
    permutation: tuple[int, ...] | None
    min_pivot_ratio: float | None
    method: str


# the flow gives up once t exceeds 2^_MAX_EXP
_MAX_EXP = 20


def _eigenframe(s: np.ndarray, sigma: np.ndarray) -> float | tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check that s and sigma are Hermitian.  Return tr(s sigma) when they
    commute, else (d, lam, M): the ascending spectra of s and sigma and
    M = V_sigma^H U_s, the eigenbasis of s in that of sigma."""
    s = np.asarray(s, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    scale = (1 + hs_norm(s)) * (1 + hs_norm(sigma))
    for name, m in (("s", s), ("sigma", sigma)):
        if hs_norm(m - m.conj().T) > 1e-10 * scale:
            raise ValueError(f"{name} must be Hermitian")
    if hs_norm(comm(s, sigma)) <= 1e-12 * scale:
        return float(np.trace(s @ sigma).real)
    lam, v_sig = np.linalg.eigh(sigma)
    d, u_s = np.linalg.eigh(s)  # ascending: columns span the increasing flag of s
    return d, lam, v_sig.conj().T @ u_s


def relative_degree(s: np.ndarray, sigma: np.ndarray, tol: float = 1e-9) -> RelativeDegreeResult:
    """Limit of <s . e^{-t sigma}, sigma> for Hermitian s, sigma (trace pairing)."""
    frame = _eigenframe(s, sigma)
    if isinstance(frame, float):
        return RelativeDegreeResult(value=frame, t_trace=((0.0, frame),), method="commuting", converged=True)
    d, lam, frame = frame

    # iterated QR sweeps in the eigenbasis of sigma, where e^{dt sigma} is a row
    # scaling: re-orthonormalize after every step so the flag stays well
    # conditioned, and cap the per-step exponent spread so one sweep never
    # drives the subdominant eigencomponents below machine precision
    spread = float(lam[-1] - lam[0])
    dt_cap = 15.0 / max(spread, 1e-12)
    trace: list[tuple[float, float]] = []
    prev = None
    t = 0.0
    dt = min(1.0, dt_cap)
    for _ in range(4096):
        # dt <= dt_cap keeps each factor in [e^-15, 1], so e^{dt sigma} needs no rescaling
        grow = np.exp(dt * (lam - lam[-1]))[:, None]
        frame, _ = np.linalg.qr(grow * frame)
        t += dt
        val = float(lam @ (frame.real**2 + frame.imag**2) @ d)
        trace.append((t, val))
        if prev is not None and abs(val - prev) < tol:
            return RelativeDegreeResult(
                value=val, t_trace=tuple(trace), method="qr_flow", converged=True
            )
        prev = val
        dt = min(2.0 * dt, dt_cap)
        if t > 2.0**_MAX_EXP:
            break
    raise NonConvergence(trace)


def relative_position(s: np.ndarray, sigma: np.ndarray, tol: float = 1e-9) -> RelativePosition:
    """The limit of ``relative_degree`` from the relative position of the two
    eigenflags (the Tits relative position, Kapovich-Leeb-Millson).

    The flow carries the i-th eigenvector of s (ascending) to the highest
    sigma-eigenvector it still reaches once the earlier ones are spent.  So the
    columns of M = V_sigma^H U_s are eliminated left to right, each pivoting on
    its bottom-most entry above tol * ||column|| among the rows not yet used;
    with pi(i) the pivot row of column i the value is sum_i d_i lam_pi(i), the
    pairing ``relative_degree_filtration`` computes from intersection ranks.
    Repeated eigenvalues need no special case.
    """
    frame = _eigenframe(s, sigma)
    if isinstance(frame, float):
        return RelativePosition(value=frame, permutation=None, min_pivot_ratio=None, method="commuting")
    d, lam, m = frame
    perm = []
    worst = 1.0
    for i in range(len(d)):
        col = m[:, i]  # zero in the rows already used
        mags = np.abs(col)
        norm = float(np.linalg.norm(mags))
        rows = np.flatnonzero(mags > tol * norm)
        if not rows.size:  # only a cutoff near 1 or above: the largest entry is >= norm / sqrt(n)
            raise ValueError(f"no entry of column {i} exceeds tol * ||column|| at tol = {tol:g}")
        p = int(rows[-1])
        worst = min(worst, float(mags[p]) / norm)
        m[:, i + 1 :] -= np.outer(col / col[p], m[p, i + 1 :])
        m[p, i + 1 :] = 0  # what the subtraction leaves there is rounding
        perm.append(p)
    return RelativePosition(
        value=float(d @ lam[perm]),
        permutation=tuple(perm),
        min_pivot_ratio=worst,
        method="bruhat relative position",
    )


# --------------------------------------------------------------------------
# weighted-flag pairing
# --------------------------------------------------------------------------


def _is_exact(mats) -> bool:
    for m in mats:
        for row in m:
            for x in row:
                if not isinstance(x, (Fraction, int)):
                    return False
    return True


def _rank(rows, exact: bool) -> int:
    if exact:
        return len(_row_reduce(rows)[1])
    arr = np.asarray(rows, dtype=complex)
    return int(np.linalg.matrix_rank(arr, tol=1e-9 * max(1.0, np.linalg.norm(arr))))


def _joint_rank(a, b, exact: bool) -> int:
    return _rank([[*ra, *rb] for ra, rb in zip(a, b)], exact)


def _flag_dims(flag, n: int, label: str, exact: bool):
    """Validate nesting and return per-step cumulative dimensions."""
    dims = []
    for j, step in enumerate(flag):
        r = _rank(step, exact)
        if r != len(step[0]):
            raise FlagError(f"{label}[{j}] columns are dependent")
        if dims and r <= dims[-1]:
            raise FlagError(f"{label}[{j}] does not strictly increase")
        if j and _joint_rank(flag[j - 1], step, exact) != r:
            raise FlagError(f"{label}[{j}] does not contain the previous step")
        dims.append(r)
    if dims[-1] != n:
        raise FlagError(f"{label} must end with the full space")
    return dims


def relative_degree_filtration(flag_a, weights_a, flag_b, weights_b):
    """Exact pairing sum_ij a_i b_j m_ij of two weighted complete flags.

    Flags are lists of matrices whose columns span the increasing steps; the
    weights list one value per graded piece, in the same ascending-step order.
    Fraction inputs are processed in exact arithmetic and return a Fraction.
    """
    if not flag_a or not flag_b:
        raise FlagError("flags need at least one step")
    exact = _is_exact(flag_a) and _is_exact(flag_b)
    if len(flag_a) != len(weights_a) or len(flag_b) != len(weights_b):
        raise FlagError("one weight per flag step is required")
    n = len(flag_a[0])
    _flag_dims(flag_a, n, "flag_a", exact)
    _flag_dims(flag_b, n, "flag_b", exact)

    def inter(i: int, j: int) -> int:
        if i < 0 or j < 0:
            return 0
        a_full = i == len(flag_a) - 1
        b_full = j == len(flag_b) - 1
        if a_full and b_full:
            return n
        if a_full:
            return len(flag_b[j][0])
        if b_full:
            return len(flag_a[i][0])
        return len(flag_a[i][0]) + len(flag_b[j][0]) - _joint_rank(flag_a[i], flag_b[j], exact)

    total: Fraction | float = Fraction(0) if exact else 0.0
    for i, a in enumerate(weights_a):
        for j, b in enumerate(weights_b):
            m_ij = inter(i, j) - inter(i - 1, j) - inter(i, j - 1) + inter(i - 1, j - 1)
            if m_ij:
                total = total + (a * b * m_ij if exact else float(a) * float(b) * m_ij)
    return total


@dataclass(frozen=True)
class LocalSystemDegree:
    value: float
    slope: float
    per_puncture: tuple[float, ...]


def local_system_degree(beta_list, s: np.ndarray, zeta: np.ndarray | None = None) -> LocalSystemDegree:
    """deg(sigma_s) = -sum_i mu_{beta_i}(s); slope subtracts the central twist <zeta, s>."""
    per = []
    for beta in beta_list:
        res = relative_degree(np.asarray(beta, dtype=complex), np.asarray(s, dtype=complex))
        per.append(res.value)
    value = -float(sum(per))
    slope = value
    if zeta is not None:
        slope -= float(np.trace(np.asarray(zeta, dtype=complex) @ np.asarray(s, dtype=complex)).real)
    return LocalSystemDegree(value=value, slope=slope, per_puncture=tuple(per))
