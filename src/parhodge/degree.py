"""Relative degrees: the asymptotic pairing that drives every parabolic-degree
and local-system-degree computation.

Two routes to one pairing, and its exact form:

  * relative_position: the limit of t |-> <s . e^{-t sigma}, sigma> read off
    the relative position (the Bruhat cell) of the two eigenflags, by one
    elimination.  Pair mode and local_system_degree use it.
    relative_positions reads the same position for a stack of pairs, in both
    orders of each, bit for bit: one batched eigh per side and one column
    loop over all 2k bases.  The sample sweep of degree-relative runs it.
  * relative_degree: the same limit by the flow itself, pushing the ascending
    eigenvalue flag of s through e^{t sigma} in capped steps and
    re-orthonormalizing (QR) after each; the step cap keeps every factor of a
    step in [e^-15, 1], so no overflow occurs even at t = 2^20.  The
    relative-degree acceptance gates read it, trace included.
  * relative_degree_filtration: the exact pairing of two weighted flags
    sum a_i b_j m_ij with m_ij the graded intersection dimensions.

Flags are increasing filtrations; weights are listed per graded step in the
same (ascending) order the eigenvalue flag of a Hermitian matrix uses.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cartan import _row_reduce
from .errors import ParhodgeError
from .liealg import comm, hs_norm, hs_norms, numerical_rank


class NonConvergence(ParhodgeError, RuntimeError):
    exit_code = 4

    def __init__(self, trace: list[tuple[float, float]]):
        super().__init__(
            f"relative degree did not settle within tolerance after t = {trace[-1][0]:.3g}"
        )
        self.trace = trace


class FlagError(ParhodgeError, ValueError):
    pass


@dataclass(frozen=True)
class RelativeDegreeResult:
    value: float
    t_trace: tuple[tuple[float, float], ...]
    method: str


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
# the flow stops once two successive values differ by less than this
_SETTLE_TOL = 1e-9


def _commuting_trace(s: np.ndarray, sigma: np.ndarray) -> float | None:
    """Check that s and sigma are Hermitian.  Return tr(s sigma) when they
    commute, else None."""
    scale = (1 + hs_norm(s)) * (1 + hs_norm(sigma))
    for name, m in (("s", s), ("sigma", sigma)):
        if hs_norm(m - m.conj().T) > 1e-10 * scale:
            raise ValueError(f"{name} must be Hermitian")
    if hs_norm(comm(s, sigma)) <= 1e-12 * scale:
        return float(np.trace(s @ sigma).real)
    return None


def relative_degree(s: np.ndarray, sigma: np.ndarray) -> RelativeDegreeResult:
    """Limit of <s . e^{-t sigma}, sigma> for Hermitian s, sigma (trace pairing),
    by the QR flow; a commuting pair keeps tr(s sigma).

    The flow runs in the eigenbasis of sigma, where e^{dt sigma} is a row
    scaling: it re-orthonormalizes after every step so the flag stays well
    conditioned, and caps the per-step exponent spread so one sweep never
    drives the subdominant eigencomponents below machine precision.
    """
    s = np.asarray(s, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    value = _commuting_trace(s, sigma)
    if value is not None:
        return RelativeDegreeResult(value=value, t_trace=((0.0, value),), method="commuting")
    lam, v_sig = np.linalg.eigh(sigma)
    d, u_s = np.linalg.eigh(s)  # ascending: columns span the increasing flag of s
    frame = v_sig.conj().T @ u_s
    # dt <= dt_cap keeps each factor in [e^-15, 1], so e^{dt sigma} needs no rescaling
    dt_cap = 15.0 / max(float(lam[-1] - lam[0]), 1e-12)
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
        if prev is not None and abs(val - prev) < _SETTLE_TOL:
            return RelativeDegreeResult(value=val, t_trace=tuple(trace), method="qr_flow")
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
    s = np.asarray(s, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    value = _commuting_trace(s, sigma)
    if value is not None:
        return RelativePosition(value=value, permutation=None, min_pivot_ratio=None, method="commuting")
    lam, v_sig = np.linalg.eigh(sigma)
    d, u_s = np.linalg.eigh(s)
    # the eigenbasis of s in that of sigma, transposed: column i of M is row i here
    rows = np.ascontiguousarray((v_sig.conj().T @ u_s).T)
    n = len(d)
    perm = []
    worst = 1.0
    for i in range(n):
        col = rows[i]  # zero in the entries already used
        mags = np.abs(col)
        norm = math.sqrt(mags @ mags)
        above = mags > tol * norm
        p = n - 1 - int(above[::-1].argmax())
        if not above[p]:  # only a cutoff near 1 or above: the largest entry is >= norm / sqrt(n)
            raise ValueError(f"no entry of column {i} exceeds tol * ||column|| at tol = {tol:g}")
        worst = min(worst, float(mags[p]) / norm)
        rest = rows[i + 1 :]
        # the product keeps the operand order of np.outer(col / col[p], M[p]): a
        # fused complex multiply rounds differently with the operands swapped
        rest -= (col / col[p]) * rest[:, p, None]
        rest[:, p] = 0  # what the subtraction leaves there is rounding
        perm.append(p)
    return RelativePosition(
        value=float(d @ lam[perm]),
        permutation=tuple(perm),
        min_pivot_ratio=worst,
        method="bruhat relative position",
    )


def relative_positions(
    s: np.ndarray, sigma: np.ndarray, tol: float = 1e-9
) -> tuple[list[RelativePosition], list[RelativePosition]]:
    """relative_position(s[j], sigma[j], tol) and relative_position(sigma[j],
    s[j], tol) for every pair j of two (k, n, n) stacks, bit for bit.

    The two orders of a pair share the checks of _commuting_trace and both
    eigendecompositions: the forward order eliminates V_sigma^H U_s, the
    backward one U_s^H V_sigma, and all 2k bases run through one column loop,
    each member pivoting on its own bottom-most entry above tol * ||column||.
    The ValueError raised is the one the first refused pair raises, forward
    order first, as a loop over the pairs would meet it.
    """
    s = np.asarray(s, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    k, n = s.shape[:2]
    forward, backward = s @ sigma, sigma @ s
    # the norms of s, sigma, their skew parts and [s, sigma], in one call
    parts = [s, sigma, *(m - m.conj().swapaxes(1, 2) for m in (s, sigma)), forward - backward]
    norm_s, norm_sigma, skew_s, skew_sigma, bracket = hs_norms(np.concatenate(parts)).reshape(5, k)
    scale = (1 + norm_s) * (1 + norm_sigma)
    skew = (skew_s > 1e-10 * scale, skew_sigma > 1e-10 * scale)
    commuting = bracket <= 1e-12 * scale
    lam, v_sig = np.linalg.eigh(sigma)
    d, u_s = np.linalg.eigh(s)
    m = np.concatenate([v_sig.conj().swapaxes(1, 2) @ u_s, u_s.conj().swapaxes(1, 2) @ v_sig])
    members = np.arange(2 * k)
    perm = np.empty((2 * k, n), dtype=int)
    worst = np.ones(2 * k)
    refused = np.full(2 * k, -1)  # the first column a member finds no pivot in
    # a refused member keeps running on a zero factor; what it computes is unread
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(n):
            col = m[:, :, i]
            mags = np.abs(col)
            # np.linalg.norm of each column: the same dot, through matmul
            norm = np.sqrt((mags[:, None, :] @ mags[:, :, None])[:, 0, 0])
            above = mags > tol * norm[:, None]
            p = n - 1 - np.argmax(above[:, ::-1], axis=1)
            found = above[members, p]
            refused[~found & (refused < 0)] = i
            perm[:, i] = p
            worst = np.minimum(worst, mags[members, p] / norm)
            factor = col / np.where(found, col[members, p], 1)[:, None]
            factor[~found] = 0
            m[:, :, i + 1 :] -= factor[:, :, None] * m[members, p, i + 1 :][:, None, :]
            m[members, p, i + 1 :] = 0
    out: tuple[list[RelativePosition], list[RelativePosition]] = ([], [])
    for j in range(k):
        for name, bad in zip(("s", "sigma"), skew):
            if bad[j]:
                raise ValueError(f"{name} must be Hermitian")
        if commuting[j]:
            for side, product in enumerate((forward, backward)):
                value = float(np.trace(product[j]).real)
                out[side].append(RelativePosition(value, None, None, "commuting"))
            continue
        for side, member, weights, values in ((0, j, d[j], lam[j]), (1, k + j, lam[j], d[j])):
            if refused[member] >= 0:
                raise ValueError(
                    f"no entry of column {refused[member]} exceeds tol * ||column|| at tol = {tol:g}"
                )
            out[side].append(
                RelativePosition(
                    value=float(weights @ values[perm[member]]),
                    permutation=tuple(perm[member].tolist()),
                    min_pivot_ratio=float(worst[member]),
                    method="bruhat relative position",
                )
            )
    return out


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
    return numerical_rank(arr, 1e-9 * max(1.0, hs_norm(arr)))


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
    """deg(sigma_s) = -sum_i mu_{beta_i}(s); slope subtracts the central twist <zeta, s>.

    Each mu_{beta_i}(s) is read off the relative position of the eigenflags,
    which holds in non-generic position too (beta_i and s sharing an
    eigenvector), where the flow can stop short of its limit."""
    per = [relative_position(beta, s).value for beta in beta_list]
    value = -float(sum(per))
    slope = value
    if zeta is not None:
        slope -= float(np.trace(np.asarray(zeta, dtype=complex) @ np.asarray(s, dtype=complex)).real)
    return LocalSystemDegree(value=value, slope=slope, per_puncture=tuple(per))
