"""The kernel flag against the nilpotent decisions it replaced
(``nilpotent_oracle``): every partition with n <= 8, in Jordan form and
after a well-conditioned real conjugation, exact and perturbed by 10^-k for
k = 3..12, each at the scales 2^0 and 2^+-600; and on the same inputs the
flag without bases against itself with one SVD for every power."""

from collections import Counter

import nilpotent_oracle as parent
import numpy as np

from parhodge.liealg import (
    _FLAG_CUTOFF,
    NotNilpotent,
    TripleCompletionFailure,
    ZeroElement,
    _jordan_chains,
    _kernel_flag,
    build_realization,
    jacobson_morozov,
    kostant_sekiguchi_orbit_map,
    spectral_norm,
)


def _partitions(n: int, top: int | None = None):
    """The partitions of n, parts in descending order."""
    if n == 0:
        yield ()
        return
    for k in range(min(n, n if top is None else top), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k, *rest)


def _jordan(partition: tuple[int, ...]) -> np.ndarray:
    n = sum(partition)
    j = np.zeros((n, n))
    pos = 0
    for block in partition:
        for k in range(block - 1):
            j[pos + k, pos + k + 1] = 1.0
        pos += block
    return j


def _ranks(partition, n: int) -> tuple[int, ...]:
    """The ranks of the k-th powers of a nilpotent of Jordan type ``partition``."""
    return tuple(sum(max(b - k, 0) for b in partition) for k in range(1, n + 1))


def _read(fn):
    try:
        return fn()
    except (NotNilpotent, ZeroElement) as exc:
        return type(exc).__name__


def _parent_chains(e: np.ndarray):
    """The Jordan type the parent's jacobson_morozov read: its power test at
    1e-8, then the lengths of its chains on e over the power of two nearest
    ||e||_2."""
    scale = spectral_norm(e)
    if scale == 0:
        raise ZeroElement
    if not parent.is_nilpotent(e):
        raise NotNilpotent
    step = 2.0 ** min(max(round(np.log2(scale)), -1021), 1023)
    return tuple(len(c) for c in parent._jordan_chains(e / step))


def _chains(e: np.ndarray):
    step, _, kernels = _kernel_flag(e, bases=True)
    if step == 0:
        raise ZeroElement
    return tuple(len(c) for c in _jordan_chains(e / step, kernels))


def _inputs():
    """(n, real, partition, k, e) of the sweep: every partition with n <= 8,
    in Jordan form and conjugated, exact and perturbed by 10^-k, at three
    scales."""
    rng = np.random.default_rng(26)
    for n in range(1, 9):
        real = build_realization(f"SL({n},R)")
        for partition in _partitions(n):
            j = _jordan(partition)
            q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
            q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
            p = q1 @ np.diag(np.linspace(1, 2, n)) @ q2  # condition number 2
            for m in (j, p @ j @ np.linalg.inv(p)):
                for k in (None, *range(3, 13)):
                    x = m
                    if k is not None:
                        r = rng.standard_normal((n, n))
                        x = m + 10.0**-k * (r - np.trace(r) / n * np.eye(n))
                    for scale in (1.0, 2.0**600, 2.0**-600):
                        yield n, real, partition, k, (scale * x).astype(complex)


def _sweep():
    """(n, partition, k, parent reading, reading now); a reading is (ranks,
    Jordan type), each a tuple or the name of the refusal."""
    rows = []
    for n, real, partition, k, e in _inputs():
        before = (
            _read(lambda: parent.kostant_sekiguchi_orbit_map(real, e).rank_sequence),
            _read(lambda: _parent_chains(e)),
        )
        now = (_read(lambda: kostant_sekiguchi_orbit_map(real, e).rank_sequence), _read(lambda: _chains(e)))
        try:
            jacobson_morozov(e)
        except (ZeroElement, NotNilpotent, TripleCompletionFailure):
            pass
        rows.append((n, partition, k, before, now))
    return rows


def _move(n: int, before, now) -> str:
    """Why a reading moved."""
    (ranks_before, type_before), (ranks_now, type_now) = before, now
    if ranks_before == ranks_now == type_now == "NotNilpotent" and isinstance(type_before, tuple):
        # the parent's jacobson_morozov gated on its power test at 1e-8 and
        # built chains where its orbit map refused the ranks
        return "the power test passed what the orbit map refused"
    if ranks_before == ranks_now and isinstance(type_before, tuple) and sum(type_before) > n:
        # the parent took every chain top above its second cutoff, more than
        # the flag has room for, and its jacobson_morozov crashed on them
        return "the parent's chain tops overran n"
    return "unexplained"


# every move of the sweep, by its reason; none is on an exact Jordan form
MOVES = {"the power test passed what the orbit map refused": 1284, "the parent's chain tops overran n": 96}


def test_the_kernel_flag_reads_what_the_parent_read():
    rows = _sweep()
    assert len(rows) == 66 * 2 * 11 * 3  # 66 partitions with n <= 8
    for n, partition, k, before, now in rows:
        if k is None:  # exact: nothing moves, and the reading is the partition
            want = (_ranks(partition, n), "ZeroElement" if partition == (1,) * n else partition)
            assert before == now == want
        ranks, jordan_type = now
        # one flag: the ranks and the chains refuse together, and the
        # chain lengths sum to n and give the ranks
        assert isinstance(ranks, str) == isinstance(jordan_type, str) or jordan_type == "ZeroElement"
        if isinstance(jordan_type, tuple):
            assert sum(jordan_type) == n and _ranks(jordan_type, n) == ranks
    moves = Counter(_move(n, before, now) for n, _, _, before, now in rows if before != now)
    assert moves == MOVES


def _flag_with_every_svd(e: np.ndarray):
    """(step, dims) of the kernel flag without bases as it was read with one
    SVD per power, before a power under its cutoff in the Frobenius norm
    skipped its SVD."""
    n = e.shape[0]
    sv = np.linalg.svd(e, compute_uv=False)
    if not sv[0]:
        return 0.0, (n,)
    top = float(sv[0])
    step = 2.0 ** min(max(round(np.log2(top)), -1021), 1023)
    unit, rho = e / step, top / step
    limit = _FLAG_CUTOFF * top
    dims, drop = [0], n
    power = unit
    while dims[-1] < n:
        if len(dims) > 1:
            power = power @ unit
            sv = np.linalg.svd(power, compute_uv=False)
            limit = _FLAG_CUTOFF * rho ** len(dims)
        rank = sum(v > limit for v in sv.tolist())
        prev, drop = drop, n - rank - dims[-1]
        if not 0 < drop <= prev:
            raise NotNilpotent(f"no nilpotent has powers with kernels of dimensions {(*dims[1:], n - rank)}")
        dims.append(n - rank)
    return step, tuple(dims[1:])


def _flag_reading(read):
    try:
        return read()
    except NotNilpotent as exc:
        return str(exc)


def test_a_power_under_the_cutoff_skips_its_svd_and_no_decision_moves(monkeypatch):
    svds = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        svds.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    readings = 0
    for _, _, partition, k, e in _inputs():
        before = len(svds)
        want = _flag_reading(lambda: _flag_with_every_svd(e))
        every = len(svds) - before
        got = _flag_reading(lambda: _kernel_flag(e)[:2])
        taken = len(svds) - before - every
        assert got == want
        readings += 1
        if k is None and partition != (1,) * len(partition):
            # an exact nilpotent's last power is zero up to rounding: its SVD is skipped
            assert taken == every - 1
        else:
            assert taken <= every
    assert readings == 4356
