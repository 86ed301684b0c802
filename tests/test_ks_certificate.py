"""Kostant-Sekiguchi orbit certificates against the construction they replaced.

``kostant_sekiguchi_orbit_map`` reads its certificate from e itself: e and
its Kostant-Sekiguchi image y lie in one G^C-orbit, so they share the rank
sequence, and on the rank-one models the eigenline of y is the sign of
Im tr(e H+).  The oracle below is the construction of y that the map used
before, frozen: Jacobson-Morozov in g, a first-order descent to
theta(e) = -f (the exact closed form on SL(2,R)), the Cayley transform, and
the invariants of the resulting y.
"""
import itertools

import numpy as np
import pytest
from cayley_oracle import cayley_transform, validate_ks_real
from scipy.linalg import expm

from parhodge.liealg import (
    SL2Triple,
    TripleCompletionFailure,
    _component_signs,
    build_realization,
    comm,
    hs_norm,
    jacobson_morozov,
    kostant_sekiguchi_orbit_map,
    rank_sequence,
)


def _descent(real, t: SL2Triple, tol: float = 1e-9, max_iter: int = 10_000) -> SL2Triple:
    """A ks_real triple conjugate to the plain triple t, by descent over g.

    Directions include the noncompact part of g: conjugation by the compact
    group alone preserves ||theta(e) + f||, so it cannot make progress.
    """
    basis = real.basis_g()
    x, e, f = (np.asarray(m, dtype=complex) for m in (t.x, t.e, t.f))

    def defect(e_, f_):
        d = real.theta(e_) + f_
        return float(np.vdot(d, d).real)

    val = defect(e, f)
    step = 0.5
    it = 0
    while val > tol * tol and it < max_iter:
        it += 1
        d = real.theta(e) + f
        gvec = np.array(
            [2 * np.vdot(d, real.theta(comm(z, e)) + comm(z, f)).real for z in basis]
        )
        gn = np.linalg.norm(gvec)
        if gn < 1e-15:
            break
        direction = sum(-g * z for g, z in zip(gvec, basis)) / gn
        # backtracking line search on the conjugated defect
        s = step
        for _ in range(40):
            g_ = expm(s * direction)
            g_inv = np.linalg.inv(g_)
            e2, f2 = g_ @ e @ g_inv, g_ @ f @ g_inv
            v2 = defect(e2, f2)
            if v2 < val - 1e-16:
                x = g_ @ x @ g_inv
                e, f, val = e2, f2, v2
                step = min(s * 1.5, 1.0)
                break
            s *= 0.5
        else:
            break
    assert val <= 1e-12 * max(1.0, hs_norm(e) ** 2), f"descent stalled at {val ** 0.5:.3e}"
    out = SL2Triple(x=x, e=e, f=f, flavor="ks_real")
    validate_ks_real(real, out, 1e-6)
    return out


def _closed_form_sl2(real, t: SL2Triple) -> SL2Triple:
    """Exact ks_real representative of a plain triple in sl(2,R).

    In the basis (e u, u), u a lowest-weight vector of x, the triple becomes
    the standard one; the fixed orthogonal change then lands on the triple
    with f = e^T.  The determinant sign of the chain basis decides which of
    the two nilpotent SL(2,R)-orbits we are in, so the target is reflected
    accordingly and the overall conjugation stays orientation-preserving.
    """
    x = np.asarray(t.x, dtype=complex).real
    e = np.asarray(t.e, dtype=complex).real
    vals, vecs = np.linalg.eig(x)
    k = int(np.argmin(np.abs(vals - (-1))))
    if abs(vals[k] + 1) > 1e-6:
        raise TripleCompletionFailure("x has no eigenvalue -1; not an sl2-triple over R")
    u = vecs[:, k].real
    if np.linalg.norm(u) < 1e-9:  # eigenvector came out imaginary; rotate the phase
        u = vecs[:, k].imag
    det = float(np.linalg.det(np.stack([e @ u, u], axis=1)))
    if abs(det) < 1e-12:
        raise TripleCompletionFailure("degenerate chain basis")
    x_hat = np.array([[0.0, -1.0], [-1.0, 0.0]])
    e_hat = 0.5 * np.array([[1.0, 1.0], [-1.0, -1.0]])
    if det < 0:
        r = np.diag([1.0, -1.0])
        x_hat, e_hat = r @ x_hat @ r, r @ e_hat @ r
    out = SL2Triple(
        x=x_hat.astype(complex), e=e_hat.astype(complex), f=e_hat.T.astype(complex), flavor="ks_real"
    )
    validate_ks_real(real, out, 1e-9)
    return out


def oracle_certificate(real, e: np.ndarray) -> tuple:
    """(rank_sequence, component_signs) of the ks_normal nilpositive element of e.

    Read at e / ||e||, which lies in the G-orbit of e (conjugation by
    exp(t x) scales e by exp(2t)): the descent has to travel about
    log ||e|| and fails far from unit scale, with a wrong rank (2, 2) at
    1e-4 and a singular matrix at 1e4 on SU(1,1).
    """
    plain = jacobson_morozov(e / hs_norm(e))
    ks = _closed_form_sl2(real, plain) if real.label == "SL(2,R)" else _descent(real, plain)
    y = cayley_transform(real, ks).e
    return rank_sequence(y), _component_signs(real, y)


def certificate(real, e: np.ndarray) -> tuple:
    cert = kostant_sekiguchi_orbit_map(real, e)
    return cert.rank_sequence, cert.component_signs


def conjugates(real, e: np.ndarray, count: int, seed: int, spread: float = 0.3):
    """g e g^-1 for g = exp(sum c_i b_i), b_i the real basis of g."""
    rng = np.random.default_rng(seed)
    basis = real.basis_g()
    for _ in range(count):
        g = expm(sum(c * b for c, b in zip(spread * rng.standard_normal(len(basis)), basis)))
        yield g @ e @ np.linalg.inv(g)


def jordan(partition: tuple[int, ...]) -> np.ndarray:
    n = sum(partition)
    out = np.zeros((n, n), dtype=complex)
    pos = 0
    for block in partition:
        for k in range(block - 1):
            out[pos + k, pos + k + 1] = 1.0
        pos += block
    return out


def partitions(n: int, most: int | None = None):
    """Partitions of n, parts in decreasing order."""
    most = n if most is None else most
    if n == 0:
        yield ()
        return
    for part in range(min(n, most), 0, -1):
        for rest in partitions(n - part, part):
            yield (part, *rest)


SPLIT_CASES = [(n, p) for n in range(3, 6) for p in partitions(n) if p[0] > 1]


@pytest.mark.parametrize("n, partition", SPLIT_CASES)
def test_split_partitions_match_the_oracle(n, partition):
    real = build_realization(f"SL({n},R)")
    e = jordan(partition)
    want = tuple(sum(max(b - k, 0) for b in partition) for k in range(1, n + 1))
    for moved in conjugates(real, e, 3, seed=n * 100 + len(partition)):
        assert certificate(real, moved) == oracle_certificate(real, moved)
        assert certificate(real, moved)[0] == want


def _isotropic_nilpotent(p: int, q: int, pairs: int) -> np.ndarray:
    """i * sum_k u_k u_k^H J over the isotropic vectors u_k = e_k + e_{p+k}:
    in su(p,q), and it squares to zero."""
    j = np.diag([1.0] * p + [-1.0] * q)
    out = np.zeros((p + q, p + q), dtype=complex)
    for k in range(pairs):
        u = np.zeros(p + q)
        u[k] = u[p + k] = 1.0
        out += 1j * np.outer(u, u) @ j
    return out


SU_CASES = [
    (p, q, pairs) for p, q in ((1, 2), (2, 1), (1, 3), (3, 1), (2, 2)) for pairs in range(1, min(p, q) + 1)
]


@pytest.mark.parametrize("p, q, pairs", SU_CASES)
def test_su_pq_nilpotents_match_the_oracle(p, q, pairs):
    real = build_realization(f"SU({p},{q})")
    for sign in (1, -1):
        e = sign * _isotropic_nilpotent(p, q, pairs)
        for moved in conjugates(real, e, 2, seed=10 * p + q + pairs):
            assert real.in_g(moved)
            assert certificate(real, moved) == oracle_certificate(real, moved)


@pytest.mark.parametrize(
    "label, e",
    [
        # so(2,1) and so(1,2) sit inside su(2,1) and su(1,2) as real matrices
        ("SU(2,1)", np.array([[0, 1, 1], [-1, 0, 0], [1, 0, 0]], dtype=complex)),
        ("SU(1,2)", np.array([[0, 1, 0], [1, 0, 1], [0, -1, 0]], dtype=complex)),
    ],
)
def test_su_pq_principal_nilpotents_get_a_certificate(label, e):
    # the oracle refuses these conjugates: the Jacobson-Morozov triple of a
    # Jordan-chain basis leaves su(p,q), so the descent in g cannot start
    real = build_realization(label)
    for sign in (1, -1):
        for moved in conjugates(real, sign * e, 3, seed=3):
            assert real.in_g(moved)
            assert certificate(real, moved) == ((2, 1, 0), None)


RANK_ONE = {
    "SL(2,R)": (jordan((2,)), jordan((2,)).T),
    "SU(1,1)": (_isotropic_nilpotent(1, 1, 1), -_isotropic_nilpotent(1, 1, 1)),
}


@pytest.mark.parametrize("label, scale", itertools.product(RANK_ONE, [1e-4, 1e-2, 1.0, 1e2, 1e4]))
def test_rank_one_orbits_match_the_oracle_at_every_scale(label, scale):
    real = build_realization(label)
    seen = []
    for k, e in enumerate(RANK_ONE[label]):
        for moved in conjugates(real, scale * e, 8, seed=k):
            got = certificate(real, moved)
            assert got == oracle_certificate(real, moved)
            assert got[0] == (1, 0)
        seen.append(got)
    # the two real orbits stay apart
    assert seen[0][1] != seen[1][1]


def test_normalize_ks_sl2r_closed_form():
    sl2r = build_realization("SL(2,R)")
    x = np.diag([1.0, -1.0]).astype(complex)
    e = np.array([[0, 1], [0, 0]], dtype=complex)
    f = np.array([[0, 0], [1, 0]], dtype=complex)
    out = _closed_form_sl2(sl2r, SL2Triple(x, e, f, "plain"))
    assert out.flavor == "ks_real"
    assert hs_norm(sl2r.theta(out.e) + out.f) < 1e-10


def test_normalize_ks_descent_su11():
    # a ks_real triple in su(1,1), conjugated off normal form by a noncompact element
    su11 = build_realization("SU(1,1)")
    s = np.array([[0, 1], [1, 0]], dtype=complex)
    e = 0.5 * np.array([[1j, -1j], [1j, -1j]], dtype=complex)
    f = 0.5 * np.array([[-1j, -1j], [1j, 1j]], dtype=complex)
    validate_ks_real(su11, SL2Triple(s, e, f, "ks_real"))
    g = expm(0.3 * np.array([[0, -1j], [1j, 0]], dtype=complex))
    gi = np.linalg.inv(g)
    t = SL2Triple(g @ s @ gi, g @ e @ gi, g @ f @ gi, "plain")
    out = _descent(su11, t)
    assert hs_norm(su11.theta(out.e) + out.f) < 1e-5
