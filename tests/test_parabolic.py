import json
import time
import tracemalloc

import numpy as np
import pytest

from parhodge import cli
from parhodge.cli import cli_dispatch

from parhodge.liealg import Realization, build_realization, comm
from parhodge.parabolic import (
    ParabolicDatum,
    levi_centralizer_tilde,
    p1_subalgebra,
    parabolic_from,
)

# the compact torus of SL(2,R) in its split frame, which is not diagonal
SL2R_TORUS = np.array([[0, 1j], [-1j, 0]], dtype=complex)


def chi_vanishing_defect(real: Realization, datum: ParabolicDatum) -> float:
    """Max |chi_s| over n_s and over brackets of the Levi basis (should be ~0)."""
    worst = 0.0
    for b in datum.n_basis:
        worst = max(worst, abs(datum.chi(b)))
    for i, a in enumerate(datum.l_basis):
        for b in datum.l_basis[i + 1 :]:
            worst = max(worst, abs(datum.chi(comm(a, b))))
    return worst


def test_parabolic_from_sl2r_unit_vector():
    sl2r = build_realization("SL(2,R)")
    s = np.array([[1, 0], [0, -1]], dtype=complex) / np.sqrt(2)
    datum = parabolic_from(sl2r, s)
    # Borel-type: 2-dimensional, with 1-dimensional Levi and nilradical
    assert len(datum.p_basis) == 2
    assert len(datum.l_basis) == 1
    assert len(datum.n_basis) == 1
    assert chi_vanishing_defect(sl2r, datum) < 1e-10


def test_parabolic_from_gl3_two_block():
    gl3 = build_realization("GL(3,C)")
    s = np.diag([1.0, 1.0, 0.0]).astype(complex)
    datum = parabolic_from(gl3, s)
    # block sizes (2,1): Levi gl_2 x gl_1 is 5-dimensional, nilradical 2-dimensional
    assert len(datum.l_basis) == 5
    assert len(datum.n_basis) == 2
    assert chi_vanishing_defect(gl3, datum) < 1e-9


def test_p1_empty_iff_interior():
    sl2r = build_realization("SL(2,R)")
    # interior weight: |2a| < 1
    assert p1_subalgebra(sl2r, 0.25 * SL2R_TORUS) == []
    # wall weight a = 1/2: the -1 eigenspace of ad(alpha) on h^C is nonzero
    gl2 = build_realization("GL(2,C)")
    q1 = p1_subalgebra(gl2, np.diag([0.5, -0.5]).astype(complex))
    assert len(q1) == 1
    # the direction is the lowered root vector E21
    assert abs(q1[0][1, 0]) > 0.9


def test_levi_centralizer_wall_is_everything():
    # alpha with root value exactly 1: e^{2 pi i alpha} = -1 is central,
    # so the twisted centralizer in m^C is all of m^C
    sl2r = build_realization("SL(2,R)")
    alpha = 0.5 * SL2R_TORUS
    m0, stab = levi_centralizer_tilde(sl2r, alpha)
    assert len(m0) == len(sl2r.basis_mC()) == 2
    assert len(stab) == len(sl2r.basis_hC()) == 1


def test_levi_centralizer_interior_is_kernel():
    gl2 = build_realization("GL(2,C)")
    alpha = np.diag([0.25, 0.0]).astype(complex)
    m0, stab = levi_centralizer_tilde(gl2, alpha)
    # only the diagonal survives on both sides
    assert len(m0) == 2
    assert len(stab) == 2


# ---------------------------------------------------------------------------
# the cost contract of the `parabolic` command
# ---------------------------------------------------------------------------


def _parabolic(tmp_path, label, s, space="g^C"):
    source, out = tmp_path / "input.json", tmp_path / "report.json"
    source.write_text(json.dumps({"realization": label, "s": np.stack([s.real, s.imag], -1).tolist(), "space": space}))
    return cli_dispatch(["parabolic", "--input", str(source), "--output", str(out)])


def _hermitian(rng, n, block=None):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    s = (x + x.conj().T) / 2
    if block is not None:  # commutes with J = diag(1_p, -1_q)
        s[:block, block:] = s[block:, :block] = 0
    return s


def _cost(tmp_path, label, s, space="g^C"):
    """(exit code, report, wall seconds, tracemalloc peak bytes) of one warm run."""
    _parabolic(tmp_path, label, s, space)  # warm: parser, imports, caches
    start = time.perf_counter()
    code, report = _parabolic(tmp_path, label, s, space)
    seconds = time.perf_counter() - start
    tracemalloc.start()
    try:
        _parabolic(tmp_path, label, s, space)
        return code, report, seconds, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [8, 16, 24, 32, 40])
def test_the_structured_grading_stays_cubic(tmp_path, n):
    # the dense compression held n^2 matrices of n^2 entries (41 MB at
    # n = 40) and took 0.49 s at n = 24; ceilings are generous for a shared host
    rng = np.random.default_rng(n)
    for label in (f"GL({n},C)", f"SL({n},R)", f"SU({n})", f"SU({n // 2},{n - n // 2})"):
        s = _hermitian(rng, n)
        code, report, seconds, peak = _cost(tmp_path, label, s)
        assert code == 0, report.get("error")
        assert report["outputs"]["dim_p"]["value"] + report["outputs"]["dim_n"]["value"] >= n * n - 1
        assert seconds < 0.5, (label, seconds)
        assert peak < 4 * 2**20, (label, peak)


def test_the_grading_of_a_j_commuting_s_has_no_bound_on_n(tmp_path):
    rng = np.random.default_rng(2)
    n = cli._MAX_DENSE_N + 8
    s = _hermitian(rng, n, block=n // 2)
    for space in ("h^C", "m^C"):
        code, report, seconds, peak = _cost(tmp_path, f"SU({n // 2},{n - n // 2})", s, space)
        assert code == 0, report.get("error")
        assert seconds < 0.5 and peak < 4 * 2**20, (space, seconds, peak)


@pytest.mark.parametrize("space", ["h^C", "m^C"])
def test_the_dense_fallback_is_bounded_at_the_realization(tmp_path, space):
    rng = np.random.default_rng(3)
    bound = cli._MAX_DENSE_N
    for n in (bound // 2, bound):
        for label in (f"SL({n},R)", f"SU({n // 2},{n - n // 2})"):
            code, report, seconds, peak = _cost(tmp_path, label, _hermitian(rng, n), space)
            assert code == 0, report.get("error")
            assert seconds < 5.0 and peak < 64 * 2**20, (label, seconds, peak)
    for label in (f"SL({bound + 1},R)", f"SU({bound // 2},{bound // 2 + 1})"):
        code, report = _parabolic(tmp_path, label, _hermitian(rng, bound + 1), space)
        assert code == 3
        assert report["error"]["location"] == "$.realization"
        assert report["outputs"] == {}
