import numpy as np
import pytest

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
