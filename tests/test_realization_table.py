"""The per-family table behind ``Realization`` against the if-chain class it
replaced, kept frozen in ``realization_oracle``; and the guard that only
``liealg`` reads a realization's family."""

import ast
from pathlib import Path

import numpy as np
import pytest
from realization_oracle import oracle_of

from parhodge.liealg import (
    Realization,
    UnsupportedGroup,
    build_realization,
    comm,
    hs_norm,
    is_nilpotent,
)

# ---------------------------------------------------------------------------
# the table against the oracle
# ---------------------------------------------------------------------------

LABELS = [f"{g}({n}{f})" for n in range(1, 6) for g, f in (("GL", ",C"), ("SL", ",C"), ("SL", ",R"), ("U", ""), ("SU", ""))]
LABELS += [f"SU({p},{q})" for p in range(1, 5) for q in range(1, 6 - p)]


def outcome(call):
    """What a call returns, down to the bytes of its arrays, or what it raises."""
    try:
        value = call()
    except Exception as exc:  # the oracle and the table must raise alike
        return ("raises", type(exc), str(exc))
    return ("returns", flat(value))


def flat(value):
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (list, tuple)):
        return [flat(v) for v in value]
    return value


def random_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


@pytest.mark.parametrize("label", LABELS)
def test_table_matches_the_if_chain_oracle(label):
    real = build_realization(label)
    oracle = oracle_of(real)
    n = real.n
    rng = np.random.default_rng(n + 10 * len(label))
    calls = {}
    for k in range(4):
        x = random_matrix(rng, n)
        real_x = rng.standard_normal((n, n))
        for name in ("theta", "sigma", "tau", "project_hC", "project_mC"):
            calls[f"{name} {k}"] = lambda r, name=name, x=x: getattr(r, name)(x)
            calls[f"{name} real {k}"] = lambda r, name=name, x=real_x: getattr(r, name)(x)
        # membership on random matrices (mostly False) and on projected,
        # sigma-symmetrized and theta-symmetrized ones (True where the model says so)
        for kind, y in (
            ("random", x),
            ("h^C", oracle.project_hC(x)),
            ("m^C", oracle.project_mC(x)),
            ("sigma-fixed", (x + oracle.sigma(x)) / 2),
        ):
            for name in ("in_hC", "in_mC", "in_g"):
                calls[f"{name} {kind} {k}"] = lambda r, name=name, y=y: getattr(r, name)(y)
    if real.signature is not None:
        calls["J"] = lambda r: r._J if isinstance(r, Realization) else r._J()
    for name, call in calls.items():
        assert outcome(lambda: call(real)) == outcome(lambda: call(oracle)), (label, name)


def test_unknown_family_and_empty_rank_are_refused_at_construction():
    with pytest.raises(UnsupportedGroup):
        Realization("Sp(4,R)", "Sp_R", 4)
    with pytest.raises(UnsupportedGroup):
        build_realization("GL(0,C)")
    with pytest.raises(UnsupportedGroup):
        build_realization("SU(0)")


# ---------------------------------------------------------------------------
# what other modules ask of a realization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("label", LABELS)
def test_class_answers(label):
    real = build_realization(label)
    assert real.real_form == (real.family in ("SL_R", "SU_pq"))
    assert (real.eigenlines is not None) == (label in ("SL(2,R)", "SU(1,1)"))
    expected = real.signature if real.signature is not None else (1, 1) if label == "SL(2,R)" else None
    assert real.hermitian_signature == expected


@pytest.mark.parametrize("label", ["SL(2,R)", "SU(1,1)"])
def test_eigenlines_are_the_two_nilpotent_mC_lines(label):
    real = build_realization(label)
    (h_plus, plus), (h_minus, minus) = real.eigenlines
    for h, y in ((h_plus, plus), (h_minus, minus)):
        assert hs_norm(comm(h, y) + 2 * y) < 1e-12
        assert real.in_mC(y) and real.in_hC(h) and is_nilpotent(y)
    assert hs_norm(h_plus + h_minus) < 1e-12
    assert abs(np.vdot(plus, minus)) < 1e-12


# ---------------------------------------------------------------------------
# the guard
# ---------------------------------------------------------------------------


def test_only_liealg_reads_the_family():
    package = Path(__file__).resolve().parents[1] / "src" / "parhodge"
    readers = []
    for path in sorted(package.glob("*.py")):
        if path.name == "liealg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "family":
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []


def test_one_model_per_canonical_label_with_read_only_arrays():
    real = build_realization("SU(2,1)")
    assert build_realization("SU(2, 1)") is real
    assert build_realization(" SU( 2 ,1 ) ") is real
    assert build_realization("SU(1,2)") is not real
    assert build_realization("GL(3,C)") is build_realization("GL(03,C)")
    assert real._J is build_realization("SU(2,1)")._J
    with pytest.raises(ValueError, match="read-only"):
        real._J[0, 0] = 5
    for label in ("SL(2,R)", "SU(1,1)"):
        lines = build_realization(label).eigenlines
        assert lines is build_realization(label).eigenlines
        for h, y in lines:
            for a in (h, y):
                with pytest.raises(ValueError, match="read-only"):
                    a *= 2
    assert build_realization("SU(2,1)")._J[0, 0] == 1


def test_the_model_cache_is_bounded():
    from parhodge import liealg

    first = build_realization("GL(1,C)")
    for n in range(2, 2 * liealg._MAX_REALIZATIONS + 2):
        build_realization(f"GL({n},C)")
    assert len(liealg._REALIZATIONS) <= liealg._MAX_REALIZATIONS
    again = build_realization("GL(1,C)")
    assert again == first  # rebuilt once it left the cache, equal as a model
