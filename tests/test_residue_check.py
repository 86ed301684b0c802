"""The one residue-data check of translate-h2l and verify-model against the
two checks it replaced (``residue_check_oracle``), on random commuting data,
perturbed data and data scaled by 2^+-600."""

import math
from collections import Counter

import numpy as np
from residue_check_oracle import NotSingleValued as OracleNotSingleValued
from residue_check_oracle import h2l_check, model_check

from parhodge import modelmetric, nahodge
from parhodge.liealg import SL2Triple, TripleCompletionFailure, build_realization
from parhodge.nahodge import CommutationFailure, NotSingleValued, complete_ks_triple

MODELS = ("GL(2,C)", "GL(3,C)", "SL(2,R)", "SU(1,1)", "SU(2,1)")


def _phase(rng) -> complex:
    return complex(np.exp(1j * rng.uniform(0, 2 * math.pi)))


def _normal(rng, n: int) -> np.ndarray:
    """A random normal n x n matrix, U diag(z) U^H, so [s, tau(s)] = 0."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    z = 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return (q * z) @ q.conj().T


def _draws(rng, model: str) -> list[tuple]:
    """(alpha, s, y) on ``model`` that pass both commands' checks: alpha with
    level sets, s normal and block diagonal on them with y = 0, or a cusp y
    fixed by Ad(exp 2 pi i alpha) beside a scalar s."""
    real = build_realization(model)
    n = real.n
    a, b, c = (round(float(x), 3) for x in rng.uniform(-0.49, 0.49, 3))
    zero = np.zeros((n, n), dtype=complex)
    scalar = complex(*rng.uniform(-0.3, 0.3, 2)) * np.eye(n)
    generic = tuple(round(float(x), 3) for x in rng.uniform(-0.49, 0.49, n))
    out = [(generic, np.diag(0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))), zero)]
    if model in ("GL(2,C)", "GL(3,C)"):
        out.append(((a,) * n, _normal(rng, n), zero))
    if model == "SL(2,R)":
        m = rng.standard_normal((2, 2))
        out.append(((a, a), 0.15 * (m + m.T) + 0j, zero))  # real symmetric: normal
    if model == "SU(1,1)":
        w = 0.3 * _phase(rng)
        out.append(((a, a), np.array([[0, w], [abs(w) * _phase(rng), 0]]), zero))
    if model == "SU(2,1)":
        s = zero.copy()
        s[0, 2], s[2, 0] = 0.3 * _phase(rng), 0.3 * _phase(rng)
        out.append(((a, b, a), s, zero))
    if model == "GL(3,C)":
        s = zero.copy()
        s[:2, :2] = _normal(rng, 2)
        s[2, 2] = complex(*rng.uniform(-0.3, 0.3, 2))
        out.append(((a, a, b), s, zero))
        y = zero.copy()
        y[1, 0] = _phase(rng)
        out.append(((a, a, b), np.diag([scalar[0, 0]] * 2 + [complex(c, a)]), y))
    # a cusp: y on one nilpotent line, alpha scalar or on the wall
    if real.eigenlines is not None:
        y = _phase(rng) * real.eigenlines[rng.integers(2)][1]
    else:
        y = zero.copy()
        y[n - 1, 0] = _phase(rng)
    out.append(((a,) * n, scalar, y))
    wall = (0.5,) + (b,) * (n - 2) + (-0.5,)
    out.append((wall, scalar, y))
    return out


def _variants(rng, alpha, s, y):
    """(label, alpha, s, y): the draw, s or y perturbed by 10^-k for
    k = 3..12, each at the scales 2^0 and 2^+-600."""
    n = len(alpha)
    out = [("commuting", s, y)]
    for k in range(3, 13):
        noise = 10.0**-k * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        out += [(f"s+1e-{k}", s + noise, y), (f"y+1e-{k}", s, y + noise)]
    return [
        (f"{label} x2^{e}", alpha, 2.0**e * s2, 2.0**e * y2)
        for label, s2, y2 in out
        for e in (0, 600, -600)
    ]


class _Accepted(Exception):
    """Raised in place of the monodromy factors: every check has passed."""


def _accept(*args, **kwargs):
    raise _Accepted


def _outcome(run) -> str:
    with np.errstate(all="ignore"):  # the parent's exponentials past the float range
        try:
            run()
        except _Accepted:
            pass
        except (CommutationFailure, OracleNotSingleValued):
            return "refused"
        except TripleCompletionFailure as exc:
            return "refused" if "escaped" in str(exc) else "no triple"
        except Exception as exc:
            return type(exc).__name__
    return "accepted"


def _sweep(monkeypatch) -> list[tuple]:
    """(command, model, draw, variant, outcome at the parent, outcome now) for
    every variant; the checks of the library stop where the factors start."""
    monkeypatch.setattr(nahodge, "monodromy_factors", _accept)
    monkeypatch.setattr(modelmetric, "monodromy_factors", _accept)
    rng = np.random.default_rng(25)
    rows = []
    for model in MODELS:
        real = build_realization(model)
        for d, draw in enumerate(_draws(rng, model)):
            for label, alpha, s, y in _variants(rng, *draw):
                before = _outcome(lambda: h2l_check(alpha, s, y, model))
                now = _outcome(lambda: nahodge.higgs_to_localsystem(alpha, s, y, model))
                rows.append(("translate-h2l", model, d, label, before, now))
                # verify-model completes y to a triple before its checks, and
                # the y-variants perturb the triple itself
                try:
                    triple = complete_ks_triple(real, y)
                except Exception:  # both commands stop here alike
                    continue
                if label.startswith("y+"):
                    if triple is None:
                        continue
                    eps = float(label[2:].split(" ")[0])
                    parts = (triple.x, triple.e, triple.f)
                    triple = SL2Triple(*(m + eps * rng.standard_normal(m.shape) for m in parts))
                before = _outcome(lambda: model_check(alpha, s, triple, model))
                now = _outcome(lambda: modelmetric.circle_transport(alpha, s, triple, model))
                rows.append(("verify-model", model, d, label, before, now))
    return rows


def _move(command: str, label: str, before: str, now: str) -> str:
    """Why an outcome moved, read from the variant: "s+1e-9 x2^600" is s
    perturbed by 1e-9, then s and y scaled by 2^600."""
    variant, scale = label.split(" x2^")
    part, k = variant.split("+1e-") if "+" in variant else ("", "0")
    if (before, now) == ("IndexError", "no triple"):
        # the parent's power test passed y and its chain tops overran the
        # flag; one kernel flag reads y as no nilpotent and refuses it
        return "the kernel flag refuses where the parent crashed"
    if before in ("no triple", "IndexError") and now == "refused":
        # exit 3 either way: y is refused at unit scale before its triple is
        # tried, so the error type moves
        return "refused before the triple"
    if (command, part, scale, now) == ("translate-h2l", "s", "-600", "refused"):
        # the parent bound tol (1 + ||alpha|| ||s||) is absolute for a tiny s
        return "a tiny s"
    if (command, scale, now) == ("translate-h2l", "600", "refused"):
        # the parent bound tol (1 + ||s|| ||y||) overflows to inf, and the
        # 1e-8 check of the triple lets a 1e-9 or 1e-10 perturbation through
        return "a huge s and y"
    if now == "accepted" and int(k) in (9, 10, 11):
        # within a factor ten of the tolerances 1e-10 and 1e-9: the parent
        # also read the commutators of the exponentials to 1e-10 and, at
        # 2^600, bounds relative to ||alpha|| ||s|| and to an unscaled s + tau(s)
        return "at the tolerance"
    return "unexplained"


# every move of the sweep, by its reason
MOVES = {
    "refused before the triple": 211,
    "a tiny s": 137,
    "a huge s and y": 9,
    "at the tolerance": 21,
    "the kernel flag refuses where the parent crashed": 3,
}


def test_the_residue_check_decides_where_the_parent_checks_did(monkeypatch):
    rows = _sweep(monkeypatch)
    assert Counter(r[0] for r in rows) == {"translate-h2l": 1386, "verify-model": 825}
    # the commuting draws pass at every scale, at the parent and now
    assert {r[4:] for r in rows if r[3].startswith("commuting")} == {("accepted", "accepted")}
    moves = Counter(_move(command, label, before, now) for command, _, _, label, before, now in rows if before != now)
    assert moves == MOVES


def test_not_single_valued_is_a_commutation_failure_in_both_modules():
    assert issubclass(NotSingleValued, CommutationFailure)
    assert modelmetric.NotSingleValued is NotSingleValued
