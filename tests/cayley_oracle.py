"""The triple-level Kostant-Sekiguchi map, kept as a test oracle.

A ks_real triple (x, e, f) lies in the real form with theta(e) = -f; the
Cayley transform carries it to the ks_normal triple (H, X, Y) with H in h^C,
X, Y in m^C and Y = sigma(X).  ``ks-orbit`` reads its certificate from e
itself, and ``tests/test_ks_certificate.py`` checks it against the y this map
produces.  Nothing in the library builds a ks_real triple.
"""
from __future__ import annotations

from parhodge.liealg import NotInModel, Realization, SL2Triple, hs_norm, validate_triple


def validate_ks_real(real: Realization, t: SL2Triple, tol: float = 1e-8) -> None:
    """Raise NotInModel unless t is an sl2-triple in the real form with theta(e) = -f."""
    validate_triple(real, SL2Triple(t.x, t.e, t.f), tol)
    scale = 1 + hs_norm(t.x) + hs_norm(t.e) + hs_norm(t.f)
    if not (real.in_g(t.x, tol) and real.in_g(t.e, tol) and real.in_g(t.f, tol)):
        raise NotInModel("ks_real triple must lie in the real form")
    if hs_norm(real.theta(t.e) + t.f) > tol * scale:
        raise NotInModel("ks_real needs theta(e) = -f")


def cayley_transform(real: Realization, t: SL2Triple, tol: float = 1e-8) -> SL2Triple:
    """ks_real -> ks_normal: (x,e,f) |-> (H,X,Y) = (i(e-f), (e+f+ix)/2, (e+f-ix)/2)."""
    if t.flavor != "ks_real":
        raise NotInModel("cayley_transform expects a ks_real triple")
    validate_ks_real(real, t, tol)
    h = 1j * (t.e - t.f)
    x_new = (t.e + t.f + 1j * t.x) / 2
    y_new = (t.e + t.f - 1j * t.x) / 2
    out = SL2Triple(x=h, e=x_new, f=y_new, flavor="ks_normal")
    validate_triple(real, out, max(tol, 1e-8))
    return out


def inverse_cayley_transform(real: Realization, t: SL2Triple, tol: float = 1e-8) -> SL2Triple:
    """ks_normal -> ks_real: (H,X,Y) |-> ((X+Y-iH)/2, (X+Y+iH)/2 swapped into (x,e,f))."""
    if t.flavor != "ks_normal":
        raise NotInModel("inverse_cayley_transform expects a ks_normal triple")
    validate_triple(real, t, tol)
    h, x_big, y_big = t.x, t.e, t.f
    e = (x_big + y_big - 1j * h) / 2
    f = (x_big + y_big + 1j * h) / 2
    x = -1j * (x_big - y_big)
    out = SL2Triple(x=x, e=e, f=f, flavor="ks_real")
    validate_ks_real(real, out, max(tol, 1e-8))
    return out
