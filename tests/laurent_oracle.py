"""The dict-based Laurent algebra, kept as the reference the array routines
are tested against.

The library computes the decimation calculus on coefficient arrays only:
`_compress` for W_k, `_place` for f -> f(z^k), `_times_stretched` for
q e(z^s) and a reversed conjugate array for conjugation on the circle.  These
functions compute the same maps term by term on a LaurentPoly's frequency ->
coefficient map, with nothing shared with those routines but the type.  The
former LaurentPoly methods take the polynomial as their first argument, and
so do the projection onto a basis's model space and its inverse, which read
the rows alone.
"""

from __future__ import annotations

from math import perm

import numpy as np

from slantmodel.laurent import LaurentPoly


def monomial(n: int, c: complex = 1.0) -> LaurentPoly:
    return LaurentPoly({n: c})


def is_zero(p: LaurentPoly) -> bool:
    return not p


def is_analytic(p: LaurentPoly) -> bool:
    """True when no negative frequency carries a coefficient."""
    return all(n >= 0 for n in p.support)


def neg(p: LaurentPoly) -> LaurentPoly:
    return LaurentPoly({n: -c for n, c in p.items()})


def sub(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    return p + neg(q)


def mul(p: LaurentPoly, other) -> LaurentPoly:
    """p times a scalar, or the convolution of p and another polynomial."""
    if isinstance(other, (int, float, complex)):
        return LaurentPoly({n: other * c for n, c in p.items()})
    out: dict[int, complex] = {}
    for n, a in p.items():
        for m, b in other.items():
            k = n + m
            out[k] = out.get(k, 0j) + a * b
    return LaurentPoly(out)


def shifted(p: LaurentPoly, m: int) -> LaurentPoly:
    """Multiply by z^m."""
    return LaurentPoly({n + m: c for n, c in p.items()})


def inner(p: LaurentPoly, q: LaurentPoly) -> complex:
    """L2 pairing sum_n a_n conj(b_n)."""
    if len(q) < len(p):
        return complex(inner(q, p)).conjugate()
    return sum((a * q.coeff(n).conjugate() for n, a in p.items()), 0j)


def distance(p: LaurentPoly, q: LaurentPoly) -> float:
    return sub(p, q).norm()


def evaluate(p: LaurentPoly, z: complex) -> complex:
    if any(n < 0 for n in p.support) and z == 0:
        raise ZeroDivisionError("negative frequencies cannot be evaluated at 0")
    return sum((c * z**n for n, c in p.items()), 0j)


def derivative_at(p: LaurentPoly, w: complex, order: int = 0) -> complex:
    """Value of the order-th derivative at w; input must be analytic."""
    if not is_analytic(p):
        raise ValueError("derivative_at requires an analytic polynomial")
    total = 0j
    for n, c in p.items():
        if n < order:
            continue
        total += c * perm(n, order) * w ** (n - order)
    return total


def conj_on_circle(p: LaurentPoly) -> LaurentPoly:
    """f -> conj(f) on |z| = 1, i.e. a_n -> conj(a_{-n})."""
    return LaurentPoly({-n: c.conjugate() for n, c in p.items()})


def analytic_project(p: LaurentPoly) -> LaurentPoly:
    """Drop every negative frequency; the Riesz projection onto H^2."""
    return LaurentPoly({n: c for n, c in p.items() if n >= 0})


def _check_order(k: int) -> int:
    k = int(k)
    if k < 1:
        raise ValueError(f"decimation order must be >= 1, got {k}")
    return k


def decimate(p: LaurentPoly, k: int) -> LaurentPoly:
    """Keep every k-th coefficient: z^{kn} -> z^n, the rest -> 0."""
    k = _check_order(k)
    return LaurentPoly({n // k: c for n, c in p.items() if n % k == 0})


def stretch(p: LaurentPoly, k: int) -> LaurentPoly:
    """Compose with z^k: a_n moves to frequency k*n.  Adjoint of decimate."""
    k = _check_order(k)
    return LaurentPoly({k * n: c for n, c in p.items()})


def backward_shift_pow(p: LaurentPoly, k: int) -> LaurentPoly:
    """k-fold backward shift on analytic input: a_{n+k} -> a_n, n >= 0."""
    k = _check_order(k)
    if not is_analytic(p):
        raise ValueError("backward shift is defined on analytic input only")
    return LaurentPoly({n - k: c for n, c in p.items() if n >= k})


def project(basis, f: LaurentPoly) -> np.ndarray:
    """Coordinates of the orthogonal projection of f onto the model space of a basis."""
    return basis.rows.conj() @ f.to_array(0, basis.rows.shape[1] - 1)


def reconstruct(basis, coords) -> LaurentPoly:
    """The function with these coordinates in a basis."""
    return LaurentPoly.from_array(np.asarray(coords, dtype=complex) @ basis.rows)
