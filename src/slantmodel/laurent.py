"""Finitely supported Laurent series on the unit circle.

Frequencies are integers, coefficients are complex doubles.  All operations
return new objects; nothing is mutated in place.
"""

from __future__ import annotations

from math import inf, perm
from numbers import Integral

import numpy as np

# Coefficients below this modulus are dropped after every operation so that
# supports stay finite and equality checks stay stable.
COEFF_DROP = 1e-14


def strict_int(value, name: str) -> int:
    """value as an int; bool, float and string are refused, so JSON 1.5,
    true and 1e400 are input errors rather than z^1 or an overflow."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


class LaurentPoly:
    """A finite frequency -> coefficient map, f(z) = sum a_n z^n on |z| = 1."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for n, c in coeffs.items():
                c = complex(c)
                a = abs(c)
                if not a <= COEFF_DROP:  # kept, and NaN lands here too
                    if not a < inf:
                        raise ValueError(f"coefficient of z^{n} is not finite: {c}")
                    clean[int(n)] = c
        self._coeffs = clean

    @classmethod
    def from_array(cls, coeffs, lo: int = 0, step: int | None = None) -> "LaurentPoly":
        """The polynomial with coefficients of frequencies lo, lo + 1, ...; a
        2-D array holds rows no longer than `step`, row n from lo + step n.
        One finiteness check, then one pass that drops moduli <= COEFF_DROP."""
        coeffs = np.asarray(coeffs, dtype=complex)
        if not np.isfinite(coeffs).all():
            raise ValueError("coefficients must be finite")
        out = cls.__new__(cls)
        lo = int(lo)
        if coeffs.ndim == 1:
            out._coeffs = {n: c for n, c in enumerate(coeffs.tolist(), lo) if abs(c) > COEFF_DROP}
        else:
            out._coeffs = {
                n: c
                for r, row in enumerate(coeffs.tolist())
                for n, c in enumerate(row, lo + step * r)
                if abs(c) > COEFF_DROP
            }
        return out

    def to_array(self, lo: int, hi: int) -> np.ndarray:
        """Dense coefficients of frequencies lo..hi; the rest is dropped."""
        out = np.zeros(hi - lo + 1, dtype=complex)
        for n, c in self._coeffs.items():
            if lo <= n <= hi:
                out[n - lo] = c
        return out

    @classmethod
    def monomial(cls, n: int, c: complex = 1.0) -> "LaurentPoly":
        return cls({n: c})

    @classmethod
    def constant(cls, c: complex) -> "LaurentPoly":
        return cls({0: c})

    def coeff(self, n: int) -> complex:
        return self._coeffs.get(n, 0j)

    @property
    def support(self) -> list[int]:
        return sorted(self._coeffs)

    def items(self):
        return self._coeffs.items()

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_analytic(self) -> bool:
        """True when no negative frequency carries a coefficient."""
        return all(n >= 0 for n in self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __len__(self) -> int:
        return len(self._coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    __hash__ = None

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self._coeffs)
        for n, c in other._coeffs.items():
            out[n] = out.get(n, 0j) + c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({n: -c for n, c in self._coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return LaurentPoly({n: other * c for n, c in self._coeffs.items()})
        out: dict[int, complex] = {}
        for n, a in self._coeffs.items():
            for m, b in other._coeffs.items():
                k = n + m
                out[k] = out.get(k, 0j) + a * b
        return LaurentPoly(out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def shifted(self, m: int) -> "LaurentPoly":
        """Multiply by z^m."""
        return LaurentPoly({n + m: c for n, c in self._coeffs.items()})

    def inner(self, other: "LaurentPoly") -> complex:
        """L2 pairing sum_n a_n conj(b_n)."""
        if len(other._coeffs) < len(self._coeffs):
            return complex(other.inner(self)).conjugate()
        return sum(
            (a * other._coeffs[n].conjugate() for n, a in self._coeffs.items() if n in other._coeffs),
            0j,
        )

    def norm(self) -> float:
        return sum(abs(c) ** 2 for c in self._coeffs.values()) ** 0.5

    def distance(self, other: "LaurentPoly") -> float:
        return (self - other).norm()

    def evaluate(self, z: complex) -> complex:
        if any(n < 0 for n in self._coeffs) and z == 0:
            raise ZeroDivisionError("negative frequencies cannot be evaluated at 0")
        return sum((c * z**n for n, c in self._coeffs.items()), 0j)

    def derivative_at(self, w: complex, order: int = 0) -> complex:
        """Value of the order-th derivative at w; input must be analytic."""
        if not self.is_analytic():
            raise ValueError("derivative_at requires an analytic polynomial")
        total = 0j
        for n, c in self._coeffs.items():
            if n < order:
                continue
            total += c * perm(n, order) * w ** (n - order)
        return total

    def to_json(self) -> dict:
        return {
            "coeffs": [
                {"n": n, "re": c.real, "im": c.imag} for n, c in sorted(self._coeffs.items())
            ]
        }

    @classmethod
    def from_json(cls, obj: dict) -> "LaurentPoly":
        if not isinstance(obj, dict) or "coeffs" not in obj:
            raise ValueError("expected an object with a 'coeffs' list")
        coeffs: dict[int, complex] = {}
        for entry in obj["coeffs"]:
            n = strict_int(entry["n"], "frequency 'n'")
            if n in coeffs:
                raise ValueError(f"duplicate frequency {n} in coefficient list")
            coeffs[n] = complex(float(entry["re"]), float(entry.get("im", 0.0)))
        return cls(coeffs)

    def __repr__(self) -> str:
        if not self._coeffs:
            return "LaurentPoly(0)"
        terms = ", ".join(f"{n}: {c:.4g}" for n, c in sorted(self._coeffs.items()))
        return f"LaurentPoly({{{terms}}})"


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
    if not p.is_analytic():
        raise ValueError("backward shift is defined on analytic input only")
    return LaurentPoly({n - k: c for n, c in p.items() if n >= k})


def random_laurent(rng, lo: int = -8, hi: int = 8, terms: int = 8) -> LaurentPoly:
    """Seeded random symbol: ~terms Gaussian coefficients in [lo, hi]."""
    freqs = rng.choice(range(lo, hi + 1), size=min(terms, hi - lo + 1), replace=False)
    return LaurentPoly(
        {int(n): complex(rng.standard_normal(), rng.standard_normal()) for n in freqs}
    )
