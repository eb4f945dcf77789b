"""Finitely supported Laurent series on the unit circle: the symbol type at
the library's boundary and in its JSON.

Frequencies are integers, coefficients are complex doubles.  The symbol
routines compute on dense coefficient arrays and build one LaurentPoly at
return; this type only converts, adds and serialises.
"""

from __future__ import annotations

import re
from math import inf
from numbers import Integral, Real

import numpy as np

# Coefficients below this modulus are dropped after every operation so that
# supports stay finite and equality checks stay stable.
COEFF_DROP = 1e-14
# Most complex coefficients a numpy array can hold: its byte size is an intp.
MAX_WINDOW = np.iinfo(np.intp).max // 16


def strict_int(value, name: str) -> int:
    """value as an int; bool, float and string are refused, so JSON 1.5,
    true and 1e400 are input errors rather than z^1 or an overflow."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def strict_real(value, name: str) -> float:
    """value as a float; bool and string are refused, so JSON true and "1.5"
    are input errors rather than 1.0 and 1.5."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def ascii_int(text: str) -> int:
    """An integer written as an optional '-' and ASCII digits; int() would
    also read '1_0' as 10 and other scripts' digits."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"expected an integer in ASCII digits, got {text!r}")
    return int(text)


def ascii_real(text: str) -> float:
    """A real number written as an optional '-', ASCII digits with an optional
    point and exponent, or nan or inf, which the caller's range check refuses;
    float() would also read '1_0e-9' as 1e-8 and other scripts' digits."""
    if not re.fullmatch(r"-?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?|-?(nan|inf)", text, re.IGNORECASE):
        raise ValueError(f"expected a real number in ASCII digits, got {text!r}")
    return float(text)


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
        One finiteness check, then one numpy pass that drops moduli <=
        COEFF_DROP; only the kept indices become frequencies, in Python ints,
        since step may pass int64."""
        coeffs = np.asarray(coeffs, dtype=complex)
        if not np.isfinite(coeffs).all():
            raise ValueError("coefficients must be finite")
        # The modulus as abs(complex) rounds it, through the C library's
        # hypot: np.abs rounds a third of all moduli an ulp apart.
        kept = np.hypot(coeffs.real, coeffs.imag) > COEFF_DROP
        lo = int(lo)
        if coeffs.ndim == 1:
            freqs = [lo + t for t in np.flatnonzero(kept).tolist()]
        else:
            rows, cols = np.nonzero(kept)
            freqs = [lo + step * r + t for r, t in zip(rows.tolist(), cols.tolist())]
        out = cls.__new__(cls)
        out._coeffs = dict(zip(freqs, coeffs[kept].tolist()))
        return out

    def to_array(self, lo: int, hi: int) -> np.ndarray:
        """Dense coefficients of frequencies lo..hi; the rest is dropped.  A
        window past numpy's address space is a MemoryError, as a failed
        allocation is."""
        if hi - lo + 1 > MAX_WINDOW:
            raise MemoryError(f"a window of {hi - lo + 1} coefficients is past the address space")
        out = np.zeros(hi - lo + 1, dtype=complex)
        for n, c in self._coeffs.items():
            if lo <= n <= hi:
                out[n - lo] = c
        return out

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

    def norm(self) -> float:
        return sum(abs(c) ** 2 for c in self._coeffs.values()) ** 0.5

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
            coeffs[n] = complex(strict_real(entry["re"], "'re'"), strict_real(entry.get("im", 0.0), "'im'"))
        return cls(coeffs)

    def __repr__(self) -> str:
        if not self._coeffs:
            return "LaurentPoly(0)"
        terms = ", ".join(f"{n}: {c:.4g}" for n, c in sorted(self._coeffs.items()))
        return f"LaurentPoly({{{terms}}})"

