"""Finite-dimensional model spaces for monomial and Blaschke inner functions.

A model space is the orthogonal complement of alpha*H^2 inside H^2.  For
alpha = z^N the space is spanned exactly by 1, z, ..., z^{N-1}; for a finite
Blaschke product with distinct zeros we use the Takenaka-Malmquist basis,
stored as Taylor coefficient arrays truncated at a certified order.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from math import factorial, perm

import numpy as np

from .laurent import LaurentPoly

# Exact-backend comparisons; Blaschke-backend comparisons are 1e-8 throughout.
EXACT_TOL = 1e-12
BLASCHKE_TOL = 1e-8
GRAM_TOL = 1e-10
TAIL_BOUND_LIMIT = 1e-12
ZERO_SEPARATION = 1e-10
CIRCLE_GRID = 64


class TruncationError(Exception):
    """Raised when a requested truncation order cannot certify the tail."""


@dataclass(frozen=True)
class InnerFunction:
    """Either z^N or a finite Blaschke product with distinct zeros in the disk."""

    kind: str  # "monomial" | "blaschke"
    degree: int
    zeros: tuple = ()
    constant: complex = 1.0 + 0j

    @classmethod
    def monomial(cls, degree: int) -> "InnerFunction":
        degree = int(degree)
        if degree < 1:
            raise ValueError(f"monomial degree must be >= 1, got {degree}")
        return cls(kind="monomial", degree=degree)

    @classmethod
    def blaschke(cls, zeros, constant: complex = 1.0) -> "InnerFunction":
        zeros = tuple(complex(w) for w in zeros)
        if not zeros:
            raise ValueError("Blaschke product needs at least one zero")
        for w in zeros:
            if not abs(w) < 1.0:  # also rejects NaN
                raise ValueError(f"Blaschke zero {w} is not inside the open disk")
        for i, w in enumerate(zeros):
            for v in zeros[i + 1 :]:
                if abs(w - v) < ZERO_SEPARATION:
                    raise ValueError(f"Blaschke zeros {w} and {v} are not separated")
        constant = complex(constant)
        if not abs(abs(constant) - 1.0) <= 1e-8:
            raise ValueError(f"Blaschke constant must be unimodular, got |c|={abs(constant)}")
        constant /= abs(constant)
        inner = cls(kind="blaschke", degree=len(zeros), zeros=zeros, constant=constant)
        inner._check_unimodular_on_circle()
        return inner

    def _check_unimodular_on_circle(self):
        for z in circle_grid():
            if abs(abs(self.evaluate(z)) - 1.0) > BLASCHKE_TOL:
                raise ValueError("inner function is not unimodular on the circle")

    @property
    def dim(self) -> int:
        """Dimension of the attached model space."""
        return self.degree

    def evaluate(self, z: complex) -> complex:
        if self.kind == "monomial":
            return z**self.degree
        val = self.constant
        for w in self.zeros:
            val *= (z - w) / (1.0 - w.conjugate() * z)
        return val

    def to_laurent(self, order: int) -> LaurentPoly:
        """Taylor expansion up to the given order."""
        return LaurentPoly.from_array(_taylor(self, order))

    def stretched(self, k: int) -> "InnerFunction":
        """The inner function z -> alpha(z^k)."""
        k = int(k)
        if k < 1:
            raise ValueError(f"order must be >= 1, got {k}")
        if self.kind == "monomial":
            return InnerFunction.monomial(k * self.degree)
        roots = []
        for w in self.zeros:
            if abs(w) < ZERO_SEPARATION:
                raise ValueError(
                    "cannot stretch a Blaschke product with a zero at the origin "
                    "(the result would have a repeated zero)"
                )
            r = abs(w) ** (1.0 / k)
            theta = cmath.phase(w)
            roots.extend(r * cmath.exp(1j * (theta + 2 * math.pi * j) / k) for j in range(k))
        return InnerFunction.blaschke(roots, self.constant)

    def backend_tol(self) -> float:
        return EXACT_TOL if self.kind == "monomial" else BLASCHKE_TOL

    def to_json(self) -> dict:
        if self.kind == "monomial":
            return {"type": "monomial", "degree": self.degree}
        return {
            "type": "blaschke",
            "zeros": [{"re": w.real, "im": w.imag} for w in self.zeros],
            "constant": {"re": self.constant.real, "im": self.constant.imag},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "InnerFunction":
        if not isinstance(obj, dict) or "type" not in obj:
            raise ValueError("expected an object with a 'type' field")
        if obj["type"] == "monomial":
            return cls.monomial(obj["degree"])
        if obj["type"] == "blaschke":
            zeros = [complex(float(w["re"]), float(w.get("im", 0.0))) for w in obj["zeros"]]
            c = obj.get("constant", {"re": 1.0, "im": 0.0})
            return cls.blaschke(zeros, complex(float(c["re"]), float(c.get("im", 0.0))))
        raise ValueError(f"unknown inner function type {obj['type']!r}")

    @classmethod
    def parse(cls, text: str) -> "InnerFunction":
        """Accept the inline shorthand 'z^N' or a JSON object string."""
        text = text.strip()
        if text.startswith("z^"):
            return cls.monomial(int(text[2:]))
        if text == "z":
            return cls.monomial(1)
        import json

        return cls.from_json(json.loads(text))


def circle_grid(count: int = CIRCLE_GRID):
    return [cmath.exp(2j * math.pi * t / count) for t in range(count)]


def default_truncation(inner: InnerFunction) -> int:
    if inner.kind == "monomial":
        return inner.degree
    rho = max(abs(w) for w in inner.zeros)
    t = 1
    while rho ** (t + 1) / (1.0 - rho) > TAIL_BOUND_LIMIT:
        t += 1
    return max(64, t)


def coeff_json(coords: np.ndarray) -> dict:
    return {"coords": [[z.real, z.imag] for z in np.asarray(coords, dtype=complex)]}


def _compress(phi: np.ndarray, lo: int, src: np.ndarray, k: int, dst: np.ndarray) -> np.ndarray:
    """Entries <W_k(phi src_j), dst_i>: the matrix of f -> P W_k(phi f) from
    the span of the src rows into that of the orthonormal dst rows.

    phi holds the coefficients of frequencies lo, lo + 1, ...; the rows hold
    Taylor coefficients from frequency 0.
    """
    prod = np.array([np.convolve(phi, row) for row in src])  # frequencies lo, lo + 1, ...
    idx = k * np.arange(dst.shape[1]) - lo
    keep = (idx >= 0) & (idx < prod.shape[1])
    return dst[:, keep].conj() @ prod[:, idx[keep]].T


_ONE = np.ones(1, dtype=complex)


class ModelSpaceBasis:
    """Orthonormal basis of a model space, stored as a dim x (T + 1) array of
    Taylor coefficients: the identity rows for z^N, the Takenaka-Malmquist
    rows truncated at a certified order T for a Blaschke product.
    """

    def __init__(self, inner: InnerFunction, rows: np.ndarray, truncation_order: int, tail_bound: float):
        rows.setflags(write=False)
        self.inner = inner
        self.rows = rows
        self.truncation_order = truncation_order
        self.tail_bound = tail_bound
        gram = _compress(_ONE, 0, rows, 1, rows)
        self.gram_error = float(np.abs(gram - np.eye(self.dim)).max())
        if self.gram_error > GRAM_TOL:
            raise TruncationError(f"basis Gram matrix deviates from identity by {self.gram_error:.3e}")
        # C f = alpha * conj(z f) pairs alpha_{n+m+1} with rows n and m, so the
        # expansion runs to twice the row length.
        cols = rows.shape[1]
        self._alpha = _taylor(inner, 2 * cols)
        self._alpha.setflags(write=False)
        # z^(cols - 1) conj(f) is the reversed conjugate row, so multiplying it
        # by alpha z^-cols gives alpha * conj(z f).
        self._conjugation = _compress(self._alpha, -cols, rows[:, ::-1].conj(), 1, rows)
        self._conjugation.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.rows.shape[0]

    @property
    def vectors(self) -> list:
        """The basis vectors as LaurentPoly expansions."""
        return [LaurentPoly.from_array(row) for row in self.rows]

    @classmethod
    def build(cls, inner: InnerFunction, truncation: int | None = None) -> "ModelSpaceBasis":
        if inner.kind == "monomial":
            return cls(inner, np.eye(inner.degree, dtype=complex), inner.degree, 0.0)
        truncation = default_truncation(inner) if truncation is None else int(truncation)
        rho = max(abs(w) for w in inner.zeros)
        tail = rho ** (truncation + 1) / (1.0 - rho)
        if tail > TAIL_BOUND_LIMIT:
            raise TruncationError(
                f"truncation order {truncation} leaves tail bound {tail:.3e} "
                f"above {TAIL_BOUND_LIMIT:.0e}"
            )
        return cls(inner, _takenaka_malmquist(inner.zeros, truncation), truncation, tail)

    def alpha_expansion(self) -> LaurentPoly:
        """Expansion of the inner function itself, long enough for projections."""
        return LaurentPoly.from_array(self._alpha)

    # -- core maps ---------------------------------------------------------

    def project(self, f: LaurentPoly) -> np.ndarray:
        """Coordinates of the orthogonal projection of f onto the model space."""
        return self.rows.conj() @ f.to_array(0, self.rows.shape[1] - 1)

    def reconstruct(self, coords) -> LaurentPoly:
        return LaurentPoly.from_array(np.asarray(coords, dtype=complex) @ self.rows)

    def kernel(self, w: complex, n: int = 0) -> np.ndarray:
        """Coordinates of the kernel representing f -> f^(n)(w)."""
        w = complex(w)
        if abs(w) >= 1.0:
            raise ValueError(f"kernel point {w} must lie in the open disk")
        if n < 0:
            raise ValueError("derivative order must be nonnegative")
        cols = self.rows.shape[1]
        if n >= cols:
            return np.zeros(self.dim, dtype=complex)
        if w == 0:
            return factorial(n) * self.rows[:, n].conj()
        weights = np.array([perm(m, n) * w ** (m - n) for m in range(n, cols)])
        return (self.rows[:, n:] @ weights).conj()

    def conjugate_vector(self, coords) -> np.ndarray:
        """The antilinear involution f -> alpha * conj(z f) in coordinates."""
        return self._conjugation @ np.asarray(coords, dtype=complex).conj()

    def conjugation_matrix(self) -> np.ndarray:
        """Matrix C with coords(C f) = C @ conj(coords(f))."""
        return self._conjugation

    def compressed_shift(self) -> tuple[np.ndarray, np.ndarray]:
        """Matrix of the compression of multiplication by z, and its adjoint."""
        mat = _compress(_ONE, 1, self.rows, 1, self.rows)
        return mat, mat.conj().T

    def backend_tol(self) -> float:
        return self.inner.backend_tol()


def _circle_factors(zeros, order: int):
    """1 - conj(w) z and the Blaschke factor (z - w) / (1 - conj(w) z), one row
    per zero, sampled at the M-th roots of unity z, M the smallest power of two
    >= 2 (order + 1).

    The FFT of M samples folds every coefficient n >= M onto n mod M; with all
    zeros in |w| <= rho the folded tail is below rho^M / (1 - rho).
    """
    m = 1 << (2 * order + 1).bit_length()
    z = np.exp(2j * np.pi * np.arange(m) / m)
    w = np.asarray(zeros, dtype=complex)[:, None]
    denom = 1.0 - w.conj() * z
    return denom, (z - w) / denom


def _coefficients(samples: np.ndarray, order: int) -> np.ndarray:
    """Taylor coefficients 0..order from samples at the roots of unity (last axis)."""
    return np.fft.fft(samples, axis=-1)[..., : order + 1] / samples.shape[-1]


def _taylor(inner: InnerFunction, order: int) -> np.ndarray:
    """Taylor coefficients 0..order of the inner function."""
    if inner.kind == "monomial":
        out = np.zeros(order + 1, dtype=complex)
        if inner.degree <= order:
            out[inner.degree] = 1.0
        return out
    factors = _circle_factors(inner.zeros, order)[1]
    return _coefficients(inner.constant * factors.prod(axis=0), order)


def _takenaka_malmquist(zeros, order: int) -> np.ndarray:
    """Orthonormal rational basis for distinct zeros, in zero-list order: row j
    is sqrt(1 - |w_j|^2) / (1 - conj(w_j) z) times the factors of the zeros before it."""
    denom, factors = _circle_factors(zeros, order)
    carried = np.cumprod(np.vstack([np.ones_like(factors[:1]), factors[:-1]]), axis=0)
    scale = np.sqrt([[1.0 - abs(w) ** 2] for w in zeros])
    return _coefficients(scale * carried / denom, order)


__all__ = [
    "InnerFunction",
    "ModelSpaceBasis",
    "TruncationError",
    "default_truncation",
    "circle_grid",
    "coeff_json",
    "EXACT_TOL",
    "BLASCHKE_TOL",
]
