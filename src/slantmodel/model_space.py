"""Finite-dimensional model spaces: the orthogonal complement of alpha*H^2
inside H^2 for a finite Blaschke product alpha, whose zeros may repeat (z^N is
N zeros at the origin).  A basis is the Takenaka-Malmquist rows, stored as
Taylor coefficient arrays truncated at a certified order; when every zero is
at the origin they are exactly 1, z, ..., z^{N-1}.
"""

from __future__ import annotations

import cmath
import json
import math
from collections import Counter
from dataclasses import dataclass
from math import factorial, perm
from numbers import Integral

import numpy as np

from .laurent import LaurentPoly

# Comparisons on exact bases (every zero at the origin), and on truncated ones.
EXACT_TOL = 1e-12
BLASCHKE_TOL = 1e-8
GRAM_TOL = 1e-10
TAIL_BOUND_LIMIT = 1e-12
# Largest truncation order T.  It admits a simple zero up to |w| = 0.99996;
# a basis row then takes 2^22 circle samples (64 MB).
MAX_TRUNCATION = 1 << 20


class TruncationError(Exception):
    """Raised when a truncation order is out of range or cannot certify the tail."""


def _complex(value) -> complex:
    """A JSON number or {"re": ..., "im": ...} object as a complex number."""
    if isinstance(value, dict):
        return complex(float(value["re"]), float(value.get("im", 0.0)))
    return complex(float(value))


@dataclass(frozen=True)
class InnerFunction:
    """The finite Blaschke product c prod_j (z - w_j) / (1 - conj(w_j) z),
    |c| = 1, every |w_j| < 1, zeros repeated by multiplicity."""

    zeros: tuple
    constant: complex = 1.0 + 0j

    @classmethod
    def monomial(cls, degree: int) -> "InnerFunction":
        """z^degree: degree zeros at the origin."""
        if isinstance(degree, bool) or not isinstance(degree, Integral) or degree < 1:
            raise ValueError(f"monomial degree must be an integer >= 1, got {degree!r}")
        return cls((0j,) * (_checked(int(degree) - 1) + 1))

    @classmethod
    def blaschke(cls, zeros, constant: complex = 1.0) -> "InnerFunction":
        zeros = tuple(complex(w) for w in zeros)
        if not zeros:
            raise ValueError("Blaschke product needs at least one zero")
        for w in zeros:
            if not abs(w) < 1.0:  # also rejects NaN
                raise ValueError(f"Blaschke zero {w} is not inside the open disk")
        constant = complex(constant)
        if not abs(abs(constant) - 1.0) <= 1e-8:
            raise ValueError(f"Blaschke constant must be unimodular, got |c|={abs(constant)}")
        return cls(zeros, constant / abs(constant))

    @property
    def degree(self) -> int:
        """Number of zeros with multiplicity: the dimension of the model space."""
        return len(self.zeros)

    @property
    def kind(self) -> str:
        """'monomial' for z^N (every zero at the origin and c = 1), else 'blaschke'."""
        return "blaschke" if any(self.zeros) or self.constant != 1 else "monomial"

    def evaluate(self, z: complex) -> complex:
        # The zeros at the origin give c z^d, so z^N is evaluated exactly.
        val = self.constant * z ** self.zeros.count(0)
        for w in filter(None, self.zeros):
            val *= (z - w) / (1.0 - w.conjugate() * z)
        return val

    def stretched(self, k: int) -> "InnerFunction":
        """The inner function z -> alpha(z^k): each zero w becomes the k k-th roots of w."""
        k = int(k)
        if k < 1:
            raise ValueError(f"order must be >= 1, got {k}")
        roots = []
        for w in self.zeros:
            r = abs(w) ** (1.0 / k)
            theta = cmath.phase(w)
            roots.extend(r * cmath.exp(1j * (theta + 2 * math.pi * j) / k) for j in range(k))
        return InnerFunction.blaschke(roots, self.constant)

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
        """{"type": "monomial", "degree": N}, or {"zeros": [...], "constant": c}
        with numbers or {"re", "im"} objects, c optional, "type" "blaschke" optional."""
        if not isinstance(obj, dict):
            raise ValueError("expected an inner-function object")
        spelling = obj.get("type", "blaschke")
        if spelling == "monomial":
            return cls.monomial(obj["degree"])
        if spelling != "blaschke":
            raise ValueError(f"unknown inner function type {spelling!r}")
        return cls.blaschke([_complex(w) for w in obj["zeros"]], _complex(obj.get("constant", 1.0)))

    @classmethod
    def parse(cls, text: str) -> "InnerFunction":
        """Accept the inline shorthand 'z^N' or a JSON object string."""
        text = text.strip()
        if text.startswith("z^"):
            return cls.monomial(int(text[2:]))
        if text == "z":
            return cls.monomial(1)
        return cls.from_json(json.loads(text))


def circle_grid(count: int = 64):
    return [cmath.exp(2j * math.pi * t / count) for t in range(count)]


def _checked(order: int) -> int:
    if not 0 <= order <= MAX_TRUNCATION:
        raise TruncationError(f"truncation order {order} is outside 0..{MAX_TRUNCATION}")
    return order


def default_truncation(inner: InnerFunction) -> int:
    """The smallest T >= 64 with rho^(T+1) / (1 - rho) <= 1e-12, plus one per
    zero at the origin, rho the largest |w|^(1/m) over zeros w of multiplicity
    m: the root stretches T over the n^(m-1) |w|^n growth of a repeated zero.
    With every zero at the origin T = N - 1 holds the rows exactly."""
    multiplicity = Counter(inner.zeros)
    rho = max(abs(w) ** (1.0 / m) for w, m in multiplicity.items())
    if rho == 0:
        return _checked(inner.degree - 1)
    t = math.ceil(math.log(TAIL_BOUND_LIMIT * (1.0 - rho)) / math.log(rho)) - 1
    return _checked(max(64, t + multiplicity[0]))


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
    Taylor coefficients: the Takenaka-Malmquist rows truncated at a certified
    order T, or the identity rows when every zero is at the origin.
    """

    def __init__(self, inner: InnerFunction, rows: np.ndarray, mirror: np.ndarray, tail_bound: float):
        rows.setflags(write=False)
        self.inner = inner
        self.rows = rows
        self.tail_bound = tail_bound
        self._alpha = None
        gram = _compress(_ONE, 0, rows, 1, rows)
        self.gram_error = float(np.abs(gram - np.eye(self.dim)).max())
        if self.gram_error > GRAM_TOL:
            raise TruncationError(f"basis Gram matrix deviates from identity by {self.gram_error:.3e}")
        # C e_j = c * mirror_j (see build), so C is a Gram matrix of the two row sets.
        self._conjugation = inner.constant * rows.conj() @ mirror.T
        self._conjugation.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.rows.shape[0]

    @property
    def truncation_order(self) -> int:
        return self.rows.shape[1] - 1

    @property
    def vectors(self) -> list:
        """The basis vectors as LaurentPoly expansions."""
        return [LaurentPoly.from_array(row) for row in self.rows]

    @classmethod
    def build(cls, inner: InnerFunction, truncation: int | None = None) -> "ModelSpaceBasis":
        """The basis and its mirror rows: alpha * conj(z e_j) = c sqrt(1 - |w_j|^2)
        / (1 - conj(w_j) z) * prod_{i>j} b_i on the circle, the Takenaka-Malmquist
        row of the reversed zero list, read backwards (z^(N-1-j) for z^N).

        The tail certificate is the largest l2 norm over the rows of the FFT
        coefficients T+1..M-1 they drop.  Orders outside 0..MAX_TRUNCATION are
        refused before anything is sampled."""
        order = default_truncation(inner) if truncation is None else _checked(int(truncation))
        if not any(inner.zeros):
            eye = np.eye(inner.degree, dtype=complex)
            return cls(inner, eye, eye[::-1], 0.0)
        rows, tail = _takenaka_malmquist(inner.zeros, order)
        if tail > TAIL_BOUND_LIMIT:
            raise TruncationError(
                f"truncation order {order} leaves a tail of {tail:.3e} above {TAIL_BOUND_LIMIT:.0e}"
            )
        mirror = _takenaka_malmquist(inner.zeros[::-1], order)[0][::-1]
        return cls(inner, rows, mirror, tail)

    def alpha_expansion(self) -> LaurentPoly:
        """Expansion of the inner function itself, to twice the row length;
        computed on the first call."""
        if self._alpha is None:
            self._alpha = LaurentPoly.from_array(_taylor(self.inner, 2 * self.rows.shape[1]))
        return self._alpha

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


def _circle_factors(zeros, order: int):
    """1 - conj(w) z and the Blaschke factor (z - w) / (1 - conj(w) z), one row
    per zero, sampled at the M-th roots of unity z, M the smallest power of two
    >= 2 (order + 1).

    The FFT of M samples folds every coefficient n >= M onto n mod M.  For
    decaying coefficients that folded tail past M - 1 is below the tail over
    order+1..M-1, which `ModelSpaceBasis.build` measures and bounds.
    """
    m = 1 << (2 * order + 1).bit_length()
    z = np.exp(2j * np.pi * np.arange(m) / m)
    w = np.asarray(zeros, dtype=complex)[:, None]
    denom = 1.0 - w.conj() * z
    return denom, (z - w) / denom


def _coefficients(samples: np.ndarray) -> np.ndarray:
    """Taylor coefficients 0..M-1 from M samples at the roots of unity (last axis)."""
    return np.fft.fft(samples, axis=-1) / samples.shape[-1]


def _taylor(inner: InnerFunction, order: int) -> np.ndarray:
    """Taylor coefficients 0..order of the inner function: c z^d times the
    factors of the other zeros, d the number of zeros at the origin."""
    d = inner.zeros.count(0)
    out = np.zeros(order + 1, dtype=complex)
    if d <= order:
        factors = _circle_factors([w for w in inner.zeros if w], order - d)[1]
        out[d:] = _coefficients(inner.constant * factors.prod(axis=0))[: order + 1 - d]
    return out


def _takenaka_malmquist(zeros, order: int) -> tuple[np.ndarray, float]:
    """Orthonormal rational basis in zero-list order, repeats allowed: row j
    is sqrt(1 - |w_j|^2) / (1 - conj(w_j) z) times the factors of the zeros
    before it.  Returns the coefficients 0..order of the rows, and the largest
    l2 norm over the rows of the coefficients order+1..M-1 they drop."""
    denom, factors = _circle_factors(zeros, order)
    carried = np.cumprod(np.vstack([np.ones_like(factors[:1]), factors[:-1]]), axis=0)
    scale = np.sqrt([[1.0 - abs(w) ** 2] for w in zeros])
    coeffs = _coefficients(scale * carried / denom)
    return coeffs[:, : order + 1], float(np.linalg.norm(coeffs[:, order + 1 :], axis=1).max())


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
