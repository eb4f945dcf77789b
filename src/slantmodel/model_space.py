"""Finite-dimensional model spaces: the orthogonal complement of alpha*H^2
inside H^2 for a finite Blaschke product alpha, whose zeros may repeat (z^N is
N zeros at the origin).  A basis is the Takenaka-Malmquist rows, stored as
Taylor coefficient arrays truncated at a certified order; when every zero is
at the origin they are exactly 1, z, ..., z^{N-1}.  Column n of the rows is
E[n] = A^n B for a lossless realization (A, B, C, D) in closed form, A the
conjugate of the compressed shift S (Ninness and Gustafsson, IEEE TAC 42,
1997), whose one owner is the basis.  The conjugation f -> alpha conj(z f)
comes from the same realization, with no rows.  A build holds
the realization; the truncated rows and all that is read off them, the shift
and the conjugation are computed on first read, and the leading columns of
the rows can be read without them.  When every zero is at the origin, S, its
powers, the conjugation c J, the identity rows and the membership frame each
have at most one nonzero entry in each row and column, so each is an index
map (`_IndexMap`) that acts on coefficient arrays by slicing, with no dense
matrix; a compression gathers the symbol's terms from the identity rows.
Its readers are the compression, the recovery, the canonical symbols and
zero tests, the frames (and so `rank_one` and `assemble_defect`), a setting
with one exact side, and the harness's dense references.  Where both sides
are exact, `operators` slices the matrix itself for the defect, the
membership fit and the conjugation sandwich, and multiplies by no map.
The harness's reference kernels and alpha(z^k) are in `verify`.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from math import factorial
from typing import NamedTuple

import numpy as np

from .laurent import ascii_int, strict_int, strict_real

# Comparisons on exact bases (every zero at the origin), and on truncated ones.
EXACT_TOL = 1e-12
BLASCHKE_TOL = 1e-8
GRAM_TOL = 1e-10
TAIL_BOUND_LIMIT = 1e-12
# Largest truncation order T.  It admits a single zero up to |w| = 0.99997,
# whose rows then take 2^21 columns of A^n B.
MAX_TRUNCATION = 1 << 20
# Largest coefficient array of a build, 2^24 complex numbers (256 MB): the dense
# form of an index map of z^N (its rows, shift or conjugation), or 2 x dim x 2^S
# for the 2^(S-1) held columns of the rows and the joined rows, at most 2^S
# columns, together.
MAX_ENTRIES = 1 << 24
# Columns per block of the tail sums (1 MB per row).
TAIL_BLOCK = 1 << 16
# Largest derivative order n of a kernel or a rank-one symbol: 171! overflows a double.
MAX_DERIVATIVE_ORDER = 170
# Largest band of _banded, and largest block of windows per product or of
# rows per FFT group, in complex numbers (1 MB, 4 MB).
BAND_ENTRIES = 1 << 16
WINDOW_ENTRIES = 1 << 18
# Cost of an FFT per N log2 N, in products of _banded's GEMMs: fitted on 320
# shapes against both kernels (2-vCPU VM, one BLAS thread).
FFT_COST = 4


class TruncationError(Exception):
    """Raised when a truncation order is out of range or cannot certify the tail."""


def _complex(value) -> complex:
    """A JSON number or {"re": ..., "im": ...} object as a complex number."""
    if isinstance(value, dict):
        return complex(strict_real(value["re"], "'re'"), strict_real(value.get("im", 0.0), "'im'"))
    return complex(strict_real(value, "a zero or constant"))


@dataclass(frozen=True)
class InnerFunction:
    """The finite Blaschke product c prod_j (z - w_j) / (1 - conj(w_j) z),
    |c| = 1, every |w_j| < 1, zeros repeated by multiplicity."""

    zeros: tuple
    constant: complex = 1.0 + 0j

    @classmethod
    def monomial(cls, degree: int) -> "InnerFunction":
        """z^degree: degree zeros at the origin."""
        if strict_int(degree, "monomial degree") < 1:
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
            return cls.monomial(ascii_int(text[2:]))
        if text == "z":
            return cls.monomial(1)
        return cls.from_json(json.loads(text))


def _checked(order: int) -> int:
    if not 0 <= order <= MAX_TRUNCATION:
        raise TruncationError(f"truncation order {order} is outside 0..{MAX_TRUNCATION}")
    return order


def derivative_scale(n: int) -> float:
    """n! as a double; orders above MAX_DERIVATIVE_ORDER raise FloatingPointError,
    a numeric error (exit 3), rather than an OverflowError."""
    if n > MAX_DERIVATIVE_ORDER:
        raise FloatingPointError(f"derivative order {n} is above {MAX_DERIVATIVE_ORDER}: {n}! overflows a double")
    return float(factorial(n))


def complex_pairs(values) -> list:
    """The [re, im] pairs of an array in C order, as Python floats: numpy
    float64 would pass JSON encoding but not a float type check."""
    return np.ascontiguousarray(values, dtype=complex).view(float).reshape(-1, 2).tolist()


def coeff_json(coords: np.ndarray) -> dict:
    return {"coords": complex_pairs(coords)}


def _compress(phi: np.ndarray, lo: int, src, k: int, dst) -> np.ndarray:
    """Entries <W_k(phi src_j), dst_i>: the matrix of f -> P W_k(phi f) from
    the span of the src rows into that of the orthonormal dst rows.

    phi holds the coefficients of frequencies lo, lo + 1, ...; the rows hold
    Taylor coefficients from frequency 0.  Only the kept frequencies k n,
    n <= T_dst, of each product phi src_j are formed, so phi is read only in
    the windows k n - T_src <= f <= k n, from its first to its last nonzero
    term there.  `_route` chooses the kernel from k, the shape of the rows,
    that span and the windows that reach it, never from the array's length,
    so the entries depend on those terms alone, bit for bit, however phi is
    padded.  Frequencies are Python ints.

    Either side may be an `_IndexMap`, the identity rows of an exact basis
    (a `rows_operand`), rather than an array.  As the source it needs no
    kernel: the kept coefficient k n of phi z^j is a term of phi, so they
    are a gather (`_gathered`), exact.  As the destination its rows select
    the kept coefficients, which are placed in rows n of a zero matrix,
    with no product.  Either way no identity matrix is formed.
    """
    width = src.shape[1]
    # Kept: 0 <= q <= len(phi) + T_src - 1, in windows n0..n3 - 1.  They
    # span the offsets 0..k (n3 - n0 - 1) + T_src from index lead.
    n0 = max(0, -(-lo // k))
    n3 = min(dst.shape[1], (len(phi) + width - 2 + lo) // k + 1)
    if n0 >= n3:
        return np.zeros((dst.shape[0], src.shape[0]), dtype=complex)
    lead = k * n0 - lo - width + 1
    a, b = max(0, lead), min(len(phi), lead + k * (n3 - n0 - 1) + width)
    read = phi[a:b].nonzero()[0]
    if k > width:  # gaps between the windows: offset r is read when r mod k < width
        read = read[(read + (a - lead)) % min(k, b - lead) < width]
    if not len(read):
        return np.zeros((dst.shape[0], src.shape[0]), dtype=complex)
    # The read span r0..r1, and the windows that reach it.
    r0, r1 = int(read[0]) + a - lead, int(read[-1]) + a - lead
    phi, lo = phi[lead + r0 : lead + r1 + 1], lo + lead + r0
    n0, n3 = n0 + max(0, -((width - 1 - r0) // k)), min(n3, n0 + r1 // k + 1)
    count, q0 = n3 - n0, k * n0 - lo
    if isinstance(src, _IndexMap):
        kept = _gathered(phi, q0, k, count, width)
    else:
        layout = _route(k, src.shape, len(phi), count)
        kept = _fourier(phi, q0, src, k, count) if layout is None else _banded(phi, q0, src, k, count, *layout)
    if isinstance(dst, _IndexMap):
        out = np.zeros((dst.shape[0], src.shape[0]), dtype=complex)
        out[n0:n3] = kept
        return out
    return dst[:, n0:n3].conj() @ kept


def _route(k: int, shape: tuple, span: int, count: int) -> tuple[bool, int] | None:
    """The kernel for count kept coefficients at stride k of the products
    of phi, span terms long, with rows of this shape (dim_src x (T_src + 1)):
    None for `_fourier`, else the layout of `_banded`: whether it windows
    phi (once k or the span reaches the row length) rather than the rows,
    and b, the windows of one block.  b is at most ceil(w / k), so that at
    most half the band is zeros, the square root of count, and small enough
    for BAND_ENTRIES.  `_fourier` is taken where its 2 dim_src + 1
    transforms of length N, at FFT_COST N log2 N each, cost less than the
    dim_src count L products of the band's GEMMs, L = k (b - 1) + w."""
    dim, width = shape
    windowed = k >= width or span >= width
    rows, w = (dim, width) if windowed else (1, span)  # the band's factor
    b = max(1, min(-(-w // k), math.isqrt(count), BAND_ENTRIES // (2 * rows * w)))
    size = 1 << (span + width - 2).bit_length()
    if dim * count * (k * (b - 1) + w) > FFT_COST * (2 * dim + 1) * size * size.bit_length():
        return None
    return windowed, b


def _banded(phi: np.ndarray, q0: int, src: np.ndarray, k: int, count: int, windowed: bool, b: int) -> np.ndarray:
    """The coefficients q0 + k t, t < count, of the products phi src_j, as
    a count x dim_src array, by GEMMs.  Coefficient q is the window
    longer[q - w + 1 .. q] of the windowed factor against the other one, w
    its length, reversed.  The b windows t = b c + r, r < b, are row c of
    the windows longer[q0 - w + 1 + k b c ...] of L = k (b - 1) + w entries
    against the band B[r, u] = shorter[k r + w - 1 - u]: one band serves
    every block, and every product is a GEMM even where windows overlap."""
    longer, shorter = (phi[None], src) if windowed else (src, phi[None])
    (nl, width), (ns, w) = longer.shape, shorter.shape
    span, blocks = k * (b - 1) + w, -(-count // b)
    if b == 1:
        band = np.ascontiguousarray(shorter[:, ::-1], dtype=complex)
    else:
        band = np.zeros((ns, b, span + k), dtype=complex)
        band[:, :, :w] = shorter[:, None, ::-1]
        band = band.reshape(ns, -1)[:, : b * span].reshape(ns * b, span)
    # The windows read longer[start:stop], zero-padded past its ends.
    start, stop = q0 - w + 1, q0 + k * (b * blocks - 1) + 1
    if start < 0 or stop > width:
        padded = np.zeros((nl, stop - start), dtype=complex)
        padded[:, max(0, -start) : width - start] = longer[:, max(0, start) : stop]
        longer, start = padded, 0
    else:
        longer = np.ascontiguousarray(longer, dtype=complex)
    size, step = longer.itemsize, k * b
    per = max(1, WINDOW_ENTRIES // (nl * span))  # blocks per product
    parts = []
    for c in range(0, blocks, per):
        n = min(per, blocks - c)
        # One block needs no stride, and k * size may pass int64.
        strides = (longer.strides[0], step * size if n > 1 else 0, size)
        windows = np.ndarray((nl, n, span), complex, longer, (start + step * c) * size, strides)
        # The rows' windows of a block are a BLAS operand as they are, one
        # GEMM per block; unless the blocks are fewer than the rows, one
        # copied operand costs less.
        if n < nl:
            parts.append((windows.transpose(1, 0, 2) @ band.T).transpose(1, 0, 2))
        else:
            parts.append((np.ascontiguousarray(windows).reshape(nl * n, span) @ band.T).reshape(nl, n, -1))
    kept = np.concatenate(parts, axis=1) if len(parts) > 1 else parts[0]  # rows of longer x blocks x (rows of shorter, r)
    return kept.reshape(nl, blocks, ns, b).transpose(1, 3, 0, 2).reshape(blocks * b, -1)[:count]


def _fourier(phi: np.ndarray, q0: int, src: np.ndarray, k: int, count: int) -> np.ndarray:
    """As `_banded`, from the whole products phi src_j, each one FFT of the
    least power of two that holds it, read at stride k from q0; the rows go
    through in groups of at most WINDOW_ENTRIES coefficients."""
    size = 1 << (len(phi) + src.shape[1] - 2).bit_length()
    spectrum, group = np.fft.fft(phi, size), max(1, WINDOW_ENTRIES // size)
    read = slice(q0, q0 + k * (count - 1) + 1, k if count > 1 else 1)
    kept = [np.fft.ifft(spectrum * np.fft.fft(src[j : j + group], size), size)[:, read] for j in range(0, len(src), group)]
    return np.concatenate(kept).T


def _gathered(phi: np.ndarray, q0: int, k: int, count: int, width: int) -> np.ndarray:
    """As `_banded`, for the identity rows of this width: coefficient
    q0 + k t of phi z^j is phi[q0 + k t - j], zero past phi's ends, so the
    count x width array is one strided read of phi zero-padded by width - 1
    at each end, reversed along the rows, with no product: exact."""
    padded = np.zeros(len(phi) + 2 * width - 2, dtype=complex)
    padded[width - 1 : width - 1 + len(phi)] = phi
    size = padded.itemsize
    # One window needs no stride, and k * size may pass int64.
    strides = (k * size if count > 1 else 0, -size)
    return np.ascontiguousarray(np.ndarray((count, width), complex, padded, (q0 + width - 1) * size, strides))


class _Truncation(NamedTuple):
    """What a basis computes on the first read of its rows."""

    rows: np.ndarray
    tail_bound: float
    gram_error: float
    held: int  # h, the columns of the rows that doubling fills
    step: np.ndarray | None  # A^h; None for z^N


@dataclass(frozen=True, eq=False)
class ModelSpaceBasis:
    """Orthonormal basis of a model space: the Takenaka-Malmquist rows as a
    dim x (T + 1) array of Taylor coefficients truncated at a certified order
    T, or the identity rows when every zero is at the origin.  `build` holds
    the realization.  The rows, their tail bound and Gram check, the
    compressed shift S and its adjoint, the conjugation matrix and the
    expansion of the inner function are each computed on first read, once,
    and are plain instance attributes from then on, as is a refusal of the
    rows.  The routines multiply by S^n, S^{*n} and C as
    `shift_operands(n)` and `conjugation_operand`, read the rows as
    `rows_operand` and the membership frame as `frame_operands`: on an
    exact basis each is an index map (`_IndexMap`), with no dense matrix,
    and `_compress` gathers from the identity rows and places into them; on
    a Blaschke basis the cached dense S, S^* and C, the rows and dense
    frames.  The dense forms, `first_columns` and `rows`, are the dense
    matrices of those maps on an exact basis, refused above MAX_ENTRIES; no
    pipeline routine reads `rows` of an exact basis.  `first_columns` reads
    the leading columns of the rows without forming them; the shift and the
    conjugation read no rows, nor does `exact`.  Frozen, arrays read-only.
    """

    inner: InnerFunction
    # The padded system [[0, 0, 0], [B, A, 0], [D, C, 0]] of `_realization`;
    # None when every zero is at the origin.
    _system: np.ndarray | None
    # T is never below it: the order of a single zero of modulus max |w|, N - 1 for z^N.
    least_order: int

    def __post_init__(self):
        if not self.exact:
            self._system.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.inner.degree

    @property
    def exact(self) -> bool:
        """True when every zero is at the origin: no realization, and the identity rows."""
        return self._system is None

    @property
    def truncation_order(self) -> int:
        """T; N - 1 for z^N, with no rows formed."""
        return self.least_order if self.exact else self.rows.shape[1] - 1

    @classmethod
    def build(cls, inner: InnerFunction) -> "ModelSpaceBasis":
        """The realization (A, B, C, D) of `_realization`, none for z^N,
        whose A is the nilpotent shift.  Row i of A^n has the diagonal entry
        conj(w_i)^n, so T is at least the order of a single zero of modulus
        max |w|: that order above MAX_TRUNCATION, and arrays above
        MAX_ENTRIES for it, are refused here, before anything is allocated.
        What needs the rows is refused on their first read (`_truncation`),
        and on z^N what densifies an N x N index map."""
        dim, rho = inner.degree, max(map(abs, inner.zeros))
        order = _checked(math.ceil(math.log(TAIL_BOUND_LIMIT) / math.log(rho)) - 1 if rho else dim - 1)
        if not rho:
            return cls(inner, None, order)
        _capped(2, dim, 1 << _first(order))
        return cls(inner, _realization([0j, *inner.zeros, 0j]), order)

    @property
    def _truncation(self) -> _Truncation:
        """The rows, the tail bound and the Gram check, computed together on
        first read (`_truncate`).  A refusal is kept as well: every later
        read raises it again without recomputing."""
        outcome = self._truncation_outcome
        if isinstance(outcome, TruncationError):
            raise outcome.with_traceback(None)  # one read's frames, not every read's
        return outcome

    @functools.cached_property
    def _truncation_outcome(self) -> _Truncation | TruncationError:
        try:
            return self._truncate()
        except TruncationError as refusal:
            # Its traceback would hold the frames, and the arrays, of the attempt.
            return refusal.with_traceback(None)

    def _truncate(self) -> _Truncation:
        """The rows at their certified order, with what is read off them.
        As I - A A^H = B B^H, the l2 tail of row i past column n - 1 is the
        norm of row i of A^n.  T is the least order whose tail, the largest
        over the rows, is <= 1e-12, and that tail is `tail_bound`.  An order
        above MAX_TRUNCATION, arrays above MAX_ENTRIES for it, and a Gram
        matrix off the identity by more than GRAM_TOL are refused."""
        dim = self.dim
        if self.exact:  # the identity rows: no tail, orthonormal exactly
            rows, tail, gram_error, held, step = np.asarray(self.rows_operand), 0.0, 0.0, dim, None
        else:
            rows, tail, held, step = _impulse_responses(self._system, _first(self.least_order))
            gram_error = float(np.abs(rows.conj() @ rows.T - np.eye(dim)).max())
            if gram_error > GRAM_TOL:
                raise TruncationError(f"basis Gram matrix deviates from identity by {gram_error:.3e}")
        rows.setflags(write=False)
        return _Truncation(rows, tail, gram_error, held, step)

    @functools.cached_property
    def rows(self) -> np.ndarray:
        """The dim x (T + 1) Taylor coefficients, read-only."""
        return self._truncation.rows

    @functools.cached_property
    def tail_bound(self) -> float:
        """The l2 tail past T; 0 for z^N, with no rows formed."""
        return 0.0 if self.exact else self._truncation.tail_bound

    @functools.cached_property
    def gram_error(self) -> float:
        """The largest entry of rows^* rows - I; 0 for z^N, with no rows formed."""
        return 0.0 if self.exact else self._truncation.gram_error

    def shift_operands(self, n: int = 1) -> tuple:
        """S^n and S^{*n} as operands of `@` from either side.  S^n moves
        coordinate j to j + n: on an exact basis an index map, zero from
        n = N on, with no dense matrix; on a Blaschke basis conj(A)^n and its
        conjugate transpose, read-only, formed once for n = 1
        (E[n + 1] = A E[n] gives <z e_j, e_i> = conj(A[i, j]), with no tail)."""
        if self.exact:
            kept = max(self.dim - n, 0)
            power = _IndexMap((self.dim, self.dim), slice(self.dim - kept, None), slice(0, kept))
            return power, power.T
        return self._shift if n == 1 else self._shift_power(n)

    @functools.cached_property
    def _shift(self) -> tuple:
        return self._shift_power(1)

    def _shift_power(self, n: int) -> tuple:
        """conj(A)^n of a Blaschke basis, by repeated squaring, and its adjoint."""
        power = np.linalg.matrix_power(self._system[1:-1, 1:-1].conj(), n)
        return _frozen(power, power.conj().T)

    @functools.cached_property
    def _conjugation(self) -> np.ndarray:
        """C of a Blaschke basis, with coords(alpha conj(z f)) = C conj(coords(f)).
        On the circle alpha conj(z e_j) = c sqrt(1 - |w_j|^2) / (1 - conj(w_j) z)
        prod_{i>j} b_i, c times the impulse response (A^T)^n C^T, so C / c is
        X = sum_n conj(A)^n conj(B) C^T A^n, the solution of the Stein equation
        X = conj(B) C^T + conj(A) X A.  Doubling sums it: each pass adds
        conj(P) X P for P = A^m and squares P, until ||P||_F^2 <= 1e-24; X is
        unitary, so what is left out is below that.  C must be a unitary
        involution, C C^H = C conj(C) = I, within GRAM_TOL; it is refused
        otherwise, a NaN too."""
        system = self._system
        x, power = np.outer(system[1:-1, 0].conj(), system[-1, 1:-1]), system[1:-1, 1:-1]
        while (np.abs(power) ** 2).sum() > TAIL_BOUND_LIMIT**2:
            x += power.conj() @ x @ power
            power = power @ power
        conjugation, eye = self.inner.constant * x, np.eye(len(x))
        error = max(np.abs(x @ x.conj().T - eye).max(), np.abs(x @ x.conj() - eye).max())
        if not error <= GRAM_TOL:
            raise TruncationError(f"conjugation matrix deviates from a unitary involution by {error:.3e}")
        conjugation.setflags(write=False)
        return conjugation

    @functools.cached_property
    def inner_expansion(self) -> np.ndarray:
        """Taylor coefficients of the inner function over frequencies
        0..2(T + 1), read-only: c z^N when every zero is at the origin, else
        alpha[0] = c D and alpha[q h + r + 1] = c C A^(q h) E[:, r], r < h,
        from the h columns E of the rows that doubling fills."""
        c, length = self.inner.constant, 2 * self.truncation_order + 3
        if self.exact:
            expansion = c * np.eye(1, length, self.dim, dtype=complex)[0]
        else:
            held, step, system = self._truncation.held, self._truncation.step, self._system
            head = self.rows[:, :held]
            expansion, out = np.empty(length, dtype=complex), c * system[-1, 1:-1]
            expansion[0] = c * system[-1, 0]
            for start in range(1, length, held):
                np.matmul(out, head[:, : length - start], out=expansion[start : start + held])
                out = out @ step
        expansion.setflags(write=False)
        return expansion

    def first_columns(self, n: int) -> np.ndarray:
        """rows[:, :n], read-only and bit for bit, for 1 <= n <= T + 1; for
        z^N the identity's, with no rows.  The rows hold their first
        2^(s - 1) columns, s = `_first(least_order)`, from doubling alone;
        until the rows are read, n up to that many come from the same
        doubling, stopped at the first power of two >= n.  Past that, and
        once the rows exist, this is a slice of the rows."""
        if self.exact:  # the frame G, real there: one call, as a fresh setting's frames read it
            _capped(self.dim, n)
            columns = np.eye(self.dim, n, dtype=complex)
        elif "rows" in vars(self) or n > 1 << (_first(self.least_order) - 1):
            return self.rows[:, :n]
        else:
            powers = _squares(self._system[1:-1, 1:-1], (n - 1).bit_length())
            columns = _doubled(self._system, powers)[:, :n]
        columns.setflags(write=False)
        return columns

    @functools.cached_property
    def rows_operand(self):
        """The rows as an operand of `@` from either side and of `_compress`:
        on an exact basis the identity rows as an index map, with no dense
        identity; on a Blaschke basis `rows`.  Its shape is dim x (T + 1)
        either way."""
        return _IndexMap((self.dim, self.dim)) if self.exact else self.rows

    def frame_operands(self, n: int, conjugated: bool = False) -> tuple:
        """G and G^H as right operands of `@`, read-only: G = conj(rows[:, :n]),
        whose column j represents f -> f^(j)(0) / j!, or C rows[:, :n] when
        conjugated.  On an exact basis they are index maps, the first n
        columns of the identity, or of c J, and their adjoints, with no dense
        matrix; on a Blaschke basis arrays, formed per call."""
        if self.exact:
            G = _IndexMap((self.dim, n), slice(0, n), slice(0, n))
            if conjugated:  # c at (dim - 1 - j, j)
                G = _IndexMap((self.dim, n), slice(self.dim - n, None), slice(n - 1, None, -1), self.inner.constant)
            return G, G.conj().T
        G = self.first_columns(n).conj()
        if conjugated:
            G = self.conjugation_operand @ G.conj()
        return _frozen(G, G.conj().T)

    def stretched_projection(self, coeffs: np.ndarray, k: int) -> np.ndarray:
        """Taylor coefficients of the projection onto the model space of
        alpha(z^k) of f with coefficients 0..k (T + 1) - 1.  That space is the
        orthogonal sum of z^j K_alpha(z^k) over j < k, so column j of the
        (T + 1) x k array of f, frequencies j, j + k, ..., is projected by
        these rows: the space's own k dim rows are never formed.  coeffs may
        carry a trailing axis, one f per column: its columns then sit side
        by side in the polyphase array, which the rows project together."""
        rows = self.rows_operand
        return (rows.T @ (rows.conj() @ coeffs.reshape(rows.shape[1], -1))).reshape(coeffs.shape)

    def conjugate_vector(self, coords) -> np.ndarray:
        """The antilinear involution f -> alpha * conj(z f) in coordinates:
        C conj(coords), over the first axis of an array."""
        return self.conjugation_operand @ np.asarray(coords, dtype=complex).conj()

    @functools.cached_property
    def conjugation_operand(self):
        """C, with coords(alpha conj(z f)) = C conj(coords(f)), as an
        operand of `@` from either side: on an exact basis c J, z^j to
        c z^(N-1-j), as an index map that reverses the coordinates, with no
        dense matrix; on a Blaschke basis the dense `_conjugation`."""
        if self.exact:
            return _IndexMap((self.dim, self.dim), cols=slice(None, None, -1), scale=self.inner.constant)
        return self._conjugation


class _IndexMap:
    """A shape[0] x shape[1] matrix whose entries are zero but for entry
    (rows[t], cols[t]) of each t, 1 or scale (None for 1): on an exact basis
    S^n, S^{*n}, c J, the identity rows and the membership frames.  It is
    an operand of `@` from either side, with the dense product's values,
    bit for bit when the scale is 1, and no dense matrix: the slice of x at
    one side's indices, times the scale, goes to the other side's in a zero
    array.  Where those cover every index of the product, in order or
    reversed, no zero array is made: the product is that slice reordered,
    contiguous as the dense product was: x itself where x already is.  Either
    side multiplies a leading stack matrix by matrix, as matmul does.  Its
    rows are read one by one by `rank_one`.  An array of another size, or
    0-d, is refused, as a dense product refuses it, and `np.asarray` forms
    the dense matrix, above MAX_ENTRIES refused first."""

    __slots__ = ("shape", "rows", "cols", "scale")
    __array_ufunc__ = None  # so that ndarray @ map calls __rmatmul__

    def __init__(self, shape: tuple, rows: slice = slice(None), cols: slice = slice(None), scale=None):
        self.shape, self.rows, self.cols = shape, rows, cols
        self.scale = None if scale == 1 else scale

    @property
    def T(self) -> "_IndexMap":
        return _IndexMap(self.shape[::-1], self.cols, self.rows, self.scale)

    def conj(self) -> "_IndexMap":
        if self.scale is None:
            return self
        return _IndexMap(self.shape, self.rows, self.cols, self.scale.conjugate())

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, l: int) -> np.ndarray:
        if not 0 <= l < len(self):
            raise IndexError(f"row {l} is outside 0..{len(self) - 1}")
        return np.eye(1, len(self), l, dtype=complex)[0] @ self

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        _capped(*self.shape)
        dense = np.zeros(self.shape, dtype=complex)
        dense[np.arange(self.shape[0])[self.rows], np.arange(self.shape[1])[self.cols]] = self.scale or 1
        return dense

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        tail = (slice(None),) * (x.ndim > 1)  # a matrix's column axis, kept whole; a vector has none
        if not x.ndim or x.shape[-1 - len(tail)] != self.shape[1]:
            raise ValueError(f"a {self.shape[0]} x {self.shape[1]} operand cannot multiply an array of shape {x.shape}")
        return self._placed(x[(..., self.cols, *tail)], (..., self.rows, *tail), self.shape[0], -1 - len(tail))

    def __rmatmul__(self, x: np.ndarray) -> np.ndarray:
        if not x.ndim or x.shape[-1] != self.shape[0]:
            raise ValueError(f"an array of shape {x.shape} cannot multiply a {self.shape[0]} x {self.shape[1]} operand")
        return self._placed(x[..., self.rows], (..., self.cols), self.shape[1], -1)

    def _placed(self, part: np.ndarray, at, size: int, axis: int) -> np.ndarray:
        """part times the scale at the indices `at` of an axis of this size."""
        if self.scale is not None:
            part = self.scale * part
        if part.shape[axis] == size:  # `at` is every index, in order or reversed: its own inverse
            return np.ascontiguousarray(part[at], dtype=complex)
        shape = list(part.shape)
        shape[axis] = size
        out = np.zeros(shape, dtype=complex)
        out[at] = part
        return out


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _capped(*shape: int) -> None:
    if math.prod(shape) > MAX_ENTRIES:
        raise TruncationError(f"a {' x '.join(map(str, shape))} array is above the cap of {MAX_ENTRIES} entries")


def _realization(zeros: list) -> np.ndarray:
    """The lower triangle M[i, i] = conj(w_i), M[i, j] = r_i r_j prod_{j<l<i} (-w_l),
    r_i = sqrt(1 - |w_i|^2).  Of the zeros it is A; of them padded with a zero at
    the origin at each end, the system [[0, 0, 0], [B, A, 0], [D, C, 0]] with
    B_i = r_i prod_{l<i} (-w_l), C_j = r_j prod_{l>j} (-w_l), D = prod (-w_l)."""
    r = [math.sqrt(1.0 - abs(w) ** 2) for w in zeros]
    m = [[0j] * len(zeros) for _ in zeros]
    for j, w in enumerate(zeros):
        m[j][j], link = w.conjugate(), r[j]
        for i in range(j + 1, len(zeros)):
            m[i][j] = r[i] * link
            link *= -zeros[i]
    return np.array(m)


def _first(order: int) -> int:
    """The least s >= 1 with 2^s > order: a build squares A that far before
    it measures the tail, and so fills the first 2^(s-1) columns of the rows
    by doubling alone."""
    return max(1, order.bit_length())


def _squares(a: np.ndarray, count: int) -> list:
    """A^(2^s) for s < count, by repeated squaring."""
    powers = [a]
    for _ in range(count - 1):
        powers.append(powers[-1] @ powers[-1])
    return powers[:count]


def _doubled(system: np.ndarray, powers: list) -> np.ndarray:
    """The first 2^len(powers) columns of the rows E[:, n] = A^n B: column 0
    from the padded system, then E[:, m:2m] = A^m E[:, :m] for m = 2^s,
    A^m = powers[s]."""
    resp = np.empty((len(system) - 2, 1 << len(powers)), dtype=complex)
    resp[:, 0] = system[1:-1, 0]
    for s, power in enumerate(powers):
        np.matmul(power, resp[:, : 1 << s], out=resp[:, 1 << s : 2 << s])
    return resp


def _impulse_responses(system: np.ndarray, first: int) -> tuple:
    """The rows at their order T, the tail (see `ModelSpaceBasis._truncate`),
    and h with A^h.  Columns fill by doubling (`_doubled`) to h = 2^(S-1),
    for the least S >= first with row norms of A^(2^S) <= 1e-12."""
    dim = len(system) - 2
    powers = _squares(system[1:-1, 1:-1], first + 1)  # A^(2^s)
    # Squared row norms of A^(2^S), the tails past 2^S - 1.
    while (last := (np.abs(powers[-1]) ** 2).sum(axis=1)).max() > TAIL_BOUND_LIMIT**2:
        if 1 << (len(powers) - 1) > MAX_TRUNCATION:
            raise TruncationError(f"truncation order {1 << (len(powers) - 1)} or more is outside 0..{MAX_TRUNCATION}")
        _capped(2, dim, 2 << (len(powers) - 1))
        powers.append(powers[-1] @ powers[-1])
    # The rows up to h = 2^(S-1); E[:, h + r] = A^h E[:, r].
    held, step = _doubled(system, powers[:-2]), powers[-2]
    h = held.shape[1]
    passed, tail = _measured(held, step, last)
    _checked(h - 1 + passed)  # T
    return np.concatenate([held, step @ held[:, :passed]], axis=1), tail, h, step


def _measured(held: np.ndarray, step: np.ndarray, last: np.ndarray) -> tuple[int, float]:
    """How many columns past the h held ones the rows keep, and their tail.
    The squared tails of the orders h - 1..2h - 1 are last, the squared row
    norms of A^(2h), plus the squares of the columns A^h E[:, r] past each,
    summed in blocks from the end.  So T >= h - 1."""
    h = held.shape[1]
    tails, carry = np.empty(h + 1), last
    for stop in range(h, 0, -TAIL_BLOCK):
        block = np.abs(step @ held[:, max(0, stop - TAIL_BLOCK) : stop]) ** 2
        block = np.cumsum(block[:, ::-1], axis=1)[:, ::-1] + carry[:, None]
        tails[stop - block.shape[1] : stop], carry = block.max(axis=0), block[:, 0]
    tails[h] = last.max()
    passed = int(np.count_nonzero(tails > TAIL_BOUND_LIMIT**2))
    return passed, math.sqrt(tails[passed])


__all__ = [
    "InnerFunction",
    "ModelSpaceBasis",
    "TruncationError",
    "coeff_json",
    "EXACT_TOL",
    "BLASCHKE_TOL",
]
