"""Finite-dimensional model spaces: the orthogonal complement of alpha*H^2
inside H^2 for a finite Blaschke product alpha, whose zeros may repeat (z^N is
N zeros at the origin).  A basis is the Takenaka-Malmquist rows, stored as
Taylor coefficient arrays truncated at a certified order; when every zero is
at the origin they are exactly 1, z, ..., z^{N-1}.  Column n of the rows is
E[n] = A^n B for a lossless realization (A, B, C, D) in closed form, A the
conjugate of the compressed shift S (Ninness and Gustafsson, IEEE TAC 42,
1997), whose one owner is the basis.  The conjugation f -> alpha conj(z f)
and the kernels come from the same realization, with no rows.  A build holds
the realization; the truncated rows and all that is read off them, the shift
and the conjugation are computed on first read, and the leading columns of
the rows can be read without them.  When every zero is at the origin, S is
the nilpotent shift and the conjugation c J a reversal, so both act on
coefficient arrays by index, with no dense matrix; so do the identity rows,
from which a compression gathers the symbol's terms, and the membership
frame, whose columns are those of the identity or of c J.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from dataclasses import dataclass
from math import factorial
from typing import NamedTuple

import numpy as np

from .laurent import LaurentPoly, ascii_int, strict_int, strict_real

# Comparisons on exact bases (every zero at the origin), and on truncated ones.
EXACT_TOL = 1e-12
BLASCHKE_TOL = 1e-8
GRAM_TOL = 1e-10
TAIL_BOUND_LIMIT = 1e-12
# Largest truncation order T.  It admits a single zero up to |w| = 0.99997,
# whose rows then take 2^21 columns of A^n B.
MAX_TRUNCATION = 1 << 20
# Largest coefficient array of a build, 2^24 complex numbers (256 MB): the rows,
# the shift or the conjugation of z^N, or 2 x dim x 2^S for the 2^(S-1) held
# columns of the rows and the joined rows, at most 2^S columns, together.
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

    def evaluate(self, z):
        """alpha(z) at a complex number, or at each entry of an array."""
        # The zeros at the origin give c z^d, so z^N is evaluated exactly.
        val = self.constant * z ** self.zeros.count(0)
        for w in filter(None, self.zeros):
            val *= (z - w) / (1.0 - w.conjugate() * z)
        return val

    def stretched(self, k: int) -> "InnerFunction":
        """The inner function z -> alpha(z^k): each zero w becomes the k k-th roots of w."""
        if strict_int(k, "order k") < 1:
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

    Either side may be `_Identity`, the identity rows of an exact basis (a
    `rows_operand`), rather than an array.  As the source it needs no
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
    if isinstance(src, _Identity):
        kept = _gathered(phi, q0, k, count, width)
    else:
        layout = _route(k, src.shape, len(phi), count)
        kept = _fourier(phi, q0, src, k, count) if layout is None else _banded(phi, q0, src, k, count, *layout)
    if isinstance(dst, _Identity):
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
    rows; `shift_power` gives S^n.  The routines multiply by S^n, S^{*n}
    and C as `shift_operands(n)` and `conjugation_operand`: on an exact basis
    index maps, a slice, a reversal and a multiply by c, with no dense
    matrix; on a Blaschke basis the cached dense S, S^* and C.  They read
    the rows as `rows_operand` and the membership frame as `frame_operands`:
    on an exact basis the identity rows (`_Identity`), which `_compress`
    gathers from and places into, and column selections (`_Columns`), with
    no N x N identity; on a Blaschke basis the rows and dense frames.  So
    no pipeline routine reads `rows` of an exact basis, though it stays
    readable there (the verify harness reads it).  `first_columns` reads
    the leading columns of the rows without forming them; the shift, the
    conjugation and the kernels read no rows, nor does `exact`.  Frozen,
    arrays read-only.
    """

    inner: InnerFunction
    # The padded system [[0, 0, 0], [B, A, 0], [D, C, 0]] of `_realization`;
    # None when every zero is at the origin.
    _system: np.ndarray | None
    # T is never below it: the order of a single zero of modulus max |w|, N - 1 for z^N.
    least_order: int

    def __post_init__(self):
        if self._system is not None:
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
        return self.least_order if self._system is None else self.rows.shape[1] - 1

    @classmethod
    def build(cls, inner: InnerFunction) -> "ModelSpaceBasis":
        """The realization (A, B, C, D) of `_realization`, none for z^N,
        whose A is the nilpotent shift.  Row i of A^n has the diagonal entry
        conj(w_i)^n, so T is at least the order of a single zero of modulus
        max |w|: that order above MAX_TRUNCATION, and arrays above
        MAX_ENTRIES for it (dim x dim for z^N), are refused here, before
        anything is allocated.  What needs the rows is refused on their
        first read (`_truncation`)."""
        dim, rho = inner.degree, max(map(abs, inner.zeros))
        order = _checked(math.ceil(math.log(TAIL_BOUND_LIMIT) / math.log(rho)) - 1 if rho else dim - 1)
        if not rho:
            _capped(dim, dim)
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
        if self._system is None:  # the identity rows: no tail, orthonormal exactly
            rows, tail, gram_error, held, step = np.eye(dim, dtype=complex), 0.0, 0.0, dim, None
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
        return 0.0 if self._system is None else self._truncation.tail_bound

    @functools.cached_property
    def gram_error(self) -> float:
        """The largest entry of rows^* rows - I; 0 for z^N, with no rows formed."""
        return 0.0 if self._system is None else self._truncation.gram_error

    @functools.cached_property
    def shift(self) -> np.ndarray:
        """S, the compression of multiplication by z: E[n + 1] = A E[n] gives
        <z e_j, e_i> = conj(A[i, j]), with no tail.  Read-only."""
        return self.shift_power(1)

    @functools.cached_property
    def shift_adj(self) -> np.ndarray:
        """S^*, the conjugate transpose of `shift`, read-only."""
        adjoint = self.shift.conj().T
        adjoint.setflags(write=False)
        return adjoint

    def shift_power(self, n: int) -> np.ndarray:
        """S^n, read-only: for z^N the shift by n, with no product and zero
        from n = N on; otherwise conj(A)^n by repeated squaring."""
        if self._system is None:
            power = np.eye(self.dim, k=-min(n, self.dim), dtype=complex)
        else:
            power = np.linalg.matrix_power(self._system[1:-1, 1:-1].conj(), n)
        power.setflags(write=False)
        return power

    def shift_operands(self, n: int = 1) -> tuple:
        """S^n and S^{*n} as operands of `@` from either side.  On an exact
        basis they are index maps (`_Shift`), with no dense matrix; on a
        Blaschke basis `shift` and `shift_adj` for n = 1, else
        `shift_power(n)` and its conjugate transpose, read-only."""
        if self.exact:
            return _Shift(n, self.dim), _Shift(-n, self.dim)
        if n == 1:
            return self.shift, self.shift_adj
        power = self.shift_power(n)
        adjoint = power.conj().T
        adjoint.setflags(write=False)
        return power, adjoint

    @functools.cached_property
    def _conjugation(self) -> np.ndarray:
        """C, with coords(alpha conj(z f)) = C conj(coords(f)); c J for z^N.
        On the circle alpha conj(z e_j) = c sqrt(1 - |w_j|^2) / (1 - conj(w_j) z)
        prod_{i>j} b_i, c times the impulse response (A^T)^n C^T, so C / c is
        X = sum_n conj(A)^n conj(B) C^T A^n, the solution of the Stein equation
        X = conj(B) C^T + conj(A) X A.  Doubling sums it: each pass adds
        conj(P) X P for P = A^m and squares P, until ||P||_F^2 <= 1e-24; X is
        unitary, so what is left out is below that.  C must be a unitary
        involution, C C^H = C conj(C) = I, within GRAM_TOL; it is refused
        otherwise, a NaN too."""
        c, system = self.inner.constant, self._system
        if system is None:
            conjugation = c * np.eye(self.dim, dtype=complex)[::-1]
        else:
            x, power = np.outer(system[1:-1, 0].conj(), system[-1, 1:-1]), system[1:-1, 1:-1]
            while (np.abs(power) ** 2).sum() > TAIL_BOUND_LIMIT**2:
                x += power.conj() @ x @ power
                power = power @ power
            conjugation, eye = c * x, np.eye(len(x))
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
        if self._system is None:
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
        if self._system is None:
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
        on an exact basis the identity rows as an index map (`_Identity`),
        with no dense identity; on a Blaschke basis `rows`.  Its shape is
        dim x (T + 1) either way."""
        return _Identity(self.dim) if self.exact else self.rows

    def frame_operands(self, n: int, conjugated: bool = False) -> tuple:
        """G and G^H as right operands of `@`, read-only: G = conj(rows[:, :n]),
        whose column j represents f -> f^(j)(0) / j!, or C rows[:, :n] when
        conjugated.  On an exact basis they are column selections of the
        identity, or of c J (`_Columns`), with no dense matrix; on a Blaschke
        basis arrays, formed per call."""
        if self.exact:
            flip = self.conjugation_operand if conjugated else None
            return _Columns(self.dim, n, flip, False), _Columns(self.dim, n, flip, True)
        G = self.first_columns(n).conj()
        if conjugated:
            G = self.conjugation_operand @ G.conj()
        adjoint = G.conj().T
        G.setflags(write=False)
        adjoint.setflags(write=False)
        return G, adjoint

    def stretched_projection(self, coeffs: np.ndarray, k: int) -> np.ndarray:
        """Taylor coefficients of the projection onto the model space of
        alpha(z^k) of f with coefficients 0..k (T + 1) - 1.  That space is the
        orthogonal sum of z^j K_alpha(z^k) over j < k, so column j of the
        (T + 1) x k array of f, frequencies j, j + k, ..., is projected by
        these rows: the space's own k dim rows are never formed."""
        rows = self.rows_operand
        return (rows.T @ (rows.conj() @ coeffs.reshape(rows.shape[1], k))).reshape(-1)

    # -- core maps ---------------------------------------------------------

    def project(self, f: LaurentPoly) -> np.ndarray:
        """Coordinates of the orthogonal projection of f onto the model space."""
        return self.rows.conj() @ f.to_array(0, self.rows.shape[1] - 1)

    def reconstruct(self, coords) -> LaurentPoly:
        return LaurentPoly.from_array(np.asarray(coords, dtype=complex) @ self.rows)

    def kernel(self, w: complex, n: int = 0) -> np.ndarray:
        """Coordinates of the kernel representing f -> f^(n)(w): the n-th
        derivative of the rows (I - z A)^-1 B at w, conjugated,
        n! S^n (I - conj(w) S)^-(n+1) conj(B), past T too and with no rows."""
        w = complex(w)
        if abs(w) >= 1.0:
            raise ValueError(f"kernel point {w} must lie in the open disk")
        if n < 0:
            raise ValueError("derivative order must be nonnegative")
        # S^n = 0 for z^N from n = N on; elsewhere only by underflow, where
        # n! may overflow.
        if self._system is None and n >= self.dim:
            return np.zeros(self.dim, dtype=complex)
        scale, power = derivative_scale(n), self.shift_power(n)
        if w != 0:
            resolvent = np.linalg.inv(np.eye(self.dim) - w.conjugate() * self.shift)
            power = power @ np.linalg.matrix_power(resolvent, n + 1)
        return scale * (power @ self.first_columns(1)[:, 0].conj())

    def conjugate_vector(self, coords) -> np.ndarray:
        """The antilinear involution f -> alpha * conj(z f) in coordinates:
        C conj(coords), over the first axis of an array.  Contiguous, as the
        dense product was: a reversed view of an exact basis's coordinates
        would give `np.vdot` and other BLAS reductions another summation
        order, and verify's residuals other last bits."""
        return np.ascontiguousarray(self.conjugation_operand @ np.asarray(coords, dtype=complex).conj())

    @functools.cached_property
    def conjugation_operand(self):
        """C as an operand of `@` from either side: on an exact basis c J as
        an index map (`_Flip`), with no dense matrix; on a Blaschke basis the
        matrix of `conjugation_matrix`."""
        return _Flip(self.inner.constant, self.dim) if self.exact else self._conjugation

    def conjugation_matrix(self) -> np.ndarray:
        """Matrix C with coords(C f) = C @ conj(coords(f)), formed on first
        read.  The routines apply C as `conjugation_operand`, which does
        not form it on an exact basis."""
        return self._conjugation


class _Shift:
    """S^n (move n) or S^{*n} (move -n) of an exact basis of dimension dim
    as an operand of `@` from either side.  S^n moves coordinate j to j + n,
    so a product is a slice into zeros, with the dense product's values and
    no dense S^n.  An array of another size is refused, as a dense product
    refuses it."""

    __slots__ = ("dim", "moved", "kept")
    __array_ufunc__ = None  # so that ndarray @ shift calls __rmatmul__

    def __init__(self, move: int, dim: int):
        kept = max(dim - abs(move), 0)
        # S^n x: x[kept] lands in out[moved]; x S^n takes x[moved] to out[kept].
        self.dim, self.moved, self.kept = dim, slice(dim - kept, None), slice(None, kept)
        if move < 0:
            self.moved, self.kept = self.kept, self.moved

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        if x.ndim not in (1, 2) or len(x) != self.dim:
            raise ValueError(f"a {self.dim} x {self.dim} operand cannot multiply an array of shape {x.shape}")
        out = np.zeros(x.shape, dtype=complex)
        out[self.moved] = x[self.kept]
        return out

    def __rmatmul__(self, x: np.ndarray) -> np.ndarray:
        if not x.ndim or x.shape[-1] != self.dim:
            raise ValueError(f"an array of shape {x.shape} cannot multiply a {self.dim} x {self.dim} operand")
        out = np.zeros(x.shape, dtype=complex)
        out[..., self.kept] = x[..., self.moved]
        return out


class _Flip:
    """c J, the conjugation matrix of an exact basis of dimension dim, as an
    operand of `@` from either side (J is symmetric): it reverses the
    coordinates and multiplies them by c, with the dense product's values,
    bit for bit when c = 1, and no dense c J.  Its scale is c, or None for
    c = 1, where a product is a reversed view of x.  An array of another
    size is refused, as a dense product refuses it."""

    __slots__ = ("scale", "dim")
    __array_ufunc__ = None  # so that ndarray @ flip calls __rmatmul__

    def __init__(self, constant: complex, dim: int):
        self.scale, self.dim = (None if constant == 1 else constant), dim

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        if x.ndim not in (1, 2) or len(x) != self.dim:
            raise ValueError(f"a {self.dim} x {self.dim} operand cannot multiply an array of shape {x.shape}")
        return x[::-1] if self.scale is None else (self.scale * x)[::-1]

    def __rmatmul__(self, x: np.ndarray) -> np.ndarray:
        if not x.ndim or x.shape[-1] != self.dim:
            raise ValueError(f"an array of shape {x.shape} cannot multiply a {self.dim} x {self.dim} operand")
        return x[..., ::-1] if self.scale is None else (self.scale * x)[..., ::-1]

    def conjugate(self) -> "_Flip":
        return self if self.scale is None else _Flip(self.scale.conjugate(), self.dim)


class _Identity:
    """The identity rows of dimension dim, those of an exact basis, as an
    operand of `@` from either side (so are its conjugate and transpose,
    itself): the product is x itself, contiguous, as the dense product was,
    and no dense identity.  `_compress` gathers from it as a source and
    places into it as a destination.  An array of another size is refused,
    as a dense product refuses it."""

    __slots__ = ("shape",)
    __array_ufunc__ = None  # so that ndarray @ rows calls __rmatmul__

    def __init__(self, dim: int):
        self.shape = (dim, dim)

    @property
    def T(self) -> "_Identity":
        return self

    def conj(self) -> "_Identity":
        return self

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        if x.ndim not in (1, 2) or len(x) != self.shape[0]:
            raise ValueError(f"a {self.shape[0]} x {self.shape[0]} operand cannot multiply an array of shape {x.shape}")
        return np.ascontiguousarray(x, dtype=complex)

    def __rmatmul__(self, x: np.ndarray) -> np.ndarray:
        if not x.ndim or x.shape[-1] != self.shape[0]:
            raise ValueError(f"an array of shape {x.shape} cannot multiply a {self.shape[0]} x {self.shape[0]} operand")
        return np.ascontiguousarray(x, dtype=complex)


class _Columns:
    """G, the first count columns of the identity of dimension dim, or of
    c J when flip is that `_Flip`, or G^H when adjoint: the membership frame
    of an exact basis (`ModelSpaceBasis.frame_operands`), as the right
    operand of `@`.  x @ G is the first count columns of x, or of x c J,
    and x @ G^H puts x in the first count columns of a zero array, then
    multiplies by conj(c) J: the dense product's values, bit for bit when
    c = 1, contiguous, with no dense G.  Row l, read by `rank_one` and
    `assemble_defect`, is a unit vector times the product's scale.  An array
    of another size is refused, as a dense product refuses it."""

    __slots__ = ("dim", "count", "flip", "adjoint")
    __array_ufunc__ = None  # so that ndarray @ columns calls __rmatmul__

    def __init__(self, dim: int, count: int, flip: "_Flip | None", adjoint: bool):
        self.dim, self.count, self.flip, self.adjoint = dim, count, flip, adjoint

    def __len__(self) -> int:
        return self.count if self.adjoint else self.dim

    def __getitem__(self, l: int) -> np.ndarray:
        if not 0 <= l < len(self):
            raise IndexError(f"row {l} is outside 0..{len(self) - 1}")
        return np.eye(1, len(self), l, dtype=complex)[0] @ self

    def __rmatmul__(self, x: np.ndarray) -> np.ndarray:
        inner = self.count if self.adjoint else self.dim
        if not x.ndim or x.shape[-1] != inner:
            raise ValueError(f"an array of shape {x.shape} cannot multiply a {len(self)} x {inner} operand")
        if not self.adjoint:
            return np.ascontiguousarray((x if self.flip is None else x @ self.flip)[..., : self.count], dtype=complex)
        out = np.zeros((*x.shape[:-1], self.dim), dtype=complex)
        out[..., : self.count] = x
        return out if self.flip is None else np.ascontiguousarray(out @ self.flip.conjugate())


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
