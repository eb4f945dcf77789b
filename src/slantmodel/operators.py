"""Compression matrices of k-th order slant Toeplitz operators and their
characterization machinery: defect operators, membership tests, symbol
recovery, canonical and zero symbols, conjugation intertwining, rank-ones.

Matrix convention: rows index the target (beta) basis, columns the source
(alpha) basis, entry (i, j) = <U e_j^alpha, e_i^beta>.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .laurent import LaurentPoly, strict_int, strict_real
from .model_space import (
    BLASCHKE_TOL,
    EXACT_TOL,
    WINDOW_ENTRIES,
    InnerFunction,
    ModelSpaceBasis,
    TruncationError,
    _compress,
    _frozen,
    _IndexMap,
    coeff_json,
    complex_pairs,
    derivative_scale,
)

# The four characterizations differ in two choices: whether the beta side is
# S_beta, which moves rows down, rather than S_beta^*; and whether the alpha
# side is S_alpha^{*k}, which moves columns right by k, rather than S_alpha^k.
# Where the two differ (c310a, c310b) the defect is the difference of the
# one-sided shifts of U, else U less both (`defect`); F is conjugated against
# S_beta^* and G against S_alpha^k (`CompressionSetting.frames`).
_SHIFTS = {"t35": (True, True), "c38": (False, False), "c310a": (False, True), "c310b": (True, False)}
VARIANTS = tuple(_SHIFTS)
DEFAULT_MEMBERSHIP_TOL = 1e-9
# The most entries of a per-setting operator that stands in for the products
# or the slices of the fit, or for the products of the sandwich
# (`CompressionSetting.operator`, 'fit' and 'sandwich').  A product with
# it costs about its entries, the products about ten (fit) or two
# (sandwich) numpy calls.  On a sweep of Blaschke settings, dim_beta
# dim_alpha from 2 to 256 and k from 2 to 1000 (2-vCPU VM, one BLAS
# thread), the operators within 2^14 entries took 0.29-0.94 (fit) and
# 0.37-1.12 (sandwich) of the products' time; past it every sandwich
# reading was slower, from 20,736 entries, and the fit's from 31,232.  On
# z^N -> z^M settings, k from 2 to 30, the fit's operator took 0.58-0.86
# of the slices' time at 408-14,880 entries (t35 membership, same VM; E
# counted as mn entries there, as the cut then did).
OPERATOR_ENTRIES = 1 << 14


class NonMemberError(Exception):
    """Raised when symbol recovery is requested for a non-member matrix."""


@dataclass
class OperatorMatrix:
    """Complex matrix of a linear map between two model spaces."""

    entries: np.ndarray
    alpha: InnerFunction
    beta: InnerFunction

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        if not np.isfinite(self.entries).all():
            raise ValueError("matrix entries must be finite")
        if self.entries.shape != (self.beta.degree, self.alpha.degree):
            raise ValueError(
                f"matrix shape {self.entries.shape} does not match spaces "
                f"({self.beta.degree}, {self.alpha.degree})"
            )

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def norm(self) -> float:
        return float(np.linalg.norm(self.entries))

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "data": complex_pairs(self.entries),
        }

    @staticmethod
    def entries_from_json(obj: dict) -> np.ndarray:
        if not isinstance(obj, dict) or not {"rows", "cols", "data"} <= set(obj):
            raise ValueError("expected an object with 'rows', 'cols' and 'data'")
        rows, cols = strict_int(obj["rows"], "'rows'"), strict_int(obj["cols"], "'cols'")
        data = obj["data"]
        values = list(itertools.chain.from_iterable(data))
        if not {float, int}.issuperset(map(type, values)):  # JSON numbers pass in one C loop
            for value in values:
                strict_real(value, "matrix data")
        if len(data) != rows * cols or set(map(len, data)) - {2}:
            raise ValueError("matrix data must be rows*cols [re, im] pairs")
        return np.array(values, dtype=float).view(complex).reshape(rows, cols)


@dataclass
class DefectDecomposition:
    """Right-hand side of the defect identity, F chi^H + sum_j psi_j G_j^H:
    one chi in K_alpha and psi_j in K_beta for j < min(k, T_alpha + 1), the
    parts against the Taylor-coefficient frame G_j of
    `CompressionSetting.frames` (j! times the parts against the derivative
    kernels); every later G_j is zero, so its part is 0.  Fits from
    `membership` have every psi_j orthogonal to the K_beta frame vector F."""

    chi: np.ndarray
    psis: list
    variant: str

    def to_json(self) -> dict:
        return {
            "variant": self.variant,
            "chi": coeff_json(self.chi),
            "psis": [coeff_json(p) for p in self.psis],
        }


@dataclass
class MembershipReport:
    member: bool
    residual: float
    decomposition: DefectDecomposition
    # The relative knob, and the threshold it gives: tol * max(1, ||D||_F).
    tolerance: float
    effective_tolerance: float
    defect_norm: float
    # Source matrix kept so that recover_symbol can refit t35 on it; not
    # part of the JSON schema.
    source: OperatorMatrix = field(default=None, repr=False)

    @property
    def variant(self) -> str:
        return self.decomposition.variant

    def to_json(self) -> dict:
        return {
            "member": self.member,
            "residual": self.residual,
            **self.decomposition.to_json(),
            "tolerance": self.tolerance,
            "effective_tolerance": self.effective_tolerance,
            "defect_norm": self.defect_norm,
        }


class Frames(NamedTuple):
    """The constants of one variant's membership fit (`CompressionSetting.frames`),
    every array read-only: what `defect`, `membership`, `assemble_defect` and
    `rank_one` read.  On an exact alpha G_adj and G_pinv_adj are index maps
    (`ModelSpaceBasis.frame_operands`): right operands of `@` whose rows
    can be read one by one, with no dense matrix.  Where beta is exact too,
    `slices` holds the variant's defect and fit as slices of the matrix
    (`_Slices`), which read F's one nonzero entry, its conjugate and norm2;
    elsewhere it is None, and the fit is the products with these frames.
    On a small setting a repeated fit is one product with the matrix that
    the slices or the products form (`CompressionSetting.operator`, 'fit'),
    which is kept apart from the frames so that their other readers never
    form it."""

    F: np.ndarray
    norm2: float
    F_conj: np.ndarray
    G_adj: np.ndarray
    G_pinv_adj: np.ndarray
    slices: _Slices | None


class CompressionSetting:
    """The bases of a fixed (alpha, beta, k) triple, and the constants of the
    membership fit: S_alpha^k and, per variant, the frames; and kappa =
    P_beta 1 of the zero test, whose projector needs no other constant.  The
    bases give their compressed shifts and conjugations as operands of `@`
    (`ModelSpaceBasis.shift_operands`, `conjugation_operand`): index maps
    on an exact basis, with no dense matrix, so S_alpha^k and its adjoint
    are formed and cached as matrices for a Blaschke alpha only
    (`shift_operands`).  Where both bases are exact (`exact`), the defect,
    the fit and the sandwich read none of them: they are slices of the
    matrix (`Frames.slices`, `_sandwich`).  On a setting small enough
    (OPERATOR_ENTRIES), each variant's fit is one product with a matrix L
    that the slices or those products form on the unit matrices, and so
    is the sandwich where the setting is not all-exact (K), and each
    shift's zero test (Z).  Where both are Blaschke, the table of the
    monomials' compressions makes a build one product.  All four are read
    through one method, `operator`, from one store, and each is formed on
    the second call that reads it, not the first: a variant's second
    `membership`, the second sandwich, the second build, the second zero
    test of a shift.  The first takes the route of a setting past the cut,
    so a one-shot caller, such as a CLI command, forms none; a repeated
    one pays that one direct call, once.  No other routine forms them: a
    build reads the table alone of them, and the inverse routines never
    read it.  Every constant is computed once and is read-only, so no
    caller can leave it stale.

    The model space of beta(z^k) inherits beta's measured truncation order:
    it is never formed, and the routines that need it apply beta's rows
    column by polyphase column (`ModelSpaceBasis.stretched_projection`).

    The bases are built with their realizations alone; each forms its
    shift and its truncated rows when a routine first reads them, and an
    exact basis forms no rows at all: the routines read its rows and its
    frames as index maps (`ModelSpaceBasis.rows_operand`,
    `frame_operands`), so a z^N setting holds no N x N array.  The t35
    frames and the interpolation constants read only leading columns
    (`ModelSpaceBasis.first_columns`), so a t35 fit and its recovery need
    no rows while k and the dimensions stay within the columns that the
    doubling of every build fills.
    """

    def __init__(self, alpha: InnerFunction, beta: InnerFunction, k: int):
        k = strict_int(k, "order k")
        if k < 1:
            raise ValueError(f"order must be >= 1, got {k}")
        self.k = k
        self.alpha = alpha
        self.beta = beta
        self.basis_alpha = ModelSpaceBasis.build(alpha)
        self.basis_beta = ModelSpaceBasis.build(beta)
        # Both bases exact (`ModelSpaceBasis.exact`), read with no rows: one
        # attribute, as `defect` and `conjugate_operator` test it on every
        # call.
        self.exact = self.basis_alpha.exact and self.basis_beta.exact
        self._frames = {}
        self._operators = {}
        self._read_once = set()

    def operator(self, kind: str, arg=None) -> np.ndarray | None:
        """The read-only operator of a kind: the fit's L of the variant arg
        ('fit'), the sandwich's K ('sandwich'), the monomial table ('table')
        or the zero test's Z of the shift arg ('zero'), from the kind's
        former in `_FORMERS`, None past its cut.  One store, keyed by kind
        and arg together, and one rent-or-buy rule: a key's first read is
        only noted and gives None, so that the caller takes the direct route
        and a one-shot caller forms nothing; the second forms the operator
        and stores it; every later read is one lookup."""
        key = (kind, arg)
        try:
            return self._operators[key]
        except KeyError:
            form = self._FORMERS[kind]  # an unknown kind raises here
        if key not in self._read_once:
            self._read_once.add(key)
            return None
        op = self._operators[key] = form(self, arg)
        return op

    @functools.cached_property
    def shift_operands(self) -> tuple:
        """S_beta, S_beta^*, S_alpha^k and S_alpha^{*k}, the operands of the
        defect (`ModelSpaceBasis.shift_operands`): index maps on an exact
        basis, dense matrices on a Blaschke one."""
        return (*self.basis_beta.shift_operands(), *self.basis_alpha.shift_operands(self.k))

    def frames(self, variant: str) -> Frames:
        """The variant's `Frames`: the frame vector F in K_beta, ||F||^2, and
        the adjoints the fit multiplies by, of the dim K_alpha x _used matrix
        G in K_alpha and of its pseudo-inverse.  Before the conjugations,
        F = conj(rows_beta[:, 0]) is the kernel at 0 and column j of G,
        conj(rows_alpha[:, j]), represents f -> f^(j)(0) / j!: the derivative
        kernel of order j over j!.  G and G^H come from
        `ModelSpaceBasis.frame_operands`: on an exact alpha index maps, the
        first columns of the identity, or of c J for C_alpha, with no dense
        N x N matrix at k >= N.  On a setting where both bases are exact the
        defect and the fit read F's one nonzero entry and the `_Slices` in
        their place, built here with the rest."""
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        if variant not in self._frames:
            down, right = _SHIFTS[variant]
            ba, bb = self.basis_alpha, self.basis_beta
            F = bb.first_columns(1)[:, 0].conj()
            if not down:
                F = bb.conjugate_vector(F)
            G, G_adj = ba.frame_operands(_used(self), not right)
            # On an exact basis G^H is G's pseudo-inverse, with no Gram.
            G_pinv_adj = G if ba.exact else _frozen(_pinv(G).conj().T)[0]
            F, F_conj = _frozen(F, F.conj())
            slices = _Slices.of(self, variant) if self.exact else None
            self._frames[variant] = Frames(F, float(np.vdot(F, F).real), F_conj, G_adj, G_pinv_adj, slices)
        return self._frames[variant]

    def _form_fit(self, variant: str) -> np.ndarray | None:
        """The variant's fit as one matrix L: for vec(U) in C order, L vec(U)
        is vec(D), chi^H, vec(Z) and the entries E of the residual of
        `membership`'s fit, one after the other.  Each is linear in U, so L
        is the fit run on the stack of unit matrices (`_units`), its outputs
        one row per matrix, joined and transposed as K is: on an all-exact
        setting its `_Slices`, E the (m - 1)(n - used) block that the frames
        leave out; elsewhere the products (`_product_fit`), E all mn entries
        of R - Z G^H.  None where L's mn (mn + n + m used + e) entries pass
        OPERATOR_ENTRIES."""
        m, n, used = self.basis_beta.dim, self.basis_alpha.dim, _used(self)
        mn = m * n
        e = (m - 1) * (n - used) if self.exact else mn
        if mn * (mn + n + m * used + e) > OPERATOR_ENTRIES:
            return None
        frames, units = self.frames(variant), self._units()
        if frames.slices is None:
            parts = _product_fit(units, self, variant)
        else:
            D = frames.slices.defect(units)
            parts = D, *frames.slices.fit(D, frames)
        return _frozen(np.concatenate([p.reshape(mn, -1) for p in parts], axis=1).T.copy())[0]

    def _form_sandwich(self, _) -> np.ndarray | None:
        """The sandwich as one matrix K: vec(C_beta conj(U) conj(C_alpha)) =
        K conj(vec U), in C order, K the products (`_product_sandwich`) on
        the stack of unit matrices.  None where its (dim_beta dim_alpha)^2
        entries pass OPERATOR_ENTRIES.  An all-exact setting never reads it."""
        mn = self.basis_beta.dim * self.basis_alpha.dim
        if mn * mn > OPERATOR_ENTRIES:
            return None
        return _frozen(_product_sandwich(self._units(), self).reshape(mn, mn).T.copy())[0]

    def _units(self) -> np.ndarray:
        """The dim_beta x dim_alpha unit matrices, in C order, as one stack on
        the leading axis, as numpy's matmul and every route that maps matrices
        take a stack (the slices, the products, the index maps): a linear map
        of U run on it gives the columns of its matrix.  Symbol windows stack
        on the trailing axis, one per column (`_reduced`, `_residue`)."""
        m, n = self.basis_beta.dim, self.basis_alpha.dim
        return np.eye(m * n, dtype=complex).reshape(-1, m, n)

    def _form_table(self, _) -> np.ndarray | None:
        """The F x (dim_beta dim_alpha) table whose row f + T_alpha holds
        the compression of z^f in C order, for the folded frequencies
        -T_alpha..s T_beta that a build reads, s = min(k, T_alpha + 1),
        F = s T_beta + T_alpha + 1: U_phi is linear in phi, so a build is
        the folded phi times rows of it (`build_compression`).  The pairing
        is symmetric: column j of every U_(z^f) is `_compress` of alpha's row
        j, read as a symbol from frequency -T_alpha, from the identity rows
        of width F, a gather.  None where either basis is exact (an exact
        alpha gathers already, and a mixed setting keeps `_compress`), or
        where the gather, (T_beta + 1) F, or the table, F dim_alpha dim_beta,
        is above WINDOW_ENTRIES."""
        ba, bb = self.basis_alpha, self.basis_beta
        if ba.exact or bb.exact:
            return None
        src, dst = ba.rows_operand, bb.rows_operand
        width = src.shape[1]
        s = min(self.k, width)
        F = s * (dst.shape[1] - 1) + width
        if F * max(dst.shape[1], src.shape[0] * dst.shape[0]) > WINDOW_ENTRIES:
            return None
        identity = _IndexMap((F, F))
        columns = np.stack([_compress(row, 1 - width, identity, s, dst) for row in src])  # (j, i, f)
        return _frozen(columns.transpose(2, 1, 0).reshape(F, -1))[0]

    def _form_zero(self, shift: int) -> np.ndarray | None:
        """The zero test's residue as one matrix Z: Z @ phi's window
        (`_window`) is the residue vector of `zero_test_sufficient`.  It is
        linear in phi, so Z is `_residue` run on np.eye(W), W the window's
        length, with T_alpha + 1 + k (T_beta + 1) rows.  None where Z's
        entries pass OPERATOR_ENTRIES."""
        lo, hi = _window(self, shift)
        width = hi - lo + 1
        rows = self.basis_alpha.truncation_order + 1 + self.k * (self.basis_beta.truncation_order + 1)
        if rows * width > OPERATOR_ENTRIES:
            return None
        parts = _residue(np.eye(width, dtype=complex), self, shift)
        return _frozen(np.concatenate([p.reshape(-1, width) for p in parts]))[0]

    # The former of each kind of `operator`, called with the key's argument.
    _FORMERS = {"fit": _form_fit, "sandwich": _form_sandwich, "table": _form_table, "zero": _form_zero}

    @functools.cached_property
    def kappa(self) -> np.ndarray:
        """kappa = P_beta 1 as coefficients, read-only: the directions of
        `zero_test_sufficient` read it.  Computed on first use."""
        bb = self.basis_beta
        kappa = bb.first_columns(1)[:, 0].conj() @ bb.rows_operand
        return _frozen(kappa)[0]

    @functools.cached_property
    def interpolation(self) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
        """The constants that write recovered parts as polynomials of degree
        below the dimension: A^-1 and B^-1, for A = conj(rows_alpha[:, :dim])
        and B the same for beta, whose column j holds the coordinates of the
        projection of z^j; and the fold conj(A^-1) rows_alpha[:, dim:_used],
        which moves the t35 parts psi_j, j >= dim K_alpha, onto j < dim with
        Psi G^H kept.  An exact basis (z^N) has no inverse, and the fold is
        None when _used <= dim K_alpha.  Computed on first use, read-only."""
        ba, used = self.basis_alpha, _used(self)
        inv_a = _interpolant(ba)
        fold = None if used <= ba.dim else _frozen(inv_a.conj() @ ba.first_columns(used)[:, ba.dim :])[0]
        return inv_a, _interpolant(self.basis_beta), fold

    def tol(self) -> float:
        return EXACT_TOL if self.exact else BLASCHKE_TOL

    def matrix(self, entries) -> OperatorMatrix:
        return OperatorMatrix(entries, self.alpha, self.beta)


def _interpolant(basis: ModelSpaceBasis) -> np.ndarray | None:
    """The read-only inverse of A = conj(rows[:, :dim]), which maps the
    coordinates of f in the model space to the coefficients of the polynomial
    of degree < dim with the same projection; None on an exact basis, where
    A is the identity.  A is invertible, as no nonzero polynomial of degree
    < dim lies in alpha H^2."""
    if basis.exact:
        return None
    return _frozen(np.linalg.inv(basis.first_columns(basis.dim).conj()))[0]


def _pinv(G: np.ndarray) -> np.ndarray:
    """The pseudo-inverse of G, from one SVD, with the rank cut of
    lstsq(rcond=None): singular values <= eps max(G.shape) sigma_1 are
    dropped."""
    u, sv, vh = np.linalg.svd(G, full_matrices=False)
    rank = np.count_nonzero(sv > np.finfo(float).eps * max(G.shape) * sv[0])
    return ((u[:, :rank] / sv[:rank]) @ vh[:rank]).conj().T


# -- coefficient arrays ------------------------------------------------------
# The symbol-level routines work on dense coefficient arrays, each paired with
# the frequency of its first entry, and build one LaurentPoly at return.
#
# A factor f(z^k) leaves (k - 1)/k of such an array zero once k is past the
# width of what multiplies it.  There the routines compute at the stride s of
# that width, with z^s standing for z^k, and `_place` moves each block of s
# coefficients out to its place at stride k; below it, s = k.


def _clip(phi: LaurentPoly, width: int, k: int, s: int, first: int, last: int) -> tuple[np.ndarray, int]:
    """phi over the windows k n - width < f <= k n, first <= n <= last, that a
    compression at order k reads, frequency k n - r moved to s n - r: `_place`
    run in reverse, for s = k or s >= width.  Every term outside the windows
    drops out, and the array spans the terms kept."""
    if width < k:  # the windows are disjoint; below, they cover lo..hi
        # f = k n - r with 0 <= r < k
        phi = LaurentPoly({s * ((f + r) // k) - r: c for f, c in phi.items() if (r := -f % k) < width})
    lo, hi = s * first - width + 1, s * last
    support = phi.support
    kept = support[bisect.bisect_left(support, lo) : bisect.bisect_right(support, hi)]
    start = kept[0] if kept else lo
    return phi.to_array(start, kept[-1] if kept else lo), start


def _times_stretched(q: np.ndarray, e: np.ndarray, s: int) -> np.ndarray:
    """q(z) e(z^s) from frequency 0: q cut into blocks of s coefficients, and
    e_j times that block array added j blocks on, for the nonzero e_j only
    (z^N has one)."""
    blocks = np.zeros((-(-len(q) // s), s), dtype=complex)
    blocks.reshape(-1)[: len(q)] = q
    out = np.zeros((len(blocks) + len(e) - 1, s), dtype=complex)
    for j in np.flatnonzero(e):
        out[j : j + len(blocks)] += e[j] * blocks
    return out.reshape(-1)


def _place(coeffs: np.ndarray, lo: int, s: int, k: int, base: int) -> LaurentPoly:
    """The polynomial of coefficients of frequencies lo, lo + 1, ... computed
    at stride s <= k: frequency base + s n + t, 0 <= t < s, is block n and
    moves to base + k n + t.  With s = k nothing moves."""
    if s == k:
        return LaurentPoly.from_array(coeffs, lo)
    first = (lo - base) // s
    pre = lo - base - s * first
    blocks = np.zeros(-(-(pre + len(coeffs)) // s) * s, dtype=complex)
    blocks[pre : pre + len(coeffs)] = coeffs
    return LaurentPoly.from_array(blocks.reshape(-1, s), base + k * first, step=k)


def _sum(*parts) -> tuple[np.ndarray, int]:
    """The (coeffs, lo) parts added into one array over the union of their
    windows, along the first axis: the parts share any trailing axis."""
    lo = min(p_lo for _, p_lo in parts)
    hi = max(p_lo + len(c) for c, p_lo in parts)
    out = np.zeros((hi - lo, *parts[0][0].shape[1:]), dtype=complex)
    for c, p_lo in parts:
        out[p_lo - lo : p_lo - lo + len(c)] += c
    return out, lo


def _head(coords: np.ndarray, basis: ModelSpaceBasis) -> tuple[np.ndarray, int]:
    """conj(f) on the circle for f with these coordinates: frequencies -T..0,
    along the first axis, as the coordinates are; they may carry a trailing
    axis."""
    return (basis.rows_operand.T @ coords)[::-1].conj(), -basis.truncation_order


def _used(setting: CompressionSetting) -> int:
    """How many psi_j count: psi_j only meets the frame through the Taylor
    coefficient of order j in K_alpha, which vanishes past the alpha row
    length.  That is k, with no need for T, for k <= least_order + 1."""
    ba, k = setting.basis_alpha, setting.k
    return k if k <= ba.least_order + 1 else min(k, ba.truncation_order + 1)


def _window(setting: CompressionSetting, shift: int) -> tuple[int, int]:
    """The first and last frequency of phi that `_reduced` reads:
    -max(T_alpha, shift)..k (T_beta + 1) - 1 - shift."""
    ta, k = setting.basis_alpha.truncation_order, setting.k
    return -max(ta, shift), k * (setting.basis_beta.truncation_order + 1) - 1 - shift


def _reduced(w: np.ndarray, setting: CompressionSetting, shift: int) -> tuple[np.ndarray, int]:
    """conj(P_alpha f) + z^-shift P_{beta(z^k)}(z^shift g) for phi = conj(f) + g,
    f from the frequencies <= 0 and g from those >= 1, beta(z^k) truncated
    with beta: w holds phi over `_window`, from its first frequency, and the
    result spans the same frequencies.  Linear in phi, so w may carry a
    trailing axis, one symbol per column, as the rows of a stack are
    projected together (`ModelSpaceBasis.stretched_projection`).  w's
    frequencies -shift..0 are overwritten."""
    ba, bb, k = setting.basis_alpha, setting.basis_beta, setting.k
    ta = ba.truncation_order
    lo = -max(ta, shift)
    f = w[-lo - ta : 1 - lo][::-1].conj()
    w[-shift - lo : 1 - lo] = 0  # leaves z^shift g from frequency 0
    head = _head(ba.rows_operand.conj() @ f, ba)
    return _sum(head, (bb.stretched_projection(w[-shift - lo :], k), -shift))


# -- builders --------------------------------------------------------------


def build_compression(phi: LaurentPoly, setting: CompressionSetting) -> OperatorMatrix:
    """Matrix of f -> P_beta W_k(phi f) on the chosen bases, from phi over the
    windows k n - T_alpha..k n, n <= T_beta, that reach a kept coefficient,
    folded onto the stride s = min(k, T_alpha + 1).  Between two Blaschke
    bases within the table's budget the matrix is sum_f phi_f U_(z^f), one
    product of the folded phi with the rows of the setting's
    `operator('table')`, which the second build forms; the first build on a
    setting takes `_compress`, as a setting past the budget does.
    Elsewhere the bases enter `_compress` as their `rows_operand`s, so an
    exact side forms no rows: on z^N -> z^M entry (i, j) is the term s i - j
    of the folded phi, a gather, and into an exact beta the kept
    coefficients are placed."""
    src, dst, k = setting.basis_alpha.rows_operand, setting.basis_beta.rows_operand, setting.k
    s = min(k, src.shape[1])
    w, start = _clip(phi, src.shape[1], k, s, 0, dst.shape[1] - 1)
    table = setting.operator("table")
    if table is None:
        return setting.matrix(_compress(w, start, src, s, dst))
    at = start + src.shape[1] - 1  # the row of z^start
    return setting.matrix((w @ table[at : at + len(w)]).reshape(dst.shape[0], src.shape[0]))


# -- exact settings --------------------------------------------------------
# On z^N -> z^M, of any constants, S is the coordinate shift, F and G select
# coordinates and C is c J, so the defect, its fit and the conjugation
# sandwich are slices of U, with no operand.


class _Slices(NamedTuple):
    """One variant's defect and fit on a setting where both bases are exact
    (`Frames.slices`), as index arithmetic on U.  The shifts
    leave out one row and s = min(k, N) columns of the defect, which are
    the frames': F is e_0 against S_beta and c_beta e_(M-1), C_beta e_0,
    against S_beta^*; G is the first s columns of the identity against
    S_alpha^{*k}, and c_alpha times the last s reversed, C_alpha's, against
    S_alpha^k.  In C order entry (i, j) of U is i N + j, so the shifts move
    every entry by one `step`: the defect is one copy of U and one
    contiguous difference, with the columns of G, where that difference
    wraps from row to row, put back.  That gives the bits of the 2-D
    strided difference of blocks, D[1:, s:] -= U[:-1, :N-s] for t35, which
    numpy 2.4 takes 11 us over on 48 x 64 against 6.5 us for this form.
    chi^H is then F's row of D, Z the columns of G, and the residual the
    block that the frames leave out.

    U may be a stack (t, M, N) on the leading axis, whose t matrices each
    take the operations of a 2-D U: on the unit matrices (`_units`) the
    outputs form the fit's matrix (`CompressionSetting.operator`, 'fit')."""

    block: tuple  # (rows, columns) the frames leave out
    rows: tuple  # (to, from) of the beta shift
    step: int  # +-s for the alpha shift, and +-N for the beta one unless cross
    cross: bool  # D is the difference of the one-sided shifts
    row: int  # F's nonzero entry
    columns: slice  # G's columns
    frame: slice  # G's columns, in the order of the psi_j
    scale: complex | None  # c_alpha of a conjugated G; None for 1

    @classmethod
    def of(cls, setting: CompressionSetting, variant: str) -> "_Slices":
        down, right = _SHIFTS[variant]
        cross = down != right
        m, n = setting.basis_beta.dim, setting.basis_alpha.dim
        s = min(setting.k, n)
        rows = (slice(1, None), slice(0, m - 1)) if down else (slice(0, m - 1), slice(1, None))
        step = (s if right else -s) + (0 if cross else n if down else -n)
        if right:
            columns = frame = slice(0, s)
        else:
            columns, frame = slice(n - s, n), slice(n - 1, n - 1 - s if s < n else None, -1)
        scale = None if right or setting.alpha.constant == 1 else setting.alpha.constant
        return cls((rows[0], slice(s, None) if right else slice(0, n - s)), rows, step, cross,
                   0 if down else m - 1, columns, frame, scale)

    def defect(self, M: np.ndarray) -> np.ndarray:
        """`defect` of M, with the values of the dense products."""
        M = np.ascontiguousarray(M)
        if self.cross:  # the beta side, then the alpha side taken off
            D = np.zeros(M.shape, dtype=complex)
            D[..., self.rows[0], :] = M[..., self.rows[1], :]
        else:
            D = M.copy()
        kept = D[..., self.columns].copy() if self.cross else M[..., self.columns]
        flat, entries, step = D.reshape(*M.shape[:-2], -1), M.reshape(*M.shape[:-2], -1), self.step
        if step > 0:
            flat[..., step:] -= entries[..., :-step]
        else:
            flat[..., :step] -= entries[..., -step:]
        D[..., self.columns] = kept
        return D

    def fit(self, D: np.ndarray, frames: Frames) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """chi^H, Z and the entries of the residual of `membership`'s fit of
        D.  R = D - F chi^H differs from D in F's row alone, and Z G^H puts
        the columns of G back, so the residual is the block."""
        row, frame = self.row, self.frame
        chi_conj = frames.F_conj[row] * D[..., row, :] / frames.norm2
        Z = D[..., frame].copy() if self.scale is None else self.scale * D[..., frame]
        rest = D[..., row, frame] - frames.F[row] * chi_conj[..., frame]
        Z[..., row, :] = rest if self.scale is None else self.scale * rest
        return chi_conj, Z, D[(..., *self.block)].reshape(*D.shape[:-2], -1)


def _sandwich(M: np.ndarray, setting: CompressionSetting) -> np.ndarray:
    """C_beta conj(M) conj(C_alpha) on a setting where both bases are exact,
    C = c J: conj(M) reversed both ways, times c_beta and then conj(c_alpha)
    where they are not 1, as the index maps multiply; a view of one fresh
    array when both are 1."""
    cb, ca = setting.beta.constant, setting.alpha.constant
    V = M.conj()[::-1]
    if cb != 1:
        V = cb * V
    if ca != 1:
        V = ca.conjugate() * V
    return V[:, ::-1]


# -- defect operators ------------------------------------------------------


def _entries(U: OperatorMatrix, setting: CompressionSetting) -> np.ndarray:
    """U's entries, refused when U belongs to another pair of model spaces."""
    if (U.alpha, U.beta) != (setting.alpha, setting.beta):
        raise ValueError("matrix belongs to another pair of model spaces than the setting")
    return U.entries


def defect(U: OperatorMatrix, setting: CompressionSetting, variant: str = "t35") -> np.ndarray:
    """The shift combination whose low-rank structure decides membership:
    U - S_beta U S_alpha^{*k} (t35), U - S_beta^* U S_alpha^k (c38),
    S_beta^* U - U S_alpha^{*k} (c310a) or S_beta U - U S_alpha^k (c310b):
    the two sides from the variant's choices (`_SHIFTS`).  Where both bases
    are exact it is one copy of U, or of its rows moved, and one contiguous
    difference (`Frames.slices`).  Otherwise each side takes the route of
    its own basis (`ModelSpaceBasis.shift_operands`): on an exact basis the
    shift moves entries by index, with no product; on a Blaschke basis it
    is the product with the cached dense S_beta or S_alpha^k and their
    adjoints."""
    M = _entries(U, setting)
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if setting.exact:
        return setting.frames(variant).slices.defect(M)
    return _product_defect(M, setting, variant)


def _product_defect(M: np.ndarray, setting: CompressionSetting, variant: str) -> np.ndarray:
    """`defect` by the products with the shift operands, of one matrix or of
    a leading stack of them, which an index map multiplies with no dense form."""
    down, right = _SHIFTS[variant]
    Sb, Sb_adj, Sa, Sa_adj = setting.shift_operands
    beta, alpha = Sb if down else Sb_adj, Sa_adj if right else Sa
    if down != right:
        return beta @ M - M @ alpha
    return M - beta @ M @ alpha


def assemble_defect(dec: DefectDecomposition, setting: CompressionSetting) -> np.ndarray:
    """Matrix of frame_beta (x) chi + sum_j psi_j (x) frame_alpha_j, the
    sum as one product Psi G^H, Psi's columns the psi_j; a part past the
    frame's columns meets a zero G_j and is left out."""
    frames = setting.frames(dec.variant)
    return np.outer(frames.F, dec.chi.conjugate()) + np.array(dec.psis[: len(frames.G_adj)]).T @ frames.G_adj


def defect_from_symbol(phi: LaurentPoly, setting: CompressionSetting) -> DefectDecomposition:
    """Closed-form decomposition of the defect of a symbol-built compression:
    chi = P_alpha conj(phi) and psi_j = S_beta P_beta W_k(z^(j-k) phi) for
    j < _used, the compression of z^-k phi from the span of 1, ..., z^(used-1)
    into K_beta.  Only phi over -T_alpha..0 and k n + 1 - used..k n,
    1 <= n <= T_beta + 1, is read, the latter folded onto the stride used:
    the span of 1, ..., z^(used-1) has the identity rows, from which
    `_compress` gathers."""
    ba, bb, k = setting.basis_alpha, setting.basis_beta, setting.k
    chi = ba.rows_operand.conj() @ phi.to_array(-ba.truncation_order, 0)[::-1].conj()
    used = _used(setting)
    c, lo = _clip(phi, used, k, used, 1, bb.truncation_order + 1)
    psis = setting.shift_operands[0] @ _compress(c, lo - used, _IndexMap((used, used)), used, bb.rows_operand)
    return DefectDecomposition(chi=chi, psis=list(psis.T), variant="t35")


# -- membership ------------------------------------------------------------


@np.errstate(over="ignore", invalid="ignore")  # what overflows is refused below, not warned of
def membership(
    U: OperatorMatrix,
    setting: CompressionSetting,
    variant: str = "t35",
    tol: float = DEFAULT_MEMBERSHIP_TOL,
) -> MembershipReport:
    """Best fit of the defect D by F chi^H + Psi G^H, in closed form.

    F is the variant's frame vector in K_beta and G the dim K_alpha x
    min(k, T_alpha + 1) matrix of its frame in K_alpha
    (`CompressionSetting.frames`).  chi = conj(F^H D) / ||F||^2 takes the
    P_F D part, and Z = R (G^+)^H, with the setting's pseudo-inverse of G,
    is the minimum-norm least-squares solution of Z G^H = R for the
    remainder R = D - F chi^H; the psi_j are the rows of Z^T, so F^H Psi = 0
    and the residual is ||R - Z G^H||_F = ||(I - P_F) D (I - P_G)||_F.

    The fit takes one of three routes.  D, chi^H, Z and the entries E of
    the residual are linear in U, so where their matrix L (the setting's
    `operator('fit', variant)`, which the next two routes form) has
    at most OPERATOR_ENTRIES entries they are one product of it with
    vec(U): within rounding of the products, and with the slices' bits
    where both bases are exact with constant 1, as its entries are then 0
    and +-1.  The variant's first fit on a setting forms no matrix, and
    its second forms it, so a one-shot fit takes the next two routes.
    Past the cut, and on that first fit, where the frames carry `slices`
    (both bases exact),
    chi, Z and the residual are slices of D, with the products' values:
    chi^H is a row of D, Z its frame columns, and the residual the norm of
    the block that the frames leave out.  Elsewhere they are the products
    with the shift operands and with the adjoints cached with the frames
    (`_product_fit`), so no conjugate transpose is formed per call.  The
    matrix is a member when the residual is at most tol * max(1, ||D||_F),
    for a finite tol > 0; a residual or ||D||_F that is not finite, from
    entries whose squares overflow, is refused with FloatingPointError.
    """
    if not 0 < tol < np.inf:  # also rejects NaN
        raise ValueError("tolerance must be positive and finite")
    frames = setting.frames(variant)
    M = _entries(U, setting)
    if (L := setting.operator("fit", variant)) is not None:
        (m, n), mn = M.shape, M.size
        z = mn + n + m * len(frames.G_adj)
        out = L @ M.ravel()
        D, chi_conj, Z, E = out[:mn], out[mn : mn + n], out[mn + n : z].reshape(m, -1), out[z:]
    elif frames.slices is not None:
        D = frames.slices.defect(M)
        chi_conj, Z, E = frames.slices.fit(D, frames)
    else:
        D, chi_conj, Z, E = _product_fit(M, setting, variant)
    residual = math.sqrt(np.vdot(E, E).real)
    # numpy.linalg.norm(D) term for term, so the threshold is tol times it exactly.
    d = D.ravel(order="K")
    norm = math.sqrt(d.real.dot(d.real) + d.imag.dot(d.imag))
    if not (math.isfinite(residual) and math.isfinite(norm)):
        raise FloatingPointError(f"the defect's norm {norm} or the fit's residual {residual} is not finite")
    effective = tol * max(1.0, norm)
    return MembershipReport(
        member=residual <= effective,
        residual=residual,
        decomposition=DefectDecomposition(chi=chi_conj.conj(), psis=list(Z.T), variant=variant),
        tolerance=tol,
        effective_tolerance=effective,
        defect_norm=norm,
        source=U,
    )


def _product_fit(M: np.ndarray, setting: CompressionSetting, variant: str) -> tuple:
    """D, chi^H, Z and E = R - Z G^H of `membership`'s fit by the products
    with the frames, of one matrix or of a leading stack of them (the unit
    matrices that form the fit's operator, `CompressionSetting._form_fit`)."""
    F, norm2, F_conj, G_adj, G_pinv_adj, _ = setting.frames(variant)
    D = _product_defect(M, setting, variant)
    chi_conj = F_conj @ D / norm2
    R = D - F[:, None] * chi_conj[..., None, :]
    Z = R @ G_pinv_adj
    return D, chi_conj, Z, R - Z @ G_adj


# -- symbol recovery -------------------------------------------------------


def recover_symbol(report: MembershipReport, setting: CompressionSetting) -> LaurentPoly:
    """A symbol whose compression reproduces the reported matrix.

    There is one route, t35's interpolation, with at most
    n + (m - 1) min(k, n) terms, which reads only the first columns of the
    bases' rows; a report of any other variant refits t35 on its source
    matrix first.  Coefficient-level
    agreement with any originally used symbol is not promised; symbols are
    never unique.
    """
    if not report.member:
        raise NonMemberError(
            f"matrix is not a member (residual {report.residual:.3e} > "
            f"tolerance {report.effective_tolerance:.3e})"
        )
    if report.variant != "t35":
        base = membership(report.source, setting, "t35", report.tolerance)
        if not base.member:
            raise NonMemberError("base-variant fit rejected the matrix")
        return recover_symbol(base, setting)

    # conj(g) + sum_j p_j(z^k) z^-j, g and p_j the polynomials of degree
    # below the dimension with the projections chi and psi_j: they differ
    # from those by terms of alpha H^2 and beta H^2, and conj(alpha H^2)
    # and z^-j beta(z^k) H^2, j < k, compress to 0.  Parts past
    # j = dim K_alpha are first folded onto the others.  On z^N, g = chi
    # and p_j = psi_j.  Block n holds frequencies k n - used + 1..k n,
    # and frequency k n - j sits at used n + used - 1 - j.  With used < k,
    # used is dim K_alpha and conj(g) is block 0.
    ba, dec = setting.basis_alpha, report.decomposition
    inv_a, inv_b, fold = setting.interpolation
    psis = np.array(dec.psis)
    if fold is not None:
        psis = psis[: ba.dim] + fold @ psis[ba.dim :]
    g = dec.chi if inv_a is None else inv_a @ dec.chi
    parts = psis.T if inv_b is None else inv_b @ psis.T  # row n, column j: coefficient n of p_j
    used = parts.shape[1]
    head = g[::-1].conj(), 1 - len(g)
    tail = parts[:, ::-1].reshape(-1), 1 - used
    return _place(*_sum(head, tail), used, setting.k, 1 - used)


# -- canonical symbols and zero tests --------------------------------------


def canonical_symbol(
    phi: LaurentPoly, setting: CompressionSetting, which: str = "first"
) -> LaurentPoly:
    """Equivalent symbol drawn from the canonical subspace.

    'first' projects onto conj(K_alpha) + K_{beta(z^k)}; 'second' onto
    conj(K_alpha) + z^{-(k-1)} K_{beta(z^k)}.  The compression matrix is
    unchanged either way.
    """
    if which not in ("first", "second"):
        raise ValueError(f"unknown canonical form {which!r}")
    shift = 0 if which == "first" else setting.k - 1
    return LaurentPoly.from_array(*_reduced(phi.to_array(*_window(setting, shift)), setting, shift))


def zero_test_sufficient(
    phi: LaurentPoly, setting: CompressionSetting, which: str = "p22"
) -> bool:
    """Sufficient symbol-space test for the zero operator.

    Decides membership of phi in conj(alpha H^2) + beta(z^k) H^2 ('p22') or
    conj(alpha H^2) + z^{-(k-1)} beta(z^k) H^2 ('p27').  True implies the
    compression matrix vanishes; false does not imply it doesn't.  The
    residue of the test is linear in phi over `_window`: from the setting's
    second test of a shift on, within OPERATOR_ENTRIES, it is one product
    with the setting's `operator('zero', shift)`; the first test, and
    every one past the cut, runs the projector on phi's window (`_residue`).
    """
    if which not in ("p22", "p27"):
        raise ValueError(f"unknown zero test {which!r}")
    shift = 0 if which == "p22" else setting.k - 1
    w = phi.to_array(*_window(setting, shift))
    Z = setting.operator("zero", shift)
    parts = _residue(w[:, None], setting, shift) if Z is None else (Z @ w,)
    residue = math.sqrt(sum(np.vdot(p, p).real for p in parts))

    tol = setting.tol() * max(1.0, phi.norm())
    if residue > tol:
        return False
    built = build_compression(phi, setting)
    if built.norm() > tol * 100:
        raise RuntimeError(
            "zero-symbol test accepted a symbol whose matrix is nonzero; "
            "this indicates a backend accuracy problem"
        )
    return True


def _residue(w: np.ndarray, setting: CompressionSetting, shift: int) -> tuple[np.ndarray, ...]:
    """The parts of the zero test's residue: what of `_reduced` no ambiguity
    direction absorbs, T_alpha + 1 + k (T_beta + 1) entries in all.  w
    holds symbols over `_window`, one per column, and each part keeps that
    column axis last.  phi's window as one column is the test of phi; on
    np.eye(W) the parts, stacked, are the matrix Z of
    `CompressionSetting._form_zero`, the residue of each frequency."""
    ba, k = setting.basis_alpha, setting.k
    ta = ba.truncation_order
    rhs, lo = _reduced(w, setting, shift)

    # The split is ambiguous on frequencies -shift..0, which either summand
    # can absorb; minimize the residue over that window.  Direction t is
    # z^-t kappa(z^k) - conj(P_alpha z^t), kappa = P_beta 1: column shift - t
    # of the polyphase array of rhs from frequency -shift, and for t < reach
    # also frequency -t of the alpha window -T_alpha..0.  Each later one is
    # alone in its column.  The first reach, each cut to its component along
    # kappa[1:], are the block X = [kappa_0 E - rows^H G; ||kappa[1:]|| I] on
    # (window, along), G = rows[:, :reach].  As rows rows^H = I, X^H X is
    # c I + gamma G^H G, c = ||kappa||^2, gamma = 1 - 2 Re kappa_0: with
    # G^H G = W W^H, W = V S from the SVD of G (dim K_alpha x reach), X's
    # squared singular values are c + gamma s_i^2, summed here from terms
    # >= 0 so that they do not cancel, and c on the complement of G's row
    # space, and (X^H X)^-1 = (I - gamma W (c + gamma S^2)^-1 W^H) / c.  So
    # the residue b - X (X^H X)^+ X^H b forms no block.  On an exact alpha G
    # selects coordinates: every s_i is 1, with no SVD, and c + gamma is
    # |kappa_0 - 1|^2 + ||kappa[1:]||^2.  The rank cut is that of least
    # squares on all directions at once: one relative to the block keeps its
    # rounding noise when every direction in it vanishes.  ||kappa|| >=
    # kappa_0 = 1 - |beta(0)|^2 is never under it; a direction that is gets
    # weight 0, its gamma s_i^2 cancelling the 1 / c.
    kappa = setting.kappa
    k0, out = complex(kappa[0]), float(np.linalg.norm(kappa[1:]))
    c, gamma = abs(k0) ** 2 + out**2, 1 - 2 * k0.real
    reach = min(shift, ta) + 1
    cols = rhs[-shift - lo :].reshape(-1, k, rhs.shape[1])
    near, far = cols[1:, shift + 1 - reach : shift + 1][:, ::-1], cols[:, : shift + 1 - reach]
    unit = kappa[1:] / out if out else kappa[1:]
    along = (near.T @ unit.conj()).T
    window = rhs[-lo - ta : 1 - lo][::-1]  # from frequency 0 down
    rows, G = ba.rows_operand, ba.frame_operands(reach)[0].conj()
    if ba.exact:
        s2, W = np.ones(reach), _IndexMap((reach, reach))
    else:
        _, s, vh = np.linalg.svd(G, full_matrices=False)
        s2, W = s * s, vh.conj().T * s
    lam = abs(k0 - s2) ** 2 + s2 * (1 - s2) + out**2
    top = max(lam.max(), c if reach > len(s2) or far.size else 0.0)
    cut = np.finfo(float).eps * len(rhs) * math.sqrt(top)
    y = k0.conjugate() * window[:reach] - G.conj().T @ (rows @ window) + out * along
    diag = np.where(lam > cut**2, lam, gamma * s2)
    x = (y - gamma * (W @ ((W.conj().T @ y) / diag[:, None]))) / c
    fitted = window + rows.conj().T @ (G @ x)
    fitted[:reach] -= k0 * x
    far = far - np.multiply.outer(kappa, (far.T @ kappa.conj()).T) / c
    return fitted, along - out * x, near - np.multiply.outer(unit, along), far, cols[:, shift + 1 :]


# -- conjugation intertwining ----------------------------------------------


def conjugate_symbol(phi: LaurentPoly, setting: CompressionSetting) -> LaurentPoly:
    """The symbol conj(alpha phi z^(k-1)) beta(z^k) of the conjugation sandwich
    of a symbol-built compression, from phi over the windows its matrix reads."""
    ba, bb, k = setting.basis_alpha, setting.basis_beta, setting.k
    ea, width = ba.inner_expansion, ba.truncation_order + 1
    # Block n of alpha phi holds frequencies k n + t, -T_alpha <= t < len(ea):
    # at the stride s of that width they stay apart, and z^s stands for z^k.
    s = min(k, width + len(ea) - 1)
    w, lo = _clip(phi, width, k, s, 0, bb.truncation_order)
    prod = np.convolve(ea, w)  # frequencies lo, lo + 1, ...
    # z^(1 - s) q beta(z^s) with q = conj(alpha phi) from frequency q_lo, in
    # blocks of s from frequency 2 - len(ea).
    q, q_lo = prod[::-1].conj(), 1 - lo - len(prod)
    return _place(_times_stretched(q, bb.inner_expansion, s), q_lo + 1 - s, s, k, 2 - len(ea))


def conjugate_operator(
    setting: CompressionSetting,
    phi: LaurentPoly | None = None,
    U: OperatorMatrix | None = None,
) -> tuple[OperatorMatrix, LaurentPoly | None]:
    """Sandwich C_beta U C_alpha, the matrix C_beta conj(U) conj(C_alpha);
    also transforms the symbol when given one.  On an exact basis (every
    zero at the origin) C is c J, so its side reverses the entries and
    multiplies them by c: where both bases are exact that is one reversed
    conjugate of U (`_sandwich`), which rounds (c_beta conj(x)) conj(c_alpha),
    bits the tests pin, where the operator K below would round (c_beta
    conj(c_alpha)) conj(x); so K is never read there.  Elsewhere the
    sandwich is linear in conj(U): within OPERATOR_ENTRIES it is one product
    of the setting's `operator('sandwich')` with conj(vec U), within rounding
    of the products, from the setting's second sandwich on, which forms it;
    the first, and every one past the cut, is the products
    (`_product_sandwich`) with each side's `ModelSpaceBasis.conjugation_operand`,
    the dense conjugation matrix on a Blaschke basis and an index map on an
    exact one."""
    if (phi is None) == (U is None):
        raise ValueError("provide exactly one of phi or U")
    psi = None
    if phi is not None:
        U = build_compression(phi, setting)
        psi = conjugate_symbol(phi, setting)
    M = _entries(U, setting)
    if setting.exact:
        return setting.matrix(_sandwich(M, setting)), psi
    K = setting.operator("sandwich")
    if K is None:
        return setting.matrix(_product_sandwich(M, setting)), psi
    return setting.matrix((K @ M.conj().ravel()).reshape(M.shape)), psi


def _product_sandwich(M: np.ndarray, setting: CompressionSetting) -> np.ndarray:
    """C_beta conj(M) conj(C_alpha) by the products with the conjugation
    operands, of one matrix or of a leading stack of them (`_product_defect`)."""
    return setting.basis_beta.conjugation_operand @ M.conj() @ setting.basis_alpha.conjugation_operand.conj()


# -- rank-one constructors -------------------------------------------------


def rank_one(
    setting: CompressionSetting, l: int, kind: str = "tilde_k"
) -> tuple[OperatorMatrix, LaurentPoly]:
    """The two families of rank-one members, with their symbols: l! F G_l^H
    of the c310a frames, C_beta k_0^beta (x) k_l^alpha ('tilde_k'), or of the
    c310b frames, k_0^beta (x) C_alpha k_l^alpha ('k_tilde').  The frames end
    at T_alpha, past which a symbol no longer compresses to its matrix, so
    l > T_alpha is refused, unless alpha is exact (z^N, where both are 0).
    Only row l of G^H is read: on an exact alpha a unit vector, times conj(c)
    for c310b, with no dense frame."""
    k = setting.k
    if not 0 <= strict_int(l, "index l") < k:
        raise ValueError(f"index l={l} out of range 0..{k - 1}")
    if kind not in ("tilde_k", "k_tilde"):
        raise ValueError(f"unknown rank-one kind {kind!r}")
    ba, bb = setting.basis_alpha, setting.basis_beta
    frames = setting.frames("c310a" if kind == "tilde_k" else "c310b")
    if l >= len(frames.G_adj) and not ba.exact:
        raise TruncationError(
            f"index l={l} is past alpha's truncation order {ba.truncation_order}: "
            "its symbol would not compress to its matrix"
        )
    scale = derivative_scale(l)
    row = frames.G_adj[l] if l < len(frames.G_adj) else np.zeros(ba.dim, dtype=complex)
    if kind == "tilde_k":
        # l! beta(z^k) z^-(l + k)
        symbol = _place(bb.inner_expansion * scale, -(l + 1), 1, k, -l)
    else:
        # l! conj(alpha) z^(l + 1)
        ea = ba.inner_expansion
        symbol = LaurentPoly.from_array(ea[::-1].conj() * scale, l + 2 - len(ea))
    return setting.matrix(np.outer(frames.F, scale * row)), symbol


__all__ = [
    "OperatorMatrix",
    "DefectDecomposition",
    "MembershipReport",
    "Frames",
    "CompressionSetting",
    "NonMemberError",
    "VARIANTS",
    "DEFAULT_MEMBERSHIP_TOL",
    "build_compression",
    "defect",
    "defect_from_symbol",
    "assemble_defect",
    "membership",
    "recover_symbol",
    "canonical_symbol",
    "zero_test_sufficient",
    "conjugate_symbol",
    "conjugate_operator",
    "rank_one",
]
