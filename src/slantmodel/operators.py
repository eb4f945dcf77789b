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
    InnerFunction,
    ModelSpaceBasis,
    TruncationError,
    _compress,
    _Identity,
    coeff_json,
    complex_pairs,
    derivative_scale,
)

VARIANTS = ("t35", "c38", "c310a", "c310b")
DEFAULT_MEMBERSHIP_TOL = 1e-9


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
    # Source matrix kept for recovery routes; not part of the JSON schema.
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
    every array read-only: what `membership`, `assemble_defect` and `rank_one` read.
    On an exact alpha G_adj and G_pinv_adj are column selections
    (`ModelSpaceBasis.frame_operands`): right operands of `@` whose rows
    can be read one by one, with no dense matrix."""

    F: np.ndarray
    norm2: float
    F_conj: np.ndarray
    G_adj: np.ndarray
    G_pinv_adj: np.ndarray


class CompressionSetting:
    """The bases of a fixed (alpha, beta, k) triple, and the constants of the
    membership fit: S_alpha^k and, per variant, the frames; and per shift
    the block of the zero test.  The bases give their compressed shifts and
    conjugations as operands of `@` (`ModelSpaceBasis.shift_operands`,
    `conjugation_operand`): index maps on an exact basis, with no dense
    matrix, so S_alpha^k and its adjoint are formed and cached as matrices
    for a Blaschke alpha only (`shift_operands`).
    These constants are computed on first use, once, and are read-only, so
    no caller can leave them stale; a build forms none of them.

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
        self._frames = {}
        self._zero_tests = {}

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
        `ModelSpaceBasis.frame_operands`: on an exact alpha column selections
        of the identity, reversed and times c for C_alpha, so the fit's
        products with them are slices, with no dense N x N matrix at k >= N."""
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        if variant not in self._frames:
            ba, bb = self.basis_alpha, self.basis_beta
            F = bb.first_columns(1)[:, 0].conj()
            if variant in ("c38", "c310a"):
                F = bb.conjugate_vector(F)
            G, G_adj = ba.frame_operands(_used(self), variant in ("c38", "c310b"))
            # On an exact basis G^H is G's pseudo-inverse, with no Gram.
            G_pinv_adj = G if ba.exact else _frozen(_pinv(G).conj().T)[0]
            F, F_conj = _frozen(F, F.conj())
            self._frames[variant] = Frames(F, float(np.vdot(F, F).real), F_conj, G_adj, G_pinv_adj)
        return self._frames[variant]

    def zero_test_block(self, shift: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """kappa = P_beta 1 as coefficients, and U and sigma of the SVD of the
        block of `zero_test_sufficient` for this shift: column t < min(shift,
        T_alpha) + 1 holds kappa[0] e_t - conj(P_alpha z^t) at the frequencies
        0 down to -T_alpha, then ||kappa[1:]|| e_t."""
        if shift not in self._zero_tests:
            ba, bb = self.basis_alpha, self.basis_beta
            ta = ba.truncation_order
            reach = min(shift, ta) + 1
            kappa = bb.first_columns(1)[:, 0].conj() @ bb.rows_operand
            out = np.linalg.norm(kappa[1:])
            near = ba.rows_operand.conj().T @ ba.first_columns(reach)
            block = np.vstack([kappa[0] * np.eye(ta + 1, reach) - near, out * np.eye(reach)])
            u, sv, _ = np.linalg.svd(block, full_matrices=False)
            self._zero_tests[shift] = _frozen(kappa, u, sv)
        return self._zero_tests[shift]

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

    @property
    def exact(self) -> bool:
        """True when both bases are exact (`ModelSpaceBasis.exact`); no rows are read."""
        return self.basis_alpha.exact and self.basis_beta.exact

    def tol(self) -> float:
        return EXACT_TOL if self.exact else BLASCHKE_TOL

    def matrix(self, entries) -> OperatorMatrix:
        return OperatorMatrix(entries, self.alpha, self.beta)


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


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
    """The pseudo-inverse of G.  That is G^H when the smaller of G G^H and
    G^H G is exactly the identity; otherwise it comes from one SVD, with the
    rank cut of lstsq(rcond=None): singular values <= eps max(G.shape)
    sigma_1 are dropped."""
    adjoint = G.conj().T
    gram = G @ adjoint if G.shape[0] <= G.shape[1] else adjoint @ G
    if np.array_equal(gram, np.eye(len(gram))):
        return adjoint
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
    """The (coeffs, lo) parts added into one array over the union of their windows."""
    lo = min(p_lo for _, p_lo in parts)
    hi = max(p_lo + len(c) for c, p_lo in parts)
    out = np.zeros(hi - lo, dtype=complex)
    for c, p_lo in parts:
        out[p_lo - lo : p_lo - lo + len(c)] += c
    return out, lo


def _head(coords: np.ndarray, basis: ModelSpaceBasis) -> tuple[np.ndarray, int]:
    """conj(f) on the circle for f with these coordinates: frequencies -T..0."""
    return (coords @ basis.rows_operand)[::-1].conj(), -basis.truncation_order


def _used(setting: CompressionSetting) -> int:
    """How many psi_j count: psi_j only meets the frame through the Taylor
    coefficient of order j in K_alpha, which vanishes past the alpha row
    length.  That is k, with no need for T, for k <= least_order + 1."""
    ba, k = setting.basis_alpha, setting.k
    return k if k <= ba.least_order + 1 else min(k, ba.truncation_order + 1)


def _reduced(phi: LaurentPoly, setting: CompressionSetting, shift: int) -> tuple[np.ndarray, int]:
    """conj(P_alpha f) + z^-shift P_{beta(z^k)}(z^shift g) for phi = conj(f) + g,
    f from the frequencies <= 0 and g from those >= 1: frequencies
    -max(T_alpha, shift)..k (T_beta + 1) - 1 - shift, beta(z^k) truncated
    with beta.  Only phi over that window is read."""
    ba, bb, k = setting.basis_alpha, setting.basis_beta, setting.k
    ta = ba.truncation_order
    lo = -max(ta, shift)
    w = phi.to_array(lo, k * (bb.truncation_order + 1) - 1 - shift)
    f = w[-lo - ta : 1 - lo][::-1].conj()
    w[-shift - lo : 1 - lo] = 0  # leaves z^shift g from frequency 0
    head = _head(ba.rows_operand.conj() @ f, ba)
    return _sum(head, (bb.stretched_projection(w[-shift - lo :], k), -shift))


# -- builders --------------------------------------------------------------


def build_compression(phi: LaurentPoly, setting: CompressionSetting) -> OperatorMatrix:
    """Matrix of f -> P_beta W_k(phi f) on the chosen bases, from phi over the
    windows k n - T_alpha..k n, n <= T_beta, that reach a kept coefficient,
    folded onto the stride s = min(k, T_alpha + 1).  The bases enter
    `_compress` as their `rows_operand`s, so an exact side forms no rows:
    on z^N -> z^M entry (i, j) is the term s i - j of the folded phi, a
    gather, and into an exact beta the kept coefficients are placed."""
    src, dst, k = setting.basis_alpha.rows_operand, setting.basis_beta.rows_operand, setting.k
    s = min(k, src.shape[1])
    window = _clip(phi, src.shape[1], k, s, 0, dst.shape[1] - 1)
    return setting.matrix(_compress(*window, src, s, dst))


# -- defect operators ------------------------------------------------------


def defect(U: OperatorMatrix, setting: CompressionSetting, variant: str = "t35") -> np.ndarray:
    """The shift combination whose low-rank structure decides membership:
    U - S_beta U S_alpha^{*k} (t35), U - S_beta^* U S_alpha^k (c38),
    S_beta^* U - U S_alpha^{*k} (c310a) or S_beta U - U S_alpha^k (c310b).
    Each side takes the route of its own basis
    (`ModelSpaceBasis.shift_operands`): on an exact basis (every zero at the
    origin) the shift moves entries by index, with no product; on a Blaschke
    basis it is the product with the cached dense S_beta or S_alpha^k and
    their adjoints."""
    if (U.alpha, U.beta) != (setting.alpha, setting.beta):
        raise ValueError("matrix belongs to another pair of model spaces than the setting")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    M, (Sb, Sb_adj, Sa, Sa_adj) = U.entries, setting.shift_operands
    if variant == "t35":
        return M - Sb @ M @ Sa_adj
    if variant == "c38":
        return M - Sb_adj @ M @ Sa
    if variant == "c310a":
        return Sb_adj @ M - M @ Sa_adj
    return Sb @ M - M @ Sa


def assemble_defect(dec: DefectDecomposition, setting: CompressionSetting) -> np.ndarray:
    """Matrix of frame_beta (x) chi + sum_j psi_j (x) frame_alpha_j."""
    frames = setting.frames(dec.variant)
    out = np.outer(frames.F, dec.chi.conjugate())
    for psi, g_adj in zip(dec.psis, frames.G_adj):
        out = out + np.outer(psi, g_adj)
    return out


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
    psis = setting.shift_operands[0] @ _compress(c, lo - used, _Identity(used), used, bb.rows_operand)
    return DefectDecomposition(chi=chi, psis=list(psis.T), variant="t35")


# -- membership ------------------------------------------------------------


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
    and the residual is ||R - Z G^H||_F = ||(I - P_F) D (I - P_G)||_F.  The
    products read the adjoints cached with the frames, so no conjugate
    transpose is formed per call.  The matrix is a member when the residual
    is at most tol * max(1, ||D||_F), for a finite tol > 0.
    """
    if not 0 < tol < np.inf:  # also rejects NaN
        raise ValueError("tolerance must be positive and finite")
    F, norm2, F_conj, G_adj, G_pinv_adj = setting.frames(variant)
    D = defect(U, setting, variant)
    chi_conj = F_conj @ D / norm2
    R = D - F[:, None] * chi_conj
    Z = R @ G_pinv_adj
    E = R - Z @ G_adj
    residual = math.sqrt(np.vdot(E, E).real)
    # numpy.linalg.norm(D) term for term, so the threshold is tol times it exactly.
    d = D.ravel(order="K")
    norm = math.sqrt(d.real.dot(d.real) + d.imag.dot(d.imag))
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


# -- symbol recovery -------------------------------------------------------


def recover_symbol(report: MembershipReport, setting: CompressionSetting) -> LaurentPoly:
    """A symbol whose compression reproduces the reported matrix.

    Coefficient-level agreement with any originally used symbol is not
    promised; symbols are never unique.
    """
    if not report.member:
        raise NonMemberError(
            f"matrix is not a member (residual {report.residual:.3e} > "
            f"tolerance {report.effective_tolerance:.3e})"
        )
    variant = report.variant
    if variant in ("c310a", "c310b"):
        # Mixed-defect decompositions have no direct recovery formula; reuse
        # the base variant on the same matrix.
        base = membership(report.source, setting, "t35", report.tolerance)
        if not base.member:
            raise NonMemberError("base-variant fit rejected the matrix")
        return recover_symbol(base, setting)

    ba, bb, k = setting.basis_alpha, setting.basis_beta, setting.k
    dec = report.decomposition
    if variant == "t35":
        # conj(g) + sum_j p_j(z^k) z^-j, g and p_j the polynomials of degree
        # below the dimension with the projections chi and psi_j: they differ
        # from those by terms of alpha H^2 and beta H^2, and conj(alpha H^2)
        # and z^-j beta(z^k) H^2, j < k, compress to 0.  Parts past
        # j = dim K_alpha are first folded onto the others.  On z^N, g = chi
        # and p_j = psi_j.  Block n holds frequencies k n - used + 1..k n,
        # and frequency k n - j sits at used n + used - 1 - j.  With used < k,
        # used is dim K_alpha and conj(g) is block 0.
        inv_a, inv_b, fold = setting.interpolation
        psis = np.array(dec.psis)
        if fold is not None:
            psis = psis[: ba.dim] + fold @ psis[ba.dim :]
        g = dec.chi if inv_a is None else inv_a @ dec.chi
        parts = psis.T if inv_b is None else inv_b @ psis.T  # row n, column j: coefficient n of p_j
        used = parts.shape[1]
        head = g[::-1].conj(), 1 - len(g)
        tail = parts[:, ::-1].reshape(-1), 1 - used
        return _place(*_sum(head, tail), used, k, 1 - used)

    head = _head(dec.chi, ba)
    parts = (np.array(dec.psis) @ bb.rows_operand).T  # row n, column j: coefficient n of psi_j
    used = parts.shape[1]

    # Adjoint-form decomposition: beta(z^k) conj(chi) z^-k + conj(alpha)
    # sum_j psi_j(z^k) z^(j + 1).  Block n holds frequencies
    # k n + 2 - len(ea)..k n + used, and frequency k n + j + 1 of the sum sits
    # at s n + j from 1.
    ea, eb = ba.inner_expansion, bb.inner_expansion
    s = min(k, used + len(ea) - 1)
    blocks = np.zeros((len(parts), s), dtype=complex)
    blocks[:, :used] = parts
    first = _times_stretched(head[0], eb, s), head[1] - s
    second = np.convolve(ea[::-1].conj(), blocks.reshape(-1)), 2 - len(ea)
    return _place(*_sum(first, second), s, k, 2 - len(ea))


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
    return LaurentPoly.from_array(*_reduced(phi, setting, 0 if which == "first" else setting.k - 1))


def zero_test_sufficient(
    phi: LaurentPoly, setting: CompressionSetting, which: str = "p22"
) -> bool:
    """Sufficient symbol-space test for the zero operator.

    Decides membership of phi in conj(alpha H^2) + beta(z^k) H^2 ('p22') or
    conj(alpha H^2) + z^{-(k-1)} beta(z^k) H^2 ('p27').  True implies the
    compression matrix vanishes; false does not imply it doesn't.
    """
    if which not in ("p22", "p27"):
        raise ValueError(f"unknown zero test {which!r}")
    k = setting.k
    ta = setting.basis_alpha.truncation_order
    shift = 0 if which == "p22" else k - 1
    rhs, lo = _reduced(phi, setting, shift)

    # The split is ambiguous on frequencies -shift..0, which either summand
    # can absorb; minimize the residue over that window.  Direction t is
    # z^-t kappa(z^k) - conj(P_alpha z^t), kappa = P_beta 1: column shift - t
    # of the polyphase array of rhs from frequency -shift, and for t < reach
    # also frequency -t of the alpha window -T_alpha..0.  Those directions are
    # solved with that window in one block (`CompressionSetting.zero_test_block`),
    # each column cut to its component along kappa[1:]; each later one alone in
    # its column.  The rank cut is that of least squares on all directions at
    # once: one relative to the block keeps its rounding noise when every
    # direction in it vanishes.
    kappa, u, sv = setting.zero_test_block(shift)
    reach = min(shift, ta) + 1
    cols = rhs[-shift - lo :].reshape(-1, k)
    near, far = cols[1:, shift + 1 - reach : shift + 1][:, ::-1], cols[:, : shift + 1 - reach]
    out = np.linalg.norm(kappa[1:])
    unit = kappa[1:] / out if out else kappa[1:]
    along = unit.conj() @ near
    # Rows of the block: the window from frequency 0 down, then one per near column.
    b = np.concatenate([rhs[-lo - ta : 1 - lo][::-1], along])
    whole = np.linalg.norm(kappa) if far.size else 0.0
    cut = np.finfo(float).eps * len(rhs) * max(sv[0], whole)
    u = u[:, sv > cut]
    if whole > cut:
        far = far - np.outer(kappa / whole, kappa.conj() @ far / whole)
    parts = (b - u @ (u.conj().T @ b), near - np.outer(unit, along), far, cols[:, shift + 1 :])
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
    multiplies them by c (`ModelSpaceBasis.conjugation_operand`); on a
    Blaschke basis it is the product with the dense conjugation matrix."""
    if (phi is None) == (U is None):
        raise ValueError("provide exactly one of phi or U")
    psi = None
    if phi is not None:
        U = build_compression(phi, setting)
        psi = conjugate_symbol(phi, setting)
    elif (U.alpha, U.beta) != (setting.alpha, setting.beta):
        raise ValueError("matrix belongs to another pair of model spaces than the setting")
    Ca = setting.basis_alpha.conjugation_operand
    Cb = setting.basis_beta.conjugation_operand
    sandwich = Cb @ U.entries.conjugate() @ Ca.conjugate()
    return setting.matrix(sandwich), psi


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
