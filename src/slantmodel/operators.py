"""Compression matrices of k-th order slant Toeplitz operators and their
characterization machinery: defect operators, membership tests, symbol
recovery, canonical and zero symbols, conjugation intertwining, rank-ones.

Matrix convention: rows index the target (beta) basis, columns the source
(alpha) basis, entry (i, j) = <U e_j^alpha, e_i^beta>.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial

import numpy as np

from .laurent import (
    LaurentPoly,
    conj_on_circle,
    decimate,
    strict_int,
    stretch,
)
from .model_space import (
    BLASCHKE_TOL,
    EXACT_TOL,
    InnerFunction,
    ModelSpaceBasis,
    _compress,
    coeff_json,
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
            "data": [[z.real, z.imag] for z in self.entries.reshape(-1)],
        }

    @staticmethod
    def entries_from_json(obj: dict) -> np.ndarray:
        if not isinstance(obj, dict) or not {"rows", "cols", "data"} <= set(obj):
            raise ValueError("expected an object with 'rows', 'cols' and 'data'")
        rows, cols = strict_int(obj["rows"], "'rows'"), strict_int(obj["cols"], "'cols'")
        flat = [complex(float(re), float(im)) for re, im in obj["data"]]
        if len(flat) != rows * cols:
            raise ValueError("matrix data length does not match rows*cols")
        return np.array(flat, dtype=complex).reshape(rows, cols)


@dataclass
class DefectDecomposition:
    """Right-hand side of the defect identity, F chi^H + sum_j psi_j G_j^H:
    one chi in K_alpha and psi_0..psi_{k-1} in K_beta.  Fits from
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
        }


class CompressionSetting:
    """Bases and shift matrices for a fixed (alpha, beta, k) triple.

    `truncation` is the Blaschke truncation order of the alpha and beta
    bases; the basis of beta(z^k) is stretched from beta's and inherits it.
    """

    def __init__(
        self,
        alpha: InnerFunction,
        beta: InnerFunction,
        k: int,
        truncation: int | None = None,
    ):
        k = int(k)
        if k < 1:
            raise ValueError(f"order must be >= 1, got {k}")
        self.k = k
        self.alpha = alpha
        self.beta = beta
        self.basis_alpha = ModelSpaceBasis.build(alpha, truncation)
        self.basis_beta = ModelSpaceBasis.build(beta, truncation)
        self.shift_alpha, self.shift_alpha_adj = self.basis_alpha.compressed_shift()
        self.shift_beta, self.shift_beta_adj = self.basis_beta.compressed_shift()
        self._stretched_beta_basis = None

    def stretched_beta_basis(self) -> ModelSpaceBasis:
        """Basis of the model space of beta(z^k), stretched from beta's."""
        if self._stretched_beta_basis is None:
            self._stretched_beta_basis = self.basis_beta.stretched(self.k)
        return self._stretched_beta_basis

    @property
    def exact(self) -> bool:
        """True when neither basis drops a tail: both are z^N, up to the constant."""
        return self.basis_alpha.tail_bound == self.basis_beta.tail_bound == 0.0

    def tol(self) -> float:
        return EXACT_TOL if self.exact else BLASCHKE_TOL

    def matrix(self, entries) -> OperatorMatrix:
        return OperatorMatrix(entries, self.alpha, self.beta)


# -- builders --------------------------------------------------------------


def _compress_symbol(phi: LaurentPoly, src: ModelSpaceBasis, k: int, dst: ModelSpaceBasis) -> np.ndarray:
    """The shared compression routine, with phi densified over the part of its
    support that reaches a kept coefficient: frequencies -T_src..k T_dst."""
    lo, hi = (phi.support[0], phi.support[-1]) if phi else (0, 0)
    lo = max(lo, 1 - src.rows.shape[1])
    hi = max(lo, min(hi, k * (dst.rows.shape[1] - 1)))
    return _compress(phi.to_array(lo, hi), lo, src.rows, k, dst.rows)


def build_compression(phi: LaurentPoly, setting: CompressionSetting) -> OperatorMatrix:
    """Matrix of f -> P_beta W_k(phi f) on the chosen bases."""
    return setting.matrix(_compress_symbol(phi, setting.basis_alpha, setting.k, setting.basis_beta))


def build_truncated_toeplitz(
    phi: LaurentPoly, basis_alpha: ModelSpaceBasis, basis_beta: ModelSpaceBasis
) -> np.ndarray:
    """Matrix of f -> P_beta(phi f); the k = 1 case of build_compression."""
    return _compress_symbol(phi, basis_alpha, 1, basis_beta)


def decimation_matrix(setting: CompressionSetting) -> np.ndarray:
    """Matrix of W_k from the model space of beta(z^k) into that of beta."""
    return _compress(np.ones(1), 0, setting.stretched_beta_basis().rows, setting.k, setting.basis_beta.rows)


# -- defect operators ------------------------------------------------------


def defect(U: OperatorMatrix, setting: CompressionSetting, variant: str = "t35") -> np.ndarray:
    """The shift combination whose low-rank structure decides membership."""
    if U.entries.shape != (setting.basis_beta.dim, setting.basis_alpha.dim):
        raise ValueError("matrix dimensions do not match the setting")
    M = U.entries
    Sa, Sa_adj = setting.shift_alpha, setting.shift_alpha_adj
    Sb, Sb_adj = setting.shift_beta, setting.shift_beta_adj
    k = setting.k
    if variant == "t35":
        return M - Sb @ M @ np.linalg.matrix_power(Sa_adj, k)
    if variant == "c38":
        return M - Sb_adj @ M @ np.linalg.matrix_power(Sa, k)
    if variant == "c310a":
        return Sb_adj @ M - M @ np.linalg.matrix_power(Sa_adj, k)
    if variant == "c310b":
        return Sb @ M - M @ np.linalg.matrix_power(Sa, k)
    raise ValueError(f"unknown variant {variant!r}")


def _frames(setting: CompressionSetting, variant: str):
    """Per-variant frame vectors: one in K_beta, k of them in K_alpha."""
    ba, bb, k = setting.basis_alpha, setting.basis_beta, setting.k
    k0b = bb.kernel(0, 0)
    kernels_a = [ba.kernel(0, j) for j in range(k)]
    if variant == "t35":
        return k0b, kernels_a
    if variant == "c38":
        return bb.conjugate_vector(k0b), [ba.conjugate_vector(g) for g in kernels_a]
    if variant == "c310a":
        return bb.conjugate_vector(k0b), kernels_a
    if variant == "c310b":
        return k0b, [ba.conjugate_vector(g) for g in kernels_a]
    raise ValueError(f"unknown variant {variant!r}")


def assemble_defect(dec: DefectDecomposition, setting: CompressionSetting) -> np.ndarray:
    """Matrix of frame_beta (x) chi + sum_j psi_j (x) frame_alpha_j."""
    F, Gs = _frames(setting, dec.variant)
    out = np.outer(F, dec.chi.conjugate())
    for psi, G in zip(dec.psis, Gs):
        out = out + np.outer(psi, G.conjugate())
    return out


def defect_from_symbol(phi: LaurentPoly, setting: CompressionSetting) -> DefectDecomposition:
    """Closed-form decomposition of the defect of a symbol-built compression."""
    ba, bb, k = setting.basis_alpha, setting.basis_beta, setting.k
    chi = ba.project(conj_on_circle(phi))
    psis = []
    for j in range(k):
        v = bb.project(decimate(phi * LaurentPoly.monomial(-(k - j)), k))
        psis.append(setting.shift_beta @ v / factorial(j))
    return DefectDecomposition(chi=chi, psis=psis, variant="t35")


# -- membership ------------------------------------------------------------


def membership(
    U: OperatorMatrix,
    setting: CompressionSetting,
    variant: str = "t35",
    tol: float = DEFAULT_MEMBERSHIP_TOL,
) -> MembershipReport:
    """Best fit of the defect D by F chi^H + Psi G^H, in closed form.

    F is the variant's frame vector in K_beta and G the m x k matrix of its
    frame in K_alpha.  chi = D^H F / ||F||^2 takes the P_F D part, and Psi
    solves the m x k least-squares problem G Psi^H = R^H for the remainder
    R = (I - P_F) D, so F^H Psi = 0 and the residual is
    ||(I - P_F) D (I - P_G)||_F.  The matrix is a member when the residual
    is at most tol * max(1, ||D||_F).
    """
    if not tol > 0:  # also rejects NaN
        raise ValueError("tolerance must be positive")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    D = defect(U, setting, variant)
    F, Gs = _frames(setting, variant)
    chi = D.conj().T @ F / np.vdot(F, F).real
    R = D - np.outer(F, chi.conjugate())
    # Kernels past dim K_alpha vanish, so G may have zero columns; lstsq
    # returns the minimum-norm Psi, with psi_j = 0 there.
    G = np.array(Gs).T
    Y, *_ = np.linalg.lstsq(G, R.conj().T, rcond=None)
    residual = float(np.linalg.norm(R - (G @ Y).conj().T))
    psis = list(Y.conjugate())
    effective = tol * max(1.0, float(np.linalg.norm(D)))
    return MembershipReport(
        member=residual <= effective,
        residual=residual,
        decomposition=DefectDecomposition(chi=chi, psis=psis, variant=variant),
        tolerance=tol,
        effective_tolerance=effective,
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
        # The fit leaves every psi_j orthogonal to k_0^beta, i.e. psi_j(0) = 0.
        phi = conj_on_circle(ba.reconstruct(dec.chi))
        for j in range(k):
            part = stretch(bb.reconstruct(dec.psis[j]), k) * factorial(j)
            phi = phi + part.shifted(-j)
        return phi

    # Adjoint-form decomposition: the transformed symbol needs expansions of
    # the inner functions themselves.
    beta_k = stretch(setting.basis_beta.alpha_expansion(), k)
    alpha_bar = conj_on_circle(setting.basis_alpha.alpha_expansion())
    phi = beta_k * conj_on_circle(ba.reconstruct(dec.chi)) * LaurentPoly.monomial(-k)
    for j in range(k):
        part = stretch(bb.reconstruct(dec.psis[j]), k) * factorial(j)
        phi = phi + alpha_bar * part.shifted(j + 1)
    return phi


# -- canonical symbols and zero tests --------------------------------------


def _split(phi: LaurentPoly):
    """phi = conj(f) + g with f analytic (from frequencies <= 0), g strict."""
    neg = LaurentPoly({n: c for n, c in phi.items() if n <= 0})
    pos = LaurentPoly({n: c for n, c in phi.items() if n >= 1})
    return conj_on_circle(neg), pos


def canonical_symbol(
    phi: LaurentPoly, setting: CompressionSetting, which: str = "first"
) -> LaurentPoly:
    """Equivalent symbol drawn from the canonical subspace.

    'first' projects onto conj(K_alpha) + K_{beta(z^k)}; 'second' onto
    conj(K_alpha) + z^{-(k-1)} K_{beta(z^k)}.  The compression matrix is
    unchanged either way.
    """
    ba = setting.basis_alpha
    bs = setting.stretched_beta_basis()
    k = setting.k
    f, g = _split(phi)
    head = conj_on_circle(ba.reconstruct(ba.project(f)))
    if which == "first":
        tail = bs.reconstruct(bs.project(g))
    elif which == "second":
        tail = bs.reconstruct(bs.project(g.shifted(k - 1))).shifted(-(k - 1))
    else:
        raise ValueError(f"unknown canonical form {which!r}")
    return head + tail


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
    ba = setting.basis_alpha
    bs = setting.stretched_beta_basis()
    k = setting.k
    shift = 0 if which == "p22" else k - 1
    f, g = _split(phi)
    base = conj_on_circle(ba.reconstruct(ba.project(f))) + bs.reconstruct(
        bs.project(g.shifted(shift))
    ).shifted(-shift)

    # The split is ambiguous on frequencies -shift..0, which either summand
    # can absorb; minimize the residue over that window.
    directions = []
    for t in range(shift + 1):
        d = bs.reconstruct(bs.project(LaurentPoly.monomial(shift - t))).shifted(-shift)
        d = d - conj_on_circle(ba.reconstruct(ba.project(LaurentPoly.monomial(t))))
        directions.append(d)
    ends = [n for p in (base, *directions) for n in p.support[:1] + p.support[-1:]]
    residue = 0.0
    if ends:
        lo, hi = min(ends), max(ends)
        A = np.array([d.to_array(lo, hi) for d in directions]).T
        rhs = base.to_array(lo, hi)
        x, *_ = np.linalg.lstsq(A, -rhs, rcond=None)
        residue = float(np.linalg.norm(A @ x + rhs))

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
    """The symbol of the conjugation sandwich of a symbol-built compression."""
    k = setting.k
    alpha_exp = setting.basis_alpha.alpha_expansion()
    beta_k = stretch(setting.basis_beta.alpha_expansion(), k)
    return conj_on_circle((alpha_exp * phi).shifted(k - 1)) * beta_k


def conjugate_operator(
    setting: CompressionSetting,
    phi: LaurentPoly | None = None,
    U: OperatorMatrix | None = None,
) -> tuple[OperatorMatrix, LaurentPoly | None]:
    """Sandwich C_beta U C_alpha; also transforms the symbol when given one."""
    if (phi is None) == (U is None):
        raise ValueError("provide exactly one of phi or U")
    psi = None
    if phi is not None:
        U = build_compression(phi, setting)
        psi = conjugate_symbol(phi, setting)
    Ca = setting.basis_alpha.conjugation_matrix()
    Cb = setting.basis_beta.conjugation_matrix()
    sandwich = Cb @ U.entries.conjugate() @ Ca.conjugate()
    return setting.matrix(sandwich), psi


# -- rank-one constructors -------------------------------------------------


def rank_one(
    setting: CompressionSetting, l: int, kind: str = "tilde_k"
) -> tuple[OperatorMatrix, LaurentPoly]:
    """The two families of rank-one members, with their symbols."""
    k = setting.k
    if not 0 <= l < k:
        raise ValueError(f"index l={l} out of range 0..{k - 1}")
    ba, bb = setting.basis_alpha, setting.basis_beta
    if kind == "tilde_k":
        F = bb.conjugate_vector(bb.kernel(0, 0))
        G = ba.kernel(0, l)
        beta_k = stretch(bb.alpha_expansion(), k)
        symbol = beta_k.shifted(-(l + k)) * factorial(l)
    elif kind == "k_tilde":
        F = bb.kernel(0, 0)
        G = ba.conjugate_vector(ba.kernel(0, l))
        symbol = conj_on_circle(ba.alpha_expansion()).shifted(l + 1) * factorial(l)
    else:
        raise ValueError(f"unknown rank-one kind {kind!r}")
    return setting.matrix(np.outer(F, G.conjugate())), symbol


__all__ = [
    "OperatorMatrix",
    "DefectDecomposition",
    "MembershipReport",
    "CompressionSetting",
    "NonMemberError",
    "VARIANTS",
    "DEFAULT_MEMBERSHIP_TOL",
    "build_compression",
    "build_truncated_toeplitz",
    "decimation_matrix",
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
