"""Seeded property harness re-checking every implemented identity numerically.

Each (property, space) row draws the random inputs of its trials, in turn,
from one generator derived from the suite seed and the row, so reports are
byte-identical across runs with the same configuration, and a row's first
trials do not depend on how many follow.  The reference maps `kernel`,
`stretched` and `evaluate` are the harness's own: the pipeline runs none.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import asdict, dataclass
from functools import partial
from math import factorial
from time import perf_counter

import numpy as np

from .laurent import LaurentPoly, strict_int
from .model_space import InnerFunction, ModelSpaceBasis, _compress, _IndexMap, complex_pairs, derivative_scale
from .operators import (
    CompressionSetting,
    OperatorMatrix,
    VARIANTS,
    assemble_defect,
    build_compression,
    canonical_symbol,
    conjugate_operator,
    conjugate_symbol,
    defect,
    defect_from_symbol,
    membership,
    rank_one,
    recover_symbol,
    zero_test_sufficient,
    _clip,
    _head,
    _place,
    _sum,
    _times_stretched,
)

DEFAULT_MENU = (
    (InnerFunction.monomial(4), InnerFunction.monomial(3), 2),
    (InnerFunction.monomial(4), InnerFunction.monomial(3), 5),
    (InnerFunction.monomial(3), InnerFunction.monomial(3), 2),
    (InnerFunction.blaschke([-0.3j, 0.5], cmath.exp(0.3j)), InnerFunction.monomial(3), 2),
)

# Every subject the harness must cover; the audit fails if one is missing.
REQUIRED_ANCHORS = frozenset(
    {
        "stretch-substitution",
        "stretch-multiplicative",
        "decimate-stretch-identity",
        "circle-conjugate-commutes",
        "analytic-projection-commutes",
        "multiplier-pull-through",
        "decimation-adjoint",
        "backward-shift-expansion",
        "stretch-shift-constant",
        "middle-monomial-sandwich",
        "stretched-inner",
        "projection-decimation-intertwine",
        "derivative-reproducing",
        "conjugation-involution",
        "compressed-shift",
        "slant-factorization",
        "defect-closed-form",
        "symbol-from-parts",
        "defect-characterization",
        "decimation-diagonal-pattern",
        "variant-agreement",
        "symbol-recovery",
        "adjoint-recovery",
        "recovery-orthogonality",
        "universality",
        "canonical-symbol",
        "canonical-symbol-shifted",
        "zero-symbol-sufficient",
        "zero-symbol-sufficient-shifted",
        "conjugation-intertwining",
        "conjugation-membership-invariance",
        "rank-one-membership",
        "rank-one-symbols",
        "variant-defects",
        "decomposition-assembles",
    }
)


class MenuContext:
    """One (alpha, beta, k) entry with cached bases."""

    def __init__(self, alpha: InnerFunction, beta: InnerFunction, k: int):
        self.setting = CompressionSetting(alpha, beta, k)
        self.alpha, self.beta, self.k = alpha, beta, k
        self._stretched = {}
        self._universal = None

    def stretched_basis(self, inner: InnerFunction) -> ModelSpaceBasis:
        """The basis of inner(z^k) built on the k-th roots of its zeros: the
        library never forms it, so it is an independent reference."""
        if inner not in self._stretched:
            self._stretched[inner] = ModelSpaceBasis.build(stretched(inner, self.k))
        return self._stretched[inner]

    def universal_setting(self) -> CompressionSetting:
        """The setting of order max(k, dim K_alpha), where every matrix is a member."""
        if self._universal is None:
            k = max(self.k, self.setting.basis_alpha.dim)
            self._universal = self.setting if k == self.k else CompressionSetting(self.alpha, self.beta, k)
        return self._universal

    def label(self) -> str:
        def name(inner):
            if inner.kind == "monomial":
                return f"z^{inner.degree}"
            zeros = ",".join(f"{w:.3g}" for w in inner.zeros)
            return f"B[{zeros}]" if inner.constant == 1 else f"B[{zeros}; c={inner.constant:.3g}]"

        return f"({name(self.alpha)}, {name(self.beta)}, k={self.k})"


@dataclass(frozen=True)
class PropertySpec:
    name: str
    anchor: str
    run: callable  # (rng, ctx) -> (residual, the inputs drawn)
    tol_exact: float = 1e-12
    tol_blaschke: float = 1e-8


_REGISTRY: list[PropertySpec] = []


def register(name, anchor, tol_exact=1e-12, tol_blaschke=1e-8):
    def wrap(fn):
        _REGISTRY.append(PropertySpec(name, anchor, fn, tol_exact, tol_blaschke))
        return fn

    return wrap


def registered_properties() -> list[PropertySpec]:
    return list(_REGISTRY)


def audit_registry(registry=None):
    anchors = {p.anchor for p in (_REGISTRY if registry is None else registry)}
    missing = REQUIRED_ANCHORS - anchors
    if missing:
        raise RuntimeError(f"property registry misses anchors: {sorted(missing)}")


# -- random input helpers --------------------------------------------------


def random_laurent(rng, lo: int = -8, hi: int = 8, terms: int = 8) -> LaurentPoly:
    """Seeded random symbol: ~terms Gaussian coefficients in [lo, hi]."""
    freqs = lo + rng.choice(hi - lo + 1, size=min(terms, hi - lo + 1), replace=False)
    # Real and imaginary parts drawn in turn, as one array.
    coeffs = rng.standard_normal(2 * len(freqs)).view(complex)
    return LaurentPoly(dict(zip(freqs.tolist(), coeffs.tolist())))


def circle_grid(count: int = 64):
    return [cmath.exp(2j * math.pi * t / count) for t in range(count)]


def _symbol(rng, ctx: MenuContext, terms: int = 8) -> LaurentPoly:
    m, n, k = ctx.setting.basis_alpha.dim, ctx.setting.basis_beta.dim, ctx.k
    return random_laurent(rng, lo=-2 * m, hi=2 * k * n, terms=terms)


def _vector(rng, dim: int) -> np.ndarray:
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def _matrix(rng, ctx: MenuContext) -> OperatorMatrix:
    n, m = ctx.setting.basis_beta.dim, ctx.setting.basis_alpha.dim
    return ctx.setting.matrix(rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))


def _has_pattern_constraints(ctx: MenuContext) -> bool:
    """True when the decimation diagonals tie at least two matrix entries:
    k i - j = k i' - j' needs two rows and two columns k apart."""
    return ctx.setting.basis_beta.dim > 1 and ctx.setting.basis_alpha.dim > ctx.k


# -- decimation calculus ---------------------------------------------------
# On (coeffs, lo) pairs, coefficients of frequencies lo, lo + 1, ..., through
# the routines the pipeline runs: W_k by `_compress`, f -> z^m f(z^k) by
# `_place`, f(z) g(z^s) by `_times_stretched`, conjugation on the circle by
# the reversed conjugate array.

_UNIT = _IndexMap((1, 1))  # the row of the constant 1


def _dense(p: LaurentPoly) -> tuple[np.ndarray, int]:
    """p over the span of its support."""
    lo, hi = (p.support[0], p.support[-1]) if p else (0, 0)
    return p.to_array(lo, hi), lo


def _decimated(f, k: int):
    """W_k f by `_compress` into identity rows, f read as starting at
    frequency lo - k n0, n0 = ceil(lo / k): row i is frequency n0 + i."""
    c, lo = f
    n0, n1 = -(-lo // k), (lo + len(c) - 1) // k
    if n1 < n0:
        return np.zeros(1, dtype=complex), 0
    return _compress(c, lo - k * n0, _UNIT, k, _IndexMap((n1 - n0 + 1,) * 2))[:, 0], n0


def _backward(f, k: int):
    """S*^k f = P(z^-k f) for analytic f: `_compress` of z^-k f at stride 1."""
    c, lo = f
    return _compress(c, lo - k, _UNIT, 1, _IndexMap((max(1, lo + len(c) - k),) * 2))[:, 0], 0


def _stretched(f, k: int, m: int = 0):
    """z^m f(z^k)."""
    c, lo = f
    return _place(c, lo + m, 1, k, m).to_array(m + k * lo, m + k * (lo + len(c) - 1)), m + k * lo


def _times(f, g, s: int = 1):
    """f(z) g(z^s); a plain product is np.convolve, as in the symbol routines."""
    c = np.convolve(f[0], g[0]) if s == 1 else _times_stretched(f[0], g[0], s)
    return c, f[1] + s * g[1]


def _conj(f):
    c, lo = f
    return c[::-1].conj(), 1 - lo - len(c)


def _analytic(f):
    """The frequencies >= 0 of f."""
    c, lo = f
    if lo >= 0:
        return f
    return (c[-lo:], 0) if len(c) > -lo else (np.zeros(1, dtype=complex), 0)


def _inner(f, g) -> complex:
    """sum_n f_n conj(g_n)."""
    (a, la), (b, lb) = f, g
    lo, hi = max(la, lb), min(la + len(a), lb + len(b))
    return complex(np.vdot(b[lo - lb : hi - lb], a[lo - la : hi - la])) if lo < hi else 0j


def _gap(f, g) -> float:
    d = _sum(f, (-g[0], g[1]))[0]
    return math.sqrt(np.vdot(d, d).real)


@register("stretch_is_substitution", "stretch-substitution", 1e-10, 1e-10)
def _prop_stretch_substitution(rng, ctx):
    p = random_laurent(rng)
    f, z = _dense(p), np.array(circle_grid(16))

    def values(g, z):
        return z[:, None] ** np.arange(g[1], g[1] + len(g[0])) @ g[0]

    res = float(np.abs(values(_stretched(f, ctx.k), z) - values(f, z**ctx.k)).max())
    return res, {"p": p}


@register("stretch_multiplicative", "stretch-multiplicative")
def _prop_stretch_multiplicative(rng, ctx):
    p, q = random_laurent(rng), random_laurent(rng)
    f, g, k = _dense(p), _dense(q), ctx.k
    res = _gap(_stretched(_times(f, g), k), _times(_stretched(f, k), g, k))
    return res, {"p": p, "q": q}


@register("decimate_stretch_roundtrip", "decimate-stretch-identity")
def _prop_decimate_stretch(rng, ctx):
    p = random_laurent(rng)
    f, k = _dense(p), ctx.k
    res = _gap(_decimated(_stretched(f, k), k), f)
    kept = np.where((f[1] + np.arange(len(f[0]))) % k == 0, f[0], 0), f[1]
    res = max(res, _gap(_stretched(_decimated(f, k), k), kept))
    return res, {"p": p}


@register("conjugate_commutes", "circle-conjugate-commutes")
def _prop_conjugate_commutes(rng, ctx):
    p, q = random_laurent(rng), random_laurent(rng)
    f, g, k = _dense(p), _dense(q), ctx.k
    res = _gap(_decimated(_conj(f), k), _conj(_decimated(f, k)))
    res = max(res, _gap(_stretched(_conj(f), k), _conj(_stretched(f, k))))
    # <conj f, g> = conj <f, conj g>: plain reversal, which commutes with
    # decimation and stretching too, fails this.
    res = max(res, abs(_inner(_conj(f), g) - _inner(f, _conj(g)).conjugate()))
    return res, {"p": p, "q": q}


@register("projection_commutes", "analytic-projection-commutes")
def _prop_projection_commutes(rng, ctx):
    p = random_laurent(rng)
    f, k = _dense(p), ctx.k
    res = _gap(_analytic(_decimated(f, k)), _decimated(_analytic(f), k))
    res = max(res, _gap(_analytic(_stretched(f, k)), _stretched(_analytic(f), k)))
    return res, {"p": p}


@register("multiplier_pull_through", "multiplier-pull-through")
def _prop_pull_through(rng, ctx):
    phi, f = random_laurent(rng, terms=5), random_laurent(rng)
    a, b, k = _dense(phi), _dense(f), ctx.k
    res = _gap(_decimated(_times(b, a, k), k), _times(a, _decimated(b, k)))
    return res, {"phi": phi, "f": f}


@register("decimation_adjoint", "decimation-adjoint")
def _prop_adjoint(rng, ctx):
    p, q = random_laurent(rng), random_laurent(rng)
    f, g, k = _dense(p), _dense(q), ctx.k
    res = abs(_inner(_decimated(f, k), g) - _inner(f, _stretched(g, k)))
    return res, {"p": p, "q": q}


@register("backward_shift_expansion", "backward-shift-expansion")
def _prop_shift_expansion(rng, ctx):
    p = random_laurent(rng, lo=0, hi=10)
    f, k = _dense(p), ctx.k
    # z^-k p less its k leading terms p_j z^(j - k).
    other = _sum((f[0], f[1] - k), (-p.to_array(0, k - 1), -k))
    return _gap(_backward(f, k), other), {"p": p}


@register("stretch_shift_constant", "stretch-shift-constant")
def _prop_stretch_shift_constant(rng, ctx):
    f = random_laurent(rng, lo=0, hi=10)
    a, k = _dense(f), ctx.k
    rhs = _sum(_stretched(_backward(a, 1), k, k), (np.array([f.coeff(0)]), 0))
    return _gap(_stretched(a, k), rhs), {"f": f}


@register("middle_monomial_sandwich", "middle-monomial-sandwich")
def _prop_monomial_sandwich(rng, ctx):
    f = random_laurent(rng)
    a, k = _dense(f), ctx.k
    # Column j is W_k(z^(j + 1 - k) f(z^k)) from frequency a[1], for every
    # |j + 1 - k| < k at once: f at column k - 1 and zero elsewhere.
    W = _compress(_stretched(a, k)[0], 1 - k, _IndexMap((2 * k - 1,) * 2), k, _IndexMap((len(a[0]),) * 2))
    W[:, k - 1] -= a[0]
    return float(np.linalg.norm(W, axis=0).max()), {"f": f}


# -- model space -----------------------------------------------------------


def evaluate(inner: InnerFunction, z):
    """alpha(z) at a complex number, or at each entry of an array."""
    # The zeros at the origin give c z^d, so z^N is evaluated exactly.
    val = inner.constant * z ** inner.zeros.count(0)
    for w in filter(None, inner.zeros):
        val *= (z - w) / (1.0 - w.conjugate() * z)
    return val


def stretched(inner: InnerFunction, k: int) -> InnerFunction:
    """The inner function z -> alpha(z^k): each zero w becomes the k k-th roots of w."""
    if strict_int(k, "order k") < 1:
        raise ValueError(f"order must be >= 1, got {k}")
    roots = []
    for w in inner.zeros:
        r = abs(w) ** (1.0 / k)
        theta = cmath.phase(w)
        roots.extend(r * cmath.exp(1j * (theta + 2 * math.pi * j) / k) for j in range(k))
    return InnerFunction.blaschke(roots, inner.constant)


def kernel(basis: ModelSpaceBasis, w: complex, n: int = 0) -> np.ndarray:
    """Coordinates of the kernel representing f -> f^(n)(w): the n-th
    derivative of the rows (I - z A)^-1 B at w, conjugated,
    n! S^n (I - conj(w) S)^-(n+1) conj(B), past T too and with no rows.
    S^n and S are densified, so an exact basis above MAX_ENTRIES is refused."""
    w = complex(w)
    if abs(w) >= 1.0:
        raise ValueError(f"kernel point {w} must lie in the open disk")
    if n < 0:
        raise ValueError("derivative order must be nonnegative")
    # S^n = 0 for z^N from n = N on; elsewhere only by underflow, where
    # n! may overflow.
    if basis.exact and n >= basis.dim:
        return np.zeros(basis.dim, dtype=complex)
    scale, power = derivative_scale(n), np.asarray(basis.shift_operands(n)[0])
    if w != 0:
        shift = np.asarray(basis.shift_operands()[0])
        resolvent = np.linalg.inv(np.eye(basis.dim) - w.conjugate() * shift)
        power = power @ np.linalg.matrix_power(resolvent, n + 1)
    return scale * (power @ basis.first_columns(1)[:, 0].conj())


@register("stretched_inner_unimodular", "stretched-inner", 1e-8, 1e-8)
def _prop_stretched_inner(rng, ctx):
    z = np.array(circle_grid())
    values = evaluate(stretched(ctx.alpha, ctx.k), z)
    res = max(np.abs(np.abs(values) - 1.0).max(), np.abs(values - evaluate(ctx.alpha, z**ctx.k)).max())
    return float(res), {"alpha": ctx.alpha, "k": ctx.k}


@register("projection_decimation_intertwine", "projection-decimation-intertwine", 1e-10, 1e-8)
def _prop_projection_intertwine(rng, ctx):
    f = random_laurent(rng, lo=-6, hi=4 * ctx.k * ctx.alpha.degree)
    c, lo = _dense(f)
    ba = ctx.setting.basis_alpha
    big = ctx.stretched_basis(ctx.alpha)
    lhs = _compress(c, lo, _UNIT, ctx.k, ba.rows)[:, 0] @ ba.rows, 0
    rhs = _decimated((_compress(c, lo, _UNIT, 1, big.rows)[:, 0] @ big.rows, 0), ctx.k)
    return _gap(lhs, rhs), {"f": f}


@register("reproducing_kernels", "derivative-reproducing", 1e-8, 1e-8)
def _prop_reproducing(rng, ctx):
    ba = ctx.setting.basis_alpha
    coords = _vector(rng, ba.dim)
    f = coords @ ba.rows
    res = 0.0
    for n in range(3):
        w = 0.7 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        pairing = complex(np.vdot(kernel(ba, w, n), coords))
        res = max(res, abs(pairing - np.polynomial.polynomial.polyval(w, np.polynomial.polynomial.polyder(f, n))))
    return res, {"coords": coords}


@register("conjugation_involution", "conjugation-involution", 1e-10, 1e-8)
def _prop_conjugation(rng, ctx):
    ba = ctx.setting.basis_alpha
    v, w = _vector(rng, ba.dim), _vector(rng, ba.dim)
    cv = ba.conjugate_vector(v)
    res = float(np.linalg.norm(ba.conjugate_vector(cv) - v))
    res = max(
        res,
        abs(complex(np.vdot(ba.conjugate_vector(w), cv)) - complex(np.vdot(v, w))),
    )
    # Image stays in the space: re-projecting the reconstruction is a fixed point.
    g = LaurentPoly.from_array(cv @ ba.rows)
    res = max(res, float(np.linalg.norm(ba.rows.conj() @ g.to_array(0, ba.rows.shape[1] - 1) - cv)))
    return res, {"v": v}


@register("compressed_shift_adjoint", "compressed-shift", 1e-10, 1e-8)
def _prop_compressed_shift(rng, ctx):
    ba = ctx.setting.basis_alpha
    S, S_adj = map(np.asarray, ba.shift_operands())
    v = _vector(rng, ba.dim)
    # Adjoint acts as the coefficient backward shift on the space: P_alpha of
    # z^-1 f, by `_compress` from the row of f.
    direct = _compress(np.ones(1), -1, (v @ ba.rows)[None], 1, ba.rows)[:, 0]
    res = float(np.linalg.norm(S_adj @ v - direct))
    C = np.asarray(ba.conjugation_operand)
    res = max(res, float(np.abs(C @ S.conjugate() @ C.conjugate() - S_adj).max()))
    return res, {"v": v}


# -- compressions and characterizations ------------------------------------


@register("slant_factorization", "slant-factorization", 1e-10, 1e-8)
def _prop_factorization(rng, ctx):
    # U = W A through the model space of beta(z^k): W_k of beta(z^k) H^2 is
    # beta H^2, orthogonal to K_beta.
    phi = _symbol(rng, ctx)
    U = build_compression(phi, ctx.setting)
    ba, big = ctx.setting.basis_alpha, ctx.stretched_basis(ctx.beta)
    W = _compress(np.ones(1), 0, big.rows, ctx.k, ctx.setting.basis_beta.rows)
    A = _compress(*_clip(phi, ba.rows.shape[1], 1, 1, 0, big.truncation_order), ba.rows, 1, big.rows)
    return float(np.abs(U.entries - W @ A).max()), {"phi": phi}


@register("defect_closed_form", "defect-closed-form", 1e-10, 1e-8)
def _prop_defect_closed_form(rng, ctx):
    phi = _symbol(rng, ctx)
    U = build_compression(phi, ctx.setting)
    D = defect(U, ctx.setting, "t35")
    assembled = assemble_defect(defect_from_symbol(phi, ctx.setting), ctx.setting)
    return float(np.abs(D - assembled).max()), {"phi": phi}


@register("symbol_from_parts", "symbol-from-parts", 1e-10, 1e-8)
def _prop_symbol_from_parts(rng, ctx):
    ba, bb, k = ctx.setting.basis_alpha, ctx.setting.basis_beta, ctx.k
    chi = _vector(rng, ba.dim)
    psis = []
    k0b = kernel(bb, 0, 0)
    norm2 = float(np.vdot(k0b, k0b).real)
    for _ in range(k):
        p = _vector(rng, bb.dim)
        value0 = p @ bb.rows[:, 0]
        psis.append(p - (value0 / norm2) * k0b)  # enforce psi(0) = 0
    # conj(f_chi) + sum_j (k - j)! z^j (S_beta^* psi_(k-j))(z^k) for j = 1..k:
    # block n of k coefficients from frequency 1 holds k n + 1..k n + k.
    parts = np.array([factorial(k - j) * (bb.shift_operands()[1] @ psis[k - j]) @ bb.rows for j in range(1, k + 1)])
    phi = LaurentPoly.from_array(*_sum(_head(chi, ba), (parts.T.reshape(-1), 1)))
    U = build_compression(phi, ctx.setting)
    D = defect(U, ctx.setting, "t35")
    target = np.outer(k0b, chi.conjugate())
    for j in range(k):
        target = target + np.outer(psis[j], kernel(ba, 0, j).conjugate())
    return float(np.abs(D - target).max()), {"chi": chi}


@register("membership_accepts_symbols", "defect-characterization", 1e-10, 1e-8)
def _prop_membership_accepts(rng, ctx):
    phi = _symbol(rng, ctx)
    U = build_compression(phi, ctx.setting)
    report = membership(U, ctx.setting)
    res = report.residual if report.member else float("inf")
    if _has_pattern_constraints(ctx) and ctx.setting.exact:
        # Negative control: a one-entry bump off the diagonal pattern must fail.
        bumped = U.entries.copy()
        bumped[0, 0] += 1e-3
        if membership(ctx.setting.matrix(bumped), ctx.setting).member:
            res = float("inf")
    return res, {"phi": phi}


@register("membership_pattern_oracle", "decimation-diagonal-pattern", 0.0, 0.0)
def _prop_pattern_oracle(rng, ctx):
    if not ctx.setting.exact:
        return 0.0, None
    m, n, k = ctx.setting.basis_alpha.dim, ctx.setting.basis_beta.dim, ctx.k
    U = _matrix(rng, ctx)
    if rng.uniform() < 0.5:
        # Make it diagonal-constant, then maybe break one diagonal.
        values = {}
        ent = U.entries
        for i in range(n):
            for j in range(m):
                ent[i, j] = values.setdefault(k * i - j, ent[i, j])
        if rng.uniform() < 0.5 and _has_pattern_constraints(ctx):
            ent[0, 0] += 1e-3
    diags = {}
    oracle = True
    for i in range(n):
        for j in range(m):
            d = k * i - j
            if d in diags and abs(diags[d] - U.entries[i, j]) > 1e-12:
                oracle = False
            diags.setdefault(d, U.entries[i, j])
    verdict = membership(U, ctx.setting).member
    return (0.0 if verdict == oracle else 1.0), {"matrix": U}


@register("variant_agreement", "variant-agreement", 0.0, 0.0)
def _prop_variant_agreement(rng, ctx):
    if rng.uniform() < 0.5:
        U = build_compression(_symbol(rng, ctx), ctx.setting)
    else:
        U = _matrix(rng, ctx)
    verdicts = {v: membership(U, ctx.setting, v).member for v in VARIANTS}
    return (0.0 if len(set(verdicts.values())) == 1 else 1.0), {"matrix": U}


def _prop_roundtrip(rng, ctx, variant):
    phi = _symbol(rng, ctx)
    U = build_compression(phi, ctx.setting)
    report = membership(U, ctx.setting, variant)
    if not report.member:
        return float("inf"), {"phi": phi}
    rebuilt = build_compression(recover_symbol(report, ctx.setting), ctx.setting)
    return float(np.abs(rebuilt.entries - U.entries).max()), {"phi": phi}


register("symbol_roundtrip", "symbol-recovery", 1e-9, 1e-8)(partial(_prop_roundtrip, variant="t35"))
register("adjoint_form_roundtrip", "adjoint-recovery", 1e-9, 1e-8)(partial(_prop_roundtrip, variant="c38"))


@register("recovery_orthogonality", "recovery-orthogonality", 1e-10, 1e-8)
def _prop_recovery_orthogonality(rng, ctx):
    phi = _symbol(rng, ctx)
    U = build_compression(phi, ctx.setting)
    report = membership(U, ctx.setting)
    if not report.member:
        return float("inf"), {"phi": phi}
    ba, bb, k = ctx.setting.basis_alpha, ctx.setting.basis_beta, ctx.k
    dec = report.decomposition
    parts = [_head(dec.chi, ba)]
    for j, psi in enumerate(dec.psis):
        parts.append(_stretched((psi @ bb.rows, 0), k, -j))
    res = 0.0
    for a in range(len(parts)):
        for b in range(a + 1, len(parts)):
            res = max(res, abs(_inner(parts[a], parts[b])))
    return res, {"phi": phi}


@register("universality", "universality", 1e-10, 1e-8)
def _prop_universality(rng, ctx):
    setting = ctx.universal_setting()
    n, m = setting.basis_beta.dim, setting.basis_alpha.dim
    U = setting.matrix(rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
    report = membership(U, setting)
    return (report.residual if report.member else float("inf")), {"matrix": U}


def _prop_canonical(rng, ctx, which):
    phi = _symbol(rng, ctx)
    reduced = canonical_symbol(phi, ctx.setting, which)
    U = build_compression(phi, ctx.setting)
    V = build_compression(reduced, ctx.setting)
    res = float(np.abs(U.entries - V.entries).max())
    if ctx.setting.exact:
        m = ctx.setting.basis_alpha.dim
        n = ctx.setting.basis_beta.dim
        top = ctx.k * n - (ctx.k - 1 if which == "second" else 0)
        for t in reduced.support:
            if not (-m < t < top):
                res = float("inf")
    return res, {"phi": phi}


register("canonical_first_form", "canonical-symbol", 1e-9, 1e-8)(partial(_prop_canonical, which="first"))
register("canonical_second_form", "canonical-symbol-shifted", 1e-9, 1e-8)(partial(_prop_canonical, which="second"))


def _prop_zero(rng, ctx, which):
    # A symbol of the zero space: conj(alpha h1) + z^-shift beta(z^k) h2.
    h1 = _dense(random_laurent(rng, lo=0, hi=4, terms=4))
    h2 = _dense(random_laurent(rng, lo=0, hi=4, terms=4))
    alpha_exp = ctx.setting.basis_alpha.inner_expansion, 0
    beta_exp = ctx.setting.basis_beta.inner_expansion, 0
    shift = ctx.k - 1 if which == "p27" else 0
    second = _times(h2, beta_exp, ctx.k)
    phi = LaurentPoly.from_array(*_sum(_conj(_times(alpha_exp, h1)), (second[0], second[1] - shift)))
    res = 0.0 if zero_test_sufficient(phi, ctx.setting, which) else 1.0
    # Soundness on generic symbols: a positive answer forces a zero matrix.
    generic = _symbol(rng, ctx)
    if zero_test_sufficient(generic, ctx.setting, which):
        if build_compression(generic, ctx.setting).norm() > ctx.setting.tol() * 100:
            res = 1.0
    return res, {"phi": phi}


register("zero_sufficient_first", "zero-symbol-sufficient", 0.0, 0.0)(partial(_prop_zero, which="p22"))
register("zero_sufficient_second", "zero-symbol-sufficient-shifted", 0.0, 0.0)(partial(_prop_zero, which="p27"))


@register("conjugation_symbol_transform", "conjugation-intertwining", 1e-9, 1e-8)
def _prop_conjugation_transform(rng, ctx):
    phi = _symbol(rng, ctx)
    sandwich, psi = conjugate_operator(ctx.setting, phi=phi)
    direct = build_compression(psi, ctx.setting)
    res = float(np.abs(sandwich.entries - direct.entries).max())
    # Double sandwich returns the original matrix.
    U = build_compression(phi, ctx.setting)
    again, _ = conjugate_operator(ctx.setting, U=sandwich)
    res = max(res, float(np.abs(again.entries - U.entries).max()))
    return res, {"phi": phi}


@register("conjugation_membership_invariance", "conjugation-membership-invariance", 0.0, 0.0)
def _prop_conjugation_invariance(rng, ctx):
    if rng.uniform() < 0.5:
        U = build_compression(_symbol(rng, ctx), ctx.setting)
    else:
        U = _matrix(rng, ctx)
    sandwich, _ = conjugate_operator(ctx.setting, U=U)
    a = membership(U, ctx.setting).member
    b = membership(sandwich, ctx.setting).member
    return (0.0 if a == b else 1.0), {"matrix": U}


@register("rank_one_membership", "rank-one-membership", 1e-10, 1e-8)
def _prop_rank_one_membership(rng, ctx):
    res = 0.0
    for l in range(ctx.k):
        for kind in ("tilde_k", "k_tilde"):
            U, _ = rank_one(ctx.setting, l, kind)
            report = membership(U, ctx.setting)
            res = max(res, report.residual if report.member else float("inf"))
    return res, {"k": ctx.k}


@register("rank_one_symbols", "rank-one-symbols", 1e-9, 1e-8)
def _prop_rank_one_symbols(rng, ctx):
    res = 0.0
    for l in range(ctx.k):
        for kind in ("tilde_k", "k_tilde"):
            U, symbol = rank_one(ctx.setting, l, kind)
            built = build_compression(symbol, ctx.setting)
            res = max(res, float(np.abs(built.entries - U.entries).max()))
    return res, {"k": ctx.k}


# Registered last, in the order they came, so that the rows before each keep
# their generators.
@register("variant_defects", "variant-defects", 1e-12, 1e-12)
def _prop_variant_defects(rng, ctx):
    # Each variant's defect against its own formula in the dense shifts,
    # relative to max|U|: a variant that takes another's side fails here.
    if rng.uniform() < 0.5:
        U = build_compression(_symbol(rng, ctx), ctx.setting)
    else:
        U = _matrix(rng, ctx)
    M = U.entries
    Sb, Sb_adj, Sa, Sa_adj = map(np.asarray, ctx.setting.shift_operands)
    formulas = {
        "t35": M - Sb @ M @ Sa_adj,
        "c38": M - Sb_adj @ M @ Sa,
        "c310a": Sb_adj @ M - M @ Sa_adj,
        "c310b": Sb @ M - M @ Sa,
    }
    res = max(float(np.abs(defect(U, ctx.setting, v) - formulas[v]).max()) for v in VARIANTS)
    return res / (float(np.abs(M).max()) or 1.0), {"matrix": U}


@register("decomposition_assembles", "decomposition-assembles", 1e-10, 1e-8)
def _prop_decomposition_assembles(rng, ctx):
    # A member's reported chi and psi_j, in every variant, assemble back to
    # its defect: the parts that recovery does not read (c38, c310a, c310b)
    # and the rows of Z that no verdict sees.
    phi = _symbol(rng, ctx)
    U = build_compression(phi, ctx.setting)
    res = 0.0
    for v in VARIANTS:
        report = membership(U, ctx.setting, v)
        if not report.member:
            return float("inf"), {"phi": phi}
        assembled = assemble_defect(report.decomposition, ctx.setting)
        res = max(res, float(np.abs(assembled - defect(U, ctx.setting, v)).max()))
    return res, {"phi": phi}


def _broken_property(rng, ctx):
    # Deliberately wrong claim, used as a harness negative control: a bumped
    # pattern-constrained matrix is asserted to stay a member.
    phi = _symbol(rng, ctx)
    U = build_compression(phi, ctx.setting)
    bumped = U.entries.copy()
    bumped[0, 0] += 1e-3
    report = membership(ctx.setting.matrix(bumped), ctx.setting)
    return (0.0 if report.member else 1.0), {"matrix": U}


BROKEN_PROPERTY = PropertySpec(
    "injected_broken_property", "negative-control", _broken_property, 0.0, 0.0
)


# -- suite driver ----------------------------------------------------------


@dataclass
class SuiteConfig:
    seed: int = 0
    trials: int = 50
    menu: tuple = DEFAULT_MENU
    inject_failure: bool = False

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.menu:
            raise ValueError("space menu must be nonempty")


@dataclass
class PropertyResult:
    name: str
    anchor: str
    space: str
    passes: int
    fails: int
    worst_residual: float
    tolerance: float
    first_counterexample: dict | None
    seconds: float = 0.0  # wall time of the row, in the text report only

    def to_json(self) -> dict:
        out = asdict(self)
        del out["seconds"]
        return out


@dataclass
class SuiteReport:
    seed: int
    trials: int
    results: list

    @property
    def all_passed(self) -> bool:
        return all(r.fails == 0 for r in self.results)

    @property
    def worst_residual(self) -> float:
        finite = [r.worst_residual for r in self.results if np.isfinite(r.worst_residual)]
        return max(finite, default=0.0)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "all_passed": self.all_passed,
            "results": [r.to_json() for r in self.results],
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2)

    def to_text(self) -> str:
        width = max([24] + [len(r.space) for r in self.results])
        lines = [
            f"seed={self.seed} trials={self.trials} "
            f"status={'PASS' if self.all_passed else 'FAIL'}",
            f"{'property':<36} {'space':<{width}} {'pass':>5} {'fail':>5} {'ms':>7}  worst",
        ]
        for r in self.results:
            lines.append(
                f"{r.name:<36} {r.space:<{width}} {r.passes:>5} {r.fails:>5} {1e3 * r.seconds:>7.2f}  {r.worst_residual:.3e}"
            )
        return "\n".join(lines)


def _jsonable(inputs):
    """A trial's inputs as JSON: polynomials, matrices and inner functions by
    their own `to_json`, coordinate arrays as [re, im] pairs."""
    if isinstance(inputs, dict):
        return {key: _jsonable(value) for key, value in inputs.items()}
    if isinstance(inputs, np.ndarray):
        return complex_pairs(inputs)
    return inputs.to_json() if hasattr(inputs, "to_json") else inputs


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Every property on every menu entry, config.trials seeded trials each,
    drawn in turn from the row's generator.  A property that draws nothing in
    its first trial repeats that computation in every later one, so that
    trial stands for all of them.  A row keeps the inputs of its first
    failing trial, as JSON."""
    registry = registered_properties()
    if config.inject_failure:
        registry.append(BROKEN_PROPERTY)
    audit_registry(registered_properties())

    contexts = [MenuContext(a, b, k) for a, b, k in config.menu]
    results = []
    for pidx, prop in enumerate(registry):
        for cidx, ctx in enumerate(contexts):
            tol = prop.tol_exact if ctx.setting.exact else prop.tol_blaschke
            passes = fails = 0
            worst = 0.0
            first_cx = None
            start = perf_counter()
            rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(pidx, cidx)))
            fresh = rng.bit_generator.state
            for trial in range(config.trials):
                try:
                    residual, payload = prop.run(rng, ctx)
                except Exception as exc:  # a failing trial of this row, not the end of the suite
                    residual, payload = math.inf, {"error": repr(exc)}
                # Drew nothing: every later trial is this one.
                count = config.trials if trial == 0 and rng.bit_generator.state == fresh else 1
                worst = max(worst, residual)
                if residual <= tol:
                    passes += count
                else:
                    fails += count
                    if first_cx is None:
                        first_cx = {"trial": trial, "residual": residual, "inputs": _jsonable(payload)}
                if count > 1:
                    break
            results.append(
                PropertyResult(
                    name=prop.name,
                    anchor=prop.anchor,
                    space=ctx.label(),
                    passes=passes,
                    fails=fails,
                    worst_residual=worst,
                    tolerance=tol,
                    first_counterexample=first_cx,
                    seconds=perf_counter() - start,
                )
            )
    return SuiteReport(seed=config.seed, trials=config.trials, results=results)
