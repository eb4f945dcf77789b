"""Seeded property harness re-checking every implemented identity numerically.

Each registered property draws random inputs from a per-(property, space,
trial) generator derived from the suite seed, so reports are byte-identical
across runs with the same configuration.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from functools import partial
from math import factorial

import numpy as np

from .laurent import (
    LaurentPoly,
    analytic_project,
    backward_shift_pow,
    conj_on_circle,
    decimate,
    random_laurent,
    stretch,
)
from .model_space import InnerFunction, ModelSpaceBasis, circle_grid
from .operators import (
    CompressionSetting,
    OperatorMatrix,
    VARIANTS,
    assemble_defect,
    build_compression,
    build_truncated_toeplitz,
    canonical_symbol,
    conjugate_operator,
    conjugate_symbol,
    decimation_matrix,
    defect,
    defect_from_symbol,
    membership,
    rank_one,
    recover_symbol,
    zero_test_sufficient,
)

DEFAULT_MENU = (
    (InnerFunction.monomial(4), InnerFunction.monomial(3), 2),
    (InnerFunction.monomial(4), InnerFunction.monomial(3), 5),
    (InnerFunction.monomial(3), InnerFunction.monomial(3), 2),
    (InnerFunction.blaschke([0.5, -0.3]), InnerFunction.monomial(3), 2),
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
    }
)


class MenuContext:
    """One (alpha, beta, k) entry with cached bases."""

    def __init__(self, alpha: InnerFunction, beta: InnerFunction, k: int):
        self.setting = CompressionSetting(alpha, beta, k)
        self.alpha, self.beta, self.k = alpha, beta, k
        self._stretched_alpha = None
        self._universal = None

    def stretched_alpha_basis(self):
        if self._stretched_alpha is None:
            self._stretched_alpha = ModelSpaceBasis.build(self.alpha.stretched(self.k))
        return self._stretched_alpha

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
            return f"B[{zeros}]"

        return f"({name(self.alpha)}, {name(self.beta)}, k={self.k})"


@dataclass(frozen=True)
class PropertySpec:
    name: str
    anchor: str
    run: callable  # (rng, ctx) -> (residual, payload)
    tol_exact: float = 1e-12
    tol_blaschke: float = 1e-8

    def tolerance(self, ctx: MenuContext, overrides: dict) -> float:
        if self.name in overrides:
            return overrides[self.name]
        return self.tol_exact if ctx.setting.exact else self.tol_blaschke


_REGISTRY: list[PropertySpec] = []


def register(name, anchor, tol_exact=1e-12, tol_blaschke=1e-8):
    def wrap(fn):
        _REGISTRY.append(PropertySpec(name, anchor, fn, tol_exact, tol_blaschke))
        return fn

    return wrap


def registered_properties() -> list[PropertySpec]:
    return list(_REGISTRY)


def audit_registry(registry=None):
    anchors = {p.anchor for p in registry or _REGISTRY}
    missing = REQUIRED_ANCHORS - anchors
    if missing:
        raise RuntimeError(f"property registry misses anchors: {sorted(missing)}")


# -- random input helpers --------------------------------------------------


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


@register("stretch_is_substitution", "stretch-substitution", 1e-10, 1e-10)
def _prop_stretch_substitution(rng, ctx):
    p = random_laurent(rng)
    s = stretch(p, ctx.k)
    res = max(abs(s.evaluate(z) - p.evaluate(z**ctx.k)) for z in circle_grid(16))
    return res, {"p": p.to_json()}


@register("stretch_multiplicative", "stretch-multiplicative")
def _prop_stretch_multiplicative(rng, ctx):
    p, q = random_laurent(rng), random_laurent(rng)
    res = stretch(p * q, ctx.k).distance(stretch(p, ctx.k) * stretch(q, ctx.k))
    return res, {"p": p.to_json(), "q": q.to_json()}


@register("decimate_stretch_roundtrip", "decimate-stretch-identity")
def _prop_decimate_stretch(rng, ctx):
    p = random_laurent(rng)
    k = ctx.k
    res = decimate(stretch(p, k), k).distance(p)
    kept = LaurentPoly({n: c for n, c in p.items() if n % k == 0})
    res = max(res, stretch(decimate(p, k), k).distance(kept))
    return res, {"p": p.to_json()}


@register("conjugate_commutes", "circle-conjugate-commutes")
def _prop_conjugate_commutes(rng, ctx):
    p = random_laurent(rng)
    k = ctx.k
    res = decimate(conj_on_circle(p), k).distance(conj_on_circle(decimate(p, k)))
    res = max(res, stretch(conj_on_circle(p), k).distance(conj_on_circle(stretch(p, k))))
    return res, {"p": p.to_json()}


@register("projection_commutes", "analytic-projection-commutes")
def _prop_projection_commutes(rng, ctx):
    p = random_laurent(rng)
    k = ctx.k
    res = analytic_project(decimate(p, k)).distance(decimate(analytic_project(p), k))
    res = max(res, analytic_project(stretch(p, k)).distance(stretch(analytic_project(p), k)))
    return res, {"p": p.to_json()}


@register("multiplier_pull_through", "multiplier-pull-through")
def _prop_pull_through(rng, ctx):
    phi, f = random_laurent(rng, terms=5), random_laurent(rng)
    k = ctx.k
    res = decimate(stretch(phi, k) * f, k).distance(phi * decimate(f, k))
    return res, {"phi": phi.to_json(), "f": f.to_json()}


@register("decimation_adjoint", "decimation-adjoint")
def _prop_adjoint(rng, ctx):
    p, q = random_laurent(rng), random_laurent(rng)
    res = abs(decimate(p, ctx.k).inner(q) - p.inner(stretch(q, ctx.k)))
    return res, {"p": p.to_json(), "q": q.to_json()}


@register("backward_shift_expansion", "backward-shift-expansion")
def _prop_shift_expansion(rng, ctx):
    p = analytic_project(random_laurent(rng, lo=0, hi=10))
    k = ctx.k
    direct = backward_shift_pow(p, k)
    other = p.shifted(-k)
    for j in range(k):
        other = other - LaurentPoly.monomial(-(k - j), p.coeff(j))
    return direct.distance(other), {"p": p.to_json()}


@register("stretch_shift_constant", "stretch-shift-constant")
def _prop_stretch_shift_constant(rng, ctx):
    f = analytic_project(random_laurent(rng, lo=0, hi=10))
    k = ctx.k
    lhs = stretch(f, k) - stretch(backward_shift_pow(f, 1), k).shifted(k)
    return lhs.distance(LaurentPoly.constant(f.coeff(0))), {"f": f.to_json()}


@register("middle_monomial_sandwich", "middle-monomial-sandwich")
def _prop_monomial_sandwich(rng, ctx):
    f = random_laurent(rng)
    k = ctx.k
    res = decimate(stretch(f, k), k).distance(f)
    for m in range(1, k):
        for sign in (1, -1):
            res = max(res, decimate(stretch(f, k).shifted(sign * m), k).norm())
    return res, {"f": f.to_json()}


# -- model space -----------------------------------------------------------


@register("stretched_inner_unimodular", "stretched-inner", 1e-8, 1e-8)
def _prop_stretched_inner(rng, ctx):
    stretched = ctx.alpha.stretched(ctx.k)
    res = 0.0
    for z in circle_grid():
        res = max(res, abs(abs(stretched.evaluate(z)) - 1.0))
        res = max(res, abs(stretched.evaluate(z) - ctx.alpha.evaluate(z**ctx.k)))
    return res, {"alpha": ctx.alpha.to_json(), "k": ctx.k}


@register("projection_decimation_intertwine", "projection-decimation-intertwine", 1e-10, 1e-8)
def _prop_projection_intertwine(rng, ctx):
    f = random_laurent(rng, lo=-6, hi=4 * ctx.k * ctx.alpha.degree)
    ba = ctx.setting.basis_alpha
    big = ctx.stretched_alpha_basis()
    lhs = ba.reconstruct(ba.project(decimate(f, ctx.k)))
    rhs = decimate(big.reconstruct(big.project(f)), ctx.k)
    return lhs.distance(rhs), {"f": f.to_json()}


@register("reproducing_kernels", "derivative-reproducing", 1e-8, 1e-8)
def _prop_reproducing(rng, ctx):
    ba = ctx.setting.basis_alpha
    coords = _vector(rng, ba.dim)
    f = ba.reconstruct(coords)
    res = 0.0
    for n in range(3):
        w = 0.7 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        pairing = complex(np.vdot(ba.kernel(w, n), coords))
        res = max(res, abs(pairing - f.derivative_at(w, n)))
    return res, {"coords": [[c.real, c.imag] for c in coords]}


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
    res = max(res, float(np.linalg.norm(ba.project(ba.reconstruct(cv)) - cv)))
    return res, {"v": [[c.real, c.imag] for c in v]}


@register("compressed_shift_adjoint", "compressed-shift", 1e-10, 1e-8)
def _prop_compressed_shift(rng, ctx):
    ba = ctx.setting.basis_alpha
    S, S_adj = ctx.setting.shift_alpha, ctx.setting.shift_alpha_adj
    v = _vector(rng, ba.dim)
    # Adjoint acts as the coefficient backward shift on the space.
    direct = ba.project(backward_shift_pow(ba.reconstruct(v), 1))
    res = float(np.linalg.norm(S_adj @ v - direct))
    C = ba.conjugation_matrix()
    res = max(res, float(np.abs(C @ S.conjugate() @ C.conjugate() - S_adj).max()))
    return res, {"v": [[c.real, c.imag] for c in v]}


# -- compressions and characterizations ------------------------------------


@register("slant_factorization", "slant-factorization", 1e-10, 1e-8)
def _prop_factorization(rng, ctx):
    phi = _symbol(rng, ctx)
    U = build_compression(phi, ctx.setting)
    W = decimation_matrix(ctx.setting)
    A = build_truncated_toeplitz(
        phi, ctx.setting.basis_alpha, ctx.setting.stretched_beta_basis()
    )
    return float(np.abs(U.entries - W @ A).max()), {"phi": phi.to_json()}


@register("defect_closed_form", "defect-closed-form", 1e-10, 1e-8)
def _prop_defect_closed_form(rng, ctx):
    phi = _symbol(rng, ctx)
    U = build_compression(phi, ctx.setting)
    D = defect(U, ctx.setting, "t35")
    assembled = assemble_defect(defect_from_symbol(phi, ctx.setting), ctx.setting)
    return float(np.abs(D - assembled).max()), {"phi": phi.to_json()}


@register("symbol_from_parts", "symbol-from-parts", 1e-10, 1e-8)
def _prop_symbol_from_parts(rng, ctx):
    ba, bb, k = ctx.setting.basis_alpha, ctx.setting.basis_beta, ctx.k
    chi = _vector(rng, ba.dim)
    psis = []
    k0b = bb.kernel(0, 0)
    norm2 = float(np.vdot(k0b, k0b).real)
    for _ in range(k):
        p = _vector(rng, bb.dim)
        value0 = bb.reconstruct(p).derivative_at(0.0, 0)
        psis.append(p - (value0 / norm2) * k0b)  # enforce psi(0) = 0
    phi = conj_on_circle(ba.reconstruct(chi))
    for j in range(1, k + 1):
        part = stretch(
            bb.reconstruct(ctx.setting.shift_beta_adj @ psis[k - j]), k
        ) * factorial(k - j)
        phi = phi + part.shifted(j)
    U = build_compression(phi, ctx.setting)
    D = defect(U, ctx.setting, "t35")
    target = np.outer(k0b, chi.conjugate())
    for j in range(k):
        target = target + np.outer(psis[j], ba.kernel(0, j).conjugate())
    return float(np.abs(D - target).max()), {
        "chi": [[c.real, c.imag] for c in chi],
    }


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
    return res, {"phi": phi.to_json()}


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
    return (0.0 if verdict == oracle else 1.0), {"matrix": U.to_json()}


@register("variant_agreement", "variant-agreement", 0.0, 0.0)
def _prop_variant_agreement(rng, ctx):
    if rng.uniform() < 0.5:
        U = build_compression(_symbol(rng, ctx), ctx.setting)
    else:
        U = _matrix(rng, ctx)
    verdicts = {v: membership(U, ctx.setting, v).member for v in VARIANTS}
    return (0.0 if len(set(verdicts.values())) == 1 else 1.0), {"matrix": U.to_json()}


def _prop_roundtrip(rng, ctx, variant):
    phi = _symbol(rng, ctx)
    U = build_compression(phi, ctx.setting)
    report = membership(U, ctx.setting, variant)
    if not report.member:
        return float("inf"), {"phi": phi.to_json()}
    rebuilt = build_compression(recover_symbol(report, ctx.setting), ctx.setting)
    return float(np.abs(rebuilt.entries - U.entries).max()), {"phi": phi.to_json()}


register("symbol_roundtrip", "symbol-recovery", 1e-9, 1e-8)(partial(_prop_roundtrip, variant="t35"))
register("adjoint_form_roundtrip", "adjoint-recovery", 1e-9, 1e-8)(partial(_prop_roundtrip, variant="c38"))


@register("recovery_orthogonality", "recovery-orthogonality", 1e-10, 1e-8)
def _prop_recovery_orthogonality(rng, ctx):
    phi = _symbol(rng, ctx)
    U = build_compression(phi, ctx.setting)
    report = membership(U, ctx.setting)
    if not report.member:
        return float("inf"), {"phi": phi.to_json()}
    ba, bb, k = ctx.setting.basis_alpha, ctx.setting.basis_beta, ctx.k
    dec = report.decomposition
    parts = [conj_on_circle(ba.reconstruct(dec.chi))]
    for j in range(k):
        parts.append((stretch(bb.reconstruct(dec.psis[j]), k) * factorial(j)).shifted(-j))
    res = 0.0
    for a in range(len(parts)):
        for b in range(a + 1, len(parts)):
            res = max(res, abs(parts[a].inner(parts[b])))
    return res, {"phi": phi.to_json()}


@register("universality", "universality", 1e-10, 1e-8)
def _prop_universality(rng, ctx):
    setting = ctx.universal_setting()
    n, m = setting.basis_beta.dim, setting.basis_alpha.dim
    U = setting.matrix(rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
    report = membership(U, setting)
    return (report.residual if report.member else float("inf")), {"matrix": U.to_json()}


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
    return res, {"phi": phi.to_json()}


register("canonical_first_form", "canonical-symbol", 1e-9, 1e-8)(partial(_prop_canonical, which="first"))
register("canonical_second_form", "canonical-symbol-shifted", 1e-9, 1e-8)(partial(_prop_canonical, which="second"))


def _prop_zero(rng, ctx, which):
    # A symbol of the zero space: conj(alpha h1) + z^-shift beta(z^k) h2.
    h1 = analytic_project(random_laurent(rng, lo=0, hi=4, terms=4))
    h2 = analytic_project(random_laurent(rng, lo=0, hi=4, terms=4))
    alpha_exp = ctx.setting.basis_alpha.alpha_expansion()
    beta_k = stretch(ctx.setting.basis_beta.alpha_expansion(), ctx.k)
    shift = ctx.k - 1 if which == "p27" else 0
    phi = conj_on_circle(alpha_exp * h1) + (beta_k * h2).shifted(-shift)
    res = 0.0 if zero_test_sufficient(phi, ctx.setting, which) else 1.0
    # Soundness on generic symbols: a positive answer forces a zero matrix.
    generic = _symbol(rng, ctx)
    if zero_test_sufficient(generic, ctx.setting, which):
        if build_compression(generic, ctx.setting).norm() > ctx.setting.tol() * 100:
            res = 1.0
    return res, {"phi": phi.to_json()}


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
    return res, {"phi": phi.to_json()}


@register("conjugation_membership_invariance", "conjugation-membership-invariance", 0.0, 0.0)
def _prop_conjugation_invariance(rng, ctx):
    if rng.uniform() < 0.5:
        U = build_compression(_symbol(rng, ctx), ctx.setting)
    else:
        U = _matrix(rng, ctx)
    sandwich, _ = conjugate_operator(ctx.setting, U=U)
    a = membership(U, ctx.setting).member
    b = membership(sandwich, ctx.setting).member
    return (0.0 if a == b else 1.0), {"matrix": U.to_json()}


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


def _broken_property(rng, ctx):
    # Deliberately wrong claim, used as a harness negative control: a bumped
    # pattern-constrained matrix is asserted to stay a member.
    phi = _symbol(rng, ctx)
    U = build_compression(phi, ctx.setting)
    bumped = U.entries.copy()
    bumped[0, 0] += 1e-3
    report = membership(ctx.setting.matrix(bumped), ctx.setting)
    return (0.0 if report.member else 1.0), {"matrix": U.to_json()}


BROKEN_PROPERTY = PropertySpec(
    "injected_broken_property", "negative-control", _broken_property, 0.0, 0.0
)


# -- suite driver ----------------------------------------------------------


@dataclass
class SuiteConfig:
    seed: int = 0
    trials: int = 50
    menu: tuple = DEFAULT_MENU
    tolerance_overrides: dict = field(default_factory=dict)
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

    def to_json(self) -> dict:
        return asdict(self)


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
        lines = [
            f"seed={self.seed} trials={self.trials} "
            f"status={'PASS' if self.all_passed else 'FAIL'}",
            f"{'property':<36} {'space':<24} {'pass':>5} {'fail':>5}  worst",
        ]
        for r in self.results:
            lines.append(
                f"{r.name:<36} {r.space:<24} {r.passes:>5} {r.fails:>5}  {r.worst_residual:.3e}"
            )
        return "\n".join(lines)


def run_suite(config: SuiteConfig) -> SuiteReport:
    registry = registered_properties()
    if config.inject_failure:
        registry.append(BROKEN_PROPERTY)
    audit_registry(registered_properties())

    contexts = [MenuContext(a, b, k) for a, b, k in config.menu]
    results = []
    for pidx, prop in enumerate(registry):
        for cidx, ctx in enumerate(contexts):
            tol = prop.tolerance(ctx, config.tolerance_overrides)
            passes = fails = 0
            worst = 0.0
            first_cx = None
            for trial in range(config.trials):
                rng = np.random.default_rng(
                    np.random.SeedSequence(config.seed, spawn_key=(pidx, cidx, trial))
                )
                residual, payload = prop.run(rng, ctx)
                worst = max(worst, residual)
                if residual <= tol:
                    passes += 1
                else:
                    fails += 1
                    if first_cx is None:
                        first_cx = {"trial": trial, "residual": residual, "inputs": payload}
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
                )
            )
    return SuiteReport(seed=config.seed, trials=config.trials, results=results)
