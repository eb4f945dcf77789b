"""End-to-end acceptance checks.

Each test covers one numbered criterion, enforces the stated tolerance and
runtime budget, and prints a single pass/fail line (bypassing capture so the
lines are always visible in the pytest run).
"""

import sys
import time

import numpy as np
import pytest

from laurent_oracle import (
    analytic_project,
    backward_shift_pow,
    conj_on_circle,
    decimate,
    distance,
    inner,
    is_zero,
    monomial,
    mul,
    project,
    reconstruct,
    shifted,
    stretch,
    sub,
)
from slantmodel.laurent import LaurentPoly
from slantmodel.model_space import InnerFunction, ModelSpaceBasis
from slantmodel.operators import (
    VARIANTS,
    CompressionSetting,
    assemble_defect,
    build_compression,
    conjugate_operator,
    defect,
    defect_from_symbol,
    membership,
    rank_one,
    recover_symbol,
    zero_test_sufficient,
)
from slantmodel.verify import random_laurent, stretched


def zn(n):
    return InnerFunction.monomial(n)


def setting_k2():
    return CompressionSetting(zn(4), zn(3), 2)


def setting_k5():
    return CompressionSetting(zn(4), zn(3), 5)


def setting_k2_square():
    return CompressionSetting(zn(3), zn(3), 2)


def setting_blaschke():
    return CompressionSetting(InnerFunction.blaschke([0.5, -0.3]), zn(3), 2)


def exact_menu():
    return [setting_k2(), setting_k5(), setting_k2_square()]


def full_menu():
    return exact_menu() + [setting_blaschke()]


def run_criterion(num, label, limit, fn):
    start = time.perf_counter()
    ok = False
    try:
        fn()
        elapsed = time.perf_counter() - start
        assert elapsed < limit, f"runtime {elapsed:.2f}s exceeds budget {limit}s"
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if ok else "FAIL"
        print(
            f"[acceptance] criterion {num:02d} {label}: {status} ({elapsed:.2f}s)",
            file=sys.__stdout__,
        )


def random_symbol(rng, setting, terms=7):
    m, n, k = setting.basis_alpha.dim, setting.basis_beta.dim, setting.k
    return random_laurent(rng, lo=-2 * m, hi=2 * k * n, terms=terms)


def oracle_entries(phi, setting):
    m, n, k = setting.basis_alpha.dim, setting.basis_beta.dim, setting.k
    return np.array([[phi.coeff(k * i - j) for j in range(m)] for i in range(n)])


def diagonal_member_entries(rng, setting):
    m, n, k = setting.basis_alpha.dim, setting.basis_beta.dim, setting.k
    values = {}
    M = np.zeros((n, m), dtype=complex)
    for i in range(n):
        for j in range(m):
            t = k * i - j
            values.setdefault(t, complex(*rng.standard_normal(2)))
            M[i, j] = values[t]
    return M


# -- criterion bodies (shared between the exact menu and the Blaschke rerun) --


def check_defect_consistency(settings, trials, tol, seed):
    rng = np.random.default_rng(seed)
    for setting in settings:
        for _ in range(trials):
            phi = random_symbol(rng, setting)
            U = build_compression(phi, setting)
            D = defect(U, setting, "t35")
            assembled = assemble_defect(defect_from_symbol(phi, setting), setting)
            assert np.abs(D - assembled).max() < tol


def check_roundtrip(settings, trials, accept_tol, rebuild_tol, seed):
    rng = np.random.default_rng(seed)
    for setting in settings:
        for _ in range(trials):
            phi = random_symbol(rng, setting)
            U = build_compression(phi, setting)
            report = membership(U, setting)
            assert report.member and report.residual < accept_tol
            rebuilt = build_compression(recover_symbol(report, setting), setting)
            assert np.abs(rebuilt.entries - U.entries).max() < rebuild_tol


def check_variant_equivalence(settings, trials, seed):
    rng = np.random.default_rng(seed)
    for setting in settings:
        n, m = setting.basis_beta.dim, setting.basis_alpha.dim
        for t in range(trials):
            if t % 2 == 0:
                U = build_compression(random_symbol(rng, setting), setting)
            else:
                U = setting.matrix(rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
            verdicts = {v: membership(U, setting, v).member for v in VARIANTS}
            assert len(set(verdicts.values())) == 1, verdicts


def check_conjugation(settings, trials, tol, seed):
    rng = np.random.default_rng(seed)
    for setting in settings:
        n, m = setting.basis_beta.dim, setting.basis_alpha.dim
        for t in range(trials):
            phi = random_symbol(rng, setting)
            sandwich, psi = conjugate_operator(setting, phi=phi)
            direct = build_compression(psi, setting)
            assert np.abs(sandwich.entries - direct.entries).max() < tol
            if t % 2 == 0:
                U = build_compression(phi, setting)
            else:
                U = setting.matrix(rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
            flipped, _ = conjugate_operator(setting, U=U)
            assert membership(U, setting).member == membership(flipped, setting).member


def check_rank_ones(settings, tol):
    for setting in settings:
        for l in range(setting.k):
            for kind in ("tilde_k", "k_tilde"):
                U, symbol = rank_one(setting, l, kind)
                built = build_compression(symbol, setting)
                assert np.abs(built.entries - U.entries).max() < tol


# -- the ten criteria -------------------------------------------------------


def test_criterion_01_golden_matrices():
    def body():
        rng = np.random.default_rng(101)
        for setting in (setting_k2(), setting_k5()):
            for _ in range(20):
                phi = random_laurent(rng, -8, 16, terms=9)
                U = build_compression(phi, setting)
                assert np.array_equal(U.entries, oracle_entries(phi, setting))

    run_criterion(1, "golden coefficient placement", 1.0, body)


def test_criterion_02_zero_operator_regressions():
    def body():
        s2, s5 = setting_k2(), setting_k5()
        assert build_compression(LaurentPoly({5: 1}), s2).norm() == 0.0
        assert build_compression(LaurentPoly({1: 1}), s5).norm() == 0.0
        # Both symbols defeat the sufficient tests: the criteria are not
        # necessary conditions.
        assert not zero_test_sufficient(LaurentPoly({5: 1}), s2, "p22")
        assert not zero_test_sufficient(LaurentPoly({1: 1}), s5, "p27")

    run_criterion(2, "zero-operator regressions", 1.0, body)


def test_criterion_03_decimation_calculus():
    def body():
        rng = np.random.default_rng(103)
        tol = 1e-12
        pairs = [(zn(4), 2), (zn(3), 3), (zn(4), 5)]
        for _ in range(50):
            k = int(rng.integers(2, 6))
            p = random_laurent(rng, -8, 8, terms=7)
            q = random_laurent(rng, -8, 8, terms=7)
            f = analytic_project(random_laurent(rng, 0, 10, terms=7))
            # Down-then-up recovers, stretch is multiplicative.
            assert distance(decimate(stretch(p, k), k), p) <= tol
            assert distance(stretch(mul(p, q), k), mul(stretch(p, k), stretch(q, k))) <= tol
            # Adjoint pairing of decimation against stretching.
            assert abs(inner(decimate(p, k), q) - inner(p, stretch(q, k))) <= tol * 100
            # Stretched multipliers pull through decimation.
            assert distance(decimate(mul(stretch(p, k), q), k), mul(p, decimate(q, k))) <= tol * 100
            # Decimation respects conjugation and analytic projection.
            assert decimate(conj_on_circle(p), k) == conj_on_circle(decimate(p, k))
            assert analytic_project(decimate(p, k)) == decimate(analytic_project(p), k)
            # Off-phase monomial sandwiches vanish.
            for m in range(1, k):
                assert is_zero(decimate(shifted(stretch(p, k), m), k))
            # Backward-shift expansion and the stretch-shift-constant identity.
            expansion = shifted(f, -k)
            for j in range(k):
                expansion = sub(expansion, monomial(j - k, f.coeff(j)))
            assert distance(backward_shift_pow(f, k), expansion) <= tol
            lhs = sub(stretch(f, k), shifted(stretch(backward_shift_pow(f, 1), k), k))
            assert distance(lhs, LaurentPoly.constant(f.coeff(0))) <= tol
        # Projection intertwines with decimation on monomial model spaces.
        for theta, k in pairs:
            basis = ModelSpaceBasis.build(theta)
            big = ModelSpaceBasis.build(stretched(theta, k))
            for _ in range(10):
                g = random_laurent(rng, -6, 18, terms=7)
                lhs = reconstruct(basis, project(basis, decimate(g, k)))
                rhs = decimate(reconstruct(big, project(big, g)), k)
                assert distance(lhs, rhs) <= tol * 100

    run_criterion(3, "decimation calculus suite", 5.0, body)


def test_criterion_04_defect_consistency():
    run_criterion(
        4,
        "defect decomposition consistency",
        10.0,
        lambda: check_defect_consistency(full_menu(), trials=50, tol=1e-10, seed=104),
    )


def test_criterion_05_characterization_roundtrip():
    def body():
        check_roundtrip(full_menu(), trials=50, accept_tol=1e-10, rebuild_tol=1e-9, seed=105)
        # Negative control: a small bump on a tied diagonal must be rejected.
        rng = np.random.default_rng(1050)
        setting = setting_k2()
        M = diagonal_member_entries(rng, setting)
        M[0, 0] += 1e-3
        report = membership(setting.matrix(M), setting)
        assert not report.member
        assert report.residual > 1e-4

    run_criterion(5, "characterization round trip", 30.0, body)


def test_criterion_06_variant_equivalence():
    run_criterion(
        6,
        "membership variant equivalence",
        10.0,
        lambda: check_variant_equivalence(full_menu(), trials=50, seed=106),
    )


def test_criterion_07_conjugation_laws():
    run_criterion(
        7,
        "conjugation laws",
        10.0,
        lambda: check_conjugation(full_menu(), trials=50, tol=1e-9, seed=107),
    )


def test_criterion_08_rank_one_constructors():
    def body():
        check_rank_ones(full_menu(), tol=1e-9)
        # Hand-derived case: l = 0 places a single 1 at entry (2, 0) with
        # symbol z^4.
        U, symbol = rank_one(setting_k2(), 0, "tilde_k")
        expected = np.zeros((3, 4))
        expected[2, 0] = 1
        assert np.abs(U.entries - expected).max() < 1e-12
        assert symbol == LaurentPoly({4: 1})

    run_criterion(8, "rank-one constructors", 5.0, body)


def test_criterion_09_universality():
    def body():
        rng = np.random.default_rng(109)
        settings = [s for s in full_menu() if s.k >= s.basis_alpha.dim]
        assert settings, "menu must contain a universal entry"
        for setting in settings:
            n, m = setting.basis_beta.dim, setting.basis_alpha.dim
            for _ in range(100):
                U = setting.matrix(rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
                report = membership(U, setting)
                assert report.member and report.residual < 1e-10

    run_criterion(9, "universality at high order", 5.0, body)


def test_criterion_10_blaschke_backend():
    def body():
        setting = setting_blaschke()
        assert setting.basis_alpha.tail_bound <= 1e-12
        menu = [setting]
        check_defect_consistency(menu, trials=50, tol=1e-8, seed=110)
        check_roundtrip(menu, trials=50, accept_tol=1e-8, rebuild_tol=1e-8, seed=111)
        check_variant_equivalence(menu, trials=50, seed=112)
        check_conjugation(menu, trials=50, tol=1e-8, seed=113)
        check_rank_ones(menu, tol=1e-8)

    run_criterion(10, "rational inner-function backend", 60.0, body)
