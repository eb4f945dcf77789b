import cmath
import json
import math
import time
import tracemalloc
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laurent_oracle import (
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
from slantmodel import model_space, operators
from slantmodel.laurent import LaurentPoly
from slantmodel.model_space import InnerFunction, ModelSpaceBasis, TruncationError, _compress
from slantmodel.operators import (
    VARIANTS,
    _clip,
    CompressionSetting,
    DefectDecomposition,
    Frames,
    NonMemberError,
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
    _pinv,
    _Slices,
    _place,
    _product_fit,
    _product_sandwich,
    _reduced,
    _residue,
    _times_stretched,
    _used,
    _window,
)
from slantmodel import verify
from slantmodel.verify import kernel, random_laurent, stretched
from test_verify import WIDE


def L(d):
    return LaurentPoly(d)


def zn(n):
    return InnerFunction.monomial(n)


def vectors(basis):
    """The basis rows as LaurentPoly expansions."""
    return [LaurentPoly.from_array(row) for row in basis.rows]


def stretched_beta_expansion(setting):
    return stretch(LaurentPoly.from_array(setting.basis_beta.inner_expansion), setting.k)


def dense_shift(basis, n):
    """S^n as a dense matrix: by np.eye on an exact basis, as no index map
    forms it, and conj(A)^n by repeated squaring otherwise."""
    return np.eye(basis.dim, k=-n, dtype=complex) if basis.exact else basis.shift_operands(n)[0]


def dense_conjugation(basis):
    """C as a dense matrix: c J by np.eye on an exact basis, the Stein sum otherwise."""
    return basis.inner.constant * np.eye(basis.dim, dtype=complex)[::-1] if basis.exact else basis.conjugation_operand


def kron_basis(setting):
    """Reference basis of the model space of beta(z^k), in polyphase order:
    row i k + j is z^j e_i(z^k)."""
    bb, k = setting.basis_beta, setting.k
    rows = np.kron(bb.rows, np.eye(k))
    big = ModelSpaceBasis(stretched(bb.inner, k), None, rows.shape[1] - 1)
    # What a build computes on first read is given here, so it is never computed.
    vars(big).update(
        rows=rows,
        inner_expansion=np.kron(bb.inner_expansion, np.eye(1, k)[0])[: 2 * k * bb.rows.shape[1] + 1],
        tail_bound=bb.tail_bound,
        gram_error=bb.gram_error,
    )
    return big


def monomial_oracle_matrix(phi, setting):
    """Independent closed form for monomial spaces: entry (i, j) = a_{ki-j}."""
    m, n, k = setting.basis_alpha.dim, setting.basis_beta.dim, setting.k
    return np.array([[phi.coeff(k * i - j) for j in range(m)] for i in range(n)])


def diagonal_member(rng, setting):
    """Random matrix constant on the decimation diagonals {k i - j = t}."""
    m, n, k = setting.basis_alpha.dim, setting.basis_beta.dim, setting.k
    values = {}
    M = np.zeros((n, m), dtype=complex)
    for i in range(n):
        for j in range(m):
            t = k * i - j
            if t not in values:
                values[t] = complex(*rng.standard_normal(2))
            M[i, j] = values[t]
    return setting.matrix(M)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(73)


@pytest.fixture(scope="module")
def s243():
    return CompressionSetting(zn(4), zn(3), 2)


@pytest.fixture(scope="module")
def s543():
    return CompressionSetting(zn(4), zn(3), 5)


@pytest.fixture(scope="module")
def s233():
    return CompressionSetting(zn(3), zn(3), 2)


@pytest.fixture(scope="module")
def sblaschke():
    return CompressionSetting(InnerFunction.blaschke([0.5, -0.3]), zn(3), 2)


@pytest.fixture(scope="module")
def all_settings(s243, s543, s233, sblaschke):
    return [s243, s543, s233, sblaschke]


class TestBuildCompression:
    def test_hand_worked_matrix(self, s243):
        U = build_compression(L({-1: 2, 0: 3, 2: 1}), s243)
        expected = np.array(
            [
                [3, 2, 0, 0],
                [1, 0, 3, 2],
                [0, 0, 1, 0],
            ],
            dtype=complex,
        )
        assert np.array_equal(U.entries, expected)

    def test_monomial_oracle_random_symbols(self, rng, s243, s543, s233):
        for setting in (s243, s543, s233):
            for _ in range(20):
                phi = random_laurent(rng, -9, 18, terms=7)
                U = build_compression(phi, setting)
                assert np.array_equal(U.entries, monomial_oracle_matrix(phi, setting))

    def test_shape(self, sblaschke):
        U = build_compression(L({0: 1}), sblaschke)
        assert U.entries.shape == (3, 2)

    def test_order_one_is_truncated_toeplitz(self, rng):
        # At k = 1, entry (i, j) is the Toeplitz coefficient a_(i - j).
        setting = CompressionSetting(zn(3), zn(4), 1)
        phi = random_laurent(rng, -4, 4, terms=6)
        U = build_compression(phi, setting)
        assert np.abs(U.entries - monomial_oracle_matrix(phi, setting)).max() < 1e-12

    def test_truncated_toeplitz_hand_case(self):
        setting = CompressionSetting(zn(2), zn(2), 1)
        T = build_compression(L({1: 1}), setting).entries
        assert np.array_equal(T, np.array([[0, 0], [1, 0]], dtype=complex))

    def test_linear_in_symbol(self, rng, sblaschke):
        p = random_laurent(rng, -5, 9, terms=6)
        q = random_laurent(rng, -5, 9, terms=6)
        lhs = build_compression(p + mul(q, 2.5j), sblaschke).entries
        rhs = build_compression(p, sblaschke).entries + 2.5j * build_compression(q, sblaschke).entries
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_far_frequencies_drop_out(self, rng):
        # Only frequencies -T_src..k T_dst reach a kept coefficient; the
        # whole support of this symbol would not fit in memory.
        setting = CompressionSetting(B3, BETA, 2)
        phi = random_laurent(rng, -6, 12, terms=6)
        far = build_compression(phi + L({-(10**18): 1.5, 10**18: -2j}), setting)
        assert np.abs(far.entries - build_compression(phi, setting).entries).max() <= 1e-14

    @pytest.mark.parametrize("k", [(1 << 62) + 1, (1 << 63) - 1])
    def test_order_near_int64_keeps_only_frequency_zero(self, k):
        # Row n reads frequency k n, past the symbol for every n >= 1.  In
        # int64, 4 k wrapped around to 4 and put z^4 in row 4.
        U = build_compression(L({0: 2, 1: 1, 4: 1}), CompressionSetting(zn(1), zn(5), k))
        assert np.array_equal(U.entries, np.array([[2], [0], [0], [0], [0]], dtype=complex))

    def test_matrix_shape_mismatch_rejected(self, s243):
        with pytest.raises(ValueError, match="shape"):
            s243.matrix(np.zeros((2, 2)))
        for bad in (np.nan, np.inf):
            entries = np.zeros((3, 4), dtype=complex)
            entries[1, 2] = bad
            with pytest.raises(ValueError, match="finite"):
                s243.matrix(entries)

    def test_json_roundtrip(self, rng, s243):
        U = build_compression(random_laurent(rng, -4, 6, terms=5), s243)
        back = s243.matrix(type(U).entries_from_json(U.to_json()))
        assert np.array_equal(U.entries, back.entries)

    def test_json_values_are_python_floats(self, rng, s243):
        # Row-major [re, im] pairs of Python floats, so entries_from_json
        # takes its one-pass type check; transposed and strided entries and
        # -0.0 give the same text as the per-entry numpy scalars did.
        values = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
        values[0, 0], values[1, 2] = complex(-0.0, 1.0), complex(2.0, -0.0)
        for entries in (values[:, :4], values[:, ::2], np.ascontiguousarray(values[:, :4].T).T):
            U = s243.matrix(entries)
            obj = U.to_json()
            assert all(type(x) is float for pair in obj["data"] for x in pair)
            old = {"rows": 3, "cols": 4, "data": [[z.real, z.imag] for z in U.entries.reshape(-1)]}
            assert json.dumps(obj) == json.dumps(old)
            back = type(U).entries_from_json(json.loads(json.dumps(obj)))
            assert np.array_equal(back, U.entries)
            assert np.array_equal(np.signbit(back.view(float)), np.signbit(np.ascontiguousarray(U.entries).view(float)))


def loop_oracle(phi, src, k, dst):
    """Reference compression by the LaurentPoly loop <W_k(phi e_j), f_i>."""
    return np.array([[inner(decimate(mul(phi, e), k), f) for e in vectors(src)] for f in vectors(dst)])


B2 = InnerFunction.blaschke([0.5, -0.3])
B3 = InnerFunction.blaschke([0.5, -0.3, 0.2j])
BETA = InnerFunction.blaschke([0.4, -0.5j])


class TestLoopOracle:
    @pytest.mark.parametrize(
        "alpha,beta,k",
        [(zn(4), zn(3), 2), (zn(3), zn(3), 3), (zn(16), zn(12), 3), (zn(3), zn(4), 1)],
        ids=["z4-z3-k2", "z3-z3-k3", "z16-z12-k3", "z3-z4-k1"],
    )
    def test_monomial_exact(self, rng, alpha, beta, k):
        setting = CompressionSetting(alpha, beta, k)
        order_one = CompressionSetting(alpha, beta, 1)
        ba, bb = setting.basis_alpha, setting.basis_beta
        for _ in range(10):
            phi = random_laurent(rng, -20, 40, terms=8)
            assert np.array_equal(build_compression(phi, setting).entries, loop_oracle(phi, ba, k, bb))
            assert np.array_equal(build_compression(phi, order_one).entries, loop_oracle(phi, ba, 1, bb))
        assert np.array_equal(np.asarray(ba.shift_operands()[0]), loop_oracle(L({1: 1}), ba, 1, ba))

    @pytest.mark.parametrize(
        "alpha,beta,k",
        [(B2, zn(3), 2), (zn(3), BETA, 2), (B3, BETA, 2), (B3, BETA, 1)],
        ids=["B2-z3-k2", "z3-B-k2", "B3-B-k2", "B3-B-k1"],
    )
    def test_blaschke_close(self, rng, alpha, beta, k):
        setting = CompressionSetting(alpha, beta, k)
        order_one = CompressionSetting(alpha, beta, 1)
        ba, bb = setting.basis_alpha, setting.basis_beta

        def close(dense, oracle):
            return np.abs(dense - oracle).max() <= 1e-12 * max(1.0, np.linalg.norm(oracle))

        for _ in range(3):
            phi = random_laurent(rng, -6, 12, terms=6)
            assert close(build_compression(phi, setting).entries, loop_oracle(phi, ba, k, bb))
            assert close(build_compression(phi, order_one).entries, loop_oracle(phi, ba, 1, bb))
        assert close(np.asarray(ba.shift_operands()[0]), loop_oracle(L({1: 1}), ba, 1, ba))


class TestDecimationMatrix:
    def test_factorization(self, rng, all_settings):
        # Compression = W_k after multiplication into the stretched space,
        # W_k the loop oracle's compression of 1 from that space into K_beta.
        for setting in all_settings:
            big = kron_basis(setting)
            W = loop_oracle(L({0: 1}), big, setting.k, setting.basis_beta)
            phi = random_laurent(rng, -5, 8, terms=6)
            U = build_compression(phi, setting)
            lifted = np.array([[inner(mul(phi, e), f) for e in vectors(setting.basis_alpha)] for f in vectors(big)])
            assert np.abs(U.entries - W @ lifted).max() < 1e-8


class TestDefect:
    def test_closed_form_hand_case(self, s243):
        # phi = z^4: chi = 0, psi_0 = z^2, psi_1 = 0.
        dec = defect_from_symbol(L({4: 1}), s243)
        assert np.allclose(dec.chi, np.zeros(4))
        assert np.allclose(dec.psis[0], [0, 0, 1])
        assert np.allclose(dec.psis[1], np.zeros(3))

    def test_closed_form_matches_defect(self, rng, all_settings):
        for setting in all_settings:
            for _ in range(10):
                phi = random_laurent(rng, -6, 10, terms=6)
                U = build_compression(phi, setting)
                D = defect(U, setting, "t35")
                dec = defect_from_symbol(phi, setting)
                assert np.abs(D - assemble_defect(dec, setting)).max() < 1e-8

    def test_unknown_variant(self, s243):
        with pytest.raises(ValueError, match="variant"):
            defect(s243.matrix(np.zeros((3, 4))), s243, "bogus")

    def test_dimension_check(self, s243, s233):
        # The second matrix has the setting's shape but other spaces.
        other = CompressionSetting(InnerFunction.blaschke([0.5, -0.3]), zn(3), 2)
        setting = CompressionSetting(InnerFunction.blaschke([0.4, -0.5j]), zn(3), 2)
        for U, target in ((s233.matrix(np.zeros((3, 3))), s243), (other.matrix(np.eye(3, 2)), setting)):
            with pytest.raises(ValueError):
                defect(U, target)
            with pytest.raises(ValueError):
                membership(U, target)
            with pytest.raises(ValueError):
                conjugate_operator(target, U=U)


class TestMembership:
    def test_members_accepted_all_variants(self, rng, all_settings):
        for setting in all_settings:
            for variant in VARIANTS:
                phi = random_laurent(rng, -6, 10, terms=6)
                U = build_compression(phi, setting)
                report = membership(U, setting, variant)
                assert report.member, (setting.alpha, variant, report.residual)
                assert report.residual < 1e-8

    def test_diagonal_oracle_agreement(self, rng, s243, s233):
        # Exact spaces with k < dim alpha: membership iff constant on the
        # decimation diagonals {k i - j = t}.
        for setting in (s243, s233):
            member = diagonal_member(rng, setting)
            assert membership(member, setting).member
            bumped = member.entries.copy()
            # Break one diagonal with at least two entries.
            n, m, k = bumped.shape[0], bumped.shape[1], setting.k
            hits = [
                (i, j)
                for i in range(n)
                for j in range(m)
                if sum(1 for p in range(n) for q in range(m) if k * p - q == k * i - j) > 1
            ]
            i, j = hits[0]
            bumped[i, j] += 1.0
            report = membership(setting.matrix(bumped), setting)
            assert not report.member
            assert report.residual > 1e-3

    def test_universal_when_order_reaches_dimension(self, rng, s543, sblaschke):
        # k >= dim alpha: every diagonal is a singleton and every matrix is
        # the compression of some symbol.
        for setting in (s543, sblaschke):
            assert setting.k >= setting.basis_alpha.dim
            n, m = setting.basis_beta.dim, setting.basis_alpha.dim
            arbitrary = setting.matrix(rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
            report = membership(arbitrary, setting)
            assert report.member
            rebuilt = build_compression(recover_symbol(report, setting), setting)
            assert np.abs(rebuilt.entries - arbitrary.entries).max() < 1e-7

    def test_variant_verdicts_agree(self, rng, s243, s233):
        for setting in (s243, s233):
            member = build_compression(random_laurent(rng, -5, 8, terms=6), setting)
            bad = member.entries.copy()
            # Entry (0, 0) lies on the multi-entry diagonal t = 0.
            bad[0, 0] += 0.7
            for variant in VARIANTS:
                assert membership(member, setting, variant).member
                assert not membership(setting.matrix(bad), setting, variant).member

    def test_residual_reconstructs_defect(self, rng, s243):
        U = build_compression(random_laurent(rng, -5, 8, terms=6), s243)
        report = membership(U, s243)
        D = defect(U, s243, "t35")
        assert np.abs(D - assemble_defect(report.decomposition, s243)).max() < 1e-10

    def test_zero_matrix_is_member(self, s243):
        report = membership(s243.matrix(np.zeros((3, 4))), s243)
        assert report.member and report.residual == 0.0

    def test_blaschke_nonmembers_rejected(self):
        # k = 2 < dim K_alpha = 3, so not every 2 x 3 matrix is a compression.
        setting = CompressionSetting(B3, BETA, 2)
        for seed in range(5):
            g = np.random.default_rng(seed)
            U = setting.matrix(g.standard_normal((2, 3)) + 1j * g.standard_normal((2, 3)))
            assert not membership(U, setting).member

    def test_bad_tolerance(self, s243):
        for tol in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                membership(s243.matrix(np.zeros((3, 4))), s243, tol=tol)

    def test_effective_tolerance_is_the_threshold(self, s243):
        member = build_compression(mul(random_laurent(np.random.default_rng(5), -5, 8, terms=6), 10.0), s243)
        bad = member.entries.copy()
        bad[0, 0] += 5.0
        reports = []
        for U in (member, s243.matrix(bad)):
            report = membership(U, s243)
            scale = np.linalg.norm(defect(U, s243))
            assert scale > 1.0
            assert report.effective_tolerance == report.tolerance * scale
            assert report.member == (report.residual <= report.effective_tolerance)
            reports.append(report)
        accepted, rejected = reports
        assert accepted.member and not rejected.member
        with pytest.raises(NonMemberError, match=f"{rejected.effective_tolerance:.3e}"):
            recover_symbol(rejected, s243)

    @pytest.mark.parametrize("scale", [1e154, 1e155])
    def test_overflowing_norm_refused(self, scale):
        # Past these scales ||D||_F or the residual overflows, and with it the
        # threshold tol * ||D||_F: such a matrix is refused, with no warning,
        # rather than reported a member against an infinite threshold.
        for alpha, beta in ((zn(4), zn(3)), (zn(4), BETA), (B_NEAR, BETA)):
            setting = CompressionSetting(alpha, beta, 2)
            U = setting.matrix(scale * np.random.default_rng(1).standard_normal((beta.degree, alpha.degree)))
            for variant in VARIANTS:
                with pytest.raises(FloatingPointError, match="not finite"):
                    membership(U, setting, variant)

    def test_report_json(self, rng, s243):
        report = membership(build_compression(L({2: 1}), s243), s243)
        obj = report.to_json()
        assert obj["member"] is True
        assert obj["variant"] == "t35"
        assert len(obj["psis"]) == 2


def design_matrix_fit(U, setting, variant, tol=1e-9):
    """Reference fit: minimum-norm lstsq of the vectorized defect against a
    hand-built (n m) x (m + n k) design matrix on the paper's frames, the
    derivative kernels at 0.  Returns (member, residual)."""
    ba, bb, k = setting.basis_alpha, setting.basis_beta, setting.k
    m, n = ba.dim, bb.dim
    D = defect(U, setting, variant)
    F, Gs = kernel(bb, 0, 0), [kernel(ba, 0, j) for j in range(k)]
    if variant in ("c38", "c310a"):
        F = bb.conjugate_vector(F)
    if variant in ("c38", "c310b"):
        Gs = [ba.conjugate_vector(g) for g in Gs]
    # Columns: F e_i^H for each alpha slot i, then e_r G_j^H for each beta
    # slot r and frame index j.
    cols = []
    for i in range(m):
        block = np.zeros((n, m), dtype=complex)
        block[:, i] = F
        cols.append(block.reshape(-1))
    for r in range(n):
        for j in range(k):
            block = np.zeros((n, m), dtype=complex)
            block[r, :] = Gs[j].conjugate()
            cols.append(block.reshape(-1))
    B = np.array(cols).T
    d = D.reshape(-1)
    x, *_ = np.linalg.lstsq(B, d, rcond=None)
    residual = float(np.linalg.norm(B @ x - d))
    return residual <= tol * max(1.0, float(np.linalg.norm(D))), residual


B_NEAR = InnerFunction.blaschke([0.95, -0.3, 0.2j])
B_REPEATED = InnerFunction.blaschke([0.5, 0.5, -0.3])


class TestDesignMatrixOracle:
    @pytest.mark.parametrize(
        "alpha,beta,k",
        [
            (zn(4), zn(3), 2),
            (zn(4), zn(3), 5),
            (zn(3), BETA, 4),
            (B2, zn(3), 2),
            # G is 2 x 5, wider than dim K_alpha: its pseudo-inverse comes from the SVD.
            (B2, zn(3), 5),
            (B_NEAR, BETA, 2),
            (B_REPEATED, InnerFunction.blaschke([0.0, 0.0, 0.4]), 2),
        ],
        ids=["z4-z3-k2", "z4-z3-k5", "z3-B-k4", "B2-z3-k2", "B2-z3-k5", "Bnear-B-k2", "Brepeated-k2"],
    )
    def test_closed_form_matches_design_matrix(self, alpha, beta, k):
        rng = np.random.default_rng(11)
        setting = CompressionSetting(alpha, beta, k)
        n, m = setting.basis_beta.dim, setting.basis_alpha.dim
        k0b = kernel(setting.basis_beta, 0, 0)
        inputs = [(build_compression(random_laurent(rng, -6, 10, terms=6), setting), True) for _ in range(3)]
        inputs += [
            (setting.matrix(rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))), False) for _ in range(3)
        ]
        # One setting serves every call, in both variant orders: the fit
        # runs on the frames and pseudo-inverse it cached on first use.
        for variant in VARIANTS + VARIANTS[::-1]:
            for U, built in inputs:
                D = defect(U, setting, variant)
                scale = max(1.0, np.linalg.norm(D))
                report = membership(U, setting, variant)
                member, residual = design_matrix_fit(U, setting, variant)
                assert report.member == member
                assert abs(report.residual - residual) <= 1e-12 * scale
                assert report.member or not built
                if report.member:
                    assert np.abs(D - assemble_defect(report.decomposition, setting)).max() <= 1e-12 * scale
                if report.member and variant == "t35":
                    # psi_j(0) = <psi_j, k_0^beta> = 0: the fit is already normalised.
                    assert max(abs(np.vdot(k0b, psi)) for psi in report.decomposition.psis) <= 1e-12


class TestSettingCache:
    """S_alpha^k, the frames, the pseudo-inverse of G and the interpolation
    constants of recovery are computed once per setting and then read by
    every call."""

    @pytest.mark.parametrize(
        "alpha,beta,k",
        [(zn(4), zn(3), 2), (B_NEAR, BETA, 2), (B_REPEATED, InnerFunction.blaschke([0.0, 0.0, 0.4]), 2)],
        ids=["z4-z3-k2", "Bnear-B-k2", "Brepeated-k2"],
    )
    def test_reused_setting_matches_fresh(self, alpha, beta, k):
        rng = np.random.default_rng(3)
        for order in (VARIANTS, VARIANTS[::-1]):
            reused = CompressionSetting(alpha, beta, k)
            n, m = reused.basis_beta.dim, reused.basis_alpha.dim
            inputs = [build_compression(random_laurent(rng, -6, 10, terms=6), reused) for _ in range(2)]
            inputs += [reused.matrix(rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) for _ in range(2)]
            fitted = set()
            for _ in range(2):
                for variant in order:
                    for U in inputs:
                        # A variant's first fit on a setting takes the slices or
                        # the products, and its second forms the fit operator:
                        # fresh takes reused's route.
                        fresh = CompressionSetting(alpha, beta, k)
                        want = membership(U, fresh, variant)
                        if variant in fitted:
                            want = membership(U, fresh, variant)
                        got = membership(U, reused, variant)
                        fitted.add(variant)
                        assert got.to_json() == want.to_json()
                        assert np.array_equal(defect(U, reused, variant), defect(U, fresh, variant))
                        assert np.array_equal(
                            assemble_defect(got.decomposition, reused), assemble_defect(want.decomposition, fresh)
                        )

    def test_constants_computed_once_and_read_only(self):
        setting = CompressionSetting(B_NEAR, BETA, 3)
        U = setting.matrix(np.zeros((2, 3)))
        # An unknown variant is refused before anything is computed.
        for call in (lambda: membership(U, setting, "bogus"), lambda: defect(U, setting, "bogus")):
            with pytest.raises(ValueError, match="variant"):
                call()
        assert setting._frames == {} and "shift_operands" not in vars(setting)
        bases = setting.basis_alpha, setting.basis_beta
        assert not any("_shift" in vars(b) for b in bases)
        for variant in VARIANTS:
            membership(U, setting, variant)
            assert setting.frames(variant) is setting.frames(variant)
        assert setting.shift_operands is setting.shift_operands
        # Past k = dim K_alpha the parts psi_j, j >= 3, are folded onto the rest.
        folding = CompressionSetting(B_NEAR, BETA, 10)
        for s in (setting, folding):
            assert "interpolation" not in vars(s)
            recover_symbol(membership(s.matrix(np.ones((2, 3))), s), s)
            assert s.interpolation is s.interpolation
        assert setting.interpolation[2] is None
        arrays = [a for b in bases for a in (*b.shift_operands(), *b.shift_operands(2))]
        assert all(b.shift_operands() is b.shift_operands() for b in bases)
        # The frames keep what the fit reads: ||F||^2 as a float, and the
        # adjoints of G = conj(rows_alpha[:, :used]), conjugated by C_alpha
        # for c38 and c310b, and of its pseudo-inverse, bit for bit.
        assert Frames._fields == ("F", "norm2", "F_conj", "G_adj", "G_pinv_adj", "slices")
        frames = [setting.frames(v) for v in VARIANTS]
        # The exact slices are cached with the frames, one per variant, and
        # only where both bases are exact.
        assert all(f.slices is None for f in frames)
        exact = CompressionSetting(zn(4), zn(3), 2)
        for variant in VARIANTS:
            slices = exact.frames(variant).slices
            assert isinstance(slices, _Slices) and exact.frames(variant).slices is slices
        assert len({id(exact.frames(v).slices) for v in VARIANTS}) == len(VARIANTS)
        ba = setting.basis_alpha
        for variant, f in zip(VARIANTS, frames):
            assert isinstance(f.norm2, float)
            G = ba.first_columns(_used(setting)).conj()
            if variant in ("c38", "c310b"):
                G = ba.conjugation_operand @ G.conj()
            adjoints = f.F.conj(), G.conj().T, _pinv(G).conj().T
            assert all(map(np.array_equal, (f.F_conj, f.G_adj, f.G_pinv_adj), adjoints))
        arrays += list(setting.shift_operands)
        arrays += [a for f in frames for a in f if isinstance(a, np.ndarray)]
        arrays += [*setting.interpolation[:2], *folding.interpolation]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                a *= 2.0

    def test_build_forms_no_shift(self):
        # A build on z^1024 gathers from the symbol, with no 16 MiB identity
        # rows; the shift and its adjoint, 16 MiB each, are formed when a
        # routine first reads them.
        def run():
            setting = CompressionSetting(zn(1024), zn(3), 2)
            build_compression(L({1: 1}), setting)
            assert not any({"_shift", "rows"} & set(vars(b)) for b in (setting.basis_alpha, setting.basis_beta))

        assert traced_peak(run) < 1 << 20

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_monomial_membership_memory(self, variant):
        # On z^2048 the defect moves entries by index and C_alpha reverses
        # them, so the fit forms no 2048 x 2048 array (64 MiB): it took
        # S^2 and its adjoint, or S^2 and C_alpha, 129 MiB.
        def run():
            setting = CompressionSetting(zn(2048), zn(3), 2)
            assert membership(setting.matrix(np.zeros((3, 2048))), setting, variant).member

        assert traced_peak(run) < 4 << 20

    def test_monomial_rank_one_memory(self):
        # tilde_k reads the first columns of the identity rows and beta's
        # frame: no dense power of S (16 MiB at z^1024); k_tilde reverses
        # them, times c, with no dense c J (16 MiB).
        def run():
            setting = CompressionSetting(zn(1024), zn(3), 3)
            assert rank_one(setting, 1, "tilde_k")[0].norm() == 1.0
            assert rank_one(setting, 1, "k_tilde")[0].norm() == 1.0

        assert traced_peak(run) < 4 << 20

    def test_monomial_recovery_memory(self):
        # t35 recovery on z^N writes the parts as they are, with no identity
        # head or identity to compare it with, and its fit forms no dense
        # S^2 (16 MiB each at z^1024).
        def run():
            setting = CompressionSetting(zn(1024), zn(3), 2)
            assert recover_symbol(membership(setting.matrix(np.zeros((3, 1024))), setting), setting) == L({})

        assert traced_peak(run) < 4 << 20

    def test_pinv_matches_lstsq(self):
        # Partial isometries, full-rank SVDs, and rank cuts.
        rng = np.random.default_rng(61)
        A = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        isometries = [np.eye(4, 2), 1j * np.eye(3)[::-1], np.linalg.qr(A.T)[0].T]
        cases = isometries + [A, A.T, np.outer(A[0], A[:, 1]), [[1, 2, 0], [2, 4, 0]]]
        for G in cases:
            G = np.asarray(G, dtype=complex)
            want = np.linalg.lstsq(G, np.eye(len(G)), rcond=None)[0]
            assert np.abs(_pinv(G) - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize(
        "alpha,beta,k",
        [(zn(4), zn(3), 2), (zn(3), zn(2), 40), (zn(1), zn(5), 1 << 62), (zn(3), BETA, 4), (B2, zn(3), 5)],
        ids=["z4-z3-k2", "z3-z2-k40", "z1-z5-k2^62", "z3-B-k4", "B2-z3-k5"],
    )
    def test_no_interpolation_on_monomials(self, alpha, beta, k):
        # z^N needs no A^-1 or B^-1: its parts are already polynomials of
        # degree < dim.  Only a Blaschke alpha folds, once k passes dim.
        setting = CompressionSetting(alpha, beta, k)
        n, m = setting.basis_beta.dim, setting.basis_alpha.dim
        U = setting.matrix(np.random.default_rng(7).standard_normal((n, m)))
        report = membership(U, setting)
        if report.member:
            recover_symbol(report, setting)
        inv_a, inv_b, fold = setting.interpolation
        assert (inv_a is None) == (alpha.kind == "monomial") and (inv_b is None) == (beta.kind == "monomial")
        assert (fold is None) == (alpha.kind == "monomial" or k <= alpha.degree)

    @pytest.mark.parametrize("alpha,beta", [(zn(4), zn(3)), (B_NEAR, BETA)], ids=["z4-z3", "Bnear-B"])
    def test_membership_prompt_at_order_1e8(self, alpha, beta):
        # k = 10^8 is 27 squarings of S_alpha and at most T_alpha + 1 frame columns.
        setting = CompressionSetting(alpha, beta, 10**8)
        n, m = setting.basis_beta.dim, setting.basis_alpha.dim
        g = np.random.default_rng(59)
        U = setting.matrix(g.standard_normal((n, m)) + 1j * g.standard_normal((n, m)))
        start = time.perf_counter()
        first = membership(U, setting)  # the slices or the products
        report = membership(U, setting)  # forms the fit operator
        again = membership(U, setting)
        assert time.perf_counter() - start < 1.0
        assert report.member and report.residual <= 1e-13
        assert again.to_json() == report.to_json()
        assert_fits_agree(first, report)


class TestExact:
    """Exactness is one basis flag, every zero at the origin, read with no
    rows."""

    def test_basis_flag(self):
        exact = [zn(1), zn(5), InnerFunction.blaschke([0, 0, 0], cmath.exp(0.7j))]
        for inner in exact + [InnerFunction.blaschke([0.5]), InnerFunction.blaschke([0, 0.5])]:
            basis = ModelSpaceBasis.build(inner)
            assert basis.exact == (inner in exact)
            assert "rows" not in vars(basis)

    def test_setting_reads_no_rows(self):
        setting = CompressionSetting(B_NEAR, BETA, 2)
        assert not setting.exact and setting.tol() == model_space.BLASCHKE_TOL
        for basis in (setting.basis_alpha, setting.basis_beta):
            assert not {"rows", "_truncation_outcome"} & set(vars(basis))  # what holds the rows
        assert CompressionSetting(InnerFunction.blaschke([0, 0, 0], cmath.exp(0.7j)), zn(2), 2).exact

    def test_refused_rows(self):
        # B[0.99997, 0.99997] has its rows refused.  tilde_k at l < k <=
        # least order + 1 reads two columns of them from the doubling, and a
        # symbol of beta alone; k_tilde's symbol reads alpha's expansion.
        setting = CompressionSetting(InnerFunction.blaschke([0.99997, 0.99997]), zn(2), 2)
        assert setting.exact is False
        mat, symbol = rank_one(setting, 1, "tilde_k")
        ba, bb = setting.basis_alpha, setting.basis_beta
        want = np.outer(bb.conjugate_vector(kernel(bb, 0, 0)), kernel(ba, 0, 1).conj())
        assert np.abs(mat.entries - want).max() <= 1e-12 * np.abs(want).max() and symbol == L({1: 1})
        with pytest.raises(TruncationError, match="outside"):
            rank_one(setting, 1, "k_tilde")


# Exact bases with c != 1, large and small.
C_EXACT = InnerFunction.blaschke([0] * 16, cmath.exp(0.7j))
C_EXACT2 = InnerFunction.blaschke([0] * 17, cmath.exp(-2.1j))
C_SMALL = InnerFunction.blaschke([0] * 3, cmath.exp(1.3j))

# z^N at k below, at and past N, an exact basis with c != 1 on either side,
# mixed exact/Blaschke settings, and small exact bases such as the verify
# suite's.
INDEX_SETTINGS = [
    (zn(20), zn(17), 2),
    (zn(20), zn(17), 20),
    (zn(20), zn(17), 23),
    (zn(16), zn(16), 1),
    (zn(16), zn(24), 7),
    (C_EXACT, C_EXACT2, 2),
    (C_EXACT, zn(18), 3),
    (zn(18), BETA, 3),
    (B2, zn(16), 2),
    (B_NEAR, C_EXACT, 4),
    (B3, BETA, 2),
    (zn(5), zn(4), 2),
    (zn(4), zn(3), 5),
    (C_SMALL, zn(3), 2),
]
INDEX_IDS = ["z20-z17-k2", "z20-z17-k20", "z20-z17-k23", "z16-z16-k1", "z16-z24-k7", "cz16-cz17-k2",
             "cz16-z18-k3", "z18-B-k3", "B2-z16-k2", "Bnear-cz16-k4", "B3-B-k2", "z5-z4-k2",
             "z4-z3-k5", "cz3-z3-k2"]


class TestIndexMaps:
    """On an exact basis, of any dimension, S^n, S^{*n} and C = c J act by
    index: the defect, the sandwich and the c38/c310b frames equal the
    dense products, bit for bit where the constants are 1, and form no
    dense operand."""

    def test_route_by_exactness(self):
        for inner, dense in ((zn(1), False), (zn(3), False), (C_SMALL, False), (zn(16), False), (B2, True)):
            basis = ModelSpaceBasis.build(inner)
            operands = *basis.shift_operands(), *basis.shift_operands(3), basis.conjugation_operand
            assert all(isinstance(op, np.ndarray) == dense for op in operands)

    @pytest.mark.parametrize("inner", [zn(20), C_SMALL, B2], ids=["z20", "cz3", "B2"])
    def test_wrong_length_refused(self, inner):
        # An index map refuses an array of another size, as the dense
        # product does, and does not slice or reverse it.
        basis = ModelSpaceBasis.build(inner)
        short = np.ones(basis.dim + 2)
        with pytest.raises(ValueError):
            basis.conjugate_vector(short)
        operands = *basis.shift_operands(2), basis.conjugation_operand
        for op in operands:
            for x in (short, np.ones((basis.dim - 1, 2)), np.ones((2, basis.dim + 1, 3))):
                with pytest.raises(ValueError):
                    op @ x
            with pytest.raises(ValueError):
                np.ones((3, basis.dim + 1)) @ op

    def test_conjugate_vector_contiguous(self):
        # The public involution returns a contiguous array, as the dense
        # product did, so reductions over it keep their summation order.
        basis = ModelSpaceBasis.build(zn(4))
        g = np.random.default_rng(3)
        v, w = (g.standard_normal(4) + 1j * g.standard_normal(4) for _ in range(2))
        cv, cw = basis.conjugate_vector(v), basis.conjugate_vector(w)
        J = np.eye(4, dtype=complex)[::-1]
        dense_v, dense_w = J @ v.conj(), J @ w.conj()
        assert cv.flags.c_contiguous and np.array_equal(cv, dense_v)
        assert np.vdot(cw, cv) == np.vdot(dense_w, dense_v)

    @pytest.mark.parametrize(
        "inner", [zn(1), zn(4), zn(20), C_SMALL, C_EXACT, B2, B_NEAR], ids=["z1", "z4", "z20", "cz3", "cz16", "B2", "Bnear"]
    )
    def test_operands_match_dense(self, inner):
        basis = ModelSpaceBasis.build(inner)
        g = np.random.default_rng(5)
        dim = basis.dim
        C = dense_conjugation(basis)
        for shape in ((dim,), (dim, 3)):
            x = g.standard_normal(shape) + 1j * g.standard_normal(shape)
            for got, want in ((basis.conjugation_operand @ x, C @ x), (x.T @ basis.conjugation_operand, x.T @ C)):
                if inner.constant == 1:
                    assert np.array_equal(got, want)
                else:
                    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
        for n in sorted({0, 1, 2, dim - 1, dim, dim + 3}):
            power = dense_shift(basis, n)
            for dense, operand in zip((power, power.conj().T), basis.shift_operands(n)):
                for shape in ((dim,), (dim, 3)):
                    x = g.standard_normal(shape) + 1j * g.standard_normal(shape)
                    assert np.array_equal(operand @ x, dense @ x)
                    assert np.array_equal(x.T @ operand, x.T @ dense)

    @pytest.mark.parametrize("alpha,beta,k", INDEX_SETTINGS, ids=INDEX_IDS)
    def test_defect_matches_dense(self, alpha, beta, k):
        setting = CompressionSetting(alpha, beta, k)
        ba, bb = setting.basis_alpha, setting.basis_beta
        g = np.random.default_rng(11)
        inputs = [g.standard_normal((bb.dim, ba.dim)) + 1j * g.standard_normal((bb.dim, ba.dim))]
        inputs.append(build_compression(random_laurent(g, -6, 10, terms=6), setting).entries)
        for M in inputs:
            U = setting.matrix(M)
            got = {v: defect(U, setting, v) for v in VARIANTS}
            # What the dense route read, formed here after the fit.
            Sb, Sa = dense_shift(bb, 1), dense_shift(ba, k)
            Sb_adj, Sa_adj = Sb.conj().T, Sa.conj().T
            want = {
                "t35": M - Sb @ M @ Sa_adj,
                "c38": M - Sb_adj @ M @ Sa,
                "c310a": Sb_adj @ M - M @ Sa_adj,
                "c310b": Sb @ M - M @ Sa,
            }
            assert all(np.array_equal(got[v], want[v]) for v in VARIANTS)
            phi = random_laurent(g, -6, 3 * k + 8, terms=8)
            used = _used(setting)
            c, lo = dense_clip(phi, k + 1 - used, k * bb.rows.shape[1])
            psis = Sb @ _compress(c, lo - k, np.eye(used), k, bb.rows)
            assert np.array_equal(np.array(defect_from_symbol(phi, setting).psis).T, psis)

    @pytest.mark.parametrize("alpha,beta,k", INDEX_SETTINGS, ids=INDEX_IDS)
    def test_sandwich_and_frames_match_dense(self, alpha, beta, k):
        # The products with the index maps: bit for bit where both constants
        # are 1; an exact basis with c != 1 rounds c times an entry where the
        # GEMM did, within 1e-15 relative.  A small mixed setting's second
        # sandwich is one product with its `sandwich_operator`, which sums in
        # another order: within 4 ulp of the largest entry.
        setting = CompressionSetting(alpha, beta, k)
        ba, bb = setting.basis_alpha, setting.basis_beta
        bits = alpha.constant == 1 and beta.constant == 1

        def agree(got, want):
            if bits:
                assert np.array_equal(got, want)
            else:
                assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

        g = np.random.default_rng(13)
        M = g.standard_normal((bb.dim, ba.dim)) + 1j * g.standard_normal((bb.dim, ba.dim))
        want = dense_conjugation(bb) @ M.conj() @ dense_conjugation(ba).conj()
        first, got = (conjugate_operator(setting, U=setting.matrix(M))[0].entries for _ in range(2))
        agree(first, want)  # the products, or the reversal of an exact setting
        if vars(setting).get("sandwich_operator") is None:
            agree(got, want)
        else:
            assert np.abs(got - want).max() <= 4 * np.spacing(np.abs(want).max())
        # On an exact alpha the frames are index maps, densified here.
        G = np.eye(ba.dim, _used(setting)) if ba.exact else ba.first_columns(_used(setting)).conj()
        for variant in ("c38", "c310b"):
            agree(np.asarray(setting.frames(variant).G_adj), (dense_conjugation(ba) @ G.conj()).conj().T)

    def test_exact_forms_no_dense_operand(self):
        # The fit, the sandwich, the closed-form defect, recovery and the
        # rank-ones on z^N read no dense S, S^*, S_alpha^k or C.
        setting = CompressionSetting(C_EXACT, zn(17), 2)
        U = build_compression(random_laurent(np.random.default_rng(17), -6, 10, terms=6), setting)
        for variant in VARIANTS:
            recover_symbol(membership(U, setting, variant), setting)
            defect(U, setting, variant)
        conjugate_operator(setting, U=U)
        conjugate_operator(setting, phi=L({1: 1, -2: 3j}))
        defect_from_symbol(L({4: 1}), setting)
        for kind in ("tilde_k", "k_tilde"):
            rank_one(setting, 1, kind)
        assert not any(isinstance(op, np.ndarray) for op in setting.shift_operands)
        for basis in (setting.basis_alpha, setting.basis_beta):
            assert not {"_shift", "_conjugation"} & set(vars(basis))

    def test_exact_pinv_is_adjoint(self):
        # On an exact basis the frame G is a partial isometry, and the fit
        # takes G^H as its pseudo-inverse with no Gram test: the same
        # decision as `_pinv` where c = 1, and within 4 eps of lstsq's
        # pseudo-inverse where |c|^2 rounds off 1.
        g = np.random.default_rng(19)
        cases = [(zn(n), k) for n in (1, 3, 4) for k in (1, 2, 4, 6)]
        for _ in range(30):
            alpha = InnerFunction.blaschke([0] * int(g.integers(1, 5)), cmath.exp(1j * g.uniform(-3, 3)))
            cases.append((alpha, int(g.integers(1, 7))))
        for alpha, k in cases:
            setting = CompressionSetting(alpha, zn(2), k)
            for variant in VARIANTS:
                f = setting.frames(variant)
                G, G_pinv_adj = np.asarray(f.G_adj).conj().T, np.asarray(f.G_pinv_adj)
                if alpha.constant == 1:
                    assert np.array_equal(G_pinv_adj, G)
                want = np.linalg.lstsq(G, np.eye(len(G)), rcond=None)[0].conj().T
                assert np.abs(G_pinv_adj - want).max() <= 4 * np.finfo(float).eps

    def test_used_reads_no_rows(self):
        # Past k = N, z^N counts N = T + 1 frame columns with no rows.
        setting = CompressionSetting(zn(1024), zn(3), 1025)
        assert _used(setting) == 1024
        assert rank_one(setting, 1, "k_tilde")[0].norm() == 1.0
        assert not {"rows", "_truncation_outcome"} & set(vars(setting.basis_alpha))


def dense_left(op, x):
    """op @ x as sums of numpy's elementwise products, op's entry first, as
    a scaled slice multiplies, with no BLAS: a sum of one nonzero product
    and zeros is that product rounded once."""
    return (op[:, :, None] * x[None, :, :]).sum(axis=1)


def dense_right(x, op):
    """x @ op as `dense_left`, op's entry first."""
    return (op[None, :, :] * x[:, :, None]).sum(axis=1)


def dense_fit(U, setting, variant, left=dense_left, right=dense_right):
    """D, chi, Z, the residual and ||D||_F of `membership`, from the dense
    shift and frame operands (np.asarray of the index maps) and the
    products `left` and `right` (np.matmul for the plain `@`)."""
    M = U.entries
    Sb, Sb_adj, Sa, Sa_adj = map(np.asarray, setting.shift_operands)
    D = {
        "t35": lambda: M - right(left(Sb, M), Sa_adj),
        "c38": lambda: M - right(left(Sb_adj, M), Sa),
        "c310a": lambda: left(Sb_adj, M) - right(M, Sa_adj),
        "c310b": lambda: left(Sb, M) - right(M, Sa),
    }[variant]()
    F, norm2, F_conj, G_adj, G_pinv_adj, _ = setting.frames(variant)
    chi_conj = left(F_conj[None], D)[0] / norm2
    R = D - F[:, None] * chi_conj
    Z = right(R, np.asarray(G_pinv_adj))
    E = R - right(Z, np.asarray(G_adj))
    return D, chi_conj.conj(), Z, math.sqrt(np.vdot(E, E).real), float(np.linalg.norm(D))


# z^N -> z^M at k below, at and past N, square, of dimension 1, the
# benchmark's z^64 -> z^48, and exact bases with c != 1 on either side.
C_ALPHA = InnerFunction.blaschke([0] * 4, cmath.exp(0.7j))
SLICE_SETTINGS = [
    (zn(4), zn(3), 2),
    (zn(4), zn(3), 5),
    (zn(4), zn(3), 7),
    (zn(3), zn(3), 3),
    (zn(64), zn(48), 3),
    (zn(1), zn(1), 2),
    (C_ALPHA, zn(3), 2),
    (zn(4), C_SMALL, 3),
    (C_ALPHA, C_SMALL, 5),
]
SLICE_IDS = ["z4-z3-k2", "z4-z3-k5", "z4-z3-k7", "z3-z3-k3", "z64-z48-k3", "z1-z1-k2", "cz4-z3-k2", "z4-cz3-k3",
             "cz4-cz3-k5"]


class TestSlices:
    """Where both bases are exact, the defect, the membership fit and the
    sandwich are slices of U (`_Slices`, `_sandwich`) with the values of the
    dense products: D, chi, the psi_j, ||D||_F and the sandwich bit for bit,
    the residual within 4 ulp, on one matrix and on a stack of them along a
    trailing axis, which forms the fit operator.  Through `membership`,
    which reads that operator on a small setting, the same bits where both
    constants are 1 (its entries are 0 and +-1), and the same verdicts; the
    rounding of the other constants is bounded in `TestFitOperator`."""

    @pytest.mark.parametrize("alpha,beta,k", SLICE_SETTINGS, ids=SLICE_IDS)
    def test_fit_matches_dense(self, alpha, beta, k):
        setting = CompressionSetting(alpha, beta, k)
        ba, bb = setting.basis_alpha, setting.basis_beta
        g = np.random.default_rng(23)
        member = build_compression(random_laurent(g, -6, 3 * k + 6, terms=7), setting)
        inputs = [
            setting.matrix(g.standard_normal((bb.dim, ba.dim)) + 1j * g.standard_normal((bb.dim, ba.dim))),
            member,
            conjugate_operator(setting, U=member)[0],  # a member, reversed views
        ]
        stack = np.stack([U.entries for U in inputs], axis=-1)
        bits = alpha.constant == 1 and beta.constant == 1
        verdicts = set()
        for variant in VARIANTS:
            frames = setting.frames(variant)
            D_stack = frames.slices.defect(stack)
            fit_stack = frames.slices.fit(D_stack, frames)
            for t, U in enumerate(inputs):
                D, chi, Z, residual, norm = dense_fit(U, setting, variant)
                got_D = frames.slices.defect(U.entries)
                chi_conj, got_Z, E = frames.slices.fit(got_D, frames)
                assert np.array_equal(got_D, D) and np.array_equal(defect(U, setting, variant), D)
                assert np.array_equal(chi_conj.conj(), chi)
                assert np.array_equal(got_Z, Z)
                # The trailing axis takes each matrix through the same operations.
                assert np.array_equal(D_stack[..., t], got_D)
                for part, got in zip(fit_stack, (chi_conj, got_Z, E)):
                    assert np.array_equal(part[..., t], got)
                # Where a constant is not 1, the dense fit leaves the rounding
                # of c conj(c) / |c|^2 in F's row and G's columns, a few ulp of
                # ||D||, which the slices, exact there, do not: a member's
                # dense residual is that noise.
                sliced = math.sqrt(np.vdot(E, E).real)
                noise = not bits and residual <= 4 * np.spacing(norm)
                assert abs(sliced - residual) <= 4 * np.spacing(norm if noise else residual)
                # Against the plain products (BLAS, which may round a scaled
                # entry its own way): chi and Z within 4 ulp of their largest.
                _, chi_at, Z_at, _, _ = dense_fit(U, setting, variant, np.matmul, np.matmul)
                assert np.abs(chi_conj.conj() - chi_at).max() <= 4 * np.spacing(np.abs(chi_at).max())
                if Z_at.size:
                    assert np.abs(got_Z - Z_at).max() <= 4 * np.spacing(np.abs(Z_at).max())
                # membership: D's entries are differences of U's, bit for bit
                # on every setting, and the fit's too where both constants are 1.
                report = membership(U, setting, variant)
                assert report.defect_norm == norm
                if bits:
                    assert np.array_equal(report.decomposition.chi, chi)
                    assert np.array_equal(np.array(report.decomposition.psis).T, Z)
                    assert report.residual == sliced
                assert report.member == (residual <= report.effective_tolerance)
                verdicts.add((U is inputs[0], report.member))
        assert (False, True) in verdicts  # every member is one
        if ba.dim > k and bb.dim > 1:
            assert (True, False) in verdicts  # a Gaussian matrix is not
        # The sandwich: one reversed conjugate, times the constants.
        Cb, Ca = np.asarray(bb.conjugation_operand), np.asarray(ba.conjugation_operand)
        for U in inputs:
            got = conjugate_operator(setting, U=U)[0].entries
            assert np.array_equal(got, dense_right(dense_left(Cb, U.entries.conj()), Ca.conj()))
            plain = Cb @ U.entries.conj() @ Ca.conj()
            assert np.abs(got - plain).max() <= 4 * np.spacing(np.abs(plain).max())

    def test_no_operand(self):
        # The sliced routes read no shift or conjugation operand; the frames
        # read C_beta once, where they are formed.
        setting = CompressionSetting(C_ALPHA, C_SMALL, 2)
        U = build_compression(L({1: 1, -2: 3j}), setting)
        conjugate_operator(setting, U=U)
        for basis in (setting.basis_alpha, setting.basis_beta):
            assert "conjugation_operand" not in vars(basis)
        for variant in VARIANTS:
            membership(U, setting, variant)
            defect(U, setting, variant)
        assert "shift_operands" not in vars(setting)

    @pytest.mark.parametrize(
        "beta", [BETA, InnerFunction.blaschke([-0.5j, 0.4]), zn(3)], ids=["B", "B-complex-kappa", "z3"]
    )
    @pytest.mark.parametrize("n,k", [(4, 1), (4, 3), (4, 4), (4, 10), (1, 1), (1, 4)])
    def test_zero_test_closed_form(self, monkeypatch, beta, n, k):
        # On an exact alpha G selects coordinates, so every s_i is 1: p27
        # takes no SVD and forms no dense G, and gives the verdicts of least
        # squares on all directions, every zero symbol accepted.
        setting = CompressionSetting(zn(n), beta, k)
        rng = np.random.default_rng(83)
        alpha_bar = conj_on_circle(dict_alpha(setting.basis_alpha))
        generic = [random_laurent(rng, -k - 4, 0, terms=4) for _ in range(6)]
        generic += [random_laurent(rng, -n - 2, 3 * k, terms=6) for _ in range(6)]
        members = [
            mul(alpha_bar, random_laurent(rng, -3, 0, terms=3))
            + shifted(mul(stretched_beta_expansion(setting), random_laurent(rng, 0, 3, terms=3)), 1 - k)
            for _ in range(4)
        ]
        want = [dict_zero_test(phi, setting, "p27") for phi in generic + members]
        setting.kappa  # beta's first column, dense on an exact beta

        def refused(*args, **kwargs):
            raise AssertionError("the zero test of an exact alpha took an SVD or a dense index map")

        monkeypatch.setattr(np.linalg, "svd", refused)
        monkeypatch.setattr(model_space._IndexMap, "__array__", refused)
        assert [zero_test_sufficient(phi, setting, "p27") for phi in generic + members] == want
        assert all(want[len(generic) :])
        # The second test formed Z under the same patches, or found it past
        # the cut; into z^3 it is within the cut at every k here.
        assert k - 1 in setting._zero_tests
        if setting.basis_beta.exact:
            assert setting.zero_test_operator(k - 1) is not None


# Blaschke both ways, the benchmark's, mixed either way, unit-modulus
# constants on a Blaschke side, on an exact side, and on both, and exact
# settings, of constant 1 and not.
CB2 = InnerFunction.blaschke([-0.3j, 0.5], cmath.exp(0.3j))
FIT_SETTINGS = [
    (B3, BETA, 2),
    (B_NEAR, BETA, 2),
    (B3, zn(3), 2),
    (zn(3), BETA, 3),
    WIDE[0],
    (C_SMALL, BETA, 2),
    (CB2, C_SMALL, 5),
    (zn(4), zn(3), 2),
    (C_ALPHA, zn(3), 2),
    (zn(4), C_SMALL, 3),
    (C_ALPHA, C_SMALL, 5),
]
FIT_IDS = ["B3-B-k2", "Bnear-B-k2", "B3-z3-k2", "z3-B-k3", "cB2-cB2-k3", "cz3-B-k2", "cB2-cz3-k5", "z4-z3-k2",
           "cz4-z3-k2", "z4-cz3-k3", "cz4-cz3-k5"]


def second_read(setting, name):
    """The per-setting operator `name` as a routine reads it once the
    setting has read it before: formed by this call if it was not yet."""
    getattr(setting, name)
    return getattr(setting, name)


def assert_fits_agree(got, want):
    """Two reports of one fit by two routes: the same verdict, and chi, the
    psi_j, the residual and ||D||_F within 32 ulp of the largest entry (of
    ||D|| for the residual), the bounds of `test_fit_matches_dense`."""
    assert got.member == want.member
    for a, b in ((got.decomposition.chi, want.decomposition.chi),
                 (np.array(got.decomposition.psis), np.array(want.decomposition.psis))):
        assert np.abs(a - b).max() <= 32 * np.spacing(np.abs(b).max())
    assert abs(got.residual - want.residual) <= 32 * np.spacing(want.defect_norm)
    assert abs(got.defect_norm - want.defect_norm) <= 32 * np.spacing(want.defect_norm)


def count_formations(monkeypatch):
    """Counts the stacks of unit matrices that the operators are formed on."""
    formed = []
    units = CompressionSetting._units
    monkeypatch.setattr(CompressionSetting, "_units", lambda self: formed.append(self) or units(self))
    return formed


class TestFitOperator:
    """Within OPERATOR_ENTRIES a repeated fit is one product with a matrix
    that the fit formed on the unit matrices (`CompressionSetting.fit_operator`):
    the products on a setting that is not all-exact, the slices on an exact
    one.  So is a repeated sandwich on a setting that is not all-exact
    (`sandwich_operator`), and a repeated build between two Blaschke bases
    (`monomials`).  Each is formed on the second call that reads it; the
    first takes the route of a setting past the cut.  The values of the
    products within rounding, the same verdicts, and the same refusals."""

    @pytest.mark.parametrize("alpha,beta,k", FIT_SETTINGS, ids=FIT_IDS)
    def test_fit_matches_dense(self, alpha, beta, k):
        # chi, the psi_j, the residual and ||D||_F within 32 ulp of the
        # largest entry (of ||D|| for the residual, a member's being noise):
        # the BLAS products differ from `dense_fit` by up to 17 ulp of chi
        # on these settings, and the operator by up to 19 of Z.  On an exact
        # setting with a constant c != 1 the operator's entries are c and -c,
        # so the GEMV rounds c (a - b) of the slices as c a - c b.
        setting = CompressionSetting(alpha, beta, k)
        ba, bb = setting.basis_alpha, setting.basis_beta
        g = np.random.default_rng(29)
        members = [build_compression(random_laurent(g, -6, 3 * k + 6, terms=7), setting) for _ in range(4)]
        gaussian = [setting.matrix(g.standard_normal((bb.dim, ba.dim)) + 1j * g.standard_normal((bb.dim, ba.dim)))
                    for _ in range(4)]
        bumped = [setting.matrix(U.entries + 1e-6 * G.entries) for U, G in zip(members, gaussian)]
        verdicts = set()
        for U in members + gaussian + bumped:
            for variant in VARIANTS:
                report = membership(U, setting, variant)
                # The first fit of each variant forms nothing, the second L.
                assert (setting._fit_operators.get(variant) is not None) == (U is not members[0])
                D, chi, Z, residual, norm = dense_fit(U, setting, variant)
                psis = np.array(report.decomposition.psis).T
                assert np.abs(report.decomposition.chi - chi).max() <= 32 * np.spacing(np.abs(chi).max())
                assert np.abs(psis - Z).max() <= 32 * np.spacing(np.abs(Z).max())
                assert abs(report.residual - residual) <= 32 * np.spacing(norm)
                assert abs(report.defect_norm - norm) <= 32 * np.spacing(norm)
                assert report.member == (residual <= report.tolerance * max(1.0, norm))
                verdicts.add((any(U is V for V in members), report.member))
        assert (True, False) not in verdicts  # every member is one
        if ba.dim > k:
            assert (False, True) not in verdicts  # no Gaussian or bumped matrix is
        # The sandwich against the products with the dense C.
        Cb, Ca = dense_conjugation(bb), dense_conjugation(ba)
        for U in members + gaussian:
            got = conjugate_operator(setting, U=U)[0].entries
            want = Cb @ U.entries.conj() @ Ca.conj()
            assert np.abs(got - want).max() <= 4 * np.spacing(np.abs(want).max())
        # An exact setting's sandwich is one reversed conjugate, no operator.
        assert (vars(setting).get("sandwich_operator") is None) == setting.exact

    @pytest.mark.parametrize("alpha,beta,k", FIT_SETTINGS, ids=FIT_IDS)
    def test_first_call_matches_operator(self, alpha, beta, k):
        # A one-shot call's route against the operator's on the same matrix:
        # the fit's bits on an exact setting of constant 1, whose L holds 0
        # and +-1, and `test_fit_matches_dense`'s 32 ulp elsewhere; the
        # sandwich's bits on an exact setting, which forms no K, and 4 ulp
        # elsewhere; a build's bits where no table is formed, and TABLE_TOL
        # between two Blaschke bases.
        g = np.random.default_rng(41)
        ba, bb = ModelSpaceBasis.build(alpha), ModelSpaceBasis.build(beta)
        exact = ba.exact and bb.exact
        bits = exact and alpha.constant == 1 and beta.constant == 1
        phi = random_laurent(g, -6, 3 * k + 6, terms=7)
        gaussian = g.standard_normal((bb.dim, ba.dim)) + 1j * g.standard_normal((bb.dim, ba.dim))
        setting = CompressionSetting(alpha, beta, k)
        first, U = (build_compression(phi, setting) for _ in range(2))
        assert_built(setting, U.entries, first.entries)
        for M in (U.entries, gaussian):
            for variant in VARIANTS:
                setting = CompressionSetting(alpha, beta, k)
                first, report = (membership(setting.matrix(M), setting, variant) for _ in range(2))
                assert setting._fit_operators[variant] is not None
                if bits:
                    assert first.to_json() == report.to_json()
                else:
                    assert_fits_agree(first, report)
            first, got = (conjugate_operator(setting, U=setting.matrix(M))[0].entries for _ in range(2))
            if exact:
                assert np.array_equal(first, got)
            else:
                assert vars(setting)["sandwich_operator"] is not None
                assert np.abs(got - first).max() <= 4 * np.spacing(np.abs(first).max())

    def test_formed_once_read_only(self, monkeypatch):
        # One call of each reader forms nothing; the second of each forms its
        # operator, once: an L per variant, K where the setting is not
        # all-exact, the table between two Blaschke bases.
        formed = count_formations(monkeypatch)
        for setting in (CompressionSetting(B3, BETA, 2), CompressionSetting(zn(4), zn(3), 2)):
            ba, bb = setting.basis_alpha, setting.basis_beta
            phi = L({1: 1, -2: 3j})
            U = build_compression(phi, setting)
            # The other readers of the frames read no operator.
            for variant in VARIANTS:
                parts = DefectDecomposition(np.ones(ba.dim), [np.ones(bb.dim)] * _used(setting), variant)
                assemble_defect(parts, setting)
                defect(U, setting, variant)
            for kind in ("tilde_k", "k_tilde"):
                rank_one(setting, 1, kind)
            for variant in VARIANTS:
                membership(U, setting, variant)
            conjugate_operator(setting, U=U)
            cached = {"sandwich_operator", "monomials"} & set(vars(setting))
            assert formed == [] and setting._fit_operators == {} and not cached
            for _ in range(2):
                assert_built(setting, build_compression(phi, setting).entries, U.entries)
                for variant in VARIANTS:
                    membership(U, setting, variant)
                conjugate_operator(setting, U=U)
            ops = [setting._fit_operators[v] for v in VARIANTS]
            if not setting.exact:
                ops.append(vars(setting)["sandwich_operator"])
            assert formed == [setting] * len(ops)
            assert (vars(setting)["monomials"] is None) == setting.exact
            if not setting.exact:
                ops.append(vars(setting)["monomials"])
            for op in ops:
                with pytest.raises(ValueError, match="read-only"):
                    op[0, 0] = 1.0
            formed.clear()

    @pytest.mark.parametrize("n,m,k,fit", [(10, 8, 2, True), (9, 9, 4, True), (10, 10, 2, False)],
                             ids=["z10-z8-k2", "z9-z9-k4", "z10-z10-k2"])
    def test_exact_cut(self, n, m, k, fit):
        # An exact L holds D, chi^H, Z and the (m - 1)(n - s) entries E of the
        # block that the frames leave out, s = min(k, n): mn (mn + n + m s +
        # (m - 1)(n - s)) entries.  z^10 -> z^8 at k = 2 has 80 (80 + 10 + 16
        # + 56) = 12,960, and z^9 -> z^9 at k = 4 has 81 (81 + 9 + 36 + 40)
        # = 13,446, within 2^14; z^10 -> z^10 at k = 2 has 100 (100 + 10 +
        # 20 + 72) = 20,200, past it, and fits by the slices.  Every first
        # fit takes the slices.  Constant 1: either way the values of
        # `dense_fit` bit for bit.
        setting = CompressionSetting(zn(n), zn(m), k)
        g = np.random.default_rng(37)
        member = build_compression(random_laurent(g, -6, 3 * k + 6, terms=7), setting)
        gaussian = setting.matrix(g.standard_normal((m, n)) + 1j * g.standard_normal((m, n)))
        for variant in VARIANTS:
            for U in (member, gaussian, member):
                report = membership(U, setting, variant)
                D, chi, Z, residual, norm = dense_fit(U, setting, variant)
                assert np.array_equal(report.decomposition.chi, chi)
                assert np.array_equal(np.array(report.decomposition.psis).T, Z)
                assert abs(report.residual - residual) <= 4 * np.spacing(residual)
                assert report.defect_norm == norm
                assert report.member == (U is member)
            assert (setting._fit_operators[variant] is not None) == fit

    def test_cut(self, monkeypatch):
        # B3 -> B at k = 2: L has 6 (2 * 6 + 3 + 2 * 2) = 114 entries, K 36.
        for cut, fit, sandwich in ((114, True, True), (113, False, True), (35, False, False)):
            monkeypatch.setattr(operators, "OPERATOR_ENTRIES", cut)
            setting = CompressionSetting(B3, BETA, 2)
            U = build_compression(L({1: 1, -2: 3j}), setting)
            for _ in range(2):
                membership(U, setting)
                conjugate_operator(setting, U=U)
            formed = setting._fit_operators["t35"], vars(setting)["sandwich_operator"]
            assert (formed[0] is not None, formed[1] is not None) == (fit, sandwich)

    @pytest.mark.parametrize("alpha,beta", [(zn(70), BETA), (B3, zn(60))], ids=["z70-B", "B3-z60"])
    def test_above_cut_runs_products(self, monkeypatch, alpha, beta):
        # dim_beta dim_alpha = 140 or 180: both operators are past 2^14
        # entries, so none is formed, and the products run on U itself.
        formed = count_formations(monkeypatch)
        ranks = []
        for name in ("_product_fit", "_product_sandwich"):
            run = getattr(operators, name)
            monkeypatch.setattr(operators, name, lambda M, *rest, run=run: ranks.append(M.ndim) or run(M, *rest))
        setting = CompressionSetting(alpha, beta, 2)
        ba, bb = setting.basis_alpha, setting.basis_beta
        g = np.random.default_rng(31)
        M = g.standard_normal((bb.dim, ba.dim)) + 1j * g.standard_normal((bb.dim, ba.dim))
        for variant in VARIANTS:
            D, chi_conj, Z, E = _product_fit(M, setting, variant)
            for _ in range(2):  # the second call as the first
                report = membership(setting.matrix(M), setting, variant)
                assert np.array_equal(report.decomposition.chi, chi_conj.conj())
                assert np.array_equal(np.array(report.decomposition.psis).T, Z)
            assert setting.fit_operator(variant) is None
        for _ in range(2):
            sandwich = conjugate_operator(setting, U=setting.matrix(M))[0].entries
            assert np.array_equal(sandwich, _product_sandwich(M, setting))
        assert setting.sandwich_operator is None and formed == []
        assert ranks == [2] * 2 * (len(VARIANTS) + 1)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_overflow_refused(self, variant):
        # Entries 1e160 and 3e159 give a finite product with L, but ||D||^2
        # overflows: refused on the first call, by the products or the
        # slices, and on the second, by L, on a Blaschke setting and on an
        # exact one, c != 1 included.
        for alpha, beta in ((B3, BETA), (zn(4), zn(3)), (C_ALPHA, zn(3))):
            setting = CompressionSetting(alpha, beta, 2)
            M = np.zeros((beta.degree, alpha.degree), dtype=complex)
            M[0, 0], M[-1, -1] = 1e160, 3e159
            for formed in (False, True):
                with pytest.raises(FloatingPointError):
                    membership(setting.matrix(M), setting, variant)
                assert (setting._fit_operators.get(variant) is not None) == formed


def exact_rows_refused(monkeypatch):
    """Make reading `rows` raise on an exact basis; a Blaschke basis still
    reads its rows, each time from its truncation."""

    def rows(basis):
        if basis.exact:
            raise AssertionError(f"the rows of {basis.inner.to_json()} were read")
        return basis._truncation.rows

    monkeypatch.setattr(ModelSpaceBasis, "rows", property(rows))


def dense_identity_build(phi, setting):
    """build_compression through the kernels, with np.eye as the rows of an
    exact side (as verify still passes them), and the kernel `_route` took:
    'band', 'fft', or None when no term was read."""
    ba, bb, k = setting.basis_alpha, setting.basis_beta, setting.k
    width = ba.truncation_order + 1
    s = min(k, width)
    src = np.eye(ba.dim) if ba.exact else ba.rows
    dst = np.eye(bb.dim) if bb.exact else bb.rows
    routes, route = [], model_space._route
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model_space, "_route", lambda *args: routes.append(route(*args)) or routes[-1])
        entries = _compress(*_clip(phi, width, k, s, 0, bb.truncation_order), src, s, dst)
    return entries, ("fft" if routes[0] is None else "band") if routes else None


# z^N at k below, at and past N, mixed settings either way, and small ones.
ROWS_SETTINGS = [
    (zn(64), zn(48), 3),
    (zn(5), zn(3), 7),
    (zn(6), BETA, 3),
    (B3, zn(5), 2),
    (C_SMALL, zn(4), 2),
]
ROWS_IDS = ["z64-z48-k3", "z5-z3-k7", "z6-B-k3", "B3-z5-k2", "cz3-z4-k2"]


class TestRowsOperand:
    """An exact basis enters the pipeline as index maps of its identity rows
    (`rows_operand`) and of its frame columns (`frame_operands`): no routine
    reads its rows, and the entries are those of the dense identity, bit for
    bit where the dense route took the band kernel."""

    @pytest.mark.parametrize("alpha,beta,k", ROWS_SETTINGS, ids=ROWS_IDS)
    def test_no_rows_read(self, monkeypatch, alpha, beta, k):
        exact_rows_refused(monkeypatch)
        setting = CompressionSetting(alpha, beta, k)
        ba, bb = setting.basis_alpha, setting.basis_beta
        rng = np.random.default_rng(83)
        phi = random_laurent(rng, -8, k * bb.dim + 4, terms=8)
        U = build_compression(phi, setting)
        dec = defect_from_symbol(phi, setting)
        assert np.abs(assemble_defect(dec, setting) - defect(U, setting)).max() <= 1e-12 * max(1.0, U.norm())
        for variant in VARIANTS:
            report = membership(U, setting, variant)
            assert report.member
            assert np.abs(assemble_defect(report.decomposition, setting) - defect(U, setting, variant)).max() <= 1e-9
            rebuilt = build_compression(recover_symbol(report, setting), setting)
            assert np.abs(rebuilt.entries - U.entries).max() <= 1e-9 * max(1.0, U.norm())
        for which in ("first", "second"):
            V = build_compression(canonical_symbol(phi, setting, which), setting)
            assert np.abs(V.entries - U.entries).max() <= 1e-9 * max(1.0, U.norm())
        zeros = [L({-ba.dim: 1.5})] if ba.exact else []
        zeros += [L({k * bb.dim: 1 - 2j})] if bb.exact else []
        for which in ("p22", "p27"):
            zero_test_sufficient(phi, setting, which)
            assert all(zero_test_sufficient(z, setting, which) for z in zeros)
        conjugated, psi = conjugate_operator(setting, phi=phi)
        assert np.abs(build_compression(psi, setting).entries - conjugated.entries).max() <= 1e-9 * max(1.0, U.norm())
        for kind in ("tilde_k", "k_tilde"):
            mat, symbol = rank_one(setting, 1, kind)
            assert np.abs(build_compression(symbol, setting).entries - mat.entries).max() <= 1e-9

    @pytest.mark.parametrize("k", [2, 16, 17, 40, 10**20], ids=["k-below", "k-at", "k-past", "k-far", "k-1e20"])
    def test_gather_matches_dense_identity(self, k):
        # z^16 -> z^12: the gather and the placement against the band
        # kernel on the dense identity rows, whatever k is, with terms
        # outside every window, far out, and a window read as all zeros.
        setting = CompressionSetting(zn(16), zn(12), k)
        rng = np.random.default_rng(89)
        symbols = [random_laurent(rng, -20, min(k, 40) * 12 + 20, terms=30) for _ in range(4)]
        symbols.append(symbols[0] + L({-(10**18): 2.0, 10**18 + 1: -1j, k * 12 + 16: 3.0}))
        symbols.append(L({k * 11 + 1: 1.0, -16: 2j} if k > 16 else {-16: 2j, 12 * k + 1: 1.0}))
        symbols.append(L({}))
        for phi in symbols:
            want, kernel = dense_identity_build(phi, setting)
            assert kernel in ("band", None)
            assert np.array_equal(build_compression(phi, setting).entries, want)
        assert not np.any(build_compression(symbols[-2], setting).entries)

    @pytest.mark.parametrize(
        "alpha,beta,k",
        [(zn(6), BETA, 3), (zn(6), B_NEAR, 8), (B3, zn(5), 2), (B2, zn(7), 9)],
        ids=["z6-B-k3", "z6-Bnear-k8", "B3-z5-k2", "B2-z7-k9"],
    )
    def test_mixed_matches_dense_identity(self, alpha, beta, k):
        # One side exact: a gather into beta's rows, or the kernel's kept
        # coefficients placed into the identity rows, with the bits of the
        # band kernel on the dense identity.
        setting = CompressionSetting(alpha, beta, k)
        rng = np.random.default_rng(97)
        reach = k * setting.basis_beta.truncation_order
        for _ in range(4):
            phi = random_laurent(rng, -10, reach + 10, terms=12)
            want, kernel = dense_identity_build(phi, setting)
            assert kernel == "band"
            assert np.array_equal(build_compression(phi, setting).entries, want)

    def test_defect_from_symbol_matches_dense_identity(self):
        # The span of 1, ..., z^(used-1) as the gathered source, bit for bit
        # against `_compress` from np.eye(used) on the band kernel.
        for alpha, beta, k in ROWS_SETTINGS:
            setting = CompressionSetting(alpha, beta, k)
            bb, used = setting.basis_beta, _used(setting)
            phi = random_laurent(np.random.default_rng(101), -8, k * bb.dim + 4, terms=8)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(model_space, "FFT_COST", math.inf)
                c, lo = _clip(phi, used, k, used, 1, bb.truncation_order + 1)
                want = setting.shift_operands[0] @ _compress(c, lo - used, np.eye(used), used, bb.rows)
            assert np.array_equal(np.array(defect_from_symbol(phi, setting).psis).T, want)

    @pytest.mark.parametrize("inner", [zn(1), zn(5), C_SMALL, B2], ids=["z1", "z5", "cz3", "B2"])
    def test_operands_match_dense(self, inner):
        basis = ModelSpaceBasis.build(inner)
        dim, g = basis.dim, np.random.default_rng(103)
        rows = np.eye(dim) if basis.exact else basis.rows
        assert isinstance(basis.rows_operand, np.ndarray) != basis.exact
        for shape in ((dim,), (dim, 3)):
            x = g.standard_normal(shape) + 1j * g.standard_normal(shape)
            if basis.exact:
                assert np.array_equal(basis.rows_operand.conj() @ x, rows.conj() @ x)
                assert np.array_equal(x.T @ basis.rows_operand.T, x.T @ rows.T)
        for conjugated in (False, True):
            for n in sorted({1, min(2, dim), dim}):
                G = rows[:, :n].conj()
                if conjugated:
                    G = dense_conjugation(basis) @ G.conj()
                ops = basis.frame_operands(n, conjugated)
                assert all(isinstance(op, np.ndarray) != basis.exact for op in ops)
                x, y = (g.standard_normal((3, m)) + 1j * g.standard_normal((3, m)) for m in (dim, n))
                # The products are contiguous, as the dense ones were.
                assert (x @ ops[0]).flags.c_contiguous and (y @ ops[1]).flags.c_contiguous
                for got, want in ((x @ ops[0], x @ G), (y @ ops[1], y @ G.conj().T), (np.asarray(ops[1]), G.conj().T)):
                    if inner.constant == 1:
                        assert np.array_equal(got, want)
                    else:
                        assert np.abs(got - want).max() <= 1e-15
                with pytest.raises((ValueError, IndexError)):
                    ops[1][n]

    @pytest.mark.parametrize("inner", [zn(5), C_SMALL], ids=["z5", "cz3"])
    def test_wrong_length_refused(self, inner):
        basis = ModelSpaceBasis.build(inner)
        rows, (G, G_adj) = basis.rows_operand, basis.frame_operands(2, True)
        for x in (np.ones(basis.dim + 1), np.ones((basis.dim - 1, 2))):
            with pytest.raises(ValueError):
                rows @ x
            with pytest.raises(ValueError):
                x.T @ rows
            with pytest.raises(ValueError):
                x.T @ G
        with pytest.raises(ValueError):
            np.ones((2, 3)) @ G_adj

    def test_large_order_memory(self):
        # z^2048 -> z^3 at k = 2048: the frames select columns of the
        # identity, with no 2048 x 2048 G or G^H (64 MiB each), and a build
        # gathers from phi with no identity rows (64 MiB).
        def run():
            setting = CompressionSetting(zn(2048), zn(3), 2048)
            U = build_compression(L({1: 1, -5: 2j, 4096: 3}), setting)
            for variant in VARIANTS:
                assert membership(U, setting, variant).member
            for kind in ("tilde_k", "k_tilde"):
                assert rank_one(setting, 1, kind)[0].norm() == 1.0
            assert "rows" not in vars(setting.basis_alpha)

        assert traced_peak(run) < 4 << 20


class TestRowsOnDemand:
    """t35 membership and recovery read the first k columns of alpha's rows
    and the first dim of beta's.  The doubling gives them before the rows
    exist up to the 2^(s-1) columns that every build fills that way, s the
    bit length of the least order: 32 for a zero at 0.5, 512 at 0.95."""

    @pytest.mark.parametrize(
        "alpha,beta,k",
        [(B3, BETA, 2), (B2, zn(3), 5), (zn(3), BETA, 3), (B_NEAR, B_NEAR, 2), (B_REPEATED, BETA, 32)],
        ids=["B3-B-k2", "B2-z3-k5-fold", "z3-B-k3", "Bnear-k2", "Brepeated-k32"],
    )
    def test_t35_leaves_rows_unbuilt(self, alpha, beta, k):
        built = CompressionSetting(alpha, beta, k)
        rng = np.random.default_rng(61)
        inputs = [build_compression(random_laurent(rng, -6, 10, terms=6), built) for _ in range(2)]
        n, m = built.basis_beta.dim, built.basis_alpha.dim
        inputs.append(built.matrix(rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))))
        for i, U in enumerate(inputs):
            fresh = CompressionSetting(alpha, beta, k)
            report = membership(U, fresh)
            assert report.member or i == 2
            symbol = recover_symbol(report, fresh) if report.member else None
            for basis in (fresh.basis_alpha, fresh.basis_beta):
                assert "rows" not in vars(basis) or basis.inner.kind == "monomial"
            # The same bits from a setting whose rows were read first, on the
            # same route: built fits by its fit operator from its second fit
            # on, which fresh forms on its own second.
            want = membership(U, built)
            if i:
                report = membership(U, fresh)
                symbol = recover_symbol(report, fresh) if report.member else None
            assert json.dumps(report.to_json()) == json.dumps(want.to_json())
            assert symbol == (recover_symbol(want, built) if want.member else None)

    def test_near_circle_membership_memory(self):
        # B[0.99995i, -0.5i] has T = 552606: its rows take 17 MB, and their
        # build twice that.  Membership at k = 2 reads two columns of
        # alpha's rows and one of beta's.
        inner = InnerFunction.blaschke([0.99995j, -0.5j])
        g = np.random.default_rng(67)
        U = g.standard_normal((2, 2)) + 1j * g.standard_normal((2, 2))

        def run():
            setting = CompressionSetting(inner, inner, 2)
            membership(setting.matrix(U), setting)

        assert traced_peak(run) < 1 << 20

    def test_refused_rows_still_answer(self):
        # A double zero at 0.99997 needs T = 1059425 > 2^20, which only the
        # measured tail shows: the rows are refused, membership and
        # recovery at k = 2 read two columns and answer.
        setting = CompressionSetting(InnerFunction.blaschke([0.99997, 0.99997]), zn(2), 2)
        with pytest.raises(TruncationError, match="outside"):
            setting.basis_alpha.rows
        report = membership(setting.matrix(np.zeros((2, 2))), setting)
        assert report.member and report.residual == 0.0
        assert recover_symbol(report, setting) == L({})

    @pytest.mark.parametrize("variant", ["c38", "c310b"])
    @pytest.mark.parametrize("zeros", [[0.99995j, -0.5j], [0.99997, 0.99997]], ids=["B99995i", "double-99997"])
    def test_conjugated_fits_read_no_rows(self, variant, zeros):
        # c38 and c310b read the conjugation matrices, which come from the
        # realizations: no rows are formed, not even where they are refused,
        # and recovery refits t35, which reads none either.  At k = 2 every
        # 2 x 2 matrix is a member (n + (m - 1) min(k, n) = 4).
        inner = InnerFunction.blaschke(zeros)
        g = np.random.default_rng(71)
        U = g.standard_normal((2, 2)) + 1j * g.standard_normal((2, 2))
        for entries in (np.zeros((2, 2)), U):
            setting = CompressionSetting(inner, inner, 2)
            reports = []

            def fit_and_recover():
                reports.append(membership(setting.matrix(entries), setting, variant))
                recover_symbol(reports[0], setting)

            assert traced_peak(fit_and_recover) < 1 << 20
            assert reports[0].member
            for basis in (setting.basis_alpha, setting.basis_beta):
                assert "_truncation_outcome" not in vars(basis)  # what holds the rows


class TestNearCirclePipeline:
    """B[0.99, -0.3, 0.2i] -> B[0.4, -0.5i], k = 2: alpha truncated at T = 2749."""

    @pytest.fixture(scope="class")
    def setting(self):
        return CompressionSetting(InnerFunction.blaschke([0.99, -0.3, 0.2j]), BETA, 2)

    @pytest.fixture(scope="class")
    def member(self, setting):
        return build_compression(random_laurent(np.random.default_rng(29), -6, 10, terms=6), setting)

    def test_roundtrip(self, setting, member):
        # The row of the zero at 0.99 alone drops 0.99^(T+1): T >= 2749.
        assert 0.99 ** (setting.basis_alpha.truncation_order + 1) <= 1e-12
        report = membership(member, setting)
        assert report.member
        rebuilt = build_compression(recover_symbol(report, setting), setting)
        assert np.linalg.norm(rebuilt.entries - member.entries) <= 1e-8 * np.linalg.norm(member.entries)

    def test_conjugation_sandwich(self, setting, member):
        sandwich, _ = conjugate_operator(setting, U=member)
        norm = np.linalg.norm(member.entries)
        assert abs(np.linalg.norm(sandwich.entries) - norm) <= 1e-8 * norm
        assert membership(sandwich, setting).member

    def test_gaussian_rejected(self, setting):
        g = np.random.default_rng(31)
        U = setting.matrix(g.standard_normal((2, 3)) + 1j * g.standard_normal((2, 3)))
        assert not membership(U, setting).member


class TestRepeatedZeros:
    """Zero lists with multiplicity, and a beta with beta(0) = 0, whose
    stretched basis has a repeated zero at the origin."""

    @pytest.fixture(scope="class")
    def setting(self):
        return CompressionSetting(B_REPEATED, InnerFunction.blaschke([0.0, 0.5]), 2)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_roundtrip(self, setting, variant):
        rng = np.random.default_rng(41)
        for _ in range(3):
            U = build_compression(random_laurent(rng, -6, 10, terms=6), setting)
            report = membership(U, setting, variant)
            assert report.member
            rebuilt = build_compression(recover_symbol(report, setting), setting)
            assert np.linalg.norm(rebuilt.entries - U.entries) <= 1e-8 * np.linalg.norm(U.entries)
            again = ModelSpaceBasis.build(setting.alpha).rows
            assert np.array_equal(again, setting.basis_alpha.rows)

    def test_gaussian_rejected(self, setting):
        g = np.random.default_rng(43)
        U = setting.matrix(g.standard_normal((2, 3)) + 1j * g.standard_normal((2, 3)))
        assert not membership(U, setting).member

    def test_canonical_and_zero_symbols(self):
        setting = CompressionSetting(zn(3), InnerFunction.blaschke([0.0, 0.5]), 2)
        assert kron_basis(setting).inner.zeros[:2] == (0, 0)
        rng = np.random.default_rng(47)
        for which in ("first", "second"):
            phi = random_laurent(rng, -7, 12, terms=7)
            out = canonical_symbol(phi, setting, which)
            assert np.abs(build_compression(out, setting).entries - build_compression(phi, setting).entries).max() < 1e-10
        alpha_bar = conj_on_circle(LaurentPoly.from_array(setting.basis_alpha.inner_expansion))
        phi = mul(alpha_bar, random_laurent(rng, -3, 0, terms=3))
        phi = phi + mul(stretched_beta_expansion(setting), random_laurent(rng, 0, 3, terms=3))
        assert zero_test_sufficient(phi, setting, "p22")
        assert zero_test_sufficient(phi, setting, "p27")
        assert not zero_test_sufficient(L({1: 1}), setting, "p22")


class TestRecovery:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_roundtrip(self, rng, all_settings, variant):
        for setting in all_settings:
            phi = random_laurent(rng, -6, 10, terms=6)
            U = build_compression(phi, setting)
            report = membership(U, setting, variant)
            recovered = recover_symbol(report, setting)
            rebuilt = build_compression(recovered, setting)
            assert np.abs(rebuilt.entries - U.entries).max() < 1e-7

    def test_roundtrip_from_raw_member(self, rng, s243, s543):
        for setting in (s243, s543):
            U = diagonal_member(rng, setting)
            report = membership(U, setting)
            rebuilt = build_compression(recover_symbol(report, setting), setting)
            assert np.abs(rebuilt.entries - U.entries).max() < 1e-8

    def test_nonmember_rejected(self, s243):
        bad = np.zeros((3, 4))
        bad[0, 0] = 1.0
        report = membership(s243.matrix(bad), s243)
        assert not report.member
        with pytest.raises(NonMemberError):
            recover_symbol(report, s243)

    def test_recovered_symbol_is_canonical_shape(self, rng, s243):
        # The base-variant recovery lands in conj(K_alpha) + z K_{beta(z^k)}
        # shifted down by derivative index; its own canonical form rebuilds
        # the same matrix.
        phi = random_laurent(rng, -6, 10, terms=6)
        U = build_compression(phi, s243)
        recovered = recover_symbol(membership(U, s243), s243)
        again = canonical_symbol(recovered, s243, "first")
        assert np.abs(build_compression(again, s243).entries - U.entries).max() < 1e-8


class TestCompressionSetting:
    def test_explicit_truncation_reaches_stretched_beta(self, monkeypatch):
        # beta(z^2) is held as beta's rows: beta's measured order 40 reaches
        # frequency 2 * 41 - 1 = 81 with beta's tail.
        setting = CompressionSetting(zn(3), BETA, 2)
        assert setting.basis_beta.truncation_order == 40

        def no_build(*args, **kwargs):
            raise AssertionError("the model space of beta(z^k) must not be built from its roots")

        monkeypatch.setattr(ModelSpaceBasis, "build", no_build)
        rng = np.random.default_rng(53)
        alpha_bar = conj_on_circle(dict_alpha(setting.basis_alpha))
        for _ in range(3):
            phi = random_laurent(rng, -6, 150, terms=7)
            for which, shift in (("first", 0), ("second", 1)):
                coeffs, lo = _reduced(phi.to_array(*_window(setting, shift)), setting, shift)
                assert (lo, lo + len(coeffs) - 1) == (-2, 81 - shift)
                got = canonical_symbol(phi, setting, which)
                want = dict_canonical(phi, setting, which).to_array(-2, 81)
                assert np.abs(got.to_array(-2, 81) - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
            zero = mul(alpha_bar, random_laurent(rng, -3, 0, terms=3))
            for which, shift in (("p22", 0), ("p27", 1)):
                member = zero + shifted(mul(stretched_beta_expansion(setting), random_laurent(rng, 0, 3, terms=3)), -shift)
                for symbol in (phi, member):
                    assert zero_test_sufficient(symbol, setting, which) == dict_zero_test(symbol, setting, which)
                assert zero_test_sufficient(member, setting, which)

    @pytest.mark.parametrize("value", [2.5, True, "3", np.int64(2)], ids=["float", "bool", "string", "int64"])
    def test_orders_are_strict_integers(self, value):
        # int() made order 2.5 into 2, True into 1 and "3" into 3.
        s5 = CompressionSetting(zn(4), zn(3), 5)
        calls = {
            "k": lambda v: CompressionSetting(zn(4), zn(3), v).k,
            "stretched": lambda v: stretched(zn(3), v),
            "l": lambda v: rank_one(s5, v)[1],
        }
        for call in calls.values():
            if isinstance(value, np.integer):
                assert call(value) == call(2)
            else:
                with pytest.raises(ValueError, match="integer"):
                    call(value)


class TestCanonicalSymbol:
    def test_annihilated_monomial(self, s243):
        assert is_zero(canonical_symbol(L({7: 1}), s243, "first"))

    def test_passthrough(self, s243):
        assert canonical_symbol(L({-5: 1, 1: 1}), s243, "first") == L({1: 1})

    @pytest.mark.parametrize("which", ["first", "second"])
    def test_matrix_preserved(self, rng, all_settings, which):
        for setting in all_settings:
            phi = random_laurent(rng, -7, 12, terms=7)
            out = canonical_symbol(phi, setting, which)
            lhs = build_compression(phi, setting).entries
            rhs = build_compression(out, setting).entries
            assert np.abs(lhs - rhs).max() < 1e-7

    def test_first_support_window(self, rng, s243):
        # conj(K_{z^4}) + K_{z^6}: frequencies -3..5 only.
        phi = random_laurent(rng, -9, 14, terms=8)
        out = canonical_symbol(phi, s243, "first")
        assert all(-3 <= n <= 5 for n in out.support)

    def test_second_support_window(self, rng, s243):
        # conj(K_{z^4}) + z^{-1} K_{z^6}: frequencies -3..4 only.
        phi = random_laurent(rng, -9, 14, terms=8)
        out = canonical_symbol(phi, s243, "second")
        assert all(-3 <= n <= 4 for n in out.support)

    def test_idempotent(self, rng, s543):
        phi = random_laurent(rng, -7, 18, terms=7)
        once = canonical_symbol(phi, s543, "first")
        assert distance(once, canonical_symbol(once, s543, "first")) < 1e-10

    def test_unknown_form(self, s243):
        with pytest.raises(ValueError):
            canonical_symbol(L({0: 1}), s243, "third")


class TestZeroTest:
    def test_monomial_oracle(self, s243, s543, s233):
        # Exact rule: p22 passes iff no frequency t with -m < t < k n,
        # p27 iff none with -m < t < k n - (k - 1).
        for setting in (s243, s543, s233):
            m = setting.basis_alpha.dim
            n = setting.basis_beta.dim
            k = setting.k
            for t in range(-m - 2, k * n + 3):
                phi = L({t: 1.0})
                assert zero_test_sufficient(phi, setting, "p22") == (
                    not (-m < t < k * n)
                )
                assert zero_test_sufficient(phi, setting, "p27") == (
                    not (-m < t < k * n - (k - 1))
                )

    def test_sufficient_not_necessary(self, s543):
        # z^1 gives the zero matrix for k=5 yet fails both symbol-space
        # tests: the criteria are sufficient only.
        assert build_compression(L({1: 1}), s543).norm() == 0.0
        assert not zero_test_sufficient(L({1: 1}), s543, "p22")
        assert not zero_test_sufficient(L({1: 1}), s543, "p27")

    def test_shifted_test_strictly_wider(self, s543):
        # z^11 is caught by the shifted window (t >= k n - (k-1) = 11) but
        # not by the plain one (needs t >= k n = 15).
        assert not zero_test_sufficient(L({11: 1}), s543, "p22")
        assert zero_test_sufficient(L({11: 1}), s543, "p27")

    def test_sound_on_random_annihilators(self, rng, all_settings):
        # True verdicts must come with a zero matrix (checked internally,
        # re-checked here).
        for setting in all_settings:
            m, n, k = setting.basis_alpha.dim, setting.basis_beta.dim, setting.k
            phi = mul(
                conj_on_circle(LaurentPoly.from_array(setting.basis_alpha.inner_expansion)),
                random_laurent(rng, -3, 0, terms=3),
            )
            phi = phi + mul(stretched_beta_expansion(setting), random_laurent(rng, 0, 3, terms=3))
            assert zero_test_sufficient(phi, setting, "p22")
            assert build_compression(phi, setting).norm() < 1e-7

    def test_split_ambiguity_absorbed(self, s543):
        # A constant can sit on either side of the split; both tests must
        # treat alpha-side constants correctly.
        alpha_bar = conj_on_circle(LaurentPoly.from_array(s543.basis_alpha.inner_expansion))
        assert zero_test_sufficient(mul(alpha_bar, L({0: 2.0})), s543, "p22")
        assert zero_test_sufficient(mul(alpha_bar, L({0: 2.0})), s543, "p27")

    def test_unknown_test(self, s243):
        with pytest.raises(ValueError):
            zero_test_sufficient(L({0: 1}), s243, "p99")

    @pytest.mark.parametrize("k", [4, 7])
    @pytest.mark.parametrize("which", ["p22", "p27"])
    def test_rank_cut_of_all_directions(self, k, which):
        # beta(0) = 0 makes kappa = P_beta 1 exactly 1, so with alpha = z^3 the
        # directions t < 3, which meet conj(K_alpha), vanish up to rounding
        # while those past it do not.  Singular values are cut against the
        # largest over all directions, as least squares on all of them at
        # once would; a cut relative to the vanishing block fits its noise.
        setting = CompressionSetting(zn(3), InnerFunction.blaschke([0.0, 0.5]), k)
        shift = 0 if which == "p22" else k - 1
        rng = np.random.default_rng(79)
        alpha_bar = conj_on_circle(dict_alpha(setting.basis_alpha))
        generic = [random_laurent(rng, -shift - 4, 0, terms=4) for _ in range(10)]
        generic += [random_laurent(rng, -8, 3 * k, terms=6) for _ in range(10)]
        members = [
            mul(alpha_bar, random_laurent(rng, -3, 0, terms=3))
            + shifted(mul(stretched_beta_expansion(setting), random_laurent(rng, 0, 3, terms=3)), -shift)
            for _ in range(5)
        ]
        for phi in generic + members:
            assert zero_test_sufficient(phi, setting, which) == dict_zero_test(phi, setting, which)
        assert all(zero_test_sufficient(phi, setting, which) for phi in members)

    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("alpha", [zn(3), InnerFunction.blaschke([0.5, 0.3j])], ids=["z3", "B"])
    def test_complex_kappa(self, alpha, k):
        # beta = B[-0.5i, 0.4] has the complex B_1 = r_1 0.5i, so kappa =
        # P_beta 1 = conj(rows[:, 0]) @ rows is complex.  beta(z^k) h(z^k)
        # and z^-(k-1) beta(z^k) h(z^k) are zero symbols; with kappa's
        # conjugate dropped, p22 and p27 answer False on every one of them.
        setting = CompressionSetting(alpha, InnerFunction.blaschke([-0.5j, 0.4]), k)
        zero = mul(stretched_beta_expansion(setting), stretch(L({0: 1, 1: 0.3 - 0.2j}), k))
        assert zero_test_sufficient(zero, setting, "p22")
        assert zero_test_sufficient(shifted(zero, 1 - k), setting, "p27")


class TestConjugation:
    def test_monomial_symbol_transform(self, s243):
        # phi = z^4 maps to psi = z^-3, matrix entry moves (2,0) -> (0,3).
        mat, psi = conjugate_operator(s243, phi=L({4: 1}))
        assert psi == L({-3: 1})
        expected = np.zeros((3, 4))
        expected[0, 3] = 1
        assert np.abs(mat.entries - expected).max() < 1e-12

    def test_symbol_route_matches_matrix_route(self, rng, all_settings):
        for setting in all_settings:
            phi = random_laurent(rng, -5, 9, terms=6)
            mat_sym, psi = conjugate_operator(setting, phi=phi)
            mat_raw, none = conjugate_operator(setting, U=build_compression(phi, setting))
            assert none is None
            assert np.abs(mat_sym.entries - mat_raw.entries).max() < 1e-10
            rebuilt = build_compression(psi, setting)
            assert np.abs(rebuilt.entries - mat_sym.entries).max() < 1e-7

    def test_involution(self, rng, all_settings):
        for setting in all_settings:
            U = build_compression(random_laurent(rng, -5, 9, terms=6), setting)
            once, _ = conjugate_operator(setting, U=U)
            twice, _ = conjugate_operator(setting, U=once)
            assert np.abs(twice.entries - U.entries).max() < 1e-8

    def test_membership_preserved(self, rng, s243, sblaschke):
        for setting in (s243, sblaschke):
            U = build_compression(random_laurent(rng, -5, 9, terms=6), setting)
            sand, _ = conjugate_operator(setting, U=U)
            assert membership(sand, setting).member
        # Non-members stay non-members (needs a non-universal setting).
        bad = np.zeros((3, 4), dtype=complex)
        bad[0, 0] = 1.0
        assert not membership(s243.matrix(bad), s243).member
        sand_bad, _ = conjugate_operator(s243, U=s243.matrix(bad))
        assert not membership(sand_bad, s243).member

    def test_requires_exactly_one_input(self, s243):
        with pytest.raises(ValueError):
            conjugate_operator(s243)
        with pytest.raises(ValueError):
            conjugate_operator(s243, phi=L({0: 1}), U=s243.matrix(np.zeros((3, 4))))

    def test_symbol_formula_hand_case(self, s243):
        # phi = 1: psi = conj(z^{4} z^{1}) z^{6} = z.
        assert conjugate_symbol(L({0: 1}), s243) == L({1: 1})


class TestRankOne:
    def test_hand_cases(self, s243):
        mat, sym = rank_one(s243, 0, "tilde_k")
        expected = np.zeros((3, 4))
        expected[2, 0] = 1
        assert np.abs(mat.entries - expected).max() < 1e-12
        assert sym == L({4: 1})

        mat, sym = rank_one(s243, 0, "k_tilde")
        expected = np.zeros((3, 4))
        expected[0, 3] = 1
        assert np.abs(mat.entries - expected).max() < 1e-12
        assert sym == L({-3: 1})

    @pytest.mark.parametrize("kind", ["tilde_k", "k_tilde"])
    def test_symbols_rebuild_matrices(self, all_settings, kind):
        for setting in all_settings:
            for l in range(setting.k):
                mat, sym = rank_one(setting, l, kind)
                rebuilt = build_compression(sym, setting)
                assert np.abs(rebuilt.entries - mat.entries).max() < 1e-7

    @pytest.mark.parametrize("kind", ["tilde_k", "k_tilde"])
    def test_members(self, s543, sblaschke, kind):
        for setting in (s543, sblaschke):
            for l in range(setting.k):
                mat, _ = rank_one(setting, l, kind)
                report = membership(mat, setting)
                assert report.member, (l, kind, report.residual)

    def test_rank(self, s543):
        # The alpha-side kernel of order l vanishes once l reaches dim K_alpha,
        # so the construction degenerates to zero there.
        m = s543.basis_alpha.dim
        for l in range(5):
            mat, _ = rank_one(s543, l, "tilde_k")
            expected = 1 if l < m else 0
            assert np.linalg.matrix_rank(mat.entries, tol=1e-10) == expected

    def test_order_past_truncation(self):
        # On B[0.5] (T = 39) the alpha kernel of order l = 45 comes from the
        # realization, 45! conj(A^45 B) = 45! 0.5^45 sqrt(0.75), not from the
        # truncated rows, through which any symbol compresses: so l = 45 is
        # refused.  Up to l = T the symbol rebuilds the matrix, k_tilde's to
        # the tail of alpha's expansion, which reaches 8e-8 of the largest
        # entry at l = T; past T it was 0, and 2.3e-4 off.
        setting = CompressionSetting(InnerFunction.blaschke([0.5]), zn(2), 50)
        assert setting.basis_alpha.truncation_order == 39
        scale = factorial(45) * 0.5**45 * 0.75**0.5
        assert abs(np.linalg.norm(kernel(setting.basis_alpha, 0, 45)) - scale) <= 1e-13 * scale
        for kind in ("tilde_k", "k_tilde"):
            with pytest.raises(TruncationError, match="truncation order 39"):
                rank_one(setting, 45, kind)
            for l in (0, 20, 39):
                mat, symbol = rank_one(setting, l, kind)
                built = build_compression(symbol, setting).entries
                assert np.abs(built - mat.entries).max() <= 1e-6 * np.abs(mat.entries).max()
        # z^N keeps its exact zeros past N - 1.
        exact = CompressionSetting(zn(3), zn(2), 50)
        for kind in ("tilde_k", "k_tilde"):
            mat, symbol = rank_one(exact, 45, kind)
            assert mat.norm() == 0.0 and build_compression(symbol, exact).norm() == 0.0

    @pytest.mark.parametrize(
        "alpha,beta,k,count",
        [
            (zn(4), zn(3), 5, 5),
            (InnerFunction.blaschke([0.5, -0.3j], cmath.exp(0.3j)), zn(3), 4, 4),
            (B_NEAR, InnerFunction.blaschke([0.4, -0.5j], cmath.exp(1j)), 6, 6),
            (InnerFunction.blaschke([0, 0, 0], cmath.exp(0.7j)), InnerFunction.blaschke([0.3]), 5, 5),
            (InnerFunction.blaschke([0.5]), zn(2), 50, 45),
        ],
        ids=["z4-z3-k5", "Bc-z3-k4", "Bnear-Bc-k6", "cz3-B-k5", "B05-z2-k50"],
    )
    def test_frame_products(self, alpha, beta, k, count):
        # The rank-ones are l! F G_l^H of the c310a and c310b frames: the
        # kernels C_beta k_0^beta, k_l^alpha (tilde_k) and k_0^beta,
        # C_alpha k_l^alpha (k_tilde), formed here from `kernel` and
        # `conjugate_vector`, bit for bit on an exact alpha.  Both refuse
        # l > T_alpha on a truncated alpha.
        setting = CompressionSetting(alpha, beta, k)
        ba, bb = setting.basis_alpha, setting.basis_beta
        for l in range(count):
            for kind in ("tilde_k", "k_tilde"):
                if l > ba.truncation_order and not ba.exact:
                    with pytest.raises(TruncationError, match="truncation order"):
                        rank_one(setting, l, kind)
                    continue
                if kind == "tilde_k":
                    F, G = bb.conjugate_vector(kernel(bb, 0, 0)), kernel(ba, 0, l)
                else:
                    F, G = kernel(bb, 0, 0), ba.conjugate_vector(kernel(ba, 0, l))
                want = np.outer(F, G.conj())
                got = rank_one(setting, l, kind)[0].entries
                if ba.exact:
                    assert np.array_equal(got, want)
                else:
                    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    def test_calls_no_kernel(self, monkeypatch, s243, sblaschke):
        def refused(*args):
            raise AssertionError("rank_one read a kernel or a power of S")

        monkeypatch.setattr(verify, "kernel", refused)
        monkeypatch.setattr(ModelSpaceBasis, "shift_operands", refused)
        monkeypatch.setattr(ModelSpaceBasis, "_shift_power", refused)
        for fixture in (s243, sblaschke):
            setting = CompressionSetting(fixture.alpha, fixture.beta, fixture.k)
            for l in range(setting.k):
                for kind in ("tilde_k", "k_tilde"):
                    rank_one(setting, l, kind)

    def test_index_out_of_range(self, s243):
        with pytest.raises(ValueError):
            rank_one(s243, 2, "tilde_k")
        with pytest.raises(ValueError):
            rank_one(s243, -1, "tilde_k")

    def test_unknown_kind(self, s243):
        with pytest.raises(ValueError):
            rank_one(s243, 0, "other")


def traced_peak(run):
    """The tracemalloc peak of run(), in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def kept_compression(phi, setting):
    """build_compression from only the frequencies k n it keeps: entry (i, j)
    is sum_n conj(e_i^beta[n]) (phi e_j^alpha)[k n], whatever the size of k."""
    ra, rb, k = setting.basis_alpha.rows, setting.basis_beta.rows, setting.k
    windows = np.array([phi.to_array(k * n - ra.shape[1] + 1, k * n)[::-1] for n in range(rb.shape[1])])
    return rb.conj() @ windows @ ra.T


class TestLargeOrderMembership:
    """k >= dim K_alpha makes every matrix a member.  The fit runs on the
    Taylor-coefficient frame, whose columns vanish past the alpha row length
    T_alpha + 1, so it needs no j! and no more than T_alpha + 1 parts at any k."""

    @pytest.mark.parametrize("k", [3, 10, 20, 30])
    def test_gaussian_accepted_and_recovered(self, k):
        setting = CompressionSetting(B_NEAR, BETA, k)
        g = np.random.default_rng(53)
        U = setting.matrix(g.standard_normal((2, 3)) + 1j * g.standard_normal((2, 3)))
        report = membership(U, setting)
        assert report.member and report.residual <= 1e-13
        rebuilt = build_compression(recover_symbol(report, setting), setting)
        assert np.abs(rebuilt.entries - U.entries).max() <= 1e-12 * np.linalg.norm(U.entries)

    def test_below_dimension_still_rejected(self):
        setting = CompressionSetting(B_NEAR, BETA, 2)
        g = np.random.default_rng(53)
        U = setting.matrix(g.standard_normal((2, 3)) + 1j * g.standard_normal((2, 3)))
        assert membership(U, setting).residual > 0.1

    @pytest.mark.parametrize("k", [172, 10**5])
    def test_gaussian_accepted_past_derivative_order_170(self, k):
        setting = CompressionSetting(B_NEAR, BETA, k)
        g = np.random.default_rng(53)
        U = setting.matrix(g.standard_normal((2, 3)) + 1j * g.standard_normal((2, 3)))
        report = membership(U, setting)
        assert report.member and report.residual <= 1e-13
        assert len(report.decomposition.psis) == min(k, setting.basis_alpha.truncation_order + 1)
        phi = recover_symbol(report, setting)
        rebuilt = kept_compression(phi, setting)
        assert np.abs(rebuilt - U.entries).max() <= 1e-12 * np.linalg.norm(U.entries)
        start = time.perf_counter()
        built = build_compression(phi, setting).entries
        assert time.perf_counter() - start < 1.0
        assert np.abs(built - rebuilt).max() <= 1e-14
        # phi is read in T_beta + 1 windows of T_alpha + 1, not densified over k T_beta.
        assert traced_peak(lambda: build_compression(phi, setting)) < 8 << 20

    @pytest.mark.parametrize("variant", ["t35", "c38"])
    def test_symbol_built_members_rebuild_at_order_150(self, variant):
        # A fit on the derivative kernels carries j! (up to 48!) into the
        # symbol: there the c38 symbols of these matrices had coefficients
        # near 1e16 and rebuilt them off by 0.26-0.40 of their norm.
        setting = CompressionSetting(B2, zn(3), 150)
        rng = np.random.default_rng(71)
        for _ in range(5):
            U = build_compression(random_laurent(rng, -8, 14, terms=7), setting)
            norm = np.linalg.norm(U.entries)
            report = membership(U, setting, variant)
            assert report.member
            phi = recover_symbol(report, setting)
            assert max(abs(c) for _, c in phi.items()) <= 1e3 * norm
            rebuilt = build_compression(phi, setting)
            assert np.abs(rebuilt.entries - U.entries).max() <= 1e-12 * norm


class TestLargeOrderStretchedBeta:
    """beta(z^k) is held as beta's 2 x (T_beta + 1) rows here, so these cost
    memory and time like k (T_beta + 1), where a stored basis of beta(z^k)
    took k^2."""

    @pytest.mark.parametrize(
        "run",
        [lambda phi, s: zero_test_sufficient(phi, s, "p27"), lambda phi, s: canonical_symbol(phi, s, "second")],
        ids=["p27", "second"],
    )
    def test_bounded_memory(self, run):
        setting = CompressionSetting(zn(3), BETA, 2000)
        phi = random_laurent(np.random.default_rng(83), -6, 2000 * setting.basis_beta.rows.shape[1], terms=7)
        assert traced_peak(lambda: run(phi, setting)) < 16 << 20

    @pytest.mark.parametrize("k, seconds", [(1000, 0.5), (10**5, 1.0)], ids=["1000", "100000"])
    def test_conjugate_symbol_prompt(self, k, seconds):
        # A 5-term symbol reaching frequency k T_beta.  Past k = 3 (T_alpha
        # + 1) it is read at that stride, not densified over k T_beta.
        setting = CompressionSetting(B_NEAR, BETA, k)
        phi = L({-3: 1.0, 0: 0.5, 1: -1j, 7 * k: 0.25, setting.basis_beta.truncation_order * k: 1.0})
        start = time.perf_counter()
        psi = conjugate_symbol(phi, setting)
        assert time.perf_counter() - start < seconds
        assert traced_peak(lambda: conjugate_symbol(phi, setting)) < 48 << 20
        sandwich, _ = conjugate_operator(setting, U=build_compression(phi, setting))
        rebuilt = build_compression(psi, setting).entries
        assert np.abs(rebuilt - sandwich.entries).max() <= 1e-10 * max(1.0, np.linalg.norm(sandwich.entries))


class TestReadSpan:
    """On B[0.99,-0.3,0.2i] -> B[0.99i,-0.5i] (T = 2749) a 4-term symbol is
    read from its first to its last term that a window reads: neither k nor
    a term that no window reads makes an array of k T entries."""

    PHI = L({-3: 1.0, 0: 0.5, 2: 1j, 7: 2.0})
    FAR_TERM = L({10**18: 1.0})

    @pytest.fixture(scope="class")
    def spaces(self):
        return InnerFunction.blaschke([0.99, -0.3, 0.2j]), InnerFunction.blaschke([0.99j, -0.5j])

    def test_build_at_order_1e4(self, spaces):
        setting = CompressionSetting(*spaces, 10**4)
        assert traced_peak(lambda: build_compression(self.PHI, setting)) < 2 << 20
        # Past T_alpha only window 0 reads a term: those of frequency -3 and 0.
        ra, rb = setting.basis_alpha.rows, setting.basis_beta.rows
        want = np.outer(rb[:, 0].conj(), ra[:, 3] + 0.5 * ra[:, 0])
        assert np.abs(build_compression(self.PHI, setting).entries - want).max() <= 1e-15

    def test_far_term_reads_nothing(self, spaces):
        setting = CompressionSetting(*spaces, 1000)
        phi = self.PHI + self.FAR_TERM
        assert traced_peak(lambda: build_compression(phi, setting)) < 2 << 20
        assert np.array_equal(build_compression(phi, setting).entries, build_compression(self.PHI, setting).entries)
        start = time.perf_counter()
        psi = conjugate_symbol(phi, setting)
        assert time.perf_counter() - start < 2.0
        assert psi == conjugate_symbol(self.PHI, setting)

    def test_c38_recovery_at_order_1e4(self, spaces):
        # c38 recovery refits t35: at most n + (m - 1) min(k, n) terms, with
        # no stretch of beta's expansion over the k T_beta frequencies.
        setting = CompressionSetting(*spaces, 10**4)
        U = build_compression(self.PHI, setting)
        out = []

        def roundtrip():
            phi = recover_symbol(membership(U, setting, "c38"), setting)
            out.extend((phi, build_compression(phi, setting)))

        start = time.perf_counter()
        peak = traced_peak(roundtrip)
        assert time.perf_counter() - start < 0.5
        assert peak < 4 << 20
        phi, rebuilt = out
        assert len(phi) <= operator_space_dim(setting)
        assert np.linalg.norm(rebuilt.entries - U.entries) <= 1e-12 * np.linalg.norm(U.entries)


class TestShortRecovery:
    """t35 recovery writes chi and the psi_j as polynomials of degree < dim,
    so its symbol lives on the frequencies k i - j, i < m = dim K_beta,
    j < n = dim K_alpha: at most n + (m - 1) min(k, n) terms, the dimension
    of the space of members, at any k."""

    @staticmethod
    def spaces(rho):
        return InnerFunction.blaschke([rho, -0.3, 0.2j]), InnerFunction.blaschke([rho * 1j, -0.5j])

    @staticmethod
    def cliff_symbol(k):
        return L({-3: 1.0, 0: 0.5, 2: 1j, 7: 2.0, k: 0.3, 2 * k + 1: -1.0})

    @pytest.mark.parametrize("k", [10**6, 1 << 63], ids=["1e6", "2^63"])
    @pytest.mark.parametrize(
        "alpha,beta",
        [(B3, BETA), (B_NEAR, BETA), (zn(3), InnerFunction.blaschke([0.5, 0.5])), (B_REPEATED, zn(2))],
        ids=["B3-B", "Bnear-B", "z3-double", "Brepeated-z2"],
    )
    def test_support_at_large_order(self, alpha, beta, k):
        setting = CompressionSetting(alpha, beta, k)
        n, m = setting.basis_beta.dim, setting.basis_alpha.dim
        rng = np.random.default_rng(97)
        inputs = [build_compression(random_laurent(rng, -8, 14, terms=7) + self.cliff_symbol(k), setting)]
        inputs.append(setting.matrix(rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))))
        for U in inputs:
            phi = recover_symbol(membership(U, setting), setting)
            assert set(phi.support) <= short_support(setting)
            assert len(phi) <= operator_space_dim(setting)
            rebuilt = build_compression(phi, setting).entries
            assert np.abs(rebuilt - U.entries).max() <= 1e-12 * np.linalg.norm(U.entries)

    @pytest.mark.parametrize(
        "alpha,beta,k",
        [
            (B3, BETA, 2),
            (B_REPEATED, BETA, 5),
            (zn(3), InnerFunction.blaschke([0.5, 0.5]), 4),
            (B_NEAR, BETA, 10),
            (B2, B3, 1),
            (InnerFunction.blaschke([0.9, 0.9, 0.9]), InnerFunction.blaschke([0.99j, -0.5j, 0.3]), 2),
        ],
        ids=["B3-B-k2", "double-B-k5", "z3-double-k4", "Bnear-B-k10", "B2-B3-k1", "triple-B3-k2"],
    )
    def test_monomials_span_the_member_space(self, alpha, beta, k):
        # The compressions of z^f, f = k i - j, are linearly independent: the
        # mn x dim matrix of them has full rank n + (m - 1) min(k, n).
        setting = CompressionSetting(alpha, beta, k)
        support = sorted(short_support(setting))
        columns = np.array([build_compression(L({f: 1.0}), setting).entries.reshape(-1) for f in support]).T
        assert len(support) == operator_space_dim(setting) <= columns.shape[0]
        assert np.linalg.matrix_rank(columns) == operator_space_dim(setting)

    def test_near_circle_order_1e4(self):
        # B[0.99,-0.3,0.2i] -> B[0.99i,-0.5i] (T = 2749): the paper's formula
        # gave 2.15M terms here; these are at most 3 + 1 * 3.
        setting = CompressionSetting(*self.spaces(0.99), 10**4)
        U = build_compression(self.cliff_symbol(10**4), setting)
        report = membership(U, setting)
        run = lambda: build_compression(recover_symbol(report, setting), setting)  # noqa: E731
        assert traced_peak(run) < 8 << 20
        start = time.perf_counter()
        rebuilt = run().entries
        assert time.perf_counter() - start < 1.0
        assert len(recover_symbol(report, setting)) <= operator_space_dim(setting) == 6
        assert np.abs(rebuilt - U.entries).max() <= 1e-12 * np.linalg.norm(U.entries)

    def test_near_circle_order_1_rebuild(self):
        # Zeros at 0.999 (T = 27617), k = 1: the paper's formula gave about 53,000
        # terms, and the rebuild from them took seconds.
        setting = CompressionSetting(*self.spaces(0.999), 1)
        U = build_compression(self.cliff_symbol(1), setting)
        phi = recover_symbol(membership(U, setting), setting)
        assert len(phi) <= operator_space_dim(setting) == 4
        start = time.perf_counter()
        rebuilt = build_compression(phi, setting).entries
        assert time.perf_counter() - start < 1.0
        assert np.abs(rebuilt - U.entries).max() <= 1e-12 * np.linalg.norm(U.entries)


# -- the array primitives of f(z^k) ---------------------------------------------
# `_place` and `_times_stretched` against the dict maps they stand for.

coeff_arrays = st.lists(
    st.complex_numbers(min_magnitude=1e-3, max_magnitude=4, allow_nan=False, allow_infinity=False) | st.just(0j),
    min_size=1,
    max_size=12,
).map(lambda values: np.array(values, dtype=complex))


def moved_blocks(p, s, k, base):
    """Frequency base + s n + t, 0 <= t < s, moved to base + k n + t."""
    out = {}
    for f, c in p.items():
        n, t = divmod(f - base, s)
        out[base + k * n + t] = c
    return LaurentPoly(out)


class TestArrayPrimitives:
    @given(coeff_arrays, st.integers(-20, 20), st.integers(1, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_place_at_stride_one_is_stretch(self, c, lo, k):
        assert _place(c, lo, 1, k, 0) == stretch(LaurentPoly.from_array(c, lo), k)

    @given(coeff_arrays, st.integers(-20, 20), st.integers(-20, 20), st.integers(1, 8), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_place_moves_blocks_to_stride_k(self, c, lo, base, s, extra):
        k = s + extra
        assert _place(c, lo, s, k, base) == moved_blocks(LaurentPoly.from_array(c, lo), s, k, base)

    def test_place_past_int64(self):
        # Frequencies are Python ints: k n and base + k n pass 2^63 exactly.
        k = 3 * 2**63 + 5
        c = np.array([1.0, 2j, 0.0, -3.0, 0.5j])
        p = LaurentPoly.from_array(c, -2)
        assert _place(c, -2, 1, k, 0) == stretch(p, k)
        assert _place(c, -2, 2, k, 1) == moved_blocks(p, 2, k, 1)
        assert max(_place(c, -2, 1, k, 0).support) == 2 * k

    # The output is dense at stride s, and the symbol routines call it with s
    # at most the width of q, so s stays small here.
    @given(coeff_arrays, coeff_arrays, st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_times_stretched_is_product_with_stretch(self, q, e, s):
        got = LaurentPoly.from_array(_times_stretched(q, e, s))
        want = mul(LaurentPoly.from_array(q), stretch(LaurentPoly.from_array(e), s))
        assert distance(got, want) <= 1e-14 * max(1.0, float(np.abs(q).sum() * np.abs(e).sum()))


# -- dict oracles of the symbol-level routines ---------------------------------
# The LaurentPoly implementations that the coefficient-array routines replaced,
# kept as references.


def dict_alpha(basis):
    return LaurentPoly.from_array(basis.inner_expansion)


def dict_recover(report, setting):
    ba, bb, k = setting.basis_alpha, setting.basis_beta, setting.k
    dec = report.decomposition
    if report.variant == "t35":
        phi = conj_on_circle(reconstruct(ba, dec.chi))
        for j, psi in enumerate(dec.psis):
            phi = phi + shifted(stretch(reconstruct(bb, psi), k), -j)
        return phi
    beta_k = stretch(dict_alpha(bb), k)
    alpha_bar = conj_on_circle(dict_alpha(ba))
    phi = mul(mul(beta_k, conj_on_circle(reconstruct(ba, dec.chi))), monomial(-k))
    for j, psi in enumerate(dec.psis):
        phi = phi + mul(alpha_bar, shifted(stretch(reconstruct(bb, psi), k), j + 1))
    return phi


def short_recover(report, setting):
    """The t35 symbol conj(g) + sum_j p_j(z^k) z^-j, j < min(k, n), with g and
    p_j the polynomials of degree < dim whose projections are chi and the
    psi_j: A and B hold the projections of z^j, j < dim, and the parts past
    j = n are first folded onto the others with Psi G^H kept."""
    ba, bb, k = setting.basis_alpha, setting.basis_beta, setting.k
    dec = report.decomposition
    n, m, used = ba.dim, bb.dim, len(dec.psis)
    A = np.array([project(ba, monomial(j)) for j in range(n)]).T
    B = np.array([project(bb, monomial(i)) for i in range(m)]).T
    Psi = np.array(dec.psis).T
    if used > n:
        G = np.array([project(ba, monomial(j)) for j in range(used)]).T
        Psi = np.linalg.solve(A, G @ Psi.conj().T).conj().T
    g, P = np.linalg.solve(A, dec.chi), np.linalg.solve(B, Psi)
    phi = conj_on_circle(LaurentPoly.from_array(g))
    for j, p in enumerate(P.T):
        phi = phi + shifted(stretch(LaurentPoly.from_array(p), k), -j)
    return phi


def short_support(setting):
    """The frequencies k i - j, i < dim K_beta, j < dim K_alpha."""
    n, m, k = setting.basis_alpha.dim, setting.basis_beta.dim, setting.k
    return {k * i - j for i in range(m) for j in range(n)}


def operator_space_dim(setting):
    n, m, k = setting.basis_alpha.dim, setting.basis_beta.dim, setting.k
    return n + (m - 1) * min(k, n)


def dict_split(phi):
    neg = LaurentPoly({n: c for n, c in phi.items() if n <= 0})
    pos = LaurentPoly({n: c for n, c in phi.items() if n >= 1})
    return conj_on_circle(neg), pos


def dict_reduced(phi, setting, shift):
    ba, bs = setting.basis_alpha, kron_basis(setting)
    f, g = dict_split(phi)
    head = conj_on_circle(reconstruct(ba, project(ba, f)))
    return head + shifted(reconstruct(bs, project(bs, shifted(g, shift))), -shift)


def dict_canonical(phi, setting, which):
    return dict_reduced(phi, setting, 0 if which == "first" else setting.k - 1)


def dict_zero_test(phi, setting, which):
    ba, bs = setting.basis_alpha, kron_basis(setting)
    shift = 0 if which == "p22" else setting.k - 1
    base = dict_reduced(phi, setting, shift)
    directions = []
    for t in range(shift + 1):
        d = shifted(reconstruct(bs, project(bs, monomial(shift - t))), -shift)
        directions.append(sub(d, conj_on_circle(reconstruct(ba, project(ba, monomial(t))))))
    ends = [n for p in (base, *directions) for n in p.support[:1] + p.support[-1:]]
    residue = 0.0
    if ends:
        lo, hi = min(ends), max(ends)
        A = np.array([d.to_array(lo, hi) for d in directions]).T
        rhs = base.to_array(lo, hi)
        x, *_ = np.linalg.lstsq(A, -rhs, rcond=None)
        residue = float(np.linalg.norm(A @ x + rhs))
    return residue <= setting.tol() * max(1.0, phi.norm())


def block_zero_tests(phis, setting, which):
    """The zero test's verdicts by the projector of its dense block, one SVD
    for all the symbols: column t < reach = min(shift, T_alpha) + 1 holds
    kappa_0 e_t - conj(P_alpha z^t) at the frequencies 0 down to -T_alpha,
    then ||kappa[1:]|| e_t.  Singular values at most eps len(rhs) times the
    largest, or than ||kappa|| where a direction lies past the block, are
    cut, as least squares on all directions would."""
    ba, k, kappa = setting.basis_alpha, setting.k, setting.kappa
    ta = ba.truncation_order
    shift = 0 if which == "p22" else k - 1
    reach = min(shift, ta) + 1
    rows = np.asarray(ba.rows_operand)
    out = np.linalg.norm(kappa[1:])
    unit = kappa[1:] / out if out else kappa[1:]
    block = np.vstack([kappa[0] * np.eye(ta + 1, reach) - rows.conj().T @ rows[:, :reach], out * np.eye(reach)])
    u, sv, _ = np.linalg.svd(block, full_matrices=False)
    verdicts = []
    for phi in phis:
        rhs, lo = _reduced(phi.to_array(*_window(setting, shift)), setting, shift)
        cols = rhs[-shift - lo :].reshape(-1, k)
        near, far = cols[1:, shift + 1 - reach : shift + 1][:, ::-1], cols[:, : shift + 1 - reach]
        whole = np.linalg.norm(kappa) if far.size else 0.0
        cut = np.finfo(float).eps * len(rhs) * max(sv[0], whole)
        kept = u[:, sv > cut]
        if whole > cut:
            far = far - np.outer(kappa / whole, kappa.conj() @ far / whole)
        b = np.concatenate([rhs[-lo - ta : 1 - lo][::-1], unit.conj() @ near])
        parts = (b - kept @ (kept.conj().T @ b), near - np.outer(unit, unit.conj() @ near), far, cols[:, shift + 1 :])
        residue = math.sqrt(sum(np.vdot(p, p).real for p in parts))
        verdicts.append(residue <= setting.tol() * max(1.0, phi.norm()))
    return verdicts


def dict_conjugate_symbol(phi, setting):
    beta_k = stretch(dict_alpha(setting.basis_beta), setting.k)
    return mul(conj_on_circle(shifted(mul(dict_alpha(setting.basis_alpha), phi), setting.k - 1)), beta_k)


def dict_rank_one_symbol(setting, l, kind):
    if kind == "tilde_k":
        return mul(shifted(stretch(dict_alpha(setting.basis_beta), setting.k), -(l + setting.k)), factorial(l))
    return mul(shifted(conj_on_circle(dict_alpha(setting.basis_alpha)), l + 1), factorial(l))


def dict_defect_from_symbol(phi, setting):
    ba, bb, k = setting.basis_alpha, setting.basis_beta, setting.k
    chi = project(ba, conj_on_circle(phi))
    psis = [
        dense_shift(bb, 1) @ project(bb, decimate(mul(phi, monomial(-(k - j))), k))
        for j in range(k)
    ]
    return chi, psis


def clipped(phi, setting):
    """phi over the frequencies its compression reads: the windows
    k n - T_alpha..k n, n <= T_beta."""
    width, k = setting.basis_alpha.rows.shape[1], setting.k
    return LaurentPoly(
        {f: c for f, c in phi.items() if -f % k < width and -width < f <= k * setting.basis_beta.truncation_order}
    )


def dense_clip(phi, lo, hi):
    """The dense `_clip` that the fold onto the windows replaced: phi
    densified over the part of its support inside frequencies lo..hi."""
    first, last = (phi.support[0], phi.support[-1]) if phi else (0, 0)
    lo = max(lo, first)
    return phi.to_array(lo, max(lo, min(hi, last))), lo


FAR = L({-(10**18): 1.5, 10**18: -2j})


def folded_compress(phi, setting):
    """`_compress` on the rows and on phi folded by `_clip`, as
    `build_compression` calls it where the setting has no monomial table."""
    src, dst, k = setting.basis_alpha.rows, setting.basis_beta.rows, setting.k
    s = min(k, src.shape[1])
    return _compress(*_clip(phi, src.shape[1], k, s, 0, dst.shape[1] - 1), src, s, dst)


# The monomial table sums the terms of an entry in another order than
# `_compress`: at most 1.9e-15 of max|U| apart on the random symbols tried.
TABLE_TOL = 1e-13


def assert_built(setting, built, want):
    """Built entries against `_compress`'s: bit for bit where the setting has
    no monomial table, else within TABLE_TOL of max|U|, so exactly where U = 0."""
    if vars(setting).get("monomials") is None:  # as the build found it: no table formed, or none within budget
        assert np.array_equal(built, want)
    else:
        assert np.abs(built - want).max() <= TABLE_TOL * np.abs(want).max()


def read_mask(size, lo, width, k, count):
    """Which frequencies lo..lo + size - 1 a window k n - width < f <= k n,
    0 <= n < count, reads."""
    mask = []
    for f in range(lo, lo + size):
        n = max(0, -(-f // k))  # the first window ending at or past f
        mask.append(n < count and k * n - f < width)
    return np.array(mask)


def windowed_compress(phi, lo, src, k, dst):
    """Reference for `_compress`, one window at a time: entry (i, j) is
    sum_n conj(dst_i[n]) sum_t phi[k n - t] src_j[t], frequencies from lo."""
    out = np.zeros((dst.shape[0], src.shape[0]), dtype=complex)
    for n in range(dst.shape[1]):
        q = k * n - lo
        a, b = max(0, q - src.shape[1] + 1), min(len(phi), q + 1)
        if a < b:
            window = np.zeros(src.shape[1], dtype=complex)
            window[q - b + 1 : q - a + 1] = phi[a:b][::-1]
            out += np.outer(dst[:, n].conj(), src @ window)
    return out


class TestSymbolArrayOracle:
    """The array routines against the dict oracles: z^N settings rebuild
    identical matrices, the rest agree within 1e-12 of the symbol's size."""

    @pytest.fixture(
        scope="class",
        params=[
            (zn(4), zn(3), 2),
            (zn(4), zn(3), 5),
            (zn(3), zn(4), 3),
            (B2, zn(3), 2),
            (InnerFunction.blaschke([0.5, 0.5]), zn(3), 2),
            (zn(3), InnerFunction.blaschke([0.5, 0.5]), 2),
            (B3, BETA, 2),
            (B2, BETA, 3),
            # k past every window: the stretched factors are placed block by block.
            (zn(3), zn(2), 40),
            (InnerFunction.blaschke([0.1, -0.05]), zn(3), 60),
        ],
        ids=[
            "z4-z3-k2",
            "z4-z3-k5",
            "z3-z4-k3",
            "B2-z3-k2",
            "double-z3-k2",
            "z3-double-k2",
            "B3-B-k2",
            "B2-B-k3",
            "z3-z2-k40",
            "small-z3-k60",
        ],
    )
    def setting(self, request):
        return CompressionSetting(*request.param)

    def agree(self, setting, got, want):
        if setting.exact:
            assert np.array_equal(
                build_compression(got, setting).entries, build_compression(want, setting).entries
            )
        else:
            ends = got.support[:1] + got.support[-1:] + want.support[:1] + want.support[-1:]
            lo, hi = min(ends), max(ends)
            want = want.to_array(lo, hi)
            scale = max(1.0, np.abs(want).max())  # l! reaches 1e260; its square overflows
            assert np.abs(got.to_array(lo, hi) - want).max() <= 1e-12 * scale

    def symbols(self, setting, count=4):
        rng = np.random.default_rng(59)
        return [random_laurent(rng, -8, 14, terms=7) for _ in range(count)]

    def spread(self, setting):
        """A symbol over every window k n - T_alpha..k n, n <= T_beta + 1, and
        between them: the terms a fold moves, and those it drops."""
        lo, hi = -setting.basis_alpha.truncation_order, setting.k * setting.basis_beta.rows.shape[1]
        return random_laurent(np.random.default_rng(73), lo, hi, terms=24)

    def test_fold_matches_dense_clip(self, setting):
        # The dense window at stride k gives the same entries, bit for bit, as
        # the windows folded onto stride min(k, T_alpha + 1); the build
        # gives them within `assert_built`.
        ba, bb, k = setting.basis_alpha, setting.basis_beta, setting.k
        used = min(k, ba.rows.shape[1])
        for phi in [*self.symbols(setting), self.spread(setting)]:
            for p in (phi, phi + FAR):
                window = dense_clip(p, -ba.truncation_order, k * bb.truncation_order)
                want = _compress(*window, ba.rows, k, bb.rows)
                assert np.array_equal(folded_compress(p, setting), want)
                assert_built(setting, build_compression(p, setting).entries, want)
                c, lo = dense_clip(p, k + 1 - used, k * bb.rows.shape[1])
                psis = dense_shift(bb, 1) @ _compress(c, lo - k, np.eye(used), k, bb.rows)
                assert np.array_equal(np.array(defect_from_symbol(p, setting).psis).T, psis)

    def test_fold_matches_dense_clip_on_random_symbols(self, setting):
        # 72 symbols per setting over the windows, between them and past both
        # ends, every other one with the far terms.
        ba, bb, k = setting.basis_alpha, setting.basis_beta, setting.k
        used = min(k, ba.rows.shape[1])
        span = -ba.rows.shape[1] - 2, k * bb.rows.shape[1] + ba.rows.shape[1]
        rng = np.random.default_rng(89)
        for case in range(72):
            p = random_laurent(rng, *span, terms=int(rng.integers(1, 25))) + (FAR if case % 2 else L({}))
            window = dense_clip(p, -ba.truncation_order, k * bb.truncation_order)
            want = _compress(*window, ba.rows, k, bb.rows)
            assert np.array_equal(folded_compress(p, setting), want)
            assert_built(setting, build_compression(p, setting).entries, want)
            c, lo = dense_clip(p, k + 1 - used, k * bb.rows.shape[1])
            psis = dense_shift(bb, 1) @ _compress(c, lo - k, np.eye(used), k, bb.rows)
            assert np.array_equal(np.array(defect_from_symbol(p, setting).psis).T, psis)

    def test_compress_reads_only_its_windows(self, setting):
        # Zero padding, and any terms outside the windows k n - T_src..k n,
        # n <= T_dst, leave the entries unchanged, bit for bit, for k on both
        # sides of the window length T_src + 1 and past int64.
        src, dst = setting.basis_alpha.rows, setting.basis_beta.rows
        width = src.shape[1]
        orders = [1, 2, 3, max(1, width - 1), width, width + 1, 2 * width + 3, 10**6, 1 << 63, 3 << 63]
        rng = np.random.default_rng(79)
        for case in range(300):
            k, size = orders[case % len(orders)], int(rng.integers(1, 2 * width + 3))
            lo = k * int(rng.integers(dst.shape[1])) - int(rng.integers(-width, size + width))
            phi = rng.standard_normal(2 * size).view(complex) * (rng.random(size) < 0.6)
            front, back = (int(n) for n in rng.integers(0, width + 2, size=2))
            padded = np.concatenate([np.zeros(front), phi, np.zeros(back)])
            unread = ~read_mask(len(padded), lo - front, width, k, dst.shape[1])
            padded[unread] = rng.standard_normal(2 * len(padded)).view(complex)[unread]
            got = _compress(phi, lo, src, k, dst)
            assert np.array_equal(_compress(padded, lo - front, src, k, dst), got)
            scale = width * max(1.0, np.abs(phi).max())
            assert np.abs(got - windowed_compress(phi, lo, src, k, dst)).max() <= 1e-14 * scale

    def test_padding_past_the_route_threshold(self, monkeypatch):
        # The two checks above on arrays long enough that the FFT kernel
        # would take them, were the kernel chosen from the array's length:
        # at rho = 0.99, k = 1, a 5-term symbol densified over the whole
        # window -T_alpha..T_beta, and padded past it with unread terms.
        # Both keep the band kernel of the symbol's span, bit for bit.
        setting = CompressionSetting(InnerFunction.blaschke([0.99, -0.3, 0.2j]), InnerFunction.blaschke([0.99j, -0.5j]), 1)
        src, dst = setting.basis_alpha.rows, setting.basis_beta.rows
        width, count = src.shape[1], dst.shape[1]
        phi = random_laurent(np.random.default_rng(83), -3, 7, terms=5)
        want = build_compression(phi, setting).entries
        routes, route = [], model_space._route
        monkeypatch.setattr(model_space, "_route", lambda *args: routes.append(route(*args)) or routes[-1])
        lo = -setting.basis_alpha.truncation_order
        dense = phi.to_array(lo, count - 1)
        assert route(1, src.shape, len(dense), count) is None
        assert np.array_equal(_compress(dense, lo, src, 1, dst), want)
        rng = np.random.default_rng(97)
        padded = np.concatenate([np.zeros(width), dense, np.zeros(width)])
        unread = ~read_mask(len(padded), lo - width, width, 1, count)
        padded[unread] = rng.standard_normal(2 * len(padded)).view(complex)[unread]
        assert np.array_equal(_compress(padded, lo - width, src, 1, dst), want)
        assert len(routes) == 2 and None not in routes

    def members(self, setting):
        rng = np.random.default_rng(61)
        n, m = setting.basis_beta.dim, setting.basis_alpha.dim
        inputs = [build_compression(phi, setting) for phi in self.symbols(setting)]
        # Universal: a Gaussian matrix is a member too.
        if m <= setting.k:
            inputs.append(setting.matrix(rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))))
        return inputs

    @pytest.mark.parametrize("variant", ["t35", "c38"])
    def test_recover(self, setting, variant):
        # t35 writes its parts as the polynomials of degree < dim with the
        # same projections; on z^N those are the parts themselves, and the
        # symbol is the paper's own, term for term.  A c38 report recovers
        # through the t35 fit of its matrix, and the paper's adjoint form of
        # its own parts (`dict_recover`) still rebuilds the matrix.
        for U in self.members(setting):
            report = membership(U, setting, variant)
            assert report.member
            got = recover_symbol(report, setting)
            self.agree(setting, got, short_recover(membership(U, setting), setting))
            if variant == "c38":
                rebuilt = build_compression(dict_recover(report, setting), setting).entries
                assert np.abs(rebuilt - U.entries).max() <= 1e-12 * max(1.0, np.abs(U.entries).max())
            elif setting.exact:
                assert got == dict_recover(report, setting)

    @pytest.mark.parametrize("variant", ["t35", "c38", "c310a", "c310b"])
    def test_recovered_support(self, setting, variant):
        # At most n + (m - 1) min(k, n) terms, on the frequencies k i - j.
        support = short_support(setting)
        assert len(support) == operator_space_dim(setting)
        for U in self.members(setting):
            phi = recover_symbol(membership(U, setting, variant), setting)
            assert set(phi.support) <= support

    @pytest.mark.parametrize("which", ["first", "second"])
    def test_canonical(self, setting, which):
        for phi in self.symbols(setting):
            got = canonical_symbol(phi, setting, which)
            self.agree(setting, got, dict_canonical(phi, setting, which))
            assert canonical_symbol(phi + FAR, setting, which) == got

    @pytest.mark.parametrize("which", ["p22", "p27"])
    def test_zero_test(self, setting, which):
        shift = 0 if which == "p22" else setting.k - 1
        rng = np.random.default_rng(67)
        alpha_bar = conj_on_circle(dict_alpha(setting.basis_alpha))
        beta_k = stretch(dict_alpha(setting.basis_beta), setting.k)
        zero = mul(alpha_bar, random_laurent(rng, -3, 0, terms=3)) + shifted(mul(beta_k, random_laurent(rng, 0, 3, terms=3)), -shift)
        for phi in [zero, *self.symbols(setting), L({setting.k * setting.basis_beta.dim: 1.0})]:
            verdict = zero_test_sufficient(phi, setting, which)
            assert verdict == dict_zero_test(phi, setting, which)
            assert zero_test_sufficient(phi + FAR, setting, which) == verdict
        assert zero_test_sufficient(zero, setting, which)

    def test_conjugate_symbol(self, setting):
        for phi in [*self.symbols(setting), self.spread(setting)]:
            got = conjugate_symbol(phi, setting)
            # Only phi over the windows k n - T_alpha..k n, n <= T_beta, is
            # read, so the symbol is that of the clipped phi, and its
            # compression that of the full phi's.
            self.agree(setting, got, dict_conjugate_symbol(clipped(phi, setting), setting))
            full = dict_conjugate_symbol(phi, setting)
            diff = build_compression(got, setting).entries - build_compression(full, setting).entries
            assert np.abs(diff).max() <= (0.0 if setting.exact else 1e-10 * max(1.0, full.norm()))
            self.agree(setting, conjugate_symbol(phi + FAR, setting), got)

    @pytest.mark.parametrize("kind", ["tilde_k", "k_tilde"])
    def test_rank_one(self, setting, kind):
        # Past T_alpha (small-z3-k60) a truncated alpha is refused.
        for l in range(setting.k):
            if l > setting.basis_alpha.truncation_order and setting.basis_alpha.tail_bound:
                with pytest.raises(TruncationError):
                    rank_one(setting, l, kind)
                continue
            self.agree(setting, rank_one(setting, l, kind)[1], dict_rank_one_symbol(setting, l, kind))

    def test_defect_from_symbol(self, setting):
        for phi in self.symbols(setting):
            dec = defect_from_symbol(phi, setting)
            chi, psis = dict_defect_from_symbol(phi, setting)
            tol = 0.0 if setting.exact else 1e-12 * max(1.0, phi.norm())
            # psi_j past the alpha row length meets a zero frame vector and is not kept.
            used = min(setting.k, setting.basis_alpha.rows.shape[1])
            assert len(dec.psis) == used
            assert np.abs(dec.chi - chi).max() <= tol
            assert np.abs(np.array(dec.psis) - np.array(psis[:used])).max() <= tol
            oracle = DefectDecomposition(chi=chi, psis=psis, variant="t35")
            diff = assemble_defect(dec, setting) - assemble_defect(oracle, setting)
            assert np.abs(diff).max() <= 10 * tol
            far = defect_from_symbol(phi + FAR, setting)
            assert np.array_equal(far.chi, dec.chi) and np.array_equal(np.array(far.psis), np.array(dec.psis))


# -- the monomial table of a Blaschke setting ------------------------------------

PAIR = (InnerFunction.blaschke([0.5, 0.3j]), InnerFunction.blaschke([-0.5j, 0.4]))
T_PAIR = ModelSpaceBasis.build(PAIR[0]).truncation_order
B99 = InnerFunction.blaschke([0.99, -0.3, 0.2j])
FARTHER = L({-(10**40): 1.5, 10**40: -2j})


class TestMonomialTable:
    """Between two Blaschke bases within its budget a build sums the rows of
    `CompressionSetting.monomials`, the compressions of the monomials, and
    agrees with `_compress` on the same folded window within TABLE_TOL."""

    @pytest.fixture(
        scope="class",
        params=[
            (B_NEAR, BETA, 2),
            (B99, BETA, 2),
            WIDE[0],
            WIDE[2],
            *((*PAIR, k) for k in (1, 2, T_PAIR, T_PAIR + 1, T_PAIR + 2, 10**20)),
        ],
        ids=["nearcircle-k2", "rho99-k2", "wide-c-k3", "wide-near-k2",
             "pair-k1", "pair-k2", "pair-kT", "pair-kT+1", "pair-kT+2", "pair-k1e20"],
    )
    def setting(self, request):
        return CompressionSetting(*request.param)

    def symbols(self, setting):
        """Random symbols with terms in the windows k n - T_alpha..k n,
        n <= T_beta, two past their ends and between them, at any k."""
        k, width, count = setting.k, setting.basis_alpha.truncation_order + 1, setting.basis_beta.truncation_order + 1
        rng = np.random.default_rng(101)
        out = []
        for _ in range(10):
            n, r = rng.integers(0, count + 1, size=8), rng.integers(-2, width + 2, size=8)
            values = rng.standard_normal(16).view(complex)
            out.append(L({k * int(a) - int(b): complex(c) for a, b, c in zip(n, r, values)}))
        return out

    def test_matches_compress(self, setting):
        ta, tb, k = setting.basis_alpha.truncation_order, setting.basis_beta.truncation_order, setting.k
        ends = [L({-ta: 1.0}), L({k * tb: 1j})]  # the first and last terms a build reads
        for phi in [*self.symbols(setting), *ends]:
            want = folded_compress(phi, setting)
            assert want.any()
            assert_built(setting, build_compression(phi, setting).entries, want)
            assert_built(setting, build_compression(phi + FARTHER, setting).entries, want)
        # The first build took `_compress`; the second formed the table.
        assert vars(setting)["monomials"] is not None

    def test_unread_terms_build_zero(self, setting):
        ta, tb, k = setting.basis_alpha.truncation_order, setting.basis_beta.truncation_order, setting.k
        for phi in (L({}), FARTHER, L({-ta - 1: 1.0}), L({k * tb + 1: 1.0})):
            assert not build_compression(phi, setting).entries.any()
            assert not folded_compress(phi, setting).any()

    def test_table_is_read_only(self, setting):
        assert not second_read(setting, "monomials").flags.writeable

    @pytest.mark.parametrize(
        "alpha,beta,k",
        [
            (zn(3), BETA, 2),
            (B3, zn(3), 2),
            (zn(4), zn(3), 2),
            # The long symbol's setting: T = 27617 on both sides, F = 55235.
            (InnerFunction.blaschke([0.999, -0.3, 0.2j]), InnerFunction.blaschke([0.999j, -0.5j]), 1),
            # F = 22099 at k = 600: a gather of 41 F entries is past the budget.
            (B_NEAR, BETA, 600),
        ],
        ids=["z3-B", "B3-z3", "z4-z3", "long-symbol", "nearcircle-k600"],
    )
    def test_absent(self, alpha, beta, k):
        # An exact side, or a table or gather past WINDOW_ENTRIES, keeps `_compress`.
        setting = CompressionSetting(alpha, beta, k)
        assert second_read(setting, "monomials") is None
        phi = random_laurent(np.random.default_rng(107), -4, 9, terms=5)
        assert np.array_equal(build_compression(phi, setting).entries, folded_compress(phi, setting))


class TestMonomialsOnDemand:
    """Only a build forms the monomial table: the inverse routines and the
    zero test's projector read none of it."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("alpha", [B3, B_NEAR], ids=["B3", "Bnear"])
    def test_inverse_routines_form_no_table(self, alpha, variant):
        built = CompressionSetting(alpha, BETA, 2)
        phi = random_laurent(np.random.default_rng(103), -6, 10, terms=6)
        U = build_compression(phi, built)
        assert second_read(built, "monomials") is not None
        fresh = CompressionSetting(alpha, BETA, 2)
        report = membership(U, fresh, variant)
        assert report.member
        recover_symbol(report, fresh)
        conjugate_operator(fresh, U=U)
        # phi is no zero symbol, so no build checks the verdict.
        assert not any(zero_test_sufficient(phi, fresh, which) for which in ("p22", "p27"))
        assert "monomials" not in vars(fresh)

    @pytest.mark.parametrize("alpha", [B_NEAR, B99], ids=["nearcircle", "rho99"])
    def test_table_memory(self, alpha):
        # The gather of each column, (T_beta + 1) F entries, and the table,
        # F dim_alpha dim_beta, are each at most WINDOW_ENTRIES complex
        # numbers, 4 MiB (traced peaks 0.46 and 2.1 MiB).
        setting = CompressionSetting(alpha, BETA, 2)
        setting.basis_alpha.rows, setting.basis_beta.rows
        assert setting.monomials is None  # the first read forms nothing
        assert traced_peak(lambda: setting.monomials) <= model_space.WINDOW_ENTRIES * 16
        assert setting.monomials is not None

    def test_over_budget_forms_no_table(self):
        setting = CompressionSetting(B_NEAR, BETA, 600)
        setting.basis_alpha.rows, setting.basis_beta.rows
        assert traced_peak(lambda: second_read(setting, "monomials")) < 1 << 14
        assert "monomials" in vars(setting) and setting.monomials is None


B_ZERO = InnerFunction.blaschke([0.0, 0.5])  # beta(0) = 0: kappa = 1


class TestZeroTestReference:
    """The zero test's closed-form projector against that of the dense block
    and its SVD (`block_zero_tests`), and against `dict_zero_test` where that
    oracle is affordable: the same verdicts on zero symbols, on generic
    symbols, on symbols that load the ambiguity window, and on zero symbols
    moved off the zero space by 1e-6 and by 1e-11 of a generic symbol."""

    @staticmethod
    def symbols(setting, which):
        shift = 0 if which == "p22" else setting.k - 1
        rng = np.random.default_rng(131)
        alpha_bar = conj_on_circle(dict_alpha(setting.basis_alpha))
        beta_k = stretched_beta_expansion(setting)
        out = []
        for _ in range(3):
            zero = mul(alpha_bar, random_laurent(rng, -3, 0, terms=3)) + shifted(
                mul(beta_k, random_laurent(rng, 0, 3, terms=3)), -shift
            )
            generic = random_laurent(rng, -shift - 6, 3 * setting.k + 3, terms=8)
            window = random_laurent(rng, -shift - 2, 1, terms=4)
            out += [zero, generic, window]
            out += [zero + L({f: scale * c for f, c in generic.items()}) for scale in (1e-6, 1e-11)]
        return out

    @pytest.mark.parametrize("which", ["p22", "p27"])
    @pytest.mark.parametrize("beta", [BETA, InnerFunction.blaschke([-0.5j, 0.4]), B_ZERO], ids=["B", "B-swapped", "B-zero"])
    @pytest.mark.parametrize(
        "alpha,k",
        [
            (B3, 2),  # reach 2 < dim 3
            (B3, 5),  # reach 5 > dim
            (B3, 42),  # reach = T_alpha + 1 = 42
            (B3, 45),  # and directions past it
            (zn(3), 5),
            (B_NEAR, 2),
            (B_NEAR, 5),
            (B_NEAR, 539),  # reach = T_alpha + 1 = 539
            (B99, 2),
            (B99, 5),
        ],
        ids=["B3-k2", "B3-k5", "B3-k42", "B3-k45", "z3-k5", "Bnear-k2", "Bnear-k5", "Bnear-k539", "B99-k2", "B99-k5"],
    )
    def test_verdicts(self, alpha, beta, k, which):
        setting = CompressionSetting(alpha, beta, k)
        phis = self.symbols(setting, which)
        got = [zero_test_sufficient(phi, setting, which) for phi in phis]
        assert got == block_zero_tests(phis, setting, which)
        assert all(got[::5]) and not any(got[3::5])
        if k <= 5 and setting.basis_alpha.truncation_order < 100:
            assert got == [dict_zero_test(phi, setting, which) for phi in phis]


class TestZeroTestOperator:
    """The zero test's residue as one product with Z
    (`CompressionSetting.zero_test_operator`), which `_residue` forms on the
    identity on a setting's second test of a shift, within OPERATOR_ENTRIES
    only.  On `TestZeroTestReference`'s settings B3 -> B at k = 2 is within
    the cut (Z of 124 x 123 for p22, 124 x 122 for p27); B3 -> B at k = 5
    (247 x 246) and B_NEAR -> B at k = 539 are past it."""

    # |residue by Z - residue by the route| on the settings within the cut,
    # in ulp of the norm of phi over the window: at most 10.2 measured, on
    # B3 -> B[0, 0.5] for p27.
    ULPS = 32

    @pytest.mark.parametrize("which", ["p22", "p27"])
    @pytest.mark.parametrize("beta", [BETA, InnerFunction.blaschke([-0.5j, 0.4]), B_ZERO], ids=["B", "B-swapped", "B-zero"])
    @pytest.mark.parametrize(
        "alpha,k,within", [(B3, 2, True), (B3, 5, False), (B_NEAR, 539, False)], ids=["B3-k2", "B3-k5", "Bnear-k539"]
    )
    def test_route_then_operator(self, monkeypatch, alpha, beta, k, within, which):
        setting = CompressionSetting(alpha, beta, k)
        shift = 0 if which == "p22" else k - 1
        lo, hi = _window(setting, shift)
        phis = TestZeroTestReference.symbols(setting, which)
        want = block_zero_tests(phis, setting, which)
        columns = []  # of each w that `_residue` runs on: 1 for a test by the route, W to form Z

        def counted(w, *args):
            columns.append(w.shape[1])
            if w.shape[1] > 1 and not within:
                raise AssertionError("Z formed past the cut")
            return _residue(w, *args)

        monkeypatch.setattr(operators, "_residue", counted)
        got = [zero_test_sufficient(phis[0], setting, which)]
        assert columns == [1] and setting._zero_tests == {}  # the first test takes the route
        got += [zero_test_sufficient(phi, setting, which) for phi in phis[1:]]
        assert got == want
        Z = setting.zero_test_operator(shift)
        if not within:
            assert Z is None and columns == [1] * len(phis)
            return
        # Formed once, on the second test, from the identity; read-only.
        assert columns == [1, hi - lo + 1]
        rows = setting.basis_alpha.truncation_order + 1 + k * (setting.basis_beta.truncation_order + 1)
        assert Z.shape == (rows, hi - lo + 1) and Z.size <= operators.OPERATOR_ENTRIES
        assert not Z.flags.writeable
        for phi in phis:
            w = phi.to_array(lo, hi)
            route = math.sqrt(sum(np.vdot(p, p).real for p in _residue(w[:, None].copy(), setting, shift)))
            assert abs(np.linalg.norm(Z @ w) - route) <= self.ULPS * np.spacing(np.linalg.norm(w))

    def test_one_slot_per_shift(self):
        # p22 and p27 read the slots of shifts 0 and k - 1, apart from each
        # other and from the fit operators' variant names; at k = 1 both
        # are shift 0, one slot.
        setting = CompressionSetting(zn(4), zn(3), 2)
        U = build_compression(L({1: 1, -2: 3j}), setting)
        phi = L({-1: 1, 3: 2j})
        membership(U, setting)
        zero_test_sufficient(phi, setting, "p22")
        assert setting._zero_tests == {} and setting._fit_operators == {}
        zero_test_sufficient(phi, setting, "p22")
        zero_test_sufficient(phi, setting, "p27")
        assert set(setting._zero_tests) == {0} and setting._fit_operators == {}
        zero_test_sufficient(phi, setting, "p27")
        assert setting.zero_test_operator(0).shape == (10, 9) and setting.zero_test_operator(1).shape == (10, 8)
        membership(U, setting)
        assert set(setting._fit_operators) == {"t35"}
        once = CompressionSetting(zn(4), zn(3), 1)
        zero_test_sufficient(phi, once, "p22")
        zero_test_sufficient(phi, once, "p27")
        assert set(once._zero_tests) == {0}
