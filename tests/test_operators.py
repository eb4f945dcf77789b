import numpy as np
import pytest

from slantmodel.laurent import LaurentPoly, conj_on_circle, decimate, random_laurent, stretch
from slantmodel.model_space import InnerFunction, ModelSpaceBasis, TruncationError, default_truncation
from slantmodel.operators import (
    VARIANTS,
    _frames,
    CompressionSetting,
    NonMemberError,
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


def L(d):
    return LaurentPoly(d)


def zn(n):
    return InnerFunction.monomial(n)


def stretched_beta_expansion(setting):
    return stretch(setting.basis_beta.alpha_expansion(), setting.k)


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
        setting = CompressionSetting(zn(3), zn(4), 1)
        phi = random_laurent(rng, -4, 4, terms=6)
        U = build_compression(phi, setting)
        T = build_truncated_toeplitz(phi, setting.basis_alpha, setting.basis_beta)
        assert np.abs(U.entries - T).max() < 1e-12

    def test_truncated_toeplitz_hand_case(self):
        setting = CompressionSetting(zn(2), zn(2), 1)
        T = build_truncated_toeplitz(L({1: 1}), setting.basis_alpha, setting.basis_beta)
        assert np.array_equal(T, np.array([[0, 0], [1, 0]], dtype=complex))

    def test_linear_in_symbol(self, rng, sblaschke):
        p = random_laurent(rng, -5, 9, terms=6)
        q = random_laurent(rng, -5, 9, terms=6)
        lhs = build_compression(p + q * 2.5j, sblaschke).entries
        rhs = build_compression(p, sblaschke).entries + 2.5j * build_compression(q, sblaschke).entries
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_far_frequencies_drop_out(self, rng):
        # Only frequencies -T_src..k T_dst reach a kept coefficient; the
        # whole support of this symbol would not fit in memory.
        setting = CompressionSetting(B3, BETA, 2)
        phi = random_laurent(rng, -6, 12, terms=6)
        far = build_compression(phi + L({-(10**18): 1.5, 10**18: -2j}), setting)
        assert np.abs(far.entries - build_compression(phi, setting).entries).max() <= 1e-14

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


def loop_oracle(phi, src, k, dst):
    """Reference compression by the LaurentPoly loop <W_k(phi e_j), f_i>."""
    return np.array([[decimate(phi * e, k).inner(f) for e in src.vectors] for f in dst.vectors])


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
        ba, bb = setting.basis_alpha, setting.basis_beta
        for _ in range(10):
            phi = random_laurent(rng, -20, 40, terms=8)
            assert np.array_equal(build_compression(phi, setting).entries, loop_oracle(phi, ba, k, bb))
            assert np.array_equal(build_truncated_toeplitz(phi, ba, bb), loop_oracle(phi, ba, 1, bb))
        big = setting.stretched_beta_basis()
        assert np.array_equal(decimation_matrix(setting), loop_oracle(L({0: 1}), big, k, bb))
        assert np.array_equal(ba.compressed_shift()[0], loop_oracle(L({1: 1}), ba, 1, ba))

    @pytest.mark.parametrize(
        "alpha,beta,k",
        [(B2, zn(3), 2), (zn(3), BETA, 2), (B3, BETA, 2), (B3, BETA, 1)],
        ids=["B2-z3-k2", "z3-B-k2", "B3-B-k2", "B3-B-k1"],
    )
    def test_blaschke_close(self, rng, alpha, beta, k):
        setting = CompressionSetting(alpha, beta, k)
        ba, bb = setting.basis_alpha, setting.basis_beta

        def close(dense, oracle):
            return np.abs(dense - oracle).max() <= 1e-12 * max(1.0, np.linalg.norm(oracle))

        for _ in range(3):
            phi = random_laurent(rng, -6, 12, terms=6)
            assert close(build_compression(phi, setting).entries, loop_oracle(phi, ba, k, bb))
            assert close(build_truncated_toeplitz(phi, ba, bb), loop_oracle(phi, ba, 1, bb))
        big = setting.stretched_beta_basis()
        assert close(decimation_matrix(setting), loop_oracle(L({0: 1}), big, k, bb))
        assert close(ba.compressed_shift()[0], loop_oracle(L({1: 1}), ba, 1, ba))


class TestDecimationMatrix:
    def test_monomial_selector(self, s243):
        W = decimation_matrix(s243)
        expected = np.zeros((3, 6))
        for i in range(3):
            expected[i, 2 * i] = 1
        assert np.array_equal(W, expected)

    def test_factorization(self, rng, all_settings):
        # Compression = W_k after multiplication into the stretched space.
        for setting in all_settings:
            W = decimation_matrix(setting)
            big = setting.stretched_beta_basis()
            phi = random_laurent(rng, -5, 8, terms=6)
            U = build_compression(phi, setting)
            lifted = np.array(
                [
                    [(phi * setting.basis_alpha.vectors[j]).inner(big.vectors[i]) for j in range(setting.basis_alpha.dim)]
                    for i in range(big.dim)
                ]
            )
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
        U = s233.matrix(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            defect(U, s243)


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
        for tol in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                membership(s243.matrix(np.zeros((3, 4))), s243, tol=tol)

    def test_effective_tolerance_is_the_threshold(self, s243):
        member = build_compression(random_laurent(np.random.default_rng(5), -5, 8, terms=6) * 10.0, s243)
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

    def test_report_json(self, rng, s243):
        report = membership(build_compression(L({2: 1}), s243), s243)
        obj = report.to_json()
        assert obj["member"] is True
        assert obj["variant"] == "t35"
        assert len(obj["psis"]) == 2


def design_matrix_fit(U, setting, variant, tol=1e-9):
    """Reference fit: minimum-norm lstsq of the vectorized defect against a
    hand-built (n m) x (m + n k) design matrix.  Returns (member, residual)."""
    m, n, k = setting.basis_alpha.dim, setting.basis_beta.dim, setting.k
    D = defect(U, setting, variant)
    F, Gs = _frames(setting, variant)
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
            (B_NEAR, BETA, 2),
            (B_REPEATED, InnerFunction.blaschke([0.0, 0.0, 0.4]), 2),
        ],
        ids=["z4-z3-k2", "z4-z3-k5", "z3-B-k4", "B2-z3-k2", "Bnear-B-k2", "Brepeated-k2"],
    )
    def test_closed_form_matches_design_matrix(self, alpha, beta, k):
        rng = np.random.default_rng(11)
        setting = CompressionSetting(alpha, beta, k)
        n, m = setting.basis_beta.dim, setting.basis_alpha.dim
        k0b = setting.basis_beta.kernel(0, 0)
        inputs = [(build_compression(random_laurent(rng, -6, 10, terms=6), setting), True) for _ in range(3)]
        inputs += [
            (setting.matrix(rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))), False) for _ in range(3)
        ]
        for variant in VARIANTS:
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


class TestNearCirclePipeline:
    """B[0.99, -0.3, 0.2i] -> B[0.4, -0.5i], k = 2: alpha truncated at T = 3207."""

    @pytest.fixture(scope="class")
    def setting(self):
        return CompressionSetting(InnerFunction.blaschke([0.99, -0.3, 0.2j]), BETA, 2)

    @pytest.fixture(scope="class")
    def member(self, setting):
        return build_compression(random_laurent(np.random.default_rng(29), -6, 10, terms=6), setting)

    def test_roundtrip(self, setting, member):
        assert setting.basis_alpha.truncation_order == 3207
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
        assert setting.stretched_beta_basis().inner.zeros[:2] == (0, 0)
        rng = np.random.default_rng(47)
        for which in ("first", "second"):
            phi = random_laurent(rng, -7, 12, terms=7)
            out = canonical_symbol(phi, setting, which)
            assert np.abs(build_compression(out, setting).entries - build_compression(phi, setting).entries).max() < 1e-10
        alpha_bar = conj_on_circle(setting.basis_alpha.alpha_expansion())
        phi = alpha_bar * random_laurent(rng, -3, 0, terms=3)
        phi = phi + stretched_beta_expansion(setting) * random_laurent(rng, 0, 3, terms=3)
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
    def test_explicit_truncation_skips_stretched_beta(self):
        # 70 certifies the zeros of BETA (radius 0.5) but not their square
        # roots (radius ~0.71), so beta(z^2) keeps its own default.
        setting = CompressionSetting(zn(3), BETA, 2, truncation=70)
        assert setting.basis_beta.truncation_order == 70
        stretched = BETA.stretched(2)
        assert setting.stretched_beta_basis().truncation_order == default_truncation(stretched)
        with pytest.raises(TruncationError):
            ModelSpaceBasis.build(stretched, 70)


class TestCanonicalSymbol:
    def test_annihilated_monomial(self, s243):
        assert canonical_symbol(L({7: 1}), s243, "first").is_zero()

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
        assert once.distance(canonical_symbol(once, s543, "first")) < 1e-10

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
            phi = conj_on_circle(
                setting.basis_alpha.alpha_expansion()
            ) * random_laurent(rng, -3, 0, terms=3)
            phi = phi + stretched_beta_expansion(setting) * random_laurent(rng, 0, 3, terms=3)
            assert zero_test_sufficient(phi, setting, "p22")
            assert build_compression(phi, setting).norm() < 1e-7

    def test_split_ambiguity_absorbed(self, s543):
        # A constant can sit on either side of the split; both tests must
        # treat alpha-side constants correctly.
        alpha_bar = conj_on_circle(s543.basis_alpha.alpha_expansion())
        assert zero_test_sufficient(alpha_bar * L({0: 2.0}), s543, "p22")
        assert zero_test_sufficient(alpha_bar * L({0: 2.0}), s543, "p27")

    def test_unknown_test(self, s243):
        with pytest.raises(ValueError):
            zero_test_sufficient(L({0: 1}), s243, "p99")


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

    def test_index_out_of_range(self, s243):
        with pytest.raises(ValueError):
            rank_one(s243, 2, "tilde_k")
        with pytest.raises(ValueError):
            rank_one(s243, -1, "tilde_k")

    def test_unknown_kind(self, s243):
        with pytest.raises(ValueError):
            rank_one(s243, 0, "other")
