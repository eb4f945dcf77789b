import math

import numpy as np
import pytest

from slantmodel.laurent import LaurentPoly, decimate
from slantmodel.model_space import (
    InnerFunction,
    ModelSpaceBasis,
    TruncationError,
    _takenaka_malmquist,
    _taylor,
    circle_grid,
    default_truncation,
)


def L(d):
    return LaurentPoly(d)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="module")
def blaschke_basis():
    return ModelSpaceBasis.build(InnerFunction.blaschke([0.5, -0.3]))


def random_coords(rng, dim):
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


class TestInnerFunction:
    def test_monomial_validation(self):
        with pytest.raises(ValueError):
            InnerFunction.monomial(0)

    def test_blaschke_validation(self):
        with pytest.raises(ValueError):
            InnerFunction.blaschke([])
        with pytest.raises(ValueError, match="disk"):
            InnerFunction.blaschke([1.5])
        with pytest.raises(ValueError, match="separated"):
            InnerFunction.blaschke([0.3, 0.3])
        with pytest.raises(ValueError, match="unimodular"):
            InnerFunction.blaschke([0.3], constant=2.0)
        with pytest.raises(ValueError, match="disk"):
            InnerFunction.blaschke([float("nan")])
        with pytest.raises(ValueError, match="disk"):
            InnerFunction.blaschke([0.3, complex(0.1, float("nan"))])
        with pytest.raises(ValueError, match="unimodular"):
            InnerFunction.blaschke([0.3], constant=float("nan"))

    def test_unimodular_on_circle(self):
        b = InnerFunction.blaschke([0.5, -0.3, 0.2 + 0.4j], constant=1j)
        for z in circle_grid():
            assert abs(abs(b.evaluate(z)) - 1.0) < 1e-8

    def test_expansion_matches_evaluation(self):
        b = InnerFunction.blaschke([0.5, -0.3])
        poly = b.to_laurent(80)
        for z in circle_grid(8):
            assert abs(poly.evaluate(z) - b.evaluate(z)) < 1e-10

    def test_parse_shorthand(self):
        assert InnerFunction.parse("z^4").degree == 4
        assert InnerFunction.parse("z").degree == 1

    def test_json_roundtrip(self):
        b = InnerFunction.blaschke([0.5, -0.3], constant=1j)
        assert InnerFunction.from_json(b.to_json()) == b
        m = InnerFunction.monomial(3)
        assert InnerFunction.from_json(m.to_json()) == m


class TestMakeBasis:
    def test_monomial_basis(self):
        basis = ModelSpaceBasis.build(InnerFunction.monomial(3))
        assert basis.dim == 3
        assert basis.vectors == [L({0: 1}), L({1: 1}), L({2: 1})]
        assert basis.tail_bound == 0.0

    def test_single_zero_at_origin(self):
        basis = ModelSpaceBasis.build(InnerFunction.blaschke([0.0]))
        assert basis.dim == 1
        assert basis.vectors[0] == L({0: 1})

    def test_single_zero_half(self):
        # Normalized Cauchy kernel sqrt(0.75) * sum 0.5^n z^n.
        basis = ModelSpaceBasis.build(InnerFunction.blaschke([0.5]))
        v = basis.vectors[0]
        scale = math.sqrt(0.75)
        for n in range(10):
            assert v.coeff(n) == pytest.approx(scale * 0.5**n)
        assert abs(v.inner(v) - 1.0) < 1e-10

    def test_gram_identity(self, blaschke_basis):
        d = blaschke_basis.dim
        gram = np.array(
            [
                [blaschke_basis.vectors[i].inner(blaschke_basis.vectors[j]) for j in range(d)]
                for i in range(d)
            ]
        )
        assert np.abs(gram - np.eye(d)).max() < 1e-10

    def test_truncation_too_small(self):
        with pytest.raises(TruncationError):
            ModelSpaceBasis.build(InnerFunction.blaschke([0.5]), truncation=10)

    def test_default_truncation_certifies_tail(self):
        inner = InnerFunction.blaschke([0.9])
        t = default_truncation(inner)
        assert 0.9 ** (t + 1) / 0.1 <= 1e-12
        assert t >= 64


class TestProject:
    def test_monomial_window(self):
        basis = ModelSpaceBasis.build(InnerFunction.monomial(4))
        coords = basis.project(L({-1: 1, 0: 1, 1: 1, 5: 1}))
        assert np.allclose(coords, [1, 1, 0, 0])

    def test_derivative_kernels_at_origin(self):
        basis = ModelSpaceBasis.build(InnerFunction.monomial(4))
        for j in range(4):
            coords = basis.project(L({j: math.factorial(j)}))
            expected = np.zeros(4)
            expected[j] = math.factorial(j)
            assert np.allclose(coords, expected)

    def test_idempotent(self, rng, blaschke_basis):
        for basis in (ModelSpaceBasis.build(InnerFunction.monomial(4)), blaschke_basis):
            f = LaurentPoly(
                {int(n): complex(*rng.standard_normal(2)) for n in range(-4, 8)}
            )
            once = basis.project(f)
            twice = basis.project(basis.reconstruct(once))
            assert np.abs(once - twice).max() < 1e-10

    def test_self_adjoint_on_spanning_set(self, blaschke_basis):
        # <P f, g> = <f, P g> over a frequency spanning set.
        span = [LaurentPoly.monomial(n) for n in range(-3, 8)]
        for f in span:
            for g in span:
                pf = blaschke_basis.reconstruct(blaschke_basis.project(f))
                pg = blaschke_basis.reconstruct(blaschke_basis.project(g))
                assert abs(pf.inner(g) - f.inner(pg)) < 1e-10


class TestKernel:
    def test_origin_derivative_kernel(self):
        basis = ModelSpaceBasis.build(InnerFunction.monomial(4))
        assert np.allclose(basis.kernel(0, 2), [0, 0, 2, 0])

    def test_order_beyond_dimension(self):
        basis = ModelSpaceBasis.build(InnerFunction.monomial(4))
        assert np.allclose(basis.kernel(0, 5), np.zeros(4))

    def test_point_kernel_is_one_when_alpha_vanishes(self):
        basis = ModelSpaceBasis.build(InnerFunction.monomial(3))
        assert np.allclose(basis.kernel(0, 0), [1, 0, 0])

    def test_rejects_outside_disk(self):
        basis = ModelSpaceBasis.build(InnerFunction.monomial(3))
        with pytest.raises(ValueError):
            basis.kernel(1.2, 0)

    @pytest.mark.parametrize("inner", [InnerFunction.monomial(4), InnerFunction.blaschke([0.5, -0.3])])
    def test_reproducing_property(self, rng, inner):
        basis = ModelSpaceBasis.build(inner)
        for _ in range(20):
            coords = random_coords(rng, basis.dim)
            f = basis.reconstruct(coords)
            w = 0.7 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            for n in range(3):
                pairing = complex(np.vdot(basis.kernel(w, n), coords))
                assert abs(pairing - f.derivative_at(w, n)) < 1e-8


class TestConjugation:
    def test_monomial_formula(self):
        basis = ModelSpaceBasis.build(InnerFunction.monomial(3))
        assert np.allclose(basis.conjugate_vector([1, 0, 0]), [0, 0, 1])

    @pytest.mark.parametrize("inner", [InnerFunction.monomial(4), InnerFunction.blaschke([0.5, -0.3])])
    def test_involution_and_isometry(self, rng, inner):
        basis = ModelSpaceBasis.build(inner)
        for _ in range(10):
            v = random_coords(rng, basis.dim)
            w = random_coords(rng, basis.dim)
            cv, cw = basis.conjugate_vector(v), basis.conjugate_vector(w)
            assert np.abs(basis.conjugate_vector(cv) - v).max() < 1e-10
            assert abs(np.vdot(cw, cv) - np.vdot(v, w)) < 1e-9

    def test_image_stays_in_space(self, rng, blaschke_basis):
        v = random_coords(rng, blaschke_basis.dim)
        cv = blaschke_basis.conjugate_vector(v)
        g = blaschke_basis.reconstruct(cv)
        assert np.abs(blaschke_basis.project(g) - cv).max() < 1e-10


class TestCompressedShift:
    def test_jordan_block(self):
        basis = ModelSpaceBasis.build(InnerFunction.monomial(3))
        S, S_adj = basis.compressed_shift()
        jordan = np.diag([1.0, 1.0], -1)
        assert np.allclose(S, jordan)
        assert np.allclose(S_adj, jordan.T)

    def test_shift_kills_top_power_when_alpha_vanishes_at_zero(self):
        # S applied to the conjugated point kernel gives -alpha(0) k_0.
        basis = ModelSpaceBasis.build(InnerFunction.monomial(3))
        S, _ = basis.compressed_shift()
        tilde = basis.conjugate_vector(basis.kernel(0, 0))
        assert np.allclose(S @ tilde, np.zeros(3))

    @pytest.mark.parametrize("inner", [InnerFunction.monomial(4), InnerFunction.blaschke([0.5, -0.3])])
    def test_conjugation_symmetry(self, inner):
        basis = ModelSpaceBasis.build(inner)
        S, S_adj = basis.compressed_shift()
        C = basis.conjugation_matrix()
        assert np.abs(C @ S.conjugate() @ C.conjugate() - S_adj).max() < 1e-10

    def test_tilde_kernel_relation_blaschke(self, blaschke_basis):
        # S applied to the conjugated point kernel equals -alpha(0) k_0.
        S, _ = blaschke_basis.compressed_shift()
        tilde = blaschke_basis.conjugate_vector(blaschke_basis.kernel(0, 0))
        a0 = blaschke_basis.inner.evaluate(0.0)
        assert np.abs(S @ tilde + a0 * blaschke_basis.kernel(0, 0)).max() < 1e-8

    def test_adjoint_is_backward_shift(self, rng, blaschke_basis):
        from slantmodel.laurent import backward_shift_pow

        v = random_coords(rng, blaschke_basis.dim)
        _, S_adj = blaschke_basis.compressed_shift()
        direct = blaschke_basis.project(backward_shift_pow(blaschke_basis.reconstruct(v), 1))
        assert np.abs(S_adj @ v - direct).max() < 1e-10


class TestStretchInner:
    def test_monomial(self):
        assert InnerFunction.monomial(3).stretched(2) == InnerFunction.monomial(6)

    def test_blaschke_quarter(self):
        alpha = InnerFunction.blaschke([0.25])
        stretched = alpha.stretched(2)
        assert sorted(w.real for w in stretched.zeros) == pytest.approx([-0.5, 0.5])
        for z in circle_grid():
            assert abs(stretched.evaluate(z) - alpha.evaluate(z**2)) < 1e-8

    def test_unimodular(self):
        stretched = InnerFunction.blaschke([0.5, -0.3]).stretched(3)
        for z in circle_grid():
            assert abs(abs(stretched.evaluate(z)) - 1.0) < 1e-8

    def test_rejects_zero_at_origin(self):
        with pytest.raises(ValueError, match="origin"):
            InnerFunction.blaschke([0.0, 0.5]).stretched(2)


class TestProjectionDecimationIntertwine:
    @pytest.mark.parametrize(
        "inner,k",
        [
            (InnerFunction.monomial(4), 2),
            (InnerFunction.monomial(3), 3),
            (InnerFunction.blaschke([0.5, -0.3]), 2),
        ],
    )
    def test_identity(self, rng, inner, k):
        basis = ModelSpaceBasis.build(inner)
        big = ModelSpaceBasis.build(inner.stretched(k))
        for _ in range(10):
            f = LaurentPoly(
                {int(n): complex(*rng.standard_normal(2)) for n in rng.integers(-6, 20, size=8)}
            )
            lhs = basis.reconstruct(basis.project(decimate(f, k)))
            rhs = decimate(big.reconstruct(big.project(f)), k)
            assert lhs.distance(rhs) < 1e-8


def convolution_expansions(inner, order):
    """Reference: the Takenaka-Malmquist rows and the Taylor coefficients of
    the inner function, both 0..order, by chained truncated convolutions of
    the Blaschke-factor series."""
    rows = np.empty((inner.degree, order + 1), dtype=complex)
    carried = np.ones(1, dtype=complex)  # product of the previous Blaschke factors
    for j, w in enumerate(inner.zeros):
        geo = np.conj(w) ** np.arange(order + 1)  # 1 / (1 - conj(w) z)
        rows[j] = math.sqrt(1.0 - abs(w) ** 2) * np.convolve(geo, carried)[: order + 1]
        carried = np.convolve(carried, np.convolve([-w, 1.0], geo)[: order + 1])[: order + 1]
    return rows, inner.constant * carried


class TestConvolutionOracle:
    @pytest.mark.parametrize(
        "inner",
        [
            InnerFunction.blaschke([0.95, -0.3, 0.2j]),
            InnerFunction.blaschke([0.99, -0.3, 0.2j]),
            InnerFunction.blaschke([0.0, 0.5, -0.3j]),
            InnerFunction.blaschke([0.3, 0.3 + 1e-9]),
            InnerFunction.blaschke([0.5, -0.3], 1j),
            InnerFunction.blaschke([0.4, -0.5j]).stretched(2),
            InnerFunction.blaschke([0.4, -0.5j]).stretched(3),
        ],
        ids=["B95", "B99", "origin", "near-coincident", "constant-1j", "beta-k2", "beta-k3"],
    )
    def test_fft_matches_convolution(self, inner):
        T = default_truncation(inner)
        # The basis expands alpha to twice the row length; the rows are
        # truncations of the same series, so one reference run covers both.
        rows, alpha = convolution_expansions(inner, 2 * (T + 1))
        assert np.abs(_takenaka_malmquist(inner.zeros, T) - rows[:, : T + 1]).max() <= 1e-14
        assert np.abs(_taylor(inner, 2 * (T + 1)) - alpha).max() <= 1e-14
