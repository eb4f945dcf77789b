import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laurent_oracle import (
    analytic_project,
    backward_shift_pow,
    conj_on_circle,
    decimate,
    derivative_at,
    distance,
    evaluate,
    inner,
    is_zero,
    monomial,
    mul,
    shifted,
    stretch,
    sub,
)
from slantmodel.laurent import COEFF_DROP, LaurentPoly

EXACT = 1e-12

coeff_values = st.complex_numbers(
    min_magnitude=1e-3, max_magnitude=4, allow_nan=False, allow_infinity=False
)
polys = st.dictionaries(st.integers(-10, 10), coeff_values, max_size=8).map(LaurentPoly)
analytic_polys = st.dictionaries(st.integers(0, 10), coeff_values, max_size=8).map(LaurentPoly)
orders = st.sampled_from([1, 2, 3, 5])


def L(d):
    return LaurentPoly(d)


class TestArithmetic:
    def test_polynomial_identity(self):
        assert mul(L({0: 1, 1: 1}), L({0: 1, 1: -1})) == L({0: 1, 2: -1})

    def test_exponent_addition(self):
        assert mul(L({-2: 1}), L({3: 1})) == L({1: 1})

    def test_hand_convolution(self):
        # supports {-1, 0} x {2}, convolved by hand
        assert mul(L({-1: 2, 0: 3}), L({2: 1})) == L({1: 2, 2: 3})

    def test_zero_coefficients_dropped(self):
        p = L({0: 1, 1: 1e-16})
        assert p.support == [0]

    @pytest.mark.parametrize("bad", [float("nan"), complex(0, float("nan")), float("inf"), complex(1, float("-inf"))])
    def test_nonfinite_coefficient_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            L({0: bad, 1: 1})

    @pytest.mark.parametrize("bad", [float("nan"), complex(0, float("nan")), float("inf"), complex(1, float("-inf"))])
    def test_from_array_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            LaurentPoly.from_array([1.0, bad], lo=-1)

    def test_from_array_drop_rule(self):
        # Moduli <= COEFF_DROP are dropped exactly as the constructor drops them.
        values = [1.0, COEFF_DROP, -COEFF_DROP * 1j, COEFF_DROP * (1 + 1e-15), 0.6e-14 + 0.8e-14j, 1e-300, 0.0, -2j]
        p = LaurentPoly.from_array(values, lo=-3)
        assert p == L(dict(zip(range(-3, 5), values)))
        assert p.support == [-3, 0, 4]
        assert is_zero(LaurentPoly.from_array(np.zeros(4)))

    @given(st.lists(coeff_values | st.complex_numbers(max_magnitude=1e-13), max_size=12), st.integers(-20, 20))
    @settings(max_examples=50, deadline=None)
    def test_from_array_matches_constructor(self, values, lo):
        p = LaurentPoly.from_array(np.array(values, dtype=complex), lo)
        assert p == L(dict(zip(range(lo, lo + len(values)), values)))
        assert all(isinstance(n, int) for n in p.support)

    def test_from_array_rows_at_step(self):
        # Row r starts at lo + step r; frequencies stay Python ints past int64.
        rows = np.array([[1.0, 0.0, 2j], [COEFF_DROP, -1.0, 0.0]])
        step = 10**19
        p = LaurentPoly.from_array(rows, lo=-1, step=step)
        assert p == L({-1: 1.0, 1: 2j, step: -1.0})
        with pytest.raises(ValueError, match="finite"):
            LaurentPoly.from_array(np.array([[1.0], [np.nan]]), lo=0, step=3)

    @pytest.mark.parametrize(
        "shape,step", [((240,), None), ((40, 6), 6), ((12, 20), 10**20)], ids=["1d", "2d", "2d-step-1e20"]
    )
    def test_from_array_matches_comprehension(self, shape, step):
        # The per-entry comprehension from_array ran before its one numpy
        # pass, on moduli at, just below and just above COEFF_DROP.
        def comprehension(coeffs, lo):
            if coeffs.ndim == 1:
                return {n: c for n, c in enumerate(coeffs.tolist(), lo) if abs(c) > COEFF_DROP}
            return {
                n: c
                for r, row in enumerate(coeffs.tolist())
                for n, c in enumerate(row, lo + step * r)
                if abs(c) > COEFF_DROP
            }

        rng = np.random.default_rng(19)
        near = [COEFF_DROP, np.nextafter(COEFF_DROP, 0), np.nextafter(COEFF_DROP, 1), 0.6e-14, 0.0, 1.0]
        size = int(np.prod(shape))
        moduli = rng.choice(near, size) * rng.choice([1.0, 1 + 1e-15, 1 - 1e-15], size)
        phases = rng.choice([1, -1, 1j, -1j, np.exp(0.3j), (0.6 + 0.8j)], size)
        coeffs = (moduli * phases).reshape(shape)
        for lo in (-7, 0, 10**19):
            p = LaurentPoly.from_array(coeffs, lo, step)
            want = comprehension(coeffs, lo)
            assert dict(p.items()) == want and 0 < len(want) < size
            assert all(type(n) is int for n in p.support)

    def test_json_roundtrip(self):
        p = L({-3: 1 + 2j, 0: -0.5, 7: 3j})
        assert LaurentPoly.from_json(p.to_json()) == p

    def test_json_duplicate_frequency_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            LaurentPoly.from_json({"coeffs": [{"n": 1, "re": 1, "im": 0}, {"n": 1, "re": 2, "im": 0}]})


class TestConjOnCircle:
    def test_definition(self):
        assert conj_on_circle(L({1: 1j})) == L({-1: -1j})

    def test_hand_case(self):
        assert conj_on_circle(L({-1: 2, 0: 3, 2: 1})) == L({1: 2, 0: 3, -2: 1})

    @given(polys)
    def test_involution(self, p):
        assert conj_on_circle(conj_on_circle(p)) == p


class TestAnalyticProject:
    def test_drops_negative(self):
        assert analytic_project(L({-1: 1, 0: 1, 1: 1})) == L({0: 1, 1: 1})

    def test_kills_antianalytic(self):
        assert is_zero(analytic_project(L({-3: 1})))

    @given(polys)
    def test_commutes_with_decimate(self, p):
        assert analytic_project(decimate(p, 2)) == decimate(analytic_project(p), 2)


class TestDecimateStretch:
    def test_multiple_kept(self):
        assert decimate(L({4: 1}), 2) == L({2: 1})

    def test_nonmultiple_killed(self):
        assert is_zero(decimate(L({3: 1}), 2))

    @given(polys)
    def test_order_one_identity(self, p):
        assert decimate(p, 1) == p
        assert stretch(p, 1) == p

    def test_stretch_hand_case(self):
        assert stretch(L({-1: 2, 0: 1, 1: 3}), 2) == L({-2: 2, 0: 1, 2: 3})

    @given(polys, orders)
    def test_decimate_after_stretch(self, p, k):
        assert decimate(stretch(p, k), k) == p

    @given(polys, orders)
    def test_stretch_after_decimate_is_projection(self, p, k):
        kept = LaurentPoly({n: c for n, c in p.items() if n % k == 0})
        assert stretch(decimate(p, k), k) == kept

    @given(polys, orders)
    def test_adjoint_pairing(self, p, k):
        q = mul(conj_on_circle(p), L({1: 0.5, -2: 1j}))
        assert abs(inner(decimate(p, k), q) - inner(p, stretch(q, k))) <= EXACT

    @given(polys, polys, orders)
    def test_stretch_multiplicative(self, p, q, k):
        lhs = stretch(mul(p, q), k)
        rhs = mul(stretch(p, k), stretch(q, k))
        assert distance(lhs, rhs) <= EXACT

    @given(polys, orders)
    def test_conjugation_commutes(self, p, k):
        assert decimate(conj_on_circle(p), k) == conj_on_circle(decimate(p, k))
        assert stretch(conj_on_circle(p), k) == conj_on_circle(stretch(p, k))

    @given(polys, polys, orders)
    def test_multiplier_pull_through(self, phi, f, k):
        lhs = decimate(mul(stretch(phi, k), f), k)
        rhs = mul(phi, decimate(f, k))
        assert distance(lhs, rhs) <= EXACT

    @given(polys, orders)
    def test_middle_monomial_sandwich(self, f, k):
        assert decimate(stretch(f, k), k) == f
        for m in range(1, k):
            assert is_zero(decimate(shifted(stretch(f, k), m), k))
            assert is_zero(decimate(shifted(stretch(f, k), -m), k))

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            decimate(L({0: 1}), 0)


class TestBackwardShift:
    def test_coefficient_shift(self):
        assert backward_shift_pow(L({3: 1, 1: 1}), 2) == L({1: 1})

    def test_constant_to_zero(self):
        assert is_zero(backward_shift_pow(L({0: 1}), 1))

    def test_rejects_nonanalytic(self):
        with pytest.raises(ValueError, match="analytic"):
            backward_shift_pow(L({-1: 1}), 1)

    @given(analytic_polys, orders)
    def test_expansion_identity(self, p, k):
        # Two routes: direct coefficient shift vs multiply by z^-k and remove
        # the k leading correction terms, each p_j at frequency j - k.
        direct = backward_shift_pow(p, k)
        other = shifted(p, -k)
        for j in range(k):
            other = sub(other, monomial(j - k, p.coeff(j)))
        assert distance(direct, other) <= EXACT

    @given(analytic_polys, orders)
    def test_stretch_shift_constant(self, f, k):
        lhs = sub(stretch(f, k), shifted(stretch(backward_shift_pow(f, 1), k), k))
        assert distance(lhs, LaurentPoly.constant(f.coeff(0))) <= EXACT


class TestEvaluation:
    @settings(max_examples=25)
    @given(polys, orders)
    def test_stretch_is_substitution(self, p, k):
        for t in range(5):
            z = np.exp(2j * np.pi * t / 5)
            assert abs(evaluate(stretch(p, k), z) - evaluate(p, z**k)) < 1e-9

    def test_derivative_at(self):
        p = L({0: 1, 2: 3})
        assert derivative_at(p, 0.5, 1) == pytest.approx(3.0)
        with pytest.raises(ValueError):
            derivative_at(L({-1: 1}), 0.0)
