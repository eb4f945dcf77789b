import cmath
import contextlib
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laurent_oracle import backward_shift_pow, decimate, derivative_at, distance, inner, monomial, project, reconstruct
from laurent_oracle import evaluate as poly_value
from slantmodel import model_space
from slantmodel.laurent import LaurentPoly
from slantmodel.model_space import (
    GRAM_TOL,
    InnerFunction,
    ModelSpaceBasis,
    MAX_TRUNCATION,
    TruncationError,
    _compress,
)
from slantmodel.verify import circle_grid, evaluate, kernel, stretched


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

    @pytest.mark.parametrize("degree", [2.5, 2.0, True, False, "3", None])
    def test_monomial_rejects_non_integer_degree(self, degree):
        with pytest.raises(ValueError, match="integer"):
            InnerFunction.monomial(degree)
        with pytest.raises(ValueError, match="integer"):
            InnerFunction.from_json({"type": "monomial", "degree": degree})

    def test_monomial_is_zeros_at_origin(self):
        m = InnerFunction.monomial(3)
        assert m.zeros == (0, 0, 0) and m.constant == 1
        assert m.kind == "monomial" and m.degree == 3
        assert InnerFunction.blaschke([0, 0, 0]) == m
        assert InnerFunction.blaschke([0, 0, 0], 1j).kind == "blaschke"
        assert InnerFunction.blaschke([0, 0.5]).kind == "blaschke"
        z = cmath.exp(0.7j)
        assert evaluate(m, z) == z**3

    def test_repeated_zeros_accepted(self):
        b = InnerFunction.blaschke([0.3, 0.3])
        assert b.zeros == (0.3, 0.3) and b.degree == 2
        for z in circle_grid(8):
            assert abs(evaluate(b, z) - ((z - 0.3) / (1 - 0.3 * z)) ** 2) < 1e-15

    def test_json_zero_shorthand(self):
        # The "type" may be left out, and zeros and constant given as numbers.
        b = InnerFunction.from_json({"zeros": [0.5, 0.5, {"re": 0.1, "im": 0.2}], "constant": -1})
        assert b == InnerFunction.blaschke([0.5, 0.5, 0.1 + 0.2j], -1)
        with pytest.raises(ValueError, match="type"):
            InnerFunction.from_json({"type": "rational", "zeros": [0.5]})

    def test_blaschke_validation(self):
        with pytest.raises(ValueError):
            InnerFunction.blaschke([])
        with pytest.raises(ValueError, match="disk"):
            InnerFunction.blaschke([1.5])
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
            assert abs(abs(evaluate(b, z)) - 1.0) < 1e-8

    def test_expansion_matches_evaluation(self):
        # Every zero at the origin (z^3, 1j z^3) gives exactly c z^N.  B[0.645]
        # has T = 63 and holds 32 columns of A^n B: alpha's 129 terms read them
        # four times, through C A^(32 q).
        inners = [
            InnerFunction.blaschke([0.5, -0.3]),
            InnerFunction.blaschke([0.645]),
            InnerFunction.monomial(3),
            InnerFunction.blaschke([0, 0, 0], 1j),
            InnerFunction.blaschke([0, 0, 0.5, -0.3]),
        ]
        for inner in inners:
            basis = ModelSpaceBasis.build(inner)
            T = basis.truncation_order
            expansion = basis.inner_expansion
            assert expansion.shape == (2 * (T + 1) + 1,) and not expansion.flags.writeable
            assert np.abs(expansion - convolution_expansions(inner, 2 * (T + 1))[1]).max() <= 1e-14
            if not any(inner.zeros):
                assert np.array_equal(expansion, inner.constant * np.eye(1, len(expansion), inner.degree)[0])
            poly = LaurentPoly.from_array(expansion)
            for z in circle_grid(8):
                assert abs(poly_value(poly, z) - evaluate(inner, z)) < 1e-10
        assert ModelSpaceBasis.build(inners[1]).truncation_order == 63

    def test_parse_shorthand(self):
        assert InnerFunction.parse("z^4").degree == 4
        assert InnerFunction.parse("z").degree == 1

    @pytest.mark.parametrize("text", ["z^3_0", "z^\u0663", "z^+3", "z^ 3", "z^3.0", "z^"])
    def test_parse_shorthand_needs_ascii_digits(self, text):
        # int() would read the first two as 30 and 3.
        with pytest.raises(ValueError, match="ASCII digits"):
            InnerFunction.parse(text)

    def test_json_roundtrip(self):
        b = InnerFunction.blaschke([0.5, -0.3], constant=1j)
        assert InnerFunction.from_json(b.to_json()) == b
        m = InnerFunction.monomial(3)
        assert InnerFunction.from_json(m.to_json()) == m


class TestMakeBasis:
    def test_monomial_basis(self):
        basis = ModelSpaceBasis.build(InnerFunction.monomial(3))
        assert basis.dim == 3
        assert [LaurentPoly.from_array(row) for row in basis.rows] == [L({0: 1}), L({1: 1}), L({2: 1})]
        assert basis.tail_bound == 0.0

    def test_single_zero_at_origin(self):
        basis = ModelSpaceBasis.build(InnerFunction.blaschke([0.0]))
        assert basis.dim == 1
        assert LaurentPoly.from_array(basis.rows[0]) == L({0: 1})

    def test_single_zero_half(self):
        # Normalized Cauchy kernel sqrt(0.75) * sum 0.5^n z^n.
        basis = ModelSpaceBasis.build(InnerFunction.blaschke([0.5]))
        v = LaurentPoly.from_array(basis.rows[0])
        scale = math.sqrt(0.75)
        for n in range(10):
            assert v.coeff(n) == pytest.approx(scale * 0.5**n)
        assert abs(inner(v, v) - 1.0) < 1e-10

    def test_gram_identity(self, blaschke_basis):
        d = blaschke_basis.dim
        vectors = [LaurentPoly.from_array(row) for row in blaschke_basis.rows]
        gram = np.array([[inner(vectors[i], vectors[j]) for j in range(d)] for i in range(d)])
        assert np.abs(gram - np.eye(d)).max() < 1e-10

    def test_default_truncation_certifies_tail(self):
        # The row sqrt(1 - |w|^2) / (1 - conj(w) z) of one zero drops an l2
        # tail of exactly |w|^(T+1), so T is the least order with 0.9^(T+1) <= 1e-12.
        basis = ModelSpaceBasis.build(InnerFunction.blaschke([0.9]))
        t = basis.truncation_order
        assert 0.9 ** (t + 1) <= 1e-12 < 0.9**t
        assert abs(basis.tail_bound - 0.9 ** (t + 1)) <= 1e-3 * 0.9 ** (t + 1)

    def test_close_zeros_build(self):
        # Three close zeros have the coefficient growth of a triple zero, which
        # an order read off max |w| alone does not see: the tail picks T.
        basis = ModelSpaceBasis.build(InnerFunction.blaschke([0.9, 0.91, 0.92]))
        assert basis.tail_bound <= 1e-12 and basis.gram_error <= GRAM_TOL
        # Twelve zeros at 0.9 need T = 590, past the 512 columns that the
        # order of a single zero at 0.9 sets: the doubling goes on.
        basis = ModelSpaceBasis.build(InnerFunction.blaschke([0.9] * 12))
        assert basis.tail_bound <= 1e-12 and basis.gram_error <= GRAM_TOL

    @pytest.mark.parametrize("count,radius", [(4, 0.9), (8, 0.9), (10, 0.9), (12, 0.9), (4, 0.95), (12, 0.95)])
    def test_random_products_build(self, count, radius):
        # Each draw builds, or is refused only by a cap on the order or the array.
        rng = np.random.default_rng(1000 * count + round(100 * radius))
        for _ in range(20):
            zeros = radius * np.sqrt(rng.uniform(size=count)) * np.exp(2j * np.pi * rng.uniform(size=count))
            try:
                basis = ModelSpaceBasis.build(InnerFunction.blaschke(zeros))
                basis.rows
            except TruncationError as exc:
                assert "outside" in str(exc) or "cap" in str(exc)
                continue
            assert basis.tail_bound <= 1e-12 and basis.gram_error <= GRAM_TOL

    def test_repeated_zero_tail_is_measured(self):
        # At T = 284 the simple-zero estimate 0.9^285 / 0.1 is below 1e-12, but a
        # triple zero at 0.9 drops a tail near 1.6e-10 there.  The exact tail
        # at order t is the largest row norm of A^(t+1), A = conj(S).
        inner = InnerFunction.blaschke([0.9, 0.9, 0.9])
        basis = ModelSpaceBasis.build(inner)
        T = basis.truncation_order
        a = basis.shift_operands()[0].conj()
        rows = convolution_expansions(inner, 4 * T)[0]
        for t in (284, T):
            dropped = np.linalg.norm(rows[:, t + 1 :], axis=1).max()
            assert abs(np.linalg.norm(np.linalg.matrix_power(a, t + 1), axis=1).max() - dropped) <= 1e-3 * dropped
        assert abs(basis.tail_bound - dropped) <= 1e-3 * dropped
        assert basis.tail_bound <= 1e-12 and basis.gram_error <= 1e-12

    @pytest.mark.parametrize(
        "inner",
        [InnerFunction.blaschke([1 - 1e-9]), InnerFunction((0j,) * (MAX_TRUNCATION + 2))],
        ids=["near-circle-zero", "origin-zeros"],
    )
    def test_truncation_cap(self, inner):
        start = time.perf_counter()
        with pytest.raises(TruncationError, match="outside"):
            ModelSpaceBasis.build(inner)
        assert time.perf_counter() - start < 0.5

    def test_near_circle_zeros_build(self):
        # The tail is exact, with no rounding floor to stop it: zeros at 0.9999
        # and 0.99987 certify their order in milliseconds.  A single zero drops
        # exactly |w|^(T+1).
        for zeros in ([0.9999, -0.3, 0.2j], [0.9999], [0.99987]):
            start = time.process_time()  # CPU time: other processes do not count
            basis = ModelSpaceBasis.build(InnerFunction.blaschke(zeros))
            basis.rows
            assert time.process_time() - start < 0.5
            assert basis.tail_bound <= 1e-12 and basis.gram_error <= GRAM_TOL
            if len(zeros) == 1:
                t = basis.truncation_order
                assert zeros[0] ** (t + 1) <= 1e-12 * (1 + 1e-9) and abs(basis.tail_bound / zeros[0] ** (t + 1) - 1) <= 1e-6
        # Repeated zeros need orders far past that of one zero of their modulus
        # (262 at 0.9, 538 at 0.95, 39 at 0.5), and the doubling goes on to them.
        for zeros, order in (([0.9] * 12, 590), ([0.9] * 40, 1250), ([0.95] * 30, 2102), ([0.5] * 200, 719)):
            basis = ModelSpaceBasis.build(InnerFunction.blaschke(zeros))
            assert basis.truncation_order == order and basis.tail_bound <= 1e-12

    def test_build_memory(self):
        # The build holds the first 2^14 columns of the rows (0.75 MiB at
        # dim 3), then joins the rest to them (1.3 MiB); alpha (0.8 MiB)
        # comes from them.
        inner = InnerFunction.blaschke([0.999, -0.3, 0.2j])
        tracemalloc.start()
        try:
            basis = ModelSpaceBasis.build(inner)
            basis.inner_expansion
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert basis.truncation_order == 27617
        assert peak <= 6 * 2**20

    def test_monomial_rows_memory(self):
        # z^N's rows are the identity, orthonormal by construction: the rows
        # and the conjugation matrix (16 MiB each at N = 1024), no Gram product.
        basis = ModelSpaceBasis.build(InnerFunction.monomial(1024))
        tracemalloc.start()
        try:
            basis.rows
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert basis.gram_error == 0.0 and basis.truncation_order == 1023
        assert peak <= 40 * 2**20

    def test_monomial_reads_without_rows(self):
        # The dimension, T = N - 1, a tail of 0 and a Gram error of 0, which
        # `info` reads, need no rows and no shift: at z^4096 the rows, the
        # shift and the conjugation matrix would take 256 MiB each.
        inner = InnerFunction.monomial(4096)
        tracemalloc.start()
        try:
            basis = ModelSpaceBasis.build(inner)
            read = basis.dim, basis.truncation_order, basis.tail_bound, basis.gram_error
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert read == (4096, 4095, 0.0, 0.0) and peak <= 2**16
        assert not {"_truncation_outcome", "rows", "_shift", "_conjugation"} & set(vars(basis))

    def test_refusals_wait_for_the_rows(self, monkeypatch):
        # A double zero at 0.99997 needs T = 1059425 > 2^20, past the order
        # 921020 of one zero at 0.99997: only the measured tail shows it, so
        # the build stands and reading the rows refuses it, every time, from
        # the one attempt.
        calls = []

        def counted(*args):
            calls.append(args)
            return impulse_responses(*args)

        impulse_responses = model_space._impulse_responses
        monkeypatch.setattr(model_space, "_impulse_responses", counted)
        basis = ModelSpaceBasis.build(InnerFunction.blaschke([0.99997, 0.99997]))
        assert basis.least_order == 921020 and basis.dim == 2
        refusals = []
        for name in ("rows", "tail_bound", "gram_error", "truncation_order", "rows"):
            with pytest.raises(TruncationError, match="outside") as refused:
                getattr(basis, name)
            refusals.append(refused.value)
        assert len(calls) == 1 and all(r is refusals[0] for r in refusals)
        r = math.sqrt(1 - 0.99997**2)
        columns = basis.first_columns(2)
        assert columns.shape == (2, 2) and np.abs(columns[:, 0] - [r, -0.99997 * r]).max() <= 1e-18

    @pytest.mark.parametrize("zeros", [[0.9, 0.9, 0.9], [0.4, -0.5j], [0, 0, 0.5, -0.3]], ids=["triple", "complex", "origin"])
    def test_realization_is_lossless(self, zeros):
        # I - A A^H = B B^H: the rows have unit norm over all frequencies, and
        # the row norms of A^n are the exact tails.
        basis = ModelSpaceBasis.build(InnerFunction.blaschke(zeros))
        a, b = basis.shift_operands()[0].conj(), basis.rows[:, 0]
        assert np.linalg.norm(np.eye(len(b)) - a @ a.conj().T - np.outer(b, b.conj())) <= 1e-15

    def test_monomial_degree_cap(self):
        # z^N needs T = N - 1, so N zeros are never stored past the cap.
        assert InnerFunction.monomial(MAX_TRUNCATION + 1).degree == MAX_TRUNCATION + 1
        with pytest.raises(TruncationError, match="outside"):
            InnerFunction.monomial(10**12)


class TestFirstColumns:
    @pytest.mark.parametrize(
        "inner",
        [
            InnerFunction.blaschke([0.9, 0.9, 0.9]),
            InnerFunction.blaschke([0.4, -0.5j]),
            InnerFunction.blaschke([0, 0, 0.5, -0.3]),
            InnerFunction.monomial(5),
        ],
        ids=["repeated", "complex", "origin", "monomial"],
    )
    def test_equal_to_rows_either_way(self, inner):
        # Every build fills the first 2^(s-1) columns by doubling, s the bit
        # length of its least order: up to that many come from the doubling
        # before the rows exist, bit for bit, and the rest from the rows.
        rows = ModelSpaceBasis.build(inner).rows
        held = 1 << (max(1, ModelSpaceBasis.build(inner).least_order.bit_length()) - 1)
        widths = {1, 2, 3, inner.degree, held - 1, held, held + 1, rows.shape[1] - 1, rows.shape[1]}
        for n in sorted(w for w in widths if 1 <= w <= rows.shape[1]):
            basis = ModelSpaceBasis.build(inner)
            first = basis.first_columns(n)
            assert ("rows" in vars(basis)) == (n > held and inner.kind != "monomial")
            assert np.array_equal(first, rows[:, :n]) and not first.flags.writeable
            assert np.array_equal(basis.rows, rows)
            assert np.array_equal(basis.first_columns(n), first)


class TestProject:
    def test_monomial_window(self):
        basis = ModelSpaceBasis.build(InnerFunction.monomial(4))
        coords = project(basis, L({-1: 1, 0: 1, 1: 1, 5: 1}))
        assert np.allclose(coords, [1, 1, 0, 0])

    def test_derivative_kernels_at_origin(self):
        basis = ModelSpaceBasis.build(InnerFunction.monomial(4))
        for j in range(4):
            coords = project(basis, L({j: math.factorial(j)}))
            expected = np.zeros(4)
            expected[j] = math.factorial(j)
            assert np.allclose(coords, expected)

    def test_idempotent(self, rng, blaschke_basis):
        for basis in (ModelSpaceBasis.build(InnerFunction.monomial(4)), blaschke_basis):
            f = LaurentPoly(
                {int(n): complex(*rng.standard_normal(2)) for n in range(-4, 8)}
            )
            once = project(basis, f)
            twice = project(basis, reconstruct(basis, once))
            assert np.abs(once - twice).max() < 1e-10

    def test_self_adjoint_on_spanning_set(self, blaschke_basis):
        # <P f, g> = <f, P g> over a frequency spanning set.
        span = [monomial(n) for n in range(-3, 8)]
        for f in span:
            for g in span:
                pf = reconstruct(blaschke_basis, project(blaschke_basis, f))
                pg = reconstruct(blaschke_basis, project(blaschke_basis, g))
                assert abs(inner(pf, g) - inner(f, pg)) < 1e-10


class TestKernel:
    def test_origin_derivative_kernel(self):
        basis = ModelSpaceBasis.build(InnerFunction.monomial(4))
        assert np.allclose(kernel(basis, 0, 2), [0, 0, 2, 0])

    def test_order_beyond_dimension(self):
        basis = ModelSpaceBasis.build(InnerFunction.monomial(4))
        assert np.allclose(kernel(basis, 0, 5), np.zeros(4))

    def test_point_kernel_is_one_when_alpha_vanishes(self):
        basis = ModelSpaceBasis.build(InnerFunction.monomial(3))
        assert np.allclose(kernel(basis, 0, 0), [1, 0, 0])

    def test_order_above_170_is_numeric_error(self):
        # 171! overflows a double; below the row length such a kernel is refused.
        basis = ModelSpaceBasis.build(InnerFunction.blaschke([0.95, -0.3]))
        assert np.isfinite(kernel(basis, 0, 170)).all()
        for w in (0, 0.5):
            with pytest.raises(FloatingPointError, match="derivative order 171"):
                kernel(basis, w, 171)
        assert not kernel(ModelSpaceBasis.build(InnerFunction.monomial(3)), 0, 200).any()
        # S^2000 underflows to 0 on B[0.5], where 2000! 0.5^2000 overflows:
        # only the nilpotent shift of z^N gives zero kernels.
        with pytest.raises(FloatingPointError, match="derivative order 2000"):
            kernel(ModelSpaceBasis.build(InnerFunction.blaschke([0.5])), 0, 2000)

    @pytest.mark.parametrize("zeros", [[0.5], [0.5, -0.3], [0.0, 0.6j, 0.6j]], ids=["single", "pair", "origin-double"])
    def test_orders_past_truncation(self, zeros):
        # The rows stop at T, the kernels do not.
        basis = ModelSpaceBasis.build(InnerFunction.blaschke(zeros))
        T = basis.truncation_order
        for n in (T, T + 1, T + 7, 60, 170):
            # 170! times the series' weights off the origin overflow a double.
            assert_kernels_match_series(basis, n, (0.3, -0.2j) if n <= 60 else ())

    def test_reads_no_rows(self):
        # Every kernel comes from the realization alone: near the circle it
        # forms no rows, and past the order cap, where the rows are refused,
        # it still answers.
        basis = ModelSpaceBasis.build(InnerFunction.blaschke([0.99995j, -0.5j]))
        for w, n in ((0, 0), (0, 3), (0.3, 2), (-0.2j, 5)):
            assert np.isfinite(kernel(basis, w, n)).all()
        assert not {"rows", "_truncation_outcome"} & set(vars(basis))
        basis = ModelSpaceBasis.build(InnerFunction.blaschke([0.99997, 0.99997]))
        for n in range(6):
            assert_kernels_match_series(basis, n, (0.3, -0.2j))
        with pytest.raises(TruncationError, match="outside"):
            basis.rows

    def test_monomial_memory(self):
        # S^n of z^1024 (16 MiB) times conj(B), then scaled: no second
        # 1024 x 1024 array for n! S^n.
        basis = ModelSpaceBasis.build(InnerFunction.monomial(1024))
        tracemalloc.start()
        try:
            vector = kernel(basis, 0, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(vector, 6 * np.eye(1, 1024, 3)[0]) and peak <= 20 * 2**20

    def test_rejects_outside_disk(self):
        basis = ModelSpaceBasis.build(InnerFunction.monomial(3))
        with pytest.raises(ValueError):
            kernel(basis, 1.2, 0)

    @pytest.mark.parametrize("inner", [InnerFunction.monomial(4), InnerFunction.blaschke([0.5, -0.3])])
    def test_reproducing_property(self, rng, inner):
        basis = ModelSpaceBasis.build(inner)
        for _ in range(20):
            coords = random_coords(rng, basis.dim)
            f = reconstruct(basis, coords)
            w = 0.7 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            for n in range(3):
                pairing = complex(np.vdot(kernel(basis, w, n), coords))
                assert abs(pairing - derivative_at(f, w, n)) < 1e-8


def assert_kernels_match_series(basis, n, points):
    """At the origin the kernel of order n is n! conj(A^n B), at each of the
    points w the conjugate of the n-th derivative of the series
    sum_m A^m B z^m of the rows, read here to m = 600, with A = conj(S)."""
    A, B = np.asarray(basis.shift_operands()[0]).conj(), basis.first_columns(1)[:, 0]
    columns = [B]
    for _ in range(600):
        columns.append(A @ columns[-1])
    columns = np.array(columns).conj()
    want = math.factorial(n) * columns[n]
    assert np.abs(kernel(basis, 0, n) - want).max() <= 1e-13 * np.abs(want).max()
    for w in points:
        weights = np.array([math.perm(m, n) * w.conjugate() ** (m - n) for m in range(n, 601)])
        want, scale = weights @ columns[n:], np.abs(weights) @ np.abs(columns[n:])
        # The series' terms rotate with the zeros' phases, so its rounding
        # is relative to the sum of their moduli.
        assert np.abs(kernel(basis, w, n) - want).max() <= 1e-13 * scale.max()


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
        g = reconstruct(blaschke_basis, cv)
        assert np.abs(project(blaschke_basis, g) - cv).max() < 1e-10


class TestCompressedShift:
    def test_jordan_block(self):
        basis = ModelSpaceBasis.build(InnerFunction.monomial(3))
        S, S_adj = map(np.asarray, basis.shift_operands())
        jordan = np.diag([1.0, 1.0], -1)
        assert np.allclose(S, jordan)
        assert np.allclose(S_adj, jordan.T)

    def test_shift_kills_top_power_when_alpha_vanishes_at_zero(self):
        # S applied to the conjugated point kernel gives -alpha(0) k_0.
        basis = ModelSpaceBasis.build(InnerFunction.monomial(3))
        S = basis.shift_operands()[0]
        tilde = basis.conjugate_vector(kernel(basis, 0, 0))
        assert np.allclose(S @ tilde, np.zeros(3))

    @pytest.mark.parametrize("inner", [InnerFunction.monomial(4), InnerFunction.blaschke([0.5, -0.3])])
    def test_conjugation_symmetry(self, inner):
        basis = ModelSpaceBasis.build(inner)
        S, S_adj = map(np.asarray, basis.shift_operands())
        C = np.asarray(basis.conjugation_operand)
        assert np.abs(C @ S.conjugate() @ C.conjugate() - S_adj).max() < 1e-10

    def test_tilde_kernel_relation_blaschke(self, blaschke_basis):
        # S applied to the conjugated point kernel equals -alpha(0) k_0.
        S = blaschke_basis.shift_operands()[0]
        tilde = blaschke_basis.conjugate_vector(kernel(blaschke_basis, 0, 0))
        a0 = evaluate(blaschke_basis.inner, 0.0)
        assert np.abs(S @ tilde + a0 * kernel(blaschke_basis, 0, 0)).max() < 1e-8

    def test_shift_power(self):
        # z^N: the shift by n, zero from n = N on whatever the size of n;
        # elsewhere the power of conj(A), with S and S^* formed once.
        basis = ModelSpaceBasis.build(InnerFunction.monomial(6))
        for n in (0, 1, 2, 5, 6, 11):
            assert np.array_equal(np.asarray(basis.shift_operands(n)[0]), np.eye(6, k=-n))
        assert not np.asarray(basis.shift_operands(10**20)[0]).any()
        for zeros in ([0.5, -0.3], [0.4, -0.5j], [0, 0, 0.5, -0.3]):
            blaschke = ModelSpaceBasis.build(InnerFunction.blaschke(zeros))
            a = blaschke._system[1:-1, 1:-1]
            S, S_adj = blaschke.shift_operands()
            assert np.array_equal(S, a.conj()) and np.array_equal(S_adj, S.conj().T)
            for n in (0, 1, 2, 7, 100):
                assert np.array_equal(blaschke.shift_operands(n)[0], np.linalg.matrix_power(a.conj(), n))
            assert blaschke.shift_operands() is blaschke.shift_operands()
        for a in (S, S_adj, *blaschke.shift_operands(3)):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 1.0
        # The index maps of z^N take no item assignment at all.
        for n in (0, 3, 10**20):
            with pytest.raises(TypeError):
                basis.shift_operands(n)[0][0, 0] = 1.0

    def test_adjoint_is_backward_shift(self, rng, blaschke_basis):
        v = random_coords(rng, blaschke_basis.dim)
        S_adj = blaschke_basis.shift_operands()[1]
        direct = project(blaschke_basis, backward_shift_pow(reconstruct(blaschke_basis, v), 1))
        assert np.abs(S_adj @ v - direct).max() < 1e-10


def index_map_cases(dim, c):
    """(name, index map, the same matrix built with np.eye) for each map of
    the exact basis c z^dim: S^n, S^{*n}, c J, the identity rows, and the
    frames G, G^H, plain and conjugated."""
    basis = ModelSpaceBasis.build(InnerFunction.blaschke([0] * dim, c))
    J = c * np.eye(dim, dtype=complex)[::-1]
    cases = [("J", basis.conjugation_operand, J), ("rows", basis.rows_operand, np.eye(dim))]
    for n in sorted({0, 1, dim - 1, dim, dim + 3}):
        S, S_adj = basis.shift_operands(n)
        cases += [(f"S^{n}", S, np.eye(dim, k=-n)), (f"S*^{n}", S_adj, np.eye(dim, k=n))]
    for n in sorted({1, dim}):
        for conjugated, G in ((False, np.eye(dim, n)), (True, J[:, :n])):
            ops = basis.frame_operands(n, conjugated)
            cases += [(f"G{n}{'c' * conjugated}", ops[0], G), (f"G{n}{'c' * conjugated}^H", ops[1], G.conj().T)]
    return cases


class TestIndexMap:
    """Every index map of an exact basis against the matrix built by hand:
    products from either side, the transpose and conjugate, row reads, size
    refusals, the contiguity of products and the densify's cap."""

    @pytest.mark.parametrize("dim", [1, 2, 5])
    @pytest.mark.parametrize("c", [1, cmath.exp(0.7j)], ids=["c1", "c"])
    def test_matches_hand_built(self, dim, c):
        g = np.random.default_rng(dim)
        for name, op, dense in index_map_cases(dim, c):
            rows, cols = dense.shape
            assert op.shape == dense.shape and len(op) == rows, name
            for got, want in ((op, dense), (op.T, dense.T), (op.conj(), dense.conj())):
                assert np.array_equal(np.asarray(got), want), name
            for l in range(rows):
                assert np.array_equal(op[l], dense[l]), name
            for l in (-1, rows):
                with pytest.raises(IndexError):
                    op[l]
            with pytest.raises(TypeError):
                op[0] = 1.0
            products = []
            for shape in ((cols,), (cols, 3), (2, cols, 3)):
                x = g.standard_normal(shape) + 1j * g.standard_normal(shape)
                # A leading stack is multiplied matrix by matrix.
                want = dense @ x if x.ndim < 3 else np.stack([dense @ m for m in x])
                products.append((op @ x, want, x, lambda m: op @ m))
            for shape in ((rows,), (3, rows), (2, 3, rows)):
                x = g.standard_normal(shape) + 1j * g.standard_normal(shape)
                products.append((x @ op, x @ dense, x, lambda m: m @ op))
            for got, want, x, product in products:
                assert got.shape == want.shape, name
                if c == 1:
                    assert np.array_equal(got, want), name
                else:
                    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), name
                if x.ndim == 3:
                    assert all(np.array_equal(got[t], product(m)) for t, m in enumerate(x)), name
                # Products are contiguous, x itself for the identity.
                assert got.flags.c_contiguous, name
                assert name != "rows" or np.shares_memory(got, x)
            # A wrong-sized matrix axis is refused, under a stack too, and so is a 0-d array.
            for x in (np.ones(cols + 1), np.ones((cols + 1, 2)), np.ones((cols, cols + 1, 2)), np.ones(())):
                with pytest.raises(ValueError):
                    op @ x
            for x in (np.ones(rows + 1), np.ones((2, rows + 1)), np.ones(())):
                with pytest.raises(ValueError):
                    x @ op

    def test_identity_copies_noncontiguous(self):
        rows = ModelSpaceBasis.build(InnerFunction.monomial(4)).rows_operand
        x = (np.arange(8) + 1j).reshape(2, 4)[:, ::-1].T
        for got in (rows @ x, x.T @ rows):
            assert got.flags.c_contiguous and np.array_equal(got, np.ascontiguousarray(got))
        assert np.array_equal(rows @ x, x) and np.array_equal(x.T @ rows, x.T)

    def test_densify_is_capped(self):
        # z^5000 builds; its 5000 x 5000 maps are refused where they would
        # be densified, before anything is allocated, and their products
        # and one-column densifies stand.
        basis = ModelSpaceBasis.build(InnerFunction.monomial(5000))
        tracemalloc.start()
        try:
            for dense in (
                lambda: np.asarray(basis.rows_operand),
                lambda: np.asarray(basis.conjugation_operand),
                lambda: np.asarray(basis.shift_operands(2)[0]),
                lambda: basis.first_columns(5000),
                lambda: kernel(basis, 0.5, 1),
            ):
                with pytest.raises(TruncationError, match="cap"):
                    dense()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20
        assert np.array_equal(basis.first_columns(1)[:, 0], np.eye(1, 5000)[0])
        assert np.array_equal(basis.shift_operands(4999)[0] @ np.arange(1.0, 5001.0), np.eye(1, 5000, 4999)[0])
        assert basis.shift_operands(2)[1][0][2] == 1


class TestStretchInner:
    def test_monomial(self):
        assert stretched(InnerFunction.monomial(3), 2) == InnerFunction.monomial(6)

    def test_blaschke_quarter(self):
        alpha = InnerFunction.blaschke([0.25])
        beta = stretched(alpha, 2)
        assert sorted(w.real for w in beta.zeros) == pytest.approx([-0.5, 0.5])
        for z in circle_grid():
            assert abs(evaluate(beta, z) - evaluate(alpha, z**2)) < 1e-8

    def test_unimodular(self):
        beta = stretched(InnerFunction.blaschke([0.5, -0.3]), 3)
        for z in circle_grid():
            assert abs(abs(evaluate(beta, z)) - 1.0) < 1e-8

    @pytest.mark.parametrize(
        "inner",
        [InnerFunction.monomial(3), InnerFunction.blaschke([0.5, -0.3]), InnerFunction.blaschke([0.4 - 0.5j, 0.2j], 1j)],
        ids=["z3", "B-real", "B-complex"],
    )
    def test_evaluates_an_array(self, inner):
        # One call on the 64-point grid gives each point's scalar value.
        grid = circle_grid()
        values = evaluate(inner, np.array(grid))
        assert values.shape == (64,)
        assert max(abs(v - evaluate(inner, z)) for v, z in zip(values, grid)) <= 1e-15

    def test_zero_at_origin_becomes_repeated_zero(self):
        alpha = InnerFunction.blaschke([0.0, 0.5])
        beta = stretched(alpha, 2)
        assert beta.zeros[:2] == (0, 0)
        assert sorted(w.real for w in beta.zeros[2:]) == pytest.approx([-(0.5**0.5), 0.5**0.5])
        for z in circle_grid():
            assert abs(evaluate(beta, z) - evaluate(alpha, z**2)) < 1e-15


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
        big = ModelSpaceBasis.build(stretched(inner, k))
        for _ in range(10):
            f = LaurentPoly(
                {int(n): complex(*rng.standard_normal(2)) for n in rng.integers(-6, 20, size=8)}
            )
            lhs = reconstruct(basis, project(basis, decimate(f, k)))
            rhs = decimate(reconstruct(big, project(big, f)), k)
            assert distance(lhs, rhs) < 1e-8


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
    INNERS = [
        InnerFunction.blaschke([0.95, -0.3, 0.2j]),
        InnerFunction.blaschke([0.99, -0.3, 0.2j]),
        InnerFunction.blaschke([0.0, 0.5, -0.3j]),
        InnerFunction.blaschke([0.3, 0.3 + 1e-9]),
        InnerFunction.blaschke([0.5, -0.3], 1j),
        stretched(InnerFunction.blaschke([0.4, -0.5j]), 2),
        stretched(InnerFunction.blaschke([0.4, -0.5j]), 3),
        InnerFunction.blaschke([0.5, 0.5]),
        InnerFunction.blaschke([0.0, 0.0, 0.5, -0.3]),
        InnerFunction.blaschke([0.9, 0.9, 0.9]),
    ]
    IDS = ["B95", "B99", "origin", "near-coincident", "constant-1j", "beta-k2", "beta-k3", "double", "double-origin", "triple"]

    @pytest.mark.parametrize("inner", INNERS, ids=IDS)
    def test_fft_matches_convolution(self, inner):
        basis = ModelSpaceBasis.build(inner)
        T = basis.truncation_order
        # The basis expands alpha to twice the row length; the rows are
        # truncations of the same series, so one reference run covers both.
        rows, alpha = convolution_expansions(inner, 2 * (T + 1))
        assert np.abs(basis.rows - rows[:, : T + 1]).max() <= 1e-14
        assert np.abs(basis.inner_expansion - alpha).max() <= 1e-14

    @pytest.mark.parametrize("inner", INNERS, ids=IDS)
    def test_kernel_matches_series(self, inner):
        # Off the origin the kernel comes from the realization.  The Taylor
        # series of the rows, differentiated n times, read far enough past T
        # that the terms it drops vanish, agrees at |w| <= 0.5.
        basis = ModelSpaceBasis.build(inner)
        rows = convolution_expansions(inner, max(basis.truncation_order, 200))[0]
        for w in (0.5, -0.3 + 0.4j, 0.4j):
            for n in range(6):
                weights = np.array([math.perm(m, n) * w ** (m - n) for m in range(n, rows.shape[1])])
                vector = kernel(basis, w, n)
                assert np.abs(vector - (rows[:, n:] @ weights).conj()).max() <= 1e-13 * np.linalg.norm(vector)

    @pytest.mark.parametrize("inner", INNERS, ids=IDS)
    def test_shift_matches_compression(self, inner):
        # The compression of z on the truncated rows misses only the terms
        # e_j[n] conj(e_i[n + 1]) with n >= T, below the certified tail.
        basis = ModelSpaceBasis.build(inner)
        truncated = _compress(np.ones(1), 1, basis.rows, 1, basis.rows)
        assert np.abs(basis.shift_operands()[0] - truncated).max() <= basis.tail_bound

    @pytest.mark.parametrize(
        "inner",
        INNERS + [InnerFunction.blaschke([0.999, -0.3, 0.2j]), InnerFunction.blaschke([0.99995j, -0.5j])],
        ids=IDS + ["B999", "B99995i"],
    )
    def test_conjugation_matches_mirror_gram(self, inner):
        # The conjugation matrix from the Stein sum, formed with no rows,
        # against the Gram matrix of the rows and the mirror rows.
        basis = ModelSpaceBasis.build(inner)
        C = np.asarray(basis.conjugation_operand)
        assert "_truncation_outcome" not in vars(basis)
        assert np.abs(C - mirror_gram(basis)).max() <= 1e-13


def mirror_gram(basis):
    """Reference: the conjugation matrix as c conj(rows) @ mirror^T.  On the
    circle alpha conj(z e_j) is c times the mirror row j, the row j of the
    reversed zero list read backwards (whose system is J A^T J); both are cut
    at the lesser of their certified orders, which drops below 1e-24."""
    mirror = ModelSpaceBasis.build(InnerFunction(basis.inner.zeros[::-1])).rows[::-1]
    cols = min(basis.rows.shape[1], mirror.shape[1])
    return basis.inner.constant * basis.rows[:, :cols].conj() @ mirror[:, :cols].T


def compressed_conjugation(basis):
    """Reference: the conjugation matrix as the compression of alpha z^-cols
    on the reversed conjugate rows, z^(cols - 1) conj(e_j), with alpha
    expanded to twice the row length."""
    rows = basis.rows
    cols = rows.shape[1]
    return _compress(convolution_expansions(basis.inner, 2 * cols)[1], -cols, rows[:, ::-1].conj(), 1, rows)


class TestConjugationOracle:
    INNERS = [
        InnerFunction.monomial(1),
        InnerFunction.monomial(4),
        InnerFunction.blaschke([0.5, -0.3]),
        InnerFunction.blaschke([0.95, -0.3, 0.2j]),
        InnerFunction.blaschke([0.99, -0.3, 0.2j]),
        InnerFunction.blaschke([0.0, 0.4, -0.5j]),
        InnerFunction.blaschke([0.5, -0.3], cmath.exp(0.3j)),
        stretched(InnerFunction.blaschke([0.4, -0.5j]), 2),
        stretched(InnerFunction.blaschke([0.4, -0.5j]), 3),
        InnerFunction.blaschke([0.5, 0.5]),
        InnerFunction.blaschke([0.0, 0.0, 0.5, -0.3]),
        InnerFunction.blaschke([0.9, 0.9, 0.9]),
    ]
    IDS = ["z1", "z4", "B2", "B95", "B99", "origin", "constant", "beta-k2", "beta-k3", "double", "double-origin", "triple"]

    @pytest.mark.parametrize("inner", INNERS, ids=IDS)
    def test_mirror_gram_matches_compression(self, inner):
        # The conjugation matrix against the compression of alpha on the rows.
        basis = ModelSpaceBasis.build(inner)
        assert np.abs(np.asarray(basis.conjugation_operand) - compressed_conjugation(basis)).max() <= 1e-14

    @pytest.mark.parametrize("inner", INNERS, ids=IDS)
    def test_symmetric_involution(self, inner):
        basis = ModelSpaceBasis.build(inner)
        C = np.asarray(basis.conjugation_operand)
        assert np.linalg.norm(C - C.T) <= 1e-14
        assert np.linalg.norm(C @ C.conj() - np.eye(basis.dim)) <= 1e-13

    def test_involution_check_refuses(self, monkeypatch):
        # C is refused unless C C^H = C conj(C) = I within GRAM_TOL, a NaN too.
        basis = ModelSpaceBasis.build(InnerFunction.blaschke([0.5, -0.3j], cmath.exp(0.3j)))
        system = basis._system.copy()
        system[-1, 1] = math.nan
        with pytest.raises(TruncationError, match="involution"):
            ModelSpaceBasis(basis.inner, system, basis.least_order).conjugation_operand
        monkeypatch.setattr(model_space, "GRAM_TOL", -1.0)
        with pytest.raises(TruncationError, match="involution"):
            np.asarray(basis.conjugation_operand)

    @pytest.mark.parametrize("degree", [1, 2, 4, 7])
    def test_monomial_is_the_flip(self, degree):
        C = np.asarray(ModelSpaceBasis.build(InnerFunction.monomial(degree)).conjugation_operand)
        assert np.array_equal(C, np.eye(degree)[::-1])


def full_convolution_compress(phi, lo, src, k, dst):
    """Reference for _compress: the whole product phi src_j, read at the
    kept frequencies k n afterwards."""
    prod = np.array([np.convolve(phi, row) for row in src])  # frequencies lo, lo + 1, ...
    idx = k * np.arange(dst.shape[1]) - lo
    keep = (idx >= 0) & (idx < prod.shape[1])
    return dst[:, keep].conj() @ prod[:, idx[keep]].T


@contextlib.contextmanager
def recorded_routes(fft_cost=None):
    """The layouts `_route` returns inside the block, None for the FFT
    kernel; with fft_cost, FFT_COST is replaced: 0 takes the FFT kernel and
    inf the band kernel, whatever the shapes."""
    routes, route = [], model_space._route
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model_space, "_route", lambda *args: routes.append(route(*args)) or routes[-1])
        if fft_cost is not None:
            mp.setattr(model_space, "FFT_COST", fft_cost)
        yield routes


def kernel_name(routes):
    """'fft' or 'band' for the one call of `_compress` that chose a kernel,
    None if it read no term."""
    assert len(routes) <= 1
    return ("fft" if routes[0] is None else "band") if routes else None


def assert_matches_full_convolution(phi, lo, src, k, dst):
    """_compress against the full convolution, on its own and with each
    kernel forced; returns the kernel it takes on its own, None when it
    reads no term."""
    want = full_convolution_compress(phi, lo, src, k, dst)
    width = min(len(phi), src.shape[1])
    scale = np.abs(phi).max() * np.abs(src).max() * np.abs(dst).max() * width
    taken = {}
    for forced, fft_cost in ((None, None), ("fft", 0.0), ("band", math.inf)):
        with recorded_routes(fft_cost) as routes:
            got = _compress(phi, lo, src, k, dst)
        taken[forced] = kernel_name(routes)
        assert got.shape == want.shape == (dst.shape[0], src.shape[0])
        assert np.abs(got - want).max() <= 1e-14 * scale
    assert taken["fft"] in ("fft", None) and taken["band"] in ("band", None)
    return taken[None]


class TestKeptFrequencyCompression:
    """_compress forms only the kept coefficients k n of each product, from
    strided windows of the longer factor; the full convolution is the oracle."""

    @pytest.mark.parametrize("t_dst", [3, 12], ids=["dst-shorter", "dst-longer"])
    @pytest.mark.parametrize("k", [1, 2, 3, 40])
    @pytest.mark.parametrize("lo", [-6, 0, 5])
    @pytest.mark.parametrize("phi_len", [1, 3, 8, 20], ids=["phi-one", "phi-short", "phi-equal", "phi-long"])
    def test_grid(self, phi_len, lo, k, t_dst):
        # The source rows have 8 coefficients; k = 40 is past them.
        rng = np.random.default_rng(phi_len * 1000 + lo * 100 + k * 10 + t_dst)
        phi, src, dst = random_coords(rng, phi_len), random_coords(rng, (3, 8)), random_coords(rng, (2, t_dst + 1))
        assert assert_matches_full_convolution(phi, lo, src, k, dst) in ("band", None)

    @given(
        st.integers(1, 24),
        st.integers(-30, 30),
        st.integers(1, 4),
        st.integers(1, 16),
        st.sampled_from([1, 2, 3, 5, 17, 40, 10**6]),
        st.integers(1, 3),
        st.integers(1, 20),
        st.booleans(),
        st.sampled_from([1, 1, 1, 30]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_shapes(self, phi_len, lo, dim_src, src_len, k, dim_dst, dst_len, reversed_rows, stretch, seed):
        # One shape in four is 30 times as long, where the FFT kernel may
        # be the cheaper one; each kernel is also forced on every shape.
        rng = np.random.default_rng(seed)
        phi_len, src_len, dst_len = stretch * phi_len, stretch * src_len, stretch * dst_len
        src = random_coords(rng, (dim_src, src_len))
        if reversed_rows:  # a negatively strided view, as the compressed-conjugation oracle passes
            src = src[:, ::-1]
        assert_matches_full_convolution(random_coords(rng, phi_len), lo, src, k, random_coords(rng, (dim_dst, dst_len)))

    @pytest.mark.parametrize("lo", [0, 1], ids=["gram", "shift"])
    @pytest.mark.parametrize(
        "inner",
        [
            InnerFunction.monomial(1),
            InnerFunction.monomial(4),
            InnerFunction.blaschke([0.5, -0.3]),
            InnerFunction.blaschke([0.95, -0.3, 0.2j]),
        ],
        ids=["z1", "z4", "B2", "B95"],
    )
    def test_one_entry_symbol(self, inner, lo):
        rows = ModelSpaceBasis.build(inner).rows
        assert assert_matches_full_convolution(np.ones(1), lo, rows, 1, rows) in ("band", None)

    @pytest.mark.parametrize("k", [2, 5])
    @pytest.mark.parametrize("src", [4, 3, "B2"])
    def test_verify_suite_shapes(self, rng, src, k):
        # The property suite's spaces: z^4, z^3 and B[0.5, -0.3] into z^3,
        # with symbols clipped to -T_src..k T_dst.
        inner = InnerFunction.blaschke([0.5, -0.3]) if src == "B2" else InnerFunction.monomial(src)
        src_rows, dst_rows = ModelSpaceBasis.build(inner).rows, np.eye(3, dtype=complex)
        for lo in range(1 - src_rows.shape[1], 3):
            phi = random_coords(rng, 2 * k + 1 - lo)
            assert assert_matches_full_convolution(phi, lo, src_rows, k, dst_rows) in ("band", None)

    @pytest.mark.parametrize("k", [1, 2, 7])
    @pytest.mark.parametrize("phi_len, src_shape", [(2000, (3, 700)), (1100, (2, 1500))], ids=["rows", "phi"])
    def test_contraction_in_blocks(self, rng, phi_len, src_shape, k, monkeypatch):
        # The band kernel on blocks of several windows, with a band of the
        # rows, then of phi, and a few blocks per product: 2^11 entries of
        # windows hold two blocks of phi's windows, or one of the rows'.
        # The FFT kernel, forced, transforms one row at a time.
        monkeypatch.setattr(model_space, "WINDOW_ENTRIES", 1 << 11)
        phi, src = random_coords(rng, phi_len), random_coords(rng, src_shape)
        windowed, b = model_space._route(k, src_shape, phi_len, 60)
        assert windowed == (phi_len > src_shape[1]) and b > 1
        assert assert_matches_full_convolution(phi, -300, src, k, random_coords(rng, (2, 60))) == "band"

    @pytest.mark.parametrize("terms, kernel", [(4, "band"), (None, "fft")], ids=["four-terms", "dense"])
    def test_symbol_near_the_circle(self, rng, terms, kernel):
        # At rho = 0.99 (T = 2749, k = 1) a dense symbol as long as two rows
        # takes the FFT kernel, and four terms the band kernel, within the
        # tolerance of the short shapes.
        src = ModelSpaceBasis.build(InnerFunction.blaschke([0.99, -0.3, 0.2j])).rows
        dst = ModelSpaceBasis.build(InnerFunction.blaschke([0.99j, -0.5j])).rows
        phi = random_coords(rng, 2 * src.shape[1])
        if terms:
            phi[terms:] = 0
        assert assert_matches_full_convolution(phi, -src.shape[1], src, 1, dst) == kernel

    def test_past_int64_is_numeric_error(self):
        # Frequencies are Python ints, and one kept window needs no stride:
        # at k = 2^63 only frequency 0 is kept, which z^(1 + j) never reaches
        # and z^j reaches for j = 0.
        rows = np.eye(4, dtype=complex)
        assert np.array_equal(_compress(np.ones(1), 1, rows, 1 << 63, rows[:3]), np.zeros((3, 4)))
        assert np.array_equal(_compress(np.ones(1), 0, rows, 1 << 63, rows[:3]), np.outer(rows[0, :3], rows[0]))

    @pytest.mark.parametrize("k", [1, 3, 40, 1 << 63])
    @pytest.mark.parametrize("lo", [-9, 0, 5])
    @pytest.mark.parametrize("phi_len", [1, 3, 8, 20], ids=["phi-one", "phi-short", "phi-equal", "phi-long"])
    def test_identity_rows(self, phi_len, lo, k):
        # The identity rows as an index map: gathered from as the source,
        # placed into as the destination, with the band kernel's bits on the
        # dense identity at every k, and a window of zeros read as one.
        rng = np.random.default_rng(phi_len * 1000 + lo * 100 + k % 97)
        phi, rows = random_coords(rng, phi_len), random_coords(rng, (2, 5))
        phi[1::3] = 0

        def dense(side):
            return np.eye(side, dtype=complex) if isinstance(side, int) else side

        def operand(side):
            return model_space._IndexMap((side, side)) if isinstance(side, int) else side

        with recorded_routes(math.inf):
            for src, dst in ((8, rows), (rows, 6), (8, 6), (6, 8)):
                want = _compress(phi, lo, dense(src), k, dense(dst))
                got = _compress(phi, lo, operand(src), k, operand(dst))
                assert got.shape == want.shape and np.array_equal(got, want)


class TestStretchedBasis:
    """The projection onto the model space of alpha(z^k) by alpha's own rows,
    column by polyphase column, against the direct Takenaka-Malmquist build on
    the k-th roots of the zeros."""

    INNERS = [
        InnerFunction.monomial(3),
        InnerFunction.blaschke([0.4, -0.5j]),
        InnerFunction.blaschke([0.0, 0.5]),
        InnerFunction.blaschke([0.5, 0.5]),
        InnerFunction.blaschke([0.5, -0.3], cmath.exp(0.3j)),
    ]
    IDS = ["z3", "B", "origin", "double", "constant"]

    @staticmethod
    def projector(basis, k):
        """The matrix of `stretched_projection` on coefficients 0..k (T + 1) - 1."""
        size = k * basis.rows.shape[1]
        return np.array([basis.stretched_projection(e, k) for e in np.eye(size, dtype=complex)]).T

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("inner", INNERS, ids=IDS)
    def test_matches_direct_build(self, rng, inner, k):
        basis = ModelSpaceBasis.build(inner)
        ref = ModelSpaceBasis.build(stretched(inner, k))
        fast = self.projector(basis, k)
        # A projector's trace is the dimension of its range.
        assert abs(np.trace(fast) - k * basis.dim) <= 1e-10
        # The two truncations differ; the projector onto the space does not.
        cols = min(len(fast), ref.rows.shape[1])
        direct = ref.rows[:, :cols].T @ ref.rows[:, :cols].conj()
        assert np.abs(fast[:cols, :cols] - direct).max() <= 1e-13
        for _ in range(3):
            f = rng.standard_normal(len(fast)) + 1j * rng.standard_normal(len(fast))
            image = basis.stretched_projection(f, k)
            assert np.abs(image - fast @ f).max() <= 1e-13 * np.linalg.norm(f)
            assert np.abs(basis.stretched_projection(image, k) - image).max() <= 1e-13 * np.linalg.norm(f)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("degree", [1, 3, 4])
    def test_monomial_is_the_identity(self, degree, k):
        basis = ModelSpaceBasis.build(InnerFunction.monomial(degree))
        fast = self.projector(basis, k)
        assert np.array_equal(fast, np.eye(k * degree))
        ref = ModelSpaceBasis.build(stretched(InnerFunction.monomial(degree), k))
        assert np.array_equal(fast, ref.rows.T @ ref.rows.conj())

    def test_size_cap(self):
        # At k = 500 and 2000 the rows of B[0.4, -0.5i] project (T + 1) k
        # coefficients promptly, while a basis built on the k-th roots is
        # refused before any array is made.
        beta = InnerFunction.blaschke([0.4, -0.5j])
        basis = ModelSpaceBasis.build(beta)
        cols = basis.rows.shape[1]
        rng = np.random.default_rng(7)
        for k in (500, 2000):
            f = rng.standard_normal(cols * k) + 1j * rng.standard_normal(cols * k)
            start = time.perf_counter()
            image = basis.stretched_projection(f, k)
            with pytest.raises(TruncationError, match="cap"):
                ModelSpaceBasis.build(stretched(beta, k))
            assert time.perf_counter() - start < 0.5
            assert np.abs(basis.stretched_projection(image, k) - image).max() <= 1e-13 * np.linalg.norm(f)
        # z^5000 builds, and its 5000 x 5000 identity rows are refused
        # where they would be formed, on their first read.
        basis = ModelSpaceBasis.build(InnerFunction.monomial(5000))
        with pytest.raises(TruncationError, match="cap"):
            basis.rows
