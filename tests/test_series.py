from math import comb

import pytest
from hypothesis import given, strategies as st

from flatstir import (
    CountContext,
    DomainError,
    EgfSeries,
    IntPolynomial,
    count_flattened_recurrence,
    descent_egf,
    egf_flattened,
    extract_descent_polynomial,
    max_runs_bound,
)
from flatstir.verify import closed_form_k1


def series(*entries):
    """A univariate series from its EGF coefficients n! [z^n]."""
    return EgfSeries(tuple((c,) for c in entries))


def one(order):
    return series(1, *([0] * order))


def negated(s):
    return EgfSeries(tuple(tuple(-c for c in p) for p in s.coeffs))


class TestArithmetic:
    def test_product(self):
        # (1 + z)(1 - z) = 1 - z^2, whose z^2 entry is -2!
        p = series(1, 1, 0) * series(1, -1, 0)
        assert p == series(1, 0, -2)

    def test_exp_square_is_exp_of_double(self):
        e = series(*[1] * 7)
        assert e * e == series(*[2**n for n in range(7)])

    def test_truncation_takes_min_order(self):
        a = series(1, 1, 1, 1)
        b = series(1, 1)
        assert (a * b).order == 1


class TestExp:
    def test_exp_z(self):
        assert series(0, 1, 0, 0, 0).exp() == series(1, 1, 1, 1, 1)

    def test_exp_times_exp_of_negation_is_one(self):
        s = series(0, 2, -1, 3, 2, 0, 1)
        assert s.exp() * negated(s).exp() == one(s.order)

    def test_rejects_nonzero_constant(self):
        with pytest.raises(DomainError):
            series(1, 1).exp()

    def test_flattened_totals_from_exp(self):
        # exp(z + (e^(2z) - 1)/2) counts 1, 2, 6, 24, 116
        got = series(0, 2, 2, 4, 8).exp()
        assert [got.egf_coefficient(n) for n in range(5)] == [1, 2, 6, 24, 116]


@st.composite
def small_series(draw):
    order = draw(st.integers(min_value=1, max_value=6))
    entry = st.lists(st.integers(-4, 4), max_size=3)
    return EgfSeries(tuple(tuple(draw(entry)) for _ in range(order + 1)))


@given(small_series(), small_series())
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@given(small_series())
def test_exp_inverse_property(s):
    z = EgfSeries(((),) + s.coeffs[1:])  # force a zero z^0 entry
    assert z.exp() * negated(z).exp() == one(z.order)


def reference_convolution(a, b, n):
    """sum_i C(n, i) a_i b_{n-i} in t, with math.comb for every term."""
    acc = [0] * (max(map(len, a[: n + 1])) + max(map(len, b[: n + 1])))
    for i in range(n + 1):
        for d, x in enumerate(a[i]):
            for e, y in enumerate(b[n - i]):
                acc[d + e] += comb(n, i) * x * y
    return tuple(acc)


@st.composite
def signed_series(draw):
    order = draw(st.integers(min_value=0, max_value=12))
    entry = st.lists(st.integers(-50, 50), max_size=3)
    return EgfSeries(tuple(tuple(draw(entry)) for _ in range(order + 1)))


@given(signed_series(), signed_series())
def test_product_matches_per_term_binomials(a, b):
    n_max = min(a.order, b.order)
    want = tuple(reference_convolution(a.coeffs, b.coeffs, n) for n in range(n_max + 1))
    assert a * b == EgfSeries(want)


@given(signed_series())
def test_exp_matches_per_term_binomials(s):
    shifted = s.coeffs[1:]
    g = [(1,)]
    for n in range(s.order):
        g.append(reference_convolution(shifted, g, n))
    assert EgfSeries(((),) + shifted).exp() == EgfSeries(tuple(g))


class TestEgfFlattened:
    def test_k2_order10(self, ctx):
        egf = egf_flattened(2, 9, ctx)
        assert egf.egf_coefficient(9) == 1832224

    def test_k3_order3(self, ctx):
        assert egf_flattened(3, 5, ctx).egf_coefficient(2) == 12

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_constant_term(self, k, ctx):
        assert egf_flattened(k, 4, ctx).egf_coefficient(0) == 1

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_matches_recurrence(self, k, ctx):
        egf = egf_flattened(k, 24, ctx)
        for n in range(25):
            assert egf.egf_coefficient(n) == count_flattened_recurrence(n + 1, k, ctx)

    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_triangle_at_order_300(self, k):
        ctx = CountContext()  # fresh: the triangle's memo for k grows to order 300
        egf = egf_flattened(k, 299, ctx)
        for n in range(300):
            assert egf.egf_coefficient(n) == count_flattened_recurrence(n + 1, k, ctx)


class TestDescentEgf:
    def test_k2_order2_polynomial(self, ctx):
        poly = extract_descent_polynomial(descent_egf(2, 1, ctx), 1)
        assert poly.coeffs == (1, 1)

    def test_published_k3_and_k4(self, ctx):
        b3 = descent_egf(3, 4, ctx)
        assert extract_descent_polynomial(b3, 2).coeffs == (1, 9, 2)
        assert extract_descent_polynomial(b3, 3).coeffs == (1, 26, 36)
        assert extract_descent_polynomial(b3, 4).coeffs == (1, 63, 251, 90)
        b4 = descent_egf(4, 4, ctx)
        assert extract_descent_polynomial(b4, 2).coeffs == (1, 13, 6)
        assert extract_descent_polynomial(b4, 3).coeffs == (1, 37, 84, 6)
        assert extract_descent_polynomial(b4, 4).coeffs == (1, 89, 546, 372)

    def test_k2_table_row(self, ctx):
        poly = extract_descent_polynomial(descent_egf(2, 4, ctx), 4)
        assert poly.coeffs == (1, 37, 70, 8)

    def test_k1_matches_closed_form(self, ctx):
        assert descent_egf(1, 12, ctx) == closed_form_k1(12)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_t1_collapses_to_univariate(self, k, ctx):
        bivariate, univariate = descent_egf(k, 15, ctx), egf_flattened(k, 15, ctx)
        assert [bivariate.egf_coefficient(n) for n in range(16)] == [
            univariate.egf_coefficient(n) for n in range(16)
        ]

    @pytest.mark.parametrize("n,k", [(2, 2), (4, 2), (5, 2), (4, 3), (3, 4)])
    def test_degree_is_descent_maximum(self, n, k, ctx):
        poly = extract_descent_polynomial(descent_egf(k, n - 1, ctx), n - 1)
        assert poly.degree == max_runs_bound(n, k) - 1

    def test_extract_constant(self, ctx):
        assert extract_descent_polynomial(descent_egf(3, 0, ctx), 0).coeffs == (1,)

    def test_extract_beyond_truncation(self, ctx):
        with pytest.raises(DomainError):
            extract_descent_polynomial(descent_egf(2, 3, ctx), 4)

    def test_bivariate_exp_needs_zero_constant(self):
        with pytest.raises(DomainError):
            EgfSeries(((0, 1), (1,))).exp()


class TestIntPolynomial:
    def test_trailing_zeros_trimmed(self):
        assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)

    def test_zero_polynomial(self):
        assert IntPolynomial((0, 0)).coeffs == ()
        assert IntPolynomial(()).degree == -1

    def test_to_text(self):
        assert IntPolynomial((1, 26, 36)).to_text() == "1 + 26*t + 36*t^2"
        assert IntPolynomial((1, 1)).to_text() == "1 + t"
        assert IntPolynomial(()).to_text() == "0"
        assert IntPolynomial((0, 0, 5)).to_text() == "5*t^2"
