import tracemalloc
from math import comb

import pytest
from hypothesis import given, strategies as st

from flatstir import (
    DomainError,
    EgfSeries,
    IntPolynomial,
    count_flattened_dobinski,
    count_runs_2,
    count_runs_3,
    descent_egf,
    egf_flattened,
    extract_descent_polynomial,
    max_runs_bound,
)
from flatstir.counting import flattened_totals
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


def reference_exp(shifted, order):
    """G_{n+1} = sum_i C(n, i) A_{i+1} G_{n-i}, with math.comb for every term."""
    g = [(1,)]
    for n in range(order):
        g.append(reference_convolution(shifted, g, n))
    return EgfSeries(tuple(g))


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
    assert EgfSeries(((),) + shifted).exp() == reference_exp(shifted, s.order)


@st.composite
def constant_series(draw):
    """Exponents whose entries are all constants: () zeros and signed ints."""
    order = draw(st.integers(min_value=0, max_value=40))
    entry = st.integers(-50, 50).map(lambda c: (c,) if c else ())
    return EgfSeries(((),) + tuple(draw(entry) for _ in range(order)))


@pytest.fixture
def convolution_calls(monkeypatch):
    """Records each call of the generic exp and product kernel."""
    import flatstir.series as series_module

    calls = []
    generic = series_module._binomial_convolution
    monkeypatch.setattr(
        series_module, "_binomial_convolution", lambda *a: calls.append(1) or generic(*a)
    )
    return calls


class TestUnivariateExp:
    """exp of a constant-entry exponent takes the dot-product path; a single
    t-term sends it down the generic convolution.  Both match the per-term
    reference."""

    @given(constant_series())
    def test_constant_entries_match_per_term_binomials(self, s):
        assert s.exp() == reference_exp(s.coeffs[1:], s.order)

    def test_zeros_and_negatives_at_order_40(self, convolution_calls):
        s = EgfSeries(((),) + tuple(() if n % 3 == 0 else ((-1) ** n * n,) for n in range(1, 41)))
        assert s.exp() == reference_exp(s.coeffs[1:], 40)
        assert not convolution_calls

    def test_one_t_term_takes_the_generic_path(self, convolution_calls):
        entries = [((-2) ** n,) if n % 4 else () for n in range(1, 41)]
        entries[6] = (0, 1)  # A_7 = t
        s = EgfSeries(((),) + tuple(entries))
        got = s.exp()
        assert len(convolution_calls) == 40
        assert got == reference_exp(s.coeffs[1:], 40)
        assert max(map(len, got.coeffs)) > 1


class TestEgfFlattened:
    def test_k2_order10(self):
        egf = egf_flattened(2, 9)
        assert egf.egf_coefficient(9) == 1832224

    def test_k3_order3(self):
        assert egf_flattened(3, 5).egf_coefficient(2) == 12

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_constant_term(self, k):
        assert egf_flattened(k, 4).egf_coefficient(0) == 1

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_matches_recurrence(self, k):
        egf = egf_flattened(k, 24)
        for n, total in enumerate(flattened_totals(k, 25)):
            assert egf.egf_coefficient(n) == total

    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_triangle_at_order_300(self, k):
        egf = egf_flattened(k, 299)
        for n, total in enumerate(flattened_totals(k, 300)):
            assert egf.egf_coefficient(n) == total


class TestDescentEgf:
    def test_k2_order2_polynomial(self):
        poly = extract_descent_polynomial(descent_egf(2, 1), 1)
        assert poly.coeffs == (1, 1)

    def test_published_k3_and_k4(self):
        b3 = descent_egf(3, 4)
        assert extract_descent_polynomial(b3, 2).coeffs == (1, 9, 2)
        assert extract_descent_polynomial(b3, 3).coeffs == (1, 26, 36)
        assert extract_descent_polynomial(b3, 4).coeffs == (1, 63, 251, 90)
        b4 = descent_egf(4, 4)
        assert extract_descent_polynomial(b4, 2).coeffs == (1, 13, 6)
        assert extract_descent_polynomial(b4, 3).coeffs == (1, 37, 84, 6)
        assert extract_descent_polynomial(b4, 4).coeffs == (1, 89, 546, 372)

    def test_k2_table_row(self):
        poly = extract_descent_polynomial(descent_egf(2, 4), 4)
        assert poly.coeffs == (1, 37, 70, 8)

    def test_k1_matches_closed_form(self):
        assert descent_egf(1, 12) == closed_form_k1(12)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_t1_collapses_to_univariate(self, k):
        bivariate, univariate = descent_egf(k, 15), egf_flattened(k, 15)
        assert [bivariate.egf_coefficient(n) for n in range(16)] == [
            univariate.egf_coefficient(n) for n in range(16)
        ]

    @pytest.mark.parametrize("n,k", [(2, 2), (4, 2), (5, 2), (4, 3), (3, 4)])
    def test_degree_is_descent_maximum(self, n, k):
        poly = extract_descent_polynomial(descent_egf(k, n - 1), n - 1)
        assert poly.degree == max_runs_bound(n, k) - 1

    def test_large_k_costs_what_the_order_does(self):
        """No table of k factorials or k-padded rows: k = 1000 at order 3 is small."""
        tracemalloc.start()
        try:
            egf = descent_egf(1000, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024  # tables of k factorials would take over 1 MiB here
        for n in range(1, 5):
            row = egf.coeffs[n - 1] + (0, 0)
            assert row[1] == count_runs_2(n, 1000), n
            assert row[2] == count_runs_3(n, 1000), n
            assert sum(row) == count_flattened_dobinski(n, 1000), n

    def test_extract_constant(self):
        assert extract_descent_polynomial(descent_egf(3, 0), 0).coeffs == (1,)

    def test_extract_beyond_truncation(self):
        with pytest.raises(DomainError):
            extract_descent_polynomial(descent_egf(2, 3), 4)

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
