import pytest
from hypothesis import given, strategies as st

from flatstir import (
    DomainError,
    IntPolynomial,
    conjecture_report,
    descent_egf,
    descent_polynomial_bruteforce,
    extract_descent_polynomial,
    is_real_rooted,
    is_unimodal,
)


class TestDescentPolynomialBruteforce:
    def test_published_values(self):
        assert descent_polynomial_bruteforce(3, 3).coeffs == (1, 9, 2)
        assert descent_polynomial_bruteforce(5, 4).coeffs == (1, 89, 546, 372)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_order_one(self, k):
        assert descent_polynomial_bruteforce(1, k).coeffs == (1,)

    @pytest.mark.parametrize("n,k", [(2, 2), (4, 2), (6, 2), (4, 3), (3, 4)])
    def test_matches_series_route(self, n, k):
        brute = descent_polynomial_bruteforce(n, k)
        extracted = extract_descent_polynomial(descent_egf(k, n - 1), n - 1)
        assert brute == extracted


class TestUnimodal:
    @pytest.mark.parametrize(
        "coeffs,expected",
        [
            ((1, 37, 70, 8), True),
            ((1, 0, 1), False),
            ((5,), True),
            ((), True),
            ((1, 2, 2, 1), True),
            ((2, 1, 2), False),
            ((3, 2, 1), True),
            ((1, 2, 3), True),
        ],
    )
    def test_cases(self, coeffs, expected):
        assert is_unimodal(IntPolynomial(coeffs)) is expected


class TestRealRooted:
    def test_perfect_square(self):
        assert is_real_rooted(IntPolynomial((1, 2, 1)))

    def test_negative_discriminant(self):
        assert not is_real_rooted(IntPolynomial((1, 1, 1)))

    def test_order5_descent_polynomial(self):
        # independent oracle: the discriminant of d + ct + bt^2 + at^3 is
        # 18abcd - 4b^3 d + b^2 c^2 - 4ac^3 - 27a^2 d^2; positive means
        # three distinct real roots.
        d, c, b, a = 1, 37, 70, 8
        disc = 18 * a * b * c * d - 4 * b**3 * d + b**2 * c**2 - 4 * a * c**3 - 27 * a**2 * d**2
        assert disc > 0
        assert is_real_rooted(IntPolynomial((1, 37, 70, 8)))

    def test_triple_root(self):
        assert is_real_rooted(IntPolynomial((1, 3, 3, 1)))  # (1+t)^3

    def test_difference_of_squares(self):
        assert is_real_rooted(IntPolynomial((-1, 0, 1)))

    def test_quartic_with_complex_pair(self):
        # (t^2+1)(t-1)(t-2) = 2 - 3t + 3t^2 - 3t^3 + t^4
        assert not is_real_rooted(IntPolynomial((2, -3, 3, -3, 1)))

    def test_constant(self):
        assert is_real_rooted(IntPolynomial((7,)))

    def test_zero_poly_rejected(self):
        with pytest.raises(DomainError):
            is_real_rooted(IntPolynomial(()))

    def test_reversal_invariance_on_descent_polynomials(self):
        for k in (2, 3):
            egf = descent_egf(k, 6)
            for n in range(7):
                poly = extract_descent_polynomial(egf, n)
                assert is_real_rooted(poly) == is_real_rooted(IntPolynomial(poly.coeffs[::-1]))


@given(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=6).filter(
        lambda c: c[0] != 0 and any(c)
    )
)
def test_reversal_invariance_random(coeffs):
    p = IntPolynomial(tuple(coeffs))
    assert is_real_rooted(p) == is_real_rooted(IntPolynomial(p.coeffs[::-1]))


def _product(factors):
    out = [1]
    for f in factors:
        acc = [0] * (len(out) + len(f) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(f):
                acc[i + j] += x * y
        out = acc
    return tuple(out)


# b + a*t with a != 0, and how many times it divides the product
_linear_factor = st.tuples(st.integers(-6, 6), st.integers(-6, 6).filter(bool))


@given(
    st.lists(st.tuples(_linear_factor, st.integers(1, 3)), min_size=1, max_size=4),
    st.integers(min_value=1, max_value=9),
)
def test_known_answers_with_repeated_roots(factors, c):
    real = _product([list(f) for f, repeats in factors for _ in range(repeats)])
    assert is_real_rooted(IntPolynomial(real))
    assert not is_real_rooted(IntPolynomial(_product([real, (c, 0, 1)])))  # times t^2 + c


@pytest.mark.parametrize("k,last_real_rooted", [(2, 26), (3, 40), (4, 53)])
def test_real_rootedness_fails_one_order_past(k, last_real_rooted):
    egf = descent_egf(k, last_real_rooted)  # entry n - 1 is order n
    assert is_real_rooted(extract_descent_polynomial(egf, last_real_rooted - 1))
    assert not is_real_rooted(extract_descent_polynomial(egf, last_real_rooted))


class TestConjectureReport:
    def test_k2_through_order_10(self):
        rows = conjecture_report(2, 10)
        assert len(rows) == 10
        assert all(r.unimodal and r.real_rooted for r in rows)
        assert rows[4].coefficients == (1, 37, 70, 8)

    def test_k3_published_range(self):
        rows = conjecture_report(3, 5)
        assert all(r.unimodal and r.real_rooted for r in rows if r.n >= 3)
