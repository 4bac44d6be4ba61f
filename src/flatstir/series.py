"""Exponential generating functions with integer coefficients.

A series is stored by its EGF-normalised coefficients: entry n is the
integer polynomial in t equal to n! [z^n].  Every series built here comes
from the exponential formula over weighted labelled structures, so these
entries are integers and no denominator is ever carried.  A univariate EGF
is the case where every entry is a constant.  Binary operations truncate
to the shorter operand; products and exp advance Pascal rows for C(n, i).

Two concrete generating functions live here:

  * egf_flattened(k):  exp((k-1) z + (exp(kz) - 1)/k); entry n counts the
    flattened words of order n+1.
  * descent_egf(k):  (t(e^z-1)+1)^(k-1) * exp(z + sum_j k!/(k-j)! H_j t^j)
    with H_j = sum_n S(n-1, j) z^n / n!; entry n is the descent polynomial
    over flattened words of order n+1.  Its Stirling rows are stepped per
    call by `counting._next_stirling_row`; no memo keeps them.
"""

from __future__ import annotations

from math import comb, factorial
from operator import add, mul
from typing import Sequence

from .counting import CountContext, _next_stirling_row
from .errors import DomainError
from .words import _Value

TPoly = tuple[int, ...]  # polynomial in t, ascending powers, trimmed


class IntPolynomial(_Value):
    """Dense integer polynomial, lowest degree first, no trailing zeros.

    The zero polynomial is the empty tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        object.__setattr__(self, "coeffs", _trim(coeffs))

    def _key(self):
        return (self.coeffs,)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def to_text(self) -> str:
        """Canonical ascending-power form, e.g. "1 + 26*t + 36*t^2"."""
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if e == 0:
                parts.append(str(c))
            else:
                t = "t" if e == 1 else f"t^{e}"
                parts.append(t if c == 1 else f"{c}*{t}")
        return " + ".join(parts) if parts else "0"


def _trim(p) -> TPoly:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def _pascal_rows(count: int):
    """C(n, 0..n) for n = 0..count-1, each row advanced from the last."""
    row = [1]
    for _ in range(count):
        yield row
        row = [1, *map(add, row, row[1:]), 1]


def _binomial_convolution(row: Sequence[int], a: Sequence[TPoly], b: Sequence[TPoly]) -> TPoly:
    """sum_i row[i] a_i b_{n-i} for the Pascal row C(n, 0..n), products taken in t."""
    terms = tuple(zip(row, a, b[len(row) - 1 :: -1]))
    acc = [0] * max(len(p) + len(q) for _, p, q in terms)
    for c, p, q in terms:
        for d, x in enumerate(p):
            if x:
                cx = c * x
                for e, y in enumerate(q, start=d):
                    acc[e] += cx * y
    return _trim(acc)


class EgfSeries(_Value):
    """Series in z truncated at z^N, stored as n! [z^n] for n = 0..N.

    Each entry is an integer polynomial in t.  The t-degree is never
    truncated; it stays small (bounded by the maximum descent count at each
    order) in every use here.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[TPoly, ...]):
        if not coeffs:
            raise DomainError("a series needs at least the z^0 coefficient")
        object.__setattr__(self, "coeffs", tuple(_trim(p) for p in coeffs))

    def _key(self):
        return (self.coeffs,)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def egf_coefficient(self, n: int) -> int:
        """n! [z^n] at t = 1: for a univariate EGF, the counted value."""
        return sum(self.coeffs[n])

    def __mul__(self, other: "EgfSeries") -> "EgfSeries":
        """The EGF product: entry n is sum_i C(n, i) A_i B_{n-i}."""
        if not isinstance(other, EgfSeries):
            return NotImplemented
        rows = _pascal_rows(min(self.order, other.order) + 1)
        return EgfSeries(tuple(_binomial_convolution(r, self.coeffs, other.coeffs) for r in rows))

    def exp(self) -> "EgfSeries":
        """exp of a series with zero z^0 entry, by the convolution
        G_{n+1} = sum_i C(n, i) A_{i+1} G_{n-i}."""
        if self.coeffs[0]:
            raise DomainError("exp needs a zero z^0 coefficient")
        shifted = self.coeffs[1:]
        g: list[TPoly] = [(1,)]
        for row in _pascal_rows(self.order):
            g.append(_binomial_convolution(row, shifted, g))
        return EgfSeries(tuple(g))


def _check_k_order(k: int, order: int) -> None:
    if k < 1 or order < 0:
        raise DomainError(f"need k >= 1 and order >= 0, got k={k}, order={order}")


def egf_flattened(k: int, order: int, ctx: CountContext | None = None) -> EgfSeries:
    """F_k(z) = exp((k-1) z + (exp(kz) - 1)/k), truncated.

    Entry n equals the number of flattened k-Stirling words of order n+1.
    The exponent has entries A_1 = k and A_n = k^(n-1); on it, the exp step
    is the paper's recurrence f(m+1) = (k-1) f(m) + sum_r C(m-1, r-1) k^(r-1) f(m-r+1).
    `ctx` is ignored; it stays because the benchmark harness passes it.
    """
    _check_k_order(k, order)
    exponent = ((),) + tuple((k if n == 1 else k ** (n - 1),) for n in range(1, order + 1))
    return EgfSeries(exponent).exp()


def descent_egf(k: int, order: int) -> EgfSeries:
    """The bivariate EGF of descent polynomials over flattened words.

    (t(e^z - 1) + 1)^(k-1) * exp(z + sum_{j=1}^{k} k!/(k-j)! H_j(z) t^j);
    entry n is the descent polynomial at order n+1.  The exponent has
    entries A_n = [n=1] + sum_j k!/(k-j)! S(n-1, j) t^j, and the weight has
    entries sum_j C(k-1, j) j! S(n, j) t^j.  Both read S(n, j) = 0 for j > n.
    """
    _check_k_order(k, order)
    choose = [comb(k - 1, j) * factorial(j) for j in range(k)]
    falling = [factorial(k) // factorial(k - j) for j in range(1, k + 1)]
    weight, exponent, row = [], [()], [1]  # row is S(n, 0..n)
    for n in range(order + 1):
        s = row + [0] * k
        weight.append(tuple(map(mul, choose, s)))
        if n < order:  # exponent entry n+1 reads S(n, 1..k)
            exponent.append((int(n == 0), *map(mul, falling, s[1:])))
            row = _next_stirling_row(row)
    return EgfSeries(tuple(weight)) * EgfSeries(tuple(exponent)).exp()


def extract_descent_polynomial(b: EgfSeries, n: int) -> IntPolynomial:
    """Entry n of b, n! [z^n], as an integer polynomial in t."""
    if not 0 <= n <= b.order:
        raise DomainError(f"series truncated at z^{b.order}, cannot extract z^{n}")
    return IntPolynomial(b.coeffs[n])
