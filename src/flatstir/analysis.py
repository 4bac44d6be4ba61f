"""Descent polynomials and exploratory checks on them.

The brute-force descent polynomial is the run tally of
`counting.run_distribution_bruteforce` shifted down by one (runs =
descents + 1); `conjecture_report` reads its polynomials off the descent
EGF instead.  Unimodality holds in every case checked; real-rootedness
fails from order 27, 41 and 54 for k = 2, 3 and 4 (order 26, 40 and 53 are
real-rooted).  The real-rootedness test is an exact decision procedure (a
Sturm chain over the integers, its signs read at plus and minus infinity),
never a numeric root finder.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .counting import DEFAULT_BUDGET, run_distribution_bruteforce
from .errors import DomainError
from .series import IntPolynomial, descent_egf, extract_descent_polynomial


def descent_polynomial_bruteforce(
    n: int, k: int, *, budget: int | None = DEFAULT_BUDGET
) -> IntPolynomial:
    """Sum of t^descents over the flattened words of order n.

    Runs = descents + 1, so this is the run tally read from t^0 up.
    """
    return IntPolynomial(run_distribution_bruteforce(n, k, budget=budget).run_refined)


def is_unimodal(p: IntPolynomial) -> bool:
    """True iff the coefficients weakly rise then weakly fall.

    The zero polynomial counts as unimodal (vacuous case).
    """
    c = p.coeffs
    i = 0
    while i + 1 < len(c) and c[i] <= c[i + 1]:
        i += 1
    while i + 1 < len(c) and c[i] >= c[i + 1]:
        i += 1
    return i + 1 >= len(c)


def is_real_rooted(p: IntPolynomial) -> bool:
    """Exact decision: are all complex roots of p real?

    Builds the Sturm chain of p itself over the integers.  Its last member
    is gcd(p, p') up to a positive factor, so p has deg p - deg(last)
    distinct roots; the sign variations of the chain at -infinity and
    +infinity, read from leading coefficients and degree parity, count the
    real ones among them.  Constants (no roots) decide True.
    """
    if not p.coeffs:
        raise DomainError("the zero polynomial has no root multiset to decide")
    if p.degree == 0:
        return True
    chain = _sturm_chain(list(p.coeffs))
    at_plus = [1 if q[-1] > 0 else -1 for q in chain]
    at_minus = [s if len(q) % 2 else -s for s, q in zip(at_plus, chain)]
    distinct = p.degree - (len(chain[-1]) - 1)
    return _sign_variations(at_minus) - _sign_variations(at_plus) == distinct


class ConjectureRow(NamedTuple):
    """One polynomial's verdicts for the evidence report."""

    n: int
    k: int
    coefficients: tuple[int, ...]
    unimodal: bool
    real_rooted: bool


def conjecture_report(k: int, max_n: int) -> list[ConjectureRow]:
    """Unimodal / real-rooted verdicts for orders 1..max_n (series route)."""
    egf = descent_egf(k, max_n - 1)
    rows = []
    for n in range(1, max_n + 1):
        poly = extract_descent_polynomial(egf, n - 1)
        rows.append(
            ConjectureRow(n, k, poly.coeffs, is_unimodal(poly), is_real_rooted(poly))
        )
    return rows


# -- integer Sturm chain (ascending coefficients) --


def _sturm_chain(p: list[int]) -> list[list[int]]:
    """p, p', then negated pseudo-remainders divided by their positive content.

    Every member is a positive multiple of the classical Sturm member, so
    every sign is kept; the last one is gcd(p, p') up to a positive factor.
    """
    chain = [p, [i * c for i, c in enumerate(p)][1:]]
    while True:
        rem = _pseudo_remainder(chain[-2], chain[-1])
        if not rem:
            return chain
        content = gcd(*rem)
        chain.append([-c // content for c in rem])


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """The remainder of |lc(b)|^(deg a - deg b + 1) * a divided by b."""
    scale = abs(b[-1])
    sign = 1 if b[-1] > 0 else -1
    rem = list(a)
    for shift in range(len(a) - len(b), -1, -1):
        top = sign * rem.pop()  # the coefficient of t^(shift + deg b)
        rem = [scale * c for c in rem]
        for i, c in enumerate(b[:-1]):
            rem[shift + i] -= top * c
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def _sign_variations(signs: list[int]) -> int:
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)
