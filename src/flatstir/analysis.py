"""Descent polynomials and exploratory checks on them.

The brute-force descent polynomial is the run tally of
`counting.run_distribution_bruteforce` shifted down by one (runs =
descents + 1); `conjecture_report` reads its polynomials off the descent
EGF instead.  Unimodality holds in every case checked; real-rootedness
fails from order 27, 41 and 54 for k = 2, 3 and 4 (order 26, 40 and 53 are
real-rooted).  The real-rootedness test is an exact decision procedure,
never a numeric root finder: by Sturm's theorem p is real-rooted iff its
integer Sturm chain drops one degree per member and keeps the sign of
lc(p) in every leading coefficient, so the test walks the chain and stops
at the first member that breaks this.
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

    Walks the Sturm chain of p over the integers: p, p', then each negated
    pseudo-remainder divided by its positive content, a positive multiple
    of the classical member.  p is real-rooted iff every member after p'
    has degree exactly one below the member before it and a leading
    coefficient of the sign of lc(p).  Why: the chain ends at gcd(p, p')
    of degree e, so p has d - e distinct roots (d = deg p) and the chain
    at most d - e + 1 members.  Sturm counts the distinct real roots as
    V(-inf) - V(+inf), the chain's sign variations at either end, and that
    reaches d - e only when every degree drops by one and V(+inf) = 0.
    So the walk keeps two members, returns False at the first that breaks
    the rule, and True when a pseudo-remainder vanishes.  Constants (no
    roots) decide True.
    """
    if not p.coeffs:
        raise DomainError("the zero polynomial has no root multiset to decide")
    if p.degree == 0:
        return True
    positive = p.coeffs[-1] > 0
    a = list(p.coeffs)
    b = [i * c for i, c in enumerate(a)][1:]
    while rem := _pseudo_remainder(a, b):
        # the next member is -rem / content: its lc has the sign of -rem[-1]
        if len(rem) != len(b) - 1 or (rem[-1] > 0) == positive:
            return False
        content = gcd(*rem)
        a, b = b, [-c // content for c in rem]
    return True


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

