"""Exact Bernoulli numbers and polynomials, plus two routes to the denominator
of the Bernoulli polynomial without constant term.

The brute-force route reads the polynomial's content, the gcd of its reduced
coefficient numerators over the lcm of their denominators, off the reduced
Bernoulli numbers without building the polynomial; the formula route
multiplies the primes p whose base-p digit sum of n reaches p. Both are
exposed so each can serve as the other's oracle.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb, gcd, lcm, prod

from .arith import _ord_abs, digit_sum, ensure_prime, primes_up_to

__all__ = [
    "DEFAULT_BERNOULLI_CAP",
    "FORMULA_SIEVE_LIMIT",
    "DenominatorFactorization",
    "RationalPolynomial",
    "bernoulli_number",
    "bernoulli_numbers",
    "bernoulli_poly_no_constant",
    "clausen_denominator",
    "denom_formula",
    "denominator_has_prime",
    "ord_poly",
    "poly_denominator",
    "prime_search_bound",
]

# Refusal threshold for table extension, the one cap for every caller that
# builds the table (bernoulli, denom --method oracle|both and the suites); a
# guard against runaway time and memory, not a silent truncation. Growth is
# roughly cubic in the cap (README gives the measured time at the cap).
DEFAULT_BERNOULLI_CAP = 5000

# Largest prime sieve denom_formula runs, until an O(sqrt n) route replaces the
# sieve to (n+1)/2; time and memory grow about linearly with it (README gives
# the measured cost at the limit), and larger n are refused up front.
FORMULA_SIEVE_LIMIT = 10**8

_BERNOULLI: list[Fraction] = [Fraction(1)]

# Row len(_BERNOULLI) - 1 of the Seidel-Entringer boustrophedon: its last entry
# is the zigzag number E_(len(_BERNOULLI) - 1), the next one the table needs.
_ZIGZAG_ROW: list[int] = [1]


def _extend_bernoulli(n: int) -> None:
    # Brent & Harvey's identity B_m = (-1)^(m/2-1) m T_(m/2) / (2^m (2^m - 1))
    # for even m >= 2, with the tangent number T_(m/2) taken as the odd zigzag
    # number E_(m-1). Integers only, and no digit sums or von Staudt-Clausen,
    # so this route stays independent of the formula route. Entries are only
    # appended and never read back here, so an entry changed in place stays
    # changed and does not leak into later ones (criterion 10 relies on that).
    row = _ZIGZAG_ROW
    while len(_BERNOULLI) <= n:
        m = len(_BERNOULLI)
        if m == 1:
            _BERNOULLI.append(Fraction(-1, 2))
        elif m % 2:
            _BERNOULLI.append(Fraction(0))
        else:
            sign = 1 if m % 4 == 2 else -1
            _BERNOULLI.append(Fraction(sign * m * row[-1], (1 << m) * ((1 << m) - 1)))
        # advance to row m in place: E(m, k) = E(m, k-1) + E(m-1, m-k)
        row.append(0)
        row.reverse()
        for k in range(1, m + 1):
            row[k] += row[k - 1]


def bernoulli_number(n: int) -> Fraction:
    """The n-th Bernoulli number as an exact fraction, with B_1 = -1/2."""
    if n < 0:
        raise ValueError(f"index must be non-negative, got {n}")
    if n > DEFAULT_BERNOULLI_CAP:
        raise ValueError(f"index {n} exceeds the table cap {DEFAULT_BERNOULLI_CAP}")
    _extend_bernoulli(n)
    return _BERNOULLI[n]


def bernoulli_numbers(n_max: int) -> list[Fraction]:
    """The table B_0 .. B_n_max as exact fractions (copied out of the memo)."""
    bernoulli_number(n_max)
    return _BERNOULLI[: n_max + 1]


class RationalPolynomial(namedtuple("RationalPolynomial", "coeffs")):
    """Dense exact-rational coefficients, index = power of x."""

    __slots__ = ()


def bernoulli_poly_no_constant(n: int) -> RationalPolynomial:
    """B_n(x) - B_n = sum(C(n,k) B_k x^(n-k), k=0..n-1), the degree-n
    Bernoulli polynomial with its constant term removed; n >= 1.

    n = 0 would give the zero polynomial and is rejected.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    # read to index n, so that the cap refuses n itself; the list is a copy,
    # so the constant term C(n, n) B_n is zeroed without touching the memo
    table = bernoulli_numbers(n)
    table[n] = Fraction(0)
    # every odd B_k past B_1 is zero, so half the products can be skipped;
    # each entry is still read, so a corrupted one reaches the polynomial
    coeffs = [comb(n, k) * b if b else b for k, b in enumerate(table)]
    return RationalPolynomial(tuple(reversed(coeffs)))


def _content_no_constant(n: int) -> tuple[int, int]:
    # (num, denom): the gcd of the reduced coefficient numerators of
    # bernoulli_poly_no_constant(n) and the lcm of their denominators, without
    # the polynomial. With B_k = N/D in lowest terms and g = gcd(C(n,k), D),
    # C(n,k) B_k is (C(n,k)/g) N / (D/g) in lowest terms; num is updated only
    # while it is not 1, and B_0 = 1 makes it 1 at k = 0. A reduced fraction
    # has p in at most one of its numerator and denominator, so num and denom
    # are coprime, ord_poly's value is ord_p(num) - ord_p(denom), and num is 0
    # only for the zero polynomial. Reads every entry to index n, as the
    # polynomial does, so the cap refuses n and a corrupted entry reaches the
    # result; no digit sums or von Staudt-Clausen.
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    table = bernoulli_numbers(n)
    num = 0
    denom = c = 1
    for k in range(n):
        b = table[k]
        d = b.denominator
        if num != 1:
            num = gcd(num, c // gcd(c, d) * b.numerator)
        if d > 1:
            denom = lcm(denom, d // gcd(c, d))
        c = c * (n - k) // (k + 1)
    return num, denom


def poly_denominator(f: RationalPolynomial) -> int:
    """Lcm of the reduced coefficient denominators; 1 for the zero polynomial."""
    return lcm(*(c.denominator for c in f.coeffs))


def ord_poly(f: RationalPolynomial, p: int) -> int:
    """Minimum p-adic valuation over the nonzero coefficients.

    Raises ValueError for the zero polynomial, which has no finite valuation.
    """
    ensure_prime(p)
    valuations = [
        _ord_abs(c.numerator, p) - _ord_abs(c.denominator, p) for c in f.coeffs if c
    ]
    if not valuations:
        raise ValueError("the zero polynomial has no finite valuation")
    return min(valuations)


def clausen_denominator(n: int) -> int:
    """Denominator of B_n for even n >= 2: the product of primes p with
    p - 1 dividing n."""
    if n < 2 or n % 2:
        raise ValueError(f"defined for even n >= 2, got {n}")
    return prod(p for p in primes_up_to(n + 1) if n % (p - 1) == 0)


def prime_search_bound(n: int) -> int:
    """Largest prime that can divide the constant-free denominator:
    (n+1)/2 for odd n, (n+1)/3 for even n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return (n + 1) // (2 if n % 2 else 3)


class DenominatorFactorization(namedtuple("DenominatorFactorization", "n primes product")):
    """Squarefree factorization of the constant-free Bernoulli denominator."""

    __slots__ = ()


def denom_formula(n: int) -> DenominatorFactorization:
    """denom of the constant-free Bernoulli polynomial, as the product of all
    primes p with digit_sum(n, p) >= p.

    The search stops at prime_search_bound(n), past which no prime can
    qualify. A bound above FORMULA_SIEVE_LIMIT is refused before anything is
    allocated.
    """
    bound = prime_search_bound(n)
    if bound > FORMULA_SIEVE_LIMIT:
        raise ValueError(
            f"n = {n} needs a prime sieve to {bound}, above the limit "
            f"{FORMULA_SIEVE_LIMIT}"
        )
    primes = tuple(p for p in primes_up_to(bound) if digit_sum(n, p) >= p)
    return DenominatorFactorization(n=n, primes=primes, product=prod(primes))


def denominator_has_prime(n: int, p: int) -> bool:
    """Whether p divides the constant-free Bernoulli denominator for n,
    decided by the digit-sum rule alone (no polynomial is built)."""
    ensure_prime(p)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return digit_sum(n, p) >= p
