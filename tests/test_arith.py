"""Tests for digit expansions, valuations, and digit-sum fractions."""

import math
import pickle
from fractions import Fraction

import pytest

from berndenom.arith import (
    INFINITY,
    MILLER_RABIN_LIMIT,
    digit_expansion,
    digit_sum,
    frac_sum,
    frac_sum_digit,
    frac_sum_direct,
    fracsum_is_integer,
    is_prime,
    kummer_carries,
    lucas_binom_mod,
    ord_binomial,
    ord_factorial,
    ord_int,
    primes_up_to,
    witness_k,
)


def _factor_count(m: int, p: int) -> int:
    # independent oracle: count factors of the fully built integer
    v = 0
    while m and m % p == 0:
        v += 1
        m //= p
    return v


# --- digit expansions ---------------------------------------------------


def test_digit_expansion_examples():
    assert digit_expansion(10, 3).digits == (1, 0, 1)
    assert digit_expansion(0, 7).digits == ()
    assert digit_expansion(9, 5).digits == (4, 1)


def test_digit_expansion_reconstructs():
    # bases need not be prime here
    for p in (2, 3, 5, 7, 10, 16):
        for n in range(2000):
            e = digit_expansion(n, p)
            assert e.value == n
            assert all(0 <= d < p for d in e.digits)
            assert not e.digits or e.digits[-1] != 0
            if n:
                assert p ** (e.length - 1) <= n < p**e.length
            else:
                assert e.length == 0


def test_digit_sum_examples():
    assert digit_sum(9, 5) == 5
    for p in (3, 11):
        for n in range(p):
            assert digit_sum(n, p) == n
        for k in range(6):
            assert digit_sum(p**k, p) == 1


def test_digit_sum_matches_expansion():
    for p in (2, 5, 9):
        for n in range(1500):
            assert digit_sum(n, p) == digit_expansion(n, p).digit_sum


def test_digit_functions_reject_bad_input():
    with pytest.raises(ValueError):
        digit_expansion(5, 1)
    with pytest.raises(ValueError):
        digit_sum(5, 0)
    with pytest.raises(ValueError):
        digit_sum(-1, 3)
    with pytest.raises(ValueError):
        digit_expansion(-4, 5)


# --- valuations ---------------------------------------------------------


def test_ord_int_examples():
    assert ord_int(12, 2) == 2
    assert ord_int(-12, 3) == 1
    assert ord_int(7, 5) == 0
    assert ord_int(0, 3) is INFINITY


def test_infinity_ordering():
    assert INFINITY > 10**12
    assert not INFINITY < 10**12
    assert INFINITY >= INFINITY
    assert not INFINITY > INFINITY
    assert INFINITY == INFINITY
    assert INFINITY != 5
    assert min(3, INFINITY) == 3
    assert min(INFINITY, -1) == -1
    assert max(0, INFINITY) is INFINITY


def test_infinity_pickles_to_the_singleton():
    assert pickle.loads(pickle.dumps(INFINITY)) is INFINITY


def test_ord_factorial_examples():
    assert ord_factorial(10, 2) == 8
    for p in (2, 7, 13):
        assert ord_factorial(0, p) == 0
    # digit-sum form, checked from the outside
    assert (10 - digit_sum(10, 2)) // (2 - 1) == 8


def test_ord_factorial_against_factored_factorial():
    for p in (2, 3, 5, 7, 11):
        for n in range(121):
            assert ord_factorial(n, p) == _factor_count(math.factorial(n), p)


def test_ord_factorial_digit_sum_form():
    for p in (2, 3, 5, 7, 11, 97):
        for n in range(3000):
            assert ord_factorial(n, p) * (p - 1) == n - digit_sum(n, p)


def test_ord_functions_reject_composite_base():
    with pytest.raises(ValueError):
        ord_factorial(10, 4)
    with pytest.raises(ValueError):
        ord_int(10, 6)
    with pytest.raises(ValueError):
        frac_sum(10, 9)


@pytest.mark.parametrize("p", [1, 0])
def test_frac_sums_refuse_a_base_below_two(p):
    # p - 1 is a zero or negative denominator here; p must be refused first
    with pytest.raises(ValueError):
        frac_sum(5, p)
    with pytest.raises(ValueError):
        fracsum_is_integer(5, p)


# --- fractional-part sums ------------------------------------------------


def test_frac_sum_examples():
    assert frac_sum(9, 5) == Fraction(5, 4)
    assert frac_sum(3, 5) == Fraction(3, 4)
    for p in (2, 3, 7, 11):
        assert frac_sum(p - 1, p) == 1
        assert frac_sum(0, p) == 0


def test_frac_sum_three_forms_agree():
    for p in primes_up_to(31):
        for n in range(500):
            a = frac_sum(n, p)
            assert a == frac_sum_digit(n, p)
            assert a == frac_sum_direct(n, p)


def test_frac_sum_additivity():
    # value at a*p + r splits into values at a and r, for digits r < p
    for p in primes_up_to(50):
        low = [frac_sum(r, p) for r in range(p)]
        for a in range(501):
            fa = frac_sum(a, p)
            for r in range(p):
                assert frac_sum(a * p + r, p) == fa + low[r]


def test_frac_sum_digit_decomposition():
    for p in (2, 3, 5, 7, 13):
        for n in range(1500):
            parts = sum(frac_sum(d, p) for d in digit_expansion(n, p).digits)
            assert frac_sum(n, p) == parts


def test_fracsum_is_integer_examples():
    assert fracsum_is_integer(6, 3)
    assert not fracsum_is_integer(7, 3)
    for p in (2, 5, 11):
        assert fracsum_is_integer(0, p)


def test_fracsum_integrality_iff_divisibility():
    for p in primes_up_to(100):
        for n in range(10001):
            assert fracsum_is_integer(n, p) == (n % (p - 1) == 0)


def test_frac_sum_exceeds_one_iff_digit_sum_reaches_p():
    for p in primes_up_to(50):
        for n in range(3000):
            assert (frac_sum(n, p) > 1) == (digit_sum(n, p) >= p)


# --- binomial valuations --------------------------------------------------


def test_ord_binomial_examples():
    assert ord_binomial(7, 2, 3) == 1
    for p in (2, 5, 11):
        assert ord_binomial(20, 0, p) == 0
        assert ord_binomial(p, 1, p) == 1


def test_kummer_carries_examples():
    assert kummer_carries(7, 2, 3) == 1
    assert kummer_carries(15, 15, 7) == 0
    for p in (3, 5, 13):
        assert kummer_carries(p, 1, p) == 1


def test_lucas_examples():
    assert lucas_binom_mod(7, 2, 3) == 0
    assert lucas_binom_mod(4, 2, 3) == 0
    for p in (2, 7):
        assert lucas_binom_mod(29, 0, p) == 1


def test_binomial_valuation_three_routes_small():
    for p in (2, 3, 5, 7):
        for n in range(81):
            for k in range(n + 1):
                exact = _factor_count(math.comb(n, k), p)
                assert ord_binomial(n, k, p) == exact
                assert kummer_carries(n, k, p) == exact


def test_lucas_matches_comb_mod_and_carry_criterion():
    for p in (2, 3, 5, 7):
        for n in range(81):
            for k in range(n + 1):
                residue = lucas_binom_mod(n, k, p)
                assert residue == math.comb(n, k) % p
                assert (residue != 0) == (kummer_carries(n, k, p) == 0)


def test_binomial_args_validated():
    with pytest.raises(ValueError):
        ord_binomial(3, 5, 2)
    with pytest.raises(ValueError):
        kummer_carries(3, -1, 2)
    with pytest.raises(ValueError):
        lucas_binom_mod(4, 6, 3)
    with pytest.raises(ValueError):
        kummer_carries(7, 2, 4)


# --- witness construction --------------------------------------------------


def test_witness_examples():
    assert witness_k(9, 5) == 4
    assert witness_k(5, 3) == 2
    assert witness_k(4, 3) is None


def test_witness_contract():
    for n in range(2, 201):
        for p in primes_up_to(n):
            k = witness_k(n, p)
            if frac_sum(n, p) > 1:
                assert k is not None
                assert 0 < k < n
                assert k % (p - 1) == 0
                assert ord_binomial(n, k, p) == 0
                assert digit_sum(k, p) == p - 1
            else:
                assert k is None


def test_witness_absence_is_genuine():
    # where no witness is claimed, no multiple of p-1 avoids the prime
    for n in range(2, 121):
        for p in primes_up_to(n):
            if witness_k(n, p) is None:
                for k in range(p - 1, n, p - 1):
                    assert ord_binomial(n, k, p) >= 1


# --- primes -----------------------------------------------------------------


def test_primes_up_to_edges():
    assert primes_up_to(10) == [2, 3, 5, 7]
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]


def test_primes_up_to_against_trial_division():
    listed = set(primes_up_to(2000))
    for n in range(2001):
        assert (n in listed) == is_prime(n)


def test_is_prime_known_values():
    assert is_prime(2) and is_prime(3) and is_prime(311) and is_prime(7919)
    for n in (-7, 0, 1, 4, 9, 91, 7917):
        assert not is_prime(n)


def test_is_prime_agrees_with_the_sieve_below_ten_to_the_five():
    listed = set(primes_up_to(10**5))
    assert all(is_prime(m) == (m in listed) for m in range(10**5))


def test_is_prime_above_the_trial_division_range():
    # 3215031751 is a strong pseudoprime to bases 2, 3, 5 and 7, and
    # 318665857834031151167461 the least one to the first twelve prime bases,
    # which only the thirteenth base (41) exposes
    for m in (3215031751, 318665857834031151167461, (2**61 - 1) * (2**17 - 1)):
        assert not is_prime(m)
    assert is_prime(2**61 - 1) and is_prime(10**24 + 7)
    # across the switch from trial division, against division by every prime
    # up to the square root
    divisors = primes_up_to(10**4 + 100)
    for m in range(10**8 - 500, 10**8 + 500):
        assert is_prime(m) == all(m % q for q in divisors if q * q <= m)


def test_is_prime_refuses_beyond_the_deterministic_range():
    # the bound is itself a strong pseudoprime to the first thirteen prime
    # bases, so the test must refuse it rather than call it prime
    for m in (MILLER_RABIN_LIMIT, MILLER_RABIN_LIMIT + 1, 10**30):
        with pytest.raises(ValueError, match="not decided"):
            is_prime(m)
