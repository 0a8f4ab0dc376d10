"""Tests for digit sums, valuations, and digit-sum fractions."""

import math
import random
from fractions import Fraction

import pytest

from berndenom import arith, verify
from berndenom.arith import (
    MILLER_RABIN_LIMIT,
    digit_sum,
    frac_sum,
    frac_sum_digit,
    frac_sum_direct,
    is_prime,
    kummer_carries,
    lucas_binom_mod,
    ord_binomial,
    ord_factorial,
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


def _digits(n: int, base: int) -> list[int]:
    # independent oracle: the digits of n in the given base, least significant first
    digits = []
    while n:
        n, d = divmod(n, base)
        digits.append(d)
    return digits


# --- digit sums ------------------------------------------------------------


def test_digit_sum_examples():
    assert digit_sum(9, 5) == 5
    for p in (3, 11):
        for n in range(p):
            assert digit_sum(n, p) == n
        for k in range(6):
            assert digit_sum(p**k, p) == 1


def test_digit_sum_matches_expansion():
    # Legendre's form for prime bases, the digits themselves for any base
    for p in (2, 5):
        for n in range(1500):
            assert digit_sum(n, p) == n - (p - 1) * ord_factorial(n, p)
    for base in (9, 10, 16):
        for n in range(1500):
            assert digit_sum(n, base) == sum(_digits(n, base))


def test_digit_functions_reject_bad_input():
    for base in (1, 0):
        with pytest.raises(ValueError, match=f"base must be at least 2, got {base}"):
            digit_sum(5, base)
    with pytest.raises(ValueError):
        digit_sum(-1, 3)


# --- valuations ---------------------------------------------------------


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
        frac_sum(10, 9)


@pytest.mark.parametrize("p", [1, 0])
def test_frac_sums_refuse_a_base_below_two(p):
    # p - 1 is a zero or negative denominator here; p must be refused first
    with pytest.raises(ValueError):
        frac_sum(5, p)


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
            parts = sum(frac_sum(d, p) for d in _digits(n, p))
            assert frac_sum(n, p) == parts


def test_fracsum_integrality_iff_divisibility():
    for p in primes_up_to(100):
        for n in range(10001):
            assert (frac_sum(n, p).denominator == 1) == (n % (p - 1) == 0)


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


def test_binomial_kernels_at_large_seeded_inputs():
    # the sweeps reach only n <= 1000; here n runs up to 10^30, with
    # magnitudes spread from 10^0 to 10^30. Legendre's sums and Pascal's rule
    # are the oracles at every size, the factored big integer wherever it is
    # cheap to build
    rng = random.Random(20170613)
    small = outcomes = 0
    for p in (2, 3, 5, 7, 97, 9973):
        for _ in range(200):
            n = rng.randrange(10 ** rng.randint(0, 30) + 1)
            if rng.randrange(2):
                k = rng.randrange(n + 1)
            else:
                # digitwise below n, so no carry: a random k almost always
                # carries once n is large, and then C(n, k) mod p is just 0
                k = sum(rng.randint(0, d) * p**i for i, d in enumerate(_digits(n, p)))
            carries = kummer_carries(n, k, p)
            residue = lucas_binom_mod(n, k, p)
            assert ord_binomial(n, k, p) == carries
            assert (residue != 0) == (carries == 0)
            if 0 < k < n:
                pascal = lucas_binom_mod(n - 1, k - 1, p) + lucas_binom_mod(n - 1, k, p)
                assert residue == pascal % p
            outcomes |= 1 << (carries == 0)
            if n <= 2000:
                small += 1
                c = math.comb(n, k)
                assert carries == _factor_count(c, p)
                assert residue == c % p
    assert small >= 100 and outcomes == 3


def _carries_with_carry_in(a: int, b: int, p: int, carry: int) -> int:
    # independent oracle: the carries out of each base-p digit when adding a,
    # b and an initial carry-in
    carries = 0
    while a or b or carry:
        carry = (a % p + b % p + carry) // p
        carries += carry
        a //= p
        b //= p
    return carries


@pytest.mark.parametrize("p", sorted(set(verify.VALUATION_PRIMES) | {17, 97}))
def test_digit_recurrence_tables_match_the_digit_loops(p):
    # the binom sweep reads its carry counts and Lucas residues off these
    # tables; every entry equals the public digit loop, and every row is bytes
    carry, lucas = verify._carry_rows(300, p), verify._lucas_rows(300, p)
    assert len(carry[0]) == len(carry[1]) == len(lucas) == 301
    assert all(type(row) is bytes for row in (*carry[0], *carry[1], *lucas))
    for m in range(301):
        assert len(carry[0][m]) == len(lucas[m]) == m + 1 and len(carry[1][m]) == m
        for j in range(m + 1):
            assert carry[0][m][j] == kummer_carries(m, j, p)
            assert lucas[m][j] == lucas_binom_mod(m, j, p)
        for j in range(m):
            assert carry[1][m][j] == _carries_with_carry_in(j, m - j - 1, p, 1)
    # below p every number is one digit: no carries, and C(m, j) mod p itself
    for limit in (0, 1, p - 1):
        carry, lucas = verify._carry_rows(limit, p), verify._lucas_rows(limit, p)
        assert [list(row) for row in carry[0]] == [[0] * (m + 1) for m in range(limit + 1)]
        assert [list(row) for row in carry[1]] == [[0] * m for m in range(limit + 1)]
        assert [list(row) for row in lucas] == [
            [math.comb(m, j) % p for j in range(m + 1)] for m in range(limit + 1)
        ]


def test_binomial_args_validated():
    with pytest.raises(ValueError):
        ord_binomial(3, 5, 2)
    with pytest.raises(ValueError):
        kummer_carries(3, -1, 2)
    with pytest.raises(ValueError):
        lucas_binom_mod(4, 6, 3)
    with pytest.raises(ValueError):
        kummer_carries(7, 2, 4)


@pytest.mark.parametrize(
    "func, args, message",
    [
        (ord_binomial, (10, 3, 4), "p must be prime, got 4"),
        (ord_binomial, (10, 3, 1), "p must be prime, got 1"),
        (ord_binomial, (10, -1, 3), "need 0 <= k <= n, got k=-1, n=10"),
        (ord_binomial, (10, 11, 3), "need 0 <= k <= n, got k=11, n=10"),
        (ord_binomial, (-1, 0, 3), "need 0 <= k <= n, got k=0, n=-1"),
        (ord_binomial, (-2, -3, 3), "need 0 <= k <= n, got k=-3, n=-2"),
        (ord_binomial, (10, 11, 4), "need 0 <= k <= n, got k=11, n=10"),
        (ord_factorial, (10, 9), "p must be prime, got 9"),
        (ord_factorial, (-1, 3), "expected a non-negative integer, got -1"),
        (ord_factorial, (-1, 4), "p must be prime, got 4"),
        (kummer_carries, (10, 11, 4), "need 0 <= k <= n, got k=11, n=10"),
        (lucas_binom_mod, (10, 11, 4), "need 0 <= k <= n, got k=11, n=10"),
        (kummer_carries, (10, 3, 4), "p must be prime, got 4"),
        (lucas_binom_mod, (10, 3, 4), "p must be prime, got 4"),
    ],
)
def test_valuations_check_their_inputs(func, args, message):
    # the three binomials check (n, k) before p, the factorial p before n
    with pytest.raises(ValueError) as info:
        func(*args)
    assert str(info.value) == message


def test_ord_binomial_checks_p_once(monkeypatch):
    calls = []
    monkeypatch.setattr(arith, "ensure_prime", lambda p: calls.append(p))
    assert ord_binomial(10, 3, 7) == 0
    assert ord_binomial(10, 4, 2) == 1
    assert calls == [7, 2]


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
    # Miller-Rabin decides every n from 43^2 on. Strong pseudoprimes to the
    # first prime bases: 2047 to the first one, 1373653 to two, 25326001 to
    # three, 3215031751 to four, 3825123056546413051 to eleven, and
    # 318665857834031151167461, the least one to the first twelve, which only
    # the thirteenth base (41) exposes. 561, 41041 and 825265 are Carmichael
    # numbers; 41^2 is caught by the screen against the bases and 43^2, the
    # least n it passes that is not prime, by Miller-Rabin
    composites = (
        3215031751, 318665857834031151167461, (2**61 - 1) * (2**17 - 1),
        2047, 1373653, 25326001, 3825123056546413051,
        561, 41041, 825265,
        1681, 1849,
    )
    for m in composites:
        assert not is_prime(m)
    assert is_prime(2**61 - 1) and is_prime(10**24 + 7)
    # a band around 10^8, against division by every prime up to the square
    # root
    divisors = primes_up_to(10**4 + 100)
    for m in range(10**8 - 500, 10**8 + 500):
        assert is_prime(m) == all(m % q for q in divisors if q * q <= m)


def test_is_prime_refuses_beyond_the_deterministic_range():
    # the bound is itself a strong pseudoprime to the first thirteen prime
    # bases, so the test must refuse it rather than call it prime
    for m in (MILLER_RABIN_LIMIT, MILLER_RABIN_LIMIT + 1, 10**30):
        with pytest.raises(ValueError, match="not decided"):
            is_prime(m)
