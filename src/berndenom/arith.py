"""Exact base-p digit arithmetic on single inputs: digit sums, factorial and
binomial valuations, digit-sum fractions, witnesses and primes.

Everything here is computed over arbitrary-precision integers and
`fractions.Fraction`; no floating point is used in this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, isqrt, prod

__all__ = [
    "MILLER_RABIN_LIMIT",
    "digit_sum",
    "ensure_prime",
    "frac_sum",
    "frac_sum_digit",
    "frac_sum_direct",
    "is_prime",
    "kummer_carries",
    "lucas_binom_mod",
    "ord_binomial",
    "ord_factorial",
    "primes_up_to",
    "witness_k",
]


# Miller-Rabin with the first thirteen primes as bases is deterministic below
# MILLER_RABIN_LIMIT, the least strong pseudoprime to all of them (Sorenson &
# Webster 2017; the first twelve bases alone stop at 318665857834031151167461),
# and larger n are refused.
MILLER_RABIN_LIMIT = 3_317_044_064_679_887_385_961_981
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_BASES_PRODUCT = prod(_MILLER_RABIN_BASES)


def is_prime(n: int) -> bool:
    """Deterministic primality test: Miller-Rabin with the first thirteen
    primes as bases below MILLER_RABIN_LIMIT, and a ValueError at or above
    that."""
    if n >= MILLER_RABIN_LIMIT:
        raise ValueError(
            f"primality of {n} is not decided: the deterministic test covers "
            f"n < {MILLER_RABIN_LIMIT}"
        )
    if n < 2:
        return False
    # n sharing a factor with a base is prime only as that base; past this
    # screen every base is a unit mod n, and an n below 43^2 with no prime
    # factor up to 41 is prime
    if gcd(n, _BASES_PRODUCT) != 1:
        return n in _MILLER_RABIN_BASES
    if n < 43 * 43:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def ensure_prime(p: int) -> None:
    """Raise ValueError unless p is prime."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def _check_natural(n: int) -> None:
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {n}")


def digit_sum(n: int, p: int) -> int:
    """Sum of the base-p digits of n; equals n itself when n < p."""
    if p < 2:
        raise ValueError(f"base must be at least 2, got {p}")
    _check_natural(n)
    total = 0
    while n:
        n, d = divmod(n, p)
        total += d
    return total


def _ord_abs(n: int, p: int) -> int:
    # nonzero n assumed; callers validate p
    n = abs(n)
    v = 0
    while n % p == 0:
        v += 1
        n //= p
    return v


def ord_factorial(n: int, p: int) -> int:
    """Exponent of the prime p in n!, as the sum of floor(n / p^nu)."""
    ensure_prime(p)
    _check_natural(n)
    return _legendre(n, p)


def _legendre(n: int, p: int) -> int:
    # n >= 0 and prime p assumed; callers validate
    total = 0
    while n:
        n //= p
        total += n
    return total


def frac_sum(n: int, p: int) -> Fraction:
    """Exact sum of the fractional parts of n/p^nu over all nu >= 1.

    Computed as n/(p-1) - ord_factorial(n, p).
    """
    # ord_factorial validates p before p - 1 becomes a denominator
    valuation = ord_factorial(n, p)
    return Fraction(n, p - 1) - valuation


def frac_sum_digit(n: int, p: int) -> Fraction:
    """The same fractional-part sum via digit_sum(n, p) / (p - 1)."""
    ensure_prime(p)
    return Fraction(digit_sum(n, p), p - 1)


def frac_sum_direct(n: int, p: int) -> Fraction:
    """The same sum split into a finite fractional-part sum plus geometric tail.

    With p^ell <= n < p^(ell+1), this is
    n / (p^ell (p - 1)) + sum over nu = 1..ell of the fractional part of n/p^nu.
    """
    ensure_prime(p)
    _check_natural(n)
    top = 1
    while top * p <= n:
        top *= p
    total = Fraction(n, top * (p - 1))
    q = p
    while q <= top:
        total += Fraction(n % q, q)
        q *= p
    return total


def _check_binom_args(n: int, k: int) -> None:
    if k < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")


def ord_binomial(n: int, k: int, p: int) -> int:
    """Exponent of the prime p in C(n, k), via factorial valuations.

    Runs in O(log n) divisions; never factors the binomial coefficient itself.
    """
    _check_binom_args(n, k)
    ensure_prime(p)
    return _legendre(n, p) - _legendre(k, p) - _legendre(n - k, p)


def kummer_carries(n: int, k: int, p: int) -> int:
    """Number of carries when adding k and n - k in base p.

    Equals ord_binomial(n, k, p).
    """
    _check_binom_args(n, k)
    ensure_prime(p)
    a, b = k, n - k
    carries = carry = 0
    while a or b or carry:
        carry = (a % p + b % p + carry) // p
        carries += carry
        a //= p
        b //= p
    return carries


def lucas_binom_mod(n: int, k: int, p: int) -> int:
    """C(n, k) mod p as the product of digitwise binomial coefficients.

    Nonzero exactly when no base-p carry occurs, i.e. kummer_carries is 0.
    """
    _check_binom_args(n, k)
    ensure_prime(p)
    result = 1
    while n or k:
        nd, kd = n % p, k % p
        if kd > nd:
            return 0
        result = result * comb(nd, kd) % p
        n //= p
        k //= p
    return result


def witness_k(n: int, p: int) -> int | None:
    """A k with 0 < k < n, p - 1 dividing k, and p coprime to C(n, k).

    Such a k exists exactly when the fractional-part sum for (n, p) exceeds 1,
    i.e. when digit_sum(n, p) >= p; in that case the digits of k are chosen
    greedily from the least significant position, spending a digit-sum budget
    of p - 1, which makes the result deterministic. Returns None otherwise.
    """
    ensure_prime(p)
    _check_natural(n)
    if digit_sum(n, p) < p:
        return None
    budget = p - 1
    k = 0
    power = 1
    m = n
    while budget:
        d = min(m % p, budget)
        k += d * power
        budget -= d
        power *= p
        m //= p
    return k


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, by a sieve of Eratosthenes."""
    if limit < 2:
        return []
    sieve = bytearray(b"\x01") * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(range(i * i, limit + 1, i))
    return [i for i, flag in enumerate(sieve) if flag]
