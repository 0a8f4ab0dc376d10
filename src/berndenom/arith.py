"""Exact base-p digit arithmetic: expansions, valuations, and digit-sum fractions.

Everything here is computed over arbitrary-precision integers and
`fractions.Fraction`; no floating point is used in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt

__all__ = [
    "INFINITY",
    "MILLER_RABIN_LIMIT",
    "DigitExpansion",
    "Valuation",
    "digit_expansion",
    "digit_sum",
    "ensure_prime",
    "frac_sum",
    "frac_sum_digit",
    "frac_sum_direct",
    "fracsum_is_integer",
    "is_prime",
    "kummer_carries",
    "lucas_binom_mod",
    "ord_binomial",
    "ord_factorial",
    "ord_int",
    "primes_up_to",
    "witness_k",
]


class _PlusInfinity:
    """Singleton ordered above every integer; the valuation of zero."""

    __slots__ = ()

    def __lt__(self, other: object) -> bool:
        return False

    def __le__(self, other: object) -> bool:
        return other is self

    def __gt__(self, other: object) -> bool:
        return other is not self

    def __ge__(self, other: object) -> bool:
        return True

    def __repr__(self) -> str:
        return "INFINITY"

    def __reduce__(self):
        return (_restore_infinity, ())


INFINITY = _PlusInfinity()

Valuation = int | _PlusInfinity


def _restore_infinity() -> _PlusInfinity:
    return INFINITY


# Trial division below this bound costs at most 10^4 steps. Above it,
# Miller-Rabin with the first thirteen primes as bases is deterministic below
# MILLER_RABIN_LIMIT, the least strong pseudoprime to all of them (Sorenson &
# Webster 2017; the first twelve bases alone stop at 318665857834031151167461),
# and larger n are refused.
TRIAL_DIVISION_LIMIT = 10**8
MILLER_RABIN_LIMIT = 3_317_044_064_679_887_385_961_981
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic primality test: trial division below
    TRIAL_DIVISION_LIMIT, Miller-Rabin below MILLER_RABIN_LIMIT, and a
    ValueError at or above that."""
    if n < 4:
        return n > 1
    if n >= TRIAL_DIVISION_LIMIT:
        return _miller_rabin(n)
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def _miller_rabin(n: int) -> bool:
    # n >= TRIAL_DIVISION_LIMIT, so every base is a unit mod odd n
    if n >= MILLER_RABIN_LIMIT:
        raise ValueError(
            f"primality of {n} is not decided: the deterministic test covers "
            f"n < {MILLER_RABIN_LIMIT}"
        )
    if n % 2 == 0:
        return False
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


def _check_base(p: int) -> None:
    if p < 2:
        raise ValueError(f"base must be at least 2, got {p}")


def _check_natural(n: int) -> None:
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {n}")


@dataclass(frozen=True)
class DigitExpansion:
    """Little-endian digits of a natural number in a fixed base; zero is empty."""

    base: int
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_base(self.base)
        if any(not 0 <= d < self.base for d in self.digits):
            raise ValueError("every digit must satisfy 0 <= d < base")
        if self.digits and self.digits[-1] == 0:
            raise ValueError("highest stored digit must be nonzero")

    @property
    def length(self) -> int:
        return len(self.digits)

    @property
    def digit_sum(self) -> int:
        return sum(self.digits)

    @property
    def value(self) -> int:
        n = 0
        for d in reversed(self.digits):
            n = n * self.base + d
        return n


def digit_expansion(n: int, p: int) -> DigitExpansion:
    """Expand n in base p, least significant digit first.

    The base must be at least 2 but need not be prime; primality is the
    caller's concern where it matters.
    """
    _check_base(p)
    _check_natural(n)
    digits = []
    while n:
        n, d = divmod(n, p)
        digits.append(d)
    return DigitExpansion(p, tuple(digits))


def digit_sum(n: int, p: int) -> int:
    """Sum of the base-p digits of n; equals n itself when n < p."""
    _check_base(p)
    _check_natural(n)
    total = 0
    while n:
        n, d = divmod(n, p)
        total += d
    return total


def ord_int(n: int, p: int) -> Valuation:
    """Exponent of the prime p in n; INFINITY for n = 0."""
    ensure_prime(p)
    if n == 0:
        return INFINITY
    return _ord_abs(n, p)


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
    total = 0
    q = n
    while q:
        q //= p
        total += q
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
    if n == 0:
        return Fraction(0)
    top = 1
    while top * p <= n:
        top *= p
    total = Fraction(n, top * (p - 1))
    q = p
    while q <= top:
        total += Fraction(n % q, q)
        q *= p
    return total


def fracsum_is_integer(n: int, p: int) -> bool:
    """Whether the fractional-part sum for (n, p) is a whole number.

    Holds exactly when p - 1 divides n.
    """
    return frac_sum(n, p).denominator == 1


def _check_binom_args(n: int, k: int) -> None:
    if k < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")


def ord_binomial(n: int, k: int, p: int) -> int:
    """Exponent of the prime p in C(n, k), via factorial valuations.

    Runs in O(log n) divisions; never factors the binomial coefficient itself.
    """
    _check_binom_args(n, k)
    return ord_factorial(n, p) - ord_factorial(k, p) - ord_factorial(n - k, p)


def kummer_carries(n: int, k: int, p: int) -> int:
    """Number of carries when adding k and n - k in base p.

    Equals ord_binomial(n, k, p).
    """
    ensure_prime(p)
    _check_binom_args(n, k)
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
    ensure_prime(p)
    _check_binom_args(n, k)
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
