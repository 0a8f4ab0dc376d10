"""Exhaustive desk-scale verification suites with machine-readable reports.

Each suite sweeps a finite parameter range, records every failing case with
its witness values, and can be sharded over processes. A sweep visits
n = n_lo, n_lo + step, ... up to n_hi; the sharded runner gives each shard one
residue class of n and rebuilds the serial report from the parts, so the
report is the same for every degree of parallelism.
"""

from __future__ import annotations

import functools
import math
import os
import time
from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction

from .arith import (
    _carry_rows,
    _legendre,
    _lucas_rows,
    _ord_abs,
    digit_sum,
    ensure_prime,
    primes_up_to,
)
from .bernoulli import _content_no_constant, prime_search_bound

__all__ = [
    "DEFAULT_K_CAP",
    "SUITE_NAMES",
    "VERIFY_MAX_N",
    "PowerScanResult",
    "VerificationReport",
    "is_power_of",
    "power_scan",
    "run_suite",
    "stewart_bound",
    "verify_binomial_valuations",
    "verify_correspondence",
    "verify_prime_bound",
    "verify_squarefree",
]

DEFAULT_K_CAP = 64

# Largest bit length a scanned power n^k may have; a scan that reaches a
# longer power is refused before taking its digit sums, and an n that is
# longer already before any work. digit_sum is quadratic in the length of its
# input and a scan takes one per pending prime at each power, so a scan costs
# up to about the cube of this for each listed prime.
SCAN_MAX_BITS = 8192

# Largest n_max run_suite accepts, a guard against runaway time; the cost
# grows roughly as n_max^2 to n_max^2.4, most of it in the binom sweep
# (README gives the measured times and shares).
VERIFY_MAX_N = 1000

VALUATION_PRIMES = (2, 3, 5, 7, 11, 13)

# suite name -> (sweep function name, first n). The sweep is looked up by name
# at call time, so that a wrapper patched onto this module's attribute (as the
# benchmark's tracer does) sees every shard.
_SUITES = {
    "main": ("verify_correspondence", 1),
    "bound": ("verify_prime_bound", 1),
    "squarefree": ("verify_squarefree", 1),
    "binom": ("verify_binomial_valuations", 0),
}

SUITE_NAMES = tuple(_SUITES)


class VerificationReport(
    namedtuple("VerificationReport", "suite range_checked cases_total failures elapsed")
):
    """Outcome of one exhaustive sweep; failures carry inspectable witnesses."""

    __slots__ = ()

    @property
    def cases_failed(self) -> int:
        return len(self.failures)

    @property
    def passed(self) -> bool:
        return not self.failures


def _check_range(suite: str, n_lo: int, n_hi: int, step: int) -> None:
    least = _SUITES[suite][1]
    if n_lo < least or n_lo > n_hi:
        raise ValueError(f"need {least} <= n_lo <= n_hi, got [{n_lo}, {n_hi}]")
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")


def _sweep(
    suite: str, n_lo: int, n_hi: int, step: int, detail: str, check
) -> VerificationReport:
    # check(n, failures) appends the failing cases of one n and returns how
    # many cases that n had
    start = time.perf_counter()
    failures: list[tuple] = []
    cases = sum(check(n, failures) for n in range(n_lo, n_hi + 1, step))
    stride = f" step {step}" if step != 1 else ""
    return VerificationReport(
        suite,
        f"n in [{n_lo}, {n_hi}]{stride}, {detail}",
        cases,
        failures,
        time.perf_counter() - start,
    )


def _checked_primes(limit: int) -> list[int]:
    primes = primes_up_to(limit)
    for p in primes:
        ensure_prime(p)
    return primes


def verify_correspondence(
    n_lo: int, n_hi: int, p_max: int | None = None, *, step: int = 1
) -> VerificationReport:
    """Check that the fractional-part sum for (n, p) exceeds 1 exactly when p
    divides the brute-force denominator of the constant-free Bernoulli
    polynomial.

    Primes p > n need no sweep: the sum collapses to n/(p-1) <= 1 and the
    denominator has no factor above n, so both sides are false. The sweep up
    to p_max (default n_hi + 1) therefore covers the unrestricted statement.

    The primes are checked once per sweep. The sum is n/(p-1) - ord_p(n!), so
    it exceeds 1 exactly when n > (p-1) (ord_p(n!) + 1), and a case compares
    integers; the sum itself is formed only for a failure's witness.
    """
    _check_range("main", n_lo, n_hi, step)
    if p_max is None:
        p_max = n_hi + 1
    primes = _checked_primes(p_max)

    def check(n, failures):
        denom = _content_no_constant(n)[1]
        for p in primes:
            v = _legendre(n, p)
            if (n > (p - 1) * (v + 1)) != (denom % p == 0):
                failures.append((n, p, Fraction(n, p - 1) - v, denom))
        return len(primes)

    return _sweep("main", n_lo, n_hi, step, f"primes p <= {p_max}", check)


def verify_prime_bound(n_lo: int, n_hi: int, *, step: int = 1) -> VerificationReport:
    """Check that primes beyond (n+1)/2 (odd n) or (n+1)/3 (even n) never push
    the fractional-part sum above 1, sweeping p up to a ceiling of 2 * n_hi.

    As in verify_correspondence, the primes are checked once per sweep and a
    case compares integers.
    """
    _check_range("bound", n_lo, n_hi, step)
    p_max = 2 * n_hi
    primes = _checked_primes(p_max)

    def check(n, failures):
        beyond = primes[bisect_right(primes, prime_search_bound(n)) :]
        for p in beyond:
            v = _legendre(n, p)
            if n > (p - 1) * (v + 1):
                failures.append((n, p, Fraction(n, p - 1) - v, 1))
        return len(beyond)

    detail = f"primes p above (n+1)/2 or (n+1)/3 up to {p_max}"
    return _sweep("bound", n_lo, n_hi, step, detail, check)


def verify_squarefree(n_lo: int, n_hi: int, *, step: int = 1) -> VerificationReport:
    """Check that every coefficient-minimum valuation of the constant-free
    Bernoulli polynomial is -1 or 0, which makes its denominator squarefree.

    The minimum valuation at p is ord_p(num) - ord_p(denom), with num/denom
    the polynomial's content (the gcd of its reduced coefficient numerators
    over the lcm of their denominators), so a case fails exactly when p
    divides num or p^2 divides denom.
    """
    _check_range("squarefree", n_lo, n_hi, step)
    primes = primes_up_to(n_hi + 1)

    def check(n, failures):
        num, denom = _content_no_constant(n)
        if num == 0:
            raise ValueError("the zero polynomial has no finite valuation")
        count = bisect_right(primes, n + 1)
        for p in primes[:count]:
            if num % p == 0 or denom % (p * p) == 0:
                failures.append((n, p, _ord_abs(num, p) - _ord_abs(denom, p), "-1 or 0"))
        return count

    return _sweep("squarefree", n_lo, n_hi, step, "primes p <= n+1", check)


def verify_binomial_valuations(n_lo: int, n_hi: int, *, step: int = 1) -> VerificationReport:
    """Check ord_p C(n,k) three ways (factorial valuations, carry count, exact
    factor count of the big integer) and the digitwise product against
    C(n,k) mod p, for p in VALUATION_PRIMES.

    The primes are checked, and the tables the cases read are built, once
    per sweep: ord_p(m!) from Legendre sums for m <= n_hi, and the carry
    count and Lucas residue of the high parts n // p and k // p from
    digit-recurrence tables, to which a case adds its low digits' carry and
    binomial. C(n,k) is a running product over k, whose factors of p are
    counted at every case.
    """
    _check_range("binom", n_lo, n_hi, step)
    for p in VALUATION_PRIMES:
        ensure_prime(p)
    tables = []
    for p in VALUATION_PRIMES:
        fact = [_legendre(m, p) for m in range(n_hi + 1)]
        tables.append((p, fact, _carry_rows(n_hi // p, p), _lucas_rows(n_hi // p, p)))

    def check(n, failures):
        # per p, what every k reads for this n: its table rows and the low
        # digit's binomials C(n % p, d) mod p
        rows = []
        for p, fact, carry, lucas in tables:
            q, r = divmod(n, p)
            low = [math.comb(r, d) % p for d in range(p)]
            rows.append((p, fact, fact[n], r, (carry[0][q], carry[1][q]), lucas[q], low))
        c = 1
        for k in range(n + 1):
            for p, fact, fact_n, r, carry, lucas, low in rows:
                q, d = divmod(k, p)
                out = d > r
                v_legendre = fact_n - fact[k] - fact[n - k]
                v_carries = out + carry[out][q]
                v_exact = _ord_abs(c, p)
                residue = low[d] * lucas[q] % p
                ok = (
                    v_legendre == v_carries == v_exact
                    and residue == c % p
                    and (residue != 0) == (v_exact == 0)
                )
                if not ok:
                    failures.append(
                        (n, p, (k, v_legendre, v_carries, v_exact), (residue, c % p))
                    )
            c = c * (n - k) // (k + 1)
        return (n + 1) * len(VALUATION_PRIMES)

    detail = f"0 <= k <= n, p in {list(VALUATION_PRIMES)}"
    return _sweep("binom", n_lo, n_hi, step, detail, check)


def _suite_shard(suite: str, n_lo: int, n_hi: int, step: int) -> VerificationReport:
    return globals()[_SUITES[suite][0]](n_lo, n_hi, step=step)


def run_suite(suite: str, n_max: int, jobs: int) -> VerificationReport:
    """Run one named suite over 1..n_max (0..n_max for binom), sharded over
    up to jobs processes; the report is identical for every jobs value.

    With k shards, shard i sweeps the n congruent to n_lo + i mod k, so every
    shard gets a like mix of cheap small n and dear large n. At most
    os.cpu_count() worker processes start, whatever jobs asks for, and n_max
    above VERIFY_MAX_N is refused before any sweep runs.
    """
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    if not 1 <= n_max <= VERIFY_MAX_N:
        raise ValueError(f"n_max must be in [1, {VERIFY_MAX_N}], got {n_max}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    n_lo = _SUITES[suite][1]
    start = time.perf_counter()
    shards = min(jobs, n_max - n_lo + 1, os.cpu_count() or 1)
    shard = functools.partial(_suite_shard, suite, n_hi=n_max, step=shards)
    if shards == 1:
        parts = [shard(n_lo)]
    else:
        # imported here, so that a process that never shards skips multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=shards) as pool:
            parts = list(pool.map(shard, range(n_lo, n_lo + shards)))
    # shard 0 swept [n_lo, n_max] with step shards; drop the stride from its
    # text to get the serial one (a step of 1 left none). Each n lies in
    # exactly one shard, and within an n the shard keeps the serial order (for
    # binom: k, then p), so a stable sort on n alone restores the serial list;
    # sorting on (n, p) would not
    return VerificationReport(
        suite,
        parts[0].range_checked.replace(f" step {shards},", ",", 1),
        sum(r.cases_total for r in parts),
        sorted((f for r in parts for f in r.failures), key=lambda f: f[0]),
        time.perf_counter() - start,
    )


def is_power_of(n: int, p: int) -> bool:
    """Whether n is a pure power of p (including p^0 = 1), by repeated division."""
    while n > 1 and n % p == 0:
        n //= p
    return n == 1


class PowerScanResult(namedtuple("PowerScanResult", "n prime_set min_k threshold k_cap capped")):
    """Per-prime minimal exponents k with digit_sum(n^k, p) >= p.

    threshold is the maximum of the per-prime minima (None while capped): from
    that exponent on, every scanned prime passed the digit-sum criterion at
    its own minimum, and the scan records exactly where.
    """

    __slots__ = ()


def power_scan(n: int, prime_set, k_cap: int = DEFAULT_K_CAP) -> PowerScanResult:
    """Smallest k per prime with digit_sum(n^k, p) >= p, scanning k <= k_cap.

    digit_sum(n^k, p) >= p is exactly the condition for p to divide the
    constant-free Bernoulli denominator at index n^k. Raises when n is a pure
    power of some listed p, since then every n^k has a single nonzero base-p
    digit and the criterion can never be met, and when it reaches a power
    n^k of more than SCAN_MAX_BITS bits before every prime has passed.
    """
    if n <= 1:
        raise ValueError(f"n must be > 1, got {n}")
    if k_cap < 1:
        raise ValueError(f"k_cap must be >= 1, got {k_cap}")
    if n.bit_length() > SCAN_MAX_BITS:
        # n itself may be too long to print
        raise ValueError(
            f"n has {n.bit_length()} bits, above the scan limit of {SCAN_MAX_BITS}"
        )
    primes = tuple(sorted(set(prime_set)))
    if not primes:
        raise ValueError("prime_set must not be empty")
    for p in primes:
        ensure_prime(p)
        if is_power_of(n, p):
            raise ValueError(
                f"{n} is a power of {p}: every power of {n} has base-{p} "
                f"digit sum 1, so the scan cannot terminate"
            )
    found: dict[int, int | None] = {p: None for p in primes}
    pending = set(primes)
    nk = 1
    for k in range(1, k_cap + 1):
        nk *= n
        if nk.bit_length() > SCAN_MAX_BITS:
            raise ValueError(
                f"n^{k} has {nk.bit_length()} bits, above the scan limit of "
                f"{SCAN_MAX_BITS}; lower k_cap"
            )
        for p in sorted(pending):
            if digit_sum(nk, p) >= p:
                found[p] = k
                pending.discard(p)
        if not pending:
            break
    capped = bool(pending)
    threshold = None if capped else max(v for v in found.values() if v is not None)
    return PowerScanResult(n, primes, found, threshold, k_cap, capped)


def stewart_bound(n: int, c: float) -> float:
    """Evaluate log log n / (log log log n + c) - 1 for n > 25 and c > 0.

    Purely a display/diagnostic quantity and the only approximate computation
    in this package; the constant c must be supplied by the caller.
    """
    if n <= 25:
        raise ValueError(f"defined for n > 25, got {n}")
    if not math.isfinite(c) or c <= 0:
        raise ValueError(f"c must be positive and finite, got {c}")
    return math.log(math.log(n)) / (math.log(math.log(math.log(n))) + c) - 1
