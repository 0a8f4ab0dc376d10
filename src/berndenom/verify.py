"""Exhaustive desk-scale verification suites with machine-readable reports.

Each suite sweeps a finite parameter range, records every failing case with
its witness values, and can be sharded over processes; shard results merge
associatively, so the outcome is independent of the degree of parallelism.
A sweep visits n = n_lo, n_lo + step, ... up to n_hi; the sharded runner
gives each shard one residue class of n.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .arith import (
    _ord_abs,
    digit_sum,
    ensure_prime,
    frac_sum,
    kummer_carries,
    lucas_binom_mod,
    ord_binomial,
    primes_up_to,
)
from .bernoulli import (
    bernoulli_poly_no_constant,
    ord_poly,
    poly_denominator,
    prime_search_bound,
)

__all__ = [
    "DEFAULT_K_CAP",
    "SUITE_NAMES",
    "VERIFY_MAX_N",
    "DigitSumGrowth",
    "PowerScanResult",
    "VerificationReport",
    "digit_sum_growth",
    "is_power_of",
    "merge_reports",
    "power_scan",
    "run_suite",
    "stewart_bound",
    "verify_binomial_valuations",
    "verify_correspondence",
    "verify_prime_bound",
    "verify_squarefree",
]

DEFAULT_K_CAP = 64

# Largest n_max run_suite accepts. `verify all --max-n 1000 --jobs 2` takes
# about 30 s in-program (CPython 3.11.7, 2-vCPU x86-64 host), against 1.2 s
# at 300; the cost grows roughly as n_max^3.
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


@dataclass
class VerificationReport:
    """Outcome of one exhaustive sweep; failures carry inspectable witnesses."""

    suite: str
    range_checked: str
    cases_total: int
    failures: list[tuple] = field(default_factory=list)
    elapsed: float = 0.0

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


def verify_correspondence(
    n_lo: int, n_hi: int, p_max: int | None = None, *, step: int = 1
) -> VerificationReport:
    """Check that the fractional-part sum for (n, p) exceeds 1 exactly when p
    divides the brute-force denominator of the constant-free Bernoulli
    polynomial.

    Primes p > n need no sweep: the sum collapses to n/(p-1) <= 1 and the
    denominator has no factor above n, so both sides are false. The sweep up
    to p_max (default n_hi + 1) therefore covers the unrestricted statement.
    """
    _check_range("main", n_lo, n_hi, step)
    if p_max is None:
        p_max = n_hi + 1
    primes = primes_up_to(p_max)

    def check(n, failures):
        denom = poly_denominator(bernoulli_poly_no_constant(n))
        for p in primes:
            value = frac_sum(n, p)
            if (value > 1) != (denom % p == 0):
                failures.append((n, p, value, denom))
        return len(primes)

    return _sweep("main", n_lo, n_hi, step, f"primes p <= {p_max}", check)


def verify_prime_bound(
    n_lo: int, n_hi: int, p_max: int | None = None, *, step: int = 1
) -> VerificationReport:
    """Check that primes beyond (n+1)/2 (odd n) or (n+1)/3 (even n) never push
    the fractional-part sum above 1, sweeping p up to a ceiling of 2 * n_hi."""
    _check_range("bound", n_lo, n_hi, step)
    if p_max is None:
        p_max = 2 * n_hi
    primes = primes_up_to(p_max)

    def check(n, failures):
        bound = prime_search_bound(n)
        beyond = [p for p in primes if p > bound]
        for p in beyond:
            value = frac_sum(n, p)
            if value > 1:
                failures.append((n, p, value, 1))
        return len(beyond)

    detail = f"primes p above (n+1)/2 or (n+1)/3 up to {p_max}"
    return _sweep("bound", n_lo, n_hi, step, detail, check)


def verify_squarefree(n_lo: int, n_hi: int, *, step: int = 1) -> VerificationReport:
    """Check that every coefficient-minimum valuation of the constant-free
    Bernoulli polynomial is -1 or 0, which makes its denominator squarefree."""
    _check_range("squarefree", n_lo, n_hi, step)

    def check(n, failures):
        f = bernoulli_poly_no_constant(n)
        primes = primes_up_to(n + 1)
        for p in primes:
            v = ord_poly(f, p)
            if v != 0 and v != -1:
                failures.append((n, p, v, "-1 or 0"))
        return len(primes)

    return _sweep("squarefree", n_lo, n_hi, step, "primes p <= n+1", check)


def verify_binomial_valuations(
    n_lo: int, n_hi: int, primes: tuple[int, ...] = VALUATION_PRIMES, *, step: int = 1
) -> VerificationReport:
    """Check ord_p C(n,k) three ways (factorial valuations, carry count, exact
    factor count of the big integer) and the digitwise product against
    C(n,k) mod p."""
    _check_range("binom", n_lo, n_hi, step)
    for p in primes:
        ensure_prime(p)

    def check(n, failures):
        for k in range(n + 1):
            c = math.comb(n, k)
            for p in primes:
                v_legendre = ord_binomial(n, k, p)
                v_carries = kummer_carries(n, k, p)
                v_exact = _ord_abs(c, p)
                residue = lucas_binom_mod(n, k, p)
                ok = (
                    v_legendre == v_carries == v_exact
                    and residue == c % p
                    and (residue != 0) == (v_exact == 0)
                )
                if not ok:
                    failures.append(
                        (n, p, (k, v_legendre, v_carries, v_exact), (residue, c % p))
                    )
        return (n + 1) * len(primes)

    detail = f"0 <= k <= n, p in {list(primes)}"
    return _sweep("binom", n_lo, n_hi, step, detail, check)


def merge_reports(reports: list[VerificationReport]) -> VerificationReport:
    """Combine shard reports of one suite; totals add, failures concatenate."""
    if not reports:
        raise ValueError("nothing to merge")
    suite = reports[0].suite
    if any(r.suite != suite for r in reports):
        raise ValueError("cannot merge reports from different suites")
    return VerificationReport(
        suite,
        reports[0].range_checked,
        sum(r.cases_total for r in reports),
        [f for r in reports for f in r.failures],
        sum(r.elapsed for r in reports),
    )


def _suite_shard(suite: str, n_lo: int, n_hi: int, step: int) -> VerificationReport:
    return globals()[_SUITES[suite][0]](n_lo, n_hi, step=step)


def run_suite(suite: str, n_max: int, jobs: int | None = None) -> VerificationReport:
    """Run one named suite over 1..n_max (0..n_max for binom), optionally
    sharded over processes; the report is identical for every jobs value.

    With k shards, shard i sweeps the n congruent to n_lo + i mod k, so every
    shard gets a like mix of cheap small n and dear large n. At most
    os.cpu_count() worker processes start, whatever jobs asks for, and n_max
    above VERIFY_MAX_N is refused before any sweep runs.
    """
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    if not 1 <= n_max <= VERIFY_MAX_N:
        raise ValueError(f"n_max must be in [1, {VERIFY_MAX_N}], got {n_max}")
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    n_lo = _SUITES[suite][1]
    start = time.perf_counter()
    shards = min(jobs, n_max - n_lo + 1, os.cpu_count() or 1)
    if shards == 1:
        report = _suite_shard(suite, n_lo, n_max, 1)
    else:
        with ProcessPoolExecutor(max_workers=shards) as pool:
            parts = list(
                pool.map(
                    _suite_shard,
                    [suite] * shards,
                    range(n_lo, n_lo + shards),
                    [n_max] * shards,
                    [shards] * shards,
                )
            )
        report = merge_reports(parts)
        # shard 0 swept [n_lo, n_max] with step shards; drop the stride from
        # its text to get the serial one
        report.range_checked = report.range_checked.replace(f" step {shards},", ",", 1)
        # each n lies in exactly one shard, and within an n the shard keeps the
        # serial order (for binom: k, then p), so a stable sort on n alone
        # restores the serial list; sorting on (n, p) would not
        report.failures.sort(key=lambda f: f[0])
    report.elapsed = time.perf_counter() - start
    return report


def is_power_of(n: int, p: int) -> bool:
    """Whether n is a pure power of p (including p^0 = 1), by repeated division."""
    while n > 1 and n % p == 0:
        n //= p
    return n == 1


@dataclass(frozen=True)
class PowerScanResult:
    """Per-prime minimal exponents k with digit_sum(n^k, p) >= p.

    threshold is the maximum of the per-prime minima (None while capped): from
    that exponent on, every scanned prime passed the digit-sum criterion at
    its own minimum, and the scan records exactly where.
    """

    n: int
    prime_set: tuple[int, ...]
    min_k: dict[int, int | None]
    threshold: int | None
    k_cap: int
    capped: bool


def power_scan(n: int, prime_set, k_cap: int = DEFAULT_K_CAP) -> PowerScanResult:
    """Smallest k per prime with digit_sum(n^k, p) >= p, scanning k <= k_cap.

    digit_sum(n^k, p) >= p is exactly the condition for p to divide the
    constant-free Bernoulli denominator at index n^k. Raises when n is a pure
    power of some listed p, since then every n^k has a single nonzero base-p
    digit and the criterion can never be met.
    """
    if n <= 1:
        raise ValueError(f"n must be > 1, got {n}")
    if k_cap < 1:
        raise ValueError(f"k_cap must be >= 1, got {k_cap}")
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
        for p in sorted(pending):
            if digit_sum(nk, p) >= p:
                found[p] = k
                pending.discard(p)
        if not pending:
            break
    capped = bool(pending)
    threshold = None if capped else max(v for v in found.values() if v is not None)
    return PowerScanResult(n, primes, found, threshold, k_cap, capped)


@dataclass(frozen=True)
class DigitSumGrowth:
    """Digit sums of successive powers with their running maximum.

    A finite sample can only suggest unbounded growth, never establish it;
    strictly_increasing is True only when every sampled power sets a new
    record, and the raw samples are kept for any other diagnostic.
    """

    n: int
    p: int
    samples: tuple[tuple[int, int], ...]
    running_max: tuple[int, ...]
    strictly_increasing: bool


def digit_sum_growth(n: int, p: int, k_cap: int = DEFAULT_K_CAP) -> DigitSumGrowth:
    """The series digit_sum(n^k, p) for k = 1..k_cap, with running maximum."""
    ensure_prime(p)
    if n <= 1:
        raise ValueError(f"n must be > 1, got {n}")
    if k_cap < 1:
        raise ValueError(f"k_cap must be >= 1, got {k_cap}")
    if is_power_of(n, p):
        raise ValueError(
            f"{n} is a power of {p}: the base-{p} digit sum of its powers is "
            f"constant 1"
        )
    samples = []
    running = []
    best = 0
    nk = 1
    for k in range(1, k_cap + 1):
        nk *= n
        s = digit_sum(nk, p)
        samples.append((k, s))
        best = max(best, s)
        running.append(best)
    strictly = all(a < b for a, b in zip(running, running[1:]))
    return DigitSumGrowth(n, p, tuple(samples), tuple(running), strictly)


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
