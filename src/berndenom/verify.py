"""Exhaustive desk-scale verification suites with machine-readable reports.

Each suite sweeps a finite parameter range, records every failing case with
its witness values, and can be sharded over processes. A sweep visits
n = n_lo, n_lo + step, ... up to n_hi; the sharded runner gives each shard one
residue class of n and rebuilds the serial report from the parts, so the
report is the same for every degree of parallelism. The suites of one
command run their shards on one process pool, opened for that command only.
"""

from __future__ import annotations

import functools
import math
import os
import time
from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction

from .arith import _legendre, _ord_abs, digit_sum, ensure_prime, primes_up_to
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
# grows roughly as n_max^2, the largest share of it in the binom sweep
# (README gives the measured times and shares).
VERIFY_MAX_N = 1000

# Smallest n_max from which a command's suites shard; below it every suite runs
# in the calling process, whatever jobs asks for. For verify all, two shards
# have the lower median wall time from here on and one shard below it; for
# each suite alone, one shard is faster at 300, 400 and 499 too (README gives
# the tables). Below it, the pool's start costs more than the split saves.
# Measured with jobs 1 against jobs 2 on 2 CPUs only; more shards were not
# measured. At most VERIFY_MAX_N, so that the pool stays reachable.
_SHARD_MIN_N = 500

VALUATION_PRIMES = (2, 3, 5, 7, 11, 13)

# translate table: one more, saturating at 255, which no carry count reaches
_PLUS_ONE = bytes(range(1, 256)) + b"\xff"

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


def _correspondence(n: int, primes: list[int], denom: int, failures: list) -> int:
    # appends the failing (n, p) against denom and returns the case count;
    # the sum n/(p-1) - ord_p(n!) exceeds 1 exactly when n > (p-1) (ord_p(n!) + 1)
    for p in primes:
        v = _legendre(n, p)
        if (n > (p - 1) * (v + 1)) != (denom % p == 0):
            failures.append((n, p, Fraction(n, p - 1) - v, denom))
    return len(primes)


def verify_correspondence(
    n_lo: int, n_hi: int, p_max: int | None = None, *, step: int = 1
) -> VerificationReport:
    """Check that the fractional-part sum for (n, p) exceeds 1 exactly when p
    divides the brute-force denominator of the constant-free Bernoulli
    polynomial.

    Primes p > n need no sweep: the sum collapses to n/(p-1) <= 1 and the
    denominator has no factor above n, so both sides are false. The sweep up
    to p_max (default n_hi + 1) therefore covers the unrestricted statement.

    The primes are checked once per sweep.
    """
    _check_range("main", n_lo, n_hi, step)
    if p_max is None:
        p_max = n_hi + 1
    primes = _checked_primes(p_max)

    def check(n, failures):
        return _correspondence(n, primes, _content_no_constant(n)[1], failures)

    return _sweep("main", n_lo, n_hi, step, f"primes p <= {p_max}", check)


def verify_prime_bound(n_lo: int, n_hi: int, *, step: int = 1) -> VerificationReport:
    """Check that primes beyond (n+1)/2 (odd n) or (n+1)/3 (even n) never push
    the fractional-part sum above 1, sweeping p up to a ceiling of 2 * n_hi.

    It is the correspondence of verify_correspondence against a denominator
    of 1.
    """
    _check_range("bound", n_lo, n_hi, step)
    p_max = 2 * n_hi
    primes = _checked_primes(p_max)

    def check(n, failures):
        beyond = primes[bisect_right(primes, prime_search_bound(n)) :]
        return _correspondence(n, beyond, 1, failures)

    detail = f"primes p above (n+1)/2 or (n+1)/3 up to {p_max}"
    return _sweep("bound", n_lo, n_hi, step, detail, check)


def verify_squarefree(n_lo: int, n_hi: int, *, step: int = 1) -> VerificationReport:
    """Check that every coefficient-minimum valuation of the constant-free
    Bernoulli polynomial is -1 or 0, which makes its denominator squarefree.

    The minimum valuation at p is ord_p(num) - ord_p(denom), with num/denom
    the polynomial's content (the gcd of its reduced coefficient numerators
    over the lcm of their denominators), so a case fails exactly when p
    divides num or p^2 divides denom. The primes are checked once per sweep.
    """
    _check_range("squarefree", n_lo, n_hi, step)
    primes = _checked_primes(n_hi + 1)

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


def _valuation_moduli(n_hi: int) -> tuple[int, list[int]]:
    # per p in VALUATION_PRIMES the least power p^e above n_hi, and their
    # product M (below 2^66 at VERIFY_MAX_N)
    powers = []
    for p in VALUATION_PRIMES:
        power = p
        while power <= n_hi:
            power *= p
        powers.append(power)
    return math.prod(powers), powers


def _carry_row(rows: tuple, m: int, p: int, plus_one: bytes, c: int = 0) -> bytes:
    # row c of m from the rows of q = m // p: the residue class d of j is row
    # 0 of q, or, where the low digits carry out (d + c > m % p), row 1 of q
    # translated by plus_one; one strided slice per class
    q, r = divmod(m, p)
    high = (rows[0][q], rows[1][q].translate(plus_one))
    row = bytearray(m - c + 1)
    for d in range(p):
        row[d::p] = high[d + c > r]
    return bytes(row)


def _carry_rows(limit: int, p: int) -> tuple[list[bytes], list[bytes]]:
    # rows[c][m][j], for j + c <= m <= limit: the carries when adding j and
    # m - j - c in base p with carry-in c. The low digits carry out exactly
    # when j % p + c > m % p; the rest is the count for the high parts m // p
    # and j // p with that carry-in, an earlier row (prime p assumed)
    rows = ([b"\x00"], [b""])
    for m in range(1, limit + 1):
        for c in (0, 1):
            rows[c].append(_carry_row(rows, m, p, _PLUS_ONE, c))
    return rows


def _products_mod(p: int) -> list[bytes]:
    # translate tables: the one at a maps each byte b to a * b mod p
    return [(bytes(a * b % p for b in range(p)) * (256 // p + 1))[:256] for a in range(p)]


def _lucas_row(rows: list[bytes], m: int, p: int, products: list[bytes]) -> bytes:
    # row m from the row of m // p: the residue class d of j is that row
    # times C(m % p, d) mod p, one strided slice per class; past m % p, 0
    q, r = divmod(m, p)
    row = bytearray(m + 1)
    for d in range(r + 1):
        row[d::p] = rows[q].translate(products[math.comb(r, d) % p])
    return bytes(row)


def _lucas_rows(limit: int, p: int) -> list[bytes]:
    # rows[m][j] = C(m, j) mod p for 0 <= j <= m <= limit: the low digits'
    # binomial mod p times the high parts' entry, an earlier row (prime
    # p <= 256 assumed, so that a residue fits a byte)
    products, rows = _products_mod(p), [b"\x01"]
    for m in range(1, limit + 1):
        rows.append(_lucas_row(rows, m, p, products))
    return rows


def verify_binomial_valuations(n_lo: int, n_hi: int, *, step: int = 1) -> VerificationReport:
    """Check ord_p C(n,k) three ways (factorial valuations, carry count, exact
    factor count of C(n,k)) and the digitwise product against C(n,k) mod p,
    for p in VALUATION_PRIMES.

    The primes are checked, and the tables the cases read are built, once
    per sweep: ord_p(m!) from Legendre sums for m <= n_hi, carry counts and
    Lucas residues for m <= n_hi // p from digit recurrences, and ord_p(x)
    for 0 < x < p^e, the least power of p above n_hi. Each (n, p) is decided
    by whole rows over k = 0..n: the carry and Lucas rows are built from
    those of n // p by one strided slice per low digit, the exact counts and
    C(n,k) mod p are read off x = C(n,k) mod p^e, and the Legendre row is
    compared with the counts as one integer of 16-bit lanes. C(n,k) is a
    running product over k, reduced once per (n, k) modulo M, the product of
    those powers. A p whose rows all agree passes every case of n. Any other
    p is a suspect; only its cases are checked one at a time, off the rows
    already built, and for x = 0 on C(n,k) itself. No other guard is needed:
    a wrong route makes p a suspect through another comparison. The code of
    x is ord_p(x) p + x % p. An x of 0 reads a count of 0, while the sound
    carry count is at least e there (or the Lucas row differs, if x itself
    is wrong), and a wrong exact entry disagrees with the carry count. A code
    is at most e p - 1 (38 at VERIFY_MAX_N); one above 255 would need an
    exact table of over 10^22 entries.
    """
    _check_range("binom", n_lo, n_hi, step)
    for p in VALUATION_PRIMES:
        ensure_prime(p)
    modulus, powers = _valuation_moduli(n_hi)
    tables = []
    for p, power in zip(VALUATION_PRIMES, powers):
        fact = [_legendre(m, p) for m in range(n_hi + 1)]
        exact = bytes([0, *(_ord_abs(x, p) for x in range(1, power))])
        carry, lucas = _carry_rows(n_hi // p, p), _lucas_rows(n_hi // p, p)
        code = bytes(v * p + x % p for x, v in enumerate(exact))
        split = (bytes(i // p for i in range(256)), bytes(i % p for i in range(256)))
        # ord_p(m!) for m up from 0 and down from n_hi in 16-bit lanes: exact
        # while each lies in [0, 2^14), else p is a suspect at every n
        lanes = 0 <= min(fact) and max(fact) < 1 << 14 and [
            int.from_bytes(b"".join(v.to_bytes(2, "little") for v in f), "little")
            for f in (fact, fact[::-1])
        ]
        tables.append((p, power, exact, fact, carry, lucas, code, split, _products_mod(p), lanes))

    def check(n, failures):
        c, residues = 1, []
        for k in range(n + 1):
            residues.append(c % modulus)
            c = c * (n - k) // (k + 1)
        mask = (1 << 16 * (n + 1)) - 1
        ones, wide = mask // 0xFFFF, bytearray(2 * n + 2)
        suspects = []
        for p, power, exact, fact, carry, lucas, code, split, products, lanes in tables:
            codes = bytes([code[x % power] for x in residues])
            carries = _carry_row(carry, n, p, _PLUS_ONE)
            lucas_n = _lucas_row(lucas, n, p, products)
            wide[::2] = counts = codes.translate(split[0])
            # the lanes of the Legendre row and of the counts differ by less
            # than 2^16, so the two integers are equal only lane by lane
            if not (
                lanes
                and counts == carries
                and codes.translate(split[1]) == lucas_n
                and fact[n] * ones - (lanes[0] & mask) - (lanes[1] >> 16 * (n_hi - n) & mask)
                == int.from_bytes(wide, "little")
            ):
                suspects.append((p, power, exact, fact, carries, lucas_n))
        # a suspect p is checked one case at a time, in the order k, then p
        for k in range(n + 1 if suspects else 0):
            for p, power, exact, fact, carries, lucas_n in suspects:
                v_legendre = fact[n] - fact[k] - fact[n - k]
                x = residues[k] % power
                v_exact = exact[x] if x else _ord_abs(math.comb(n, k), p)
                residue = lucas_n[k]
                ok = (
                    v_legendre == carries[k] == v_exact
                    and residue == x % p
                    and (residue != 0) == (v_exact == 0)
                )
                if not ok:
                    failures.append(
                        (n, p, (k, v_legendre, carries[k], v_exact), (residue, x % p))
                    )
        return (n + 1) * len(VALUATION_PRIMES)

    detail = f"0 <= k <= n, p in {list(VALUATION_PRIMES)}"
    return _sweep("binom", n_lo, n_hi, step, detail, check)


def _suite_shard(suite: str, n_lo: int, n_hi: int, step: int) -> VerificationReport:
    return globals()[_SUITES[suite][0]](n_lo, n_hi, step=step)


def _shard_count(suite: str, n_max: int, jobs: int) -> int:
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    if not 1 <= n_max <= VERIFY_MAX_N:
        raise ValueError(f"n_max must be in [1, {VERIFY_MAX_N}], got {n_max}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if n_max < _SHARD_MIN_N:
        return 1
    return min(jobs, n_max - _SUITES[suite][1] + 1, os.cpu_count() or 1)


def run_suite(suite: str, n_max: int, jobs: int, *, pool=None) -> VerificationReport:
    """Run one named suite over 1..n_max (0..n_max for binom), sharded over
    up to jobs processes; the report is identical for every jobs value.

    An n_max below _SHARD_MIN_N runs as one shard in this process, since
    there a pool costs more than it saves. With k shards, shard i sweeps the
    n congruent to n_lo + i mod k, so every shard gets a like mix of cheap
    small n and dear large n. At most os.cpu_count() worker processes start,
    whatever jobs asks for, and n_max above VERIFY_MAX_N is refused before
    any sweep runs. The shards run on pool, an open process pool with at
    least k workers that is left open, when one is given; otherwise a call
    with more than one shard runs as a one-suite verify command, whose pool
    of k workers is opened for it.
    """
    shards = _shard_count(suite, n_max, jobs)
    if shards > 1 and pool is None:
        return _run_suites((suite,), n_max, jobs)[0]
    n_lo = _SUITES[suite][1]
    start = time.perf_counter()
    shard = functools.partial(_suite_shard, suite, n_hi=n_max, step=shards)
    starts = range(n_lo, n_lo + shards)
    parts = list((pool.map if shards > 1 else map)(shard, starts))
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


def _run_suites(names: tuple[str, ...], n_max: int, jobs: int) -> list[VerificationReport]:
    # run_suite for each named suite in turn, after every argument is
    # checked. The shards of every suite share one pool, opened for this
    # call only when some suite shards (never for an n_max below
    # _SHARD_MIN_N, nor with one job or one CPU), so its workers keep the
    # Bernoulli table they grew in one suite for the next; a pool opened per
    # call also starts its workers from the caller's current state
    workers = max(_shard_count(suite, n_max, jobs) for suite in names)
    if workers == 1:
        return [run_suite(suite, n_max, jobs) for suite in names]
    # imported here, so that a process that never shards skips multiprocessing
    import concurrent.futures

    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return [run_suite(suite, n_max, jobs, pool=pool) for suite in names]


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
    threshold = None if capped else max(found.values())
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
