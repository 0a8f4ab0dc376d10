"""Tests for the verification suites, the power scan, and growth diagnostics."""

import math
import multiprocessing
import os

import pytest

from berndenom import verify
from berndenom.arith import digit_sum, frac_sum, primes_up_to
from berndenom.bernoulli import bernoulli_poly_no_constant, poly_denominator
from berndenom.verify import (
    DigitSumGrowth,
    VerificationReport,
    digit_sum_growth,
    is_power_of,
    merge_reports,
    power_scan,
    VERIFY_MAX_N,
    run_suite,
    stewart_bound,
    verify_binomial_valuations,
    verify_correspondence,
    verify_prime_bound,
    verify_squarefree,
)


# --- reports -------------------------------------------------------------


def test_report_counts_derive_from_failures():
    report = VerificationReport("main", "demo", 10, [(4, 2, 1, 1)])
    assert report.cases_failed == 1
    assert not report.passed
    assert VerificationReport("main", "demo", 10).passed


def test_merge_reports():
    a = VerificationReport("main", "demo", 4, [(1, 2, "x", "y")], 0.5)
    b = VerificationReport("main", "demo", 6, [], 0.25)
    merged = merge_reports([a, b])
    assert merged.cases_total == 10
    assert merged.failures == [(1, 2, "x", "y")]
    assert merged.elapsed == 0.75
    with pytest.raises(ValueError):
        merge_reports([])
    with pytest.raises(ValueError):
        merge_reports([a, VerificationReport("bound", "demo", 1)])


# --- the correspondence suite -----------------------------------------------


def test_correspondence_passes_small_range():
    report = verify_correspondence(1, 60)
    assert report.passed
    assert report.cases_total == 60 * len(primes_up_to(61))


def test_correspondence_single_cases():
    denom_nine = poly_denominator(bernoulli_poly_no_constant(9))
    assert frac_sum(9, 5) > 1 and denom_nine % 5 == 0
    denom_two = poly_denominator(bernoulli_poly_no_constant(2))
    assert frac_sum(2, 3) <= 1 and denom_two % 3 != 0
    assert frac_sum(2, 3) == 1


def test_correspondence_rejects_bad_range():
    with pytest.raises(ValueError):
        verify_correspondence(0, 10)
    with pytest.raises(ValueError):
        verify_correspondence(5, 4)


def test_correspondence_detects_corruption():
    # a wrong table entry must surface as recorded failures, not pass silently
    from berndenom import bernoulli as btable
    from fractions import Fraction

    btable.bernoulli_number(2)
    original = btable._BERNOULLI[2]
    btable._BERNOULLI[2] = Fraction(1, 7)
    try:
        report = verify_correspondence(3, 3, p_max=7)
    finally:
        btable._BERNOULLI[2] = original
    assert not report.passed
    assert any(case[0] == 3 and case[1] == 7 for case in report.failures)


# --- the bound suite ----------------------------------------------------------


def test_prime_bound_passes():
    report = verify_prime_bound(1, 120)
    assert report.passed
    assert report.cases_total > 0


def test_prime_bound_case_counts():
    # every prime p <= 2 * n_hi with lambda * p > n + 1, lambda = 2 for odd n
    # and 3 for even n, is one case
    primes = primes_up_to(240)
    expected = sum(1 for n in range(1, 121) for p in primes if (3 - n % 2) * p > n + 1)
    assert verify_prime_bound(1, 120).cases_total == expected == 5201
    assert verify_prime_bound(1, 300).cases_total == 27494


def test_prime_bound_spec_cases():
    assert frac_sum(4, 3) == 1
    assert frac_sum(4, 2) == 1


# --- the squarefree suite -------------------------------------------------------


def test_squarefree_passes_small_range():
    report = verify_squarefree(1, 100)
    assert report.passed
    assert report.cases_total == sum(len(primes_up_to(n + 1)) for n in range(1, 101))


def test_squarefree_oracle_products():
    for n in (1, 3, 13, 24):
        d = poly_denominator(bernoulli_poly_no_constant(n))
        for p in primes_up_to(d + 1):
            assert d % (p * p) != 0


# --- the binomial suite -----------------------------------------------------------


def test_binomial_valuations_pass_small_range():
    report = verify_binomial_valuations(0, 60)
    assert report.passed
    assert report.cases_total == 6 * sum(n + 1 for n in range(61))


# --- the suite runner ---------------------------------------------------------------


@pytest.mark.parametrize("suite", ["main", "bound", "squarefree", "binom"])
def test_run_suite_independent_of_jobs(suite, monkeypatch):
    # three shards on any host, since run_suite clamps jobs to the CPU count
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    serial = run_suite(suite, 40, jobs=1)
    sharded = run_suite(suite, 40, jobs=3)
    assert serial.cases_total == sharded.cases_total
    assert serial.failures == sharded.failures
    assert serial.range_checked == sharded.range_checked
    assert serial.passed and sharded.passed


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the workers must inherit the patched kummer_carries",
)
def test_sharded_failures_keep_the_serial_order(monkeypatch):
    # a wrong carry count at k = 1 and k = 2 fails every (n, p) with n >= k,
    # in the serial order n, then k, then p; a sort on (n, p) would put both
    # k of one p before the next p and break the equality below
    real = verify.kummer_carries
    monkeypatch.setattr(
        verify, "kummer_carries", lambda n, k, p: real(n, k, p) + (k in (1, 2))
    )
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    serial = run_suite("binom", 30, jobs=1)
    sharded = run_suite("binom", 30, jobs=3)
    assert serial.failures
    assert sharded.failures == serial.failures


@pytest.mark.parametrize(
    "sweep, first, detail, cases_at",
    [
        (verify_correspondence, 1, "primes p <= 31", lambda n: len(primes_up_to(31))),
        (
            verify_prime_bound,
            1,
            "primes p above (n+1)/2 or (n+1)/3 up to 60",
            lambda n: sum((3 - n % 2) * p > n + 1 for p in primes_up_to(60)),
        ),
        (verify_squarefree, 1, "primes p <= n+1", lambda n: len(primes_up_to(n + 1))),
        (
            verify_binomial_valuations,
            0,
            "0 <= k <= n, p in [2, 3, 5, 7, 11, 13]",
            lambda n: 6 * (n + 1),
        ),
    ],
    ids=["main", "bound", "squarefree", "binom"],
)
def test_sweeps_take_a_stride(sweep, first, detail, cases_at):
    whole = sweep(first, 30)
    parts = [sweep(lo, 30, step=3) for lo in range(first, first + 3)]
    assert sum(r.cases_total for r in parts) == whole.cases_total
    assert parts[1].cases_total == sum(cases_at(n) for n in range(first + 1, 31, 3))
    assert whole.range_checked == f"n in [{first}, 30], {detail}"
    assert parts[1].range_checked == f"n in [{first + 1}, 30] step 3, {detail}"
    assert sweep(first, first).passed
    for n_lo, n_hi, step in ((first, 10, 0), (11, 10, 1), (first - 1, 10, 1)):
        with pytest.raises(ValueError):
            sweep(n_lo, n_hi, step=step)


def test_run_suite_validates_arguments():
    with pytest.raises(ValueError):
        run_suite("nope", 10)
    with pytest.raises(ValueError):
        run_suite("main", 0)
    with pytest.raises(ValueError):
        run_suite("main", 10, jobs=0)


def test_run_suite_refuses_n_max_above_the_cap(monkeypatch):
    # refused up front: no sweep runs and no pool starts
    def refuse(*args, **kwargs):
        raise AssertionError("work started for a refused n_max")

    monkeypatch.setattr(verify, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(verify, "_suite_shard", refuse)
    for suite in verify.SUITE_NAMES:
        with pytest.raises(ValueError, match=str(VERIFY_MAX_N)):
            run_suite(suite, VERIFY_MAX_N + 1, jobs=2)


def test_run_suite_clamps_jobs_to_cpu_count(monkeypatch):
    # with one CPU no pool may start, however many jobs are asked for
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(verify, "ProcessPoolExecutor", no_pool)
    clamped = run_suite("main", 10, jobs=10**6)
    serial = run_suite("main", 10, jobs=1)
    assert clamped.cases_total == serial.cases_total
    assert clamped.failures == serial.failures
    assert clamped.range_checked == serial.range_checked


# --- power scan -----------------------------------------------------------------------


def test_power_scan_seven_five():
    result = power_scan(7, [5], 16)
    assert result.min_k == {5: 2}
    assert result.threshold == 2
    assert not result.capped


def test_power_scan_frozen_ten():
    result = power_scan(10, [2, 3, 5, 7], 64)
    assert result.min_k == {2: 1, 3: 2, 5: 6, 7: 3}
    assert result.threshold == 6
    assert not result.capped


def test_power_scan_minimality():
    result = power_scan(10, [2, 3, 5, 7], 64)
    for p, k_min in result.min_k.items():
        assert digit_sum(10**k_min, p) >= p
        for j in range(1, k_min):
            assert digit_sum(10**j, p) < p


def test_power_scan_capped():
    result = power_scan(7, [5], 1)
    assert result.capped
    assert result.threshold is None
    assert result.min_k == {5: None}


def test_first_crossing_is_not_stable():
    # digit sums of powers are not monotone: for n = 10, p = 5 the criterion
    # digit_sum(10^k, 5) >= 5 first holds at k = 6, fails again at k = 7 and 8
    # (10^7 = 2^7 * 5^7 and 128 is 1003 in base 5), and holds from k = 9
    # through the default cap; so min_k marks the first crossing only, not a
    # point of no return
    assert power_scan(10, [5], 64).min_k == {5: 6}
    assert digit_sum(10**6, 5) == 8
    assert digit_sum(10**7, 5) == 4
    assert digit_sum(10**8, 5) == 4
    assert all(digit_sum(10**k, 5) >= 5 for k in range(9, 65))


def test_power_scan_rejects_bad_input():
    with pytest.raises(ValueError):
        power_scan(8, [2])
    with pytest.raises(ValueError):
        power_scan(1, [2])
    with pytest.raises(ValueError):
        power_scan(10, [4])
    with pytest.raises(ValueError):
        power_scan(10, [])
    with pytest.raises(ValueError):
        power_scan(10, [3], 0)


def test_is_power_of():
    assert is_power_of(8, 2)
    assert is_power_of(9, 3)
    assert is_power_of(1, 5)
    assert not is_power_of(12, 2)
    assert not is_power_of(10, 5)


# --- growth series ------------------------------------------------------------------------


def test_growth_frozen_series():
    assert digit_sum_growth(10, 3, 5).samples == ((1, 2), (2, 4), (3, 4), (4, 8), (5, 10))
    assert digit_sum_growth(2, 3, 5).samples == ((1, 2), (2, 2), (3, 4), (4, 4), (5, 4))
    assert digit_sum_growth(6, 2, 5).samples == ((1, 2), (2, 2), (3, 4), (4, 3), (5, 6))


def test_growth_running_max_and_flag():
    series = digit_sum_growth(10, 3, 5)
    assert series.running_max == (2, 4, 4, 8, 10)
    assert not series.strictly_increasing
    assert digit_sum_growth(10, 3, 2).strictly_increasing


def test_growth_ignores_p_power_factors():
    # digit sums of n^k only depend on the p-free part of n
    assert digit_sum_growth(12, 3, 12).samples == digit_sum_growth(4, 3, 12).samples
    assert digit_sum_growth(18, 3, 12).samples == digit_sum_growth(2, 3, 12).samples
    assert digit_sum_growth(40, 2, 10).samples == digit_sum_growth(5, 2, 10).samples


def test_growth_rejects_bad_input():
    with pytest.raises(ValueError):
        digit_sum_growth(8, 2, 10)
    with pytest.raises(ValueError):
        digit_sum_growth(1, 3, 10)
    with pytest.raises(ValueError):
        digit_sum_growth(10, 6, 10)
    assert isinstance(digit_sum_growth(10, 3, 1), DigitSumGrowth)


# --- the display bound ----------------------------------------------------------------------


def test_stewart_bound_domain():
    value = stewart_bound(26, 1.0)
    assert value == value and abs(value) < 100  # finite
    with pytest.raises(ValueError):
        stewart_bound(25, 1.0)
    with pytest.raises(ValueError):
        stewart_bound(100, 0.0)
    for c in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            stewart_bound(100, c)


def test_stewart_bound_monotone_in_n():
    previous = stewart_bound(26, 1.0)
    for n in (100, 10**4, 10**6, 10**9):
        current = stewart_bound(n, 1.0)
        assert current > previous
        previous = current
