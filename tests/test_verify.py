"""Tests for the verification suites, the power scan, and the display bound."""

import concurrent.futures
import json
import math
import multiprocessing
import os
import pickle
from fractions import Fraction

import pytest

from berndenom import arith, cli, verify
from berndenom import bernoulli as btable
from berndenom.arith import digit_sum, frac_sum, primes_up_to
from berndenom.bernoulli import bernoulli_poly_no_constant, ord_poly, poly_denominator
from berndenom.verify import (
    VerificationReport,
    is_power_of,
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
    report = VerificationReport("main", "demo", 10, [(4, 2, 1, 1)], 0.0)
    assert report.cases_failed == 1
    assert not report.passed
    clean = VerificationReport("main", "demo", 10, [], 0.0)
    assert (clean.cases_failed, clean.passed) == (0, True)
    # no field has a default, so no two reports can share a failure list
    with pytest.raises(TypeError):
        VerificationReport("main", "demo", 10)


def test_records_survive_a_pickle_round_trip():
    # reports come back from pool workers pickled; failures may hold Fractions
    report = VerificationReport("main", "demo", 10, [(4, 2, Fraction(5, 4), 6)], 0.5)
    back = pickle.loads(pickle.dumps(report))
    assert back == report and back is not report and type(back) is type(report)
    assert repr(back) == (
        "VerificationReport(suite='main', range_checked='demo', cases_total=10, "
        "failures=[(4, 2, Fraction(5, 4), 6)], elapsed=0.5)"
    )
    assert (back.cases_failed, back.passed) == (1, False)
    assert back != report._replace(elapsed=1.5)
    scan = power_scan(10, [2, 3, 5, 7], 32)
    again = pickle.loads(pickle.dumps(scan))
    assert again == scan and type(again) is type(scan)
    assert repr(again) == (
        "PowerScanResult(n=10, prime_set=(2, 3, 5, 7), "
        "min_k={2: 1, 3: 2, 5: 6, 7: 3}, threshold=6, k_cap=32, capped=False)"
    )


def test_power_scan_result_fields_are_read_only():
    scan = power_scan(7, [5], 16)
    for name in ("n", "prime_set", "min_k", "threshold", "k_cap", "capped"):
        with pytest.raises(AttributeError):
            setattr(scan, name, None)
    with pytest.raises(AttributeError):
        scan.extra = 1


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


@pytest.mark.parametrize(
    "index, value",
    [
        (0, Fraction(7)),
        (0, Fraction(1, 49)),
        (0, Fraction(2, 3)),
        (2, Fraction(1, 7)),
        (5, Fraction(1, 7)),
        (7, Fraction(3, 25)),
        (0, Fraction(4, 9)),
    ],
)
def test_sweeps_report_a_corrupted_entry_as_the_polynomial_does(index, value):
    # the main and squarefree sweeps read the polynomial's content off the
    # reduced Bernoulli numbers; under a corrupted entry, odd and B_0 ones
    # included, the content must be the built polynomial's, and the sweeps
    # must list the failures that the polynomial, its lcm, ord_poly and
    # frac_sum give case by case
    btable.bernoulli_numbers(60)
    original = btable._BERNOULLI[index]
    btable._BERNOULLI[index] = value
    try:
        squarefree = verify_squarefree(1, 60).failures
        main = verify_correspondence(1, 60).failures
        expected_squarefree, expected_main = [], []
        contents = []
        for n in range(1, 61):
            f = bernoulli_poly_no_constant(n)
            denom = poly_denominator(f)
            num = math.gcd(*(c.numerator for c in f.coeffs))
            assert btable._content_no_constant(n) == (num, denom), n
            contents.append((num, denom))
            for p in primes_up_to(61):
                if p <= n + 1 and ord_poly(f, p) not in (0, -1):
                    expected_squarefree.append((n, p, ord_poly(f, p), "-1 or 0"))
                if (frac_sum(n, p) > 1) != (denom % p == 0):
                    expected_main.append((n, p, frac_sum(n, p), denom))
    finally:
        btable._BERNOULLI[index] = original
    assert squarefree == expected_squarefree
    assert main == expected_main
    if (index, value) == (0, Fraction(2, 3)):
        # at n = 1 the polynomial is (2/3) x, of 2-adic valuation 1, which
        # the lcm alone does not see
        assert squarefree == [(1, 2, 1, "-1 or 0")]
    if (index, value) == (0, Fraction(4, 9)):
        # at n = 1 the polynomial is (4/9) x: valuation +2 at 2 and -2 at 3
        assert contents[0] == (4, 9)
        assert squarefree[0] == (1, 2, 2, "-1 or 0")


# B_0 = 2/3, pinned: the failures the built polynomial gives for n <= 60
_B0_TWO_THIRDS_SQUAREFREE = [(1, 2, 1, "-1 or 0")]
_B0_TWO_THIRDS_MAIN = [
    (1, 3, Fraction(1, 2), 3), (2, 3, Fraction(1), 3), (3, 3, Fraction(1, 2), 6),
    (4, 3, Fraction(1), 3), (6, 3, Fraction(1), 6), (9, 3, Fraction(1, 2), 30),
    (10, 3, Fraction(1), 6), (12, 3, Fraction(1), 6), (18, 3, Fraction(1), 30),
    (27, 3, Fraction(1, 2), 42), (28, 3, Fraction(1), 6), (30, 3, Fraction(1), 6),
    (36, 3, Fraction(1), 6), (54, 3, Fraction(1), 330),
]


def test_brute_force_route_never_builds_the_polynomial(monkeypatch, capsys):
    # the sweeps and the CLI oracle read the content kernel alone, for a sound
    # table and a corrupted B_0 alike: the polynomial, its lcm and ord_poly
    # are the tests' reference, not a second path of the program
    def refuse(*args):
        raise AssertionError("the brute-force route must not build the polynomial")

    for module in (btable, verify, cli):
        for name in ("bernoulli_poly_no_constant", "ord_poly", "poly_denominator"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    btable.bernoulli_numbers(300)
    original = btable._BERNOULLI[0]
    btable._BERNOULLI[0] = Fraction(2, 3)
    try:
        squarefree = verify_squarefree(1, 60).failures
        main = verify_correspondence(1, 60).failures
        code = cli.main(["denom", "300", "--method", "both"])
    finally:
        btable._BERNOULLI[0] = original
    assert squarefree == _B0_TWO_THIRDS_SQUAREFREE
    assert main == _B0_TWO_THIRDS_MAIN
    result = json.loads(capsys.readouterr().out)["result"]
    assert code == 0 and result["agree"]
    assert result["oracle"] == {"primes": [2, 3, 7, 19, 43], "product": 34314}


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


def test_squarefree_sieves_once_per_sweep(monkeypatch):
    limits = []

    def counting(limit):
        limits.append(limit)
        return primes_up_to(limit)

    monkeypatch.setattr(verify, "primes_up_to", counting)
    whole = verify_squarefree(1, 60)
    part = verify_squarefree(2, 60, step=3)
    assert limits == [61, 61]
    assert whole.cases_total == sum(len(primes_up_to(n + 1)) for n in range(1, 61))
    assert part.cases_total == sum(len(primes_up_to(n + 1)) for n in range(2, 61, 3))


def test_zero_polynomial_is_refused_by_the_sweep_and_ord_poly():
    # B_0 = 0 makes B_1(x) - B_1 the zero polynomial, which has no finite
    # valuation; the sweep raises as ord_poly on the built polynomial does
    btable.bernoulli_numbers(5)
    original = btable._BERNOULLI[0]
    btable._BERNOULLI[0] = Fraction(0)
    try:
        with pytest.raises(ValueError, match="the zero polynomial has no finite valuation"):
            verify_squarefree(1, 5)
        with pytest.raises(ValueError, match="the zero polynomial has no finite valuation"):
            ord_poly(bernoulli_poly_no_constant(1), 2)
    finally:
        btable._BERNOULLI[0] = original


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


def test_binomial_sweep_checks_its_primes_once(monkeypatch):
    # one check per prime per sweep call, none per case: the cases call the
    # unchecked kernels, so the library's own checks never run
    calls = []
    monkeypatch.setattr(verify, "ensure_prime", calls.append)
    monkeypatch.setattr(arith, "ensure_prime", calls.append)
    for n_hi in (12, 40):
        calls.clear()
        assert verify_binomial_valuations(0, n_hi).passed
        assert calls == list(verify.VALUATION_PRIMES)
    monkeypatch.undo()
    # a bad prime is refused before any of the tables, which every case
    # reads, is built
    table_calls = []
    monkeypatch.setattr(verify, "VALUATION_PRIMES", (2, 4))
    for builder in ("_legendre", "_carry_rows", "_lucas_rows"):
        monkeypatch.setattr(
            verify, builder, lambda *args, name=builder: table_calls.append((name, args))
        )
    with pytest.raises(ValueError) as info:
        verify_binomial_valuations(0, 12)
    assert str(info.value) == "p must be prime, got 4"
    assert table_calls == []


@pytest.mark.parametrize(
    "sweep, p_max",
    [(verify_correspondence, lambda n_hi: n_hi + 1), (verify_prime_bound, lambda n_hi: 2 * n_hi)],
    ids=["main", "bound"],
)
def test_fractional_part_sweeps_check_their_primes_once(sweep, p_max, monkeypatch):
    # one check per sieved prime per sweep call, none per case: the cases
    # compare integers, so frac_sum and the library's own checks never run
    calls = []
    monkeypatch.setattr(verify, "ensure_prime", calls.append)
    monkeypatch.setattr(arith, "ensure_prime", calls.append)
    for n_hi in (12, 40):
        calls.clear()
        assert sweep(1, n_hi).passed
        assert calls == primes_up_to(p_max(n_hi))


def test_binomial_sweep_reads_the_exact_binomial(monkeypatch):
    # the running product the sweep advances over k is C(n, k) at every case
    seen = []
    real = verify._ord_abs

    def recording(c, p):
        seen.append((c, p))
        return real(c, p)

    monkeypatch.setattr(verify, "_ord_abs", recording)
    assert verify_binomial_valuations(0, 40).passed
    expected = [
        (math.comb(n, k), p)
        for n in range(41)
        for k in range(n + 1)
        for p in verify.VALUATION_PRIMES
    ]
    assert seen == expected


def _one_more_at(build, at_p, path):
    # the table builder build, with the table for at_p one more at the entry
    # that path names: (m, j), or (carry-in, m, j) for the carry table
    def wrong(limit, p):
        rows = build(limit, p)
        if p == at_p:
            *head, m, j = path
            table = rows[head[0]] if head else rows
            row = bytearray(table[m])
            row[j] += 1
            table[m] = bytes(row)
        return rows

    return wrong


@pytest.mark.parametrize(
    "route, patch",
    [
        # patch(real) gives the route wrong by one and the case (n, p, k)
        # that reads the wrong entry
        ("_legendre", lambda real: (lambda m, p: real(m, p) + (m == 7), (7, 2, 1))),
        # n = 10, k = 3, p = 2 carries out of its low digit and reads rows[1][5][1]
        ("_carry_rows", lambda real: (_one_more_at(real, 2, (1, 5, 1)), (10, 2, 3))),
        # n = 10, k = 3, p = 3 reads rows[3][1]
        ("_lucas_rows", lambda real: (_one_more_at(real, 3, (3, 1)), (10, 3, 3))),
        (
            "_ord_abs",
            lambda real: (
                lambda c, p: real(c, p) + ((c, p) == (math.comb(10, 3), 5)),
                (10, 5, 3),
            ),
        ),
    ],
)
def test_binomial_sweep_catches_each_route_off_by_one(route, patch, monkeypatch):
    # each route the sweep compares, wrong by one at a single entry of its
    # table (or, for the exact count, at a single input), must surface as a
    # failure of the case that reads it
    assert verify_binomial_valuations(0, 20).passed
    wrong, case = patch(getattr(verify, route))
    monkeypatch.setattr(verify, route, wrong)
    failures = verify_binomial_valuations(0, 20).failures
    assert case in [(n, p, witness[0]) for n, p, witness, _ in failures]


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
    reason="the workers must inherit the patched _legendre",
)
def test_sharded_failures_keep_the_serial_order(monkeypatch):
    # a Legendre table one more at m = 1 and m = 2 fails, for n >= 3 and
    # every p, the cases with k or n - k in {1, 2}: several k per n, listed in
    # the serial order n, then k, then p; a sort on (n, p) would put every k
    # of one p before the next p and break the equality below
    real = verify._legendre
    monkeypatch.setattr(verify, "_legendre", lambda m, p: real(m, p) + (m in (1, 2)))
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
        run_suite("nope", 10, jobs=1)
    with pytest.raises(ValueError):
        run_suite("main", 0, jobs=1)
    with pytest.raises(ValueError):
        run_suite("main", 10, jobs=0)


def test_run_suite_refuses_n_max_above_the_cap(monkeypatch):
    # refused up front: no sweep runs and no pool starts
    def refuse(*args, **kwargs):
        raise AssertionError("work started for a refused n_max")

    # run_suite imports the pool from concurrent.futures when it shards
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(verify, "_suite_shard", refuse)
    for suite in verify.SUITE_NAMES:
        with pytest.raises(ValueError, match=str(VERIFY_MAX_N)):
            run_suite(suite, VERIFY_MAX_N + 1, jobs=2)


def test_run_suite_clamps_jobs_to_cpu_count(monkeypatch):
    # with one CPU no pool may start, however many jobs are asked for
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
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


@pytest.fixture
def digit_sum_lengths(monkeypatch):
    """Bit lengths of the numbers the scan takes digit sums of, in order."""
    lengths = []

    def counted_digit_sum(n, p):
        lengths.append(n.bit_length())
        return digit_sum(n, p)

    monkeypatch.setattr(verify, "digit_sum", counted_digit_sum)
    return lengths


# c * 5^m has the base-5 digits of c, so for c = 4 (4 = 4_5, 16 = 31_5) and
# c = 6 (6 = 11_5, 36 = 121_5) the digit sums of n and n^2 stay below 5 and
# p = 5 is still pending at k = 2; the squares have 8192 and 8193 bits
AT_THE_LIMIT = 4 * 5**1763
PAST_THE_LIMIT = 6 * 5**1763


def test_scans_stop_at_the_first_power_past_the_bit_limit(digit_sum_lengths):
    limit = verify.SCAN_MAX_BITS
    # 2 * 3^m has base-3 digit sum 2, so p = 3 is still pending after k = 1,
    # and its square is past the limit: one digit sum, then the refusal
    n = 2 * 3 ** (limit // 3)
    assert n.bit_length() <= limit < (n * n).bit_length()
    with pytest.raises(ValueError, match=r"n\^2 has \d+ bits, above the scan limit"):
        power_scan(n, [3], 10**20)
    assert digit_sum_lengths == [n.bit_length()]
    # one bit past the limit at n^2 is refused the same way
    digit_sum_lengths.clear()
    n = PAST_THE_LIMIT
    assert (n * n).bit_length() == limit + 1
    with pytest.raises(ValueError, match=r"n\^2 has 8193 bits, above the scan limit"):
        power_scan(n, [5], 2)
    assert digit_sum_lengths == [n.bit_length()]
    # an n past the limit is refused before any other work
    digit_sum_lengths.clear()
    with pytest.raises(ValueError, match="n has 8193 bits, above the scan limit"):
        power_scan(2**limit + 1, [5], 1)
    assert digit_sum_lengths == []


def test_scans_at_the_bit_limit_run(digit_sum_lengths):
    limit = verify.SCAN_MAX_BITS
    # a k_cap far past the limit is no bar to a scan that finishes early
    assert power_scan(10, [2, 3], 10**20).threshold == 2
    n = AT_THE_LIMIT
    assert (n * n).bit_length() == limit
    digit_sum_lengths.clear()
    result = power_scan(n, [5], 2)
    assert result.capped and result.min_k == {5: None}
    assert digit_sum_lengths == [n.bit_length(), limit]
    # an n of exactly the limit runs too
    assert power_scan(2 ** (limit - 1) + 1, [3], 1).min_k == {3: 1}


def test_is_power_of():
    assert is_power_of(8, 2)
    assert is_power_of(9, 3)
    assert is_power_of(1, 5)
    assert not is_power_of(12, 2)
    assert not is_power_of(10, 5)


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
