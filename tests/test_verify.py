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


def _halve_the_search_bound(monkeypatch):
    # for n > 1 the sweep then also tests primes below the true bound, some
    # of which push the fractional-part sum above 1
    real = verify.prime_search_bound
    monkeypatch.setattr(verify, "prime_search_bound", lambda n: real(n) // 2 if n > 1 else real(n))


def test_prime_bound_sweep_reports_each_failing_prime(monkeypatch):
    assert verify_prime_bound(1, 12).cases_total == 90
    _halve_the_search_bound(monkeypatch)
    report = verify_prime_bound(1, 12)
    assert (report.cases_total, report.cases_failed) == (103, 8)
    assert report.failures[0] == (3, 2, Fraction(2), 1)
    assert (5, 3, Fraction(3, 2), 1) in report.failures
    assert all(value == frac_sum(n, p) > 1 for n, p, value, _ in report.failures)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the workers must inherit the patched search bound",
)
def test_sharded_bound_sweep_reports_the_serial_failures(monkeypatch):
    _halve_the_search_bound(monkeypatch)
    serial = verify_prime_bound(1, 12)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(verify, "_SHARD_MIN_N", 1)
    sharded = run_suite("bound", 12, jobs=3)
    assert serial.failures
    # every field but the elapsed time
    assert sharded[:4] == serial[:4]


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
    [
        (verify_correspondence, lambda n_hi: n_hi + 1),
        (verify_prime_bound, lambda n_hi: 2 * n_hi),
        (verify_squarefree, lambda n_hi: n_hi + 1),
    ],
    ids=["main", "bound", "squarefree"],
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
    # the integer the sweep reduces once per case, modulo the product of its
    # prime powers, is the running product C(n, k), in the order n, then k
    seen = []
    real = verify._valuation_moduli

    class Recording(int):
        # c % modulus calls this first, since its class subclasses int
        def __rmod__(self, c):
            seen.append(c)
            return c % int(self)

    def recording(n_hi):
        modulus, powers = real(n_hi)
        return Recording(modulus), powers

    monkeypatch.setattr(verify, "_valuation_moduli", recording)
    assert verify_binomial_valuations(0, 40).passed
    assert seen == [math.comb(n, k) for n in range(41) for k in range(n + 1)]


def test_binomial_sweep_counts_a_zero_residue_on_the_binomial(monkeypatch):
    # with each p as its own modulus, the residue x = C(n, k) mod p is 0
    # exactly when p divides C(n, k); the sweep must then count the factors
    # of p on C(n, k) itself, and a count wrong there is a failure of its case
    primes = verify.VALUATION_PRIMES
    moduli = (math.prod(primes), list(primes))
    monkeypatch.setattr(verify, "_valuation_moduli", lambda n_hi: moduli)
    calls = []
    real = verify._ord_abs

    def recording(c, p):
        calls.append((c, p))
        return real(c, p)

    monkeypatch.setattr(verify, "_ord_abs", recording)
    assert verify_binomial_valuations(0, 40).passed
    # first the table of ord_p(x) for 0 < x < p, then one call per case
    table = [(x, p) for p in primes for x in range(1, p)]
    fallback = [
        (math.comb(n, k), p)
        for n in range(41)
        for k in range(n + 1)
        for p in primes
        if math.comb(n, k) % p == 0
    ]
    assert len(fallback) > 1000
    assert calls == table + fallback
    monkeypatch.setattr(verify, "_ord_abs", lambda c, p: real(c, p) + ((c, p) == (210, 5)))
    failures = verify_binomial_valuations(0, 20).failures
    assert (10, 5, (4, 1, 1, 2), (0, 0)) in failures
    assert failures == reference_binomial_failures(0, 20)


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


# the routes the binom sweep compares: patch(real) gives the route wrong by
# one at a single entry of its table (for the exact count, at the single
# input its table is built from) and the case (n, p, k) that reads the wrong
# entry in a sweep to n_hi = 20
OFF_BY_ONE = [
    ("_legendre", lambda real: (lambda m, p: real(m, p) + (m == 7), (7, 2, 1))),
    # n = 10, k = 3, p = 2 carries out of its low digit and reads rows[1][5][1]
    ("_carry_rows", lambda real: (_one_more_at(real, 2, (1, 5, 1)), (10, 2, 3))),
    # n = 10, k = 3, p = 3 reads rows[3][1]
    ("_lucas_rows", lambda real: (_one_more_at(real, 3, (3, 1)), (10, 3, 3))),
    # n = 10, k = 3, p = 5 reads the count for C(10, 3) mod 25 = 20, 25
    # being the least power of 5 above n_hi = 20
    ("_ord_abs", lambda real: (lambda c, p: real(c, p) + ((c, p) == (20, 5)), (10, 5, 3))),
]


@pytest.mark.parametrize("route, patch", OFF_BY_ONE)
def test_binomial_sweep_catches_each_route_off_by_one(route, patch, monkeypatch):
    # each wrong entry must surface as a failure of the case that reads it
    assert verify_binomial_valuations(0, 20).passed
    wrong, case = patch(getattr(verify, route))
    monkeypatch.setattr(verify, route, wrong)
    failures = verify_binomial_valuations(0, 20).failures
    assert case in [(n, p, witness[0]) for n, p, witness, _ in failures]


def reference_binomial_failures(n_lo, n_hi, step=1):
    """The failures of verify_binomial_valuations(n_lo, n_hi, step=step) as
    the sweep found them one case (n, k, p) at a time before it compared
    whole rows: the same tables, read through the module at call time, so
    that a patched route reaches both."""
    modulus, powers = verify._valuation_moduli(n_hi)
    tables = []
    for p, power in zip(verify.VALUATION_PRIMES, powers):
        fact = [verify._legendre(m, p) for m in range(n_hi + 1)]
        exact = bytes([0, *(verify._ord_abs(x, p) for x in range(1, power))])
        carry, lucas = verify._carry_rows(n_hi // p, p), verify._lucas_rows(n_hi // p, p)
        tables.append((p, power, exact, fact, carry, lucas))
    failures = []
    for n in range(n_lo, n_hi + 1, step):
        rows = []
        for p, power, exact, fact, carry, lucas in tables:
            q, r = divmod(n, p)
            low = [math.comb(r, d) % p for d in range(p)]
            carry_q = (carry[0][q], carry[1][q])
            rows.append((p, power, exact, fact, fact[n], r, carry_q, lucas[q], low))
        c = 1
        for k in range(n + 1):
            c_mod = c % modulus
            for p, power, exact, fact, fact_n, r, carry, lucas, low in rows:
                q, d = divmod(k, p)
                out = d > r
                v_legendre = fact_n - fact[k] - fact[n - k]
                v_carries = out + carry[out][q]
                x = c_mod % power
                v_exact = exact[x] if x else verify._ord_abs(c, p)
                residue = low[d] * lucas[q] % p
                ok = (
                    v_legendre == v_carries == v_exact
                    and residue == x % p
                    and (residue != 0) == (v_exact == 0)
                )
                if not ok:
                    failures.append(
                        (n, p, (k, v_legendre, v_carries, v_exact), (residue, x % p))
                    )
            c = c * (n - k) // (k + 1)
    return failures


# the corruptions the row sweep is checked under, by id: none, each route of
# OFF_BY_ONE alone, and several at once, so that one n has several suspect
# p and one case is wrong on several routes. With _legendre and _lucas_rows
# wrong together, n = 10 fails at k = 3 for p = 3 on both; with _carry_rows
# wrong at rows[1][5][1] for p = 2 and at rows[0][3][1] for p = 3, n = 10
# fails at k = 3 for both p. With _ord_abs one less at (20, 5), the exact
# count of x = 20 reads 0 although 5 divides 20: a code at odds with x % p,
# which the carry and Legendre comparisons make a suspect
CORRUPTIONS = {
    "clean": [],
    **{route: [(route, patch)] for route, patch in OFF_BY_ONE},
    "_legendre+_lucas_rows": [OFF_BY_ONE[0], OFF_BY_ONE[2]],
    "_carry_rows_at_2_and_3": [
        (
            "_carry_rows",
            lambda real: (_one_more_at(_one_more_at(real, 2, (1, 5, 1)), 3, (0, 3, 1)), None),
        )
    ],
    "every_route": OFF_BY_ONE,
    "_ord_abs_one_less": [
        ("_ord_abs", lambda real: (lambda c, p: real(c, p) - ((c, p) == (20, 5)), None))
    ],
}


@pytest.mark.parametrize("patches", CORRUPTIONS.values(), ids=CORRUPTIONS)
def test_binomial_rows_match_the_case_by_case_sweep(patches, monkeypatch):
    # on clean tables and under each corruption, the row sweep gives the
    # failure list of the case-by-case reference, serial and strided
    for route, patch in patches:
        monkeypatch.setattr(verify, route, patch(getattr(verify, route))[0])
    assert bool(reference_binomial_failures(0, 120)) == bool(patches)
    for step in (1, 2, 3):
        for n_lo in range(step):
            expected = reference_binomial_failures(n_lo, 120, step)
            assert verify_binomial_valuations(n_lo, 120, step=step).failures == expected


@pytest.mark.parametrize("delta", [1, 256, 65536, -1])
def test_binomial_rows_hide_no_error_between_lanes(delta, monkeypatch):
    # the Legendre row is compared with the counts as one integer of 16-bit
    # lanes; an entry ord_p(37!) wrong by delta must fail every case that
    # reads it, with no carry into, or borrow from, a neighbouring lane
    # making the integers equal. +65536 takes the entry out of [0, 2^14),
    # where the lanes are exact, so every n is then checked case by case
    real = verify._legendre
    monkeypatch.setattr(verify, "_legendre", lambda m, p: real(m, p) + delta * (m == 37))
    failures = verify_binomial_valuations(0, 60).failures
    assert failures == reference_binomial_failures(0, 60)
    # per p, n > 37 fails at k = 37 and k = n - 37, and n = 37 at 0 < k < 37
    for p in verify.VALUATION_PRIMES:
        failing = {(n, witness[0]) for n, q, witness, _ in failures if q == p}
        reading = {(n, k) for n in range(38, 61) for k in (37, n - 37)}
        assert failing == reading | {(37, k) for k in range(1, 37)}


def test_binomial_sweep_rows_match_the_digit_loops():
    # the carry and Lucas rows the sweep builds for n from the table rows of
    # n // p, entry by entry against the public digit loops
    plus_one = bytes(range(1, 256)) + b"\xff"
    for p in verify.VALUATION_PRIMES:
        carry, lucas = verify._carry_rows(150 // p, p), verify._lucas_rows(150 // p, p)
        products = verify._products_mod(p)
        for m in range(151):
            assert list(verify._carry_row(carry, m, p, plus_one)) == [
                arith.kummer_carries(m, j, p) for j in range(m + 1)
            ]
            assert list(verify._lucas_row(lucas, m, p, products)) == [
                arith.lucas_binom_mod(m, j, p) for j in range(m + 1)
            ]


# --- the suite runner ---------------------------------------------------------------


@pytest.mark.parametrize("suite", ["main", "bound", "squarefree", "binom"])
def test_run_suite_independent_of_jobs(suite, monkeypatch):
    # three shards on any host, since run_suite clamps jobs to the CPU count,
    # and at this n_max, since the shard threshold is lowered to 1
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(verify, "_SHARD_MIN_N", 1)
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
    monkeypatch.setattr(verify, "_SHARD_MIN_N", 1)
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
    # refused up front: no sweep runs and no pool starts, for one suite or
    # for the several of one command
    def refuse(*args, **kwargs):
        raise AssertionError("work started for a refused n_max")

    # _run_suites imports the pool from concurrent.futures when a suite shards
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(verify, "_suite_shard", refuse)
    for suite in verify.SUITE_NAMES:
        with pytest.raises(ValueError, match=str(VERIFY_MAX_N)):
            run_suite(suite, VERIFY_MAX_N + 1, jobs=2)
    with pytest.raises(ValueError, match=str(VERIFY_MAX_N)):
        verify._run_suites(verify.SUITE_NAMES, VERIFY_MAX_N + 1, 2)


def test_a_verify_command_starts_at_most_one_pool(monkeypatch, capsys):
    # every suite's shards share one pool; one job, or a refused call,
    # starts none. The real pool runs, with the worker count of each one
    # started recorded
    real = concurrent.futures.ProcessPoolExecutor
    started = []

    def counting(max_workers):
        started.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(verify, "_SHARD_MIN_N", 1)
    assert cli.main(["verify", "all", "--max-n", "40", "--jobs", "2"]) == 0
    assert started == [2]
    sharded = json.loads(capsys.readouterr().out)["result"]
    started.clear()
    assert cli.main(["verify", "all", "--max-n", "40", "--jobs", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == sharded
    refused = (
        "verify all --max-n 1001 --jobs 2",
        "verify all --max-n 0 --jobs 2",
        "verify all --max-n 40 --jobs 0",
        "verify nope --max-n 40 --jobs 2",
    )
    for call in refused:
        assert cli.main(call.split()) == 1
    # every suite is checked before the first one runs
    def refuse(*args, **kwargs):
        raise AssertionError("a suite ran before every suite was checked")

    monkeypatch.setattr(verify, "run_suite", refuse)
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        verify._run_suites(("main", "nope"), 40, 2)
    assert started == []


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the workers must inherit the corrupted table",
)
def test_no_pool_outlives_its_verify_command(monkeypatch, capsys):
    # three sharded commands in one process: a pool that outlived the first
    # would run the second on workers that never saw the corrupted entry, and
    # the third on workers that never saw it restored
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(verify, "_SHARD_MIN_N", 1)

    def run(jobs):
        code = cli.main(["verify", "main", "--max-n", "60", "--jobs", jobs])
        return code, json.loads(capsys.readouterr().out)["result"]["suites"][0]["failures"]

    assert run("2") == (0, [])
    btable.bernoulli_numbers(60)
    original = btable._BERNOULLI[2]
    btable._BERNOULLI[2] = Fraction(1, 7)
    try:
        corrupted = run("2")
        serial = run("1")
    finally:
        btable._BERNOULLI[2] = original
    assert corrupted[0] == 2 and corrupted[1]
    assert corrupted == serial
    assert run("2") == (0, [])


def test_run_suite_clamps_jobs_to_cpu_count(monkeypatch):
    # with one CPU no pool may start, however many jobs are asked for
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(verify, "_SHARD_MIN_N", 1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    clamped = run_suite("main", 10, jobs=10**6)
    serial = run_suite("main", 10, jobs=1)
    assert clamped.cases_total == serial.cases_total
    assert clamped.failures == serial.failures
    assert clamped.range_checked == serial.range_checked


@pytest.mark.parametrize("suite", verify.SUITE_NAMES)
def test_suites_shard_only_from_the_threshold(suite, monkeypatch):
    # the threshold is at most the cap, so the pool stays reachable
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert verify._SHARD_MIN_N <= VERIFY_MAX_N
    assert verify._shard_count(suite, verify._SHARD_MIN_N - 1, 8) == 1
    assert verify._shard_count(suite, verify._SHARD_MIN_N, 8) == 2


def test_refusals_hold_below_the_shard_threshold(monkeypatch, capsys):
    # one shard below the threshold, but only after every argument is checked:
    # a refused call runs no sweep
    def refuse(*args, **kwargs):
        raise AssertionError("a sweep ran for a refused call")

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(verify, "_suite_shard", refuse)
    below = verify._SHARD_MIN_N - 1
    for suite, n_max, jobs in (
        ("main", below, 0),
        ("main", 0, 2),
        ("main", VERIFY_MAX_N + 1, 2),
        ("nope", below, 2),
    ):
        with pytest.raises(ValueError):
            run_suite(suite, n_max, jobs)
        with pytest.raises(ValueError):
            verify._run_suites((suite,), n_max, jobs)
    refused = (
        f"verify all --max-n {below} --jobs 0",
        "verify all --max-n 0 --jobs 2",
        f"verify all --max-n {VERIFY_MAX_N + 1} --jobs 2",
        f"verify nope --max-n {below} --jobs 2",
    )
    for call in refused:
        assert cli.main(call.split()) == 1
    assert capsys.readouterr().out == ""


def test_a_sweep_at_the_shard_threshold_starts_one_pool(monkeypatch, capsys):
    # the counting pattern of test_a_verify_command_starts_at_most_one_pool,
    # with the threshold as it stands: none below it, one of two workers at it
    real = concurrent.futures.ProcessPoolExecutor
    started = []

    def counting(max_workers):
        started.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for n_max, pools in ((verify._SHARD_MIN_N - 1, []), (verify._SHARD_MIN_N, [2])):
        started.clear()
        assert cli.main(["verify", "bound", "--max-n", str(n_max), "--jobs", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["passed"]
        assert started == pools


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
