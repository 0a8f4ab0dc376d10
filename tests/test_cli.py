"""Command-line contract tests: exit codes, serialization, determinism."""

import argparse
import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from berndenom import bernoulli as btable
from berndenom.arith import MILLER_RABIN_LIMIT
from berndenom.bernoulli import bernoulli_numbers, denom_formula
from berndenom.cli import build_parser, main
from berndenom.verify import VERIFY_MAX_N


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


# --- denom ------------------------------------------------------------------


def test_denom_both_agrees(capsys):
    code, record = run_json(capsys, "denom", "5", "--method", "both")
    assert code == 0
    assert record["result"]["formula"] == {"primes": [2, 3], "product": 6}
    assert record["result"]["oracle"] == {"primes": [2, 3], "product": 6}
    assert record["result"]["agree"] is True
    assert record["exact"] is True


def test_denom_trivial_index(capsys):
    code, record = run_json(capsys, "denom", "1")
    assert code == 0
    assert record["result"]["formula"]["product"] == 1
    assert record["result"]["oracle"]["product"] == 1


def test_denom_formula_only(capsys):
    code, record = run_json(capsys, "denom", "9", "--method", "formula")
    assert code == 0
    assert record["result"]["formula"] == {"primes": [2, 5], "product": 10}
    assert "oracle" not in record["result"]


def test_denom_rejects_zero(capsys):
    code, out, err = run_cli(capsys, "denom", "0")
    assert code == 1
    assert out == ""
    assert "error" in err


def test_denom_refuses_oversized_sieve(capsys):
    code, out, err = run_cli(capsys, "denom", str(10**12), "--method", "formula")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_denom_detects_corrupted_table(capsys):
    btable.bernoulli_number(2)
    original = btable._BERNOULLI[2]
    btable._BERNOULLI[2] = Fraction(1, 7)
    try:
        code, record = run_json(capsys, "denom", "3", "--method", "both")
    finally:
        btable._BERNOULLI[2] = original
    assert code == 2
    assert record["result"]["agree"] is False
    assert record["result"]["formula"]["product"] == 2
    assert record["result"]["oracle"]["product"] == 14


def test_denom_round_trips(capsys):
    code, record = run_json(capsys, "denom", "13", "--method", "both")
    assert code == 0
    fact = denom_formula(13)
    assert record["result"]["formula"]["primes"] == list(fact.primes)
    assert record["result"]["formula"]["product"] == fact.product


def test_denom_csv_and_plain(capsys):
    code, out, _ = run_cli(capsys, "denom", "5", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "method", "primes", "product", "agree"]
    assert rows[1] == ["5", "formula", "2;3", "6", "True"]
    code, out, _ = run_cli(capsys, "denom", "5", "--format", "plain")
    assert code == 0
    assert "agree: yes" in out


# --- frac -------------------------------------------------------------------


def test_frac_exceeding_one(capsys):
    code, record = run_json(capsys, "frac", "9", "5")
    assert code == 0
    assert record["result"] == {"value": "5/4", "digit_sum": 5, "gt_one": True}
    assert Fraction(record["result"]["value"]) == Fraction(5, 4)


def test_frac_zero(capsys):
    code, record = run_json(capsys, "frac", "0", "7")
    assert code == 0
    assert record["result"] == {"value": "0", "digit_sum": 0, "gt_one": False}


def test_frac_plain(capsys):
    code, out, err = run_cli(capsys, "frac", "9", "5", "--format", "plain")
    assert (code, err) == (0, "")
    assert out == "frac(9 | 5) = 5/4  digit_sum=5  gt_one=yes\n"


def test_frac_rejects_composite(capsys):
    code, out, err = run_cli(capsys, "frac", "9", "4")
    assert code == 1
    assert "prime" in err


def test_frac_with_a_large_prime_answers_quickly():
    # trial division to sqrt(p) would run for years here
    done = subprocess.run(
        [sys.executable, "-m", "berndenom", "frac", "5", str(10**24 + 7)],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stdout)
    assert record["result"]["value"] == f"5/{10**24 + 6}"
    assert record["meta"]["elapsed_ms"] < 1000


def test_frac_refuses_p_beyond_the_primality_range(capsys):
    code, out, err = run_cli(capsys, "frac", "5", str(MILLER_RABIN_LIMIT))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# --- verify -----------------------------------------------------------------


def test_verify_single_case(capsys):
    code, record = run_json(capsys, "verify", "main", "--max-n", "1", "--jobs", "1")
    assert code == 0
    suite = record["result"]["suites"][0]
    assert suite["cases_total"] == 1
    assert suite["cases_failed"] == 0


def test_verify_all_smoke(capsys):
    code, record = run_json(capsys, "verify", "all", "--max-n", "40", "--jobs", "2")
    assert code == 0
    assert record["result"]["passed"] is True
    assert [s["suite"] for s in record["result"]["suites"]] == [
        "main",
        "bound",
        "squarefree",
        "binom",
    ]
    assert set(record["meta"]["suite_elapsed_ms"]) == {
        "main",
        "bound",
        "squarefree",
        "binom",
    }


def test_verify_unknown_suite(capsys):
    code, out, err = run_cli(capsys, "verify", "bogus")
    assert code == 1
    assert "usage error" in err


def test_verify_rejects_bad_flags(capsys):
    assert run_cli(capsys, "verify", "main", "--max-n", "0")[0] == 1
    assert run_cli(capsys, "verify", "main", "--max-n", "5", "--jobs", "0")[0] == 1


def test_verify_refuses_max_n_above_the_cap(capsys):
    code, out, err = run_cli(capsys, "verify", "all", "--max-n", str(VERIFY_MAX_N + 1))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_failure_exits_two(capsys):
    # corrupt the table with a prime inside the swept window (primes <= 5)
    btable.bernoulli_number(2)
    original = btable._BERNOULLI[2]
    btable._BERNOULLI[2] = Fraction(1, 5)
    try:
        code, record = run_json(capsys, "verify", "main", "--max-n", "4", "--jobs", "1")
    finally:
        btable._BERNOULLI[2] = original
    assert code == 2
    assert record["result"]["passed"] is False
    suite = record["result"]["suites"][0]
    assert suite["cases_failed"] == len(suite["failures"]) > 0


def test_verify_csv(capsys):
    code, out, _ = run_cli(capsys, "verify", "main", "--max-n", "10", "--jobs", "1", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["suite", "range", "cases_total", "cases_failed", "status"]
    assert rows[1][0] == "main" and rows[1][4] == "pass"


def test_verify_plain(capsys):
    code, out, err = run_cli(
        capsys, "verify", "main", "--max-n", "10", "--jobs", "1", "--format", "plain"
    )
    assert (code, err) == (0, "")
    assert out == (
        "main: 50 cases, 0 failures [PASS]  (n in [1, 10], primes p <= 11)\n"
        "all passed\n"
    )


def test_verify_jobs_do_not_change_output(capsys, monkeypatch):
    # three shards on any host, since run_suite clamps jobs to the CPU count
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    outputs = []
    for jobs in ("1", "2", "3"):
        code, record = run_json(capsys, "verify", "all", "--max-n", "60", "--jobs", jobs)
        assert code == 0
        record.pop("meta")
        record["inputs"].pop("jobs")
        outputs.append(json.dumps(record, indent=2))
    assert outputs[0] == outputs[1] == outputs[2]


# --- scan -------------------------------------------------------------------


def test_scan_single_prime(capsys):
    code, record = run_json(capsys, "scan", "7", "--primes", "5", "--k-cap", "16")
    assert code == 0
    assert record["result"]["min_k"] == {"5": 2}
    assert record["result"]["M"] == 2


def test_scan_power_rejected(capsys):
    code, out, err = run_cli(capsys, "scan", "8", "--primes", "2")
    assert code == 1
    assert "power" in err


def test_scan_full_set(capsys):
    code, record = run_json(capsys, "scan", "10", "--primes", "2,3,5,7")
    assert code == 0
    assert record["result"]["min_k"] == {"2": 1, "3": 2, "5": 6, "7": 3}
    assert record["result"]["M"] == 6
    assert record["result"]["capped"] is False


def test_scan_plain(capsys):
    code, out, err = run_cli(capsys, "scan", "10", "--primes", "2,3,5,7", "--format", "plain")
    assert (code, err) == (0, "")
    assert out == (
        "scan n=10 primes=[2, 3, 5, 7] k_cap=64\n"
        "  p=2: min k = 1\n"
        "  p=3: min k = 2\n"
        "  p=5: min k = 6\n"
        "  p=7: min k = 3\n"
        "M = 6  capped=no\n"
    )


def test_scan_capped_exit_code(capsys):
    code, record = run_json(capsys, "scan", "7", "--primes", "5", "--k-cap", "1")
    assert code == 3
    assert record["result"]["capped"] is True
    assert record["result"]["M"] is None


def test_scan_rejects_garbage_primes(capsys):
    assert run_cli(capsys, "scan", "10", "--primes", "2,x")[0] == 1
    assert run_cli(capsys, "scan", "10", "--primes", "")[0] == 1


# --- bernoulli ----------------------------------------------------------------


def test_bernoulli_first_three(capsys):
    code, record = run_json(capsys, "bernoulli", "--max", "2")
    assert code == 0
    assert record["result"]["values"] == ["1", "-1/2", "1/6"]


def test_bernoulli_zero_index(capsys):
    code, record = run_json(capsys, "bernoulli", "--max", "0")
    assert code == 0
    assert record["result"]["values"] == ["1"]


def test_bernoulli_odd_entries_are_zero_strings(capsys):
    code, record = run_json(capsys, "bernoulli", "--max", "9")
    assert code == 0
    values = record["result"]["values"]
    assert values[3] == values[5] == values[7] == values[9] == "0"


def test_bernoulli_round_trips(capsys):
    code, record = run_json(capsys, "bernoulli", "--max", "16")
    assert code == 0
    parsed = [Fraction(v) for v in record["result"]["values"]]
    assert parsed == bernoulli_numbers(16)


def test_bernoulli_over_cap(capsys):
    assert run_cli(capsys, "bernoulli", "--max", "10", "--cap", "5")[0] == 1


def test_bernoulli_csv(capsys):
    code, out, _ = run_cli(capsys, "bernoulli", "--max", "4", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["index", "value"]
    assert rows[2] == ["1", "-1/2"]
    assert rows[5] == ["4", "-1/30"]


# --- stewart ---------------------------------------------------------------------


def test_stewart_is_marked_inexact(capsys):
    code, record = run_json(capsys, "stewart", "26", "1.0")
    assert code == 0
    assert record["exact"] is False
    assert isinstance(record["result"]["value"], float)


def test_stewart_plain(capsys):
    code, out, err = run_cli(capsys, "stewart", "1000", "1.5", "--format", "plain")
    assert (code, err) == (0, "")
    assert out == "stewart(n=1000, c=1.5) ~ -0.10479678121108005\n"


def test_stewart_domain_error(capsys):
    assert run_cli(capsys, "stewart", "25", "1.0")[0] == 1
    for c in ("nan", "inf"):
        code, out, err = run_cli(capsys, "stewart", "1000", c)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


# --- configuration ------------------------------------------------------------------


def test_env_cap_is_honored_and_flag_wins(capsys, monkeypatch):
    monkeypatch.setenv("BERNDENOM_BERNOULLI_CAP", "5")
    assert run_cli(capsys, "bernoulli", "--max", "10")[0] == 1
    assert run_cli(capsys, "bernoulli", "--max", "10", "--cap", "20")[0] == 0


def test_env_k_cap_is_honored_and_flag_wins(capsys, monkeypatch):
    monkeypatch.setenv("BERNDENOM_K_CAP", "1")
    assert run_cli(capsys, "scan", "7", "--primes", "5")[0] == 3
    assert run_cli(capsys, "scan", "7", "--primes", "5", "--k-cap", "16")[0] == 0


def test_malformed_env_value_is_an_error(capsys, monkeypatch):
    monkeypatch.setenv("BERNDENOM_K_CAP", "soon")
    assert run_cli(capsys, "scan", "7", "--primes", "5")[0] == 1


def test_format_choices_per_command():
    parser = build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    choices = {
        name: tuple(next(a.choices for a in sub._actions if a.dest == "format"))
        for name, sub in commands.choices.items()
    }
    assert choices == {
        "denom": ("json", "csv", "plain"),
        "frac": ("json", "plain"),
        "verify": ("json", "csv", "plain"),
        "scan": ("json", "plain"),
        "bernoulli": ("json", "csv"),
        "stewart": ("json", "plain"),
    }


@pytest.mark.parametrize(
    "argv",
    [("frac", "5", "1"), ("frac", "-1", "5"), ("bernoulli", "--max", "-1"), ("denom", "0")],
)
def test_domain_errors_give_one_error_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# --- output handling -----------------------------------------------------------------


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "denom", "5", "--output", str(target))
    assert code == 0
    assert out == ""
    record = json.loads(target.read_text())
    assert record["result"]["agree"] is True


def test_output_to_missing_directory_is_an_error(tmp_path, capsys):
    target = tmp_path / "missing" / "r.json"
    code, out, err = run_cli(capsys, "denom", "5", "--output", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert not target.exists()


def test_results_beyond_the_int_str_digit_limit_print_exactly(capsys):
    # a 655-digit product and Bernoulli numerators of several hundred digits,
    # above a caller's limit of 640 digits, which main must leave in place
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        as_json = run_cli(capsys, "denom", "1000000", "--method", "formula")
        as_plain = run_cli(capsys, "denom", "1000000", "--method", "formula", "--format", "plain")
        bern = run_cli(capsys, "bernoulli", "--max", "600")
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(old)
    product = denom_formula(10**6).product
    assert len(str(product)) == 655
    assert as_json[0] == 0 and as_json[2] == ""
    assert json.loads(as_json[1])["result"]["formula"]["product"] == product
    assert as_plain[0] == 0 and as_plain[2] == ""
    assert as_plain[1].endswith(f" product={product}\n")
    assert bern[0] == 0 and bern[2] == ""
    values = [Fraction(v) for v in json.loads(bern[1])["result"]["values"]]
    assert values == bernoulli_numbers(600)


def test_repeated_runs_identical_modulo_meta(capsys):
    _, first = run_json(capsys, "denom", "9", "--method", "both")
    _, second = run_json(capsys, "denom", "9", "--method", "both")
    first.pop("meta")
    second.pop("meta")
    assert json.dumps(first, indent=2) == json.dumps(second, indent=2)
    _, first = run_json(capsys, "scan", "10", "--primes", "2,3,5,7")
    _, second = run_json(capsys, "scan", "10", "--primes", "2,3,5,7")
    first.pop("meta")
    second.pop("meta")
    assert json.dumps(first, indent=2) == json.dumps(second, indent=2)


# --- the installed entry point ---------------------------------------------------------


def test_subprocess_exit_codes():
    ok = subprocess.run(
        [sys.executable, "-m", "berndenom", "denom", "5", "--method", "both"],
        capture_output=True,
        text=True,
    )
    assert ok.returncode == 0
    assert json.loads(ok.stdout)["result"]["agree"] is True
    bad = subprocess.run(
        [sys.executable, "-m", "berndenom", "frac", "9", "4"],
        capture_output=True,
        text=True,
    )
    assert bad.returncode == 1
