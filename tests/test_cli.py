"""Command-line contract tests: exit codes, serialization, determinism."""

import csv
import io
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from berndenom import bernoulli as btable
from berndenom.bernoulli import bernoulli_numbers, denom_formula
from berndenom.cli import main


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


def test_frac_rejects_composite(capsys):
    code, out, err = run_cli(capsys, "frac", "9", "4")
    assert code == 1
    assert "prime" in err


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


def test_verify_jobs_do_not_change_output(capsys):
    _, first = run_json(capsys, "verify", "main", "--max-n", "25", "--jobs", "1")
    _, second = run_json(capsys, "verify", "main", "--max-n", "25", "--jobs", "3")
    first.pop("meta")
    second.pop("meta")
    first["inputs"].pop("jobs")
    second["inputs"].pop("jobs")
    assert first == second


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


# --- output handling -----------------------------------------------------------------


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "denom", "5", "--output", str(target))
    assert code == 0
    assert out == ""
    record = json.loads(target.read_text())
    assert record["result"]["agree"] is True


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
