"""Command-line contract tests: exit codes, serialization, determinism."""

import argparse
import csv
import io
import json
import os
import stat
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from berndenom import bernoulli as btable
from berndenom import verify
from berndenom.arith import MILLER_RABIN_LIMIT
from berndenom.bernoulli import _content_no_constant, bernoulli_numbers, denom_formula
from berndenom.cli import _factor_squarefree, build_parser, main
from berndenom.verify import SCAN_MAX_BITS, VERIFY_MAX_N

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


def run_child(*args, timeout=None):
    """Run a Python child on this checkout's src, put in front of any PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=timeout,
    )


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


def test_denom_reports_a_non_squarefree_oracle_denominator():
    # B_2 corrupted to 1/4 leaves 4 in the oracle denominator, so the factoring
    # meets a repeated prime; a child with a timeout turns a hang into a failure
    script = (
        "from fractions import Fraction\n"
        "from berndenom import bernoulli, cli\n"
        "bernoulli.bernoulli_number(2)\n"
        "bernoulli._BERNOULLI[2] = Fraction(1, 4)\n"
        "raise SystemExit(cli.main(['denom', '3', '--method', 'both']))\n"
    )
    proc = run_child("-c", script, timeout=60)
    assert (proc.returncode, proc.stderr) == (2, "")
    result = json.loads(proc.stdout)["result"]
    assert result["oracle"] == {"primes": [2], "product": 4}
    assert result["formula"] == {"primes": [2], "product": 2}
    assert result["agree"] is False


@pytest.mark.parametrize(
    "denominator",
    [(2**61 - 1) * (2**31 - 1) ** 2, 143],
    ids=["beyond_trial_division", "composite"],
)
def test_denom_lists_a_cofactor_left_by_a_corrupted_table_unfactored(denominator):
    # B_2 corrupted to 1/d leaves d, coprime to the primes up to n + 1 = 4, in
    # the oracle denominator; the factoring lists it as one entry and exits 2
    # at once, where trial division would not end for the first d. A child
    # with a timeout turns a hang into a failure
    script = (
        "from fractions import Fraction\n"
        "from berndenom import bernoulli, cli\n"
        "bernoulli.bernoulli_number(2)\n"
        f"bernoulli._BERNOULLI[2] = Fraction(1, {denominator})\n"
        "raise SystemExit(cli.main(['denom', '3', '--method', 'both']))\n"
    )
    proc = run_child("-c", script, timeout=60)
    assert (proc.returncode, proc.stderr) == (2, "")
    result = json.loads(proc.stdout)["result"]
    assert result["oracle"] == {"primes": [2, denominator], "product": 2 * denominator}
    assert result["agree"] is False


def test_oracle_primes_are_the_formula_primes_on_the_sound_table():
    for n in range(1, 601):
        assert _factor_squarefree(_content_no_constant(n)[1], n) == list(denom_formula(n).primes)


def test_denom_factors_a_large_prime_left_by_a_corrupted_table(capsys):
    # B_2 corrupted to 1/(2^61 - 1) leaves that prime in the oracle
    # denominator; the factoring must list it at once rather than
    # trial-divide up to it, or up to its square root
    big = 2**61 - 1
    btable.bernoulli_number(2)
    original = btable._BERNOULLI[2]
    btable._BERNOULLI[2] = Fraction(1, big)
    try:
        code, record = run_json(capsys, "denom", "3", "--method", "both")
    finally:
        btable._BERNOULLI[2] = original
    assert code == 2
    assert record["result"]["oracle"] == {"primes": [2, big], "product": 2 * big}
    assert record["result"]["agree"] is False


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
    done = run_child("-m", "berndenom", "frac", "5", str(10**24 + 7), timeout=30)
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
    # corrupt the table with a prime inside the swept window (primes <= 7);
    # every format reports the failures and exits 2
    btable.bernoulli_number(2)
    original = btable._BERNOULLI[2]
    btable._BERNOULLI[2] = Fraction(1, 7)
    call = ("verify", "main", "--max-n", "6", "--jobs", "1", "--format")
    try:
        runs = {fmt: run_cli(capsys, *call, fmt) for fmt in ("json", "plain", "csv")}
    finally:
        btable._BERNOULLI[2] = original
    assert [(code, err) for code, _, err in runs.values()] == [(2, "")] * 3
    record = json.loads(runs["json"][1])
    assert record["result"]["passed"] is False
    suite = record["result"]["suites"][0]
    assert suite["cases_failed"] == len(suite["failures"]) == 4
    plain = runs["plain"][1].splitlines()
    assert plain[0] == "main: 24 cases, 4 failures [FAIL]  (n in [1, 6], primes p <= 7)"
    assert plain[1] == "  counterexample: [3, 7, '1/2', '14']"
    assert plain[1:] == [f"  counterexample: {f}" for f in suite["failures"]] + ["FALSIFIED"]
    assert runs["csv"][1].splitlines()[1] == 'main,"n in [1, 6], primes p <= 7",24,4,fail'


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
    # three shards on any host, since run_suite clamps jobs to the CPU count,
    # and at this n_max, since the shard threshold is lowered to 1
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(verify, "_SHARD_MIN_N", 1)
    outputs = []
    for jobs in ("1", "2", "3"):
        code, record = run_json(capsys, "verify", "all", "--max-n", "60", "--jobs", jobs)
        assert code == 0
        record.pop("meta")
        record["inputs"].pop("jobs")
        outputs.append(json.dumps(record, indent=2))
    assert outputs[0] == outputs[1] == outputs[2]


def test_verify_jobs_defaults_to_the_cpu_count(capsys, monkeypatch):
    for cpus, jobs in ((3, 3), (None, 1)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        code, record = run_json(capsys, "verify", "main", "--max-n", "5")
        assert (code, record["inputs"]["jobs"]) == (0, jobs)


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


def test_scan_with_a_k_cap_past_the_bit_limit_stops_early(capsys):
    code, record = run_json(
        capsys, "scan", "10", "--primes", "2,3", "--k-cap", "100000000000000000000"
    )
    assert code == 0
    assert record["result"]["min_k"] == {"2": 1, "3": 2}
    assert record["result"]["M"] == 2


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
    assert run_cli(capsys, "bernoulli", "--max", "5001")[0] == 1


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


# --- the record, the parser and errors -------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("denom", "9"),
        ("frac", "9", "5"),
        ("verify", "main", "--max-n", "5", "--jobs", "1"),
        ("scan", "10", "--primes", "2,3"),
        ("bernoulli", "--max", "4"),
        ("stewart", "1000", "1.5"),
    ],
    ids=lambda argv: argv[0],
)
def test_record_envelope(capsys, argv):
    code, record = run_json(capsys, *argv)
    assert code == 0
    assert list(record) == ["command", "inputs", "result", "exact", "meta"]
    assert record["command"] == argv[0]
    assert record["exact"] is (argv[0] != "stewart")
    extra = ["suite_elapsed_ms"] if argv[0] == "verify" else []
    assert list(record["meta"]) == ["elapsed_ms", *extra, "version"]


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
    [
        ("frac", "5", "1"),
        ("frac", "-1", "5"),
        ("bernoulli", "--max", "-1"),
        ("denom", "0"),
        ("bernoulli", "--max", "5001"),
        ("denom", "5001", "--method", "oracle"),
        # p = 3 is still pending when the scan reaches n^2, past the bit limit
        ("scan", str(2 * 3 ** (SCAN_MAX_BITS // 3)), "--primes", "3", "--k-cap", "10"),
        ("scan", str(2**SCAN_MAX_BITS + 1), "--primes", "3"),
    ],
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


def test_output_replaces_a_report_whole_and_leaves_no_temp_files(tmp_path, capsys):
    target = tmp_path / "r.json"
    target.write_text("old report\n")
    code, out, err = run_cli(capsys, "denom", "5", "--output", str(target))
    assert (code, out, err) == (0, "", "")
    assert json.loads(target.read_text())["result"]["agree"] is True
    assert sorted(tmp_path.iterdir()) == [target]


@pytest.mark.parametrize("step", ["fsync", "replace"])
def test_failed_output_keeps_the_old_report(tmp_path, capsys, monkeypatch, step):
    def fail(*args):
        raise OSError(5, "Input/output error")

    target = tmp_path / "r.json"
    target.write_text("old report\n")
    monkeypatch.setattr(os, step, fail)
    code, out, err = run_cli(capsys, "denom", "5", "--output", str(target))
    assert (code, out) == (1, "")
    assert err == f"error: [Errno 5] Input/output error: {str(target)!r}\n"
    assert target.read_text() == "old report\n"
    assert sorted(tmp_path.iterdir()) == [target]


def test_output_keeps_the_mode_of_an_existing_report(tmp_path, capsys):
    target = tmp_path / "r.json"
    target.write_text("old report\n")
    target.chmod(0o600)
    assert run_cli(capsys, "denom", "5", "--output", str(target)) == (0, "", "")
    assert json.loads(target.read_text())["result"]["agree"] is True
    assert stat.S_IMODE(target.stat().st_mode) == 0o600


@pytest.mark.parametrize("existing", [True, False])
def test_output_writes_through_a_symlink(tmp_path, capsys, existing):
    report = tmp_path / "reports" / "r.json"
    report.parent.mkdir()
    if existing:
        report.write_text("old report\n")
    link = tmp_path / "link.json"
    link.symlink_to(report)
    assert run_cli(capsys, "denom", "5", "--output", str(link)) == (0, "", "")
    assert link.is_symlink() and os.readlink(link) == str(report)
    assert json.loads(report.read_text())["result"]["agree"] is True
    assert sorted(tmp_path.iterdir()) == [link, report.parent]
    assert list(report.parent.iterdir()) == [report]


def test_output_writes_into_a_fifo(tmp_path, capsys):
    # a special file is written through, not replaced; the reader is opened
    # first and non-blocking, so neither side waits
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert run_cli(capsys, "denom", "5", "--output", str(fifo)) == (0, "", "")
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        record = json.loads(os.read(reader, 1 << 16))
    finally:
        os.close(reader)
    assert record["result"]["agree"] is True
    assert sorted(tmp_path.iterdir()) == [fifo]


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_output_to_dev_stdout_on_a_pipe():
    # with stdout on a pipe, /dev/stdout links to the pipe, which has no file
    # name; the path is still written through as the special file it opens
    proc = run_child("-m", "berndenom", "frac", "10", "3", "--output", "/dev/stdout", timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["result"] == {"value": "1", "digit_sum": 2, "gt_one": False}


def test_output_onto_a_directory_is_an_error(tmp_path, capsys):
    target = tmp_path / "r.json"
    target.mkdir()
    code, out, err = run_cli(capsys, "denom", "5", "--output", str(target))
    assert (code, out) == (1, "")
    assert err == f"error: [Errno 21] Is a directory: {str(target)!r}\n"
    assert sorted(tmp_path.iterdir()) == [target]
    assert list(target.iterdir()) == []


def test_empty_output_path_is_refused_before_anything_is_written(tmp_path, capsys, monkeypatch):
    # an empty path would resolve to the working directory and place a temp
    # file beside it, in its parent
    sub = tmp_path / "sub"
    sub.mkdir()
    monkeypatch.chdir(sub)
    code, out, err = run_cli(capsys, "denom", "9", "--output", "")
    assert (code, out) == (1, "")
    assert err == "usage error: argument --output: expected a non-empty path\n"
    assert sorted(tmp_path.iterdir()) == [sub]
    assert list(sub.iterdir()) == []


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


# --- the module entry point ------------------------------------------------------------


# What a process that never shards must not import: the process pool and what
# it brings (multiprocessing, socket, pickle, logging), and dataclasses with its
# inspect, ast and tokenize.
COLD_START_SKIPS = ("concurrent.futures.process", "multiprocessing", "dataclasses", "inspect")


def test_denom_in_a_fresh_process_loads_no_pool_and_no_dataclasses():
    script = (
        "import sys\n"
        "from berndenom import cli\n"
        "code = cli.main(['denom', '9', '--method', 'both'])\n"
        f"print([m for m in {COLD_START_SKIPS!r} if m in sys.modules], file=sys.stderr)\n"
        "raise SystemExit(code)\n"
    )
    proc = run_child("-c", script, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "[]\n")
    assert json.loads(proc.stdout)["result"]["agree"] is True


def test_sharded_verify_in_a_fresh_process_matches_the_serial_run():
    # two shards on any host and at this n_max; stderr says whether the pool
    # was loaded
    script = (
        "import os, sys\n"
        "from berndenom import cli, verify\n"
        "os.cpu_count = lambda: 2\n"
        "verify._SHARD_MIN_N = 1\n"
        "code = cli.main(sys.argv[1:])\n"
        "print('concurrent.futures.process' in sys.modules, file=sys.stderr)\n"
        "raise SystemExit(code)\n"
    )
    outputs = []
    for jobs, pooled in (("1", False), ("2", True)):
        argv = ("verify", "all", "--max-n", "40", "--jobs", jobs)
        proc = run_child("-c", script, *argv, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, f"{pooled}\n")
        record = json.loads(proc.stdout)
        record.pop("meta")
        assert record["inputs"].pop("jobs") == int(jobs)
        outputs.append(json.dumps(record, indent=2))
    assert outputs[0] == outputs[1]


def test_default_verify_in_a_fresh_process_loads_no_pool():
    # two jobs on two CPUs at the default n_max, below the shard threshold:
    # the process loads none of what a pool brings, and its record is that
    # of one job
    script = (
        "import os, sys\n"
        "from berndenom import cli\n"
        "os.cpu_count = lambda: 2\n"
        "code = cli.main(sys.argv[1:])\n"
        f"print([m for m in {COLD_START_SKIPS!r} if m in sys.modules], file=sys.stderr)\n"
        "raise SystemExit(code)\n"
    )
    assert 300 < verify._SHARD_MIN_N
    records = []
    for jobs in ("1", "2"):
        argv = ("verify", "all", "--max-n", "300", "--jobs", jobs)
        proc = run_child("-c", script, *argv, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "[]\n")
        record = json.loads(proc.stdout)
        record.pop("meta")
        assert record["inputs"].pop("jobs") == int(jobs)
        records.append(record)
    assert records[0] == records[1]


def test_subprocess_exit_codes():
    ok = run_child("-m", "berndenom", "denom", "5", "--method", "both")
    assert ok.returncode == 0
    assert json.loads(ok.stdout)["result"]["agree"] is True
    bad = run_child("-m", "berndenom", "frac", "9", "4")
    assert bad.returncode == 1
