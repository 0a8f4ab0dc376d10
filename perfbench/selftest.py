"""Quick self-test of the benchmark itself (about a minute).

    python3 perfbench/selftest.py

1. Runs one round of each workload, untraced and traced, and checks that
   every metric named in BENCHMARK.json is printed with its unit.
2. Runs ops that the program refuses and expects the run to be reported as
   not correct, with a non-zero exit; and expects the tracer to refuse a
   program that lacks one of its targets.
3. Feeds each checker corrupted copies of real outputs and expects every
   one to be rejected.
4. Confirms that `verify all` prints the same report for --jobs 1 and
   --jobs 2, apart from `meta` and `inputs.jobs`.
5. Confirms that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys

import checks
import run
import spans

failures: list[str] = []


def expect(ok: bool, label: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {label}")
    if not ok:
        failures.append(label)


def workloads_run() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for name, workload in run.WORKLOADS.items():
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run.measure(workload, seed=7, seconds=0, trace=trace)["result"]
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} trace={int(trace)}: {result['attempted']} ops, all correct")
            units = {m["name"]: m["unit"] for m in spec[key]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(printed == units, f"{name} trace={int(trace)}: prints every {key} metric")


class Refused(run.Workload):
    """`denom n --method both` in this process, except that inputs above 150
    are negated, which the program refuses with a non-zero exit code."""

    def argv(self, n: int) -> list[str]:
        return super().argv(-n if n > 150 else n)


def failures_reported() -> None:
    warmup = ("denom", "101", "--method", "both")
    one_bad = Refused("one-bad", (101, 202), 100, 300, True, warmup)
    result = run.measure(one_bad, seed=7, seconds=0, trace=False)["result"]
    expect(not result["correct"] and (result["attempted"], result["failed"]) == (2, 1),
           f"one refused op of 2: correct {result['correct']}, failed {result['failed']}")
    all_bad = Refused("all-bad", (202,), 202, 202, True, warmup)
    for trace in (False, True):
        result = run.measure(all_bad, seed=7, seconds=0, trace=trace)["result"]
        expect(not result["correct"] and result["failed"] == result["attempted"],
               f"every op refused, trace={int(trace)}: a result, not a crash")
    run.WORKLOADS["one-bad"] = one_bad
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "one-bad", "--seed", "7", "--seconds", "0"])
    finally:
        del run.WORKLOADS["one-bad"]
    printed = json.loads(out.getvalue().splitlines()[-1])
    expect(code != 0 and printed["correct"] is False,
           f"run.py exits {code} and prints correct false when an op fails")

    saved = spans.TARGETS
    spans.TARGETS = saved + (("arith", "no_such_function"),)
    tracer = spans.Tracer(run.OUT / "trace" / "selftest")
    try:
        tracer.install()
        refused = False
    except LookupError:
        refused = True
    finally:
        spans.TARGETS = saved
        tracer.uninstall()
    expect(refused, "tracer refuses a program that lacks one of its targets")


def rejects(label: str, problems: list[str]) -> None:
    expect(bool(problems), f"checker rejects {label}")


def corrupted_denom() -> None:
    for n, method in ((1000003, "formula"), (451, "both")):
        op = run.run_child(["denom", str(n), "--method", method])
        expected = checks.denominator_primes(n)
        expect(not checks.check_denom(n, method, op.code, op.stdout),
               f"checker accepts denom {n} --method {method}")
        record = json.loads(op.stdout)
        outsider = next(p for p in checks.sieve(n) if p not in expected)

        def variant(label, edit):
            bad = copy.deepcopy(record)
            edit(bad["result"])
            rejects(f"denom {n} {method}: {label}",
                    checks.check_denom(n, method, 0, json.dumps(bad)))

        route = "formula" if method == "formula" else "oracle"
        variant("a prime dropped", lambda r: r[route]["primes"].pop())
        variant("a prime added", lambda r: r[route]["primes"].append(outsider))
        variant("primes out of order", lambda r: r[route]["primes"].reverse())
        variant("product off by one", lambda r: r[route].update(product=r[route]["product"] + 1))
        if method == "both":
            variant("agree false", lambda r: r.update(agree=False))
            variant("formula route missing", lambda r: r.pop("formula"))
        rejects(f"denom {n}: exit code 2", checks.check_denom(n, method, 2, op.stdout))
        rejects(f"denom {n}: output not JSON", checks.check_denom(n, method, 0, op.stdout[:-3]))
        rejects(f"denom {n}: answer for another n", checks.check_denom(n + 2, method, 0, op.stdout))


def corrupted_verify() -> None:
    op = run.run_child(["verify", "all", "--max-n", "40", "--jobs", "2"])
    expect(not checks.check_verify(40, op.code, op.stdout), "checker accepts verify all --max-n 40")
    record = json.loads(op.stdout)

    def variant(label, edit):
        bad = copy.deepcopy(record)
        edit(bad["result"])
        rejects(f"verify: {label}", checks.check_verify(40, 0, json.dumps(bad)))

    def bump(suite, key, amount):
        def edit(result):
            next(s for s in result["suites"] if s["suite"] == suite)[key] += amount
        return edit

    variant("binom cases_total + 1", bump("binom", "cases_total", 1))
    variant("main cases_total - 1", bump("main", "cases_total", -1))
    variant("bound cases_failed 1", bump("bound", "cases_failed", 1))
    variant("passed false", lambda r: r.update(passed=False))
    variant("a suite missing", lambda r: r["suites"].pop())
    variant("a failure listed", lambda r: r["suites"][0]["failures"].append([1, 2, "0", "0"]))
    rejects("verify: exit code 2", checks.check_verify(40, 2, op.stdout))


def jobs_invariance() -> None:
    reports = []
    for jobs in ("1", "2"):
        op = run.run_child(["verify", "all", "--max-n", "40", "--jobs", jobs])
        record = json.loads(op.stdout)
        del record["meta"]
        del record["inputs"]["jobs"]
        reports.append(record)
    expect(reports[0] == reports[1], "verify all --max-n 40: same report for --jobs 1 and 2")


def refuses_without_sources() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "formula-large",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"refuses to run without sources (exit {proc.returncode})")


def main() -> int:
    workloads_run()
    failures_reported()
    corrupted_denom()
    corrupted_verify()
    jobs_invariance()
    refuses_without_sources()
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
