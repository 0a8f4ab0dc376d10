"""Command-line front end with machine-readable output.

Every record is {command, inputs, result, exact, meta}; rationals are printed
as exact "numerator/denominator" strings, never as decimals. Exit codes:
0 success, 1 usage or domain error, 2 falsification (oracle disagreement or a
failed suite), 3 capped scan.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time

from . import __version__
from .arith import digit_sum, frac_sum
from .bernoulli import (
    DEFAULT_BERNOULLI_CAP,
    bernoulli_numbers,
    bernoulli_poly_no_constant,
    denom_formula,
    poly_denominator,
)
from .verify import DEFAULT_K_CAP, SUITE_NAMES, power_scan, run_suite, stewart_bound

__all__ = ["build_parser", "entrypoint", "main"]

ENV_PREFIX = "BERNDENOM_"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FALSIFIED = 2
EXIT_CAPPED = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(ENV_PREFIX + name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"environment variable {ENV_PREFIX}{name} must be an integer, got {raw!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="berndenom",
        description="Exact denominators of Bernoulli polynomials without "
        "constant term, with digit-sum cross-checks and verification suites.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    denom = sub.add_parser(
        "denom", help="denominator at index n by digit-sum formula, brute force, or both"
    )
    denom.add_argument("n", type=int)
    denom.add_argument("--method", choices=("formula", "oracle", "both"), default="both")

    frac = sub.add_parser("frac", help="exact fractional-part sum of n/p^nu over nu >= 1")
    frac.add_argument("n", type=int)
    frac.add_argument("p", type=int)

    verify = sub.add_parser("verify", help="run exhaustive verification suites")
    verify.add_argument("suite", choices=SUITE_NAMES + ("all",))
    verify.add_argument("--max-n", type=int, default=300, dest="max_n")
    verify.add_argument("--jobs", type=int, default=None, help="parallel shards (default: cpu count)")

    scan = sub.add_parser("scan", help="minimal exponents k with digit_sum(n^k, p) >= p")
    scan.add_argument("n", type=int)
    scan.add_argument("--primes", required=True, help="comma-separated primes, e.g. 2,3,5,7")
    scan.add_argument("--k-cap", type=int, default=None, dest="k_cap")

    bern = sub.add_parser("bernoulli", help="exact Bernoulli numbers B_0..B_N")
    bern.add_argument("--max", type=int, required=True, dest="max_index")
    bern.add_argument("--cap", type=int, default=None, help="table size refusal threshold")

    stew = sub.add_parser(
        "stewart", help="evaluate log log n / (log log log n + c) - 1 (approximate)"
    )
    stew.add_argument("n", type=int)
    stew.add_argument("c", type=float)

    for name, command in sub.choices.items():
        command.add_argument("--format", choices=("json", *_RENDERERS[name]), default="json")
        command.add_argument(
            "--output", metavar="PATH", help="write the report to PATH instead of stdout"
        )
    return parser


def _factor_squarefree(d: int) -> list[int]:
    # trial division; the inputs here are squarefree products of small primes
    factors = []
    f = 2
    while d > 1:
        if d % f == 0:
            factors.append(f)
            d //= f
        f += 1 if f == 2 else 2
    return factors


def _cmd_denom(args) -> tuple[dict, dict, int]:
    result: dict = {}
    code = EXIT_OK
    if args.method in ("formula", "both"):
        fact = denom_formula(args.n)
        result["formula"] = {"primes": list(fact.primes), "product": fact.product}
    if args.method in ("oracle", "both"):
        product = poly_denominator(bernoulli_poly_no_constant(args.n))
        result["oracle"] = {"primes": _factor_squarefree(product), "product": product}
    if args.method == "both":
        agree = result["formula"]["product"] == result["oracle"]["product"]
        result["agree"] = agree
        if not agree:
            code = EXIT_FALSIFIED
    record = {
        "command": "denom",
        "inputs": {"n": args.n, "method": args.method},
        "result": result,
        "exact": True,
    }
    return record, {}, code


def _cmd_frac(args) -> tuple[dict, dict, int]:
    value = frac_sum(args.n, args.p)
    record = {
        "command": "frac",
        "inputs": {"n": args.n, "p": args.p},
        "result": {
            "value": str(value),
            "digit_sum": digit_sum(args.n, args.p),
            "gt_one": value > 1,
        },
        "exact": True,
    }
    return record, {}, EXIT_OK


def _cmd_verify(args) -> tuple[dict, dict, int]:
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    reports = [run_suite(name, args.max_n, jobs=jobs) for name in names]
    suites = [
        {
            "suite": r.suite,
            "range": r.range_checked,
            "cases_total": r.cases_total,
            "cases_failed": r.cases_failed,
            "failures": [[f[0], f[1], str(f[2]), str(f[3])] for f in r.failures],
        }
        for r in reports
    ]
    passed = all(r.passed for r in reports)
    record = {
        "command": "verify",
        "inputs": {"suite": args.suite, "max_n": args.max_n, "jobs": jobs},
        "result": {"passed": passed, "suites": suites},
        "exact": True,
    }
    meta = {"suite_elapsed_ms": {r.suite: round(r.elapsed * 1000, 3) for r in reports}}
    return record, meta, EXIT_OK if passed else EXIT_FALSIFIED


def _parse_primes(raw: str) -> list[int]:
    try:
        primes = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"--primes must be comma-separated integers, got {raw!r}")
    if not primes:
        raise ValueError("--primes must name at least one prime")
    return primes


def _cmd_scan(args) -> tuple[dict, dict, int]:
    primes = _parse_primes(args.primes)
    k_cap = args.k_cap if args.k_cap is not None else _env_int("K_CAP", DEFAULT_K_CAP)
    res = power_scan(args.n, primes, k_cap)
    record = {
        "command": "scan",
        "inputs": {"n": res.n, "primes": list(res.prime_set), "k_cap": res.k_cap},
        "result": {
            "min_k": {str(p): res.min_k[p] for p in res.prime_set},
            "M": res.threshold,
            "capped": res.capped,
        },
        "exact": True,
    }
    return record, {}, EXIT_CAPPED if res.capped else EXIT_OK


def _cmd_bernoulli(args) -> tuple[dict, dict, int]:
    cap = args.cap if args.cap is not None else _env_int("BERNOULLI_CAP", DEFAULT_BERNOULLI_CAP)
    values = bernoulli_numbers(args.max_index, cap=cap)
    record = {
        "command": "bernoulli",
        "inputs": {"max": args.max_index},
        "result": {"values": [str(v) for v in values]},
        "exact": True,
    }
    return record, {}, EXIT_OK


def _cmd_stewart(args) -> tuple[dict, dict, int]:
    value = stewart_bound(args.n, args.c)
    record = {
        "command": "stewart",
        "inputs": {"n": args.n, "c": args.c},
        "result": {"value": value},
        "exact": False,
    }
    return record, {}, EXIT_OK


_HANDLERS = {
    "denom": _cmd_denom,
    "frac": _cmd_frac,
    "verify": _cmd_verify,
    "scan": _cmd_scan,
    "bernoulli": _cmd_bernoulli,
    "stewart": _cmd_stewart,
}


def _denom_rows(record: dict):
    result, n = record["result"], record["inputs"]["n"]
    yield ["n", "method", "primes", "product", "agree"]
    for method in ("formula", "oracle"):
        if method in result:
            primes = ";".join(str(p) for p in result[method]["primes"])
            yield [n, method, primes, result[method]["product"], result.get("agree", "")]


def _denom_lines(record: dict):
    result, n = record["result"], record["inputs"]["n"]
    for method in ("formula", "oracle"):
        if method in result:
            yield (
                f"denom({n}) {method}: primes={result[method]['primes']} "
                f"product={result[method]['product']}"
            )
    if "agree" in result:
        yield f"agree: {'yes' if result['agree'] else 'NO'}"


def _frac_lines(record: dict):
    result = record["result"]
    yield (
        f"frac({record['inputs']['n']} | {record['inputs']['p']}) = {result['value']}  "
        f"digit_sum={result['digit_sum']}  gt_one={'yes' if result['gt_one'] else 'no'}"
    )


def _verify_rows(record: dict):
    yield ["suite", "range", "cases_total", "cases_failed", "status"]
    for suite in record["result"]["suites"]:
        status = "pass" if suite["cases_failed"] == 0 else "fail"
        yield [suite["suite"], suite["range"], suite["cases_total"], suite["cases_failed"], status]


def _verify_lines(record: dict):
    for suite in record["result"]["suites"]:
        status = "PASS" if suite["cases_failed"] == 0 else "FAIL"
        yield (
            f"{suite['suite']}: {suite['cases_total']} cases, "
            f"{suite['cases_failed']} failures [{status}]  ({suite['range']})"
        )
        for failure in suite["failures"]:
            yield f"  counterexample: {failure}"
    yield "all passed" if record["result"]["passed"] else "FALSIFIED"


def _scan_lines(record: dict):
    inputs, result = record["inputs"], record["result"]
    yield f"scan n={inputs['n']} primes={inputs['primes']} k_cap={inputs['k_cap']}"
    for p in inputs["primes"]:
        k = result["min_k"][str(p)]
        yield f"  p={p}: min k = {'not reached' if k is None else k}"
    yield f"M = {result['M']}  capped={'yes' if result['capped'] else 'no'}"


def _bernoulli_rows(record: dict):
    yield ["index", "value"]
    yield from enumerate(record["result"]["values"])


def _stewart_lines(record: dict):
    inputs = record["inputs"]
    yield f"stewart(n={inputs['n']}, c={inputs['c']}) ~ {record['result']['value']!r}"


# command -> {format: renderer} for every format besides json, in the order
# --format lists them; "csv" renderers yield rows, "plain" renderers lines.
_RENDERERS = {
    "denom": {"csv": _denom_rows, "plain": _denom_lines},
    "frac": {"plain": _frac_lines},
    "verify": {"csv": _verify_rows, "plain": _verify_lines},
    "scan": {"plain": _scan_lines},
    "bernoulli": {"csv": _bernoulli_rows},
    "stewart": {"plain": _stewart_lines},
}


def _render(record: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(record, indent=2) + "\n"
    items = _RENDERERS[record["command"]][fmt](record)
    if fmt == "plain":
        return "\n".join(items) + "\n"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(items)
    return buf.getvalue()


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    start = time.perf_counter()
    # exact results may exceed the interpreter's int-to-str digit limit; the
    # command caps already bound their size, so lift it while this call runs
    str_digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        record, extra_meta, code = _HANDLERS[args.command](args)
        meta = {"elapsed_ms": round((time.perf_counter() - start) * 1000, 3)}
        meta.update(extra_meta)
        meta["version"] = __version__
        record["meta"] = meta
        text = _render(record, args.format)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        sys.set_int_max_str_digits(str_digits)
    return code


def entrypoint() -> None:
    sys.exit(main())
