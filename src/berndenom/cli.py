"""Command-line front end with machine-readable output.

Every record is {command, inputs, result, exact, meta}; rationals are printed
as exact "numerator/denominator" strings, never as decimals. Exit codes:
0 success, 1 usage or domain error, 2 falsification (oracle disagreement or a
failed suite), 3 capped scan.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import stat
import sys
import time

from . import __version__
from .arith import digit_sum, frac_sum, primes_up_to
from .bernoulli import _content_no_constant, bernoulli_numbers, denom_formula
from .verify import DEFAULT_K_CAP, SUITE_NAMES, _run_suites, power_scan, stewart_bound

__all__ = ["build_parser", "entrypoint", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FALSIFIED = 2
EXIT_CAPPED = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


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
    verify.add_argument("--max-n", type=int, default=300)
    verify.add_argument(
        "--jobs",
        type=int,
        default=os.cpu_count() or 1,
        help="at most this many parallel shards (default: cpu count); a small "
        "--max-n runs in one process",
    )

    scan = sub.add_parser("scan", help="minimal exponents k with digit_sum(n^k, p) >= p")
    scan.add_argument("n", type=int)
    scan.add_argument("--primes", required=True, help="comma-separated primes, e.g. 2,3,5,7")
    scan.add_argument("--k-cap", type=int, default=DEFAULT_K_CAP)

    bern = sub.add_parser("bernoulli", help="exact Bernoulli numbers B_0..B_N")
    bern.add_argument("--max", type=int, required=True, dest="max_index")

    stew = sub.add_parser(
        "stewart", help="evaluate log log n / (log log log n + c) - 1 (approximate)"
    )
    stew.add_argument("n", type=int)
    stew.add_argument("c", type=float)

    for name, command in sub.choices.items():
        command.add_argument("--format", choices=("json", *_COMMANDS[name][1]), default="json")
        command.add_argument(
            "--output", metavar="PATH", help="write the report to PATH instead of stdout"
        )
    return parser


def _factor_squarefree(d: int, n: int) -> list[int]:
    # the primes up to n + 1 that divide d, each listed once and divided out
    # fully. A sound table's denominator at n has no other prime, so what is
    # left above 1 comes from a corrupted table, whose products then
    # disagree; it is listed as one entry, unfactored, and the work stays
    # bounded by the sieve to n + 1 whatever the table holds
    factors = [p for p in primes_up_to(n + 1) if d % p == 0]
    for p in factors:
        while d % p == 0:
            d //= p
    if d > 1:
        factors.append(d)
    return factors


def _cmd_denom(args) -> tuple[dict, dict, dict, int]:
    result: dict = {}
    if args.method in ("formula", "both"):
        fact = denom_formula(args.n)
        result["formula"] = {"primes": list(fact.primes), "product": fact.product}
    if args.method in ("oracle", "both"):
        product = _content_no_constant(args.n)[1]
        result["oracle"] = {"primes": _factor_squarefree(product, args.n), "product": product}
    if args.method == "both":
        result["agree"] = result["formula"]["product"] == result["oracle"]["product"]
    code = EXIT_OK if result.get("agree", True) else EXIT_FALSIFIED
    return {"n": args.n, "method": args.method}, result, {}, code


def _cmd_frac(args) -> tuple[dict, dict, dict, int]:
    value = frac_sum(args.n, args.p)
    result = {"value": str(value), "digit_sum": digit_sum(args.n, args.p), "gt_one": value > 1}
    return {"n": args.n, "p": args.p}, result, {}, EXIT_OK


def _cmd_verify(args) -> tuple[dict, dict, dict, int]:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    reports = _run_suites(names, args.max_n, args.jobs)
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
    inputs = {"suite": args.suite, "max_n": args.max_n, "jobs": args.jobs}
    meta = {"suite_elapsed_ms": {r.suite: round(r.elapsed * 1000, 3) for r in reports}}
    code = EXIT_OK if passed else EXIT_FALSIFIED
    return inputs, {"passed": passed, "suites": suites}, meta, code


def _parse_primes(raw: str) -> list[int]:
    try:
        return [int(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"--primes must be comma-separated integers, got {raw!r}")


def _cmd_scan(args) -> tuple[dict, dict, dict, int]:
    res = power_scan(args.n, _parse_primes(args.primes), args.k_cap)
    inputs = {"n": res.n, "primes": list(res.prime_set), "k_cap": res.k_cap}
    result = {
        "min_k": {str(p): res.min_k[p] for p in res.prime_set},
        "M": res.threshold,
        "capped": res.capped,
    }
    return inputs, result, {}, EXIT_CAPPED if res.capped else EXIT_OK


def _cmd_bernoulli(args) -> tuple[dict, dict, dict, int]:
    values = [str(v) for v in bernoulli_numbers(args.max_index)]
    return {"max": args.max_index}, {"values": values}, {}, EXIT_OK


def _cmd_stewart(args) -> tuple[dict, dict, dict, int]:
    return {"n": args.n, "c": args.c}, {"value": stewart_bound(args.n, args.c)}, {}, EXIT_OK


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


# command -> (handler, {format: renderer}). The handler returns (inputs,
# result, extra meta, exit code), which main wraps in the record; the
# renderers cover every format besides json, in the order --format lists
# them: "csv" renderers yield rows, "plain" renderers lines.
_COMMANDS = {
    "denom": (_cmd_denom, {"csv": _denom_rows, "plain": _denom_lines}),
    "frac": (_cmd_frac, {"plain": _frac_lines}),
    "verify": (_cmd_verify, {"csv": _verify_rows, "plain": _verify_lines}),
    "scan": (_cmd_scan, {"plain": _scan_lines}),
    "bernoulli": (_cmd_bernoulli, {"csv": _bernoulli_rows}),
    "stewart": (_cmd_stewart, {"plain": _stewart_lines}),
}


def _render(record: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(record, indent=2) + "\n"
    items = _COMMANDS[record["command"]][1][fmt](record)
    if fmt == "plain":
        return "\n".join(items) + "\n"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(items)
    return buf.getvalue()


def _write_output(path: str, text: str) -> None:
    # A regular or new file gets a temp file beside its resolved path, renamed
    # over it with the old file's mode: the target holds its old content or
    # the whole report, never a part of it, and a symlink stays a symlink. A
    # special file, as path opens it (/dev/stdout on a pipe resolves to no
    # file), is written through. Any failure is reported against the given
    # path, and the temp file is gone on every path out.
    target = os.path.realpath(path)
    tmp = None
    try:
        try:
            mode = os.stat(path).st_mode
        except FileNotFoundError:
            mode = None
        if mode is not None and not stat.S_ISREG(mode):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            return
        head, tail = os.path.split(target)
        tmp = os.path.join(head, f".{tail}.{os.urandom(8).hex()}.tmp")
        with open(tmp, "x", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        if mode is not None:
            os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, target)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        if tmp is not None:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.output == "":
            parser.error("argument --output: expected a non-empty path")
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    start = time.perf_counter()
    # exact results may exceed the interpreter's int-to-str digit limit; the
    # command caps already bound their size, so lift it while this call runs
    str_digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        inputs, result, extra_meta, code = _COMMANDS[args.command][0](args)
        elapsed_ms = round((time.perf_counter() - start) * 1000, 3)
        record = {
            "command": args.command,
            "inputs": inputs,
            "result": result,
            # stewart's float is the one approximate result
            "exact": args.command != "stewart",
            "meta": {"elapsed_ms": elapsed_ms, **extra_meta, "version": __version__},
        }
        text = _render(record, args.format)
        if args.output:
            _write_output(args.output, text)
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
