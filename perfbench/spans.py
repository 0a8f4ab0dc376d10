"""Per-layer tracing for the benchmark, kept entirely outside the program.

A `Tracer` replaces selected public functions of `berndenom.arith`,
`berndenom.bernoulli`, `berndenom.verify` and `berndenom.cli` with timing
wrappers, at every module attribute that holds them: `verify` and `cli`
import names into their own namespaces, so patching the defining module
alone would miss most calls.

Calls are aggregated per process (call count, inclusive time, self time)
rather than kept one by one, because the hot functions run hundreds of
thousands of times per op. Suite shards and `run_suite` calls are few and
are kept as individual spans. Whenever a process's outermost traced call
returns, the process appends its aggregate as one JSON line to
`<trace_dir>/<pid>.jsonl`; `collect` sums those lines over every process
of an op, pool workers included.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

# (module, function) pairs that get a wrapper. A name missing from the
# program makes `install` fail, so that a metric which lost its probe cannot
# read 0 and pass for an improvement; the memo `bernoulli._BERNOULLI`, whose
# length gives `bernoulli.table_entries_built`, is required likewise.
TARGETS = (
    ("arith", "primes_up_to"),
    ("arith", "digit_sum"),
    ("arith", "frac_sum"),
    ("arith", "ord_binomial"),
    ("arith", "kummer_carries"),
    ("arith", "lucas_binom_mod"),
    ("bernoulli", "bernoulli_number"),
    ("bernoulli", "bernoulli_numbers"),
    ("bernoulli", "bernoulli_poly_no_constant"),
    ("bernoulli", "poly_denominator"),
    ("bernoulli", "ord_poly"),
    ("bernoulli", "denom_formula"),
    ("verify", "run_suite"),
    ("verify", "verify_correspondence"),
    ("verify", "verify_prime_bound"),
    ("verify", "verify_squarefree"),
    ("verify", "verify_binomial_valuations"),
    ("cli", "main"),
)

SHARD_SUITES = {
    "verify.verify_correspondence": "main",
    "verify.verify_prime_bound": "bound",
    "verify.verify_squarefree": "squarefree",
    "verify.verify_binomial_valuations": "binom",
}

TABLE_FUNCTIONS = ("bernoulli.bernoulli_number", "bernoulli.bernoulli_numbers")

SUITES = ("main", "bound", "squarefree", "binom")

# Every per-layer metric, in the order printed; BENCHMARK.json lists the same.
LAYER_METRICS = {
    "arith.sieve_s": "s",
    "arith.sieve_span": "count",
    "arith.digit_sum_calls": "count",
    "arith.digit_sum_s": "s",
    "arith.frac_sum_calls": "count",
    "arith.frac_sum_s": "s",
    "arith.binom_valuation_s": "s",
    "bernoulli.table_build_s": "s",
    "bernoulli.table_entries_built": "count",
    "bernoulli.poly_build_calls": "count",
    "bernoulli.poly_build_s": "s",
    "bernoulli.poly_denominator_s": "s",
    "bernoulli.ord_poly_calls": "count",
    "bernoulli.ord_poly_s": "s",
    "bernoulli.denom_formula_s": "s",
    "bernoulli.primes_tested": "count",
    "bernoulli.primes_qualifying": "count",
    "bernoulli.qualifying_ratio": "ratio",
    "verify.main_s": "s",
    "verify.bound_s": "s",
    "verify.squarefree_s": "s",
    "verify.binom_s": "s",
    "verify.cases": "count",
    "verify.shards": "count",
    "verify.shard_imbalance": "ratio",
    "verify.fanout_overhead_s": "s",
    "cli.process_start_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.op_p50_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Installs timing wrappers into the loaded berndenom modules and writes
    each process's aggregate to `trace_dir` when its outermost call ends."""

    def __init__(self, trace_dir: str | os.PathLike) -> None:
        self.trace_dir = Path(trace_dir)
        self._stack: list[float] = []
        self._stats: dict[str, list] = {}
        self._counters: dict[str, float] = {}
        self._events: list[list] = []
        self._table_depth = 0
        self._patched: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self.reset)

    def reset(self) -> None:
        """Forget everything recorded; a forked child starts from here."""
        self._stack.clear()
        self._stats.clear()
        self._counters.clear()
        self._events.clear()
        self._table_depth = 0

    def install(self) -> None:
        import berndenom.cli  # noqa: F401  (loads every layer module)

        modules = [m for name, m in list(sys.modules.items())
                   if name.split(".")[0] == "berndenom"]
        missing = [f"berndenom.{module_name}.{func_name}"
                   for module_name, func_name in TARGETS + (("bernoulli", "_BERNOULLI"),)
                   if not hasattr(sys.modules.get(f"berndenom.{module_name}"), func_name)]
        if missing:
            raise LookupError(f"trace targets missing from the program: {', '.join(missing)}")
        for module_name, func_name in TARGETS:
            original = getattr(sys.modules[f"berndenom.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter
        stats = self._stats
        post = self._post_hook(name)
        table_call = name in TABLE_FUNCTIONS
        formula_call = name == "bernoulli.denom_formula"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if table_call:
                self._table_depth += 1
                before = self._table_len()
            if formula_call:
                # digit_sum calls made inside denom_formula are the primes it tested
                digit_sums = stats.get("arith.digit_sum", [0])[0]
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                entry = stats.get(name)
                if entry is None:
                    entry = stats[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - child
                if table_call:
                    self._table_depth -= 1
                    grown = self._table_len() - before
                    if grown > 0 and self._table_depth == 0:
                        self._count("bernoulli.table_entries_built", grown)
                        self._count("bernoulli.table_build_s", dt)
            if formula_call:
                self._count("bernoulli.primes_tested",
                            stats.get("arith.digit_sum", [0])[0] - digit_sums)
                self._count("bernoulli.primes_qualifying", len(result.primes))
            if post is not None:
                post(args, kwargs, result, dt)
            if not stack:
                self._flush()
            return result

        return wrapper

    def _post_hook(self, name: str):
        if name == "arith.primes_up_to":
            return lambda args, kwargs, result, dt: self._count(
                "arith.sieve_span", args[0] if args else kwargs["limit"])
        if name == "verify.run_suite":
            return lambda args, kwargs, result, dt: self._events.append(
                ["run_suite", args[0] if args else kwargs["suite"], dt, result.cases_total])
        if name in SHARD_SUITES:
            suite = SHARD_SUITES[name]
            return lambda args, kwargs, result, dt: self._events.append(["shard", suite, dt])
        return None

    def _count(self, key: str, amount: float) -> None:
        self._counters[key] = self._counters.get(key, 0) + amount

    @staticmethod
    def _table_len() -> int:
        return len(sys.modules["berndenom.bernoulli"]._BERNOULLI)

    def _flush(self) -> None:
        line = json.dumps({"stats": self._stats, "counters": self._counters,
                           "events": self._events})
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        with open(self.trace_dir / f"{os.getpid()}.jsonl", "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        self.reset()


def install_from_env() -> Tracer | None:
    """Install a tracer when the trace directory variable is set."""
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    if not trace_dir:
        return None
    tracer = Tracer(trace_dir)
    tracer.install()
    return tracer


def collect(trace_dir: Path) -> dict:
    """Sum the aggregates that every process of one op wrote."""
    stats: dict[str, list] = {}
    counters: dict[str, float] = {}
    events: list[list] = []
    for path in sorted(trace_dir.glob("*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            part = json.loads(line)
            for name, (calls, total, own) in part["stats"].items():
                entry = stats.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += own
            for key, value in part["counters"].items():
                counters[key] = counters.get(key, 0) + value
            events.extend(part["events"])
    return {"stats": stats, "counters": counters, "events": events}


def layer_metrics(trace: dict, op_wall_s: float, output_bytes: int, in_process: bool) -> dict:
    """Per-layer metrics of one traced op; a layer the op never reached reads 0."""
    stats, counters, events = trace["stats"], trace["counters"], trace["events"]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    def own(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    tested = counters.get("bernoulli.primes_tested", 0)
    qualifying = counters.get("bernoulli.primes_qualifying", 0)
    runs = [e for e in events if e[0] == "run_suite"]
    shards = [e for e in events if e[0] == "shard"]
    imbalance, fanout = [], 0.0
    for _, suite, wall, _cases in runs:
        durations = [e[2] for e in shards if e[1] == suite]
        if durations:
            imbalance.append(max(durations) / min(durations))
            fanout += wall - max(durations)
    m = {
        "arith.sieve_s": total("arith.primes_up_to"),
        "arith.sieve_span": counters.get("arith.sieve_span", 0),
        "arith.digit_sum_calls": calls("arith.digit_sum"),
        "arith.digit_sum_s": total("arith.digit_sum"),
        "arith.frac_sum_calls": calls("arith.frac_sum"),
        "arith.frac_sum_s": total("arith.frac_sum"),
        "arith.binom_valuation_s": sum(
            total(f"arith.{f}") for f in ("ord_binomial", "kummer_carries", "lucas_binom_mod")),
        "bernoulli.table_build_s": counters.get("bernoulli.table_build_s", 0.0),
        "bernoulli.table_entries_built": counters.get("bernoulli.table_entries_built", 0),
        "bernoulli.poly_build_calls": calls("bernoulli.bernoulli_poly_no_constant"),
        "bernoulli.poly_build_s": own("bernoulli.bernoulli_poly_no_constant"),
        "bernoulli.poly_denominator_s": total("bernoulli.poly_denominator"),
        "bernoulli.ord_poly_calls": calls("bernoulli.ord_poly"),
        "bernoulli.ord_poly_s": total("bernoulli.ord_poly"),
        "bernoulli.denom_formula_s": total("bernoulli.denom_formula"),
        "bernoulli.primes_tested": tested,
        "bernoulli.primes_qualifying": qualifying,
        "bernoulli.qualifying_ratio": qualifying / tested if tested else 0.0,
        "verify.cases": sum(e[3] for e in runs),
        "verify.shards": len(shards),
        "verify.shard_imbalance": sum(imbalance) / len(imbalance) if imbalance else 0.0,
        "verify.fanout_overhead_s": fanout,
        "cli.process_start_s": 0.0 if in_process else op_wall_s - total("cli.main"),
        "cli.self_s": own("cli.main"),
        "cli.output_bytes": output_bytes,
    }
    for suite in SUITES:
        m[f"verify.{suite}_s"] = sum(e[2] for e in runs if e[1] == suite)
    return m
