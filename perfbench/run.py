"""Benchmark of berndenom's three user-facing paths, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each exists):

* formula-large  `cli.main(["denom", n, "--method", "formula"])` in this
                 process, n from 10^6 to 10^7;
* oracle-cold    a fresh `python -m berndenom denom n --method both` per op,
                 n from about 200 to 700;
* verify-all     a fresh `python -m berndenom verify all --max-n 300 --jobs 2`
                 per op.

Ops run one after another from this process (a closed loop with one
client), in whole rounds of the same inputs, until the next round would end
after S seconds. Every output is checked afterwards against values the
benchmark computes itself (checks.py). With --trace 0 the last line of stdout
holds the end-to-end metrics; with --trace 1 each op runs once untraced and
once under the wrappers of spans.py, and the last line holds the per-layer
metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import spans  # noqa: E402

SETUP_TRIALS = 7
OP_TIMEOUT_S = 60
# Each input sits on a fixed ladder; the seed moves it within this share of
# its rung and keeps its parity, so every seed measures the same mix of costs.
JITTER = 0.005
VERIFY_MAX_N = 300


@dataclass(frozen=True)
class Workload:
    name: str
    ladder: tuple[int, ...]
    lo: int
    hi: int
    in_process: bool
    warmup: tuple[str, ...]

    def round_inputs(self, rng: random.Random) -> list[int]:
        """One round of n values: one per rung, odd and even rungs alternating.
        A workload with a single fixed size (lo == hi) always gets that size."""
        if self.lo == self.hi:
            return [self.lo]
        ns = []
        for i, base in enumerate(self.ladder):
            n = base + round(base * JITTER * (2 * rng.random() - 1))
            n = min(max(n, self.lo), self.hi)
            if n % 2 != (i + 1) % 2:
                n += 1 if n < self.hi else -1
            ns.append(n)
        return ns

    def argv(self, n: int) -> list[str]:
        if self.name == "verify-all":
            return ["verify", "all", "--max-n", str(n), "--jobs", "2"]
        method = "formula" if self.name == "formula-large" else "both"
        return ["denom", str(n), "--method", method]

    def check(self, argv: list[str], code: int, stdout: str) -> list[str]:
        if argv[0] == "verify":
            return checks.check_verify(int(argv[3]), code, stdout)
        return checks.check_denom(int(argv[1]), argv[3], code, stdout)


WORKLOADS = {
    w.name: w
    for w in (
        # Five odd n near 2.5e6 (sieve to (n+1)/2) interleaved with four even
        # n at the ends of the range (sieve to (n+1)/3), two cheaper and two
        # dearer than the middle ones: the median op then falls in the middle
        # of the five rather than on the edge between two rungs of unlike cost.
        Workload("formula-large", (2_500_000, 1_000_000, 2_300_000, 9_000_000, 2_700_000,
                                   2_000_000, 2_400_000, 10_000_000, 2_600_000),
                 10**6, 10**7, True, ("denom", "100003", "--method", "formula")),
        # Dense near the middle and interleaved, so that the ops around the
        # median take most of each round and op_p50_s averages the host's
        # speed over the whole run rather than over a few ops.
        Workload("oracle-cold", (450, 200, 430, 470, 700, 410, 490),
                 200, 700, False, ("denom", "101", "--method", "both")),
        Workload("verify-all", (VERIFY_MAX_N,), VERIFY_MAX_N, VERIFY_MAX_N, False,
                 ("verify", "all", "--max-n", "30", "--jobs", "2")),
    )
}


@dataclass
class Op:
    argv: list[str]
    code: int
    stdout: str
    wall_s: float
    cpu_s: float
    stderr: str = ""


def cpu_now() -> float:
    """User plus system time of this process and its reaped descendants."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def child_env(trace_dir: Path | None = None) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop(spans.TRACE_DIR_ENV, None)
    if trace_dir is not None:
        env[spans.TRACE_DIR_ENV] = str(trace_dir)
    return env


def run_child(argv: list[str], trace_dir: Path | None = None) -> Op:
    """One fresh interpreter running the CLI; its process group is killed on timeout."""
    entry = ["-m", "berndenom"] if trace_dir is None else [str(HERE / "traced_cli.py")]
    c0, t0 = cpu_now(), time.perf_counter()
    proc = subprocess.Popen([sys.executable, *entry, *argv], cwd=ROOT, env=child_env(trace_dir),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
    wall = time.perf_counter() - t0
    return Op(argv, proc.returncode, out.decode("utf-8", "replace"), wall, cpu_now() - c0,
              err.decode("utf-8", "replace"))


def run_in_process(cli, argv: list[str]) -> Op:
    out, err = io.StringIO(), io.StringIO()
    c0, t0 = cpu_now(), time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    wall = time.perf_counter() - t0
    return Op(argv, code, out.getvalue(), wall, cpu_now() - c0, err.getvalue())


def load_cli():
    """Import `berndenom.cli` from SRC afresh: program modules already loaded are dropped."""
    for name in [name for name in sys.modules if name.split(".")[0] == "berndenom"]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from berndenom import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"berndenom was imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload: Workload, seed: int):
    """The set-up before the first timed op, done SETUP_TRIALS times: the
    import of the program (in-process workload only), input generation and
    one untimed warm-up op. Returns the median wall time of a trial, the
    loaded `cli` module (None for subprocess workloads) and the problems
    found in the warm-up outputs."""
    times, problems, cli = [], [], None
    for _ in range(SETUP_TRIALS):
        t0 = time.perf_counter()
        if workload.in_process:
            cli = load_cli()
        workload.round_inputs(random.Random(f"{workload.name}:{seed}"))
        warmup = list(workload.warmup)
        op = run_in_process(cli, warmup) if workload.in_process else run_child(warmup)
        times.append(time.perf_counter() - t0)
        problems += op_problems(workload, op)
    return statistics.median(times), cli, problems


def op_problems(workload: Workload, op: Op) -> list[str]:
    """The checker's verdict on one op, whatever its exit code, plus the last
    line of its stderr when it failed."""
    problems = workload.check(op.argv, op.code, op.stdout)
    if op.code != 0 and op.stderr.strip():
        problems.append(f"{' '.join(op.argv)}: {op.stderr.strip().splitlines()[-1]}")
    return problems


def median(values):
    """Median, or None when no op completed (the run is then reported as not correct)."""
    values = list(values)
    return statistics.median(values) if values else None


class Measurement:
    def __init__(self, workload: Workload, seed: int, trace: bool, cli) -> None:
        self.workload = workload
        self.trace = trace
        self.cli = cli
        self.trace_root = OUT / "trace" / f"{workload.name}-seed{seed}"
        shutil.rmtree(self.trace_root, ignore_errors=True)
        self.tracer = spans.Tracer(self.trace_root) if trace and workload.in_process else None
        self.untraced: list[Op] = []
        self.traced: list[Op] = []
        self.layers: list[dict] = []
        self.raised: list[str] = []

    def _run(self, argv: list[str], trace_dir: Path | None) -> Op:
        if not self.workload.in_process:
            return run_child(argv, trace_dir)
        if trace_dir is None:
            return run_in_process(self.cli, argv)
        self.tracer.trace_dir = trace_dir
        self.tracer.reset()
        self.tracer.install()
        try:
            return run_in_process(self.cli, argv)
        finally:
            self.tracer.uninstall()

    def op(self, argv: list[str]) -> None:
        try:
            op = self._run(argv, None)
        except Exception as exc:  # an op that raises is a failed op, not a crash of the benchmark
            self.raised.append(f"{' '.join(argv)}: raised {exc!r}")
            return
        self.untraced.append(op)
        if not self.trace:
            return
        trace_dir = self.trace_root / str(len(self.traced))
        try:
            op = self._run(argv, trace_dir)
        except Exception as exc:
            self.raised.append(f"{' '.join(argv)} (traced): raised {exc!r}")
            return
        self.traced.append(op)
        if op.code == 0:
            layers = spans.layer_metrics(spans.collect(trace_dir), op.wall_s,
                                         len(op.stdout.encode()), self.workload.in_process)
            self.layers.append(layers)
        shutil.rmtree(trace_dir, ignore_errors=True)

    @property
    def attempted(self) -> int:
        return len(self.untraced) + len(self.traced) + len(self.raised)

    @property
    def failed(self) -> int:
        """Ops that raised or exited non-zero."""
        return len(self.raised) + sum(1 for op in self.untraced + self.traced if op.code != 0)


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, then run whole rounds of ops for about `seconds` (one round
    when `seconds` is 0), then check every output. `correct` is false when
    any op failed or printed a wrong answer."""
    setup_s, cli, problems = setup(workload, seed)
    m = Measurement(workload, seed, trace, cli)
    rng = random.Random(f"{workload.name}:{seed}")
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for n in workload.round_inputs(rng):
            m.op(workload.argv(n))
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    elapsed = now - start
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    problems += m.raised
    for op in m.untraced + m.traced:
        problems += op_problems(workload, op)
    ok = [op for op in m.untraced if op.code == 0]
    untraced_p50 = median(op.wall_s for op in ok)
    if trace:
        traced_p50 = median(op.wall_s for op in m.traced if op.code == 0)
        metrics = {name: median(layer[name] for layer in m.layers)
                   for name in spans.LAYER_METRICS if not name.startswith("trace.")}
        metrics["trace.op_p50_s"] = traced_p50
        metrics["trace.overhead_s"] = (None if None in (traced_p50, untraced_p50)
                                       else traced_p50 - untraced_p50)
        metrics = {name: {"value": metrics[name], "unit": unit}
                   for name, unit in spans.LAYER_METRICS.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": len(ok) / elapsed, "unit": "1/s"},
            "op_p50_s": {"value": untraced_p50, "unit": "s"},
            "op_cpu_s": {"value": median(op.cpu_s for op in ok), "unit": "s"},
            "peak_rss_mb": {"value": peak / 1024, "unit": "MB"},
        }
    return {
        "result": {"correct": not problems and not m.failed, "attempted": m.attempted,
                   "failed": m.failed, "metrics": metrics},
        "problems": problems,
        "ops": [{"argv": op.argv, "code": op.code, "wall_s": op.wall_s, "cpu_s": op.cpu_s}
                for op in m.untraced],
        "layers": m.layers,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "berndenom" / "__init__.py").is_file():
        print(f"error: no berndenom sources under {SRC}", file=sys.stderr)
        return 2

    run = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(run, indent=1) + "\n", encoding="utf-8")
    for problem in run["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(run["result"]))
    return 0 if run["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
