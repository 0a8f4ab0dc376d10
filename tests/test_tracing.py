"""The benchmark's tracer must still see every suite shard through the CLI."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from berndenom.verify import SUITE_NAMES

ROOT = Path(__file__).resolve().parents[1]


def load_spans():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_verify_all_records_every_suite(tmp_path):
    env = dict(os.environ, PERFBENCH_TRACE_DIR=str(tmp_path), PYTHONPATH=str(ROOT / "src"))
    argv = ["verify", "all", "--max-n", "8", "--jobs", "1"]
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"), *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    events = load_spans().collect(tmp_path)["events"]
    for suite in SUITE_NAMES:
        assert sum(e[0] == "run_suite" and e[1] == suite for e in events) == 1
        assert sum(e[0] == "shard" and e[1] == suite for e in events) >= 1
