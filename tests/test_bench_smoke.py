"""The benchmark harness still runs against this checkout.

``bench/tracing.py`` wraps fockvm functions by name (for example ``merge``
in ``qasm``, ``operators`` and ``evolution``, and
``qasm.apply_with_status``), so renaming or removing one of them breaks the
traced benchmark. One short traced run per workload catches that."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_completes_and_checks(workload):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0.5", "--trace", "1"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
