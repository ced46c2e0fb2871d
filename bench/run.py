"""The fockvm benchmark: one workload, one closed-loop caller, one process.

    python3 bench/run.py --workload loop --seed 1 --seconds 25 --trace 0

Run from the repository root. The library is imported from ``src/`` of the
same checkout. Every operation is checked against an independent
reference; a mismatch or an exception counts as a failed operation and the
run goes on. The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
See ``bench/BENCHMARK.md`` for the workloads, the metrics and the
machine-speed scaling of the end-to-end times.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

# One caller and no threads: keep numpy's BLAS single-threaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("loop", "pointer", "hop", "cli")
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120
LOOP_MAX_N_LIMIT = 1024
# End-to-end times are reported as if the calibration kernel took this
# long, its typical best time on the 2-core Xeon this benchmark was set up on.
REFERENCE_CALIBRATION_S = 200e-6


def _kernel() -> dict:
    acc: dict = {}
    for i in range(1000):
        key = (i & 63, i >> 6)
        acc[key] = acc.get(key, 0) + i
    return acc


def calibration_s() -> float:
    """Best-of-three seconds of a fixed pure-Python kernel that never calls
    fockvm: a probe of how fast the shared machine runs right now."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


class Sample:
    """One operation: its times, the calibration around it, and whether it
    matched its reference (times are None when it raised)."""

    __slots__ = ("op_s", "ref_s", "ratio", "ok", "speed_s")

    def __init__(self, op_s=None, ref_s=None, ratio=None, ok=False):
        self.op_s, self.ref_s, self.ratio, self.ok = op_s, ref_s, ratio, ok
        self.speed_s = None


def import_fockvm() -> float:
    """Import the checkout's fockvm and return the seconds it took."""
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import fockvm

    elapsed = time.perf_counter() - start
    if os.path.dirname(os.path.abspath(fockvm.__file__)) != os.path.join(SRC, "fockvm"):
        raise ImportError(f"fockvm was imported from {fockvm.__file__}, not from {SRC}")
    return elapsed


def set_up(name: str, seed: int):
    """Import (timed first), generate the seeded inputs, warm up with one
    operation. Returns (workload, import s, set-up s, speed s)."""
    before = calibration_s()
    start = time.perf_counter()
    import_s = import_fockvm()
    import workloads

    workload = workloads.WORKLOADS[name](random.Random(seed))
    run_one(workload, workload.warmup)
    setup_s = time.perf_counter() - start
    return workload, import_s, setup_s, (before + calibration_s()) / 2


def run_one(workload, item, tracer=None) -> Sample:
    """One operation, its reference and the check, timed separately."""
    start = time.perf_counter()
    out = workload.op(item)
    mid = time.perf_counter()
    ref = workload.ref(item, out)
    end = time.perf_counter()
    if tracer is not None:
        with tracer.span("bench.check"):
            ok = workload.check(item, out, ref)
    else:
        ok = workload.check(item, out, ref)
    alg_s = out.alg_s if out.alg_s is not None else mid - start
    return Sample(mid - start, end - mid, alg_s / (end - mid), ok)


def measure(workload, seconds: float, tracer=None, start: int = 0):
    """Closed loop over the pool from index ``start`` until ``seconds`` pass.

    Returns the samples, every calibration time, and the share of ops whose
    program already ran earlier in the loop."""
    samples: list[Sample] = []
    seen: set[str] = set()
    repeats = 0
    gc.collect()
    calibrations = [calibration_s()]
    deadline = time.perf_counter() + seconds
    for index in range(start, len(workload.pool)):
        item = workload.pool[index]
        if time.perf_counter() >= deadline:
            break
        key = workload.program_key(item)
        repeats += key in seen
        seen.add(key)
        try:
            if tracer is None:
                sample = run_one(workload, item)
            else:
                tracer.op = index
                with tracer.span("bench.op"):
                    sample = run_one(workload, item, tracer)
        except Exception:  # a failed op is counted, never fatal
            print(f"op {index} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            sample = Sample()
        if not sample.ok and sample.op_s is not None:
            print(f"op {index} did not match its reference", file=sys.stderr)
        calibrations.append(calibration_s())
        sample.speed_s = (calibrations[-2] + calibrations[-1]) / 2
        samples.append(sample)
    return samples, calibrations, repeats / max(len(samples), 1)


def loop_max_n(limit: int = LOOP_MAX_N_LIMIT) -> int:
    """Largest counting-loop n (at most ``limit``) that ``run_algebraic``
    completes at the default recursion limit: doubling, then bisection."""
    import workloads
    from fockvm import qasm

    program = qasm.parse_program(workloads.read_text(workloads.COUNT_QASM))

    def completes(n: int) -> bool:
        try:
            qasm.run_algebraic(program, workloads.loop_inputs(n), fuel=n + 1)
        except RecursionError:
            return False
        return True

    good, bad, n = 0, None, 1
    while n <= limit:
        if not completes(n):
            bad = n
            break
        good, n = n, n * 2
    if bad is None:
        return good
    while bad - good > 1:
        mid = (good + bad) // 2
        good, bad = (mid, bad) if completes(mid) else (good, mid)
    return good


def child_setups(name: str, seed: int) -> list[tuple[float, float]]:
    """(set-up s, speed s) of fresh child processes."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed), "--setup-only"]
    results = []
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{done.stderr}")
        record = json.loads(done.stdout.strip().splitlines()[-1])
        results.append((record["setup_s"], record["speed_s"]))
    return results


def inputs_digest(workload) -> str:
    blob = json.dumps([workload.warmup, workload.pool], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def environment() -> str:
    import numpy

    return f"python {platform.python_version()}, numpy {numpy.__version__}, nproc {len(os.sched_getaffinity(0))}"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def scaled(seconds: float, speed_s: float) -> float:
    """A time rescaled to the reference machine speed, using the
    calibration measured around it."""
    return seconds * REFERENCE_CALIBRATION_S / speed_s


def op_ms(samples: list[Sample]) -> list[float]:
    return [scaled(s.op_s, s.speed_s) * 1e3 for s in samples if s.op_s is not None]


def end_to_end(samples, setups) -> dict:
    timed = [s for s in samples if s.op_s is not None]
    ops = op_ms(timed)
    return {
        "setup_s": metric(statistics.median(scaled(t, v) for t, v in setups), "s"),
        "op_p50_ms": metric(statistics.median(ops), "ms"),
        "op_p90_ms": metric(statistics.quantiles(ops, n=10, method="inclusive")[8], "ms"),
        "ops_per_s": metric(len(ops) * 1e3 / sum(ops), "1/s"),
        "ref_p50_ms": metric(statistics.median(scaled(s.ref_s, s.speed_s) * 1e3 for s in timed), "ms"),
        "alg_interp_ratio": metric(statistics.median(s.ratio for s in timed), "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(workload, args, import_s: float):
    """Untraced half, then traced half on the pool inputs that follow, so
    that no program of the traced half already ran."""
    import tracing

    max_n = loop_max_n()
    plain, calibrations, _ = measure(workload, args.seconds / 2)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced, traced_calibrations, repeat_share = measure(workload, args.seconds / 2, tracer, len(plain))
    out_dir = os.path.join(ROOT, "bench", "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(
        os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json"),
        {"workload": args.workload, "seed": args.seed, "ops": len(traced)},
    )
    untraced_p50 = statistics.median(op_ms(plain))
    traced_p50 = statistics.median(op_ms(traced))
    metrics = {"setup.import_ms": metric(import_s * 1e3, "ms")}
    for name, value in tracer.summary(len(traced)).items():
        metrics[name] = metric(value, tracing.unit_of(name))
    metrics.update(
        {
            "operators.loop_max_n": metric(max_n, "count"),
            "trace.op_p50_untraced_ms": metric(untraced_p50, "ms"),
            "trace.op_p50_traced_ms": metric(traced_p50, "ms"),
            "trace.overhead_ratio": metric(traced_p50 / untraced_p50, "ratio"),
        }
    )
    return metrics, plain + traced, repeat_share, calibrations + traced_calibrations, len(traced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help="print one set-up time and exit")
    args = parser.parse_args(argv)
    os.chdir(ROOT)

    workload, import_s, setup_s, speed_s = set_up(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "import_s": import_s, "speed_s": speed_s}))
        return 0

    if args.trace:
        metrics, samples, repeat_share, calibrations, traced_ops = per_layer(workload, args, import_s)
        note = "per-layer figures are per traced op"
    else:
        setups = [(setup_s, speed_s)] + child_setups(args.workload, args.seed)
        samples, calibrations, repeat_share = measure(workload, args.seconds)
        metrics = end_to_end(samples, setups)
        unscaled = statistics.median(s.op_s * 1e3 for s in samples if s.op_s is not None)
        note = f"unscaled op_p50_ms {unscaled:.4f}, unscaled setup_s {statistics.median(t for t, _ in setups):.4f}"
        traced_ops = None

    failed = sum(not s.ok for s in samples)
    timed_ops = traced_ops or sum(s.op_s is not None for s in samples)
    print(f"# fockvm benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# closed loop, one caller, no threads; {environment()}")
    print(f"# inputs sha256:{inputs_digest(workload)} (warm-up + {len(workload.pool)} pooled inputs); "
          f"repeat_share {repeat_share:.4f} of {len(samples)} ops")
    print(f"# calibration median {statistics.median(calibrations) * 1e6:.2f} us "
          f"(reference {REFERENCE_CALIBRATION_S * 1e6:g} us); {note}")
    for name, m in metrics.items():
        n = SETUP_SAMPLES if name == "setup_s" else timed_ops
        print(f"{name:32s} {m['value']:14.6g} {m['unit']:6s} (n={n})")
    print(f"{'failed_frac':32s} {failed / len(samples):14.6g} {'ratio':6s} ({failed} of {len(samples)})")
    print(json.dumps({"correct": failed == 0, "attempted": len(samples), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(2)
