#!/usr/bin/env python3
"""The qotp benchmark: end-to-end metrics of one workload, or per-layer
metrics from a traced run of it.

    python3 qotpbench/run.py --workload sweep|session|recycle --seed N --seconds S --trace 0|1

Run it from the repository root; it needs only the source tree (``src/`` is
put on the import path, nothing is installed).  Workloads, metric names and
units are declared in ``BENCHMARK.json``.

Each op is one in-process ``qotp.cli.main(argv)`` call (see
``workloads.py``).  The ops run in one fresh single-threaded process per
workload (``worker.py``), with BLAS threads pinned to 1 and no ``QOTP_SEED``
inherited.  ``--trace 0`` starts set-up-only processes before and after the
workload process, and reports:

  setup_s        median time from starting an interpreter until the first
                 timed op can begin (import, input generation, warm-up op)
  photons_per_s  photons simulated by timed ops / their summed time
  op_p50_ms      median op latency
  op_tail_ms     op latency at the highest of p99.9, p99, p95 and p75
                 that has at least 10 ops beyond it (else p50)
  peak_rss_mb    peak resident memory of the workload process

Every time in these metrics is scaled to a fixed host speed by the
reference loop timed around it (``speed.py``); the unscaled per-kind
medians and the loop's own median time are printed above the metrics.

``ops_failed_frac`` is printed as well; it is never part of the result
line, where ``attempted`` and ``failed`` carry it.  ``--trace 1`` reports
the per-layer counts and times of ``tracing.py`` plus
``trace_overhead_frac`` and writes its spans to ``qotpbench/out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Run the benchmark's own tests
with ``python3 -m pytest qotpbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# set-up-only processes per untraced run, half before and half after the
# workload process
SETUP_PROCESSES = 11
DEADLINE_S = 170.0
# p90 is left out: a run of --seconds 30 makes 40 to 199 ops, and p75 then
# stays inside one op kind's band on every workload (the probe-attack band on
# session) while the op count drifts with machine speed.
TAIL_PERMILLE = (999, 990, 950, 750, 500)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "QOTP_SEED"}
    env.update({var: "1" for var in THREAD_VARS})
    return env


def start_worker(args, workdir: Path, deadline: float, setup_only: bool) -> dict:
    """Run one workload process to completion and return its result, with
    its set-up time measured from just before the process was started."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir),
           "--spans", str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")]
    if setup_only:
        cmd.append("--setup-only")
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("the workload process ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"the workload process exited with code {proc.returncode}")
    result = json.loads(out.splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    return result


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, ops beyond it) at the highest percentile of
    TAIL_PERMILLE, by nearest rank, that has at least 10 ops beyond it; the
    median when none has.  A fixed ladder keeps the percentile, and with it
    the op kind it lands on, the same while the op count drifts."""
    ordered = sorted(latencies)
    n = len(ordered)
    for permille in TAIL_PERMILLE:
        rank = -(-permille * n // 1000)
        if n - rank >= 10 or permille == TAIL_PERMILLE[-1]:
            return ordered[rank - 1], permille / 10, n - rank


def timed_setups(args, workdir: Path, deadline: float, count: int) -> list[float]:
    """Set-up times of ``count`` set-up-only processes, each scaled by the
    reference loop timed just before and just after it."""
    setups = []
    before = speed.reference_loop()
    for _ in range(count):
        seconds = start_worker(args, workdir, deadline, setup_only=True)["setup_s"]
        after = speed.reference_loop()
        setups.append(speed.scaled(seconds, (before + after) / 2))
        before = after
    return setups


def end_to_end(ops: list[dict], setups: list[float], peak_rss_mb: float) -> tuple[dict, dict]:
    latencies = [speed.scaled(op["seconds"], op["reference_s"]) for op in ops]
    tail_s, pct, beyond = tail(latencies)
    values = {
        "setup_s": statistics.median(setups),
        "photons_per_s": sum(op["photons"] for op in ops) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "op_tail_ms": f"p{pct:.1f}, {beyond} of {len(ops)} ops beyond it",
    }
    return values, notes


def report(spec_section: list[dict], values: dict, notes: dict) -> dict:
    metrics = {}
    for m in spec_section:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<46} {value:>16.6g} {m['unit']:<10} {notes.get(m['name'], '')}")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="qotp benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "qotp" / "cli.py").is_file():
        print(f"error: no qotp source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("error: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setup_runs = (0, 0) if args.trace else (SETUP_PROCESSES // 2, SETUP_PROCESSES - SETUP_PROCESSES // 2)
        setups = timed_setups(args, workdir, deadline, setup_runs[0])
        result = start_worker(args, workdir, deadline, setup_only=False)
        setups += timed_setups(args, workdir, deadline, setup_runs[1])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = result["ops"]
    failures = [op for op in ops if op["failure"] is not None]
    env = result["env"]
    mode = "traced" if args.trace else "untraced"
    print(f"qotp benchmark: workload {args.workload}, seed {args.seed}, {args.seconds} s, {mode}")
    print("env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for kind in dict.fromkeys(op["kind"] for op in ops):
        times = [op["seconds"] for op in ops if op["kind"] == kind]
        print(f"  op {kind:<20} {len(times):>4} ops, median {statistics.median(times) * 1e3:10.2f} ms unscaled")
    if not args.trace:
        reference = statistics.median(op["reference_s"] for op in ops)
        print(f"  reference loop median {reference * 1e3:.2f} ms; times below are scaled "
              f"to {speed.REFERENCE_S * 1e3:.0f} ms")
    for op in failures[:5]:
        print(f"failed {op['kind']} op: {op['failure']}", file=sys.stderr)
    print(f"  {'ops_failed_frac':<46} {len(failures) / len(ops):>16.6g} {'ratio':<10} "
          f"{len(failures)} of {len(ops)} ops")
    if args.trace:
        metrics = report(spec["per_layer"], result["per_layer"], {})
    else:
        values, notes = end_to_end(ops, setups, result["peak_rss_mb"])
        metrics = report(spec["end_to_end"], values, notes)
    print(json.dumps({"correct": not failures, "attempted": len(ops),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
