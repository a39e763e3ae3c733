"""One workload process of the qotp benchmark.

``run.py`` starts it, one process at a time.  It imports qotp, makes the
workload's inputs and runs one small warm-up op: that is set-up, and the
process notes the monotonic clock when set-up ends.  Unless ``--setup-only``
is given it then runs ops for ``--seconds``: untraced, with the reference
loop of ``speed.py`` timed between every two ops, or with ``--trace 1`` in
alternating untraced and traced batches of the same ops.  It prints one JSON
line with its results.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@dataclass
class OpRecord:
    kind: str
    seconds: float
    photons: int
    failure: str | None
    # mean time of the reference loop run just before and just after the op
    reference_s: float | None = None


def run_cli(argv):
    from qotp import cli

    return cli.main(argv)


def execute(workload: workloads.Workload, op: workloads.Op, main=run_cli) -> OpRecord:
    """Run one op with its output captured; time only the call itself."""
    op.out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    failure = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(list(op.argv))
    except SystemExit as exc:  # argparse rejects bad flags this way
        code = exc.code
    except Exception:
        code, failure = None, traceback.format_exc(limit=4)
    seconds = time.perf_counter() - start
    if failure is None and code != op.expected_exit:
        failure = f"exit code {code}, expected {op.expected_exit}: {stderr.getvalue().strip()[:200]}"
    if failure is None:
        try:
            failure = workload.check(op, stdout.getvalue())
        except (OSError, ValueError, LookupError, TypeError) as exc:
            failure = f"unreadable output: {exc!r}"
    return OpRecord(op.kind, seconds, op.photons, failure)


def run_batch(workload, count: int) -> list[OpRecord]:
    return [execute(workload, workload.op(k)) for k in range(count)]


def run_timed(workload, seconds: float) -> list[OpRecord]:
    """Whole rotations until ``seconds`` have passed, so the mix is fixed,
    with the reference loop bracketing every op."""
    records: list[OpRecord] = []
    before = speed.reference_loop()
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        for _ in workload.rotation:
            record = execute(workload, workload.op(len(records)))
            after = speed.reference_loop()
            record.reference_s = (before + after) / 2
            records.append(record)
            before = after
    return records


def run_traced(workload, seconds: float, tracer: tracing.Tracer):
    """Alternate an untraced and a traced batch of the same ops until
    ``seconds`` have passed; each per-layer metric is the median over the
    traced batches, and counts repeat exactly between them."""
    batch = workload.trace_rotations * len(workload.rotation)
    records: list[OpRecord] = []
    per_batch = []
    start = time.perf_counter()
    while not per_batch or time.perf_counter() - start < seconds:
        plain = run_batch(workload, batch)
        tracer.install()
        try:
            traced = []
            for k in range(batch):
                tracer.op_id = f"{len(per_batch)}.{k}"
                traced.append(execute(workload, workload.op(k)))
        finally:
            tracer.uninstall()
        layer = tracer.metrics()
        layer["trace_overhead_frac"] = (
            sum(r.seconds for r in traced) / sum(r.seconds for r in plain) - 1.0
        )
        per_batch.append(layer)
        records += plain + traced
    per_layer = {name: statistics.median(b[name] for b in per_batch) for name in per_batch[0]}
    return records, per_layer


def apply_final_checks(workload, records: list[OpRecord]) -> None:
    for kind, failure in workload.final_checks().items():
        # the checked output came from the first op of its kind that passed
        next(r for r in records if r.kind == kind and r.failure is None).failure = failure


def git_revision(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    from qotp import kernels

    # backend_name leaves with the numba backend; numpy is then the only one
    backend = getattr(kernels, "backend_name", None)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "backend": backend() if backend else "numpy",
        "git_rev": git_revision(ROOT),
    }


def write_spans(path: Path, env: dict, spans) -> None:
    with path.open("w") as f:
        f.write(json.dumps({"env": env}) + "\n")
        for span_id, name, start, end, parent, op_id in spans:
            f.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                "parent": parent, "op": op_id}) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from qotp import cli

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    quiet = io.StringIO()
    with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
        code = cli.main(workload.warmup_argv())
    if code != 0:
        print(f"warm-up op exited {code}: {quiet.getvalue()[:400]}", file=sys.stderr)
        return 1
    result = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if args.trace:
        tracer = tracing.Tracer()
        records, result["per_layer"] = run_traced(workload, args.seconds, tracer)
    else:
        records = run_timed(workload, args.seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    apply_final_checks(workload, records)
    result["env"] = environment()
    result["ops"] = [asdict(r) for r in records]
    if args.trace and args.spans:
        write_spans(args.spans, result["env"], tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
