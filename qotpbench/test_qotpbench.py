"""Tests of the benchmark itself: wrong output counts as a failed op, inputs
follow the seed, and the tracer's self times add up.

    python3 -m pytest qotpbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from qotp import adversary, cli, protocol  # noqa: E402


def tampering(edit):
    """A CLI entry point that runs the real command, then rewrites its output."""

    def main(argv):
        code = cli.main(argv)
        out = Path(argv[argv.index("--out") + 1])
        out.write_text(edit(out.read_text()))
        return code

    return main


def writing(path: Path, text: str, code: int = 0):
    """A CLI entry point that only writes ``text`` as the op's output."""

    def main(argv):
        path.write_text(text)
        return code

    return main


def edit_field(text: str, row: int, col: int, value) -> str:
    lines = text.splitlines()
    fields = lines[row].split(",")
    fields[col] = str(value(float(fields[col])) if callable(value) else value)
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


# --- inputs -------------------------------------------------------------------


def test_per_op_seeds_are_distinct_63_bit_and_repeatable():
    seeds = [workloads.op_seed(7, k) for k in range(2000)]
    assert len(set(seeds)) == len(seeds)
    assert all(0 <= s < 2**63 for s in seeds)
    assert seeds == [workloads.op_seed(7, k) for k in range(2000)]
    assert workloads.op_seed(7, 0) != workloads.op_seed(7, 0, workloads.ROLE_WARMUP)


def test_a_seed_fixes_the_ops(tmp_path):
    ops = lambda seed: [workloads.Session(seed, tmp_path).op(k).argv for k in range(5)]  # noqa: E731
    assert ops(3) == ops(3)
    assert ops(3) != ops(4)
    assert [workloads.Session(3, tmp_path).op(k).kind for k in range(6)] == [
        "clean", "intercept_resend", "probe_plus", "probe_cross", "known_plaintext", "clean"]


def test_pad_file_round_trips_through_the_program(tmp_path):
    from qotp import keystore

    bits = workloads.random_bits(workloads.role_rng(9, workloads.ROLE_PAD), 4094)
    pad = keystore.pad_from_text(workloads.pad_file_text(bits))
    assert pad.bits.tolist() == bits.tolist() and pad.generation == 0


# --- checks -------------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory):
    sweep = workloads.Sweep(1, tmp_path_factory.mktemp("sweep"))
    op = sweep.op(0)
    assert worker.execute(sweep, op).failure is None
    return op.out.read_text()


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda t: t.replace("theta,", "angle,", 1), "header"),
        (lambda t: "".join(t.splitlines(True)[:-1]), "4 rows"),
        (lambda t: edit_field(t, 3, 0, lambda v: v + 1e-3), "off the grid"),
        (lambda t: edit_field(t, 3, 1, lambda v: v * 1.001), "d_theory"),
        (lambda t: edit_field(t, 3, 2, lambda v: v + 0.01), "6 sigma"),
        (lambda t: edit_field(t, 1, 2, "nan"), "6 sigma"),
        (lambda t: edit_field(t, 5, 4, lambda v: v + 0.5), "exceeds i0_at_d"),
    ],
)
def test_tampered_sweep_row_is_a_failed_op(tmp_path, sweep_csv, edit, reason):
    sweep = workloads.Sweep(1, tmp_path)
    op = sweep.op(0)
    record = worker.execute(sweep, op, writing(op.out, edit(sweep_csv)))
    assert record.failure is not None and reason in record.failure


@pytest.mark.parametrize(
    "main, reason",
    [
        (lambda argv: 0, "exit code 0, expected 2"),
        (lambda argv: cli.main(argv + ["--threshold", "2"]), "exit code 1, expected 2"),
        (lambda argv: 1 / 0, "ZeroDivisionError"),
    ],
)
def test_wrong_exit_code_is_a_failed_op(tmp_path, main, reason):
    session = workloads.Session(1, tmp_path)
    op = session.op(1)
    assert op.kind == "intercept_resend" and op.expected_exit == 2
    record = worker.execute(session, op, main)
    assert record.failure is not None and reason in record.failure


def test_wrong_digest_is_a_failed_op(tmp_path):
    session = workloads.Session(1, tmp_path)
    op = session.op(0)

    def main(argv):
        op.out.write_text("{}")
        print("session accepted")
        print("extracted message sha256: " + "0" * 64)
        return 0

    record = worker.execute(session, op, main)
    assert record.failure is not None and "digest" in record.failure


def drop_public_view(text: str) -> str:
    doc = json.loads(text)
    del doc["public_view"]
    return json.dumps(doc)


def test_transcript_failing_the_schema_is_a_failed_op(tmp_path):
    session = workloads.Session(1, tmp_path)
    records = [worker.execute(session, session.op(0), tampering(drop_public_view)),
               worker.execute(session, session.op(5))]
    assert [r.failure for r in records] == [None, None]
    worker.apply_final_checks(session, records)
    assert "public_view" in records[0].failure
    assert records[1].failure is None


def test_valid_transcripts_pass_the_schema(tmp_path):
    session = workloads.Session(2, tmp_path)
    records = [worker.execute(session, session.op(k)) for k in (0, 1)]
    worker.apply_final_checks(session, records)
    assert [r.failure for r in records] == [None, None]


@pytest.mark.parametrize(
    "path, value, reason",
    [
        (("audit", "announced_bits_reused"), 1, "reused"),
        (("audit", "all_messages_exact"), False, "differs"),
        (("final_pad_bits",), 127, "final pad"),
        (("halted_at_session",), 40, "halted at 40"),
    ],
)
def test_tampered_recycle_report_is_a_failed_op(tmp_path, path, value, reason):
    def edit(text):
        doc = json.loads(text)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return json.dumps(doc)

    recycle = workloads.Recycle(1, tmp_path)
    assert worker.execute(recycle, recycle.op(0)).failure is None
    record = worker.execute(recycle, recycle.op(0), tampering(edit))
    assert record.failure is not None and reason in record.failure


# --- metrics and tracing ------------------------------------------------------


def test_tail_has_ten_ops_beyond_it():
    assert run.tail([float(x) for x in range(40, 0, -1)]) == (30.0, 75.0, 10)
    assert run.tail([float(x) for x in range(199)]) == (149.0, 75.0, 49)
    assert run.tail([float(x) for x in range(200)]) == (189.0, 95.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0, 1)


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == tracing.metric_names() + ["trace_overhead_frac"]
    values, _ = run.end_to_end([{"seconds": 0.5, "photons": 10, "reference_s": 0.01}] * 12, [0.3], 50.0)
    assert [m["name"] for m in spec["end_to_end"]] == list(values)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_times_are_scaled_by_the_reference_loop():
    # the host ran the loop at half the reference speed, so a 0.5 s op counts as 0.25 s
    ops = [{"seconds": 0.5, "photons": 10, "reference_s": 2 * speed.REFERENCE_S}] * 12
    values, _ = run.end_to_end(ops, [0.3], 50.0)
    assert values["op_p50_ms"] == pytest.approx(250.0)
    assert values["op_tail_ms"] == pytest.approx(250.0)
    assert values["photons_per_s"] == pytest.approx(120 / 3.0)


def test_span_self_times_sum_to_the_parent_busy_time(tmp_path):
    tracer = tracing.Tracer()
    tracer.op_id = "tiny"
    tracer.install()
    try:
        worker.run_cli(["run", "--message-bits", "24", "--samples", "8", "--attack", "utb",
                        "--known-plaintext", "--seed", "3", "--out", str(tmp_path / "t.json")])
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    assert m["cli.main.calls"] == 1 and m["protocol.run_session.calls"] == 1
    assert m["adversary.attack_photon.calls"] == 2 * 32  # the known-plaintext wrapper recurses once
    assert m["quantum.StateVector.constructed"] > 0
    self_total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(m["cli.main.busy_s"], rel=1e-9)

    spans = {s[0]: s for s in tracer.spans}
    assert {s[5] for s in spans.values()} == {"tiny"}
    for span_id, _, start, end, parent, _ in spans.values():
        if parent is not None:
            assert spans[parent][2] <= start <= end <= spans[parent][3]
    # uninstall puts every original back where its callers look it up
    assert protocol.attack_photon is adversary.attack_photon
    assert not hasattr(protocol.attack_photon, "__wrapped__")
    assert not hasattr(cli.run_session, "__wrapped__")


def test_run_fails_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
