"""The three workloads of the qotp benchmark: the inputs each makes from the
workload seed, the fixed rotation of ops it cycles, and the checks every
op's output must pass.

An op is one in-process CLI invocation, ``qotp.cli.main(argv)``.  Every
input derives from the workload seed through ``numpy.random.SeedSequence``,
one spawn-key role per kind of input and one child per op, so a seed fixes
the ops and their order.  The program sees only the generated ``--message``,
``--pad-file`` and ``--seed`` values.  Per-op seeds are 63-bit draws, so no
two ops of a run share a stream through ``derive_subseed(seed ^ index)``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SCHEMA_PATH = ROOT / "docs" / "transcript_schema.json"

ROLE_PAD, ROLE_MESSAGE, ROLE_OP_SEED, ROLE_WARMUP = 0, 1, 2, 3


def role_rng(seed: int, role: int, index: int = 0) -> np.random.Generator:
    """Independent stream for input ``role`` of op ``index`` under ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(role, index)))


def op_seed(seed: int, index: int, role: int = ROLE_OP_SEED) -> int:
    """The 63-bit ``--seed`` value of op ``index``."""
    return int(role_rng(seed, role, index).integers(0, 2**63))


def random_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, 2, size=n, dtype=np.uint8)


def bits_text(bits: np.ndarray) -> str:
    return (bits + ord("0")).tobytes().decode("ascii")


def pad_file_text(bits: np.ndarray) -> str:
    """The pad exchange format: generation, hex digits MSB first, bit count."""
    return f"generation=0\n{np.packbits(bits).tobytes().hex().upper()}\nbits={bits.size}\n"


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple[str, ...]
    photons: int
    expected_exit: int
    out: Path
    message: str | None = None


class Workload:
    """An op rotation cycled in fixed order, so every run has the same mix."""

    name: str
    rotation: tuple[str, ...]
    # whole rotations in one batch of the traced run
    trace_rotations: int

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def op(self, index: int) -> Op:
        raise NotImplementedError

    def warmup_argv(self) -> list[str]:
        raise NotImplementedError

    def check(self, op: Op, stdout: str) -> str | None:
        """Return why the op's output is wrong, or None when it is right."""
        raise NotImplementedError

    def final_checks(self) -> dict[str, str]:
        """Checks deferred to the end of the run, as {op kind: failure}."""
        return {}


# --- sweep ------------------------------------------------------------------

SWEEP_POINTS = 5
SWEEP_PHOTONS = 200_000
SWEEP_HEADER = "theta,d_theory,d_matched_empirical,d_overall_empirical,mi_empirical,i0_at_d"
# Plug-in MI bias allowance at ~1e5 attacked-basis photons, as in the
# package's own seeded bound tests.
MI_ESTIMATOR_SLACK = 0.02


def check_sweep_csv(text: str, n_points: int, n_photons: int) -> str | None:
    """Header, row count, the theta grid, d_theory = sin^2(theta)/2, the
    matched-basis error rate within 6 sigma of it, and MI under i0 + slack."""
    lines = text.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return "sweep CSV header is wrong"
    rows = lines[1:]
    if len(rows) != n_points:
        return f"sweep CSV has {len(rows)} rows, expected {n_points}"
    # 6 sigma below the expected n/2 attacked-basis photons of a point
    matched_min = n_photons / 2 - 3 * math.sqrt(n_photons)
    for theta, row in zip(np.linspace(0.0, math.pi / 4, n_points), rows):
        fields = row.split(",")
        if len(fields) != 6:
            return f"sweep CSV row {row!r} does not have 6 fields"
        t, d_theory, d_matched, _, mi, i0 = (float(f) for f in fields)
        d = 0.5 * math.sin(theta) ** 2
        if not math.isclose(t, theta, rel_tol=1e-9, abs_tol=1e-12):
            return f"theta {t} is off the grid point {theta}"
        if not math.isclose(d_theory, d, rel_tol=1e-9, abs_tol=1e-15):
            return f"d_theory {d_theory} != d_of_theta({theta}) = {d}"
        sigma = math.sqrt(d * (1.0 - d) / matched_min)
        if not abs(d_matched - d) <= 6.0 * sigma + 1e-9:
            return f"d_matched_empirical {d_matched} is more than 6 sigma from {d}"
        if not mi <= i0 + MI_ESTIMATOR_SLACK:
            return f"mi_empirical {mi} exceeds i0_at_d {i0} + {MI_ESTIMATOR_SLACK}"
    return None


class Sweep(Workload):
    """sweep-theta at 10^6 photons per op, alternating the probe basis."""

    name = "sweep"
    rotation = ("plus", "cross")
    trace_rotations = 2

    def op(self, index: int) -> Op:
        basis = self.rotation[index % len(self.rotation)]
        out = self.workdir / f"sweep-{basis}.csv"
        argv = (
            "sweep-theta", "--points", str(SWEEP_POINTS), "--photons", str(SWEEP_PHOTONS),
            "--utb-basis", basis, "--seed", str(op_seed(self.seed, index)), "--out", str(out),
        )
        return Op(basis, argv, SWEEP_POINTS * SWEEP_PHOTONS, 0, out)

    def warmup_argv(self) -> list[str]:
        out = self.workdir / "warmup.csv"
        return ["sweep-theta", "--points", "2", "--photons", "1000",
                "--seed", str(op_seed(self.seed, 0, ROLE_WARMUP)), "--out", str(out)]

    def check(self, op: Op, stdout: str) -> str | None:
        return check_sweep_csv(op.out.read_text(), SWEEP_POINTS, SWEEP_PHOTONS)


# --- session ----------------------------------------------------------------

SESSION_MESSAGE_BITS = 1536
SESSION_SAMPLES = 512
SESSION_PAD_BITS = 2 * (SESSION_MESSAGE_BITS + SESSION_SAMPLES)
_PROBE = ("--attack", "utb", "--theta-deg", "22.5")
# kind -> (attack flags, expected exit code).  The clean op also reads the
# generated pad file.  A rejected session exits 2.
SESSION_KINDS = {
    "clean": ((), 0),
    "intercept_resend": (("--attack", "intercept_resend", "--ir-basis", "random"), 2),
    "probe_plus": (_PROBE + ("--utb-basis", "plus"), 2),
    "probe_cross": (_PROBE + ("--utb-basis", "cross"), 2),
    "known_plaintext": (_PROBE + ("--utb-basis", "plus", "--known-plaintext"), 2),
}
VERDICT = {0: "session accepted", 2: "session rejected: eavesdropping detected"}


def sha256_of_bits(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def schema_failure(doc) -> str | None:
    """First violation of docs/transcript_schema.json, or None."""
    import jsonschema

    validator = jsonschema.Draft7Validator(json.loads(SCHEMA_PATH.read_text()))
    error = next(iter(validator.iter_errors(doc)), None)
    return None if error is None else error.message[:200]


class Session(Workload):
    """One audited 2048-photon session per op in a 5-op attack rotation."""

    name = "session"
    rotation = tuple(SESSION_KINDS)
    trace_rotations = 1

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.pad_path = workdir / "session-pad.txt"
        self.pad_path.write_text(pad_file_text(random_bits(role_rng(seed, ROLE_PAD), SESSION_PAD_BITS)))
        self.first_transcripts: dict[str, Path] = {}

    def op(self, index: int) -> Op:
        kind = self.rotation[index % len(self.rotation)]
        flags, expected = SESSION_KINDS[kind]
        if kind == "clean":
            flags = ("--pad-file", str(self.pad_path))
        message = bits_text(random_bits(role_rng(self.seed, ROLE_MESSAGE, index), SESSION_MESSAGE_BITS))
        out = self.workdir / f"session-{kind}.json"
        argv = ("run", "--message", message, "--samples", str(SESSION_SAMPLES),
                "--seed", str(op_seed(self.seed, index)), "--out", str(out)) + flags
        return Op(kind, argv, SESSION_MESSAGE_BITS + SESSION_SAMPLES, expected, out, message)

    def warmup_argv(self) -> list[str]:
        message = bits_text(random_bits(role_rng(self.seed, ROLE_WARMUP), 64))
        return ["run", "--message", message, "--samples", "16", "--pad-file", str(self.pad_path),
                "--seed", str(op_seed(self.seed, 0, ROLE_WARMUP)),
                "--out", str(self.workdir / "warmup.json")]

    def check(self, op: Op, stdout: str) -> str | None:
        lines = stdout.splitlines()
        if not lines or lines[0] != VERDICT[op.expected_exit]:
            return f"verdict line {lines[:1]} for a {op.kind} session"
        if op.kind == "clean" and f"extracted message sha256: {sha256_of_bits(op.message)}" not in lines:
            return "the extracted message's digest is not the sent message's"
        if not op.out.is_file():
            return "no transcript written"
        if op.kind not in self.first_transcripts:
            # validated at the end of the run, after peak memory is read
            kept = self.workdir / f"first-{op.kind}.json"
            os.replace(op.out, kept)
            self.first_transcripts[op.kind] = kept
        return None

    def final_checks(self) -> dict[str, str]:
        failures = {}
        for kind, path in self.first_transcripts.items():
            failure = schema_failure(json.loads(path.read_text()))
            if failure is not None:
                failures[kind] = f"{kind} transcript fails the schema: {failure}"
        return failures


# --- recycle ----------------------------------------------------------------

RECYCLE_SESSIONS = 100
RECYCLE_MESSAGE_BITS = 64
RECYCLE_SAMPLES = 16
# The default pad holds one session's keys plus the check bits of every later
# session, and each recycling drops one check's bits, so one session's keys
# minus one check's bits remain.
RECYCLE_FINAL_PAD_BITS = 2 * RECYCLE_MESSAGE_BITS


def check_recycle_report(report: dict) -> str | None:
    audit = report["audit"]
    if len(report["sessions"]) != RECYCLE_SESSIONS or report["halted_at_session"] is not None:
        return f"lineage ran {len(report['sessions'])} sessions, halted at {report['halted_at_session']}"
    if audit["announced_bits_reused"] != 0:
        return f"{audit['announced_bits_reused']} announced pad bits were reused"
    if audit["all_messages_exact"] is not True:
        return "a released message differs from the sent one"
    if report["final_pad_bits"] != RECYCLE_FINAL_PAD_BITS:
        return f"final pad has {report['final_pad_bits']} bits, expected {RECYCLE_FINAL_PAD_BITS}"
    return None


class Recycle(Workload):
    """recycle-demo: 100 short sessions on one pad lineage per op."""

    name = "recycle"
    rotation = ("lineage",)
    trace_rotations = 3

    def op(self, index: int) -> Op:
        out = self.workdir / "recycle.json"
        argv = ("recycle-demo", "--sessions", str(RECYCLE_SESSIONS),
                "--message-bits", str(RECYCLE_MESSAGE_BITS), "--samples", str(RECYCLE_SAMPLES),
                "--seed", str(op_seed(self.seed, index)), "--out", str(out))
        photons = RECYCLE_SESSIONS * (RECYCLE_MESSAGE_BITS + RECYCLE_SAMPLES)
        return Op("lineage", argv, photons, 0, out)

    def warmup_argv(self) -> list[str]:
        return ["recycle-demo", "--sessions", "2", "--seed", str(op_seed(self.seed, 0, ROLE_WARMUP)),
                "--out", str(self.workdir / "warmup.json")]

    def check(self, op: Op, stdout: str) -> str | None:
        return check_recycle_report(json.loads(op.out.read_text()))


WORKLOADS = {w.name: w for w in (Sweep, Session, Recycle)}
