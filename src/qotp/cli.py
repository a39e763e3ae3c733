"""Command-line harness: single sessions, attack-strength sweeps, bound
tables, and multi-session pad-reuse demonstrations.

Exit codes: 0 success/accepted, 2 session rejected by the eavesdropping
check, 1 usage, configuration or runtime error.  Every run is fully
determined by its flags and seed (``--seed``, defaulting to the QOTP_SEED
environment variable, then 0).  Each stream a command creates (pad, message,
session, sweep grid point) is seeded from the top-level seed by its own role
label.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, keystore
from .adversary import (
    AttackModel,
    IndividualUTB,
    InterceptResend,
    IRStrategy,
    KnownPlaintext,
    NoAttack,
)
from .errors import PadExhaustedError, PoleError, ProtocolViolationError
from .protocol import SessionConfig, message_digest, run_session
from .quantum import Basis
from .rng import ROLE_MESSAGE, ROLE_PAD, ROLE_SESSION, make_rng, role_seed

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REJECTED = 2

SEED_HELP = "top-level seed (default: the QOTP_SEED environment variable, then 0)"


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ValueError, so ``main`` reports them as one
    ``error:`` line with exit code 1 (exit code 2 means a rejected session)."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _env_seed() -> int:
    text = os.environ.get("QOTP_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"QOTP_SEED must be an integer, got {text!r}") from None


def _add_attack_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--attack",
        choices=["none", "intercept_resend", "utb"],
        default="none",
        help="channel adversary model",
    )
    p.add_argument(
        "--ir-basis",
        choices=["random", "plus", "cross"],
        default="random",
        help="basis choice strategy for intercept-resend",
    )
    p.add_argument("--theta", type=float, default=None, help="probe attack strength, radians in [0, pi/4]")
    p.add_argument("--theta-deg", type=float, default=None, help="probe attack strength in degrees")
    p.add_argument(
        "--utb-basis", choices=["plus", "cross"], default="plus", help="probe attack basis"
    )
    p.add_argument(
        "--known-plaintext",
        action="store_true",
        help="give the adversary the message for basis inference",
    )


def _resolve_theta(args) -> float:
    if args.theta is not None and args.theta_deg is not None:
        raise ValueError("pass --theta or --theta-deg, not both")
    if args.theta_deg is not None:
        return float(args.theta_deg) * np.pi / 180.0
    if args.theta is not None:
        return float(args.theta)
    return np.pi / 4


def _build_attack(args, message) -> AttackModel:
    if args.attack == "none":
        attack: AttackModel = NoAttack()
    elif args.attack == "intercept_resend":
        attack = InterceptResend(basis_strategy=IRStrategy(args.ir_basis))
    else:
        attack = IndividualUTB(
            theta=_resolve_theta(args),
            attack_basis=Basis(args.utb_basis),
        )
    if getattr(args, "known_plaintext", False):
        attack = KnownPlaintext(inner=attack, known_message=tuple(message.tolist()))
    return attack


def _parse_bits(text: str) -> np.ndarray:
    bits = np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8) - ord("0")
    if np.any(bits > 1):  # every other character wraps past 1
        raise ValueError(f"message must be a 0/1 string, got {text!r}")
    return bits


def _session_message(args) -> np.ndarray:
    if args.message is not None and args.message_bits is not None:
        raise ValueError("pass --message or --message-bits, not both")
    if args.message is not None:
        return _parse_bits(args.message)
    n = args.message_bits if args.message_bits is not None else 128
    rng = make_rng(role_seed(args.seed, ROLE_MESSAGE))
    return rng.integers(0, 2, size=n, dtype=np.uint8)


def _session_pad(args, n_bits_needed: int) -> keystore.PadKey:
    if args.pad_file:
        return keystore.load_pad(args.pad_file)
    rng = make_rng(role_seed(args.seed, ROLE_PAD))
    return keystore.generate_pad(n_bits_needed, rng)


def cmd_run(args) -> int:
    message = _session_message(args)
    n_sample = args.samples if args.samples is not None else max(32, message.size // 4)
    config = SessionConfig(
        n_message=int(message.size),
        n_sample=int(n_sample),
        abort_threshold=args.threshold,
        seed=role_seed(args.seed, ROLE_SESSION),
        allow_insecure_demo=args.insecure_demo,
    )
    attack = _build_attack(args, message)
    pad = _session_pad(args, 2 * (config.n_message + config.n_sample))
    transcript = run_session(config, pad, message, attack)
    if args.out:
        Path(args.out).write_text(transcript.to_json())
    report = transcript.error_report
    verdict = "accepted" if report.accepted else "rejected: eavesdropping detected"
    print(f"session {verdict}")
    print(f"sample error rate: {report.rate:.6g} ({report.n_errors}/{report.n_checked})")
    if transcript.extracted_message is not None:
        print(f"extracted message sha256: {message_digest(transcript.extracted_message)}")
        if args.reveal:
            print("extracted message bits: " + "".join(str(int(b)) for b in transcript.extracted_message))
    return EXIT_OK if report.accepted else EXIT_REJECTED


def _write_table(text: str, out: str | None) -> int:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_sweep_theta(args) -> int:
    if args.thetas:
        thetas = [float(t) for t in args.thetas.split(",")]
    else:
        thetas = list(np.linspace(0.0, np.pi / 4, args.points))
    if len(thetas) < 2:
        raise ValueError("a sweep needs at least 2 grid points")
    points = analysis.sweep_theta(
        thetas,
        n_photons=args.photons,
        seed=args.seed,
        attack_basis=Basis(args.utb_basis),
    )
    return _write_table(analysis.sweep_csv(points), args.out)


def cmd_bounds(args) -> int:
    if args.d_grid:
        grid = [float(d) for d in args.d_grid.split(",")]
    else:
        grid = list(np.linspace(args.d_min, args.d_max, args.points))
    return _write_table(analysis.bounds_csv(grid), args.out)


def cmd_recycle_demo(args) -> int:
    if args.sessions < 1:
        raise ValueError(f"recycle-demo needs at least 1 session, got {args.sessions}")
    if args.attack_session is not None and not 1 <= args.attack_session <= args.sessions:
        raise ValueError(
            f"--attack-session {args.attack_session} is outside sessions 1..{args.sessions}"
        )
    n_message = args.message_bits if args.message_bits is not None else 64
    n_sample = args.samples if args.samples is not None else 16
    per_session = 2 * (n_message + n_sample)
    pad_bits = args.pad_bits or per_session + 2 * n_sample * (args.sessions - 1)
    pad = keystore.generate_pad(pad_bits, make_rng(role_seed(args.seed, ROLE_PAD)))

    sessions = []
    # times each generation-0 pad bit has been announced so far
    announced_count = np.zeros(len(pad), dtype=np.int64)
    halted_at = None
    reused = 0
    for k in range(args.sessions):
        message = make_rng(role_seed(args.seed, ROLE_MESSAGE, k)).integers(
            0, 2, size=n_message, dtype=np.uint8
        )
        attacked = args.attack_session == k + 1
        attack = _build_attack(args, message) if attacked else NoAttack()
        config = SessionConfig(
            n_message=n_message,
            n_sample=n_sample,
            abort_threshold=args.threshold,
            seed=role_seed(args.seed, ROLE_SESSION, k),
            allow_insecure_demo=args.insecure_demo,
        )
        before = len(pad)
        transcript = run_session(config, pad, message, attack)
        drawn = pad.origin_indices[transcript.keys.sources]
        reused += int(announced_count[drawn].sum())
        np.add.at(announced_count, transcript.announced_origin_bits, 1)
        accepted = transcript.error_report.accepted
        exact = bool(
            accepted
            and transcript.extracted_message is not None
            and np.array_equal(transcript.extracted_message, message)
        )
        sessions.append(
            {
                "session": k + 1,
                "pad_bits_before": before,
                "pad_bits_after": len(transcript.recycled_pad) if accepted else before,
                "accepted": accepted,
                "error_rate": transcript.error_report.rate,
                "message_exact": exact,
                "attacked": attacked,
            }
        )
        if not accepted:
            halted_at = k + 1
            break
        pad = transcript.recycled_pad

    report = {
        "sessions": sessions,
        "halted_at_session": halted_at,
        "final_pad_bits": len(pad) if halted_at is None else None,
        "audit": {
            "announced_bits_reused": reused,
            "all_messages_exact": all(s["message_exact"] for s in sessions if s["accepted"]),
        },
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    print(f"sessions run: {len(sessions)} of {args.sessions}")
    print(f"announced bits reused later: {reused}")
    if halted_at is not None:
        print(f"halted at session {halted_at}: eavesdropping detected, pad lineage retired")
        return EXIT_REJECTED
    print(f"final pad length: {len(pad)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qotp",
        description="Repeatable one-time-pad over simulated polarization qubits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one session")
    p_run.add_argument("--message", help="explicit message as a 0/1 string")
    p_run.add_argument("--message-bits", type=int, help="random message length (default 128)")
    p_run.add_argument("--samples", type=int, help="number of sampling bits (default max(32, n/4))")
    p_run.add_argument("--threshold", type=float, default=0.0, help="max tolerated sample error rate")
    p_run.add_argument(
        "--insecure-demo",
        action="store_true",
        help="required to run with a nonzero threshold (no privacy amplification here)",
    )
    p_run.add_argument("--seed", type=int, help=SEED_HELP)
    p_run.add_argument("--pad-file", help="load the pad from a pad file instead of generating one")
    p_run.add_argument("--out", help="write the transcript JSON here")
    p_run.add_argument("--reveal", action="store_true", help="print message bits, not just the digest")
    _add_attack_args(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep-theta", help="probe-attack strength sweep to CSV")
    p_sweep.add_argument("--thetas", help="comma-separated theta grid (radians)")
    p_sweep.add_argument("--points", type=int, default=5, help="grid size over [0, pi/4]")
    p_sweep.add_argument("--photons", type=int, default=10_000, help="photons per grid point")
    p_sweep.add_argument("--utb-basis", choices=["plus", "cross"], default="plus")
    p_sweep.add_argument("--seed", type=int, help=SEED_HELP)
    p_sweep.add_argument("--out", help="CSV output path (stdout if omitted)")
    p_sweep.set_defaults(func=cmd_sweep_theta)

    p_bounds = sub.add_parser("bounds", help="closed-form bound table to CSV")
    p_bounds.add_argument("--d-grid", help="comma-separated d_m grid")
    p_bounds.add_argument("--d-min", type=float, default=0.0)
    p_bounds.add_argument("--d-max", type=float, default=0.08)
    p_bounds.add_argument("--points", type=int, default=17)
    p_bounds.add_argument("--out", help="CSV output path (stdout if omitted)")
    p_bounds.set_defaults(func=cmd_bounds)

    p_demo = sub.add_parser("recycle-demo", help="consecutive sessions on one pad lineage")
    p_demo.add_argument("--sessions", type=int, default=5)
    p_demo.add_argument("--message-bits", type=int, default=64)
    p_demo.add_argument("--samples", type=int, default=16)
    p_demo.add_argument("--threshold", type=float, default=0.0)
    p_demo.add_argument("--insecure-demo", action="store_true")
    p_demo.add_argument("--pad-bits", type=int, help="initial pad length (default: exactly enough)")
    p_demo.add_argument(
        "--attack-session",
        type=int,
        help="1-based session index to run under the configured attack",
    )
    p_demo.add_argument("--seed", type=int, help=SEED_HELP)
    p_demo.add_argument("--out", help="JSON report path")
    _add_attack_args(p_demo)
    p_demo.set_defaults(func=cmd_recycle_demo)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        env_seed = _env_seed()
        if getattr(args, "seed", 0) is None:
            args.seed = env_seed
        return args.func(args)
    except (ValueError, PoleError, PadExhaustedError, ProtocolViolationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
