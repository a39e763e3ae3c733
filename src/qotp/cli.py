"""Command-line front end: each subcommand checks its flags, calls one library
entry point (``run_session``, ``run_lineage``, a sweep or a bound table) and
only formats its result.

Exit codes: 0 success/accepted, 2 session rejected by the eavesdropping check,
1 usage, configuration or runtime error.  Every run is fully determined by its
flags and seed (``--seed``, defaulting to the QOTP_SEED environment variable,
then 0).  Each stream a command creates (pad, message, session, sweep grid
point) is seeded from the top-level seed by its own role label.
"""

from __future__ import annotations

import argparse
import functools
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
    KnownPlaintext,
    NoAttack,
)
from .errors import PadExhaustedError
from .kernels import Basis
from .protocol import SessionConfig, draw_messages, message_digest, run_lineage, run_session
from .rng import ROLE_MESSAGE, ROLE_PAD, make_rng, role_seed

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REJECTED = 2

_INT64_MAX = int(np.iinfo(np.int64).max)

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


def _add_session_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threshold", type=float, default=0.0, help="max tolerated sample error rate")
    p.add_argument(
        "--insecure-demo",
        action="store_true",
        help="required to run with a nonzero threshold (no privacy amplification here)",
    )
    p.add_argument("--seed", type=int, help=SEED_HELP)


def _add_attack_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--attack",
        choices=[NoAttack.kind, InterceptResend.kind, IndividualUTB.kind],
        default="none",
        help="channel adversary model",
    )
    p.add_argument(
        "--ir-basis",
        choices=["random", "plus", "cross"],
        help="basis choice strategy for intercept-resend (default random)",
    )
    p.add_argument("--theta", type=float, default=None, help="probe attack strength, radians in [0, pi/4]")
    p.add_argument("--theta-deg", type=float, default=None, help="probe attack strength in degrees")
    p.add_argument("--utb-basis", choices=["plus", "cross"], help="probe attack basis (default plus)")
    p.add_argument(
        "--known-plaintext",
        action="store_true",
        help="give the adversary the message for basis inference",
    )


def _resolve_theta(args) -> float:
    if args.theta is not None and args.theta_deg is not None:
        raise ValueError("pass --theta or --theta-deg, not both")
    if args.theta_deg is not None:
        if not 0.0 <= args.theta_deg <= 45.0:
            raise ValueError(f"--theta-deg must lie in [0, 45], got {args.theta_deg}")
        return float(args.theta_deg) * np.pi / 180.0
    if args.theta is not None:
        if not 0.0 <= args.theta <= np.pi / 4:  # NaN is outside too
            raise ValueError(f"--theta must lie in [0, pi/4], got {args.theta}")
        return float(args.theta)
    return np.pi / 4


# attack flag -> the --attack value that reads it
_ATTACK_FLAG_OWNERS = {
    "ir_basis": InterceptResend.kind,
    "theta": IndividualUTB.kind,
    "theta_deg": IndividualUTB.kind,
    "utb_basis": IndividualUTB.kind,
}


def _check_session_flags(args) -> None:
    """Reject a negative message length, no sampling bits, a threshold outside
    [0, 1] or above 0 without --insecure-demo, and attack flags the
    configured attack would silently ignore."""
    if args.message_bits < 0:
        raise ValueError(f"--message-bits must be >= 0, got {args.message_bits}")
    if args.samples is not None and args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    if not 0.0 <= args.threshold <= 1.0:
        raise ValueError(f"--threshold must lie in [0, 1], got {args.threshold}")
    if args.threshold > 0.0 and not args.insecure_demo:
        raise ValueError(
            "--threshold above 0 releases messages over a noisy channel without "
            "privacy amplification; pass --insecure-demo to accept that"
        )
    for name, owner in _ATTACK_FLAG_OWNERS.items():
        if getattr(args, name) is not None and args.attack != owner:
            raise ValueError(f"--{name.replace('_', '-')} applies only to --attack {owner}")
    if args.known_plaintext and args.attack == NoAttack.kind:
        raise ValueError("--known-plaintext needs an attack that leaves records")


def _build_attack(args) -> AttackModel:
    if args.attack == NoAttack.kind:
        attack: AttackModel = NoAttack()
    elif args.attack == InterceptResend.kind:
        attack = InterceptResend(None if args.ir_basis in (None, "random") else Basis(args.ir_basis))
    else:
        attack = IndividualUTB(
            theta=_resolve_theta(args),
            attack_basis=Basis(args.utb_basis or "plus"),
        )
    if args.known_plaintext:
        attack = KnownPlaintext(inner=attack)
    return attack


def _parse_bits(text: str) -> np.ndarray:
    bits = np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8) - ord("0")
    if np.any(bits > 1):  # every other character wraps past 1
        raise ValueError(f"message must be a 0/1 string, got {text!r}")
    return bits


def _pad_length(n_bits: int, flags: str) -> int:
    if n_bits > _INT64_MAX:  # numpy sizes stop there
        raise ValueError(f"a pad of {n_bits} bits, set by {flags}, is past the int64 maximum")
    return n_bits


def _session_config(args, n_message: int, n_sample: int) -> SessionConfig:
    """The session the flags ask for, its pad length checked before any draw."""
    _pad_length(2 * (n_message + n_sample), "--message-bits and --samples")
    return SessionConfig(
        n_message=n_message,
        n_sample=n_sample,
        abort_threshold=args.threshold,
        seed=args.seed,
        allow_insecure_demo=args.insecure_demo,
    )


def _session_pad(args, n_bits_needed: int) -> keystore.PadKey:
    if args.pad_file:
        return keystore.load_pad(args.pad_file)
    rng = make_rng(role_seed(args.seed, ROLE_PAD))
    return keystore.generate_pad(n_bits_needed, rng)


def cmd_run(args) -> int:
    _check_session_flags(args)
    n_message = args.message_bits if args.message is None else len(args.message)
    n_sample = args.samples if args.samples is not None else max(32, n_message // 4)
    config = _session_config(args, n_message, n_sample)
    if args.message is None:
        message = draw_messages(make_rng(role_seed(args.seed, ROLE_MESSAGE)), 1, n_message)[0]
    else:
        message = _parse_bits(args.message)
    attack = _build_attack(args)
    pad = _session_pad(args, 2 * (n_message + n_sample))
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


def _grid(lo: float, hi: float, points: int) -> list[float]:
    if not 0 <= points <= _INT64_MAX:  # past int64 np.linspace fails with an IndexError
        raise ValueError(f"--points must lie in [0, {_INT64_MAX}], got {points}")
    return list(np.linspace(lo, hi, points))


def _float_list(text: str, flag: str, hi: float, hi_text: str) -> list[float]:
    """A comma-separated grid, every value checked to lie in [0, hi]."""
    try:
        values = [float(value) for value in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated numbers, got {text!r}") from None
    outside = [value for value in values if not 0.0 <= value <= hi]  # NaN is outside too
    if outside:
        raise ValueError(f"{flag} values must lie in [0, {hi_text}], got {outside[0]}")
    return values


def cmd_sweep_theta(args) -> int:
    if args.thetas is not None:
        thetas = _float_list(args.thetas, "--thetas", np.pi / 4, "pi/4")
    else:
        thetas = _grid(0.0, np.pi / 4, args.points)
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
    if args.d_grid is not None:
        grid = _float_list(args.d_grid, "--d-grid", 0.25, "0.25")
    else:
        for flag, value in (("--d-min", args.d_min), ("--d-max", args.d_max)):
            if not 0.0 <= value <= 0.25:
                raise ValueError(f"{flag} must lie in [0, 0.25], got {value}")
        grid = _grid(args.d_min, args.d_max, args.points)
    pole_points = np.asarray(grid)[analysis.on_pole(grid)].tolist()
    if pole_points:
        flag = "--d-grid" if args.d_grid is not None else (
            {args.d_max: "--d-max", args.d_min: "--d-min"}.get(pole_points[0], "--points grid"))
        raise ValueError(f"{flag} value {pole_points[0]:.12g} is on the epsilon_tilde_min pole "
                         f"at d_m = {analysis.POLE_DM:.12g}")
    return _write_table(analysis.bounds_csv(grid), args.out)


def cmd_recycle_demo(args) -> int:
    if args.sessions < 1:
        raise ValueError(f"recycle-demo needs at least 1 session, got {args.sessions}")
    if args.attack_session is not None and not 1 <= args.attack_session <= args.sessions:
        raise ValueError(
            f"--attack-session {args.attack_session} is outside sessions 1..{args.sessions}"
        )
    _check_session_flags(args)
    if (args.attack == NoAttack.kind) != (args.attack_session is None):
        raise ValueError("--attack-session and an --attack other than none go together")
    config = _session_config(args, args.message_bits, args.samples)
    if args.pad_bits is None:
        pad_bits = _pad_length(
            2 * (args.message_bits + args.samples) + 2 * args.samples * (args.sessions - 1),
            "--message-bits, --samples and --sessions",
        )
    elif args.pad_bits < 1:
        raise ValueError(f"--pad-bits must be >= 1, got {args.pad_bits}")
    else:
        pad_bits = _pad_length(args.pad_bits, "--pad-bits")
    pad = keystore.generate_pad(pad_bits, make_rng(role_seed(args.seed, ROLE_PAD)))
    attack, clean = _build_attack(args), NoAttack()
    attacks = (attack if args.attack_session == k + 1 else clean for k in range(args.sessions))
    report, pad = run_lineage(pad, config, attacks)
    text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    print(f"sessions run: {len(report['sessions'])} of {args.sessions}")
    print(f"announced bits reused later: {report['audit']['announced_bits_reused']}")
    if pad is None:
        print(f"halted at session {report['halted_at_session']}: "
              "eavesdropping detected, pad lineage retired")
        return EXIT_REJECTED
    print(f"final pad length: {len(pad)}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qotp",
        description="Repeatable one-time-pad over simulated polarization qubits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one session")
    msg = p_run.add_mutually_exclusive_group()
    msg.add_argument("--message", help="explicit message as a 0/1 string")
    msg.add_argument("--message-bits", type=int, default=128, help="random message length (default 128)")
    p_run.add_argument("--samples", type=int, help="number of sampling bits (default max(32, n/4))")
    _add_session_args(p_run)
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
    _add_session_args(p_demo)
    p_demo.add_argument("--pad-bits", type=int, help="initial pad length (default: exactly enough)")
    p_demo.add_argument(
        "--attack-session",
        type=int,
        help="1-based session index to run under the configured attack",
    )
    p_demo.add_argument("--out", help="JSON report path")
    _add_attack_args(p_demo)
    p_demo.set_defaults(func=cmd_recycle_demo)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        empty = [name for name, value in vars(args).items() if value == []]
        if empty:  # argparse before Python 3.13 reads the value "--" as no value: []
            raise ValueError(f"--{empty[0].replace('_', '-')} needs a value")
        env_seed = _env_seed()
        if getattr(args, "seed", 0) is None:
            args.seed = env_seed
        return args.func(args)
    except (ValueError, PadExhaustedError, OSError,
            MemoryError) as exc:  # numpy raises MemoryError before allocating
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
