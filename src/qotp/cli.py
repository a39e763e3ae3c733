"""Command-line front end: each flag's argparse type checks that flag's value,
and each subcommand checks the rules that span flags, calls one library entry
point (``run_session``, ``run_lineage``, a sweep or a bound table) and only
formats its result.

Exit codes: 0 success/accepted, 2 session rejected by the eavesdropping check,
1 usage, configuration or runtime error, as one line such as ``error: qotp run:
argument --samples: <why>``.  Every run is fully determined by its flags and
seed (``--seed``, defaulting to the QOTP_SEED environment variable, then 0).
Each stream a command creates (pad, messages, sessions, sweep) is seeded from
the top-level seed by its own role label, and serves that whole role.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

import numpy as np

from . import analysis, kernels, keystore
from .adversary import IndividualUTB, InterceptResend, NoAttack
from .errors import PadExhaustedError
from .kernels import Basis
from .protocol import (SessionConfig, _digits, draw_messages, json_text, message_digest,
                       run_lineage, run_session)
from .rng import ROLE_MESSAGE, ROLE_PAD, make_rng, role_seed

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REJECTED = 2

_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
# bounds that a flag's error names in words
_BOUND_NAMES = {_INT64_MIN: "int64 min", _INT64_MAX: "int64 max", np.pi / 4: "pi/4"}

SEED_HELP = "top-level seed (default: the QOTP_SEED environment variable, then 0)"


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ValueError, so ``main`` reports them as one
    ``error:`` line with exit code 1 (exit code 2 means a rejected session)."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _in_range(convert, lo, hi=_INT64_MAX, at_least: int = 0):
    """An argparse type: a plain ASCII number (``kernels.read_number``) that
    ``convert`` reads as a value in [lo, hi] (NaN is outside) or, given
    ``at_least``, a comma-separated list of at least that many such values."""
    what = {int: "an integer", float: "a number"}[convert]
    if at_least:
        what = "comma-separated numbers" if at_least == 1 else f"{at_least} or more comma-separated numbers"
    span = f"[{_BOUND_NAMES.get(lo, lo)}, {_BOUND_NAMES.get(hi, hi)}]"

    def parse(text: str):
        values = []
        for item in text.split(",") if at_least else [text]:
            try:
                value = kernels.read_number(convert, item)
            except ValueError:
                value = None
            if value is None or not lo <= value <= hi:
                raise argparse.ArgumentTypeError(f"must be {what} in {span}, got {item!r}")
            values.append(value)
        if len(values) < at_least:
            raise argparse.ArgumentTypeError(f"must be {what} in {span}, got {text!r}")
        return values if at_least else values[0]

    return parse


_seed = _in_range(int, _INT64_MIN)


def _env_seed() -> int:
    try:
        return _seed(os.environ.get("QOTP_SEED", "0"))
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"QOTP_SEED: {exc}") from None


def _parse_bits(text: str) -> np.ndarray:
    """An argparse type: a message as a 0/1 string."""
    bits = np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8) - ord("0")
    if np.any(bits > 1):  # every other character wraps past 1
        raise argparse.ArgumentTypeError(f"must be a 0/1 string, got {text!r}")
    return bits


def _add_session_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threshold", type=_in_range(float, 0, 1), default=0.0,
                   help="max tolerated sample error rate")
    p.add_argument(
        "--insecure-demo",
        action="store_true",
        help="required to run with a nonzero threshold (no privacy amplification here)",
    )
    p.add_argument("--seed", type=_seed, help=SEED_HELP)


def _add_attack_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--attack",
        choices=list(_ATTACKS),
        default="none",
        help="channel adversary model",
    )
    p.add_argument(
        "--ir-basis",
        choices=["random", "plus", "cross"],
        help="basis choice strategy for intercept-resend (default random)",
    )
    theta = p.add_mutually_exclusive_group()
    theta.add_argument("--theta", type=_in_range(float, 0, np.pi / 4),
                       help="probe attack strength, radians in [0, pi/4]")
    theta.add_argument("--theta-deg", type=_in_range(float, 0, 45),
                       help="probe attack strength in degrees")
    p.add_argument("--utb-basis", choices=["plus", "cross"], help="probe attack basis (default plus)")


def _resolve_theta(args) -> float:
    if args.theta_deg is not None:
        return args.theta_deg * np.pi / 180.0
    return np.pi / 4 if args.theta is None else args.theta


# --attack value (the class's kind) -> (the flags that only that attack reads,
# the attack built from the parsed flags)
_ATTACKS = {
    NoAttack.kind: ((), lambda args: NoAttack()),
    InterceptResend.kind: (("ir_basis",), lambda args: InterceptResend(
        None if args.ir_basis in (None, "random") else Basis(args.ir_basis))),
    IndividualUTB.kind: (("theta", "theta_deg", "utb_basis"), lambda args: IndividualUTB(
        theta=_resolve_theta(args), attack_basis=Basis(args.utb_basis or "plus"))),
}


def _check_session_flags(args) -> None:
    """Reject a threshold above 0 without --insecure-demo, and attack flags
    the configured attack would silently ignore."""
    if args.threshold > 0.0 and not args.insecure_demo:
        raise ValueError(
            "--threshold above 0 releases messages over a noisy channel without "
            "privacy amplification; pass --insecure-demo to accept that"
        )
    for owner, (names, _) in _ATTACKS.items():
        for name in names:
            if getattr(args, name) is not None and args.attack != owner:
                raise ValueError(f"--{name.replace('_', '-')} applies only to --attack {owner}")


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


def _write_file(path: str, text: str) -> None:
    """Write ASCII ``text`` to ``path`` as bytes, replacing any file there.  An
    existing file is written over in place, with no ``O_TRUNC`` open, and keeps
    its mode.  A write that fails part-way leaves the bytes written and none of
    the old ones after them, and its own error is the one raised."""
    data = memoryview(text.encode("ascii"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        try:
            while data:
                data = data[os.write(fd, data):]
        except OSError:
            with contextlib.suppress(OSError):
                _cut(fd, len(text) - len(data))
            raise
        _cut(fd, len(text))
    finally:
        os.close(fd)


def _cut(fd: int, size: int) -> None:
    """Cut the file open at ``fd`` to ``size`` bytes if it is longer; only a
    regular file can be, so only it is cut (``/dev/null`` and pipes refuse
    ``ftruncate``)."""
    if os.fstat(fd).st_size > size:
        os.ftruncate(fd, size)


def _session_pad(args, n_bits_needed: int) -> keystore.PadKey:
    if args.pad_file:
        return keystore.load_pad(args.pad_file)
    rng = make_rng(role_seed(args.seed, ROLE_PAD))
    return keystore.generate_pad(n_bits_needed, rng)


def cmd_run(args) -> int:
    _check_session_flags(args)
    if args.known_plaintext and args.attack == NoAttack.kind:
        raise ValueError("--known-plaintext needs an attack that leaves records")
    n_message = args.message_bits if args.message is None else len(args.message)
    n_sample = args.samples if args.samples is not None else max(32, n_message // 4)
    config = _session_config(args, n_message, n_sample)
    message = args.message
    if message is None:
        message = draw_messages(make_rng(role_seed(args.seed, ROLE_MESSAGE)), 1, n_message)[0]
    attack = _ATTACKS[args.attack][1](args)
    pad = _session_pad(args, 2 * (n_message + n_sample))
    transcript = run_session(config, pad, message, attack)
    if args.out:
        doc = transcript.to_json_dict()
        if args.known_plaintext:  # what Eve knows, not a draw: a note on the attack entry
            doc["attack"]["known_plaintext"] = True
        _write_file(args.out, json_text(doc))
    report = transcript.error_report
    verdict = "accepted" if report.accepted else "rejected: eavesdropping detected"
    print(f"session {verdict}")
    print(f"sample error rate: {report.rate:.6g} ({report.n_errors}/{report.n_checked})")
    if transcript.extracted_message is not None:
        print(f"extracted message sha256: {message_digest(transcript.extracted_message)}")
        if args.reveal:
            print("extracted message bits: " + _digits(transcript.extracted_message))
    return EXIT_OK if report.accepted else EXIT_REJECTED


def _write_table(text: str, out: str | None) -> int:
    if out:
        _write_file(out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_sweep_theta(args) -> int:
    thetas = args.thetas
    if thetas is None:
        thetas = np.linspace(0.0, np.pi / 4, 5 if args.points is None else args.points)
    points = analysis.sweep_theta(thetas, args.photons, args.seed, Basis(args.utb_basis))
    return _write_table(analysis.sweep_csv(points), args.out)


def cmd_bounds(args) -> int:
    flags = vars(args)  # --d-min, --d-max and --points are here only when given
    given = [f"--{name.replace('_', '-')}" for name in ("d_min", "d_max", "points") if name in flags]
    if args.d_grid is not None and given:
        raise ValueError(f"qotp bounds: argument --d-grid: not allowed with argument {given[0]}")
    d_min, d_max = flags.get("d_min", 0.0), flags.get("d_max", 0.08)
    grid = args.d_grid
    if grid is None:
        grid = list(np.linspace(d_min, d_max, flags.get("points", 17)))
    pole_points = np.asarray(grid)[analysis.on_pole(grid)].tolist()
    if pole_points:
        flag = "--d-grid" if args.d_grid is not None else (
            {d_max: "--d-max", d_min: "--d-min"}.get(pole_points[0], "--points grid"))
        raise ValueError(f"{flag} value {pole_points[0]:.12g} is on the epsilon_tilde_min pole "
                         f"at d_m = {analysis.POLE_DM:.12g}")
    return _write_table(analysis.bounds_csv(grid), args.out)


def cmd_recycle_demo(args) -> int:
    if args.attack_session is not None and args.attack_session > args.sessions:
        raise ValueError(f"--attack-session {args.attack_session} is outside sessions 1..{args.sessions}")
    _check_session_flags(args)
    if (args.attack == NoAttack.kind) != (args.attack_session is None):
        raise ValueError("--attack-session and an --attack other than none go together")
    config = _session_config(args, args.message_bits, args.samples)
    pad_bits = args.pad_bits
    if pad_bits is None:
        pad_bits = _pad_length(
            2 * (args.message_bits + args.samples) + 2 * args.samples * (args.sessions - 1),
            "--message-bits, --samples and --sessions",
        )
    pad = keystore.generate_pad(pad_bits, make_rng(role_seed(args.seed, ROLE_PAD)))
    attack, clean = _ATTACKS[args.attack][1](args), NoAttack()
    attacks = (attack if args.attack_session == k + 1 else clean for k in range(args.sessions))
    report, pad = run_lineage(pad, config, attacks)
    if args.out:
        _write_file(args.out, json_text(report))
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
    msg.add_argument("--message", type=_parse_bits, help="explicit message as a 0/1 string")
    msg.add_argument("--message-bits", type=_in_range(int, 0), default=128,
                     help="random message length (default 128)")
    p_run.add_argument("--samples", type=_in_range(int, 1),
                       help="number of sampling bits (default max(32, n/4))")
    _add_session_args(p_run)
    p_run.add_argument("--pad-file", help="load the pad from a pad file instead of generating one")
    p_run.add_argument("--out", help="write the transcript JSON here")
    p_run.add_argument("--reveal", action="store_true", help="print message bits, not just the digest")
    _add_attack_args(p_run)
    p_run.add_argument(
        "--known-plaintext",
        action="store_true",
        help="note in the transcript that the adversary knows the message (changes no draw)",
    )
    p_run.set_defaults(func=cmd_run, command="run")

    p_sweep = sub.add_parser("sweep-theta", help="probe-attack strength sweep to CSV")
    grid = p_sweep.add_mutually_exclusive_group()
    grid.add_argument("--thetas", type=_in_range(float, 0, np.pi / 4, 2),
                      help="comma-separated theta grid (radians)")
    grid.add_argument("--points", type=_in_range(int, 2), help="grid size over [0, pi/4] (default 5)")
    p_sweep.add_argument("--photons", type=_in_range(int, 1), default=10_000, help="photons per grid point")
    p_sweep.add_argument("--utb-basis", choices=["plus", "cross"], default="plus")
    p_sweep.add_argument("--seed", type=_seed, help=SEED_HELP)
    p_sweep.add_argument("--out", help="CSV output path (stdout if omitted)")
    p_sweep.set_defaults(func=cmd_sweep_theta, command="sweep-theta")

    p_bounds = sub.add_parser("bounds", help="closed-form bound table to CSV")
    d_m = _in_range(float, 0, 0.25)
    p_bounds.add_argument("--d-grid", type=_in_range(float, 0, 0.25, 1), help="comma-separated d_m grid")
    p_bounds.add_argument("--d-min", type=d_m, default=argparse.SUPPRESS, help="grid start (default 0)")
    p_bounds.add_argument("--d-max", type=d_m, default=argparse.SUPPRESS, help="grid end (default 0.08)")
    p_bounds.add_argument("--points", type=_in_range(int, 1), default=argparse.SUPPRESS,
                          help="grid size (default 17)")
    p_bounds.add_argument("--out", help="CSV output path (stdout if omitted)")
    p_bounds.set_defaults(func=cmd_bounds, command="bounds")

    p_demo = sub.add_parser("recycle-demo", help="consecutive sessions on one pad lineage")
    p_demo.add_argument("--sessions", type=_in_range(int, 1), default=5)
    p_demo.add_argument("--message-bits", type=_in_range(int, 0), default=64)
    p_demo.add_argument("--samples", type=_in_range(int, 1), default=16)
    _add_session_args(p_demo)
    p_demo.add_argument("--pad-bits", type=_in_range(int, 1),
                        help="initial pad length (default: exactly enough)")
    p_demo.add_argument("--attack-session", type=_in_range(int, 1),
                        help="1-based session index to run under the configured attack")
    p_demo.add_argument("--out", help="JSON report path")
    _add_attack_args(p_demo)
    p_demo.set_defaults(func=cmd_recycle_demo, command="recycle-demo")

    parser.commands = sub.choices  # main hands a command's flags to its parser alone
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser = build_parser()
        # no command, -h or an unknown command: the top-level parser reports it
        command = parser.commands.get(argv[0]) if argv else None
        args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
        empty = [name for name, value in vars(args).items() if type(value) is list and not value]
        if empty:  # argparse before Python 3.13 reads the value "--" as no value: []
            flag = empty[0].replace("_", "-")
            raise ValueError(f"qotp {args.command}: argument --{flag}: expected one argument")
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
