"""The six-step crypto session as an executable state machine.

One session: hide sampling bits among the message bits at secret random
positions, prepare photon i in the state keyed by pad bits 2i and 2i+1,
encode the photons, pass them through the (possibly attacked) channel,
decode in each photon's preparation basis, compare the announced sampling
bits, and either recycle the pad (dropping the announced photons' bit pairs)
and release the message or halt.  Sessions run as rows: a lineage reuses one
pad until a check fails, running its sessions in blocks, and a single
session is session 1 of a lineage.  Both draw, key, send and check through
one block step, ``_run_block``, and recycle through the same live pair list:
the photons of a block, whatever its attacks, run as narrow columns through
one batch-kernel call, which samples each attack's exact law and decodes.
The transcript keeps the secret view for analysis, each fact once; the
``public_view`` projection is exactly what an eavesdropper may read.  A
lineage audits through the pad's origin ledger that no announced pad bit
keys a photon again.

The tests check this path against an object-level state-vector oracle with
per-photon attacks, which ships with the tests and not with the package.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import numbers
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import kernels, keystore
from .adversary import AttackModel, NoAttack
from .errors import PadExhaustedError
from .keystore import PadKey
from .rng import ROLE_MESSAGE, ROLE_SESSION, RandomStream, make_rng, role_seed


@dataclass(frozen=True)
class SessionConfig:
    """Message and sample lengths, check threshold and top-level seed: both
    ``run_session`` and ``run_lineage`` draw from ``role_seed(seed, role)``."""

    n_message: int
    n_sample: int
    abort_threshold: float = 0.0
    seed: int = 0
    allow_insecure_demo: bool = False

    def __post_init__(self):
        for name in ("n_message", "n_sample", "seed"):
            object.__setattr__(self, name, kernels.index_value(name, getattr(self, name)))
        if self.n_message < 0:
            raise ValueError("n_message must be nonnegative")
        if self.n_sample < 1:
            raise ValueError("a session needs at least one sampling bit")
        threshold = self.abort_threshold
        if not isinstance(threshold, numbers.Real) or type(threshold) is bool:
            raise ValueError(f"abort_threshold must be a number, got {threshold!r}")
        # stored as float, so that a numpy float serializes like any other
        object.__setattr__(self, "abort_threshold", float(threshold))
        if not 0.0 <= self.abort_threshold <= 1.0:
            raise ValueError("abort_threshold must lie in [0, 1]")
        if self.abort_threshold > 0.0 and not self.allow_insecure_demo:
            raise ValueError(
                "a nonzero abort threshold releases messages over a noisy channel "
                "without privacy amplification; set allow_insecure_demo=True to "
                "accept that explicitly"
            )


@dataclass(frozen=True)
class ErrorReport:
    n_checked: int
    n_errors: int
    rate: float
    accepted: bool


def _digits(values: np.ndarray) -> str:
    """A column of small nonnegative integers as one digit per entry."""
    return (np.asarray(values, dtype=np.uint8) + ord("0")).tobytes().decode("ascii")


@dataclass(frozen=True)
class SessionTranscript:
    """Full audit record of one session (secret view plus public projection).

    ``pad`` is the pad the session read: photon i was keyed by its bits 2i
    and 2i+1, and its state's label is bit 2i.  Per-photon data is held as
    columns indexed by photon: the receiver's decoded bit (its outcome label
    XOR that pad bit), and Eve's record as the kernel codes it (-1 where there
    is no attack).  ``modified`` is the message with the sampling bits at the
    sorted photon indices ``sample_positions``; ``extracted_message``, set
    when the check passes, is the decoded bits at the other photons.
    """

    config: SessionConfig
    attack: AttackModel
    modified: np.ndarray
    sample_positions: np.ndarray
    pad: PadKey
    decoded: np.ndarray
    record: np.ndarray
    error_report: ErrorReport
    recycled_pad: PadKey | None
    extracted_message: np.ndarray | None

    def public_view(self) -> dict:
        """Everything an eavesdropper may read: per photon, the bit the
        receiver announced there or 2 for none; and the verdict."""
        positions = self.sample_positions
        announced = np.full(self.decoded.size, 2, dtype=np.uint8)
        announced[positions] = self.decoded[positions]
        return {
            "announced": _digits(announced),
            "error_report": vars(self.error_report).copy(),
        }

    def to_json_dict(self) -> dict:
        """Structured-text form (schema: docs/transcript_schema.json).

        Each per-photon column is a digit string with one character per
        photon; ``pad_bits`` has two, photon i being keyed by characters 2i
        and 2i+1.  The receiver's outcomes and the extracted message are left
        out: ``pad_bits``, ``decoded_bits`` and the public view imply them.
        """
        pad = self.recycled_pad
        return {
            "schema": "qotp-transcript-v4",
            "config": vars(self.config).copy(),
            "attack": self.attack.describe(),
            "secret_view": {
                "pad_bits": _digits(self.pad.bits[: 2 * self.modified.size]),
                "modified_bits": _digits(self.modified),
                "decoded_bits": _digits(self.decoded),
                # Eve's record per photon, coded as in the attack's ``law``
                "adversary": None
                if self.attack.kind == NoAttack.kind
                else {"records": _digits(self.record)},
                "recycled_pad": None
                if pad is None
                else {
                    "generation": pad.generation,
                    "hex": keystore.pad_hex(pad),
                    "bits": len(pad),
                },
            },
            "public_view": self.public_view(),
        }

    def to_json(self) -> str:
        return json_text(self.to_json_dict())


def json_text(doc: dict) -> str:
    """``doc``, built fresh from scalars, strings, lists and dicts (so with
    no cycle), as compact, key-sorted JSON text on one line."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), check_circular=False) + "\n"


def message_digest(bits: np.ndarray) -> str:
    """SHA-256 of the bit string, so logs never carry plaintext by default."""
    return hashlib.sha256(_digits(bits).encode("ascii")).hexdigest()


def _check_rows(wrong, threshold: float):
    """Per row (last axis) of flags of the sampling bits announced wrong,
    their count, their rate, and whether the rate is within ``threshold``."""
    n_errors = np.count_nonzero(wrong, axis=-1)
    rate = n_errors / wrong.shape[-1]
    return n_errors, rate, rate <= threshold


def draw_messages(rng: RandomStream, n_sessions: int, n_message: int) -> np.ndarray:
    """The messages of consecutive sessions, one row each: a bit is one double
    of ``rng`` below 1/2, so a longer draw extends a shorter one."""
    return (rng.random((n_sessions, n_message)) < 0.5).view(np.uint8)


def _draw_sessions(messages: np.ndarray, session_rng: RandomStream, n_sample: int):
    """The draws of consecutive sessions carrying the (sessions, n_message)
    ``messages``, one row each: the modified messages, the flat indices of
    their sampling bits and of their message bits, in order, and the kernel's
    uniforms.  Row k reads the next row of doubles from ``session_rng``, so a
    session's draws do not depend on how a lineage is cut into blocks.  The
    sampling positions are those of a row's n uniform keys at or below its
    ``n_sample``-th smallest, uniform over all interleavings; each bit is a
    uniform below 1/2.  That is ``n_sample`` positions when a row's keys are
    distinct; a tie at the cut, below 1e-12 per 2048-photon session, would
    sample one more and fail the reshape with a ValueError."""
    n_sessions, n_message = messages.shape
    n = n_message + n_sample
    draws = session_rng.random((n_sessions, 2 * n + n_sample))
    keys, uniforms, sample_draws = draws[:, :n], draws[:, n : 2 * n], draws[:, 2 * n :]
    sample_mask = keys <= np.partition(keys, n_sample - 1, axis=1)[:, n_sample - 1, None]
    checked = np.flatnonzero(sample_mask).reshape(n_sessions, n_sample)
    unchecked = np.flatnonzero(~sample_mask).reshape(messages.shape)
    bits = np.empty((n_sessions, n), dtype=np.uint8)
    bits.ravel()[checked] = sample_draws < 0.5
    bits.ravel()[unchecked] = messages
    return bits, checked, unchecked, uniforms


def _keyed_pairs(carried: np.ndarray, fresh: int, unchecked: np.ndarray, n: int):
    """The pad pairs keyed by consecutive sessions of n photons whose message
    bits sit at the flat indices ``unchecked`` (one row per session), if
    every check passes.

    The live pair list is a queue: ``carried``, then every pair from
    ``fresh`` on.  A session keys the first n live pairs, and its passed
    check drops the announced ones with the order kept, so session k keys
    the pairs session k-1 keyed at its unchecked positions and then fresh
    ones; ``carried`` holds as many pairs as a session leaves unannounced.
    Only this head of the list is touched.  Returns the (sessions, n) pair
    ids and the head after the last session, as (carried, fresh)."""
    sessions, m = unchecked.shape
    pairs = np.empty((sessions, n), dtype=np.int64)
    pairs[0, :m] = carried
    pairs[:, m:] = np.arange(fresh, fresh + sessions * (n - m)).reshape(sessions, n - m)
    flat = pairs.ravel()
    for carried_row, kept in zip(pairs[1:, :m], unchecked):
        carried_row[...] = flat[kept]
    return pairs, pairs.take(unchecked[-1]), fresh + sessions * (n - m)


def _run_block(state_of_pair, carried, fresh, messages, session_rng, attacks, config):
    """One block step: the sessions carrying the (sessions, n_message)
    ``messages`` drawn from ``session_rng``, keyed from the live pair head
    (``carried``, ``fresh``) in the table ``state_of_pair``, row k sent through
    ``attacks[k]`` in one kernel call, decoded and checked.  Returns the columns
    named below, a row per session, and the head after them if all pass."""
    bits, checked, unchecked, uniforms = _draw_sessions(messages, session_rng, config.n_sample)
    pairs, carried, fresh = _keyed_pairs(carried, fresh, unchecked, bits.shape[1])
    codes: dict = {}
    row_codes = [codes.setdefault(attack, len(codes)) for attack in attacks]
    attack_idx = np.array(row_codes, dtype=np.min_scalar_type(len(codes))).repeat(bits.shape[1])
    sent = kernels.simulate_photons(state_of_pair.take(pairs).ravel(), bits.ravel(), tuple(codes),
                                    uniforms.ravel(), attack_idx)
    record, decoded = (column.reshape(bits.shape) for column in sent)
    wrong = decoded != bits
    n_errors, rates, accepted = _check_rows(wrong.take(checked), config.abort_threshold)
    # a message is exact when every bit decoded wrong is a sampling bit
    exact = np.count_nonzero(wrong, axis=1) == n_errors
    return (bits, checked, unchecked, pairs, record, decoded, n_errors, rates, accepted,
            exact), carried, fresh


def _exhausted(session: int, n: int, have: int) -> PadExhaustedError:
    return PadExhaustedError(
        f"pad exhausted at session {session}: need {2 * n} bits for {n} photons, have {have}"
    )


def _live_pad(pad: PadKey, carried: np.ndarray, fresh: int, sessions: int) -> PadKey:
    """The pad left after ``sessions`` passed checks whose live pair list has
    the head (``carried``, ``fresh``) of ``_keyed_pairs``."""
    n_pairs = len(pad) // 2
    live = np.concatenate((carried, np.arange(fresh, n_pairs)))
    # the bits of the live pairs, then an odd pad's last bit, which no photon keys
    bits, origins = (np.append(column[: 2 * n_pairs].reshape(-1, 2).take(live, axis=0),
                               column[2 * n_pairs :]) for column in (pad.bits, pad.origin_indices))
    return PadKey(bits, pad.generation + sessions, origins)


def run_session(
    config: SessionConfig, pad: PadKey, message, attack: AttackModel = NoAttack()
) -> SessionTranscript:
    """Execute one full session carrying ``message``: session 1 of
    ``run_lineage(pad, config, [attack])``, drawn from the same stream
    ``role_seed(config.seed, ROLE_SESSION)`` through one ``_run_block`` step
    of one row.

    On acceptance the transcript carries the recycled pad and the extracted
    message; on rejection it carries neither (the process halts and the pad
    lineage is retired)."""
    message = kernels.index_column("message", message, 1).reshape(-1)
    n_message, n_sample = config.n_message, config.n_sample
    if message.size != n_message:
        raise ValueError(f"config says n_message={n_message} but message has {message.size} bits")
    n = n_message + n_sample
    if len(pad) < 2 * n:
        raise _exhausted(1, n, len(pad))
    session_rng = make_rng(role_seed(config.seed, ROLE_SESSION))
    columns, carried, fresh = _run_block(keystore.pair_states(pad), np.arange(n_message),
                                         n_message, message[None], session_rng, [attack], config)
    modified, positions, unchecked, _, record, decoded, n_errors, rate, accepted, _ = (
        column[0] for column in columns)
    report = ErrorReport(n_checked=n_sample, n_errors=int(n_errors), rate=float(rate),
                         accepted=bool(accepted))
    recycled_pad = extracted_message = None
    if report.accepted:
        recycled_pad = _live_pad(pad, carried, fresh, 1)
        extracted_message = decoded[unchecked]
    return SessionTranscript(
        config=config,
        attack=attack,
        modified=modified,
        sample_positions=positions,
        pad=pad,
        decoded=decoded,
        record=record,
        error_report=report,
        recycled_pad=recycled_pad,
        extracted_message=extracted_message,
    )


# A lineage runs in blocks of sessions of about this many photons (at least one
# session), so its memory does not grow with the number of sessions.
BLOCK_PHOTONS = 1 << 16


def run_lineage(
    pad: PadKey, config: SessionConfig, attacks: Iterable[AttackModel]
) -> tuple[dict, PadKey | None]:
    """Run one session per attack on one pad lineage, recycling the pad after
    each passed check and retiring it at the first failed one.

    ``config.seed`` is the top-level seed: every message is drawn from the
    stream ``role_seed(config.seed, ROLE_MESSAGE)`` and every session's
    sampling positions, sampling bits and channel uniforms from
    ``role_seed(config.seed, ROLE_SESSION)``, one row per session in order.
    Only the halting rule depends on the channel, so the sessions run in
    blocks of about ``BLOCK_PHOTONS`` photons, each block one ``_run_block``
    step on a pair-state table built once per lineage, and the lineage stops
    at its first failed check.  The live pad pairs and the reuse audit carry
    from block to block.  The audit reads the pad's origin ledger, through
    one view of its bit pairs, not the pair recurrence: it counts keyed bits
    that an earlier session announced.

    Raises PadExhaustedError when every session so far has passed and the
    next cannot be keyed.  Returns the report (docs/lineage_schema.json) and
    the final pad, which is None once the lineage is retired."""
    n_message, n_sample = config.n_message, config.n_sample
    n = n_message + n_sample
    n_pairs = len(pad) // 2
    message_rng = make_rng(role_seed(config.seed, ROLE_MESSAGE))
    session_rng = make_rng(role_seed(config.seed, ROLE_SESSION))
    attacks = iter(attacks)
    state_of_pair = keystore.pair_states(pad)
    # each session keys n_sample fresh pairs, after the first's n_message
    keyable = max(0, (n_pairs - n_message) // n_sample)
    carried, fresh = np.arange(min(n_message, n_pairs)), n_message
    # the first session to announce each generation-0 pad bit, found through the origin ledger
    first_shown = np.full(int(pad.origin_indices.max(initial=-1)) + 1, np.iinfo(np.int64).max)
    origin_pairs = pad.origin_indices[: 2 * n_pairs].reshape(-1, 2)
    reused, sessions, halted = 0, [], False
    while not halted and (block := list(itertools.islice(attacks, max(1, BLOCK_PHOTONS // n)))):
        done = len(sessions)
        keyed = block[: keyable - done]
        if keyed:
            messages = draw_messages(message_rng, len(keyed), n_message)
            (_, checked, _, pairs, *_, n_errors, _, accepted, exact), carried, fresh = _run_block(
                state_of_pair, carried, fresh, messages, session_rng, keyed, config)
            ran = len(keyed) if accepted.all() else int(np.argmin(accepted)) + 1
            halted = not accepted[ran - 1]
            # the origins of each keyed pair's two bits, and those of the announced ones
            drawn = origin_pairs.take(pairs[:ran], axis=0)
            shown = drawn.reshape(-1, 2).take(checked[:ran].ravel(), axis=0)
            when = done + np.arange(ran)
            # flat, equal-shape operands: numpy 2.4's ufunc.at mishandles a broadcast value
            np.minimum.at(first_shown, shown.ravel(), when.repeat(2 * n_sample))
            reused += int(np.count_nonzero(first_shown.take(drawn) < when[:, None, None]))
            # a session's own facts; its pad lengths and verdict follow from the rest of the report
            columns = zip(keyed, n_errors[:ran].tolist(), (exact & accepted).tolist())
            sessions += [{"attacked": attack.kind != NoAttack.kind, "message_exact": message_exact,
                          "n_errors": errors} for attack, errors, message_exact in columns]
        if not halted and len(keyed) < len(block):
            raise _exhausted(len(sessions) + 1, n, len(pad) - 2 * n_sample * len(sessions))
    final = None if halted else _live_pad(pad, carried, fresh, len(sessions))
    return {
        "schema": "qotp-lineage-v2",
        "n_sample": n_sample,
        "initial_pad_bits": len(pad),
        "sessions": sessions,
        "halted_at_session": len(sessions) if halted else None,
        "final_pad_bits": None if final is None else len(final),
        "audit": {
            "announced_bits_reused": reused,
            "all_messages_exact": all(s["message_exact"] for s in sessions[: len(sessions) - halted]),
        },
    }, final
