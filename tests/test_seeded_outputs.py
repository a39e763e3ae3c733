"""Seeded CLI outputs stay byte-identical.

Each command below runs in-process with a fixed seed; its exit code and the
SHA-256 of its stdout and of its ``--out`` file are pinned.  A refactor that
moves one RNG draw, one table entry or one character of a transcript changes
a digest.  Change a digest only together with a deliberate change of seeded
output, and say so where the change is recorded.  A lineage report is pinned
twice: as written, and as the v1 report rebuilt from it, so a change of
format that loses no fact keeps the second pin.
"""

import hashlib
import json

import pytest

from qotp import cli
from qotp.protocol import json_text
from lineage_v1 import lineage_v1

RUN = ["run", "--message-bits", "96", "--samples", "32"]
SWEEP = ["sweep-theta", "--points", "4", "--photons", "4000"]
DEMO = ["recycle-demo", "--sessions", "4", "--message-bits", "48", "--samples", "12"]

# name -> (argv without --out, exit code, sha256 of stdout, sha256 of the --out file)
CASES = {
    "run-clean": (
        [*RUN, "--attack", "none", "--seed", "101"],
        0,
        "f27f26876282a4d866c28fd11d36f7d6233ba7cd04489d9f11e859e93652e332",
        "79ac3d61be826c0a6e89a8894c9a76c7539a05f0a00400146bb57a989c5fba28",
    ),
    "run-ir-random": (
        [*RUN, "--attack", "intercept_resend", "--seed", "102"],
        2,
        "3fcc905bcdbe9e1d8dd97a66f4eaec3bb776093b6da8a4a8c14b23c51113a709",
        "77b83af57530d7a7f16da64cf922045607e5abcf1959140201f167291b052716",
    ),
    "run-ir-plus": (
        [*RUN, "--attack", "intercept_resend", "--ir-basis", "plus", "--seed", "103"],
        2,
        "92cdda11ecc875d447a4c73d30d1b26d8e35784a609108af046595e43bc0c3f8",
        "2a4ebba1114508a503899939464786485e6dd7c9eaa2f83e81c13cbd0ae2d94c",
    ),
    "run-ir-cross-known": (
        [*RUN, "--attack", "intercept_resend", "--ir-basis", "cross", "--known-plaintext",
         "--seed", "104"],
        2,
        "016fbfcf9e71299c9fe0b6225862526cfaad119a261531c2a9550e0daeaa3ff5",
        "825f2f3a3d14a08ba24d6e5fa76b4a6262195579eb54c26a3be8d1dda3f5e066",
    ),
    "run-utb-plus": (
        [*RUN, "--attack", "utb", "--theta", "0.3927", "--utb-basis", "plus", "--seed", "105"],
        2,
        "196d2ec1b6090019a681c5aa2affa56c9975c0111e6906095dd0247f36659924",
        "760ccdd66012d5a64d220d53cf90775e9a096e54a80a5fe30564dcf8f80cb247",
    ),
    "run-utb-cross-known": (
        [*RUN, "--attack", "utb", "--theta-deg", "30", "--utb-basis", "cross",
         "--known-plaintext", "--seed", "106"],
        2,
        "a4aba22e158e61d624000471380a443314e5121369c81e88820e57608af02a20",
        "2faae5dcd9f3e1b0abc9cf1583aeaa686522f2973ed6dfa567e24032218f7d35",
    ),
    "run-utb-known-accepted": (
        [*RUN, "--attack", "utb", "--theta", "0.2", "--known-plaintext", "--threshold", "1",
         "--insecure-demo", "--seed", "107"],
        0,
        "48e5ba928ddda40dc12ab4126416a1734b68ebbd388810a3cd21bdfbd72b6292",
        "e4499df8337926cd14e3b19473f1f9faf9147d2194e83aba062cc7a9df1d83c3",
    ),
    "sweep-plus": (
        [*SWEEP, "--utb-basis", "plus", "--seed", "108"],
        0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "6d63e2b1c9143997145715fe0bf264cda0ec0cc06999c72d5f620a42c994379a",
    ),
    "sweep-cross": (
        [*SWEEP, "--utb-basis", "cross", "--seed", "109"],
        0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "b2f873ad603879d530c5fa09b60f7350f0e354dcb65f6ec0ddac3fce47cfa513",
    ),
    "recycle-clean": (
        [*DEMO, "--seed", "110"],
        0,
        "81318da2179e1b99c67b5470afa9901c1d5d8567ddbbde648aa429f2499af470",
        "339a361a7446417e29c96abdc4adf49fb60981342e5272a6ccdc6be351dc578c",
    ),
    "recycle-attacked-halts": (
        [*DEMO, "--attack", "intercept_resend", "--attack-session", "2", "--seed", "111"],
        2,
        "3688d528c0f1d1417ecdc9e9f031900eee398cde46a5ae4d842b5584a2a1bbef",
        "0c6a6652b69d038ae021430173a0b997a7ff1204bf27d1ee4274578c38e472fa",
    ),
    "recycle-attacked-session-3": (
        [*DEMO, "--attack", "utb", "--theta", "0.5", "--attack-session", "3", "--seed", "111"],
        0,
        "81318da2179e1b99c67b5470afa9901c1d5d8567ddbbde648aa429f2499af470",
        "ddff78d7c21f90508635a7cc87f144ff1c79af7422e43f3e3df69e8cbe97bb0c",
    ),
    # the benchmark's recycle op: 100 sessions of 64 message and 16 sampling bits
    "recycle-benchmark-shape": (
        ["recycle-demo", "--sessions", "100", "--message-bits", "64", "--samples", "16",
         "--seed", "114"],
        0,
        "882a4407748858a5d5c99122b205811250910c9c8e73e3dfbf79b8dc8d511fb2",
        "daf265299a87483d293c0ed6afaeb566e4059324bafccdbf5d260082cff1c73c",
    ),
    # three blocks; session 1500, in the second, is attacked and accepted with
    # an inexact message
    "recycle-attacked-late-block": (
        ["recycle-demo", "--sessions", "2000", "--attack", "utb", "--theta", "0.3",
         "--attack-session", "1500", "--threshold", "1", "--insecure-demo", "--seed", "115"],
        0,
        "3916121879dd9675dd73df64983c2b07fde8e3e9d7b1cd5d4d78dfc686a27177",
        "70d02d7f970ac018cfb7945673667bd1cfba3ae04d1a9db98f3c533258841d91",
    ),
    "bounds": (
        ["bounds", "--d-grid", "0,0.01,0.02,0.05,0.1"],
        0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "b0949e60234de0f8c27029ec301ffb788e7b0a8882ebcc762424694f3a124925",
    ),
}


# name -> sha256 of the v1 lineage report that tests/lineage_v1.py rebuilds
# from the --out file: the digest that file had before lineage report v2
LINEAGE_V1_OUT = {
    "recycle-clean": "d7c8f63c644e598511c3bcf37f1c31edf212c918a55bb9f0616e597e9f0dd334",
    "recycle-attacked-halts": "efab8efb6ad3c5f0c6c7d612b3cbb2a1881f30ac3586f08ee52fcfdbdd2c3503",
    "recycle-attacked-session-3": "8babdf388c07b54c12162f7ac1a3da86be19a3d3aa2bbfd1771914ce82ff3d41",
    "recycle-benchmark-shape": "06d28d9ee5a3cb6e38475ebdd4d9a7be7ccf67970fbed1a0c80f4a8b10f92a2c",
    "recycle-attacked-late-block": "98dd313c24a49d41f18b0c31d0a888b44869de1ca3d075033029c9101ecb7964",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_output_is_byte_identical(name, tmp_path, capsys, monkeypatch):
    argv, exit_code, stdout_digest, out_digest = CASES[name]
    monkeypatch.delenv("QOTP_SEED", raising=False)
    out = tmp_path / "out"
    rc = cli.main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert captured.err == ""
    assert (rc, _sha256(captured.out.encode()), _sha256(out.read_bytes())) == (
        exit_code, stdout_digest, out_digest
    )


@pytest.mark.parametrize("name", sorted(LINEAGE_V1_OUT))
def test_lineage_report_rebuilds_its_v1_report(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("QOTP_SEED", raising=False)
    out = tmp_path / "out"
    cli.main([*CASES[name][0], "--out", str(out)])
    v1 = json_text(lineage_v1(json.loads(out.read_text())))
    assert _sha256(v1.encode()) == LINEAGE_V1_OUT[name]


@pytest.mark.parametrize("name", ["run-ir-cross-known", "run-utb-cross-known",
                                  "run-utb-known-accepted"])
def test_known_plaintext_changes_no_draw(name, tmp_path, capsys, monkeypatch):
    # without the flag: the same exit code and stdout, and the transcript
    # without its attack entry's known_plaintext key
    monkeypatch.delenv("QOTP_SEED", raising=False)
    argv = CASES[name][0]
    runs = []
    for k, args in enumerate([argv, [a for a in argv if a != "--known-plaintext"]]):
        out = tmp_path / f"out{k}"
        rc = cli.main([*args, "--out", str(out)])
        runs.append((rc, capsys.readouterr().out, json.loads(out.read_text())))
    (rc, stdout, known), flagless = runs
    assert known["attack"].pop("known_plaintext") is True
    assert flagless == (rc, stdout, known)
