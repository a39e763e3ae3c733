"""Seeded CLI outputs stay byte-identical.

Each command below runs in-process with a fixed seed; its exit code and the
SHA-256 of its stdout and of its ``--out`` file are pinned.  A refactor that
moves one RNG draw, one table entry or one character of a transcript changes
a digest.  Change a digest only together with a deliberate change of seeded
output, and say so where the change is recorded.
"""

import hashlib

import pytest

from qotp import cli

RUN = ["run", "--message-bits", "96", "--samples", "32"]
SWEEP = ["sweep-theta", "--points", "4", "--photons", "4000"]
DEMO = ["recycle-demo", "--sessions", "4", "--message-bits", "48", "--samples", "12"]

# name -> (argv without --out, exit code, sha256 of stdout, sha256 of the --out file)
CASES = {
    "run-clean": (
        [*RUN, "--attack", "none", "--seed", "101"],
        0,
        "846b5e1e6de991fff487dc027f89cb62c565309fbb6246f214db5fb2c42c78f8",
        "c1827379074192c4f6533dac83b21fc067ce9605bd5369e8e1ae9ca8d1f42c1d",
    ),
    "run-ir-random": (
        [*RUN, "--attack", "intercept_resend", "--seed", "102"],
        2,
        "3fcc905bcdbe9e1d8dd97a66f4eaec3bb776093b6da8a4a8c14b23c51113a709",
        "84f2f26f580fdc0a707d3ce348c3fea9caec823226215d0a1e16acc872d534a0",
    ),
    "run-ir-plus": (
        [*RUN, "--attack", "intercept_resend", "--ir-basis", "plus", "--seed", "103"],
        2,
        "92cdda11ecc875d447a4c73d30d1b26d8e35784a609108af046595e43bc0c3f8",
        "9ce8bb3cb6efae62384f9efec31dfa9753e1bb89988e728643c76a7be85abce7",
    ),
    "run-ir-cross-known": (
        [*RUN, "--attack", "intercept_resend", "--ir-basis", "cross", "--known-plaintext",
         "--seed", "104"],
        2,
        "016fbfcf9e71299c9fe0b6225862526cfaad119a261531c2a9550e0daeaa3ff5",
        "5f368a831c8ad4f5b1ebb075a868b487afad08b314c73030d65fe631061593c1",
    ),
    "run-utb-plus": (
        [*RUN, "--attack", "utb", "--theta", "0.3927", "--utb-basis", "plus", "--seed", "105"],
        2,
        "196d2ec1b6090019a681c5aa2affa56c9975c0111e6906095dd0247f36659924",
        "b6c4dc55cea6c34666898bda730be0fa710fc90e16075e285f185fd3450b7928",
    ),
    "run-utb-cross-known": (
        [*RUN, "--attack", "utb", "--theta-deg", "30", "--utb-basis", "cross",
         "--known-plaintext", "--seed", "106"],
        2,
        "a4aba22e158e61d624000471380a443314e5121369c81e88820e57608af02a20",
        "da24980e8857b149ddf85c9c32cd064c74626c8a9b38af080a2e2c8aa8f628d6",
    ),
    "run-utb-known-accepted": (
        [*RUN, "--attack", "utb", "--theta", "0.2", "--known-plaintext", "--threshold", "1",
         "--insecure-demo", "--seed", "107"],
        0,
        "30042994d8816503107365b698664dda678beae1deb0ef5934f84a569991aac6",
        "59ea494694e4a991ac3841ec8132a8a5c0fa9fca7f4a1f1d0f8d3ed1330b3186",
    ),
    "sweep-plus": (
        [*SWEEP, "--utb-basis", "plus", "--seed", "108"],
        0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "a6e092c7e8d98800d38f86c5d08f699c266aee895915894fc218388eed6e2eac",
    ),
    "sweep-cross": (
        [*SWEEP, "--utb-basis", "cross", "--seed", "109"],
        0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e7ff5725d55f11d0fd8296b234ac28564ed2a2343340e26ed84d63f29a05be4d",
    ),
    "recycle-clean": (
        [*DEMO, "--seed", "110"],
        0,
        "81318da2179e1b99c67b5470afa9901c1d5d8567ddbbde648aa429f2499af470",
        "d7c8f63c644e598511c3bcf37f1c31edf212c918a55bb9f0616e597e9f0dd334",
    ),
    "recycle-attacked-halts": (
        [*DEMO, "--attack", "intercept_resend", "--attack-session", "2", "--seed", "111"],
        2,
        "3688d528c0f1d1417ecdc9e9f031900eee398cde46a5ae4d842b5584a2a1bbef",
        "efab8efb6ad3c5f0c6c7d612b3cbb2a1881f30ac3586f08ee52fcfdbdd2c3503",
    ),
    "recycle-attacked-session-3": (
        [*DEMO, "--attack", "utb", "--theta", "0.5", "--attack-session", "3", "--seed", "111"],
        0,
        "81318da2179e1b99c67b5470afa9901c1d5d8567ddbbde648aa429f2499af470",
        "8babdf388c07b54c12162f7ac1a3da86be19a3d3aa2bbfd1771914ce82ff3d41",
    ),
    "bounds": (
        ["bounds", "--d-grid", "0,0.01,0.02,0.05,0.1"],
        0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "b0949e60234de0f8c27029ec301ffb788e7b0a8882ebcc762424694f3a124925",
    ),
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
