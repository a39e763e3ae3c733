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
        "ad70bbf44962d5288146c3b5fdd6c36bdca60e5b981e71161e8c411c980fbdd3",
    ),
    "run-ir-random": (
        [*RUN, "--attack", "intercept_resend", "--seed", "102"],
        2,
        "51b916f49780d578242b4c8530e65d08779030e211ee176604323e61530d6d62",
        "5c0719e337bf7fba58a771066fa5b13bb355c8665bac0987543c3389c69b82ed",
    ),
    "run-ir-plus": (
        [*RUN, "--attack", "intercept_resend", "--ir-basis", "plus", "--seed", "103"],
        2,
        "32e3c94c3d8f40a1de85ff5481acf387c257e7725bc58747ac4948ac8583921c",
        "16198bd517e401dac3e7088755ca0b037ce0c7559a383fcd0da02974b55f2bce",
    ),
    "run-ir-cross-known": (
        [*RUN, "--attack", "intercept_resend", "--ir-basis", "cross", "--known-plaintext",
         "--seed", "104"],
        2,
        "3fcc905bcdbe9e1d8dd97a66f4eaec3bb776093b6da8a4a8c14b23c51113a709",
        "fb534afd41c747daeddc6d3f9c25e6d3f93a6e12e71ee328af2676392a8964f6",
    ),
    "run-utb-plus": (
        [*RUN, "--attack", "utb", "--theta", "0.3927", "--utb-basis", "plus", "--seed", "105"],
        2,
        "6917ab3ed4848a7b58daf3fa81b9c34a75b1d80f26dcdad4b73eff364843473e",
        "784e6b87bf12e1f1bb0ca162188e3935c68fa0032d7118be54ec6d36deec8870",
    ),
    "run-utb-cross-known": (
        [*RUN, "--attack", "utb", "--theta-deg", "30", "--utb-basis", "cross",
         "--known-plaintext", "--seed", "106"],
        2,
        "015eddbfc3ab477ca5eb96a6f494453318a55a0ace36dca653a4d466564d8d0e",
        "8612af6ef953c9be93c15d37a40e4527857f53f8cc87f5562e327b252a0caba6",
    ),
    "run-utb-known-accepted": (
        [*RUN, "--attack", "utb", "--theta", "0.2", "--known-plaintext", "--threshold", "1",
         "--insecure-demo", "--seed", "107"],
        0,
        "138f5637851802f60ff4a381b5caf899117c4da10f26f06669bf999c86097ab7",
        "76cd11477fca2b295be99e89e4969eb1c73abbdc1c2dbbb85e61b84eedd7c004",
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
