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
        "e655bf6ad0ece86174ec6618c9446ec374d3515d9c3927d87353338459f29f46",
    ),
    "run-ir-random": (
        [*RUN, "--attack", "intercept_resend", "--seed", "102"],
        2,
        "016fbfcf9e71299c9fe0b6225862526cfaad119a261531c2a9550e0daeaa3ff5",
        "28128484fe0439b29cda5b02f26001821dd6be2b0ce63a48bee4edaf8215247c",
    ),
    "run-ir-plus": (
        [*RUN, "--attack", "intercept_resend", "--ir-basis", "plus", "--seed", "103"],
        2,
        "ae0e89046a7559f94a15d6604cd997d0b84a61ac3348a9fd6b63971eec01e333",
        "501afff5853ad99c8745e007aed899550d049aa538b0cda9387b8fd24afc6358",
    ),
    "run-ir-cross-known": (
        [*RUN, "--attack", "intercept_resend", "--ir-basis", "cross", "--known-plaintext",
         "--seed", "104"],
        2,
        "016fbfcf9e71299c9fe0b6225862526cfaad119a261531c2a9550e0daeaa3ff5",
        "97be33b7ee79f82dab048f8bb338aa20259ea04a365adc8ed1f65908f76ca8ac",
    ),
    "run-utb-plus": (
        [*RUN, "--attack", "utb", "--theta", "0.3927", "--utb-basis", "plus", "--seed", "105"],
        2,
        "a4aba22e158e61d624000471380a443314e5121369c81e88820e57608af02a20",
        "64ef1134a3d5f9770099053999e14ea2acb012ea921d53f03652966f3be40c02",
    ),
    "run-utb-cross-known": (
        [*RUN, "--attack", "utb", "--theta-deg", "30", "--utb-basis", "cross",
         "--known-plaintext", "--seed", "106"],
        2,
        "6917ab3ed4848a7b58daf3fa81b9c34a75b1d80f26dcdad4b73eff364843473e",
        "de76df9470e7fffb545c804b9904ebd1e8d380c3ce374bacff75a74a8495bb22",
    ),
    "run-utb-known-accepted": (
        [*RUN, "--attack", "utb", "--theta", "0.2", "--known-plaintext", "--threshold", "1",
         "--insecure-demo", "--seed", "107"],
        0,
        "b2403cafcd7f0105c7b25bdf4f437b99f74deadbb0b2c0c8fc9a3a023fc035f2",
        "5701fd847ca120cef59c795de0ec73363cf42dec5466b1983ffbd00c64e670a9",
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
        "950d81723aa3538d261483f68ad1c89e442a9260e8b310218e45ffc4c761830d",
    ),
    "recycle-attacked-halts": (
        [*DEMO, "--attack", "intercept_resend", "--attack-session", "2", "--seed", "111"],
        2,
        "3688d528c0f1d1417ecdc9e9f031900eee398cde46a5ae4d842b5584a2a1bbef",
        "305c64994e2d2f5aa4c1b5dec67514b68c5c3a1c3aeafae40e0cb1b61a71626c",
    ),
    "recycle-attacked-undetected": (
        [*DEMO, "--attack", "utb", "--theta", "0.5", "--attack-session", "3", "--seed", "111"],
        0,
        "81318da2179e1b99c67b5470afa9901c1d5d8567ddbbde648aa429f2499af470",
        "1bbf1d3826550e4bacb186cb1f09feb8de7420055d4306b7bb91f7c6780d4c6d",
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
