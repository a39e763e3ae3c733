"""Command-line contract: exit codes, deterministic outputs, CSV schemas."""

import argparse
import contextlib
import errno
import io
import json
import os
import stat
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qotp import adversary, analysis, cli, kernels, protocol
from qotp.adversary import IndividualUTB, InterceptResend, NoAttack
from qotp.analysis import BOUNDS_CSV_HEADER, SWEEP_CSV_HEADER
from qotp.keystore import PadKey, generate_pad, pad_to_text
from qotp.rng import ROLE_MESSAGE, ROLE_PAD, ROLE_SESSION, ROLE_SWEEP, make_rng, role_seed
from lineage_v1 import lineage_v1

# the d_m at which epsilon_tilde_min has its pole, 1 / (8 sqrt 2)
POLE = "0.08838834764831845"

# a short command for each subcommand that writes --out, exit code 0
OUT_COMMANDS = {
    "run": ["run", "--message-bits", "16", "--samples", "4", "--seed", "3"],
    "sweep-theta": ["sweep-theta", "--points", "3", "--photons", "1000", "--seed", "3"],
    "bounds": ["bounds", "--d-grid", "0,0.05"],
    "recycle-demo": ["recycle-demo", "--sessions", "2", "--seed", "3"],
}

BOUNDS_GOLDEN = """d,i0,i1,linear,eps_tilde
0,0,0,0,1
0.05,0.1417641247,0.997408827,0.4080557786,0.0001874777104
0.1,0.2780719051,0.4124580293,0.8161115573,6.078898099
"""


class TestRun:
    def test_clean_session_accepted(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        rc = cli.main(
            ["run", "--message-bits", "128", "--samples", "64", "--attack", "none",
             "--seed", "7", "--out", str(out)]
        )
        assert rc == cli.EXIT_OK
        stdout = capsys.readouterr().out
        assert "session accepted" in stdout
        assert "rate: 0 " in stdout
        doc = json.loads(out.read_text())
        report = doc["public_view"]["error_report"]
        assert report["accepted"] is True
        assert report["rate"] == 0.0

    def test_intercept_resend_rejected(self, capsys):
        rc = cli.main(
            ["run", "--message-bits", "0", "--samples", "10000",
             "--attack", "intercept_resend", "--seed", "7"]
        )
        assert rc == cli.EXIT_REJECTED
        stdout = capsys.readouterr().out
        assert "rejected: eavesdropping detected" in stdout
        rate = float(stdout.split("sample error rate: ")[1].split()[0])
        assert abs(rate - 0.25) < 0.013

    def test_zero_samples_config_error(self, capsys):
        rc = cli.main(["run", "--message-bits", "8", "--samples", "0"])
        assert rc == cli.EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_nonzero_threshold_needs_flag(self, capsys):
        rc = cli.main(["run", "--message-bits", "8", "--samples", "4", "--threshold", "0.5"])
        assert rc == cli.EXIT_ERROR
        rc = cli.main(
            ["run", "--message-bits", "8", "--samples", "4", "--threshold", "0.5",
             "--insecure-demo"]
        )
        assert rc in (cli.EXIT_OK, cli.EXIT_REJECTED)

    def test_byte_identical_outputs(self, tmp_path):
        args = ["run", "--message-bits", "64", "--samples", "16", "--attack", "utb",
                "--theta", "0.5", "--seed", "13"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        # the 16-bit check passes with probability 0.229 at theta 0.5; seed 13
        # is caught
        assert cli.main(args + ["--out", str(out1)]) == cli.EXIT_REJECTED
        assert cli.main(args + ["--out", str(out2)]) == cli.EXIT_REJECTED
        assert out1.read_bytes() == out2.read_bytes()

    def test_explicit_message_and_reveal(self, capsys):
        rc = cli.main(["run", "--message", "10110011", "--samples", "4", "--seed", "3",
                       "--reveal"])
        assert rc == cli.EXIT_OK
        assert "extracted message bits: 10110011" in capsys.readouterr().out

    def test_digest_hides_message_without_reveal(self, capsys):
        rc = cli.main(["run", "--message", "10110011", "--samples", "4", "--seed", "3"])
        assert rc == cli.EXIT_OK
        stdout = capsys.readouterr().out
        assert "10110011" not in stdout
        assert "sha256" in stdout

    def test_pad_file_loaded(self, tmp_path, capsys):
        pad_path = tmp_path / "pad.txt"
        pad_path.write_text(pad_to_text(generate_pad(400, make_rng(5))))
        rc = cli.main(
            ["run", "--message-bits", "64", "--samples", "16", "--seed", "2",
             "--pad-file", str(pad_path)]
        )
        assert rc == cli.EXIT_OK

    def test_pad_file_too_short(self, tmp_path, capsys):
        pad_path = tmp_path / "pad.txt"
        pad_path.write_text(pad_to_text(generate_pad(8, make_rng(5))))
        rc = cli.main(
            ["run", "--message-bits", "64", "--samples", "16", "--pad-file", str(pad_path)]
        )
        assert rc == cli.EXIT_ERROR
        assert capsys.readouterr().err == (
            "error: pad exhausted at session 1: need 160 bits for 80 photons, have 8\n"
        )

    def test_a_0_bit_recycled_pad_file_is_exhausted(self, tmp_path, capsys):
        # one sampled photon takes the whole 2-bit pad: its recycled pad is 0 bits
        out = tmp_path / "t0.json"
        argv = ["run", "--message-bits", "0", "--samples", "1", "--seed", "1"]
        assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_OK
        recycled = json.loads(out.read_text())["secret_view"]["recycled_pad"]
        assert recycled == {"generation": 1, "hex": "", "bits": 0}
        pad_path = tmp_path / "pad.txt"
        pad_path.write_text(pad_to_text(PadKey(bits=np.zeros(0, np.uint8), generation=1)))
        capsys.readouterr()
        assert cli.main([*argv, "--pad-file", str(pad_path)]) == cli.EXIT_ERROR
        assert capsys.readouterr() == (
            "", "error: pad exhausted at session 1: need 2 bits for 1 photons, have 0\n")

    # each would key the session if whitespace or a blank line were skipped
    @pytest.mark.parametrize(
        "text",
        ["generation=2 \nF\nbits=4\n", " generation=2\nF\nbits=4\n", "generation=2\nF \nbits=4\n",
         "generation=2\nF\nbits=4 \n", "\ngeneration=2\nF\nbits=4\n", "generation=2\nF\nbits=4\n\n",
         "generation=2\nF\n"],
        ids=["generation-trailing-space", "generation-line-indented", "hex-trailing-space",
             "bits-trailing-space", "blank-line-before", "blank-line-after", "no-bits-line"],
    )
    def test_pad_file_not_as_written_line(self, text, tmp_path, capsys):
        pad_path = tmp_path / "pad.txt"
        pad_path.write_text(text)
        argv = ["run", "--message-bits", "0", "--samples", "1", "--pad-file", str(pad_path)]
        assert cli.main(argv) == cli.EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: pad ") and err.count("\n") == 1

    @pytest.mark.parametrize("seed", [7, -5, 2**63 - 1])
    def test_recorded_seed_replays(self, seed, tmp_path, capsys):
        # the transcript records the --seed given, and that seed replays the run
        argv = ["run", "--message-bits", "64", "--samples", "16", "--attack", "utb",
                "--theta", "0.2", "--threshold", "1", "--insecure-demo"]
        first, replay = tmp_path / "first.json", tmp_path / "replay.json"
        assert cli.main([*argv, "--seed", str(seed), "--out", str(first)]) == cli.EXIT_OK
        stdout = capsys.readouterr().out
        recorded = json.loads(first.read_text())["config"]["seed"]
        assert recorded == seed
        assert cli.main([*argv, "--seed", str(recorded), "--out", str(replay)]) == cli.EXIT_OK
        assert capsys.readouterr() == (stdout, "")
        assert replay.read_bytes() == first.read_bytes()

    def test_theta_deg_equivalent(self, tmp_path):
        base = ["run", "--message-bits", "32", "--samples", "8", "--attack", "utb",
                "--seed", "21"]
        out1, out2 = tmp_path / "rad.json", tmp_path / "deg.json"
        cli.main(base + ["--theta", str(np.pi / 8), "--out", str(out1)])
        cli.main(base + ["--theta-deg", "22.5", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_theta_flags_conflict(self, capsys):
        rc = cli.main(["run", "--message-bits", "8", "--samples", "4", "--attack", "utb",
                       "--theta", "0.1", "--theta-deg", "10"])
        assert rc == cli.EXIT_ERROR

    def test_env_seed_default(self, monkeypatch, tmp_path):
        out1, out2 = tmp_path / "env.json", tmp_path / "flag.json"
        monkeypatch.setenv("QOTP_SEED", "99")
        cli.main(["run", "--message-bits", "16", "--samples", "4", "--out", str(out1)])
        monkeypatch.delenv("QOTP_SEED")
        cli.main(["run", "--message-bits", "16", "--samples", "4", "--seed", "99",
                  "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize(
        "attack_class,flags",
        [(InterceptResend, ["--attack", "intercept_resend"]),
         (IndividualUTB, ["--attack", "utb", "--theta", "0.3"])],
        ids=["intercept-resend", "probe"],
    )
    def test_attacked_run_builds_the_law_once(self, attack_class, flags, law_calls, tmp_path):
        # the kernel reads the law once, into its cached stacked table
        argv = ["run", "--message-bits", "64", "--samples", "16", *flags, "--known-plaintext",
                "--threshold", "1", "--insecure-demo", "--out", str(tmp_path / "t.json")]
        assert cli.main(argv) == cli.EXIT_OK
        assert [type(attack) for attack in law_calls] == [attack_class]

    def test_known_plaintext_shares_its_attacks_table(self, law_calls, capsys):
        # the session benchmark's five run shapes hold four laws: the
        # known-plaintext probe is the plus-basis probe
        probe = ["--attack", "utb", "--theta-deg", "22.5"]
        shapes = [[], ["--attack", "intercept_resend", "--ir-basis", "random"],
                  [*probe, "--utb-basis", "plus"], [*probe, "--utb-basis", "cross"],
                  [*probe, "--utb-basis", "plus", "--known-plaintext"]]
        for flags in shapes * 2:
            cli.main(["run", "--message-bits", "48", "--samples", "16", "--seed", "4", *flags])
        capsys.readouterr()
        assert len(law_calls) == 4
        assert kernels._pair_tables.cache_info().currsize == 4


class TestSweep:
    def test_default_grid_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = cli.main(["sweep-theta", "--photons", "10000", "--seed", "5",
                       "--out", str(out)])
        assert rc == cli.EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 6
        thetas = [0, np.pi / 16, np.pi / 8, 3 * np.pi / 16, np.pi / 4]
        for line, theta in zip(lines[1:], thetas):
            vals = [float(v) for v in line.split(",")]
            assert vals[0] == pytest.approx(theta, abs=1e-9)
            d = 0.5 * np.sin(theta) ** 2
            assert vals[1] == pytest.approx(d, abs=1e-9)
            # ~half of 10^4 photons land in the attacked basis
            sigma = np.sqrt(max(d * (1 - d), 1e-6) / 4000)
            assert abs(vals[2] - d) < 3 * sigma
        zero_row = [float(v) for v in lines[1].split(",")]
        assert zero_row[1:] == [0.0, 0.0, 0.0, 0.0, 0.0]
        top_row = [float(v) for v in lines[5].split(",")]
        assert abs(top_row[5] - 0.645) < 1e-3

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["sweep-theta", "--photons", "2000", "--seed", "9", "--out", str(a)])
        cli.main(["sweep-theta", "--photons", "2000", "--seed", "9", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_photon_count_past_memory(self, capsys):
        # binning 10^12 photons one by one would not fit in memory
        rc = cli.main(["sweep-theta", "--points", "5", "--photons", "1000000000000", "--seed", "3"])
        assert rc == cli.EXIT_OK
        assert len(capsys.readouterr().out.strip().split("\n")) == 6

    def test_a_given_grid_is_swept(self, capsys):
        argv = ["sweep-theta", "--photons", "1000", "--seed", "3", "--thetas"]
        assert cli.main([*argv, "0.1,0.2"]) == cli.EXIT_OK
        rows = capsys.readouterr().out.splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["0.1", "0.2"]
        assert cli.main([*argv, "0.1,0.2,0.3"]) == cli.EXIT_OK
        assert capsys.readouterr().out.splitlines()[:3] == rows

    def test_needs_two_points(self, capsys):
        rc = cli.main(["sweep-theta", "--thetas", "0.1", "--photons", "100"])
        assert rc == cli.EXIT_ERROR

    def test_sweeps_build_each_points_law_once(self, monkeypatch, tmp_path):
        # a grid's probe laws are built in one call and its table is cached,
        # so a second sweep over the same grid builds nothing
        calls = []
        probe_law = adversary.probe_law

        def counting(cos, sin, basis):
            calls.append(np.shape(cos))
            return probe_law(cos, sin, basis)

        monkeypatch.setattr(adversary, "probe_law", counting)
        analysis._grid_table.cache_clear()
        argv = ["sweep-theta", "--points", "5", "--photons", "1000", "--seed", "3",
                "--out", str(tmp_path / "sweep.csv")]
        assert cli.main(argv) == cli.EXIT_OK
        assert calls == [(5, 1, 1, 1)]
        assert cli.main(argv) == cli.EXIT_OK
        assert calls == [(5, 1, 1, 1)]

    def test_sweeps_leave_the_session_cache_alone(self, capsys):
        # a sweep builds its own table, so it evicts no table a session cached
        cli.main(["run", "--message-bits", "16", "--samples", "4", "--attack", "utb",
                  "--theta", "0.3", "--seed", "3"])
        before = kernels._pair_tables.cache_info()
        assert cli.main(["sweep-theta", "--points", "100", "--photons", "1000",
                         "--seed", "3"]) == cli.EXIT_OK
        assert kernels._pair_tables.cache_info() == before
        capsys.readouterr()


class TestBounds:
    def test_golden_csv(self, tmp_path):
        out = tmp_path / "bounds.csv"
        rc = cli.main(["bounds", "--d-grid", "0,0.05,0.1", "--out", str(out)])
        assert rc == cli.EXIT_OK
        assert out.read_text() == BOUNDS_GOLDEN

    def test_header(self, capsys):
        rc = cli.main(["bounds", "--d-grid", "0,0.01"])
        assert rc == cli.EXIT_OK
        assert capsys.readouterr().out.startswith(BOUNDS_CSV_HEADER)

    def test_pole_in_grid_names_point(self, capsys):
        pole = 1.0 / (8.0 * np.sqrt(2.0))
        rc = cli.main(["bounds", "--d-grid", f"0,{pole},0.1"])
        assert rc == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert "pole" in err and "0.0883883476" in err


class TestRecycleDemo:
    def test_five_sessions_arithmetic(self, tmp_path, capsys):
        out = tmp_path / "demo.json"
        rc = cli.main(
            ["recycle-demo", "--sessions", "5", "--message-bits", "64", "--samples", "16",
             "--pad-bits", "800", "--seed", "11", "--out", str(out)]
        )
        assert rc == cli.EXIT_OK
        doc = lineage_v1(json.loads(out.read_text()))
        assert len(doc["sessions"]) == 5
        assert all(s["accepted"] and s["message_exact"] for s in doc["sessions"])
        assert doc["final_pad_bits"] == 800 - 5 * 2 * 16
        assert doc["audit"]["announced_bits_reused"] == 0
        assert doc["halted_at_session"] is None

    def test_attacked_session_halts_lineage(self, tmp_path, capsys):
        out = tmp_path / "demo.json"
        rc = cli.main(
            ["recycle-demo", "--sessions", "3", "--message-bits", "64", "--samples", "32",
             "--pad-bits", "1000", "--seed", "12", "--attack-session", "2",
             "--attack", "intercept_resend", "--out", str(out)]
        )
        assert rc == cli.EXIT_REJECTED
        doc = lineage_v1(json.loads(out.read_text()))
        assert doc["halted_at_session"] == 2
        assert len(doc["sessions"]) == 2
        assert doc["sessions"][0]["accepted"] and not doc["sessions"][1]["accepted"]
        assert doc["final_pad_bits"] is None

    @pytest.mark.parametrize(
        "attack_flags,attack,exit_code",
        [([], NoAttack(), cli.EXIT_OK),
         (["--attack", "intercept_resend", "--attack-session", "3"], InterceptResend(),
          cli.EXIT_REJECTED)],
        ids=["clean", "intercept-resend-halts"],
    )
    def test_report_is_the_lineage_as_compact_sorted_json(self, attack_flags, attack, exit_code,
                                                          tmp_path, capsys):
        out = tmp_path / "demo.json"
        argv = ["recycle-demo", "--sessions", "6", "--message-bits", "32", "--samples", "8",
                *attack_flags, "--seed", "21", "--out", str(out)]
        assert cli.main(argv) == exit_code
        text = out.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        report = json.loads(text)
        assert text == json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
        # the default pad: one session's keys plus five more sessions' checks
        pad = generate_pad(2 * (32 + 8) + 2 * 8 * 5, make_rng(role_seed(21, ROLE_PAD)))
        attacks = [attack if k == 2 else NoAttack() for k in range(6)]
        config = protocol.SessionConfig(n_message=32, n_sample=8, seed=21)
        assert report == protocol.run_lineage(pad, config, attacks)[0]

    def test_shares_the_session_flags_of_run(self):
        commands = next(action.choices for action in cli.build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))

        def session_flags(command):
            actions = commands[command]._option_string_actions
            return {flag: (actions[flag].help, actions[flag].default)
                    for flag in ("--threshold", "--insecure-demo", "--seed")}

        assert session_flags("recycle-demo") == session_flags("run")
        assert all(help_text for help_text, _ in session_flags("run").values())

    def test_the_first_session_can_be_attacked(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        argv = ["recycle-demo", "--sessions", "2", "--attack", "utb", "--theta", "0",
                "--attack-session", "1", "--seed", "3", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        assert [s["attacked"] for s in json.loads(out.read_text())["sessions"]] == [True, False]

    def test_single_session_matches_run_semantics(self, capsys):
        rc = cli.main(["recycle-demo", "--sessions", "1", "--seed", "4"])
        assert rc == cli.EXIT_OK

    def test_pad_exhaustion_reported(self, capsys):
        rc = cli.main(
            ["recycle-demo", "--sessions", "5", "--message-bits", "64", "--samples", "16",
             "--pad-bits", "200", "--seed", "11"]
        )
        assert rc == cli.EXIT_ERROR
        # two sessions leave 200 - 2 * 2 * 16 bits, short of the third's 80 photons
        assert capsys.readouterr().err == (
            "error: pad exhausted at session 3: need 160 bits for 80 photons, have 136\n"
        )


class TestDefaults:
    """What a command does with a flag left out, as its help says."""

    @pytest.mark.parametrize("command,flag,value", [
        ("run", "message_bits", 128), ("sweep-theta", "photons", 10_000),
        ("recycle-demo", "sessions", 5),
    ])
    def test_a_flag_left_out_takes_its_default(self, command, flag, value):
        assert getattr(cli.build_parser().commands[command].parse_args([]), flag) == value

    @pytest.mark.parametrize("message_bits,n_sample", [(16, 32), (130, 32), (200, 50)])
    def test_run_samples_a_quarter_of_the_message_and_at_least_32(self, message_bits, n_sample,
                                                                    tmp_path, capsys):
        out = tmp_path / "t.json"
        argv = ["run", "--message-bits", str(message_bits), "--seed", "1", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        assert json.loads(out.read_text())["config"]["n_sample"] == n_sample

    def test_the_probe_defaults_to_full_strength_in_the_plus_basis(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        cli.main(["run", "--message-bits", "16", "--attack", "utb", "--seed", "1", "--out", str(out)])
        assert json.loads(out.read_text())["attack"] == {
            "kind": "utb", "theta": np.pi / 4, "utb_basis": "plus"}

    def test_bounds_defaults_to_17_points_on_0_to_0_08(self, capsys):
        assert cli.main(["bounds"]) == cli.EXIT_OK
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 17
        assert [row.split(",")[0] for row in (rows[0], rows[1], rows[-1])] == ["0", "0.005", "0.08"]


class TestOutFile:
    """Each --out file holds the command's ASCII bytes alone, with a new file's
    mode or the mode an existing file had."""

    @pytest.mark.parametrize("command", list(OUT_COMMANDS))
    def test_out_over_a_longer_file_leaves_only_the_new_bytes(self, command, tmp_path, capsys):
        fresh, out = tmp_path / "fresh", tmp_path / "out"
        assert cli.main([*OUT_COMMANDS[command], "--out", str(fresh)]) == cli.EXIT_OK
        out.write_bytes(b"\xff" * (fresh.stat().st_size + 4096))
        out.chmod(0o640)
        assert cli.main([*OUT_COMMANDS[command], "--out", str(out)]) == cli.EXIT_OK
        assert out.read_bytes() == fresh.read_bytes()
        assert stat.S_IMODE(out.stat().st_mode) == 0o640

    @pytest.mark.parametrize("command", list(OUT_COMMANDS))
    def test_out_to_dev_null_exits_0(self, command, capsys):
        # /dev/null accepts the truncating open
        assert cli.main([*OUT_COMMANDS[command], "--out", os.devnull]) == cli.EXIT_OK

    @pytest.mark.parametrize("truncate_fails", [False, True], ids=["cut", "cut-fails"])
    def test_write_that_fails_part_way_leaves_only_the_written_prefix(
            self, truncate_fails, monkeypatch, tmp_path, capsys):
        fresh, out = tmp_path / "fresh", tmp_path / "out"
        assert cli.main([*OUT_COMMANDS["bounds"], "--out", str(fresh)]) == cli.EXIT_OK
        out.write_bytes(b"\xff" * 240)
        real_write, calls = os.write, []

        def short_then_full(fd, data):
            calls.append(fd)
            if len(calls) > 1:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real_write(fd, data[:10])

        def refuse(fd, size):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.setattr(os, "write", short_then_full)
        if truncate_fails:
            # the open truncates, so the writer never cuts the file afterwards
            monkeypatch.setattr(os, "ftruncate", refuse)
        capsys.readouterr()
        assert cli.main([*OUT_COMMANDS["bounds"], "--out", str(out)]) == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert os.strerror(errno.ENOSPC) in err
        assert out.read_bytes() == fresh.read_bytes()[:10]

    @pytest.mark.parametrize("write_fails", [False, True], ids=["written", "write-fails"])
    def test_the_file_is_closed_after_its_write(self, write_fails, monkeypatch, tmp_path, capsys):
        real_open, real_write, fds = os.open, os.write, []

        def recording_open(*args):
            fds.append(real_open(*args))
            return fds[-1]

        def failing_write(fd, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "open", recording_open)
        monkeypatch.setattr(os, "write", failing_write if write_fails else real_write)
        rc = cli.main([*OUT_COMMANDS["bounds"], "--out", str(tmp_path / "out")])
        assert rc == (cli.EXIT_ERROR if write_fails else cli.EXIT_OK)
        assert len(fds) == 1
        with pytest.raises(OSError):
            os.fstat(fds[0])

    @pytest.mark.parametrize("command", ["sweep-theta", "bounds"])
    def test_out_file_holds_the_bytes_of_stdout(self, command, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert cli.main(OUT_COMMANDS[command]) == cli.EXIT_OK
        stdout = capsys.readouterr().out
        assert cli.main([*OUT_COMMANDS[command], "--out", str(out)]) == cli.EXIT_OK
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == stdout.encode("ascii")

    @pytest.mark.parametrize("umask", [0o022, 0o002])
    @pytest.mark.parametrize("command", list(OUT_COMMANDS))
    def test_new_file_mode_is_0o666_under_the_umask(self, command, umask, tmp_path, capsys):
        out = tmp_path / "out"
        saved = os.umask(umask)
        try:
            assert cli.main([*OUT_COMMANDS[command], "--out", str(out)]) == cli.EXIT_OK
        finally:
            os.umask(saved)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask


class TestSeedRoles:
    def test_recycle_demo_streams_are_distinct(self, monkeypatch, capsys):
        # the pad, the messages and the sessions get one stream each, however
        # many sessions the lineage runs
        seeds = []

        def recording(seed):
            seeds.append(seed)
            return make_rng(seed)

        monkeypatch.setattr(cli, "make_rng", recording)
        monkeypatch.setattr(protocol, "make_rng", recording)
        streams = [role_seed(1, role) for role in (ROLE_PAD, ROLE_MESSAGE, ROLE_SESSION)]
        assert len(set(streams)) == 3
        for sessions in (1, 5, 40):
            seeds.clear()
            rc = cli.main(["recycle-demo", "--sessions", str(sessions), "--seed", "1"])
            assert rc == cli.EXIT_OK
            assert seeds == streams


    def test_sweep_streams_are_distinct(self, monkeypatch):
        # a sweep draws every grid point from one stream, which differs from
        # the other seed's and from the session, pad and message streams
        seeds = []

        def recording(seed):
            seeds.append(seed)
            return make_rng(seed)

        monkeypatch.setattr(analysis, "make_rng", recording)
        for seed in (0, 1):
            analysis.sweep_theta([0.0, 0.3, np.pi / 4], n_photons=100, seed=seed)
        assert seeds == [role_seed(0, ROLE_SWEEP), role_seed(1, ROLE_SWEEP)]
        assert len(set(seeds)) == len(seeds)
        others = {role_seed(s, role) for s in (0, 1)
                  for role in (ROLE_SESSION, ROLE_PAD, ROLE_MESSAGE)}
        assert others.isdisjoint(seeds)


class TestBoundaryErrors:
    @pytest.mark.parametrize(
        "argv,env,line",
        [
            (["bounds", "--d-grid", "nan"], {},
             "qotp bounds: argument --d-grid: must be comma-separated numbers in [0, 0.25], got 'nan'"),
            (["bounds", "--d-grid", "0.3"], {},
             "qotp bounds: argument --d-grid: must be comma-separated numbers in [0, 0.25], got '0.3'"),
            (["bounds", "--d-grid", "0.1,,0.2"], {},
             "qotp bounds: argument --d-grid: must be comma-separated numbers in [0, 0.25], got ''"),
            (["bounds", "--d-grid", ""], {},
             "qotp bounds: argument --d-grid: must be comma-separated numbers in [0, 0.25], got ''"),
            (["sweep-theta", "--thetas", "0.1,0.9"], {},
             "qotp sweep-theta: argument --thetas: must be 2 or more comma-separated numbers in "
             "[0, pi/4], got '0.9'"),
            (["sweep-theta", "--thetas", "0.1,abc"], {},
             "qotp sweep-theta: argument --thetas: must be 2 or more comma-separated numbers in "
             "[0, pi/4], got 'abc'"),
            (["sweep-theta", "--thetas", ""], {},
             "qotp sweep-theta: argument --thetas: must be 2 or more comma-separated numbers in "
             "[0, pi/4], got ''"),
            (["sweep-theta", "--thetas", "0.1"], {},
             "qotp sweep-theta: argument --thetas: must be 2 or more comma-separated numbers in "
             "[0, pi/4], got '0.1'"),
            (["run", "--message-bits", "-3"], {},
             "qotp run: argument --message-bits: must be an integer in [0, int64 max], got '-3'"),
            (["recycle-demo", "--message-bits", "-1"], {},
             "qotp recycle-demo: argument --message-bits: must be an integer in [0, int64 max], "
             "got '-1'"),
            (["run", "--attack", "utb", "--theta", "0.9"], {},
             "qotp run: argument --theta: must be a number in [0, pi/4], got '0.9'"),
            (["run", "--attack", "utb", "--theta", "nan"], {},
             "qotp run: argument --theta: must be a number in [0, pi/4], got 'nan'"),
            (["run", "--attack", "utb", "--theta-deg", "46"], {},
             "qotp run: argument --theta-deg: must be a number in [0, 45], got '46'"),
            (["run", "--samples", "0"], {},
             "qotp run: argument --samples: must be an integer in [1, int64 max], got '0'"),
            (["recycle-demo", "--samples", "0"], {},
             "qotp recycle-demo: argument --samples: must be an integer in [1, int64 max], got '0'"),
            (["recycle-demo", "--pad-bits", "0"], {},
             "qotp recycle-demo: argument --pad-bits: must be an integer in [1, int64 max], got '0'"),
            (["sweep-theta", "--points", "-3"], {},
             "qotp sweep-theta: argument --points: must be an integer in [2, int64 max], got '-3'"),
            (["bounds", "--points", "-1"], {},
             "qotp bounds: argument --points: must be an integer in [1, int64 max], got '-1'"),
            (["run", "--threshold", "2", "--insecure-demo"], {},
             "qotp run: argument --threshold: must be a number in [0, 1], got '2'"),
            (["run", "--threshold", "-1", "--insecure-demo"], {},
             "qotp run: argument --threshold: must be a number in [0, 1], got '-1'"),
            (["run", "--threshold", "nan", "--insecure-demo"], {},
             "qotp run: argument --threshold: must be a number in [0, 1], got 'nan'"),
            (["recycle-demo", "--threshold", "2", "--insecure-demo"], {},
             "qotp recycle-demo: argument --threshold: must be a number in [0, 1], got '2'"),
            (["recycle-demo", "--threshold", "-1", "--insecure-demo"], {},
             "qotp recycle-demo: argument --threshold: must be a number in [0, 1], got '-1'"),
            (["recycle-demo", "--threshold", "nan", "--insecure-demo"], {},
             "qotp recycle-demo: argument --threshold: must be a number in [0, 1], got 'nan'"),
            # values that no argparse type checked before: their errors named no flag
            (["sweep-theta", "--photons", "0"], {},
             "qotp sweep-theta: argument --photons: must be an integer in [1, int64 max], got '0'"),
            (["recycle-demo", "--sessions", "0"], {},
             "qotp recycle-demo: argument --sessions: must be an integer in [1, int64 max], got '0'"),
            (["sweep-theta", "--points", "1"], {},
             "qotp sweep-theta: argument --points: must be an integer in [2, int64 max], got '1'"),
            (["bounds", "--points", "0"], {},
             "qotp bounds: argument --points: must be an integer in [1, int64 max], got '0'"),
            (["run", "--seed", str(2**64)], {},
             "qotp run: argument --seed: must be an integer in [int64 min, int64 max], "
             f"got '{2**64}'"),
            (["run"], {"QOTP_SEED": str(-(2**63) - 1)},
             f"QOTP_SEED: must be an integer in [int64 min, int64 max], got '{-(2**63) - 1}'"),
            (["run", "--message", "01x"], {},
             "qotp run: argument --message: must be a 0/1 string, got '01x'"),
            (["run", "--message", "012"], {},
             "qotp run: argument --message: must be a 0/1 string, got '012'"),
            (["bounds", "--d-min", "-0.01"], {},
             "qotp bounds: argument --d-min: must be a number in [0, 0.25], got '-0.01'"),
            (["recycle-demo", "--attack-session", "0"], {},
             "qotp recycle-demo: argument --attack-session: must be an integer in [1, int64 max], "
             "got '0'"),
            # numbers that int() and float() read but are not plain ASCII numbers
            (["run", "--message-bits", "1_6"], {},
             "qotp run: argument --message-bits: must be an integer in [0, int64 max], got '1_6'"),
            (["run", "--seed", "\u0667"], {},
             "qotp run: argument --seed: must be an integer in [int64 min, int64 max], "
             "got '\u0667'"),
            (["run"], {"QOTP_SEED": "\u0667"},
             "QOTP_SEED: must be an integer in [int64 min, int64 max], got '\u0667'"),
            (["run", "--threshold", "0_0.5", "--insecure-demo"], {},
             "qotp run: argument --threshold: must be a number in [0, 1], got '0_0.5'"),
            (["run", "--attack", "utb", "--theta-deg", "\u0663\u0660"], {},
             "qotp run: argument --theta-deg: must be a number in [0, 45], got '\u0663\u0660'"),
            (["bounds", "--d-grid", "0,0.0_1"], {},
             "qotp bounds: argument --d-grid: must be comma-separated numbers in [0, 0.25], "
             "got '0.0_1'"),
            # and numbers with whitespace around them, which int() and float() strip
            (["run", "--message-bits", " 16", "--seed", "1"], {},
             "qotp run: argument --message-bits: must be an integer in [0, int64 max], got ' 16'"),
            (["sweep-theta", "--thetas", "0.1, 0.2"], {},
             "qotp sweep-theta: argument --thetas: must be 2 or more comma-separated numbers in "
             "[0, pi/4], got ' 0.2'"),
            (["run"], {"QOTP_SEED": " 7"},
             "QOTP_SEED: must be an integer in [int64 min, int64 max], got ' 7'"),
            # a negative first grid value, which argparse before Python 3.13 reads as a flag
            (["sweep-theta", "--thetas", "-0.1,0.2"], {},
             "qotp sweep-theta: argument --thetas: must be 2 or more comma-separated numbers in "
             "[0, pi/4], got '-0.1'"),
            (["bounds", "--d-grid", "-0.01,0.02"], {},
             "qotp bounds: argument --d-grid: must be comma-separated numbers in [0, 0.25], "
             "got '-0.01'"),
            # "--" as a value, which argparse before Python 3.13 reads as an empty list
            (["bounds", "--d-grid=--"], {}, "qotp bounds: argument --d-grid: expected one argument"),
            # grid flags that a given list would ignore
            (["sweep-theta", "--thetas", "0,0.5", "--points", "9"], {},
             "qotp sweep-theta: argument --points: not allowed with argument --thetas"),
            (["bounds", "--d-grid", "0.01", "--d-min", "0.2", "--points", "9"], {},
             "qotp bounds: argument --d-grid: not allowed with argument --d-min"),
            (["bounds", "--d-grid", "0.01", "--points", "9"], {},
             "qotp bounds: argument --d-grid: not allowed with argument --points"),
            # flags no command has: the command's own parser names it
            (["run", "--bogus", "1"], {}, "qotp run: unrecognized arguments: --bogus 1"),
            (["recycle-demo", "--sessions", "2", "extra"], {},
             "qotp recycle-demo: unrecognized arguments: extra"),
            # --known-plaintext notes a fact in a session transcript, which a lineage lacks
            (["recycle-demo", "--known-plaintext"], {},
             "qotp recycle-demo: unrecognized arguments: --known-plaintext"),
            # no command: the top-level parser reports it
            ([], {}, "qotp: the following arguments are required: command"),
        ],
        ids=["d-grid-nan", "d-grid-past-i1-domain", "d-grid-empty-value", "d-grid-empty",
             "thetas-past-pi-over-4", "thetas-not-a-number", "thetas-empty", "thetas-one-point",
             "run-negative-message-bits", "recycle-negative-message-bits", "theta-past-pi-over-4",
             "theta-nan", "theta-deg-past-45", "run-zero-samples", "recycle-zero-samples",
             "zero-pad-bits", "sweep-negative-points", "bounds-negative-points",
             "run-threshold-2", "run-threshold-negative", "run-threshold-nan",
             "recycle-threshold-2", "recycle-threshold-negative", "recycle-threshold-nan",
             "zero-photons", "zero-sessions", "one-sweep-point", "zero-bound-points",
             "seed-past-int64", "env-seed-below-int64", "message-not-bits", "message-digit-2",
             "d-min-negative", "zero-attack-session",
             "message-bits-digit-groups", "seed-arabic-indic-digit", "env-seed-arabic-indic-digit",
             "threshold-digit-groups", "theta-deg-arabic-indic-digits", "d-grid-digit-groups",
             "message-bits-leading-space", "thetas-item-leading-space", "env-seed-leading-space",
             "thetas-negative-first", "d-grid-negative-first", "d-grid-dash-dash",
             "thetas-with-points", "d-grid-with-d-min", "d-grid-with-points",
             "run-unknown-flag", "recycle-extra-argument", "recycle-known-plaintext",
             "no-command"],
    )
    def test_flag_error_line(self, argv, env, line, monkeypatch, capsys):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert cli.main(argv) == cli.EXIT_ERROR
        assert capsys.readouterr() == ("", f"error: {line}\n")

    @pytest.mark.parametrize("command", list(OUT_COMMANDS))
    def test_out_in_a_missing_directory_line(self, command, tmp_path, capsys):
        out = tmp_path / "missing" / "out"
        assert cli.main([*OUT_COMMANDS[command], "--out", str(out)]) == cli.EXIT_ERROR
        assert capsys.readouterr() == ("", f"error: [Errno 2] No such file or directory: '{out}'\n")

    def test_out_naming_a_directory_line(self, tmp_path, capsys):
        # a trailing slash names a directory: no file is written under another name
        out = f"{tmp_path / 'table'}/"
        assert cli.main([*OUT_COMMANDS["bounds"], "--out", out]) == cli.EXIT_ERROR
        assert capsys.readouterr() == ("", f"error: [Errno 21] Is a directory: '{out}'\n")
        assert list(tmp_path.iterdir()) == []

    def test_unknown_command_line(self, capsys):
        assert cli.main(["nosuch"]) == cli.EXIT_ERROR
        out, err = capsys.readouterr()
        # the list of choices after it is argparse's own, and its quoting varies by Python version
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: qotp: argument command: invalid choice: 'nosuch' (choose from ")

    @pytest.mark.parametrize("argv,code,start", [
        (["bounds", "--d-grid", "0,0.01"], cli.EXIT_OK, BOUNDS_CSV_HEADER + "\n"),
        # the command's own parser names it, as for a given argv
        (["run", "--bogus", "1"], cli.EXIT_ERROR, "error: qotp run: unrecognized arguments: --bogus 1\n"),
    ], ids=["table", "unknown-flag"])
    def test_main_reads_sys_argv_when_given_none(self, argv, code, start, monkeypatch, capsys):
        assert cli.main(argv) == code
        given = capsys.readouterr()
        assert (given.out + given.err).startswith(start)
        monkeypatch.setattr("sys.argv", ["qotp", *argv])
        assert cli.main() == code
        assert capsys.readouterr() == given

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"], ["recycle-demo", "-h"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: {' '.join(['qotp', *argv[:-1]])} ")

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["--d-grid", f"0,{POLE},0.1"], "--d-grid"),
            (["--d-min", POLE, "--points", "1"], "--d-min"),
            (["--d-min", "0", "--d-max", POLE, "--points", "2"], "--d-max"),
            (["--d-min", POLE, "--d-max", POLE, "--points", "1"], "--d-min"),
            (["--d-min", "0", "--d-max", repr(2 * float(POLE)), "--points", "3"], "--points grid"),
        ],
        ids=["d-grid", "d-min", "d-max", "d-min-equal-to-d-max", "interior-grid-point"],
    )
    def test_grid_point_on_the_pole_names_its_flag(self, argv, flag, capsys):
        assert cli.main(["bounds", *argv]) == cli.EXIT_ERROR
        assert capsys.readouterr() == (
            "", f"error: {flag} value 0.0883883476483 is on the epsilon_tilde_min pole "
                "at d_m = 0.0883883476483\n"
        )

    @pytest.mark.parametrize(
        "argv,env",
        [
            (["bounds", "--d-grid", "nan"], {}),
            (["bounds", "--d-grid", POLE], {}),
            (["bounds", "--d-min", POLE, "--d-max", POLE, "--points", "1"], {}),
            (["bounds"], {"QOTP_SEED": "abc"}),
            (["recycle-demo", "--sessions", "2", "--attack-session", "5",
              "--attack", "intercept_resend"], {}),
            (["run", "--bogus"], {}),
            (["run", "--message-bits", "abc"], {}),
            (["recycle-demo", "--sessions", "0"], {}),
            (["recycle-demo", "--sessions", "-3"], {}),
            (["bounds", "--points", "0"], {}),
            (["sweep-theta", "--photons", "0"], {}),
            (["sweep-theta", "--photons", "1"], {}),
            (["recycle-demo", "--sessions", "2", "--pad-bits", "0"], {}),
            (["sweep-theta", "--thetas", "", "--photons", "100"], {}),
            (["bounds", "--d-grid", ""], {}),
            (["run", "--theta", "0.3"], {}),
            (["run", "--attack", "intercept_resend", "--theta-deg", "10"], {}),
            (["run", "--attack", "intercept_resend", "--utb-basis", "plus"], {}),
            (["run", "--attack", "utb", "--ir-basis", "cross"], {}),
            (["run", "--attack", "none", "--known-plaintext"], {}),
            (["recycle-demo", "--attack", "intercept_resend"], {}),
            (["recycle-demo", "--attack-session", "2"], {}),
            (["run", "--message-bits", "-3"], {}),
            (["recycle-demo", "--message-bits", "-1"], {}),
            (["run", "--samples", "1", "--threshold", "0.5"], {}),
            (["recycle-demo", "--threshold", "0.5"], {}),
            (["sweep-theta", "--photons", "9223372036854775808"], {}),
            (["run", "--attack", "utb", "--theta-deg", "46"], {}),
            # sizes of 2^62 and above: numpy refuses them without allocating
            (["run", "--message-bits", str(2**62)], {}),
            (["run", "--samples", str(2**62)], {}),
            (["recycle-demo", "--pad-bits", str(2**62)], {}),
            (["bounds", "--points", str(2**62)], {}),
            (["bounds", "--points", str(2**63)], {}),
            (["sweep-theta", "--points", str(2**63)], {}),
            (["run", "--seed", str(2**64 + 1)], {}),
            (["run", "--seed", str(2**63)], {}),
            (["run"], {"QOTP_SEED": str(-(2**63) - 1)}),
            (["run", "--message-bits", "0", "--samples", "4", "--pad-file", "two-hex-lines.pad"],
             {}),
            (["run", "--message-bits", "0", "--samples", "4", "--pad-file", "grouped.pad"], {}),
            (["run", "--message-bits", "0", "--samples", "4", "--pad-file", "arabic-indic.pad"],
             {}),
        ],
        ids=["nan-grid-point", "d-grid-on-the-pole", "d-min-d-max-on-the-pole",
             "non-integer-env-seed", "attack-session-past-the-end",
             "unknown-flag", "non-integer-flag", "zero-sessions", "negative-sessions",
             "zero-bound-points", "zero-photons", "one-photon", "zero-pad-bits",
             "empty-theta-grid", "empty-d-grid", "theta-without-attack",
             "theta-deg-without-probe", "utb-basis-without-probe",
             "ir-basis-without-intercept-resend", "known-plaintext-without-attack",
             "recycle-attack-without-session", "recycle-session-without-attack",
             "run-negative-message-bits", "recycle-negative-message-bits",
             "run-threshold-without-insecure-demo", "recycle-threshold-without-insecure-demo",
             "photons-past-int64", "theta-deg-past-45", "message-bits-past-memory",
             "samples-past-memory", "pad-bits-past-memory", "bound-points-past-memory",
             "bound-points-past-int64", "sweep-points-past-int64", "seed-aliasing-seed-1",
             "seed-past-int64", "env-seed-below-int64", "pad-file-with-two-hex-lines",
             "pad-file-generation-digit-groups", "pad-file-bits-arabic-indic-digit"],
    )
    def test_one_line_error_exit_1(self, argv, env, monkeypatch, capsys, tmp_path):
        monkeypatch.chdir(tmp_path)
        # 8 bits would key this 4-photon session, if the second hex line were dropped
        (tmp_path / "two-hex-lines.pad").write_text("generation=0\nFF\n00\n")
        # int() reads these fields as generation 10 and 8 bits
        (tmp_path / "grouped.pad").write_text("generation=1_0\nFF\nbits=8\n")
        (tmp_path / "arabic-indic.pad").write_text("generation=0\nFF\nbits=\u0668\n",
                                                   encoding="utf-8")
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        rc = cli.main(argv)
        out, err = capsys.readouterr()
        assert rc == cli.EXIT_ERROR
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,flags",
        [
            (["run", "--samples", str(2**62)], ["--message-bits", "--samples"]),
            (["run", "--message-bits", str(2**62)], ["--message-bits", "--samples"]),
            (["recycle-demo", "--message-bits", str(2**62)], ["--message-bits", "--samples"]),
            (["recycle-demo", "--samples", str(2**62)], ["--message-bits", "--samples"]),
            (["recycle-demo", "--samples", str(2**60)], ["--samples", "--sessions"]),
            (["recycle-demo", "--pad-bits", str(2**63)], ["--pad-bits"]),
            # 2 * (2^62 - 1 + 1) = 2^63 pad bits, one past the int64 maximum
            (["run", "--message-bits", str(2**62 - 1), "--samples", "1"],
             ["--message-bits", "--samples"]),
        ],
        ids=["run-samples", "run-message-bits", "recycle-message-bits", "recycle-samples", "recycle-sessions",
             "recycle-pad-bits", "run-one-past-int64"],
    )
    def test_pad_past_int64_names_its_flags(self, argv, flags, capsys):
        assert cli.main(argv) == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "int64" in err
        assert all(flag in err for flag in flags)

    def test_pad_at_the_int64_edge_passes_the_length_check(self, capsys):
        # 2 * (2^62 - 2 + 1) = 2^63 - 2 pad bits fit in an int64, so the pad-length
        # check lets them through and the message draw is what refuses them
        argv = ["run", "--message-bits", str(2**62 - 2), "--samples", "1"]
        assert cli.main(argv) == cli.EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "int64 maximum" not in err

    @pytest.mark.parametrize(
        "argv,env",
        [(["--seed", str(2**63 - 1)], {}), ([], {"QOTP_SEED": str(-(2**63))})],
        ids=["seed-int64-max", "env-seed-int64-min"],
    )
    def test_int64_seed_ends_run(self, argv, env, monkeypatch, capsys):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert cli.main(["run", "--message-bits", "8", "--samples", "4", *argv]) == cli.EXIT_OK

    def test_negative_seed_keeps_its_twos_complement_streams(self):
        sequence = np.random.SeedSequence(2**64 - 5, spawn_key=(ROLE_PAD, 0))
        assert role_seed(-5, ROLE_PAD) == int(sequence.generate_state(1, np.uint64)[0])

    @pytest.mark.parametrize("seed", [1.5, "5", None, True], ids=["float", "str", "none", "bool"])
    def test_role_seed_names_a_seed_that_is_not_an_integer(self, seed):
        with pytest.raises(ValueError, match=r"^seed must be an integer in \[int64 min, int64 max\], got "):
            role_seed(seed, ROLE_PAD)

    @pytest.mark.parametrize("seed", [2**63, -(2**63) - 1], ids=["int64-max-plus-1", "int64-min-minus-1"])
    def test_role_seed_rejects_a_seed_outside_int64(self, seed):
        with pytest.raises(ValueError, match=rf"^seed must be an integer in \[int64 min, int64 max\], got {seed}$"):
            role_seed(seed, ROLE_PAD)

    def test_role_seed_reads_a_numpy_seed_as_its_int(self):
        assert role_seed(np.int64(-5), ROLE_PAD) == role_seed(-5, ROLE_PAD)

    @pytest.mark.parametrize("command", ["run", "recycle-demo"])
    def test_threshold_names_the_insecure_demo_flag(self, command, capsys):
        assert cli.main([command, "--threshold", "0.5"]) == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert "--insecure-demo" in err and "allow_insecure_demo" not in err



# Flag values for the property test below: numbers at and past every edge
# (0, negatives, NaN, inf, out-of-range angles) and junk text.  Sizes stay
# small so that no drawn value makes numpy allocate a large array.
JUNK = (st.sampled_from(["", " ", "abc", "1,2", "0x10", "--", "1e", "é", "1_0", "\u0667"])
        | st.text(max_size=4))
FLOATS = (
    st.sampled_from(["0", "-0.0", "-1", "nan", "inf", "-inf", "1e400", "0.785", "3.2"])
    | st.floats(-2.0, 2.0).map(repr)
    | JUNK
)
DEGREES = st.floats(-100.0, 100.0).map(repr) | FLOATS


def ints(lo, hi):
    return st.integers(lo, hi).map(str) | JUNK


def grid(values):
    return st.lists(values, max_size=4).map(",".join) | JUNK


SEEDS = st.sampled_from(["-1", str(2**70)]) | ints(0, 2**32)
ATTACK_FLAGS = {
    "--attack": st.sampled_from(["none", "intercept_resend", "utb"]) | JUNK,
    "--ir-basis": st.sampled_from(["random", "plus", "cross"]) | JUNK,
    "--theta": FLOATS,
    "--theta-deg": DEGREES,
    "--utb-basis": st.sampled_from(["plus", "cross"]) | JUNK,
}
SESSION_FLAGS = {
    "--threshold": FLOATS,
    "--insecure-demo": None,
    "--seed": SEEDS,
    **ATTACK_FLAGS,
}
FLAG_SPACE = {
    "run": {
        "--message": st.text("01", max_size=256) | JUNK,
        "--message-bits": ints(-3, 256),
        "--samples": ints(-3, 64),
        "--reveal": None,
        "--known-plaintext": None,
        **SESSION_FLAGS,
    },
    "sweep-theta": {
        "--thetas": grid(FLOATS),
        "--points": ints(-2, 6),
        "--photons": ints(-2, 3000),
        "--utb-basis": st.sampled_from(["plus", "cross"]) | JUNK,
        "--seed": SEEDS,
    },
    "bounds": {
        "--d-grid": grid(FLOATS),
        "--d-min": FLOATS,
        "--d-max": FLOATS,
        "--points": ints(-2, 40),
    },
    "recycle-demo": {
        "--sessions": ints(-2, 4),
        "--message-bits": ints(-3, 256),
        "--samples": ints(-3, 64),
        "--pad-bits": ints(-3, 2000),
        "--attack-session": ints(-1, 5),
        **SESSION_FLAGS,
    },
}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(FLAG_SPACE)))
    flags = FLAG_SPACE[command]
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=4, unique=True)):
        values = flags[flag]
        # --flag=value keeps values such as "-inf" or "--" from reading as flags
        argv.append(flag if values is None else f"{flag}={draw(values)}")
    return argv


class TestFlagSpace:
    @given(command_lines())
    @settings(max_examples=300, deadline=None)
    def test_any_flags_exit_cleanly(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            rc = cli.main(argv)
        assert rc in (cli.EXIT_OK, cli.EXIT_ERROR, cli.EXIT_REJECTED)
        if rc == cli.EXIT_ERROR:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
        else:
            assert err.getvalue() == ""
