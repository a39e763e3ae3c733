"""Command-line contract: exit codes, deterministic outputs, CSV schemas."""

import json

import numpy as np
import pytest

from qotp import analysis, cli, protocol
from qotp.analysis import BOUNDS_CSV_HEADER, SWEEP_CSV_HEADER
from qotp.keystore import generate_pad, save_pad
from qotp.rng import ROLE_MESSAGE, ROLE_PAD, ROLE_SESSION, make_rng, role_seed

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
        assert doc["error_report"]["accepted"] is True
        assert doc["error_report"]["rate"] == 0.0

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
        assert cli.main(args + ["--out", str(out1)]) == cli.EXIT_OK
        assert cli.main(args + ["--out", str(out2)]) == cli.EXIT_OK
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
        save_pad(generate_pad(400, make_rng(5)), pad_path)
        rc = cli.main(
            ["run", "--message-bits", "64", "--samples", "16", "--seed", "2",
             "--pad-file", str(pad_path)]
        )
        assert rc == cli.EXIT_OK

    def test_pad_file_too_short(self, tmp_path, capsys):
        pad_path = tmp_path / "pad.txt"
        save_pad(generate_pad(8, make_rng(5)), pad_path)
        rc = cli.main(
            ["run", "--message-bits", "64", "--samples", "16", "--pad-file", str(pad_path)]
        )
        assert rc == cli.EXIT_ERROR
        assert "pad exhausted" in capsys.readouterr().err

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

    def test_needs_two_points(self, capsys):
        rc = cli.main(["sweep-theta", "--thetas", "0.1", "--photons", "100"])
        assert rc == cli.EXIT_ERROR


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
        doc = json.loads(out.read_text())
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
        doc = json.loads(out.read_text())
        assert doc["halted_at_session"] == 2
        assert len(doc["sessions"]) == 2
        assert doc["sessions"][0]["accepted"] and not doc["sessions"][1]["accepted"]
        assert doc["final_pad_bits"] is None

    def test_single_session_matches_run_semantics(self, capsys):
        rc = cli.main(["recycle-demo", "--sessions", "1", "--seed", "4"])
        assert rc == cli.EXIT_OK

    def test_pad_exhaustion_reported(self, capsys):
        rc = cli.main(
            ["recycle-demo", "--sessions", "5", "--message-bits", "64", "--samples", "16",
             "--pad-bits", "200", "--seed", "11"]
        )
        assert rc == cli.EXIT_ERROR
        assert "pad exhausted" in capsys.readouterr().err


class TestSeedRoles:
    def test_recycle_demo_streams_are_distinct(self, monkeypatch, capsys):
        # the pad, every message and every session get a stream of their own
        seeds = []

        def recording(seed):
            seeds.append(seed)
            return make_rng(seed)

        monkeypatch.setattr(cli, "make_rng", recording)
        monkeypatch.setattr(protocol, "make_rng", recording)
        rc = cli.main(["recycle-demo", "--sessions", "5", "--seed", "1"])
        assert rc == cli.EXIT_OK
        assert len(seeds) == 1 + 5 + 5
        assert len(set(seeds)) == len(seeds)


    def test_sweep_streams_are_distinct(self, monkeypatch):
        # every grid point of every seed gets a stream of its own, apart
        # from the session, pad and message streams of the same seed
        seeds = []

        def recording(seed):
            seeds.append(seed)
            return make_rng(seed)

        monkeypatch.setattr(analysis, "make_rng", recording)
        for seed in (0, 1):
            analysis.sweep_theta([0.0, np.pi / 4], n_photons=100, seed=seed)
        assert len(seeds) == 4
        assert len(set(seeds)) == len(seeds)
        others = {role_seed(s, role) for s in (0, 1)
                  for role in (ROLE_SESSION, ROLE_PAD, ROLE_MESSAGE)}
        assert others.isdisjoint(seeds)


class TestBoundaryErrors:
    @pytest.mark.parametrize(
        "argv,env",
        [
            (["bounds", "--d-grid", "nan"], {}),
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
        ],
        ids=["nan-grid-point", "non-integer-env-seed", "attack-session-past-the-end",
             "unknown-flag", "non-integer-flag", "zero-sessions", "negative-sessions",
             "zero-bound-points", "zero-photons", "one-photon"],
    )
    def test_one_line_error_exit_1(self, argv, env, monkeypatch, capsys):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        rc = cli.main(argv)
        out, err = capsys.readouterr()
        assert rc == cli.EXIT_ERROR
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
