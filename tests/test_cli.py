"""Tests for the command line front end."""
import argparse
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import numpy as np
import pytest

from cspursuit.analysis import RipQuery, block_rip_exact, channel_recovery_bound
from cspursuit.cli import build_parser, main
from cspursuit.core import ChunkSupport, read_matrix, write_matrix
from cspursuit.pursuit import (PursuitConfig, cmsp_recover, mmv_sp_recover,
                               msp_recover)
from cspursuit.sparsity import PriorSupportInfo

SMALL_SWEEP_CFG = ("M = 16\nN_ue = 2\ns_bar = 3\ns_c = 1\n"
                   "pilot_length = 12\nsnr_db = 25\n"
                   "algorithms = msp, mmv_sp, genie\nn_trials = 3\n")


def out_lines(capsys):
    return dict(line.split("=", 1) for line in
                capsys.readouterr().out.strip().splitlines() if "=" in line)


class TestRip:
    def test_exact(self, tmp_path, capsys):
        path = tmp_path / "phi.mat"
        write_matrix(path, np.eye(4, dtype=complex))
        assert main(["rip", "--matrix", str(path), "--k", "2"]) == 0
        got = out_lines(capsys)
        assert got["method"] == "exact"
        assert float(got["delta"]) <= 1e-12

    def test_montecarlo(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        Phi = (rng.standard_normal((5, 8))
               + 1j * rng.standard_normal((5, 8))) / np.sqrt(10)
        path = tmp_path / "phi.mat"
        write_matrix(path, Phi)
        rc = main(["rip", "--matrix", str(path), "--k", "2",
                   "--montecarlo", "12", "--seed", "3"])
        assert rc == 0
        got = out_lines(capsys)
        assert got["method"] == "montecarlo:12"
        # printed with 12 significant digits, so allow rounding slack
        assert float(got["delta"]) <= block_rip_exact(Phi, RipQuery(2, 1)) + 1e-9

    def test_bad_matrix_file(self, tmp_path, capsys):
        path = tmp_path / "junk.mat"
        path.write_bytes(b"not a matrix")
        assert main(["rip", "--matrix", str(path), "--k", "2"]) == 2
        assert "error:" in capsys.readouterr().err


class TestBounds:
    def test_zero_delta_constants(self, capsys):
        rc = main(["bounds", "--s-bar", "2", "--s-c", "1", "--t0-size", "2",
                   "--delta-sbar", "0", "--delta-s1", "0", "--delta-s2", "0",
                   "--gamma", "0.5", "--eta", "0.05", "--rho", "2"])
        assert rc == 0
        got = out_lines(capsys)
        assert float(got["c1"]) == 0.0
        assert float(got["c2"]) == 5.0
        assert float(got["c4"]) == 6.0
        assert got["s1"] == "4" and got["s2"] == "5"
        assert got["valid"] == "1"
        assert float(got["distortion_bound"]) == pytest.approx(0.55)
        assert float(got["convergence_iterations"]) == 0.0
        assert got["convergence_iterations_ceil"] == "0"

    def test_conservative_overlap(self, capsys):
        args = ["bounds", "--conservative", "--s-bar", "2", "--s-c", "1",
                "--t0-size", "2", "--delta-sbar", "0", "--delta-2sbar", "0",
                "--delta-2sbar-sc", "0", "--delta-3sbar-sc", "0"]
        assert main(args) == 0
        got = out_lines(capsys)
        assert float(got["c5"]) == 0.0 and float(got["c7"]) == 6.0
        assert got["s3"] == "7"
        assert main(args + ["--overlap", "2"]) == 0
        assert out_lines(capsys)["s3"] == "6"

    def test_channel_bound(self, capsys):
        p_db = 10.0 * np.log10(4.0)
        rc = main(["bounds", "--s-bar", "2", "--s-c", "1", "--t0-size", "2",
                   "--delta-sbar", "0", "--delta-s1", "0", "--delta-s2", "0",
                   "--gamma", "0", "--eta", "0", "--chan-m", "104",
                   "--chan-n-ue", "4", "--chan-t", "26",
                   "--chan-p-db", str(p_db)])
        assert rc == 0
        want = channel_recovery_bound(0.0, 6.0, 0.0, 104, 4, 26, 4.0)
        assert float(out_lines(capsys)["channel_bound"]) == pytest.approx(want)

    def test_channel_power_overflow(self, capsys):
        rc = main(["bounds", "--s-bar", "2", "--s-c", "1", "--t0-size", "2",
                   "--delta-sbar", "0", "--delta-s1", "0", "--delta-s2", "0",
                   "--gamma", "0", "--chan-m", "104", "--chan-n-ue", "4",
                   "--chan-t", "26", "--chan-p-db", "4000"])
        assert rc == 2
        assert "error: --chan-p-db" in capsys.readouterr().err
        # a power that underflows to zero is refused the same way
        rc = main(["bounds", "--s-bar", "2", "--s-c", "1", "--t0-size", "2",
                   "--delta-sbar", "0", "--delta-s1", "0", "--delta-s2", "0",
                   "--gamma", "0", "--chan-m", "104", "--chan-n-ue", "4",
                   "--chan-t", "26", "--chan-p-db", "-4000"])
        assert rc == 2
        assert "error: --chan-p-db" in capsys.readouterr().err

    def test_channel_bound_needs_every_flag(self, capsys):
        rc = main(["bounds", "--s-bar", "2", "--s-c", "1", "--t0-size", "2",
                   "--delta-sbar", "0", "--delta-s1", "0", "--delta-s2", "0",
                   "--chan-m", "16", "--chan-t", "8"])
        assert rc == 2
        assert ("channel bound needs --chan-n-ue --chan-p-db"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("extra,flag", [
        (["--conservative", "--delta-2sbar", "0", "--delta-2sbar-sc", "0",
          "--delta-3sbar-sc", "0", "--chan-m", "16"], "--chan-m"),
        (["--conservative", "--delta-2sbar", "0", "--delta-2sbar-sc", "0",
          "--delta-3sbar-sc", "0", "--chan-p-db", "10"], "--chan-p-db"),
        (["--delta-s1", "0", "--delta-s2", "0", "--overlap", "1"], "--overlap"),
        # a channel flag without --chan-m names what the bound still needs
        (["--delta-s1", "0", "--delta-s2", "0", "--chan-t", "8",
          "--chan-n-ue", "2"], "channel bound needs --chan-m --chan-p-db"),
    ])
    def test_refuses_flags_it_would_drop(self, extra, flag, capsys):
        rc = main(["bounds", "--s-bar", "2", "--s-c", "1", "--t0-size", "2",
                   "--delta-sbar", "0"] + extra)
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and flag in err

    @pytest.mark.parametrize("extra,message", [
        (["--gamma", "0.5"], "distortion bound needs --eta"),
        (["--eta", "0.05"], "distortion bound needs --gamma"),
        (["--gamma", "0.5", "--rho", "2"], "convergence bound needs --eta"),
        (["--eta", "0.05", "--rho", "2"], "convergence bound needs --gamma"),
        (["--rho", "2"], "convergence bound needs --gamma --eta"),
        (["--chan-m", "16", "--chan-n-ue", "2", "--chan-t", "8",
          "--chan-p-db", "10"], "channel bound needs --gamma"),
        (["--eta", "0", "--chan-m", "16", "--chan-n-ue", "2", "--chan-t",
          "8", "--chan-p-db", "10"], "distortion bound needs --gamma"),
    ])
    def test_refuses_bound_flags_without_their_partners(self, extra, message,
                                                        capsys):
        rc = main(["bounds", "--s-bar", "2", "--s-c", "1", "--t0-size", "2",
                   "--delta-sbar", "0", "--delta-s1", "0", "--delta-s2", "0"]
                  + extra)
        assert rc == 2
        captured = capsys.readouterr()
        assert f"error: {message}\n" == captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("extra,message", [
        (["--gamma", "1", "--eta", "1e308"],
         "distortion bound overflows a float at gamma = 1.0, eta = 1e+308"),
        (["--gamma", "1", "--chan-m", "16", "--chan-n-ue", "2", "--chan-t",
          "12", "--chan-p-db", "-3200"],
         "channel bound overflows a float at gamma = 1.0, P = 1e-320"),
    ])
    def test_refuses_an_overflowing_bound(self, extra, message, capsys):
        rc = main(["bounds", "--s-bar", "2", "--s-c", "1", "--t0-size", "2",
                   "--delta-sbar", "0", "--delta-s1", "0.05",
                   "--delta-s2", "0.1"] + extra)
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_channel_bound_reads_gamma_without_eta(self, capsys):
        # the channel bound is the one reader of --gamma, so it is not dropped
        rc = main(["bounds", "--s-bar", "2", "--s-c", "1", "--t0-size", "2",
                   "--delta-sbar", "0", "--delta-s1", "0", "--delta-s2", "0",
                   "--gamma", "0.5", "--chan-m", "104", "--chan-n-ue", "4",
                   "--chan-t", "26", "--chan-p-db", "0"])
        assert rc == 0
        got = out_lines(capsys)
        assert "distortion_bound" not in got
        want = channel_recovery_bound(0.0, 6.0, 0.5, 104, 4, 26, 1.0)
        assert float(got["channel_bound"]) == pytest.approx(want)

    def test_deltas_from_matrix(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        Phi = (rng.standard_normal((6, 8))
               + 1j * rng.standard_normal((6, 8))) / np.sqrt(12)
        path = tmp_path / "phi.mat"
        write_matrix(path, Phi)
        rc = main(["bounds", "--s-bar", "1", "--s-c", "1", "--t0-size", "1",
                   "--matrix", str(path)])
        assert rc == 0
        got = out_lines(capsys)
        # s1 = 2 + min(0, 1-2) = 1, s2 = 3 + min(0, 1-3) = 1
        assert got["s1"] == "1" and got["s2"] == "1"
        want = block_rip_exact(Phi, RipQuery(1, 1))
        assert float(got["delta_s1"]) == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("prior", [
        ["--s-bar", "2", "--s-c", "3", "--t0-size", "2"],
        ["--s-bar", "3", "--s-c", "-1", "--t0-size", "2"],
        ["--s-bar", "0", "--s-c", "0", "--t0-size", "0"],
    ], ids=["s_c_above_t0", "negative_s_c", "zero_s_bar"])
    def test_matrix_prior_shape(self, tmp_path, capsys, prior):
        # refused before any delta is enumerated
        path = tmp_path / "phi.mat"
        write_matrix(path, np.eye(8, dtype=complex))
        rc = main(["bounds", "--matrix", str(path)] + prior)
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: need s_bar >= 1 and 0 <= s_c <= |T0|" in err
        assert "k and d" not in err

    @pytest.mark.parametrize("noise,name", [
        (["--gamma", "0.5", "--eta", "-1"], "eta = -1.0"),
        (["--gamma", "-1", "--eta", "0.01"], "gamma = -1.0"),
        (["--gamma", "nan", "--eta", "0.01"], "gamma = nan"),
        (["--gamma", "1", "--eta", "1e300", "--rho", "2"], "rho > "),
        (["--gamma", "1", "--eta", "1e-3", "--rho", "1e400"], "rho = inf"),
    ], ids=["negative_eta", "negative_gamma", "nan_gamma", "gate_overflow",
            "infinite_rho"])
    def test_refuses_noise_inputs(self, capsys, noise, name):
        rc = main(["bounds", "--s-bar", "2", "--s-c", "1", "--t0-size", "2",
                   "--delta-sbar", "0", "--delta-s1", "0.05",
                   "--delta-s2", "0.1"] + noise)
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {name}")
        assert captured.out == ""

    def test_missing_deltas(self, capsys):
        rc = main(["bounds", "--s-bar", "2", "--s-c", "1", "--t0-size", "2",
                   "--delta-sbar", "0.1"])
        assert rc == 2
        assert "delta-s1" in capsys.readouterr().err


class TestRecover:
    @pytest.fixture()
    def locked_paths(self, tmp_path):
        # identity sensing, x = 3 e1 + 2 e5 + 1 e9, stale prior {1, 2}
        Phi = np.eye(12, dtype=complex)
        x = np.zeros((12, 1), dtype=complex)
        x[0, 0], x[4, 0], x[8, 0] = 3.0, 2.0, 1.0
        y_path = tmp_path / "y.mat"
        phi_path = tmp_path / "phi.mat"
        write_matrix(y_path, Phi @ x)
        write_matrix(phi_path, Phi)
        return str(y_path), str(phi_path)

    def test_msp_locks(self, locked_paths, capsys):
        y, phi = locked_paths
        rc = main(["recover", "--y", y, "--phi", phi, "--algorithm", "msp",
                   "--s-bar", "3", "--gamma", "0", "--s-c", "2",
                   "--t0", "1,2"])
        assert rc == 0
        got = out_lines(capsys)
        assert got["support"] == "1,2,5"
        assert got["stop_reason"] == "ResidueNonDecreasing"
        assert float(got["residue"]) == pytest.approx(1.0)

    def test_cmsp_recovers_and_writes(self, locked_paths, tmp_path, capsys):
        y, phi = locked_paths
        out = tmp_path / "xhat.mat"
        rc = main(["recover", "--y", y, "--phi", phi, "--algorithm", "cmsp",
                   "--s-bar", "3", "--gamma", "0", "--s-c", "2",
                   "--t0", "1,2", "--out", str(out)])
        assert rc == 0
        got = out_lines(capsys)
        assert got["support"] == "1,5,9"
        assert got["stop_reason"] == "ThresholdMet"
        assert float(got["residue"]) <= 1e-12
        X_hat = read_matrix(out)
        assert X_hat[0, 0] == pytest.approx(3.0)
        assert X_hat[8, 0] == pytest.approx(1.0)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("algorithm", ["msp", "cmsp", "mmv_sp"])
    def test_matches_the_direct_call(self, algorithm, d, tmp_path, capsys):
        # a seeded random Phi: the printed support and the written estimate
        # are the library call's, bit for bit
        rng = np.random.default_rng(11)
        K, rows, cols = 12, 9, 2
        Phi = (rng.standard_normal((rows, K * d))
               + 1j * rng.standard_normal((rows, K * d))) / np.sqrt(2 * rows)
        X = np.zeros((K * d, cols), dtype=complex)
        X[:3 * d] = rng.standard_normal((3 * d, cols))
        Y = Phi @ X + 0.05 * rng.standard_normal((rows, cols))
        paths = {name: str(tmp_path / f"{name}.mat") for name in ("y", "phi", "out")}
        write_matrix(paths["y"], Y)
        write_matrix(paths["phi"], Phi)
        argv = ["recover", "--y", paths["y"], "--phi", paths["phi"],
                "--algorithm", algorithm, "--s-bar", "3", "--gamma", "0.1",
                "--d", str(d), "--out", paths["out"]]
        if algorithm == "mmv_sp":
            want = mmv_sp_recover(Y, Phi, 3, 0.1, d=d)
        else:
            argv += ["--t0", "2,5,9", "--s-c", "2"]
            prior = PriorSupportInfo(ChunkSupport.of([2, 5, 9], K), 2)
            solver = cmsp_recover if algorithm == "cmsp" else msp_recover
            want = solver(Y, Phi, PursuitConfig(s_bar=3, prior=prior, gamma=0.1,
                                                d=d))
        assert main(argv) == 0
        got = out_lines(capsys)
        assert got["support"] == ",".join(map(str, want.T_hat))
        assert got["iterations"] == str(want.iterations)
        assert got["stop_reason"] == want.stop_reason.value
        np.testing.assert_array_equal(read_matrix(paths["out"]), want.X_hat.data)

    def test_mmv_sp_needs_no_prior(self, locked_paths, capsys):
        y, phi = locked_paths
        rc = main(["recover", "--y", y, "--phi", phi, "--algorithm", "mmv_sp",
                   "--s-bar", "3", "--gamma", "0"])
        assert rc == 0
        assert out_lines(capsys)["support"] == "1,5,9"

    @pytest.mark.parametrize("algorithm", ["mmv_sp"])
    def test_prior_free_refuses_prior(self, locked_paths, algorithm, capsys):
        # mmv_sp runs as msp on the empty prior, so a prior would quietly
        # turn it into msp
        y, phi = locked_paths
        rc = main(["recover", "--y", y, "--phi", phi, "--algorithm",
                   algorithm, "--s-bar", "3", "--gamma", "0", "--t0", "1,2",
                   "--s-c", "1"])
        assert rc == 2
        assert f"error: {algorithm} reads no prior" in capsys.readouterr().err

    # sp is the harness's per-antenna pursuit; recover's prior-free choice
    # is mmv_sp
    @pytest.mark.parametrize("algorithm", ["bogus", "sp"])
    def test_unknown_algorithm_exits(self, locked_paths, algorithm):
        y, phi = locked_paths
        with pytest.raises(SystemExit) as exc:
            main(["recover", "--y", y, "--phi", phi, "--algorithm", algorithm,
                  "--s-bar", "3", "--gamma", "0"])
        assert exc.value.code == 2

    def test_invalid_prior_reports_error(self, locked_paths, capsys):
        y, phi = locked_paths
        # believed quality larger than the prior set
        rc = main(["recover", "--y", y, "--phi", phi, "--algorithm", "msp",
                   "--s-bar", "3", "--gamma", "0", "--s-c", "2", "--t0", "1"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,flag", [
        (["recover", "--algorithm", "msp", "--s-bar", "3", "--gamma", "0",
          "--t0", "1,x"], "--t0"),
        (["recover", "--algorithm", "msp", "--s-bar", "3", "--gamma", "0",
          "--t0", "1.5"], "--t0"),
        (["rip", "--k", "2", "--montecarlo", "5", "--seed", "-1"], "--seed"),
        (["recover", "--algorithm", "msp", "--s-bar", "3", "--gamma", "0",
          "--max-iter", "0"], "--max-iter"),
        (["recover", "--algorithm", "msp", "--s-bar", "3", "--gamma", "0",
          "--d", "0"], "--d"),
        (["rip", "--k", "2", "--montecarlo", "0"], "--montecarlo"),
        (["rip", "--k", "2", "--cap", "-1"], "--cap"),
        (["rip", "--k", "2", "--cap", "0"], "--cap"),
        (["sweep", "--trials", "0"], "--trials"),
        (["sweep", "--seed", "-1"], "--seed"),
        (["recover", "--algorithm", "msp", "--s-bar", "0", "--gamma", "0"],
         "--s-bar"),
        (["recover", "--algorithm", "msp", "--s-bar", "3", "--gamma", "0",
          "--s-c", "-1"], "--s-c"),
        (["rip", "--k", "0"], "--k"),
        (["rip", "--k", "2", "--d", "0"], "--d"),
        (["bounds", "--s-bar", "2", "--s-c", "1", "--t0-size", "2",
          "--d", "0"], "--d"),
        (["bounds", "--conservative", "--s-bar", "2", "--s-c", "1",
          "--t0-size", "2", "--overlap", "-1"], "--overlap"),
        (["bounds", "--s-bar", "2", "--s-c", "1", "--t0-size", "2",
          "--gamma", "1", "--chan-m", "0", "--chan-n-ue", "2", "--chan-t",
          "8", "--chan-p-db", "10"], "--chan-m"),
    ], ids=["t0-not-a-number", "t0-fraction", "rip-negative-seed",
            "max-iter-zero", "d-zero", "montecarlo-zero", "cap-negative",
            "cap-zero", "sweep-no-trials", "sweep-negative-seed",
            "s-bar-zero", "s-c-negative", "rip-k-zero", "rip-d-zero",
            "bounds-d-zero", "overlap-negative", "chan-m-zero"])
    def test_bad_flag_value_is_named(self, locked_paths, tmp_path, argv, flag,
                                     capsys):
        y, phi = locked_paths
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_SWEEP_CFG
                       + "sweep_axis = pilot_length\nsweep_values = 12\n")
        files = {"recover": ["--y", y, "--phi", phi],
                 "rip": ["--matrix", phi],
                 "bounds": ["--matrix", phi],
                 "sweep": ["--config", str(cfg),
                           "--out", str(tmp_path / "out.csv")]}[argv[0]]
        assert main(argv[:1] + files + argv[1:]) == 2
        out = capsys.readouterr()
        assert out.err.startswith(f"error: {flag} ")
        assert out.out == ""

    def test_max_iter_defaults_to_the_config_cap(self):
        args = build_parser().parse_args(
            ["recover", "--y", "y.mat", "--phi", "phi.mat", "--algorithm",
             "msp", "--s-bar", "3", "--gamma", "0"])
        assert args.max_iter == PursuitConfig.max_iter


class TestSweepCommand:
    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["sweep", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path / "out.csv")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("lines,key", [
        ("snr_db = 4000\nsweep_axis = pilot_length\nsweep_values = 12\n",
         "snr_db"),
        ("snr_db = 25\nsweep_axis = snr_db\nsweep_values = 5, 4000\n",
         "sweep_values"),
        ("snr_db = -4000\nsweep_axis = pilot_length\nsweep_values = 12\n",
         "snr_db"),
        ("snr_db = 25\nsweep_axis = snr_db\nsweep_values = -4000, 25\n",
         "sweep_values"),
    ], ids=["snr_db", "sweep_values", "snr_db_underflow",
            "sweep_values_underflow"])
    def test_snr_power_overflow(self, tmp_path, capsys, lines, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("M = 16\nN_ue = 2\ns_bar = 3\ns_c = 1\n"
                       "pilot_length = 12\nalgorithms = msp\n" + lines)
        rc = main(["sweep", "--config", str(cfg),
                   "--out", str(tmp_path / "out.csv")])
        assert rc == 2
        assert f"error: {key}" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("snr_db,message", [
        # the CI half-width overflows while the mean is about 1e154
        (-1540, "NMSE of genie at pilot_length = 12, snr_db = -1540.0"),
        # one trial's ratio squares past every float
        (-3077, "NMSE ratio overflows a float"),
        # the ratios themselves are inf
        (-3230, "NMSE of genie at pilot_length = 12, snr_db = -3230.0"),
    ])
    def test_overflowing_nmse(self, tmp_path, capsys, snr_db, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("M = 16\nN_ue = 2\ns_bar = 3\ns_c = 1\n"
                       f"pilot_length = 12\nsnr_db = {snr_db}\n"
                       "algorithms = genie, msp\nn_trials = 3\nbase_seed = 3\n"
                       "sweep_axis = pilot_length\nsweep_values = 12\n")
        out = tmp_path / "out.csv"
        rc = main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_algorithm(self, tmp_path, capsys):
        # a repeat would pool both estimates of every trial into one row
        cfg = tmp_path / "run.cfg"
        cfg.write_text("M = 16\nN_ue = 2\ns_bar = 3\ns_c = 1\n"
                       "pilot_length = 12\nsnr_db = 25\nalgorithms = msp, msp\n"
                       "sweep_axis = pilot_length\nsweep_values = 12\n")
        rc = main(["sweep", "--config", str(cfg),
                   "--out", str(tmp_path / "out.csv")])
        assert rc == 2
        assert "error: algorithms" in capsys.readouterr().err

    @pytest.mark.parametrize("axis_lines", [
        "sweep_axis = pilot_length\nsweep_values = 8, 12\n",
        "sweep_axis = believed_s_c\nsweep_values = 0, 1\n",
    ], ids=["pilot_length", "believed_s_c"])
    def test_mismatch_is_refused(self, tmp_path, axis_lines):
        # the config's axis selects the study; sweep is its one command
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_SWEEP_CFG + axis_lines)
        with pytest.raises(SystemExit) as exc:
            main(["mismatch", "--config", str(cfg),
                  "--out", str(tmp_path / "out.csv")])
        assert exc.value.code == 2
        assert not (tmp_path / "out.csv").exists()


def test_every_int_flag_has_a_floor():
    # bounds' prior-shape flags are checked together by isometry_orders
    shape_checked = {"bounds": {"s_bar", "s_c", "t0_size"}}
    sub, = (a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    for name, p in sub.choices.items():
        ints = {a.dest for a in p._actions if a.type is int}
        floored = set(p.get_default("least") or ())
        assert floored == ints - shape_checked.get(name, set()), name


def test_module_entry_runs_main(tmp_path):
    # python -m cspursuit and the installed script both reach cli.main
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def run(*args):
        return subprocess.run([sys.executable, "-m", "cspursuit", *args], env=env,
                              capture_output=True, text=True, timeout=60)
    assert run("--help").returncode == 0
    missing = run("rip", "--matrix", str(tmp_path / "missing.mat"), "--k", "1")
    assert missing.returncode == 2
    assert "error:" in missing.stderr
    with open(root / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["cspursuit"] == "cspursuit.cli:main"
