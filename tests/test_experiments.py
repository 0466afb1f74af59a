"""Tests for the experiment harness: config parsing, sweeps, CSV output."""
import hashlib
import math
import sys
import warnings

import numpy as np
import pytest

import cspursuit.core as core
import cspursuit.experiments as experiments
import cspursuit.mimo as mimo
from cspursuit.core import ChunkSupport
from cspursuit.errors import ConfigError, GenerationError, MetricError
from cspursuit.experiments import (CSV_COLUMNS, SWEEP_AXES,
                                   ExperimentConfig, load_config, run_sweep,
                                   rows_to_csv_text, write_csv)
from cspursuit.mimo import ALGORITHMS, MimoScenario, run_frame_sequence


def small_config(**overrides):
    fields = dict(M=16, N_ue=2, s_bar=3, s_c=1, pilot_length=12, snr_db=25.0,
                  sweep_axis="pilot_length", sweep_values=(8, 12),
                  algorithms=("msp",), n_trials=3, base_seed=5)
    fields.update(overrides)
    return ExperimentConfig(**fields)


VALID_TEXT = """\
# sweep over the pilot length
M = 16
N_ue = 2
s_bar = 3
s_c = 1          # prior quality
pilot_length = 12
snr_db = 25
sweep_axis = pilot_length

sweep_values = 8, 12, 16
algorithms = genie, msp
n_trials = 4
base_seed = 9
"""


class TestLoadConfig:
    def test_full_roundtrip(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(VALID_TEXT)
        cfg = load_config(path)
        assert cfg.M == 16 and cfg.N_ue == 2 and cfg.s_bar == 3
        assert cfg.sweep_values == (8, 12, 16)
        assert all(isinstance(v, int) for v in cfg.sweep_values)
        assert cfg.algorithms == ("genie", "msp")
        assert cfg.n_trials == 4 and cfg.base_seed == 9
        assert cfg.gamma_value is None

    def test_snr_axis_parses_floats(self, tmp_path):
        text = VALID_TEXT.replace("sweep_axis = pilot_length",
                                  "sweep_axis = snr_db")
        text = text.replace("sweep_values = 8, 12, 16",
                            "sweep_values = 2.5, 10, 25")
        path = tmp_path / "snr.cfg"
        path.write_text(text)
        cfg = load_config(path)
        assert cfg.sweep_values == (2.5, 10.0, 25.0)

    def test_int_axis_rejects_fractions(self, tmp_path):
        text = VALID_TEXT.replace("sweep_values = 8, 12, 16",
                                  "sweep_values = 8.5, 12")
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match="sweep_values"):
            load_config(path)

    def test_empty_sweep_values(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(VALID_TEXT.replace("8, 12, 16", ", ,"))
        with pytest.raises(ConfigError, match="sweep_values must be nonempty"):
            load_config(path)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(VALID_TEXT + "bogus = 3\n")
        with pytest.raises(ConfigError, match="bogus"):
            load_config(path)

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(VALID_TEXT + "M = 8\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(path)

    def test_missing_required(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("M = 16\nN_ue = 2\n")
        with pytest.raises(ConfigError, match="missing required"):
            load_config(path)

    def test_line_without_equals(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(VALID_TEXT + "just words\n")
        with pytest.raises(ConfigError, match="key=value"):
            load_config(path)

    @pytest.mark.parametrize("line,pattern", [
        ("gamma_value = nan", "gamma_value must be finite"),
        ("gamma_rule = explicit", "unknown key 'gamma_rule'"),
    ])
    def test_threshold_line(self, tmp_path, line, pattern):
        path = tmp_path / "bad.cfg"
        path.write_text(VALID_TEXT + line + "\n")
        with pytest.raises(ConfigError, match=pattern):
            load_config(path)

    def test_non_numeric_int(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(VALID_TEXT.replace("M = 16", "M = sixteen"))
        with pytest.raises(ConfigError, match="M"):
            load_config(path)


class TestConfigValidation:
    @pytest.mark.parametrize("overrides,pattern", [
        (dict(M=0), "M"),
        (dict(N_ue=0), "N_ue"),
        (dict(s_bar=0), "s_bar"),
        (dict(s_c=-1), "s_c"),
        (dict(pilot_length=0), "pilot_length"),
        (dict(sweep_axis="bogus"), "sweep_axis"),
        (dict(sweep_values=()), "sweep_values"),
        (dict(algorithms=()), "algorithms"),
        (dict(algorithms=("nope",)), "nope"),
        (dict(n_trials=0), "n_trials"),
        (dict(snr_db=float("nan")), "snr_db"),
        (dict(gamma_value=float("nan")), "gamma_value"),
        (dict(snr_db=4000.0), "snr_db"),
        (dict(gamma_value=-1.0), "gamma_value"),
        (dict(sweep_axis="snr_db", sweep_values=(5.0, float("inf"))),
         "sweep_values"),
        (dict(gamma_value=float("inf")), "gamma_value"),
        (dict(n_trials=2.5), "n_trials"),
        (dict(M=16.5), "M"),
        (dict(base_seed=-1), "base_seed"),
        (dict(sweep_axis="snr_db", sweep_values=(5.0, 4000.0)),
         "sweep_values"),
        (dict(sweep_values=(12.5, 12)), "sweep_values"),
        (dict(sweep_axis="believed_s_c", sweep_values=(1.5,)), "sweep_values"),
        (dict(n_trials=None), "n_trials"),
        (dict(M="16"), "M"),
        (dict(snr_db="25"), "snr_db"),
        (dict(snr_db=None), "snr_db"),
        (dict(gamma_value="1"), "gamma_value"),
        (dict(sweep_values=("8",)), "sweep_values"),
        (dict(sweep_axis="snr_db", sweep_values=("8",)), "sweep_values"),
        (dict(sweep_values=8), "sweep_values"),
        (dict(snr_db=-4000.0), "snr_db"),
        (dict(sweep_axis="snr_db", sweep_values=(-4000.0, 25.0)),
         "sweep_values"),
        (dict(algorithms=("msp", "msp")), "algorithms"),
    ])
    def test_rejects(self, overrides, pattern):
        with pytest.raises(ConfigError, match=pattern):
            small_config(**overrides)

    @pytest.mark.parametrize("field,least", [
        ("M", 1), ("N_ue", 1), ("s_bar", 1), ("pilot_length", 1), ("n_trials", 1),
        ("s_c", 0), ("base_seed", 0)])
    def test_integer_field_is_named(self, field, least):
        # core's integer check, in ConfigError, for a value that is not whole
        # and for one below the field's floor
        for value in (2.5, float("nan"), None):
            with pytest.raises(ConfigError,
                               match=f"^{field} must be a whole number, got "):
                small_config(**{field: value})
        word = "positive" if least else "nonnegative"
        with pytest.raises(ConfigError,
                           match=f"^{field} must be {word}, got {least - 1}$"):
            small_config(**{field: least - 1})

    def test_whole_floats_stored_as_ints(self):
        cfg = small_config(M=16.0, sweep_values=(8.0, 12.0))
        assert isinstance(cfg.M, int)
        rows = run_sweep(cfg)
        assert [r.sweep_value for r in rows] == [8, 12]
        assert all(isinstance(r.sweep_value, int) for r in rows)
        assert [line.split(",")[1] for line in
                rows_to_csv_text(rows).splitlines()[1:]] == ["8", "12"]

    def test_bad_sweep_point_names_its_field(self):
        with pytest.raises(ConfigError, match="pilot_length"):
            run_sweep(small_config(sweep_values=(8, 0)))

    def test_constant_tuples(self):
        assert SWEEP_AXES == ("pilot_length", "snr_db", "s_c", "believed_s_c")
        assert CSV_COLUMNS == ("sweep_axis", "sweep_value", "algorithm",
                               "nmse", "nmse_median", "nmse_ci95_halfwidth",
                               "mean_iterations", "support_recovery_rate",
                               "n_trials", "base_seed")


class TestRunSweep:
    def test_deterministic(self):
        cfg = small_config()
        a = rows_to_csv_text(run_sweep(cfg))
        b = rows_to_csv_text(run_sweep(cfg))
        assert a == b

    def test_noise_free_genie(self):
        # overdetermined on the support: genie least squares is exact
        cfg = small_config(pilot_length=16, sweep_values=(16,),
                           algorithms=("genie",), n_trials=1)
        rows = run_sweep(cfg, noise=False)
        assert rows[0].nmse <= 1e-12
        assert rows[0].support_recovery_rate == 1.0

    def test_row_order_and_fields(self):
        cfg = small_config(algorithms=("genie", "msp"))
        rows = run_sweep(cfg)
        assert [(r.sweep_value, r.algorithm) for r in rows] == [
            (8, "genie"), (8, "msp"), (12, "genie"), (12, "msp")]
        for r in rows:
            assert r.sweep_axis == "pilot_length"
            assert r.n_trials == 3 and r.base_seed == 5
            assert 0.0 <= r.support_recovery_rate <= 1.0
            assert r.nmse_ci95_halfwidth >= 0.0

    def test_s_c_axis_forwards_belief(self):
        # at s_c = 0 the prior carries no guarantee, so msp collapses to
        # the plain chunk-wise pursuit
        cfg = small_config(sweep_axis="s_c", sweep_values=(0,),
                           algorithms=("msp", "mmv_sp"), n_trials=5)
        rows = run_sweep(cfg)
        assert rows[0].nmse == rows[1].nmse
        assert rows[0].mean_iterations == rows[1].mean_iterations

    def test_s_bar_below_three(self):
        # supports of s_bar - 2 chunks would be empty at s_bar = 2, and an
        # all-zero channel cannot be scored
        cfg = small_config(s_bar=2, s_c=0, algorithms=("genie",), n_trials=20)
        with pytest.raises(GenerationError, match="s_bar"):
            run_sweep(cfg)

    @pytest.mark.parametrize("snr_db,algorithms,message", [
        # genie's CI sum and mmv_sp's CI squares overflow, not the ratios
        (-1540.0, ("msp", "genie"), "NMSE of genie at pilot_length = 12, "
         "snr_db = -1540.0, overflows a float"),
        (-1540.0, ("mmv_sp",), "NMSE of mmv_sp at pilot_length = 12"),
        # a trial's norm overflows inside the ratio
        (-3080.0, ("msp", "genie"), r"NMSE ratio overflows a float \(NMSE of "
         r"msp at pilot_length = 12, snr_db = -3080.0\)"),
        # the estimates themselves are inf
        (-3230.0, ("genie",), "NMSE of genie at pilot_length = 12, "
         "snr_db = -3230.0, overflows a float"),
    ])
    def test_overflowing_nmse_is_named(self, snr_db, algorithms, message):
        # a MetricError naming the algorithm and the point, and no warning
        cfg = small_config(snr_db=snr_db, sweep_values=(12,),
                           algorithms=algorithms, n_trials=2, base_seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MetricError, match=message):
                run_sweep(cfg)

    @pytest.mark.parametrize("snr_db,message", [
        (-1540.0, "NMSE of genie at snr_db = -1540.0, overflows a float"),
        (-3080.0, r"NMSE ratio overflows a float \(NMSE of msp at "
         r"snr_db = -3080.0\)"),
    ])
    def test_overflowing_nmse_names_the_snr_once(self, snr_db, message):
        # on the snr_db axis the sweep point is the SNR: named once
        cfg = small_config(sweep_axis="snr_db", sweep_values=(snr_db,),
                           algorithms=("msp", "genie"), n_trials=2, base_seed=0)
        with pytest.raises(MetricError, match=f"^{message}$"):
            run_sweep(cfg)


class TestRunMismatch:
    def test_overlap_cap(self):
        # s_c = 2 > s_bar - 2: refused as on every other axis
        cfg = small_config(sweep_axis="believed_s_c", sweep_values=(1,), s_c=2)
        with pytest.raises(GenerationError, match="s_bar"):
            run_sweep(cfg)

    def test_negative_believed_value(self):
        with pytest.raises(ConfigError, match="nonnegative"):
            small_config(sweep_axis="believed_s_c", sweep_values=(-1,))

    @pytest.mark.parametrize("s_c", [0, 1])
    def test_s_c_is_the_pinned_overlap(self, monkeypatch, s_c):
        # s_c is the truth and the sweep values the belief: the two true
        # supports of every trial share exactly s_c chunks
        pairs = []
        original = mimo._support_masks

        def recording(*args, **kwargs):
            pairs.append(original(*args, **kwargs))
            return pairs[-1]
        monkeypatch.setattr(mimo, "_support_masks", recording)
        cfg = small_config(sweep_axis="believed_s_c", sweep_values=(0, 1),
                           s_c=s_c, n_trials=20)
        run_sweep(cfg)
        assert ([int((a & b).sum()) for a, b in pairs]
                == [s_c] * cfg.n_trials)

    def test_s_c_sets_the_data(self):
        texts = [rows_to_csv_text(run_sweep(small_config(
                     sweep_axis="believed_s_c", sweep_values=(0, 1), s_c=s_c)))
                 for s_c in (0, 1)]
        assert texts[0] != texts[1]

    def test_genie_ignores_belief(self):
        cfg = small_config(sweep_axis="believed_s_c", sweep_values=(0, 1),
                           algorithms=("genie",), n_trials=4)
        rows = run_sweep(cfg)
        assert rows[0].nmse == rows[1].nmse
        assert rows[0].nmse_median == rows[1].nmse_median
        assert rows[0].mean_iterations == rows[1].mean_iterations

    def test_matches_sweep_when_belief_is_true(self):
        # pinned-overlap and drawn-overlap protocols share the median up to
        # Monte-Carlo noise when the believed value equals the true overlap
        common = dict(M=32, N_ue=2, s_bar=4, pilot_length=16, snr_db=25.0,
                      algorithms=("msp",), n_trials=80, base_seed=7)
        swept = run_sweep(ExperimentConfig(
            s_c=2, sweep_axis="s_c", sweep_values=(2,), **common))
        pinned = run_sweep(ExperimentConfig(
            s_c=2, sweep_axis="believed_s_c", sweep_values=(2,), **common))
        ratio = pinned[0].nmse_median / swept[0].nmse_median
        assert 0.5 <= ratio <= 2.0

    def test_overconfidence_shape(self):
        # overlap pinned at 3: the conservative variant stays flat across
        # believed values while the locking variant degrades past the truth
        cfg = ExperimentConfig(
            M=64, N_ue=2, s_bar=8, s_c=3, pilot_length=24, snr_db=25.0,
            sweep_axis="believed_s_c", sweep_values=(2, 3, 4, 5, 6),
            algorithms=("msp", "cmsp"), n_trials=200, base_seed=0)
        rows = run_sweep(cfg)
        msp = [r.nmse_median for r in rows if r.algorithm == "msp"]
        cmsp = [r.nmse_median for r in rows if r.algorithm == "cmsp"]
        assert msp[1] <= msp[2] <= msp[3] <= msp[4]
        assert max(cmsp) / min(cmsp) < 3.0


class TestTrialSharing:
    """Each trial's data are generated once and shared by every algorithm
    (and, in a mismatch sweep, by every believed value), and its first
    frame is estimated once; the rows equal those of one
    run_frame_sequence per (value, algorithm, trial)."""

    @staticmethod
    def _count_calls(monkeypatch, name):
        calls = []
        original = getattr(mimo, name)

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)
        monkeypatch.setattr(mimo, name, counting)
        return calls

    @staticmethod
    def _count_problems(monkeypatch, pursuit):
        """The problems of one pursuit that mimo hands to the pursuit loop."""
        problems = []
        original = mimo._run_pursuit

        def counting(algorithm, Y, *args, **kwargs):
            if algorithm == pursuit:
                problems.extend(range(len(Y)))
            return original(algorithm, Y, *args, **kwargs)
        monkeypatch.setattr(mimo, "_run_pursuit", counting)
        return problems

    @staticmethod
    def _count_stacked(monkeypatch, name):
        """The problems or frames of each stack handed to mimo's kernel name."""
        rows = []
        original = getattr(mimo, name)

        def counting(stack, *args, **kwargs):
            rows.extend(range(len(stack)))
            return original(stack, *args, **kwargs)
        monkeypatch.setattr(mimo, name, counting)
        return rows

    @staticmethod
    def _count_checks(monkeypatch):
        """Every core.as_matrix call, through any module's name for it, and
        every ChunkSupport check."""
        calls = []

        def counted(check):
            def counting(*args, **kwargs):
                calls.append(check.__name__)
                return check(*args, **kwargs)
            return counting
        as_matrix = core.as_matrix
        for name, module in list(sys.modules.items()):
            if (name.startswith("cspursuit.")
                    and getattr(module, "as_matrix", None) is as_matrix):
                monkeypatch.setattr(module, "as_matrix", counted(as_matrix))
        monkeypatch.setattr(ChunkSupport, "__post_init__",
                            counted(ChunkSupport.__post_init__))
        return calls

    @staticmethod
    def _expected_row(cfg, value, algorithm, scenario, **kwargs):
        last = [run_frame_sequence(scenario, 2, algorithm,
                                   np.random.default_rng(cfg.base_seed + t),
                                   **kwargs)[-1]
                for t in range(cfg.n_trials)]
        ratios = [r.nmse_ratio for r in last]
        ci = 1.96 * float(np.std(ratios, ddof=1)) / math.sqrt(len(ratios))
        return (value, algorithm, float(np.mean(ratios)),
                float(np.median(ratios)), ci,
                float(np.mean([r.iterations for r in last])),
                float(np.mean([r.support_exact for r in last])))

    @staticmethod
    def _scenario(cfg, T, s_c):
        return MimoScenario(M=cfg.M, N_ue=cfg.N_ue, T=T,
                            P=10.0 ** (cfg.snr_db / 10.0), s_bar=cfg.s_bar,
                            s_c=s_c)

    @staticmethod
    def _fields(rows):
        return [(r.sweep_value, r.algorithm, r.nmse, r.nmse_median,
                 r.nmse_ci95_halfwidth, r.mean_iterations,
                 r.support_recovery_rate) for r in rows]

    def test_sweep_generates_each_trial_once(self, monkeypatch):
        calls = self._count_calls(monkeypatch, "_support_masks")
        cfg = small_config(sweep_values=(8, 12, 8), algorithms=ALGORITHMS)
        run_sweep(cfg)
        assert len(calls) == cfg.n_trials * len(cfg.sweep_values)

    def test_unrunnable_point_refused_before_any_trial(self, monkeypatch):
        calls = self._count_calls(monkeypatch, "_support_masks")
        cfg = small_config(s_bar=8, sweep_axis="s_c", sweep_values=(0, 2, 4, 7))
        with pytest.raises(GenerationError, match="s_bar"):
            run_sweep(cfg)
        assert len(calls) == 0

    def test_mismatch_generates_each_trial_once(self, monkeypatch):
        calls = self._count_calls(monkeypatch, "_support_masks")
        cfg = small_config(sweep_axis="believed_s_c", sweep_values=(0, 1, 1),
                           algorithms=ALGORITHMS)
        run_sweep(cfg)
        assert len(calls) == cfg.n_trials

    def test_sweep_estimates_first_frame_once(self, monkeypatch):
        # frame 1 runs through mmv_sp, so msp only estimates measured frames
        calls = self._count_problems(monkeypatch, "msp")
        cfg = small_config(sweep_values=(8, 12, 8), algorithms=ALGORITHMS)
        run_sweep(cfg)
        assert len(calls) == cfg.n_trials * len(cfg.sweep_values)

    def test_mismatch_estimates_first_frame_once(self, monkeypatch):
        calls = self._count_problems(monkeypatch, "msp")
        cfg = small_config(sweep_axis="believed_s_c", sweep_values=(0, 1, 1),
                           algorithms=ALGORITHMS)
        run_sweep(cfg)
        assert len(calls) == cfg.n_trials * len(cfg.sweep_values)

    def test_mismatch_estimates_prior_free_algorithms_once(self, monkeypatch):
        # genie, sp and mmv_sp read no prior, so the believed value cannot
        # change their estimate; sp runs once per antenna, mmv_sp also for
        # frame 1
        counts = {"genie": self._count_stacked(monkeypatch, "_genie"),
                  "sp": self._count_problems(monkeypatch, "sp"),
                  "mmv_sp": self._count_problems(monkeypatch, "mmv_sp")}
        cfg = small_config(sweep_axis="believed_s_c", sweep_values=(0, 1, 1),
                           algorithms=ALGORITHMS)
        run_sweep(cfg)
        n = cfg.n_trials
        assert {name: len(calls) for name, calls in counts.items()} == {
            "genie": n, "sp": n * cfg.N_ue, "mmv_sp": 2 * n}

    def test_only_measured_frames_are_scored(self, monkeypatch):
        # frame 1 supplies only its support, so it is never mapped back
        calls = self._count_stacked(monkeypatch, "_map_back")
        cfg = small_config(sweep_values=(8, 12, 8), algorithms=ALGORITHMS)
        run_sweep(cfg)
        assert len(calls) == (cfg.n_trials * len(cfg.sweep_values)
                              * len(cfg.algorithms))

    def test_first_frame_skipped_without_prior_readers(self, monkeypatch):
        # genie and sp read no prior, so frame 1 is never estimated
        calls = self._count_problems(monkeypatch, "mmv_sp")
        run_sweep(small_config(algorithms=("genie", "sp")))
        assert len(calls) == 0

    @pytest.mark.parametrize("axis,values", [("pilot_length", (8, 12)),
                                             ("believed_s_c", (0, 1))])
    def test_checks_do_not_grow_with_trials(self, monkeypatch, axis, values):
        # the sweep builds its arrays itself, so only its entry checks run
        calls = self._count_checks(monkeypatch)
        counts = []
        for n_trials in (3, 6):
            calls.clear()
            run_sweep(small_config(sweep_axis=axis, sweep_values=values,
                                   algorithms=ALGORITHMS, n_trials=n_trials))
            counts.append(len(calls))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("axis,values", [("pilot_length", (8, 12)),
                                             ("believed_s_c", (0, 1))])
    def test_trial_blocks_leave_rows_unchanged(self, monkeypatch, axis, values):
        # a point's trials run in blocks; where the blocks end moves no row
        cfg = small_config(sweep_axis=axis, sweep_values=values,
                           algorithms=ALGORITHMS, n_trials=7)
        whole = rows_to_csv_text(run_sweep(cfg))
        monkeypatch.setattr(experiments, "_BLOCK_TRIALS", 3)
        assert rows_to_csv_text(run_sweep(cfg)) == whole

    def test_sweep_rows_match_per_sequence_runs(self):
        cfg = small_config(sweep_values=(8, 12, 8), algorithms=ALGORITHMS)
        expected = [self._expected_row(cfg, value, alg,
                                       self._scenario(cfg, value, cfg.s_c))
                    for value in cfg.sweep_values for alg in cfg.algorithms]
        assert self._fields(run_sweep(cfg)) == expected

    def test_mismatch_rows_match_per_sequence_runs(self):
        cfg = small_config(sweep_axis="believed_s_c", sweep_values=(0, 1, 0),
                           algorithms=ALGORITHMS)
        scenario = self._scenario(cfg, cfg.pilot_length, cfg.s_c)
        expected = [self._expected_row(cfg, value, alg, scenario,
                                       believed_s_c=value, pinned=True)
                    for value in cfg.sweep_values for alg in cfg.algorithms]
        assert self._fields(run_sweep(cfg)) == expected


class TestCsv:
    def test_header_and_shape(self):
        rows = run_sweep(small_config())
        text = rows_to_csv_text(rows)
        lines = text.split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert lines[-1] == ""  # trailing newline
        assert len(lines) == len(rows) + 2
        assert "\r" not in text

    def test_float_precision(self):
        rows = run_sweep(small_config(n_trials=7))
        line = rows_to_csv_text(rows).split("\n")[1]
        cells = line.split(",")
        assert cells[0] == "pilot_length"
        assert cells[3] == format(rows[0].nmse, ".9g")
        assert cells[-2:] == ["7", "5"]

    def test_write_csv(self, tmp_path):
        rows = run_sweep(small_config())
        path = tmp_path / "out.csv"
        write_csv(rows, path)
        assert path.read_text(encoding="utf-8") == rows_to_csv_text(rows)

    # sha256 of the CSV each config writes; believed_s_c runs at s_c = 1
    @pytest.mark.parametrize("axis,values,digest", [
        ("pilot_length", (8, 12), "340e4c4b9ffaa8e74648bec3352ea12d"
                                  "781d3defc9e7cbb1f05865454e14edfc"),
        ("snr_db", (5.0, 25.0), "540b5f05a20d1a7e142c123e3639b6ed"
                                "a0ef8b8fd4fea61b70eb0cf6083bcc6b"),
        ("s_c", (0, 1), "5cdf2cfaaeb8b29eee91ee1a99afd41e"
                        "a51190ee5f8e17c5b6099b69a234d875"),
        ("believed_s_c", (0, 1, 3), "c09cd449f8e0d05be2afb59e785251d7"
                                    "6c12e7360451f59bc067880f325ca756"),
    ], ids=["pilot_length", "snr_db", "s_c", "believed_s_c"])
    def test_seeded_bytes(self, axis, values, digest):
        cfg = small_config(sweep_axis=axis, sweep_values=values,
                           algorithms=ALGORITHMS, n_trials=4, base_seed=3)
        text = rows_to_csv_text(run_sweep(cfg))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, (
            "seeded CSV bytes moved; a numpy or BLAS upgrade can move them, "
            "and an intended change of the random stream must update these "
            "digests and say so in CHANGES.md")
