"""Tests for the angular-domain channel model and the frame simulation loop."""
import hashlib
import re
import sys

import numpy as np
import pytest

import cspursuit.core as core
import cspursuit.mimo as mimo
from cspursuit.core import frobenius
from cspursuit.errors import DimensionError, GenerationError, MetricError
from cspursuit.mimo import (ALGORITHMS, MimoScenario, default_gamma, dft_unitary,
                            generate_channel, generate_pilots, nmse,
                            recover_channel, run_frame_sequence, to_cs_problem)
from cspursuit.pursuit import StopReason, genie_ls
from cspursuit.sparsity import (ChunkSupport, PriorSupportInfo, SupportEvolutionParams,
                                _complex_gaussian, generate_support_sequence)


def make_scenario(M=16, N_ue=2, T=16, P=100.0, s_bar=3, s_c=1):
    return MimoScenario(M=M, N_ue=N_ue, T=T, P=P, s_bar=s_bar, s_c=s_c)


class TestDftUnitary:
    def test_unitarity(self):
        for n in (1, 2, 7, 16):
            U = dft_unitary(n)
            np.testing.assert_allclose(U @ U.conj().T, np.eye(n), atol=1e-12)

    def test_entry_formula(self):
        n = 4
        U = dft_unitary(n)
        assert U[1, 1] == pytest.approx(np.exp(-2j * np.pi / n) / 2.0)
        assert U[0, 3] == pytest.approx(0.5)

    def test_cached_and_read_only(self):
        U = dft_unitary(8)
        assert dft_unitary(8) is U
        with pytest.raises(ValueError):
            U[0, 0] = 1.0


class TestPilots:
    def test_values_and_shape(self):
        rng = np.random.default_rng(0)
        Theta = generate_pilots(8, 12, rng)
        assert Theta.shape == (8, 12)
        np.testing.assert_allclose(np.abs(Theta), 1 / np.sqrt(8), atol=1e-15)
        assert np.all(np.isreal(Theta))

    def test_trace_normalization(self):
        rng = np.random.default_rng(1)
        Theta = generate_pilots(8, 12, rng)
        # column norms are exactly 1, so tr(Theta^H Theta) = T
        assert np.trace(Theta.conj().T @ Theta).real == pytest.approx(12.0)


class TestChannelModel:
    def test_angular_synthesis(self):
        scen = make_scenario()
        rng = np.random.default_rng(2)
        U = dft_unitary(scen.N_ue)
        V = dft_unitary(scen.M)
        T_true = ChunkSupport.of([2, 5, 9], scen.M)
        frame = generate_channel(scen, T_true, rng)
        np.testing.assert_allclose(frame.H, U @ frame.H_a @ V.conj().T, atol=1e-12)
        assert frame.T_true == T_true
        # angular rows outside the support are zero
        hot = set(np.nonzero(np.abs(frame.H_a).sum(axis=0) > 0)[0] + 1)
        assert hot == T_true.as_set()

    def test_measurement_identity(self):
        # the pilot-domain rewrite reproduces the raw measurements exactly
        scen = make_scenario()
        rng = np.random.default_rng(3)
        T_true = ChunkSupport.of([1, 4, 11], scen.M)
        frame = generate_channel(scen, T_true, rng)
        Theta = generate_pilots(scen.M, scen.T, rng)
        Z = np.sqrt(scen.P) * frame.H @ Theta
        Y, Phi, scale = to_cs_problem(Z, Theta, scen.P)
        X = scale * frame.H_a.conj().T
        np.testing.assert_allclose(Y, Phi @ X, atol=1e-10)
        assert scale == pytest.approx(np.sqrt(scen.P * scen.T / scen.M))

    def test_sensing_matrix_energy(self):
        scen = make_scenario()
        rng = np.random.default_rng(4)
        Theta = generate_pilots(scen.M, scen.T, rng)
        Z = np.zeros((scen.N_ue, scen.T), dtype=complex)
        _, Phi, _ = to_cs_problem(Z, Theta, scen.P)
        assert np.trace(Phi @ Phi.conj().T).real == pytest.approx(scen.M)

    def test_recover_channel_roundtrip(self):
        scen = make_scenario()
        rng = np.random.default_rng(5)
        frame = generate_channel(scen, ChunkSupport.of([3, 7], scen.M), rng)
        scale = np.sqrt(scen.P * scen.T / scen.M)
        X = scale * frame.H_a.conj().T
        H_back = recover_channel(X, scen.P, scen.T)
        rel = frobenius(frame.H - H_back) / frobenius(frame.H)
        assert rel <= 1e-12

    @pytest.mark.parametrize("fn, args", [
        (to_cs_problem, (np.ones((0, 4)), np.ones((8, 4)), 1.0)),
        (to_cs_problem, (np.ones((2, 0)), np.ones((8, 0)), 1.0)),
        (to_cs_problem, (np.ones((2, 4)), np.ones((0, 4)), 1.0)),
        (to_cs_problem, (np.ones((2, 4)), np.ones((8, 5)), 1.0)),
        (recover_channel, (np.ones((0, 2)), 1.0, 4)),
        (recover_channel, (np.ones((8, 0)), 1.0, 4)),
    ], ids=["no_antennas", "no_pilots", "no_base_antennas", "T_mismatch",
            "X_no_rows", "X_no_columns"])
    def test_degenerate_shapes_raise(self, fn, args):
        # sizes come from the arrays; an empty one must not reach sqrt(M/T)
        # or dft_unitary(0)
        with pytest.raises(DimensionError):
            fn(*args)

    @pytest.mark.parametrize("fn, args", [
        (to_cs_problem, (np.ones((2, 4)), np.ones((8, 4)), float("nan"))),
        (recover_channel, (np.ones((4, 2)), float("nan"), 3)),
    ], ids=["to_cs_problem", "recover_channel"])
    def test_nan_power_rejected(self, fn, args):
        # nan passes a P <= 0 test and would make the scale or H_hat nan
        with pytest.raises(ValueError, match="must be positive"):
            fn(*args)

    @pytest.mark.parametrize("call", [
        lambda P: make_scenario(P=P),
        lambda P: to_cs_problem(np.ones((2, 4)), np.ones((8, 4)), P),
        lambda P: recover_channel(np.ones((4, 2)), P, 3),
    ], ids=["MimoScenario", "to_cs_problem", "recover_channel"])
    def test_infinite_power_rejected(self, call):
        # an infinite P gives a nan NMSE, an infinite scale or a zero H_hat
        with pytest.raises(ValueError, match="^P must be positive and finite, got inf$"):
            call(float("inf"))

    @pytest.mark.parametrize("call", [
        lambda P: make_scenario(P=P),
        lambda P: to_cs_problem(np.ones((2, 4)), np.ones((8, 4)), P),
        lambda P: recover_channel(np.ones((4, 2)), P, 3),
    ], ids=["MimoScenario", "to_cs_problem", "recover_channel"])
    @pytest.mark.parametrize("P", ["a", None, np.array([1.0, 2.0]), np.array([100.0])])
    def test_non_number_power_rejected(self, call, P):
        # a comparison with a str or None raises a TypeError naming no
        # argument, an array's truth value numpy's bare ValueError
        with pytest.raises(ValueError, match="^" + re.escape(
                f"P must be positive and finite, got {P!r}") + "$"):
            call(P)


class TestNmse:
    def test_mean_of_ratios(self):
        H = np.eye(2, dtype=complex)
        pairs = [(H, 0.5 * H), (H, H)]
        # ratios 0.25 and 0
        assert nmse(pairs) == pytest.approx(0.125)

    def test_empty_raises(self):
        with pytest.raises(MetricError):
            nmse([])

    def test_zero_reference_raises(self):
        Z = np.zeros((2, 2), dtype=complex)
        with pytest.raises(MetricError):
            nmse([(Z, Z)])

    def test_shape_mismatch_raises(self):
        # numpy would broadcast the difference or fail with its own message
        with pytest.raises(DimensionError, match=r"H \(2, 2\) and H_hat \(3, 3\)"):
            nmse([(np.ones((2, 2)), np.ones((3, 3)))])
        with pytest.raises(DimensionError, match=r"H \(2, 2\) and H_hat \(1, 2\)"):
            nmse([(np.ones((2, 2)), np.ones((1, 2)))])

    def test_overflowing_ratio_raises(self):
        # a finite ratio of 1e160 whose square is past every float
        H = np.full((2, 2), 1e-60)
        with pytest.raises(MetricError, match="overflows a float"):
            nmse([(H, np.full((2, 2), 1e100))])

    @staticmethod
    def _scored_block():
        scen = make_scenario()
        _, (_, H, Y, Phi, truth) = mimo._generate(
            scen, [np.random.default_rng(s) for s in range(4)], 2)
        est = mimo._estimate(scen, Y, Phi, truth, "msp", np.zeros_like(truth),
                             None, None)
        return scen, H, truth, est

    def test_score_equals_nmse_per_frame(self):
        # each frame's ratio is nmse's one-pair case, bit for bit
        scen, H, truth, est = self._scored_block()
        ratios, _, _ = mimo._score(scen, H, truth, est)
        H_hat = mimo._map_back(est.X, scen.P, scen.T)
        assert ratios.tolist() == [nmse([(H[b], H_hat[b])]) for b in range(len(H))]

    def test_score_refusals(self):
        # one bad frame of a block refuses the block, as nmse refuses a pair
        scen, H, truth, est = self._scored_block()
        zero = H.copy()
        zero[2] = 0
        with pytest.raises(MetricError, match="^reference channel has zero norm$"):
            mimo._score(scen, zero, truth, est)
        tiny = H.copy()
        tiny[1] = 1e-60
        huge = est._replace(X=np.full_like(est.X, 1e100))
        with pytest.raises(MetricError, match="^NMSE ratio overflows a float$"):
            mimo._score(scen, tiny, truth, huge)


class TestDefaultGamma:
    def test_value(self):
        assert default_gamma(2, 24) == pytest.approx(np.sqrt(96.0))


class TestFrameSequence:
    def test_genie_noise_free_is_exact(self):
        scen = make_scenario(T=16)
        recs = run_frame_sequence(scen, 2, "genie", np.random.default_rng(0),
                                  noise=False)
        assert all(r.nmse_ratio <= 1e-12 for r in recs)
        assert all(r.support_exact for r in recs)
        assert all(r.iterations == 0.0 and r.stop_reason is None for r in recs)

    def test_pursuit_noise_free_is_exact(self):
        scen = make_scenario(T=32)
        for t in range(5):
            recs = run_frame_sequence(scen, 2, "msp", np.random.default_rng(t),
                                      gamma=1e-9, noise=False)
            assert recs[1].nmse_ratio <= 1e-9
            assert recs[1].stop_reason is StopReason.THRESHOLD_MET

    def test_common_random_numbers_pair_trials(self):
        scen = make_scenario()
        runs = {}
        for alg in ("genie", "msp", "mmv_sp", "sp", "cmsp"):
            recs = run_frame_sequence(scen, 2, alg, np.random.default_rng(7))
            runs[alg] = recs
        supports = {alg: tuple(r.T_true for r in recs)
                    for alg, recs in runs.items()}
        assert len(set(supports.values())) == 1

    def test_genie_beats_pursuit_in_median(self):
        scen = make_scenario(T=8)
        g, m = [], []
        for t in range(50):
            g.append(run_frame_sequence(scen, 2, "genie",
                                        np.random.default_rng(t))[1].nmse_ratio)
            m.append(run_frame_sequence(scen, 2, "msp",
                                        np.random.default_rng(t))[1].nmse_ratio)
        assert np.median(g) <= np.median(m)

    def test_sp_reports_mean_iterations_and_pooled_support(self):
        scen = make_scenario()
        recs = run_frame_sequence(scen, 1, "sp", np.random.default_rng(8))
        assert len(recs) == 1
        assert recs[0].T_hat.K == scen.M
        # per-antenna supports of size s_bar pooled: size within [s_bar, N*s_bar]
        assert scen.s_bar <= len(recs[0].T_hat) <= scen.N_ue * scen.s_bar

    def test_fixed_overlap_forwarded(self):
        scen = make_scenario(M=32, s_bar=6, s_c=2)
        recs = run_frame_sequence(scen, 3, "genie", np.random.default_rng(9),
                                  pinned=True)
        for a, b in zip(recs, recs[1:]):
            assert len(a.T_true.as_set() & b.T_true.as_set()) == 2

    def test_believed_s_c_zero_matches_no_prior(self):
        scen = make_scenario()
        a = run_frame_sequence(scen, 2, "msp", np.random.default_rng(10),
                               believed_s_c=0)
        b = run_frame_sequence(scen, 2, "mmv_sp", np.random.default_rng(10))
        assert a[1].T_hat == b[1].T_hat
        assert a[1].nmse_ratio == pytest.approx(b[1].nmse_ratio, abs=1e-15)

    def test_unknown_algorithm(self):
        scen = make_scenario()
        with pytest.raises(ValueError):
            run_frame_sequence(scen, 1, "omp", np.random.default_rng(0))

    @pytest.mark.parametrize("gamma", ["abc", [1.0], "1.5"])
    def test_non_number_gamma_rejected(self, gamma):
        # float() would raise its own ValueError or TypeError, naming no
        # argument, or take a numeric string that PursuitConfig refuses
        with pytest.raises(ValueError, match=re.escape(
                f"gamma must be nonnegative, got {gamma!r}")):
            run_frame_sequence(make_scenario(), 2, "msp", np.random.default_rng(0),
                               gamma=gamma)

    @pytest.mark.parametrize("call", [
        lambda rng: run_frame_sequence(make_scenario(), 2, "msp", rng),
        lambda rng: mimo.simulate_frames(make_scenario(), 2, rng),
    ], ids=["run_frame_sequence", "simulate_frames"])
    def test_rng_must_be_a_generator(self, call):
        # a seed in place of the Generator failed on rng.integers
        with pytest.raises(TypeError, match="^rng must be a numpy Generator, got 0$"):
            call(0)

    def test_algorithm_registry(self):
        assert set(ALGORITHMS) == {"msp", "cmsp", "mmv_sp", "sp", "genie"}

    def test_bad_frame_count(self):
        scen = make_scenario()
        with pytest.raises(ValueError):
            run_frame_sequence(scen, 0, "genie", np.random.default_rng(0))

    # sha256 of the records of 4-frame chains at the harness's scenario: every
    # algorithm under the default prior rule, a believed s_c, pinned
    # overlaps and no noise, seeds 0-2
    CHAIN_DIGEST = "a3446d2f873dfa60e329a9aab4ba8e0b82c4c23038072cabb5dc4c028e02093a"

    def test_seeded_chains(self):
        scen = make_scenario(M=64, N_ue=2, T=24, P=10.0 ** 2.5, s_bar=8, s_c=4)
        digest = hashlib.sha256()
        for alg in ALGORITHMS:
            for options in ({}, dict(believed_s_c=4), dict(pinned=True),
                            dict(noise=False)):
                for seed in range(3):
                    for r in run_frame_sequence(scen, 4, alg,
                                                np.random.default_rng(seed),
                                                **options):
                        digest.update(repr((r.nmse_ratio, r.support_exact,
                                            r.iterations, r.stop_reason,
                                            r.rank_deficient_ls, r.T_true.indices,
                                            r.T_hat.indices)).encode())
        assert digest.hexdigest() == self.CHAIN_DIGEST, (
            "seeded frame chains moved; a numpy or BLAS upgrade can move them, "
            "and an intended change of the random stream must update this digest")

    @pytest.mark.parametrize("algorithm", ["msp", "sp", "genie"])
    def test_frames_are_not_checked_again(self, monkeypatch, algorithm):
        # every core.as_matrix call, through any module's name for it: the
        # frames the generator built go to the kernels unchecked
        calls = []
        as_matrix = core.as_matrix

        def counting(*args, **kwargs):
            calls.append(args)
            return as_matrix(*args, **kwargs)
        for name, module in list(sys.modules.items()):
            if (name.startswith("cspursuit.")
                    and getattr(module, "as_matrix", None) is as_matrix):
                monkeypatch.setattr(module, "as_matrix", counting)
        for n_frames in (2, 6):
            run_frame_sequence(make_scenario(), n_frames, algorithm,
                               np.random.default_rng(0))
        assert calls == []


class TestPriorPromise:
    """The prior handed to msp/cmsp from frame 2 on is T0 = the previous
    frame's estimated support; by default its s_c must be a true floor on
    |T0 ∩ T|, while an explicit belief is passed through unchecked."""

    # criterion-09 operating point at its largest swept s_c
    SCENARIO = dict(M=64, N_ue=2, T=24, P=10.0 ** 2.5, s_bar=8, s_c=6)

    @staticmethod
    def _record_priors(monkeypatch):
        # the prior of each msp or cmsp problem mimo hands to the pursuit loop
        priors = []
        original = mimo._run_pursuit

        def recording(algorithm, Y, Phi, prior, s_c, *args, **kwargs):
            if algorithm in ("msp", "cmsp"):
                priors.extend(PriorSupportInfo(ChunkSupport.of(np.flatnonzero(T0) + 1,
                                                               len(T0)), int(floor))
                              for T0, (floor,) in zip(prior, s_c))
            return original(algorithm, Y, Phi, prior, s_c, *args, **kwargs)
        monkeypatch.setattr(mimo, "_run_pursuit", recording)
        return priors

    def test_default_prior_keeps_its_floor(self, monkeypatch):
        priors = self._record_priors(monkeypatch)
        scen = make_scenario(**self.SCENARIO)
        for alg in ("msp", "cmsp"):
            for seed in range(200):
                priors.clear()
                recs = run_frame_sequence(scen, 2, alg,
                                          np.random.default_rng(seed))
                assert len(priors) == 2 and priors[0].s_c == 0
                prior = priors[1]
                kept = len(prior.T0.intersection(recs[1].T_true))
                assert kept >= prior.s_c, (alg, seed, kept, prior.s_c)
                # the floor is the nominal one whenever the prior keeps it
                assert prior.s_c == min(scen.evolution.s_c, kept)

    def test_explicit_belief_is_not_clamped_to_truth(self, monkeypatch):
        priors = self._record_priors(monkeypatch)
        scen = make_scenario(**dict(self.SCENARIO, s_c=3))
        overstated = 0
        for seed in range(20):
            priors.clear()
            recs = run_frame_sequence(scen, 2, "msp",
                                      np.random.default_rng(seed),
                                      believed_s_c=6, pinned=True)
            prior = priors[1]
            assert prior.s_c == min(6, len(prior.T0))
            overstated += prior.s_c > len(prior.T0.intersection(recs[1].T_true))
        assert overstated > 0


def _same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestBlockKernels:
    """The harness's kernels stack the per-frame products over a block of
    trials. numpy runs a stack slice by slice, and these tests fail if BLAS
    ever gives a slice other bits than the one-frame call."""

    SEEDS = range(6)

    @staticmethod
    def _scenario(T, snr_db, M=64):
        return make_scenario(M=M, N_ue=2, T=T, P=10.0 ** (snr_db / 10.0),
                             s_bar=8, s_c=4)

    @staticmethod
    def _per_frame(scen, rng, noise, pinned):
        # the draws of one trial through the public per-frame steps
        frames = []
        for T_true in generate_support_sequence(scen.evolution, 2, rng, pinned):
            channel = generate_channel(scen, T_true, rng)
            Theta = generate_pilots(scen.M, scen.T, rng)
            W = (_complex_gaussian(rng, (scen.N_ue, scen.T)) if noise
                 else np.zeros((scen.N_ue, scen.T), dtype=complex))
            Y, Phi, _ = to_cs_problem(np.sqrt(scen.P) * channel.H @ Theta + W,
                                      Theta, scen.P)
            frames.append((channel, Y, Phi))
        return frames

    def _block(self, scen, noise=True, pinned=False):
        return mimo._generate(scen, [np.random.default_rng(s) for s in self.SEEDS],
                              2, noise, pinned)

    @pytest.mark.parametrize("T", [16, 24, 40])
    @pytest.mark.parametrize("snr_db", [5, 25])
    @pytest.mark.parametrize("noise,pinned", [(True, False), (False, False),
                                              (True, True)])
    def test_generator_matches_per_frame_route(self, T, snr_db, noise, pinned):
        # 1/sqrt(M) is inexact at M = 48, which is no power of two
        for M in (64, 48):
            scen = self._scenario(T, snr_db, M)
            block = self._block(scen, noise, pinned)
            for b, seed in enumerate(self.SEEDS):
                rng = np.random.default_rng(seed)
                single = mimo.simulate_frames(scen, 2, np.random.default_rng(seed),
                                              noise, pinned)
                for (H_a, H, Y, Phi, truth), want, got in zip(
                        block, self._per_frame(scen, rng, noise, pinned), single):
                    channel, Y1, Phi1 = want
                    mask = np.zeros(scen.M, dtype=bool)
                    mask[np.array(channel.T_true.indices) - 1] = True
                    assert np.array_equal(truth[b], mask)
                    for stacked, one in ((H_a[b], channel.H_a), (H[b], channel.H),
                                         (Y[b], Y1), (Phi[b], Phi1)):
                        assert _same_bits(stacked, one)
                    assert got[0].T_true == channel.T_true
                    assert all(_same_bits(a, c) for a, c in (
                        (got[0].H, channel.H), (got[1], Y1), (got[2], Phi1)))

    @pytest.mark.parametrize("M", [3, 48, 64, 200])
    def test_pilot_lookup_matches_pilot_values(self, M):
        # the generator looks each 0/1 draw up among the two pilot values
        draws = np.random.default_rng(M).integers(0, 2, size=(6, M, 24),
                                                  dtype=np.int8)
        assert _same_bits(mimo._pilot_values(np.arange(2), M)[draws],
                          mimo._pilot_values(draws, M))

    @pytest.mark.parametrize("T", [16, 24, 40])
    def test_genie_matches_genie_ls(self, T):
        scen = self._scenario(T, 25)
        for _, _, Y, Phi, truth in self._block(scen):
            X = mimo._genie(Y, Phi, truth)
            for b in range(len(Y)):
                support = ChunkSupport.of(np.flatnonzero(truth[b]) + 1, scen.M)
                assert _same_bits(X[b], genie_ls(Y[b], Phi[b], support).data)

    @pytest.mark.parametrize("algorithm", ["genie", "msp", "sp"])
    @pytest.mark.parametrize("T", [16, 24, 40])
    def test_map_back_matches_recover_channel(self, algorithm, T):
        scen = self._scenario(T, 25)
        _, (_, _, Y, Phi, truth) = self._block(scen)
        est = mimo._estimate(scen, Y, Phi, truth, algorithm,
                             np.zeros_like(truth), None, None)
        H_hat = mimo._map_back(est.X, scen.P, scen.T)
        for b in range(len(Y)):
            assert _same_bits(H_hat[b], recover_channel(est.X[b], scen.P, scen.T))


class TestScenarioValidation:
    @pytest.mark.parametrize("kw", [
        dict(M=0), dict(N_ue=0), dict(T=0), dict(P=0.0), dict(s_bar=0),
        dict(s_bar=17), dict(P=float("nan")),
        dict(s_bar=2, s_c=0),  # s_bar - 2 = 0: a support may hold no path
    ])
    def test_invalid_fields(self, kw):
        base = dict(M=16, N_ue=2, T=16, P=100.0, s_bar=3, s_c=1)
        base.update(kw)
        with pytest.raises((ValueError, GenerationError)):
            MimoScenario(**base)

    def test_evolution_is_derived(self):
        scen = make_scenario(M=16, s_bar=3, s_c=1)
        assert scen.evolution == SupportEvolutionParams(s_bar=3, s_c=1, K=16)


def _estimate_believing(believed_s_c):
    return run_frame_sequence(make_scenario(), 2, "genie", np.random.default_rng(0),
                              believed_s_c=believed_s_c)


@pytest.mark.parametrize("call,error,pattern", [
    (lambda: dft_unitary(0), ValueError, "n must be positive, got 0"),
    (lambda: generate_pilots(0, 4, np.random.default_rng(0)), ValueError,
     "M must be positive, got 0"),
    (lambda: generate_channel(make_scenario(M=16), ChunkSupport.of([1], 17),
                              np.random.default_rng(0)),
     DimensionError, "support universe 17 != M=16"),
    (lambda: _estimate_believing(-1), ValueError,
     "believed s_c must be nonnegative, got -1"),
])
def test_guards(call, error, pattern):
    with pytest.raises(error, match=pattern):
        call()
