"""Tests for the prior-aware pursuit solvers and their support-update steps."""
import hashlib
import itertools
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cspursuit.pursuit as pursuit
from cspursuit import core
from cspursuit.analysis import RipQuery, block_rip_exact
from cspursuit.core import (ChunkIndexing, _chunk_norms, _support, frobenius,
                            ls_solve_with_rank)
from cspursuit.errors import (CsPursuitError, DimensionError, NonFiniteError,
                              PriorInfoError, SelectionError)
from cspursuit.mimo import (MimoScenario, default_gamma, nmse, simulate_frames,
                            to_cs_problem)
from cspursuit.pursuit import (PursuitConfig, StopReason, cmsp_recover, genie_ls,
                               mmv_sp_recover, msp_recover, recover_batch,
                               sp_recover)
from cspursuit.sparsity import (ChunkSparseMatrix, ChunkSupport, PriorSupportInfo,
                                chunk_support)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def locked_instance():
    """Identity dictionary, three spikes, a fully trusted two-chunk prior of
    which one chunk is wrong. The locked variant must keep the wrong chunk;
    the conservative variant must recover the exact support."""
    K = 12
    Phi = np.eye(K, dtype=complex)
    x = np.zeros((K, 1), dtype=complex)
    x[0, 0], x[4, 0], x[8, 0] = 3.0, 2.0, 1.0
    prior = PriorSupportInfo(ChunkSupport.of([1, 2], K), s_c=2)
    return Phi, x, prior


class TestLockedInstance:
    def test_locked_keeps_wrong_prior_chunk(self):
        Phi, x, prior = locked_instance()
        cfg = PursuitConfig(s_bar=3, prior=prior, gamma=0.0, d=1)
        res = msp_recover(Phi @ x, Phi, cfg)
        assert res.T_hat.indices == (1, 2, 5)
        assert res.stop_reason is StopReason.RESIDUE_NON_DECREASING
        assert res.iterations == 2
        assert res.residue_norms == pytest.approx(
            (np.sqrt(14.0), 1.0, 1.0), abs=1e-12)

    def test_conservative_recovers_exactly(self):
        Phi, x, prior = locked_instance()
        cfg = PursuitConfig(s_bar=3, prior=prior, gamma=0.0, d=1)
        res = cmsp_recover(Phi @ x, Phi, cfg)
        assert res.T_hat.indices == (1, 5, 9)
        assert res.stop_reason is StopReason.THRESHOLD_MET
        assert res.iterations == 1
        np.testing.assert_allclose(res.X_hat.data, x, atol=1e-12)


class TestDegeneration:
    @pytest.mark.parametrize("seed", range(10))
    def test_no_prior_equals_plain_sp(self, seed):
        rng = np.random.default_rng(seed)
        K, M, s_bar = 32, 16, 3
        Phi = random_complex(rng, (M, K)) / np.sqrt(2 * M)
        x = np.zeros((K, 1), dtype=complex)
        for t in rng.choice(K, size=s_bar, replace=False):
            x[t, 0] = random_complex(rng, ())
        Y = Phi @ x + 0.01 * random_complex(rng, (M, 1))
        prior = PriorSupportInfo.empty(K)
        cfg = PursuitConfig(s_bar=s_bar, prior=prior, gamma=0.05, d=1)
        a = msp_recover(Y, Phi, cfg)
        b = sp_recover(Y, Phi, s_bar, gamma=0.05)
        assert a.T_hat == b.T_hat
        assert a.iterations == b.iterations
        assert a.stop_reason is b.stop_reason
        assert a.residue_norms == b.residue_norms
        np.testing.assert_array_equal(a.X_hat.data, b.X_hat.data)

    def test_mmv_is_msp_with_empty_prior(self):
        rng = np.random.default_rng(42)
        K, M, L = 16, 10, 3
        Phi = random_complex(rng, (M, K)) / np.sqrt(2 * M)
        X = np.zeros((K, L), dtype=complex)
        X[[2, 7], :] = random_complex(rng, (2, L))
        Y = Phi @ X
        a = mmv_sp_recover(Y, Phi, s_bar=2, gamma=1e-9)
        cfg = PursuitConfig(s_bar=2, prior=PriorSupportInfo.empty(K),
                            gamma=1e-9, d=1)
        b = msp_recover(Y, Phi, cfg)
        assert a.T_hat == b.T_hat
        np.testing.assert_array_equal(a.X_hat.data, b.X_hat.data)


class TestScaleEquivariance:
    def test_scaling_y_scales_solution(self):
        rng = np.random.default_rng(5)
        K, M = 20, 12
        Phi = random_complex(rng, (M, K)) / np.sqrt(2 * M)
        x = np.zeros((K, 1), dtype=complex)
        x[[3, 11], 0] = random_complex(rng, (2,))
        Y = Phi @ x + 0.01 * random_complex(rng, (M, 1))
        prior = PriorSupportInfo(ChunkSupport.of([4, 12], K), s_c=1)
        alpha = 7.5
        res1 = msp_recover(Y, Phi, PursuitConfig(s_bar=2, prior=prior, gamma=0.05))
        res2 = msp_recover(alpha * Y, Phi,
                           PursuitConfig(s_bar=2, prior=prior, gamma=alpha * 0.05))
        assert res1.T_hat == res2.T_hat
        assert res1.iterations == res2.iterations
        np.testing.assert_allclose(res2.X_hat.data, alpha * res1.X_hat.data,
                                   rtol=1e-10)


class TestStopping:
    def test_threshold_met_on_first_iterate(self):
        rng = np.random.default_rng(6)
        Phi = random_complex(rng, (8, 10)) / 4.0
        Y = random_complex(rng, (8, 1))
        cfg = PursuitConfig(s_bar=2, prior=PriorSupportInfo.empty(10),
                            gamma=1e6, d=1)
        res = msp_recover(Y, Phi, cfg)
        assert res.stop_reason is StopReason.THRESHOLD_MET
        assert res.iterations == 1
        assert len(res.residue_norms) == 2

    def test_first_iteration_solves_once(self, monkeypatch):
        # msp's first refine keeps the merged supports, so the loop reuses
        # the merge's solve: one least-squares problem per problem, not two
        problems = []
        original = pursuit._lstsq_stack

        def counting(A, B):
            problems.extend(range(len(A)))
            return original(A, B)
        monkeypatch.setattr(pursuit, "_lstsq_stack", counting)
        rng = np.random.default_rng(12)
        Y, Phi = random_complex(rng, (5, 12, 2)), random_complex(rng, (5, 12, 20))
        prior = PriorSupportInfo(ChunkSupport.of([2, 7], 20), s_c=1)
        cfg = PursuitConfig(s_bar=3, prior=prior, gamma=1e6)
        results = recover_batch("msp", Y, Phi, [cfg] * 5)
        assert [(r.iterations, r.stop_reason) for r in results] == (
            [(1, StopReason.THRESHOLD_MET)] * 5)
        assert len(problems) == 5

    def test_max_iterations(self):
        rng = np.random.default_rng(7)
        Phi = random_complex(rng, (8, 16)) / 4.0
        Y = random_complex(rng, (8, 1))
        cfg = PursuitConfig(s_bar=2, prior=PriorSupportInfo.empty(16),
                            gamma=0.0, d=1, max_iter=1)
        res = msp_recover(Y, Phi, cfg)
        assert res.stop_reason in (StopReason.MAX_ITERATIONS,
                                   StopReason.THRESHOLD_MET,
                                   StopReason.RESIDUE_NON_DECREASING)
        assert res.iterations <= 1

    def test_trace_shape_invariant(self):
        rng = np.random.default_rng(8)
        Phi = random_complex(rng, (10, 24)) / np.sqrt(20)
        x = np.zeros((24, 1), dtype=complex)
        x[[0, 5, 9], 0] = random_complex(rng, (3,))
        Y = Phi @ x + 0.05 * random_complex(rng, (10, 1))
        cfg = PursuitConfig(s_bar=3, prior=PriorSupportInfo.empty(24), gamma=0.01)
        res = msp_recover(Y, Phi, cfg)
        assert len(res.residue_norms) == res.iterations + 1
        assert res.residue_norms[0] == pytest.approx(frobenius(Y))

    def test_exact_fit_stops_at_threshold(self):
        # s_bar d = rows: the first refined LS fits Y exactly, so a residue
        # of rounding noise must count as meeting gamma = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            Phi = random_complex(rng, (8, 20))
            Y = random_complex(rng, (8, 2))
            res = mmv_sp_recover(Y, Phi, s_bar=4, gamma=0.0, d=2)
            assert res.stop_reason is StopReason.THRESHOLD_MET, seed
            assert res.iterations == 1, seed

    def test_no_first_decrease_returns_empty_support(self):
        # Y is orthogonal to every column of Phi, so no support lowers the
        # residue and the run stops before any support is accepted
        Phi = np.vstack([np.eye(6), np.zeros((2, 6))]).astype(complex)
        Y = np.zeros((8, 1), dtype=complex)
        Y[7, 0] = 1.0
        prior = PriorSupportInfo(ChunkSupport.of([1, 3], 6), s_c=1)
        cfg = PursuitConfig(s_bar=2, prior=prior, gamma=0.5)
        for res in (msp_recover(Y, Phi, cfg), cmsp_recover(Y, Phi, cfg),
                    mmv_sp_recover(Y, Phi, s_bar=2, gamma=0.5)):
            assert res.T_hat == ChunkSupport.empty(6)
            assert res.iterations == 1
            assert res.stop_reason is StopReason.RESIDUE_NON_DECREASING
            assert res.residue_norms == (1.0, 1.0)
            np.testing.assert_array_equal(res.X_hat.data, np.zeros((6, 1)))

    def test_non_decreasing_returns_previous_iterate(self):
        Phi, x, prior = locked_instance()
        cfg = PursuitConfig(s_bar=3, prior=prior, gamma=0.0, d=1)
        res = msp_recover(Phi @ x, Phi, cfg)
        # support of the returned iterate achieves the iteration-1 residue
        fit = Phi @ res.X_hat.data
        assert frobenius(Phi @ x - fit) == pytest.approx(res.residue_norms[-2])


def merge_step(merge, R, Phi, T_hat, cfg):
    """One problem's merge through the loop's rule kernel: the chunk norms
    of Phi^H R score the chunks, and the supports are (1, K) masks."""
    prior, s_c = pursuit._priors([cfg], T_hat.K)
    held = np.isin(np.arange(1, T_hat.K + 1), T_hat.indices)[None]
    scores = _chunk_norms(Phi.conj().T @ R, cfg.d)[None]
    return _support(merge(scores, held, prior, s_c, cfg.s_bar)[0])


def refine_step(refine, Z, cfg):
    """One problem's refine through the loop's rule kernel, scored by the
    chunk norms of Z, the least squares on the merged support."""
    prior, s_c = pursuit._priors([cfg], Z.idx.K)
    return _support(refine(_chunk_norms(Z.data, cfg.d)[None], prior, s_c,
                           cfg.s_bar)[0])


class TestSupportSteps:
    def test_msp_merge_composition(self):
        # residue correlations are the scores; prior chunk with the larger
        # score is kept, then the best outsiders fill up to s_bar
        K = 6
        Phi = np.eye(K, dtype=complex)
        R = np.array([[0.1], [5.0], [0.2], [4.0], [3.0], [0.3]], dtype=complex)
        prior = PriorSupportInfo(ChunkSupport.of([1, 2], K), s_c=1)
        cfg = PursuitConfig(s_bar=3, prior=prior, gamma=0.0, d=1)
        T_a = merge_step(pursuit._msp_merge, R, Phi, ChunkSupport.empty(K), cfg)
        # T_b = {2}; T_c = top 2 of remaining scores = {4, 5}
        assert T_a.indices == (2, 4, 5)

    def test_msp_refine_part2_may_reenter_prior(self):
        K = 6
        idx = ChunkIndexing(K, 1)
        z = np.array([[5.0], [4.0], [0.1], [0.2], [0.0], [0.0]], dtype=complex)
        prior = PriorSupportInfo(ChunkSupport.of([1, 2], K), s_c=1)
        cfg = PursuitConfig(s_bar=2, prior=prior, gamma=0.0, d=1)
        T = refine_step(pursuit._msp_refine, ChunkSparseMatrix(z, idx), cfg)
        # part1 = {1}; part2 excludes only part1, so chunk 2 re-enters
        assert T.indices == (1, 2)

    def test_cmsp_merge_no_shortfall(self):
        K = 6
        Phi = np.eye(K, dtype=complex)
        R = np.array([[1.0], [2.0], [3.0], [0.1], [0.1], [0.1]], dtype=complex)
        prior = PriorSupportInfo(ChunkSupport.of([1, 2], K), s_c=1)
        cfg = PursuitConfig(s_bar=3, prior=prior, gamma=0.0, d=1)
        # current estimate already holds one prior chunk: no forced injection
        T_hat = ChunkSupport.of([1, 3], K)
        T_a = merge_step(pursuit._cmsp_merge, R, Phi, T_hat, cfg)
        assert T_a.indices == (1, 2, 3)

    def test_cmsp_merge_with_shortfall(self):
        K = 6
        Phi = np.eye(K, dtype=complex)
        R = np.array([[0.5], [0.4], [3.0], [2.0], [1.0], [0.1]], dtype=complex)
        prior = PriorSupportInfo(ChunkSupport.of([1, 2], K), s_c=1)
        cfg = PursuitConfig(s_bar=3, prior=prior, gamma=0.0, d=1)
        T_a = merge_step(pursuit._cmsp_merge, R, Phi, ChunkSupport.empty(K), cfg)
        # shortfall 1 -> T_b = {1} (larger residue score among prior), then
        # T_c = top 3 overall = {3,4,5}
        assert T_a.indices == (1, 3, 4, 5)

    def test_cmsp_refine_ignores_prior(self):
        K = 6
        idx = ChunkIndexing(K, 1)
        z = np.array([[0.1], [0.2], [5.0], [4.0], [3.0], [0.0]], dtype=complex)
        prior = PriorSupportInfo(ChunkSupport.of([1, 2], K), s_c=2)
        cfg = PursuitConfig(s_bar=3, prior=prior, gamma=0.0, d=1)
        T = refine_step(pursuit._cmsp_refine, ChunkSparseMatrix(z, idx), cfg)
        assert T.indices == (3, 4, 5)

    def test_msp_support_always_keeps_quality_quota(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            K, M, s_bar, s_c = 16, 10, 4, 2
            Phi = random_complex(rng, (M, K)) / np.sqrt(2 * M)
            Y = random_complex(rng, (M, 2))
            T0 = ChunkSupport.of(rng.choice(K, size=4, replace=False) + 1, K)
            cfg = PursuitConfig(s_bar=s_bar,
                                prior=PriorSupportInfo(T0, s_c), gamma=0.0)
            res = msp_recover(Y, Phi, cfg)
            assert len(res.T_hat) == s_bar
            assert len(set(res.T_hat) & set(T0)) >= s_c


class TestGenie:
    def test_exact_on_clean_data(self):
        rng = np.random.default_rng(10)
        K, M, d = 8, 12, 2
        idx = ChunkIndexing(K, d)
        Phi = random_complex(rng, (M, K * d)) / np.sqrt(2 * M)
        T = ChunkSupport.of([2, 5], K)
        X = np.zeros((K * d, 3), dtype=complex)
        X[idx.rows_of(T), :] = random_complex(rng, (2 * d, 3))
        res = genie_ls(Phi @ X, Phi, T, d=d)
        np.testing.assert_allclose(res.data, X, atol=1e-10)
        assert chunk_support(res).indices == T.indices

    def test_support_universe_must_match(self):
        # a 12-chunk Phi with supports drawn from a 13-chunk universe
        rng = np.random.default_rng(11)
        Phi = random_complex(rng, (8, 12)) / 4.0
        Y = random_complex(rng, (8, 2))
        for chunks in ([2, 5], [2, 13]):
            with pytest.raises(DimensionError, match="universe"):
                genie_ls(Y, Phi, ChunkSupport.of(chunks, 13))


class TestValidation:
    def test_s_bar_exceeds_K(self):
        with pytest.raises(SelectionError):
            sp_recover(np.zeros((4, 1), dtype=complex),
                       np.eye(4, dtype=complex), s_bar=5, gamma=0.0)

    def test_prior_universe_mismatch(self):
        prior = PriorSupportInfo(ChunkSupport.of([1], 9), s_c=1)
        cfg = PursuitConfig(s_bar=2, prior=prior, gamma=0.0)
        with pytest.raises(DimensionError):
            msp_recover(np.zeros((4, 1), dtype=complex),
                        np.eye(4, dtype=complex), cfg)

    def test_row_mismatch(self):
        cfg = PursuitConfig(s_bar=1, prior=PriorSupportInfo.empty(4), gamma=0.0)
        with pytest.raises(DimensionError):
            msp_recover(np.zeros((3, 1), dtype=complex),
                        np.eye(4, dtype=complex), cfg)

    def test_config_validation(self):
        prior = PriorSupportInfo.empty(4)
        with pytest.raises(ValueError):
            PursuitConfig(s_bar=0, prior=prior, gamma=0.0)
        with pytest.raises(ValueError):
            PursuitConfig(s_bar=1, prior=prior, gamma=-1.0)
        with pytest.raises(ValueError):
            PursuitConfig(s_bar=1, prior=prior, gamma=0.0, d=0)
        with pytest.raises(ValueError):
            PursuitConfig(s_bar=1, prior=prior, gamma=0.0, max_iter=0)

    def test_prior_larger_than_budget(self):
        prior = PriorSupportInfo(ChunkSupport.of([1, 2, 3, 4], 8), s_c=1)
        with pytest.raises(PriorInfoError, match="s_bar"):
            PursuitConfig(s_bar=3, prior=prior, gamma=0.0)

    def test_prior_at_budget(self):
        prior = PriorSupportInfo(ChunkSupport.of([1, 2, 3], 8), s_c=3)
        PursuitConfig(s_bar=3, prior=prior, gamma=0.0)

    def test_nan_gamma_rejected(self):
        # residue <= nan is never true, so nan would disable the stop
        with pytest.raises(ValueError, match="gamma"):
            PursuitConfig(s_bar=1, prior=PriorSupportInfo.empty(4),
                          gamma=float("nan"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["Y", "Phi"])
    def test_non_finite_entries_rejected(self, where, bad):
        # rejected by as_matrix at the boundary, as a NonFiniteError, which
        # is also a ValueError
        problem = {"Y": np.ones((4, 1), dtype=complex),
                   "Phi": np.eye(4, dtype=complex)}
        problem[where][1, 0] = bad
        Y, Phi = problem["Y"], problem["Phi"]
        cfg = PursuitConfig(s_bar=1, prior=PriorSupportInfo.empty(4), gamma=0.0)
        for run in (lambda: msp_recover(Y, Phi, cfg),
                    lambda: cmsp_recover(Y, Phi, cfg),
                    lambda: mmv_sp_recover(Y, Phi, 1, 0.0)):
            with pytest.raises(ValueError, match="non-finite"):
                run()

    def test_single_entries_check_each_input_once(self, monkeypatch):
        # every core.as_matrix call, through any module's name for it
        original, checked = core.as_matrix, []

        def counting(a, name="matrix"):
            checked.append(name)
            return original(a, name)
        for name, module in list(sys.modules.items()):
            if (name.startswith("cspursuit")
                    and getattr(module, "as_matrix", None) is original):
                monkeypatch.setattr(module, "as_matrix", counting)
        rng = np.random.default_rng(4)
        Y, Phi = random_complex(rng, (6, 2)), random_complex(rng, (6, 8))
        cfg = PursuitConfig(s_bar=2, prior=PriorSupportInfo(ChunkSupport.of([3], 8),
                                                            s_c=1), gamma=0.1)
        for run in (lambda: msp_recover(Y, Phi, cfg),
                    lambda: cmsp_recover(Y, Phi, cfg),
                    lambda: mmv_sp_recover(Y, Phi, 2, 0.1),
                    lambda: sp_recover(Y[:, :1], Phi, 2, 0.1)):
            checked.clear()
            run()
            assert checked == ["Y", "Phi", "data"]

    def test_non_finite_is_package_error(self):
        # every public entry validates through as_matrix, so nan reaches
        # callers as the package's own error type
        bad = np.eye(4, dtype=complex)
        bad[1, 0] = np.nan
        ones = np.ones((4, 4), dtype=complex)
        cfg = PursuitConfig(s_bar=1, prior=PriorSupportInfo.empty(4), gamma=0.0)
        for run in (lambda: msp_recover(ones[:, :1], bad, cfg),
                    lambda: to_cs_problem(bad, ones, 1.0),
                    lambda: nmse([(ones, bad)]),
                    lambda: block_rip_exact(bad, RipQuery(1, 1))):
            with pytest.raises(NonFiniteError, match="non-finite") as info:
                run()
            assert isinstance(info.value, CsPursuitError)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), s_c=st.integers(0, 2), l_cols=st.integers(1, 3))
def test_recovery_invariants(seed, s_c, l_cols):
    rng = np.random.default_rng(seed)
    K, M, s_bar = 12, 9, 3
    Phi = random_complex(rng, (M, K)) / np.sqrt(2 * M)
    Y = random_complex(rng, (M, l_cols))
    T0 = ChunkSupport.of(rng.choice(K, size=3, replace=False) + 1, K)
    prior = PriorSupportInfo(T0, s_c)
    for solver in (msp_recover, cmsp_recover):
        res = solver(Y, Phi, PursuitConfig(s_bar=s_bar, prior=prior, gamma=0.0))
        assert len(res.T_hat) == s_bar
        assert len(res.residue_norms) == res.iterations + 1
        assert res.residue_norms[0] == pytest.approx(frobenius(Y))
        # returned residue never exceeds the starting residue
        assert min(res.residue_norms) <= res.residue_norms[0] + 1e-12


def unbatched_steps(Y, Phi, cfg, merge, refine, iterations):
    """The pursuit loop for one problem, one step at a time: the merge rule,
    LS on the merged support, the refine rule, LS on the refined support."""
    idx = ChunkIndexing(Phi.shape[1] // cfg.d, cfg.d)
    T, R, residues = ChunkSupport.empty(idx.K), Y, []
    for _ in range(iterations):
        T_a = merge_step(merge, R, Phi, T, cfg)
        T = refine_step(refine, genie_ls(Y, Phi, T_a, d=cfg.d), cfg)
        sub = Phi[:, idx.rows_of(T)]
        R = Y - sub @ ls_solve_with_rank(sub, Y)[0]
        residues.append(frobenius(R))
    return T, genie_ls(Y, Phi, T, d=cfg.d), tuple(residues)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), d=st.sampled_from([1, 2]),
       l_cols=st.sampled_from([1, 3]), s_c=st.integers(0, 3),
       max_iter=st.sampled_from([1, 2, 100]))
def test_public_steps_agree_with_loop(seed, d, l_cols, s_c, max_iter):
    rng = np.random.default_rng(seed)
    K, M = 10, 8 + 2 * d
    Phi = random_complex(rng, (M, K * d)) / np.sqrt(2 * M)
    Y = random_complex(rng, (M, l_cols))
    T0 = ChunkSupport.of(rng.choice(K, size=3, replace=False) + 1, K)
    cfg = PursuitConfig(s_bar=3, prior=PriorSupportInfo(T0, s_c), gamma=0.0,
                        d=d, max_iter=max_iter)
    for recover, merge, refine in (
            (msp_recover, pursuit._msp_merge, pursuit._msp_refine),
            (cmsp_recover, pursuit._cmsp_merge, pursuit._cmsp_refine)):
        res = recover(Y, Phi, cfg)
        T, X, residues = unbatched_steps(Y, Phi, cfg, merge, refine,
                                         res.iterations)
        assert res.residue_norms[1:] == residues
        if res.stop_reason is StopReason.RESIDUE_NON_DECREASING:
            # a stalled run returns the previous iterate: after 0 steps the
            # empty support and a zero X
            T, X, _ = unbatched_steps(Y, Phi, cfg, merge, refine,
                                      res.iterations - 1)
        assert res.T_hat == T
        np.testing.assert_array_equal(res.X_hat.data, X.data)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), d=st.sampled_from([1, 2]),
       l_cols=st.sampled_from([1, 3]), gamma=st.sampled_from([0.0, 0.1]))
def test_empty_prior_is_mmv_sp(seed, d, l_cols, gamma):
    """Under the empty prior msp and cmsp are the plain pursuit bit for bit,
    so one mmv_sp estimate can stand for all three."""
    rng = np.random.default_rng(seed)
    K, M, s_bar = 10, 8 + 2 * d, 3
    Phi = random_complex(rng, (M, K * d)) / np.sqrt(2 * M)
    X = np.zeros((K * d, l_cols), dtype=complex)
    for k in rng.choice(K, size=s_bar, replace=False):
        X[k * d:(k + 1) * d] = random_complex(rng, (d, l_cols))
    Y = Phi @ X + 0.01 * random_complex(rng, (M, l_cols))
    expected = mmv_sp_recover(Y, Phi, s_bar, gamma, d=d)
    cfg = PursuitConfig(s_bar=s_bar, prior=PriorSupportInfo.empty(K),
                        gamma=gamma, d=d)
    for res in (msp_recover(Y, Phi, cfg), cmsp_recover(Y, Phi, cfg)):
        assert res.T_hat == expected.T_hat
        assert res.iterations == expected.iterations
        assert res.stop_reason is expected.stop_reason
        assert res.residue_norms == expected.residue_norms
        assert res.rank_deficient_ls == expected.rank_deficient_ls
        np.testing.assert_array_equal(res.X_hat.data, expected.X_hat.data)


@settings(max_examples=300, deadline=None)
@given(K=st.integers(1, 9), d=st.sampled_from([1, 2]), data=st.data())
def test_msp_refine_heavy_ties_match_two_pass_rule(K, d, data):
    """The refine, one stable sort over all chunks, picks what the two-pass
    rule picks: the s_c best prior chunks, then the s_bar - s_c best of
    every chunk not already taken. Integer entries make most picks cross a
    tie, which both rules give to the smaller index."""
    s_bar = data.draw(st.integers(1, K))
    T0 = ChunkSupport.of(data.draw(st.lists(st.integers(1, K), unique=True,
                                            max_size=s_bar)), K)
    s_c = data.draw(st.integers(0, len(T0)))
    entries = data.draw(st.lists(st.integers(0, 2), min_size=K * d,
                                 max_size=K * d))
    idx = ChunkIndexing(K, d)
    Z = ChunkSparseMatrix(np.array(entries, dtype=complex)[:, None], idx)
    cfg = PursuitConfig(s_bar=s_bar, prior=PriorSupportInfo(T0, s_c),
                        gamma=0.0, d=d)
    scores = _chunk_norms(Z.data, d)

    def best(pool, k):
        return sorted(pool, key=lambda i: (-scores[i - 1], i))[:k]
    locked = best(T0.indices, s_c)
    want = sorted(locked + best(set(range(1, K + 1)) - set(locked), s_bar - s_c))
    assert refine_step(pursuit._msp_refine, Z, cfg).indices == tuple(want)


def _degenerate_problem(rng, case, d, l_cols):
    """A random problem made degenerate in one way: Y = 0, a zero or a
    duplicated column in Phi, or a budget of every chunk."""
    K, M = 6, 5 + 2 * d
    Phi = random_complex(rng, (M, K * d)) / np.sqrt(2 * M)
    Y = random_complex(rng, (M, l_cols))
    j = int(rng.integers(K * d))
    if case == "zero_y":
        Y[:] = 0
    elif case == "zero_column":
        Phi[:, j] = 0
    elif case == "duplicate_column":
        Phi[:, j] = Phi[:, (j + 1) % (K * d)]
    s_bar = K if case == "s_bar_is_K" else 3
    T0 = ChunkSupport.of(rng.choice(K, size=2, replace=False) + 1, K)
    return Y, Phi, s_bar, PriorSupportInfo(T0, s_c=1)


@pytest.mark.parametrize("case", ["zero_y", "zero_column", "duplicate_column",
                                  "s_bar_is_K"])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), d=st.sampled_from([1, 2]),
       l_cols=st.sampled_from([1, 3]), gamma=st.sampled_from([0.0, 0.1]))
def test_degenerate_inputs(case, seed, d, l_cols, gamma):
    """A well-formed result (s_bar chunks, or none after the empty-support
    stop, a full residue trace and a finite X_hat) or a CsPursuitError."""
    Y, Phi, s_bar, prior = _degenerate_problem(np.random.default_rng(seed),
                                               case, d, l_cols)
    cfg = PursuitConfig(s_bar=s_bar, prior=prior, gamma=gamma, d=d)
    for run in (lambda: msp_recover(Y, Phi, cfg),
                lambda: cmsp_recover(Y, Phi, cfg),
                lambda: mmv_sp_recover(Y, Phi, s_bar, gamma, d=d)):
        try:
            res = run()
        except CsPursuitError:
            continue
        assert len(res.T_hat) in (s_bar, 0)
        assert len(res.residue_norms) == res.iterations + 1
        assert np.all(np.isfinite(res.X_hat.data))


# Invariance relations of the model at the harness's size (M = 64, N_ue = 2,
# s_bar = 8, s_c = 4, 25 dB): the exhaustive oracle cannot reach K = 64, so
# these are the independent check on the loop there.
HARNESS_DATA = dict(seed=st.integers(0, 10**6), T=st.sampled_from([16, 24, 40]))


def harness_problem(seed, T):
    """The measured frame's Y and Phi, msp's and cmsp's prior (mmv_sp's
    frame-1 support, s_c capped at its true overlap) and the threshold."""
    scenario = MimoScenario(M=64, N_ue=2, T=T, P=10 ** 2.5, s_bar=8, s_c=4)
    (_, Y1, Phi1), (channel, Y, Phi) = simulate_frames(
        scenario, 2, np.random.default_rng(seed))
    gamma = default_gamma(2, T)
    T0 = mmv_sp_recover(Y1, Phi1, 8, gamma).T_hat
    s_c = min(scenario.s_c, len(set(T0) & set(channel.T_true)))
    return Y, Phi, PriorSupportInfo(T0, s_c), gamma


def harness_solve(algorithm, Y, Phi, prior, gamma):
    if algorithm == "mmv_sp":
        return mmv_sp_recover(Y, Phi, 8, gamma)
    solver = cmsp_recover if algorithm == "cmsp" else msp_recover
    return solver(Y, Phi, PursuitConfig(s_bar=8, prior=prior, gamma=gamma))


def assert_close(got, want):
    assert frobenius(got - want) <= 1e-10 * frobenius(want)


@pytest.mark.parametrize("algorithm", ["msp", "cmsp", "mmv_sp"])
@settings(max_examples=40, deadline=None)
@given(order=st.permutations(range(64)), **HARNESS_DATA)
def test_chunk_permutation_permutes_estimate(algorithm, seed, T, order):
    Y, Phi, prior, gamma = harness_problem(seed, T)
    # column j of the permuted Phi is column order[j] (0-based), so 1-based
    # chunk i moves to 1-based position moved[i - 1]
    moved = np.argsort(order) + 1

    def move(S):
        return ChunkSupport.of((moved[i - 1] for i in S), 64)

    a = harness_solve(algorithm, Y, Phi, prior, gamma)
    b = harness_solve(algorithm, Y, Phi[:, order],
                      PriorSupportInfo(move(prior.T0), prior.s_c), gamma)
    assert b.T_hat == move(a.T_hat)
    assert b.iterations == a.iterations
    assert_close(b.X_hat.data, a.X_hat.data[order])


@pytest.mark.parametrize("algorithm", ["msp", "cmsp", "mmv_sp"])
@settings(max_examples=40, deadline=None)
@given(q_seed=st.integers(0, 10**6), **HARNESS_DATA)
def test_column_rotation_rotates_estimate(algorithm, seed, T, q_seed):
    Y, Phi, prior, gamma = harness_problem(seed, T)
    Q, _ = np.linalg.qr(random_complex(np.random.default_rng(q_seed), (2, 2)))
    a = harness_solve(algorithm, Y, Phi, prior, gamma)
    b = harness_solve(algorithm, Y @ Q, Phi, prior, gamma)
    assert b.T_hat == a.T_hat
    assert b.iterations == a.iterations
    assert_close(b.X_hat.data, a.X_hat.data @ Q)


@pytest.mark.parametrize("algorithm", ["msp", "cmsp", "mmv_sp"])
@settings(max_examples=40, deadline=None)
@given(size=st.floats(1e-3, 1e3), phase=st.floats(0.0, 2 * np.pi),
       **HARNESS_DATA)
def test_scaling_scales_estimate(algorithm, seed, T, size, phase):
    Y, Phi, prior, gamma = harness_problem(seed, T)
    c = size * np.exp(1j * phase)
    a = harness_solve(algorithm, Y, Phi, prior, gamma)
    b = harness_solve(algorithm, c * Y, Phi, prior, abs(c) * gamma)
    assert b.T_hat == a.T_hat
    assert b.iterations == a.iterations
    assert_close(b.X_hat.data, c * a.X_hat.data)


def scaled_problem(y_scale, phi_scale=1.0):
    """A 12 x 24 real problem (seed 3), its Y and Phi scaled; s_bar = 3, and
    the threshold scales with Y. At unit scale mmv_sp finds (3, 19, 22)."""
    rng = np.random.default_rng(3)
    Phi = rng.standard_normal((12, 24)) * phi_scale
    Y = rng.standard_normal((12, 1)) * y_scale
    cfg = PursuitConfig(s_bar=3, prior=PriorSupportInfo.empty(24), gamma=0.1 * y_scale)
    return Y, Phi, cfg


@pytest.mark.parametrize("y_scale", [1.0, 1e150, 1e-150])
def test_squarable_scale_keeps_the_support(y_scale):
    Y, Phi, cfg = scaled_problem(y_scale)
    assert mmv_sp_recover(Y, Phi, 3, cfg.gamma).T_hat.indices == (3, 19, 22)


# Y and Phi whose squares overflow or vanish once returned the tie-break
# order's chunks, (1, 2, 3) for Y at 1e200, with residues (inf, inf) or
# (0, 0) and THRESHOLD_MET; they are refused by name, with no numpy warning.
# A Y whose squared norm is subnormal lost digits from 1e-155 on and gave
# (1, 2, 3) with finite residues at 1e-162.
@pytest.mark.parametrize("y_scale,phi_scale,pattern", [
    (1e154, 1.0, "^Y's squared Frobenius norm overflows a float$"),
    (1e200, 1.0, "^Y's squared Frobenius norm overflows a float$"),
    (1e300, 1.0, "^Y's squared Frobenius norm overflows a float$"),
    (1.0, 1e155, "^Phi's squared Frobenius norm overflows a float$"),
    (1e-155, 1.0, "^Y's squared Frobenius norm underflows a float$"),
    (1e-162, 1.0, "^Y's squared Frobenius norm underflows a float$"),
    (1e-165, 1.0, "^Y's squared Frobenius norm underflows a float$"),
])
def test_unsquarable_scale_is_refused_by_name(y_scale, phi_scale, pattern):
    Y, Phi, cfg = scaled_problem(y_scale, phi_scale)
    Y1, Phi1, cfg1 = scaled_problem(1.0)
    runs = (lambda: msp_recover(Y, Phi, cfg), lambda: cmsp_recover(Y, Phi, cfg),
            lambda: mmv_sp_recover(Y, Phi, 3, cfg.gamma),
            lambda: sp_recover(Y, Phi, 3, cfg.gamma),
            # one unsquarable problem in a stack is enough
            lambda: recover_batch("msp", [Y1, Y], [Phi1, Phi], [cfg1, cfg]),
            lambda: genie_ls(Y, Phi, ChunkSupport.of([1, 2], 24)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in runs:
            with pytest.raises(NonFiniteError, match=pattern):
                run()


def test_all_zero_slice_beside_a_unit_one_runs():
    # a zero norm is small but holds no entry to lose: the zero problem
    # stacked with a unit one is accepted, and each gets its one-problem
    # answer, the zero one an exact fit on the tie-break order's chunks
    Y, Phi, cfg = scaled_problem(1.0)
    zero, unit = recover_batch("msp", [0 * Y, Y], [Phi, Phi], [cfg, cfg])
    assert (zero.T_hat.indices, zero.stop_reason) == ((1, 2, 3), StopReason.THRESHOLD_MET)
    assert unit.T_hat.indices == (3, 19, 22)


def chunk_pair_problem(seed, T):
    """harness_problem's data read at d = 2: Phi's 64 columns as 32 chunks
    of two, a budget of 4 chunks, and mmv_sp's d = 2 frame-1 support as the
    prior, its s_c capped at its overlap with the chunks of the true
    support."""
    scenario = MimoScenario(M=64, N_ue=2, T=T, P=10 ** 2.5, s_bar=8, s_c=4)
    (_, Y1, Phi1), (channel, Y, Phi) = simulate_frames(
        scenario, 2, np.random.default_rng(seed))
    gamma = default_gamma(2, T)
    T0 = mmv_sp_recover(Y1, Phi1, 4, gamma, d=2).T_hat
    true = ChunkSupport.of([(k + 1) // 2 for k in channel.T_true], 32)
    return Y, Phi, PriorSupportInfo(T0, min(2, len(set(T0) & set(true)))), gamma


def chunk_pair_solve(algorithm, Y, Phi, prior, gamma):
    if algorithm == "mmv_sp":
        return mmv_sp_recover(Y, Phi, 4, gamma, d=2)
    solver = cmsp_recover if algorithm == "cmsp" else msp_recover
    return solver(Y, Phi, PursuitConfig(s_bar=4, prior=prior, gamma=gamma, d=2))


@pytest.mark.parametrize("algorithm", ["msp", "cmsp", "mmv_sp"])
@settings(max_examples=40, deadline=None)
@given(u_seed=st.integers(0, 10**6), **HARNESS_DATA)
def test_chunk_unitary_rotates_estimate(algorithm, seed, T, u_seed):
    # Phi_i -> Phi_i U_i keeps every chunk's span and norms, so the
    # estimate's chunk X_i -> U_i^H X_i
    Y, Phi, prior, gamma = chunk_pair_problem(seed, T)
    rng = np.random.default_rng(u_seed)
    U = [np.linalg.qr(random_complex(rng, (2, 2)))[0] for _ in range(32)]
    rotated = np.hstack([Phi[:, 2 * i:2 * i + 2] @ U[i] for i in range(32)])
    a = chunk_pair_solve(algorithm, Y, Phi, prior, gamma)
    b = chunk_pair_solve(algorithm, Y, rotated, prior, gamma)
    assert b.T_hat == a.T_hat
    assert b.iterations == a.iterations
    assert_close(b.X_hat.data, np.vstack([U[i].conj().T @ a.X_hat.data[2 * i:2 * i + 2]
                                          for i in range(32)]))


def batch_problem(rng, kind, d, l_cols):
    """One problem of a batch (K = 10 chunks of height d, s_bar = 3) that
    stops in a known way: "met" at once under a large gamma, "flat" with no
    first decrease (Y orthogonal to Phi), "plain" on noise with gamma = 0,
    and "duplicate", where two equal chunks carry Y, so the first least
    squares meets an uncertified Gram and takes the lstsq route. Returns Y,
    Phi, T0, s_c and gamma; T0 and s_c are drawn per problem."""
    K, M = 10, 8 + 2 * d
    Phi = random_complex(rng, (M, K * d)) / np.sqrt(2 * M)
    Y = random_complex(rng, (M, l_cols))
    T0 = ChunkSupport.of(rng.choice(K, size=int(rng.integers(0, 4)),
                                    replace=False) + 1, K)
    s_c = int(rng.integers(0, len(T0) + 1))
    gamma = 1e6 if kind == "met" else 0.0
    if kind == "flat":
        Phi[-1] = 0
        Y[:] = 0
        Y[-1] = 1.0
    elif kind == "duplicate":
        # chunk a, ten times longer than the others, and its copy b score
        # far above every other chunk, so the first merge holds both
        a, b = rng.choice(K, size=2, replace=False)
        Phi[:, a * d:(a + 1) * d] *= 10
        Phi[:, b * d:(b + 1) * d] = Phi[:, a * d:(a + 1) * d]
        Y = Phi[:, a * d:(a + 1) * d] @ random_complex(rng, (d, l_cols))
        s_c = 0
    return Y, Phi, T0, s_c, gamma


KINDS = ("met", "flat", "plain", "duplicate")


@pytest.mark.parametrize("algorithm", ["msp", "cmsp", "mmv_sp"])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), d=st.sampled_from([1, 2]),
       l_cols=st.sampled_from([1, 3]), max_iter=st.sampled_from([1, 3, 100]),
       kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=6))
@example(seed=0, d=1, l_cols=1, max_iter=1, kinds=list(KINDS))
@example(seed=1, d=2, l_cols=3, max_iter=1, kinds=list(KINDS) + ["plain", "met"])
@example(seed=2, d=2, l_cols=0, max_iter=3, kinds=["met", "flat", "plain"])
def test_batch_equals_singles(algorithm, seed, d, l_cols, max_iter, kinds):
    rng = np.random.default_rng(seed)
    problems = [batch_problem(rng, kind, d, l_cols) for kind in kinds]
    cfgs = [PursuitConfig(s_bar=3, gamma=gamma, d=d, max_iter=max_iter,
                          prior=(PriorSupportInfo.empty(10) if algorithm == "mmv_sp"
                                 else PriorSupportInfo(T0, s_c)))
            for _, _, T0, s_c, gamma in problems]
    Y = np.stack([p[0] for p in problems])
    Phi = np.stack([p[1] for p in problems])
    batch = recover_batch(algorithm, Y, Phi, cfgs)
    for kind, y, phi, cfg, got in zip(kinds, Y, Phi, cfgs, batch):
        (want,) = recover_batch(algorithm, y[None], phi[None], [cfg])
        assert got.T_hat == want.T_hat
        np.testing.assert_array_equal(got.X_hat.data, want.X_hat.data)
        assert got.residue_norms == want.residue_norms
        assert got.iterations == want.iterations
        assert got.stop_reason is want.stop_reason
        assert got.rank_deficient_ls == want.rank_deficient_ls
        if kind == "duplicate":
            assert want.rank_deficient_ls
    if max_iter == 1 and {"met", "flat", "plain"} <= set(kinds):
        assert {r.stop_reason for r in batch} == set(StopReason)


def test_batch_equals_singles_for_any_layout():
    # the residue norms ravel each slice in memory order, so a stack whose
    # slices are not C-ordered must be laid out as a single problem's is
    K, rows, L, B = 10, 12, 3, 4
    cfg = PursuitConfig(s_bar=3, prior=PriorSupportInfo.empty(K), gamma=0.0)
    for seed in range(30):
        rng = np.random.default_rng(seed)
        Y = random_complex(rng, (B, L, rows)).transpose(0, 2, 1)
        Phi = np.asfortranarray(random_complex(rng, (B, rows, K)) / np.sqrt(rows))
        for y, phi, got in zip(Y, Phi, recover_batch("msp", Y, Phi, [cfg] * B)):
            want = msp_recover(y, phi, cfg)
            assert got.residue_norms == want.residue_norms
            np.testing.assert_array_equal(got.X_hat.data, want.X_hat.data)


# sha256 of recover_batch's results on seeded stacks of every batch_problem
# kind: msp, cmsp and mmv_sp at d 1 and 2 and sp at d = 1, L 0, 1 and 3,
# max_iter 1, 3 and 100, seeds 0-1
SEEDED_BATCH_DIGEST = "185836386a8d7afbad368d682d39da26485287a85476d1a4972abb9549e52e0d"


def test_seeded_batch_results():
    digest = hashlib.sha256()
    for (algorithm, d), l_cols, max_iter, seed in itertools.product(
            [("msp", 1), ("msp", 2), ("cmsp", 1), ("cmsp", 2), ("mmv_sp", 1),
             ("mmv_sp", 2), ("sp", 1)], (0, 1, 3), (1, 3, 100), range(2)):
        rng = np.random.default_rng(seed)
        kinds = list(KINDS) + list(rng.choice(KINDS, size=4))
        problems = [batch_problem(rng, kind, d, l_cols)
                    for kind in rng.permutation(kinds)]
        reads = algorithm in pursuit.PRIOR_ALGORITHMS
        cfgs = [PursuitConfig(s_bar=3, gamma=gamma, d=d, max_iter=max_iter,
                              prior=(PriorSupportInfo(T0, s_c) if reads
                                     else PriorSupportInfo.empty(10)))
                for _, _, T0, s_c, gamma in problems]
        # the loop must write into no caller's array
        Y = np.stack([p[0] for p in problems])
        Phi = np.stack([p[1] for p in problems])
        Y.flags.writeable = Phi.flags.writeable = False
        for r in recover_batch(algorithm, Y, Phi, cfgs):
            digest.update(repr((r.T_hat.indices, r.residue_norms, r.iterations,
                                r.stop_reason.value, r.rank_deficient_ls)).encode())
            digest.update(r.X_hat.data.tobytes())
    assert digest.hexdigest() == SEEDED_BATCH_DIGEST, (
        "seeded pursuit results moved; a numpy or BLAS upgrade can move them, "
        "and an intended change of the loop's arithmetic must update this digest")


def _stack_of(B, K=6, rows=5, cols=1):
    rng = np.random.default_rng(0)
    return random_complex(rng, (B, rows, cols)), random_complex(rng, (B, rows, K))


def _cfg(K=6, **kw):
    return PursuitConfig(**dict(dict(s_bar=2, prior=PriorSupportInfo.empty(K),
                                     gamma=0.0), **kw))


@pytest.mark.parametrize("call,error,pattern", [
    (lambda: recover_batch("omp", *_stack_of(1), [_cfg()]), ValueError,
     "unknown pursuit 'omp'"),
    (lambda: recover_batch("msp", *_stack_of(2), [_cfg(), _cfg(s_bar=3)]),
     ValueError, "one s_bar, d and max_iter"),
    (lambda: recover_batch("mmv_sp", *_stack_of(1), [_cfg(prior=PriorSupportInfo(
        ChunkSupport.of([1], 6), 1))]), PriorInfoError, "mmv_sp reads no prior"),
    (lambda: recover_batch("sp", *_stack_of(1), [_cfg(K=3, d=2)]), ValueError,
     "sp runs at d = 1"),
    (lambda: recover_batch("msp", *_stack_of(2), [_cfg()]), DimensionError,
     "1 configs for 2 problems"),
    (lambda: recover_batch("msp", np.ones((5, 1)), np.ones((5, 6)), [_cfg()]),
     DimensionError, "must be stacks"),
    (lambda: recover_batch("msp", np.ones((0, 5, 1)), np.ones((0, 5, 6)), []),
     DimensionError, "of B >= 1 problems"),
    (lambda: recover_batch("msp", np.ones((1, 4, 1)), np.ones((1, 5, 6)), [_cfg()]),
     DimensionError, "Y has 4 rows, Phi has 5"),
    (lambda: recover_batch("cmsp", np.full((1, 5, 1), np.nan), np.ones((1, 5, 6)),
                           [_cfg()]), NonFiniteError, "Y contains non-finite"),
], ids=["unknown", "mixed-budget", "prior-free", "sp-chunked", "config-count",
        "not-stacked", "empty", "rows", "non-finite"])
def test_batch_guards(call, error, pattern):
    with pytest.raises(error, match=pattern):
        call()
