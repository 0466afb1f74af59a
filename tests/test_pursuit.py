"""Tests for the prior-aware pursuit solvers and their support-update steps."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cspursuit.core import (ChunkIndexing, frobenius, ls_solve,
                            submatrix_by_chunks)
from cspursuit.errors import DimensionError, SelectionError
from cspursuit.pursuit import (PursuitConfig, StopReason, cmsp_recover,
                               cmsp_support_merge, cmsp_support_refine, genie_ls,
                               mmv_sp_recover, msp_recover, msp_support_merge,
                               msp_support_refine, sp_recover)
from cspursuit.sparsity import ChunkSparseMatrix, ChunkSupport, PriorSupportInfo


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

    def test_non_decreasing_returns_previous_iterate(self):
        Phi, x, prior = locked_instance()
        cfg = PursuitConfig(s_bar=3, prior=prior, gamma=0.0, d=1)
        res = msp_recover(Phi @ x, Phi, cfg)
        # support of the returned iterate achieves the iteration-1 residue
        fit = Phi @ res.X_hat.data
        assert frobenius(Phi @ x - fit) == pytest.approx(res.residue_norms[-2])


class TestSupportSteps:
    def test_msp_merge_composition(self):
        # residue correlations are the scores; prior chunk with the larger
        # score is kept, then the best outsiders fill up to s_bar
        K = 6
        Phi = np.eye(K, dtype=complex)
        R = np.array([[0.1], [5.0], [0.2], [4.0], [3.0], [0.3]], dtype=complex)
        prior = PriorSupportInfo(ChunkSupport.of([1, 2], K), s_c=1)
        cfg = PursuitConfig(s_bar=3, prior=prior, gamma=0.0, d=1)
        T_a = msp_support_merge(R, Phi, ChunkSupport.empty(K), cfg)
        # T_b = {2}; T_c = top 2 of remaining scores = {4, 5}
        assert T_a.indices == (2, 4, 5)

    def test_msp_refine_part2_may_reenter_prior(self):
        K = 6
        idx = ChunkIndexing(K, 1)
        z = np.array([[5.0], [4.0], [0.1], [0.2], [0.0], [0.0]], dtype=complex)
        prior = PriorSupportInfo(ChunkSupport.of([1, 2], K), s_c=1)
        cfg = PursuitConfig(s_bar=2, prior=prior, gamma=0.0, d=1)
        T = msp_support_refine(ChunkSparseMatrix(z, idx), cfg)
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
        T_a = cmsp_support_merge(R, Phi, T_hat, cfg)
        assert T_a.indices == (1, 2, 3)

    def test_cmsp_merge_with_shortfall(self):
        K = 6
        Phi = np.eye(K, dtype=complex)
        R = np.array([[0.5], [0.4], [3.0], [2.0], [1.0], [0.1]], dtype=complex)
        prior = PriorSupportInfo(ChunkSupport.of([1, 2], K), s_c=1)
        cfg = PursuitConfig(s_bar=3, prior=prior, gamma=0.0, d=1)
        T_a = cmsp_support_merge(R, Phi, ChunkSupport.empty(K), cfg)
        # shortfall 1 -> T_b = {1} (larger residue score among prior), then
        # T_c = top 3 overall = {3,4,5}
        assert T_a.indices == (1, 3, 4, 5)

    def test_cmsp_refine_ignores_prior(self):
        K = 6
        idx = ChunkIndexing(K, 1)
        z = np.array([[0.1], [0.2], [5.0], [4.0], [3.0], [0.0]], dtype=complex)
        prior = PriorSupportInfo(ChunkSupport.of([1, 2], K), s_c=2)
        cfg = PursuitConfig(s_bar=3, prior=prior, gamma=0.0, d=1)
        T = cmsp_support_refine(ChunkSparseMatrix(z, idx), cfg)
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
            assert len(res.T_hat.intersection(T0)) >= s_c


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
        assert res.support().indices == T.indices


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


def public_steps(Y, Phi, cfg, merge, refine, iterations):
    """The pursuit loop written with the public steps: merge, LS on the
    merged support, refine, LS on the refined support."""
    idx = ChunkIndexing(Phi.shape[1] // cfg.d, cfg.d)
    T, R, residues = ChunkSupport.empty(idx.K), Y, []
    for _ in range(iterations):
        T = refine(genie_ls(Y, Phi, merge(R, Phi, T, cfg), d=cfg.d), cfg)
        sub = submatrix_by_chunks(Phi, T, idx)
        R = Y - sub @ ls_solve(sub, Y)
        residues.append(frobenius(R))
    return T, genie_ls(Y, Phi, T, d=cfg.d), tuple(residues)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), d=st.sampled_from([1, 2]),
       l_cols=st.sampled_from([1, 3]), s_c=st.integers(0, 3),
       max_iter=st.sampled_from([1, 2]))
def test_public_steps_agree_with_loop(seed, d, l_cols, s_c, max_iter):
    rng = np.random.default_rng(seed)
    K, M = 10, 8 + 2 * d
    Phi = random_complex(rng, (M, K * d)) / np.sqrt(2 * M)
    Y = random_complex(rng, (M, l_cols))
    T0 = ChunkSupport.of(rng.choice(K, size=3, replace=False) + 1, K)
    cfg = PursuitConfig(s_bar=3, prior=PriorSupportInfo(T0, s_c), gamma=0.0,
                        d=d, max_iter=max_iter)
    for recover, merge, refine in (
            (msp_recover, msp_support_merge, msp_support_refine),
            (cmsp_recover, cmsp_support_merge, cmsp_support_refine)):
        res = recover(Y, Phi, cfg)
        T, X, residues = public_steps(Y, Phi, cfg, merge, refine,
                                      res.iterations)
        assert res.residue_norms[1:] == residues
        if res.stop_reason is not StopReason.RESIDUE_NON_DECREASING:
            assert res.T_hat == T
            np.testing.assert_array_equal(res.X_hat.data, X.data)
