"""Tests for the chunk-sparse signal model and the support evolution generator."""
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cspursuit.core import ChunkIndexing, _chunk_norms
from cspursuit.errors import GenerationError, PriorInfoError
from cspursuit.sparsity import (ChunkSparseMatrix, ChunkSupport, PriorSupportInfo,
                                SupportEvolutionParams, chunk_support,
                                generate_chunk_sparse, generate_support_sequence)


class TestChunkSparseMatrix:
    def test_shape_and_support(self):
        idx = ChunkIndexing(K=3, d=2)
        data = np.zeros((6, 2), dtype=complex)
        data[2:4, :] = 1.0
        X = ChunkSparseMatrix(data, idx)
        assert chunk_support(X).indices == (2,)
        assert _chunk_norms(X.data, idx.d) == pytest.approx([0.0, 2.0, 0.0])

    def test_support_tolerance(self):
        idx = ChunkIndexing(K=2, d=1)
        data = np.array([[1e-14], [1.0]], dtype=complex)
        X = ChunkSparseMatrix(data, idx)
        assert chunk_support(X, tol=1e-10).indices == (2,)
        assert chunk_support(X, tol=0.0).indices == (1, 2)

    def test_row_mismatch(self):
        with pytest.raises(Exception):
            ChunkSparseMatrix(np.zeros((5, 1), dtype=complex), ChunkIndexing(K=3, d=2))


class TestPriorSupportInfo:
    def test_valid(self):
        p = PriorSupportInfo(ChunkSupport.of([1, 3], 8), s_c=2)
        assert p.s_c == 2 and len(p.T0) == 2

    def test_empty(self):
        p = PriorSupportInfo.empty(8)
        assert p.s_c == 0 and len(p.T0) == 0 and p.T0.K == 8

    def test_s_c_exceeding_prior_size(self):
        with pytest.raises(PriorInfoError):
            PriorSupportInfo(ChunkSupport.of([1], 8), s_c=2)

    def test_negative_s_c(self):
        with pytest.raises(PriorInfoError):
            PriorSupportInfo(ChunkSupport.of([1], 8), s_c=-1)


class TestEvolutionParams:
    def test_valid(self):
        SupportEvolutionParams(s_bar=8, s_c=4, K=64)

    @pytest.mark.parametrize("s_bar,s_c,K", [
        (8, -1, 64),   # negative quality
        (8, 7, 64),    # s_c + 2 > s_bar
        (8, 4, 7),     # s_bar > K
    ])
    def test_invalid(self, s_bar, s_c, K):
        with pytest.raises(GenerationError):
            SupportEvolutionParams(s_bar=s_bar, s_c=s_c, K=K)


class TestGenerateChunkSparse:
    def test_support_and_offsupport(self):
        rng = np.random.default_rng(0)
        T = ChunkSupport.of([2, 5], 6)
        X = generate_chunk_sparse(K=6, d=3, L=2, T=T, rng=rng)
        assert X.data.shape == (18, 2)
        assert chunk_support(X).indices == (2, 5)
        off = X.data[ChunkIndexing(6, 3).rows_of([1, 3, 4, 6]), :]
        assert np.all(off == 0)

    def test_unit_variance_entries(self):
        rng = np.random.default_rng(1)
        T = ChunkSupport.of(range(1, 101), 100)
        X = generate_chunk_sparse(K=100, d=2, L=8, T=T, rng=rng)
        power = np.mean(np.abs(X.data) ** 2)
        assert power == pytest.approx(1.0, rel=0.05)


class TestChunkSupportOfMatrix:
    def test_chunk_support_function(self):
        idx = ChunkIndexing(K=4, d=1)
        data = np.array([[0.0], [2.0], [0.0], [1e-13]], dtype=complex)
        X = ChunkSparseMatrix(data, idx)
        assert chunk_support(X, tol=1e-10).indices == (2,)


class TestGenerateSupportSequence:
    def test_sizes_in_range(self):
        params = SupportEvolutionParams(s_bar=8, s_c=4, K=64)
        rng = np.random.default_rng(2)
        seq = generate_support_sequence(params, 50, rng)
        assert all(6 <= len(s) <= 8 for s in seq)

    def test_overlap_law(self):
        params = SupportEvolutionParams(s_bar=8, s_c=4, K=64)
        rng = np.random.default_rng(3)
        seq = generate_support_sequence(params, 200, rng)
        for a, b in zip(seq, seq[1:]):
            ov = len(set(a) & set(b))
            assert min(4, len(a), len(b)) <= ov <= 6

    def test_fixed_overlap_pinned(self):
        params = SupportEvolutionParams(s_bar=8, s_c=3, K=64)
        rng = np.random.default_rng(4)
        seq = generate_support_sequence(params, 100, rng, pinned=True)
        for a, b in zip(seq, seq[1:]):
            assert len(set(a) & set(b)) == 3

    def test_infeasible_universe(self):
        ok = SupportEvolutionParams(s_bar=6, s_c=4, K=8)
        generate_support_sequence(ok, 2, np.random.default_rng(0))
        with pytest.raises(GenerationError, match="K >= 2"):
            SupportEvolutionParams(s_bar=6, s_c=3, K=8)

    def test_deterministic(self):
        params = SupportEvolutionParams(s_bar=8, s_c=4, K=64)
        a = generate_support_sequence(params, 5, np.random.default_rng(7))
        b = generate_support_sequence(params, 5, np.random.default_rng(7))
        assert a == b

    def test_seeded_sequences(self):
        # the rng order of the draws, pinned: sizes, the first support, then
        # per frame the kept and the fresh chunks
        h = hashlib.sha256()
        params = SupportEvolutionParams(s_bar=8, s_c=4, K=64)
        for pinned in (False, True):
            for seed in range(20):
                rng = np.random.default_rng(seed)
                for S in generate_support_sequence(params, 6, rng, pinned):
                    h.update(repr((S.K, S.indices)).encode())
                h.update(repr(rng.integers(0, 2**31)).encode())
        assert h.hexdigest() == (
            "e85b888eb9eebdfea76c75e06112293a890621379e3a505c1c98523b7b5b191b")

    def test_clamped_overlap_mean_matches_enumeration(self):
        # independent oracle: sizes uniform on {11,12,13}, wanted overlap
        # uniform on {10,11,12}, realized = min(want, |prev|, |cur|)
        combos = list(itertools.product((11, 12, 13), (11, 12, 13), (10, 11, 12)))
        exact = sum(min(w, a, b) for a, b, w in combos) / len(combos)
        assert exact == pytest.approx(10.814814814814815)

        params = SupportEvolutionParams(s_bar=13, s_c=10, K=40)
        rng = np.random.default_rng(5)
        total = 0
        n_pairs = 4000
        seq = generate_support_sequence(params, n_pairs + 1, rng)
        for a, b in zip(seq, seq[1:]):
            total += len(set(a) & set(b))
        assert total / n_pairs == pytest.approx(exact, abs=0.05)


def test_chunk_sparse_draws_each_chunk_in_ascending_order():
    # T deduplicated and sorted, then a (d, L) draw per chunk, real parts
    # before imaginary ones
    rng = np.random.default_rng(3)
    X = generate_chunk_sparse(5, 2, 3, [4, 2, 4], np.random.default_rng(3))
    want = np.zeros((10, 3), dtype=complex)
    for k in (2, 4):
        want[2 * k - 2:2 * k] = (rng.standard_normal((2, 3))
                                 + 1j * rng.standard_normal((2, 3))) / np.sqrt(2.0)
    np.testing.assert_array_equal(X.data, want)
    assert chunk_support(X).indices == (2, 4)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), s_bar=st.integers(3, 9), s_c=st.integers(0, 7))
def test_sequence_property(seed, s_bar, s_c):
    if s_c + 2 > s_bar:
        return
    params = SupportEvolutionParams(s_bar=s_bar, s_c=s_c, K=4 * s_bar)
    rng = np.random.default_rng(seed)
    seq = generate_support_sequence(params, 4, rng)
    for s in seq:
        assert s_bar - 2 <= len(s) <= s_bar
    for a, b in zip(seq, seq[1:]):
        ov = len(set(a) & set(b))
        assert min(s_c, len(a), len(b)) <= ov <= s_c + 2


@pytest.mark.parametrize("call,error,pattern", [
    (lambda: chunk_support(ChunkSparseMatrix(np.zeros((4, 1)),
                                             ChunkIndexing(4, 1)), tol=-1.0),
     ValueError, "tol must be nonnegative, got -1.0"),
    (lambda: chunk_support(ChunkSparseMatrix(np.zeros((4, 1)),
                                             ChunkIndexing(4, 1)), tol=np.nan),
     ValueError, "tol must be nonnegative, got nan"),
    (lambda: chunk_support(ChunkSparseMatrix(np.zeros((4, 1)),
                                             ChunkIndexing(4, 1)), tol=10 ** 400),
     ValueError, r"^tol = 10{400} does not fit a float$"),
    (lambda: generate_chunk_sparse(4, 1, 0, [1], np.random.default_rng(0)),
     ValueError, "L must be positive, got 0"),
    (lambda: generate_chunk_sparse(4, 1, 1, [2.5], np.random.default_rng(0)),
     ValueError, "chunk index must be a whole number, got 2.5"),
])
def test_guards(call, error, pattern):
    with pytest.raises(error, match=pattern):
        call()
