"""Tests for chunk indexing, selection, least squares, and matrix file I/O."""
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dataclasses

import cspursuit
from cspursuit.analysis import (RipQuery, block_rip_exact, block_rip_montecarlo,
                                channel_recovery_bound, cmsp_constants,
                                isometry_orders)
from cspursuit.core import (LS_RCOND, ChunkIndexing, ChunkSupport, _chunk_norms,
                            _frobenius_stack, _lstsq_stack, _ranked, as_matrix,
                            chunking, frobenius, ls_solve_with_rank, read_matrix,
                            write_matrix)
from cspursuit.errors import (CsPursuitError, DimensionError, FormatError,
                              GenerationError, PriorInfoError, SelectionError)
from cspursuit.experiments import ExperimentConfig
from cspursuit.mimo import (MimoScenario, default_gamma, dft_unitary,
                            generate_channel, generate_pilots, recover_channel,
                            run_frame_sequence, simulate_frames)
from cspursuit.oracle import exhaustive_best_support, rip_bruteforce_reference
from cspursuit.pursuit import PursuitConfig
from cspursuit.sparsity import (ChunkSparseMatrix, PriorSupportInfo,
                                SupportEvolutionParams, chunk_support,
                                generate_chunk_sparse, generate_support_sequence)


def random_complex(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


class TestAsMatrix:
    def test_accepts_real_input(self):
        m = as_matrix([[1.0, 2.0]])
        assert m.dtype == np.complex128 and m.shape == (1, 2)

    def test_rejects_vector(self):
        with pytest.raises(DimensionError):
            as_matrix(np.zeros(3))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_matrix(np.array([[np.nan, 0.0]]))


class TestChunkIndexing:
    def test_rows_of_ascending(self):
        idx = ChunkIndexing(K=4, d=3)
        assert idx.total_rows == 12
        rows = idx.rows_of([3, 1])
        assert list(rows) == [0, 1, 2, 6, 7, 8]

    def test_rows_of_empty(self):
        assert len(ChunkIndexing(K=2, d=2).rows_of([])) == 0

    def test_rows_of_out_of_range(self):
        with pytest.raises(IndexError):
            ChunkIndexing(K=4, d=1).rows_of([5])

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            ChunkIndexing(K=0, d=1)


class TestChunking:
    def test_columns_into_chunks(self):
        idx = chunking(np.zeros((2, 6)), 3)
        assert (idx.K, idx.d) == (2, 3)

    def test_rejects_ragged_and_empty(self):
        with pytest.raises(DimensionError, match="not a multiple of d=4"):
            chunking(np.zeros((2, 6)), 4)
        with pytest.raises(DimensionError):
            chunking(np.zeros((2, 0)), 1)
        with pytest.raises(DimensionError, match="d must be positive, got 0"):
            chunking(np.zeros((2, 6)), 0)


class TestChunkSupport:
    def test_of_dedupes_and_sorts(self):
        s = ChunkSupport.of([5, 2, 5, 1], K=6)
        assert s.indices == (1, 2, 5)
        assert len(s) == 3 and 2 in s and 3 not in s

    def test_strictly_ascending_enforced(self):
        with pytest.raises(ValueError):
            ChunkSupport((2, 2), K=4)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            ChunkSupport.of([0], K=4)
        with pytest.raises(ValueError):
            ChunkSupport.of([5], K=4)


class TestChunkNorms:
    def test_known_values(self):
        idx = ChunkIndexing(K=2, d=2)
        X = np.array([[3.0], [4.0], [0.0], [2.0]], dtype=complex)
        norms = _chunk_norms(X, idx.d)
        assert norms == pytest.approx([5.0, 2.0])

    def test_multicolumn(self):
        X = np.array([[3.0, 4.0j]])
        assert _chunk_norms(X, 1) == pytest.approx([5.0])


class TestFrobeniusStack:
    """The stacked norm behind the pursuit's residues and mimo's NMSE gives
    every slice the bits frobenius gives it alone."""

    @staticmethod
    def _assert_slices_match(stack):
        want = np.array([frobenius(s) for s in stack])
        assert _frobenius_stack(stack).tobytes() == want.tobytes()

    # (B, T, N_ue) and (B, T, 1) residues, (B, N_ue, M) channels, B = 1, and
    # an L = 0 stack
    SHAPES = [(6, 24, 2), (6, 24, 1), (6, 2, 64), (1, 24, 2), (1, 2, 64),
              (3, 16, 0)]
    _ID = staticmethod(lambda shape: "x".join(map(str, shape)))

    @pytest.mark.parametrize("shape", SHAPES, ids=_ID)
    @pytest.mark.parametrize("scale", [1e-150, 1e-20, 1.0, 1e20, 1e150])
    def test_equals_frobenius(self, shape, scale):
        rng = np.random.default_rng(len(shape) + sum(shape))
        for _ in range(5):
            self._assert_slices_match(scale * random_complex(rng, shape))

    @pytest.mark.parametrize("shape", SHAPES, ids=_ID)
    def test_mixed_magnitudes(self, shape):
        # entries from 1e-150 to 1e150 within each slice
        rng = np.random.default_rng(sum(shape))
        for _ in range(5):
            self._assert_slices_match(10.0 ** rng.uniform(-150, 150, shape)
                                      * random_complex(rng, shape))

    @pytest.mark.parametrize("shape", SHAPES, ids=_ID)
    def test_non_contiguous_slices(self, shape):
        # norm ravels each slice in memory order, which a transpose changes
        rng = np.random.default_rng(sum(shape) + 1)
        for _ in range(5):
            a = random_complex(rng, shape)
            self._assert_slices_match(a.transpose(0, 2, 1))
            self._assert_slices_match(np.asfortranarray(a))
            self._assert_slices_match(a.transpose(2, 1, 0).copy().transpose(2, 1, 0))
            self._assert_slices_match(random_complex(
                rng, shape[:1] + (2 * shape[1],) + shape[2:])[:, ::2])


def best_chunks(scores, k, candidates):
    """The k best of the 1-based candidate chunks, ascending: the first k of
    _ranked's ranking of their scores, the pick every pursuit rule makes."""
    pool = np.array(sorted(candidates), dtype=np.intp) - 1
    picked = pool[_ranked(np.asarray(scores, dtype=float)[pool])[:k]] + 1
    return tuple(sorted(picked.tolist()))


class TestTopKChunks:
    def test_basic(self):
        scores = np.array([0.1, 5.0, 3.0, 4.0])
        assert best_chunks(scores, 2, [1, 2, 3, 4]) == (2, 4)

    def test_tie_breaks_to_smaller_index(self):
        scores = np.array([1.0, 2.0, 2.0, 2.0])
        assert best_chunks(scores, 2, [1, 2, 3, 4]) == (2, 3)

    def test_zero_scores_fill_in_index_order(self):
        scores = np.zeros(5)
        assert best_chunks(scores, 3, [5, 4, 3, 2, 1]) == (1, 2, 3)

    def test_restricted_candidates(self):
        scores = np.array([9.0, 1.0, 8.0, 7.0])
        assert best_chunks(scores, 2, [2, 3, 4]) == (3, 4)

    def test_k_zero(self):
        assert best_chunks(np.array([1.0]), 0, [1]) == ()


class TestSubmatrixByChunks:
    """A chunk set's columns of Phi are Phi[:, idx.rows_of(T)]."""

    def test_selects_chunk_columns(self):
        idx = ChunkIndexing(K=3, d=2)
        Phi = np.arange(12, dtype=float).reshape(2, 6) + 0j
        sub = Phi[:, idx.rows_of([3, 1])]
        assert sub.shape == (2, 4)
        np.testing.assert_array_equal(sub, Phi[:, [0, 1, 4, 5]])

    def test_empty_selection(self):
        idx = ChunkIndexing(K=2, d=1)
        assert np.zeros((3, 2))[:, idx.rows_of([])].shape == (3, 0)


class TestLeastSquares:
    def test_exact_square_solve(self):
        rng = np.random.default_rng(0)
        A = random_complex(rng, (4, 4))
        X = random_complex(rng, (4, 2))
        sol, deficient = ls_solve_with_rank(A, A @ X)
        np.testing.assert_allclose(sol, X, atol=1e-10)
        assert not deficient

    def test_wide_matrix_flags_deficient(self):
        rng = np.random.default_rng(1)
        A = random_complex(rng, (3, 5))
        _, deficient = ls_solve_with_rank(A, random_complex(rng, (3, 1)))
        assert deficient

    def test_duplicate_columns_flag_deficient(self):
        rng = np.random.default_rng(2)
        col = random_complex(rng, (4, 1))
        A = np.hstack([col, col])
        _, deficient = ls_solve_with_rank(A, col)
        assert deficient

    def test_zero_columns(self):
        sol = ls_solve_with_rank(np.zeros((3, 0)), np.zeros((3, 2)))[0]
        assert sol.shape == (0, 2)

    def test_minimum_norm_solution(self):
        # wide system: lstsq must return the least-norm minimizer
        A = np.array([[1.0, 1.0]], dtype=complex)
        sol = ls_solve_with_rank(A, np.array([[2.0]], dtype=complex))[0]
        np.testing.assert_allclose(sol, [[1.0], [1.0]], atol=1e-12)

    def test_row_mismatch(self):
        with pytest.raises(DimensionError):
            ls_solve_with_rank(np.zeros((3, 2)), np.zeros((4, 1)))

    def test_ill_conditioned_gram_takes_the_svd_route(self):
        # full column rank, but cond_1(A^H A) is about 1e8, past the Gram
        # route's cutoff: the answer is np.linalg.lstsq's, bit for bit
        rng = np.random.default_rng(5)
        A = random_complex(rng, (6, 2)) * np.array([1.0, 1e-4])
        B = random_complex(rng, (6, 3))
        sol, deficient = ls_solve_with_rank(A, B)
        want, _, rank, _ = np.linalg.lstsq(A, B, rcond=LS_RCOND)
        np.testing.assert_array_equal(sol, want)
        assert rank == 2 and not deficient

    def _assert_slices_solve_alone(self, A, B, X, deficient):
        for a, b, x, flag in zip(A, B, X, deficient):
            want, want_flag = ls_solve_with_rank(a, b)
            assert x.tobytes() == want.tobytes() and flag == want_flag

    def test_stack_inverts_once_and_sends_uncertified_slices_to_svd(self, monkeypatch):
        # slice 1's columns agree to 1e-6, so its Gram inverts but is not
        # certified: it goes straight to np.linalg.lstsq, not inverted again
        rng = np.random.default_rng(8)
        A, B = random_complex(rng, (3, 6, 3)), random_complex(rng, (3, 6, 2))
        A[1, :, 2] = A[1, :, 0] + 1e-6 * random_complex(rng, 6)
        calls = []
        for name in ("inv", "lstsq"):
            def counting(*args, _solve=getattr(np.linalg, name), _name=name, **kw):
                calls.append(_name)
                return _solve(*args, **kw)
            monkeypatch.setattr(np.linalg, name, counting)
        X, deficient = _lstsq_stack(A, B)
        monkeypatch.undo()
        assert calls == ["inv", "lstsq"]
        self._assert_slices_solve_alone(A, B, X, deficient)

    def test_singular_stack_solves_each_slice_alone(self):
        # an all-zero slice makes the stacked inversion raise
        rng = np.random.default_rng(9)
        A, B = random_complex(rng, (3, 5, 2)), random_complex(rng, (3, 5, 1))
        A[2] = 0
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(A.conj().transpose(0, 2, 1) @ A)
        X, deficient = _lstsq_stack(A, B)
        assert deficient.tolist() == [False, False, True]
        self._assert_slices_solve_alone(A, B, X, deficient)


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(1, 8), cols=st.integers(1, 8), l_cols=st.integers(1, 3),
       seed=st.integers(0, 10**6),
       tweak=st.sampled_from(["none", "duplicate", 1e-1, 1e-3, 1e-6, 1e-9]))
def test_ls_matches_svd_lstsq(rows, cols, l_cols, seed, tweak):
    """Tall, square and wide A, with a duplicated or a near-collinear column:
    the rank flag is np.linalg.lstsq's and the solution agrees with it."""
    rng = np.random.default_rng(seed)
    A = random_complex(rng, (rows, cols))
    if cols > 1 and tweak == "duplicate":
        A[:, -1] = A[:, 0]
    elif cols > 1 and tweak != "none":
        A[:, -1] = A[:, 0] + tweak * random_complex(rng, rows)
    B = random_complex(rng, (rows, l_cols))
    sol, deficient = ls_solve_with_rank(A, B)
    want, _, rank, _ = np.linalg.lstsq(A, B, rcond=LS_RCOND)
    assert deficient == (rank < cols)
    assert np.linalg.norm(sol - want) <= 1e-10 * np.linalg.norm(want)


class TestMatrixFile:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        M = random_complex(rng, (5, 3))
        p = tmp_path / "m.csmat"
        write_matrix(p, M)
        out = read_matrix(p)
        np.testing.assert_array_equal(out, M)

    def test_roundtrip_empty(self, tmp_path):
        p = tmp_path / "e.csmat"
        write_matrix(p, np.zeros((0, 0), dtype=complex))
        assert read_matrix(p).shape == (0, 0)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.csmat"
        p.write_bytes(b"NOTMAGIC" + bytes(12))
        with pytest.raises(FormatError):
            read_matrix(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "short.csmat"
        p.write_bytes(b"CSMAT1\x00\x00")
        with pytest.raises(FormatError):
            read_matrix(p)

    def test_bad_dtype_tag(self, tmp_path):
        p = tmp_path / "tag.csmat"
        import struct
        p.write_bytes(b"CSMAT1\x00\x00" + struct.pack("<II", 0, 0) + bytes([0x02, 0, 0, 0]))
        with pytest.raises(FormatError):
            read_matrix(p)

    def test_nonzero_reserved(self, tmp_path):
        import struct
        p = tmp_path / "res.csmat"
        p.write_bytes(b"CSMAT1\x00\x00" + struct.pack("<II", 0, 0) + bytes([0x01, 1, 0, 0]))
        with pytest.raises(FormatError):
            read_matrix(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "tr.csmat"
        write_matrix(p, np.ones((2, 2), dtype=complex))
        raw = p.read_bytes()
        p.write_bytes(raw[:-8])
        with pytest.raises(FormatError):
            read_matrix(p)

    def test_trailing_garbage(self, tmp_path):
        p = tmp_path / "tg.csmat"
        write_matrix(p, np.ones((1, 1), dtype=complex))
        p.write_bytes(p.read_bytes() + b"x")
        with pytest.raises(FormatError):
            read_matrix(p)

    def test_nonfinite_payload(self, tmp_path):
        import struct
        p = tmp_path / "nf.csmat"
        payload = np.array([[np.inf + 0j]]).astype("<c16").tobytes()
        p.write_bytes(b"CSMAT1\x00\x00" + struct.pack("<II", 1, 1)
                      + bytes([0x01, 0, 0, 0]) + payload)
        with pytest.raises(FormatError):
            read_matrix(p)


@settings(max_examples=50, deadline=None)
@given(rows=st.integers(0, 6), cols=st.integers(0, 6), seed=st.integers(0, 10**6))
def test_roundtrip_property(tmp_path_factory, rows, cols, seed):
    rng = np.random.default_rng(seed)
    M = random_complex(rng, (rows, cols))
    p = tmp_path_factory.mktemp("io") / "m.csmat"
    write_matrix(p, M)
    np.testing.assert_array_equal(read_matrix(p), M)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**6), k=st.integers(0, 6))
def test_top_k_sorted_and_sized(seed, k):
    rng = np.random.default_rng(seed)
    n = 8
    scores = rng.random(n)
    out = best_chunks(scores, k, range(1, n + 1))
    assert len(out) == k
    assert list(out) == sorted(out)
    # every selected score is >= every unselected score
    if k:
        rest = [scores[i - 1] for i in range(1, n + 1) if i not in out]
        assert not rest or min(scores[i - 1] for i in out) >= max(rest) - 1e-12


@settings(max_examples=200, deadline=None)
@given(scores=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=1,
                       max_size=10),
       data=st.data())
def test_top_k_heavy_ties_match_reference_rule(scores, data):
    # few distinct values, so most selections cross a tie
    n = len(scores)
    cand = data.draw(st.lists(st.integers(1, n), unique=True))
    k = data.draw(st.integers(0, len(cand)))
    want = tuple(sorted(sorted(cand, key=lambda i: (-scores[i - 1], i))[:k]))
    assert best_chunks(np.array(scores), k, cand) == want
    # the ranking of all chunks, restricted to the candidates, is theirs
    ranked = [i + 1 for i in _ranked(np.array(scores)).tolist() if i + 1 in cand]
    assert tuple(sorted(ranked[:k])) == want


def test_frobenius_matches_numpy():
    rng = np.random.default_rng(4)
    M = random_complex(rng, (3, 4))
    assert frobenius(M) == pytest.approx(np.linalg.norm(M))


@pytest.mark.parametrize("call,error,pattern", [
    (lambda: ChunkSupport((), -1), ValueError, "K must be nonnegative, got -1"),
    # a chunk index that is not whole is refused, not truncated
    (lambda: ChunkSupport.of([1.9, 2], 4), ValueError,
     "whole number, got 1.9"),
    (lambda: ChunkSupport((1.9,), 4), ValueError,
     "chunk index must be a whole number, got 1.9"),
    (lambda: ChunkIndexing(4, 1).rows_of([2.7]), ValueError,
     "chunk index must be a whole number, got 2.7"),
])
def test_guards(call, error, pattern):
    with pytest.raises(error, match=pattern):
        call()


def test_whole_indices_of_any_type_are_accepted():
    whole = [np.intp(3), 1.0, np.float64(2.0)]
    assert ChunkSupport.of(whole, 4).indices == (1, 2, 3)
    assert ChunkSupport.of(np.array([3, 1], dtype=np.intp), 4).indices == (1, 3)
    assert ChunkIndexing(4, 1).rows_of(whole).tolist() == [0, 1, 2]


def _scenario(**kw):
    return MimoScenario(**dict(dict(M=16, N_ue=2, T=16, P=100.0, s_bar=3,
                                    s_c=1), **kw))


def _pursuit_config(**kw):
    return PursuitConfig(**dict(dict(s_bar=2, prior=PriorSupportInfo.empty(4),
                                     gamma=0.0), **kw))


def _believing(believed_s_c):
    return run_frame_sequence(_scenario(), 1, "genie", np.random.default_rng(0),
                              believed_s_c=believed_s_c)


# every integer argument of a public function and integer field of a value
# type that _whole checks, as (label, call taking the value, the name its
# errors give, its floor or None, the error below the floor)
_INTEGERS = [
    ("PursuitConfig.s_bar", lambda v: _pursuit_config(s_bar=v), "s_bar", 1,
     ValueError),
    ("PursuitConfig.d", lambda v: _pursuit_config(d=v), "d", 1, ValueError),
    ("PursuitConfig.max_iter", lambda v: _pursuit_config(max_iter=v),
     "max_iter", 1, ValueError),
    ("ChunkIndexing.K", lambda v: ChunkIndexing(v, 1), "K", 1, ValueError),
    ("ChunkIndexing.d", lambda v: ChunkIndexing(2, v), "d", 1, ValueError),
    ("ChunkSupport.K", lambda v: ChunkSupport((), v), "K", 0, ValueError),
    ("RipQuery.k", lambda v: RipQuery(k=v, d=1), "k", 1, ValueError),
    ("RipQuery.d", lambda v: RipQuery(k=1, d=v), "d", 1, ValueError),
    ("MimoScenario.M", lambda v: _scenario(M=v), "M", 1, ValueError),
    ("MimoScenario.N_ue", lambda v: _scenario(N_ue=v), "N_ue", 1, ValueError),
    ("MimoScenario.T", lambda v: _scenario(T=v), "T", 1, ValueError),
    ("MimoScenario.s_c", lambda v: _scenario(s_c=v), "s_c", 0, GenerationError),
    ("PriorSupportInfo.s_c",
     lambda v: PriorSupportInfo(ChunkSupport.of([1, 2], 4), v), "s_c", 0,
     PriorInfoError),
    ("SupportEvolutionParams.s_bar",
     lambda v: SupportEvolutionParams(s_bar=v, s_c=1, K=16), "s_bar", None, None),
    ("SupportEvolutionParams.s_c",
     lambda v: SupportEvolutionParams(s_bar=5, s_c=v, K=16), "s_c", 0,
     GenerationError),
    ("SupportEvolutionParams.K",
     lambda v: SupportEvolutionParams(s_bar=5, s_c=1, K=v), "K", None, None),
    ("dft_unitary", dft_unitary, "n", 1, ValueError),
    ("generate_pilots.M",
     lambda v: generate_pilots(v, 4, np.random.default_rng(0)), "M", 1,
     ValueError),
    ("generate_pilots.T",
     lambda v: generate_pilots(4, v, np.random.default_rng(0)), "T", 1,
     ValueError),
    ("generate_chunk_sparse",
     lambda v: generate_chunk_sparse(4, 1, v, [1], np.random.default_rng(0)),
     "L", 1, ValueError),
    ("generate_support_sequence",
     lambda v: generate_support_sequence(SupportEvolutionParams(5, 1, 16), v,
                                         np.random.default_rng(0)),
     "n_frames", 1, ValueError),
    ("simulate_frames",
     lambda v: simulate_frames(_scenario(), v, np.random.default_rng(0)),
     "n_frames", 1, ValueError),
    ("run_frame_sequence",
     lambda v: run_frame_sequence(_scenario(), v, "genie",
                                  np.random.default_rng(0)),
     "n_frames", 1, ValueError),
    ("block_rip_montecarlo",
     lambda v: block_rip_montecarlo(np.eye(4), RipQuery(2, 1), v,
                                    np.random.default_rng(0)),
     "n_samples", 1, ValueError),
    ("block_rip_exact.cap",
     lambda v: block_rip_exact(np.eye(4), RipQuery(2, 1), cap=v), "cap", 1,
     ValueError),
    ("chunking", lambda v: chunking(np.zeros((2, 6)), v), "d", 1,
     DimensionError),
    ("channel_recovery_bound.M",
     lambda v: channel_recovery_bound(0.1, 6.0, 0.0, M=v, N_ue=2, T=16, P=1.0),
     "M", 1, ValueError),
    ("channel_recovery_bound.N_ue",
     lambda v: channel_recovery_bound(0.1, 6.0, 0.0, M=16, N_ue=v, T=16, P=1.0),
     "N_ue", 1, ValueError),
    ("channel_recovery_bound.T",
     lambda v: channel_recovery_bound(0.1, 6.0, 0.0, M=16, N_ue=2, T=v, P=1.0),
     "T", 1, ValueError),
    ("recover_channel", lambda v: recover_channel(np.ones((4, 2)), 1.0, v),
     "T", 1, ValueError),
    ("default_gamma.N_ue", lambda v: default_gamma(v, 16), "N_ue", 1,
     ValueError),
    ("default_gamma.T", lambda v: default_gamma(2, v), "T", 1, ValueError),
    ("run_frame_sequence.believed_s_c", _believing, "believed s_c", 0, ValueError),
    ("exhaustive_best_support.s",
     lambda v: exhaustive_best_support(np.zeros((4, 1)), np.eye(4), v, 1),
     "s", 1, SelectionError),
    ("exhaustive_best_support.m",
     lambda v: exhaustive_best_support(np.zeros((4, 1)), np.eye(4), 1, 1,
                                       constraint=(ChunkSupport.of([1], 4), v)),
     "m", 0, ValueError),
    ("rip_bruteforce_reference", lambda v: rip_bruteforce_reference(np.eye(4), v, 1),
     "k", 1, DimensionError),
    # s_bar >= 1 belongs to the prior-shape message, checked with s_c <= |T0|
    ("isometry_orders.s_bar", lambda v: isometry_orders(v, 1, 2), "s_bar",
     None, None),
    ("isometry_orders.s_c", lambda v: isometry_orders(2, v, 2), "s_c", None,
     None),
    ("isometry_orders.t0_size", lambda v: isometry_orders(2, 1, v), "t0_size",
     None, None),
    ("cmsp_constants",
     lambda v: cmsp_constants(0.0, 0.0, 0.0, 0.0, s_bar=2, s_c=1, t0_size=2,
                              overlap=v),
     "overlap", 0, ValueError),
]


# every integer field of the package's value types, and every integer
# argument, refuses a value that is not whole, naming it, where it once
# truncated, was accepted or failed in numpy
@pytest.mark.parametrize("make,field", [
    (lambda: _pursuit_config(s_bar=2.5), "s_bar"),
    (lambda: _pursuit_config(max_iter=2.5), "max_iter"),
    (lambda: _pursuit_config(d=1.5), "d"),
    (lambda: _pursuit_config(s_bar=float("nan")), "s_bar"),
    (lambda: PriorSupportInfo(ChunkSupport.of([1, 2], 4), 1.5), "s_c"),
    (lambda: RipQuery(k=1.5, d=1), "k"),
    (lambda: RipQuery(k=1, d=1.5), "d"),
    (lambda: ChunkIndexing(2.5, 1), "K"),
    (lambda: ChunkIndexing(2, 1.5), "d"),
    (lambda: _scenario(M=16.5), "M"),
    (lambda: _scenario(N_ue=2.5), "N_ue"),
    (lambda: _scenario(T=float("inf")), "T"),
    (lambda: _scenario(s_bar=3.5), "s_bar"),
    (lambda: _scenario(s_c=0.5), "s_c"),
    (lambda: SupportEvolutionParams(s_bar=5.5, s_c=1, K=16), "s_bar"),
    (lambda: dft_unitary(2.5), "n"),
    (lambda: dft_unitary(None), "n"),
    (lambda: ChunkSupport.of([1.5], 4), "chunk index"),
] + [pytest.param(lambda call=call, value=value: call(value), name,
                  id=f"{label}({value})")
     for label, call, name, _, _ in _INTEGERS
     for value in (2.5, float("nan"), float("inf"), None)
     # a believed s_c or an overlap of None is the documented default
     if value is not None or name not in ("believed s_c", "overlap")])
def test_fractional_integer_field_is_named(make, field):
    with pytest.raises(ValueError, match=f"^{field} must be a whole number, got "):
        make()


@pytest.mark.parametrize("call,name,least,error", [
    pytest.param(call, name, least, error, id=label)
    for label, call, name, least, error in _INTEGERS if least is not None])
def test_integer_below_floor_is_named(call, name, least, error):
    word = "positive" if least else "nonnegative"
    with pytest.raises(error, match=f"^{name} must be {word}, got {least - 1}$"):
        call(least - 1)


# a threshold that is not a number is refused by name, where it once raised
# a bare TypeError, or for an array numpy's ValueError, or was accepted
@pytest.mark.parametrize("value", ["abc", "1.5", None, [1.0], np.array([0.1, 0.2]),
                                   np.array([0.1])])
@pytest.mark.parametrize("call,name", [
    (lambda v: _pursuit_config(gamma=v), "gamma"),
    (lambda v: chunk_support(ChunkSparseMatrix(np.zeros((4, 1)), ChunkIndexing(4, 1)),
                             v), "tol"),
], ids=["PursuitConfig.gamma", "chunk_support.tol"])
def test_non_number_threshold_is_named(call, name, value):
    with pytest.raises(ValueError, match=re.escape(
            f"{name} must be nonnegative, got {value!r}")):
        call(value)


# every public function that draws refuses an rng that is not a numpy
# Generator, after its other checks, where it once failed on the first draw
@pytest.mark.parametrize("call", [
    lambda rng: generate_pilots(8, 4, rng),
    lambda rng: generate_channel(_scenario(), ChunkSupport.of([2, 5], 16), rng),
    lambda rng: generate_support_sequence(SupportEvolutionParams(5, 1, 16), 2, rng),
    lambda rng: generate_chunk_sparse(4, 2, 1, [1, 3], rng),
    lambda rng: block_rip_montecarlo(np.eye(6), RipQuery(2, 1), 3, rng),
], ids=["generate_pilots", "generate_channel", "generate_support_sequence",
        "generate_chunk_sparse", "block_rip_montecarlo"])
def test_rng_must_be_a_generator(call):
    with pytest.raises(TypeError, match="^rng must be a numpy Generator, got 0$"):
        call(0)


# one valid instance of each public value type with an int field
_INSTANCES = {
    ChunkIndexing: ChunkIndexing(4, 1),
    ChunkSupport: ChunkSupport((1,), 4),
    PursuitConfig: _pursuit_config(),
    PriorSupportInfo: PriorSupportInfo(ChunkSupport.of([1], 4), 1),
    SupportEvolutionParams: SupportEvolutionParams(5, 1, 16),
    MimoScenario: _scenario(),
    RipQuery: RipQuery(1, 1),
    ExperimentConfig: ExperimentConfig(
        M=16, N_ue=2, s_bar=3, s_c=1, pilot_length=12, snr_db=25.0,
        sweep_axis="pilot_length", sweep_values=(8,), algorithms=("msp",)),
}


def test_every_int_field_is_checked():
    # a public dataclass that checks its fields must check each int field,
    # so a new one cannot land unchecked; output types have no __post_init__
    for cls in {getattr(cspursuit, name) for name in cspursuit.__all__}:
        if not (dataclasses.is_dataclass(cls) and "__post_init__" in vars(cls)):
            continue
        for f in dataclasses.fields(cls):
            if f.type == "int":
                assert cls in _INSTANCES, f"no instance of {cls.__name__}"
                with pytest.raises((ValueError, CsPursuitError),
                                   match=f"^{f.name} must be a whole number"):
                    dataclasses.replace(_INSTANCES[cls], **{f.name: 2.5})


def test_whole_integer_fields_are_stored_as_int():
    cfg = _pursuit_config(s_bar=2.0, d=np.int64(1), max_iter=3.0)
    assert (cfg.s_bar, cfg.d, cfg.max_iter) == (2, 1, 3)
    assert {type(v) for v in (cfg.s_bar, cfg.d, cfg.max_iter)} == {int}
    assert ChunkIndexing(2.0, 1).total_rows == 2
    assert dft_unitary(4.0).shape == (4, 4)
