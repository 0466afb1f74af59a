"""Tests for chunk indexing, selection, least squares, and matrix file I/O."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cspursuit.core import (ChunkIndexing, ChunkSupport, as_matrix, chunk_norms,
                            chunking, frobenius, ls_solve, ls_solve_with_rank,
                            read_matrix, submatrix_by_chunks, top_k_chunks,
                            write_matrix)
from cspursuit.errors import DimensionError, FormatError, SelectionError


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

    def test_set_algebra(self):
        a = ChunkSupport.of([1, 2, 3], K=5)
        b = ChunkSupport.of([3, 4], K=5)
        assert a.union(b).indices == (1, 2, 3, 4)
        assert a.intersection(b).indices == (3,)
        assert a.difference(b).indices == (1, 2)
        assert b.complement().indices == (1, 2, 5)

    def test_universe_mismatch(self):
        with pytest.raises(ValueError):
            ChunkSupport.of([1], K=4).union(ChunkSupport.of([1], K=5))


class TestChunkNorms:
    def test_known_values(self):
        idx = ChunkIndexing(K=2, d=2)
        X = np.array([[3.0], [4.0], [0.0], [2.0]], dtype=complex)
        norms = chunk_norms(X, idx)
        assert norms == pytest.approx([5.0, 2.0])

    def test_multicolumn(self):
        idx = ChunkIndexing(K=1, d=1)
        X = np.array([[3.0, 4.0j]])
        assert chunk_norms(X, idx) == pytest.approx([5.0])

    def test_row_mismatch(self):
        with pytest.raises(DimensionError):
            chunk_norms(np.zeros((3, 1)), ChunkIndexing(K=2, d=2))


class TestTopKChunks:
    def test_basic(self):
        scores = np.array([0.1, 5.0, 3.0, 4.0])
        assert top_k_chunks(scores, 2, [1, 2, 3, 4]) == (2, 4)

    def test_tie_breaks_to_smaller_index(self):
        scores = np.array([1.0, 2.0, 2.0, 2.0])
        assert top_k_chunks(scores, 2, [1, 2, 3, 4]) == (2, 3)

    def test_zero_scores_fill_in_index_order(self):
        scores = np.zeros(5)
        assert top_k_chunks(scores, 3, [5, 4, 3, 2, 1]) == (1, 2, 3)

    def test_restricted_candidates(self):
        scores = np.array([9.0, 1.0, 8.0, 7.0])
        assert top_k_chunks(scores, 2, [2, 3, 4]) == (3, 4)

    def test_k_zero(self):
        assert top_k_chunks(np.array([1.0]), 0, [1]) == ()

    def test_too_few_candidates(self):
        with pytest.raises(SelectionError):
            top_k_chunks(np.array([1.0, 2.0]), 3, [1, 2])


class TestSubmatrixByChunks:
    def test_selects_chunk_columns(self):
        idx = ChunkIndexing(K=3, d=2)
        Phi = np.arange(12, dtype=float).reshape(2, 6) + 0j
        sub = submatrix_by_chunks(Phi, [3, 1], idx)
        assert sub.shape == (2, 4)
        np.testing.assert_array_equal(sub, Phi[:, [0, 1, 4, 5]])

    def test_empty_selection(self):
        idx = ChunkIndexing(K=2, d=1)
        assert submatrix_by_chunks(np.zeros((3, 2)), [], idx).shape == (3, 0)

    def test_column_mismatch(self):
        with pytest.raises(DimensionError):
            submatrix_by_chunks(np.zeros((2, 5)), [1], ChunkIndexing(K=3, d=2))


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
        sol = ls_solve(np.zeros((3, 0)), np.zeros((3, 2)))
        assert sol.shape == (0, 2)

    def test_minimum_norm_solution(self):
        # wide system: lstsq must return the least-norm minimizer
        A = np.array([[1.0, 1.0]], dtype=complex)
        sol = ls_solve(A, np.array([[2.0]], dtype=complex))
        np.testing.assert_allclose(sol, [[1.0], [1.0]], atol=1e-12)

    def test_row_mismatch(self):
        with pytest.raises(DimensionError):
            ls_solve(np.zeros((3, 2)), np.zeros((4, 1)))


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
    out = top_k_chunks(scores, k, range(1, n + 1))
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
    assert top_k_chunks(np.array(scores), k, cand) == want


def test_frobenius_matches_numpy():
    rng = np.random.default_rng(4)
    M = random_complex(rng, (3, 4))
    assert frobenius(M) == pytest.approx(np.linalg.norm(M))
