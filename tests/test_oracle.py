"""Tests for the exhaustive-search references used to cross-check the library."""
import numpy as np
import pytest

from cspursuit import core
from cspursuit.analysis import RipQuery, block_rip_exact
from cspursuit.errors import DimensionError, EnumerationCapError, SelectionError
from cspursuit.oracle import exhaustive_best_support, rip_bruteforce_reference
from cspursuit.sparsity import ChunkSupport


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestExhaustiveBestSupport:
    def test_finds_planted_support(self):
        rng = np.random.default_rng(0)
        K, M = 10, 8
        Phi = random_complex(rng, (M, K)) / np.sqrt(2 * M)
        x = np.zeros((K, 1), dtype=complex)
        x[[1, 6], 0] = 1.0 + 1j
        T = exhaustive_best_support(Phi @ x, Phi, s=2, d=1)
        assert T.indices == (2, 7)

    def test_multicolumn(self):
        rng = np.random.default_rng(1)
        K, M, L = 8, 6, 3
        Phi = random_complex(rng, (M, K)) / np.sqrt(2 * M)
        X = np.zeros((K, L), dtype=complex)
        X[[0, 4], :] = random_complex(rng, (2, L))
        T = exhaustive_best_support(Phi @ X, Phi, s=2, d=1)
        assert T.indices == (1, 5)

    def test_chunked(self):
        rng = np.random.default_rng(2)
        K, d, M = 5, 2, 8
        Phi = random_complex(rng, (M, K * d)) / np.sqrt(2 * M)
        X = np.zeros((K * d, 1), dtype=complex)
        X[[2, 3], 0] = 1.0  # chunk 2
        T = exhaustive_best_support(Phi @ X, Phi, s=1, d=d)
        assert T.indices == (2,)

    def test_runs_none_of_the_package_least_squares(self, monkeypatch):
        # the reference checks the package's solver, so it must not call it
        def refuse(*_):
            raise AssertionError("the oracle reached the package's least squares")
        monkeypatch.setattr(core, "_lstsq_stack", refuse)
        rng = np.random.default_rng(0)
        Phi = random_complex(rng, (8, 10)) / 4.0
        T = exhaustive_best_support(Phi[:, [1, 6]].sum(axis=1, keepdims=True),
                                    Phi, s=2, d=1)
        assert T.indices == (2, 7)

    def test_constraint_filters_supports(self):
        rng = np.random.default_rng(3)
        K, M = 8, 6
        Phi = random_complex(rng, (M, K)) / np.sqrt(2 * M)
        x = np.zeros((K, 1), dtype=complex)
        x[[1, 6], 0] = 1.0
        T0 = ChunkSupport.of([3, 4], K)
        # force one chunk from T0 even though the best support avoids it
        T = exhaustive_best_support(Phi @ x, Phi, s=2, d=1, constraint=(T0, 1))
        assert len(set(T) & {3, 4}) >= 1

    def test_unsatisfiable_constraint(self):
        rng = np.random.default_rng(4)
        Phi = random_complex(rng, (4, 6)) / 3.0
        Y = random_complex(rng, (4, 1))
        T0 = ChunkSupport.of([1], 6)
        with pytest.raises(SelectionError):
            exhaustive_best_support(Y, Phi, s=2, d=1, constraint=(T0, 2))

    def test_lexicographic_tie_break(self):
        # zero measurements: every support fits perfectly, first one wins
        Phi = np.eye(6, dtype=complex)
        Y = np.zeros((6, 1), dtype=complex)
        T = exhaustive_best_support(Y, Phi, s=2, d=1)
        assert T.indices == (1, 2)

    def test_invalid_sparsity(self):
        Phi = np.eye(4, dtype=complex)
        Y = np.zeros((4, 1), dtype=complex)
        with pytest.raises(SelectionError):
            exhaustive_best_support(Y, Phi, s=0, d=1)
        with pytest.raises(SelectionError):
            exhaustive_best_support(Y, Phi, s=5, d=1)

    def test_enumeration_cap(self):
        Phi = np.zeros((4, 30), dtype=complex)
        Y = np.zeros((4, 1), dtype=complex)
        with pytest.raises(EnumerationCapError):
            exhaustive_best_support(Y, Phi, s=8, d=1, cap=1000)


class TestRipBruteforce:
    def test_agrees_with_submatrix_route(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            K, M = 8, 6
            Phi = random_complex(rng, (M, K)) / np.sqrt(2 * M)
            a = rip_bruteforce_reference(Phi, k=2, d=1)
            b = block_rip_exact(Phi, RipQuery(2, 1))
            assert a == pytest.approx(b, abs=1e-10)

    def test_agrees_with_chunks(self):
        rng = np.random.default_rng(11)
        K, d, M = 5, 2, 8
        Phi = random_complex(rng, (M, K * d)) / np.sqrt(2 * M)
        a = rip_bruteforce_reference(Phi, k=2, d=d)
        b = block_rip_exact(Phi, RipQuery(2, d))
        assert a == pytest.approx(b, abs=1e-10)

    def test_orthonormal_zero(self):
        rng = np.random.default_rng(12)
        Q, _ = np.linalg.qr(random_complex(rng, (6, 6)))
        assert rip_bruteforce_reference(Q, k=2, d=1) <= 1e-12

    def test_duplicate_column_one(self):
        rng = np.random.default_rng(13)
        col = random_complex(rng, (5, 1))
        col = col / np.linalg.norm(col)
        Phi = np.hstack([col, col])
        assert rip_bruteforce_reference(Phi, k=2, d=1) == pytest.approx(1.0, abs=1e-12)

    def test_cap(self):
        Phi = np.zeros((4, 40), dtype=complex)
        with pytest.raises(EnumerationCapError):
            rip_bruteforce_reference(Phi, k=10, d=1, cap=100)


@pytest.mark.parametrize("call,error,pattern", [
    (lambda: exhaustive_best_support(np.zeros((3, 1)), np.eye(4), 1, 1),
     DimensionError, "Y has 3 rows, Phi has 4"),
    # a T0 of another universe, inside this one's chunks and outside them
    (lambda: exhaustive_best_support(np.zeros((10, 1)), np.eye(10), 1, 1,
                                     constraint=(ChunkSupport.of([1], 30), 1)),
     DimensionError, "constraint universe 30 != K=10"),
    (lambda: exhaustive_best_support(np.zeros((10, 1)), np.eye(10), 1, 1,
                                     constraint=(ChunkSupport.of([20], 30), 1)),
     DimensionError, "constraint universe 30 != K=10"),
    (lambda: rip_bruteforce_reference(np.eye(4), 5, 1),
     DimensionError, "k must be in 1..4, got 5"),
])
def test_guards(call, error, pattern):
    with pytest.raises(error, match=pattern):
        call()
