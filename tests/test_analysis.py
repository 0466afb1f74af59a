"""Tests for isometry-constant computation and the recovery guarantee bounds."""
import dataclasses
import itertools
import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cspursuit import analysis
from cspursuit.analysis import (CONTRACTION_DELTA, BoundConstants, RipQuery,
                                _combinations, _deviation_bounds,
                                _gram_extremes, block_rip_exact,
                                block_rip_montecarlo, channel_recovery_bound,
                                cmsp_constants, isometry_orders, lemma1_check,
                                msp_constants, msp_convergence_bound,
                                msp_distortion_bound, msp_refined_distortion_bound)
from cspursuit.core import ChunkIndexing
from cspursuit.errors import (BoundPreconditionError, DimensionError,
                              EnumerationCapError, NonFiniteError, RipViolationError)
from cspursuit.mimo import MimoScenario, simulate_frames
from cspursuit.oracle import rip_bruteforce_reference
from cspursuit.sparsity import ChunkSparseMatrix, ChunkSupport


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestBlockRipExact:
    def test_orthonormal_is_zero(self):
        rng = np.random.default_rng(0)
        Q, _ = np.linalg.qr(random_complex(rng, (8, 8)))
        assert block_rip_exact(Q, RipQuery(3, 1)) <= 1e-12

    def test_duplicate_column_is_one(self):
        rng = np.random.default_rng(1)
        col = random_complex(rng, (6, 1))
        col = col / np.linalg.norm(col)
        other = random_complex(rng, (6, 1))
        other = other / np.linalg.norm(other)
        Phi = np.hstack([col, col, other])
        assert block_rip_exact(Phi, RipQuery(2, 1)) == pytest.approx(1.0, abs=1e-12)

    def test_two_column_coherence(self):
        # unit columns with inner product rho: delta_2 equals rho exactly
        rho = 0.37
        Phi = np.array([[1.0, rho], [0.0, math.sqrt(1 - rho ** 2)]], dtype=complex)
        assert block_rip_exact(Phi, RipQuery(2, 1)) == pytest.approx(rho, abs=1e-12)

    def test_order_monotone(self):
        rng = np.random.default_rng(2)
        Phi = random_complex(rng, (6, 10)) / np.sqrt(12)
        d1 = block_rip_exact(Phi, RipQuery(1, 1))
        d2 = block_rip_exact(Phi, RipQuery(2, 1))
        d3 = block_rip_exact(Phi, RipQuery(3, 1))
        assert d1 <= d2 <= d3

    def test_values_above_one_reported(self):
        Phi = np.array([[2.0, 0.0], [0.0, 0.5]], dtype=complex)
        d = block_rip_exact(Phi, RipQuery(1, 1))
        assert d == pytest.approx(3.0, abs=1e-12)

    def test_enumeration_cap(self):
        Phi = np.zeros((4, 40), dtype=complex)
        with pytest.raises(EnumerationCapError):
            block_rip_exact(Phi, RipQuery(10, 1), cap=1000)

    def test_chunked_query(self):
        rng = np.random.default_rng(3)
        Phi = random_complex(rng, (8, 12)) / 4.0
        d = block_rip_exact(Phi, RipQuery(2, 2))
        assert d >= 0.0


class TestBlockRipMontecarlo:
    def test_exhaustive_sampling_matches_exact(self):
        rng = np.random.default_rng(4)
        Phi = random_complex(rng, (6, 8)) / np.sqrt(12)
        exact = block_rip_exact(Phi, RipQuery(2, 1))
        mc = block_rip_montecarlo(Phi, RipQuery(2, 1), n_samples=100,
                                  rng=np.random.default_rng(0))
        assert mc == pytest.approx(exact, abs=1e-14)

    def test_sampled_lower_bounds_exact(self):
        rng = np.random.default_rng(5)
        Phi = random_complex(rng, (8, 16)) / 4.0
        exact = block_rip_exact(Phi, RipQuery(3, 1))
        mc = block_rip_montecarlo(Phi, RipQuery(3, 1), n_samples=20,
                                  rng=np.random.default_rng(1))
        assert mc <= exact + 1e-14


@settings(max_examples=60, deadline=None)
@given(M=st.integers(0, 4), d=st.sampled_from([1, 2]), K=st.integers(1, 4),
       k=st.integers(1, 4), seed=st.integers(0, 10**6))
@example(M=0, d=2, K=3, k=2, seed=0)  # no rows: every Gram is zero
@example(M=3, d=2, K=3, k=2, seed=1)  # k*d > M: singular Grams
@example(M=4, d=2, K=4, k=2, seed=2)  # k*d = M
def test_rip_matches_oracle(M, d, K, k, seed):
    # exact and exhaustive Monte-Carlo deltas equal the entry-by-entry
    # Gram reference, with k*d below, at and above the row count M
    k = min(k, K)
    rng = np.random.default_rng(seed)
    Phi = random_complex(rng, (M, K * d)) / np.sqrt(2 * max(M, 1))
    q = RipQuery(k, d)
    reference = rip_bruteforce_reference(Phi, k, d)
    assert block_rip_exact(Phi, q) == pytest.approx(reference, abs=1e-10)
    mc = block_rip_montecarlo(Phi, q, n_samples=math.comb(K, k),
                              rng=np.random.default_rng(seed))
    assert mc == pytest.approx(reference, abs=1e-10)


def test_support_blocks_match_per_support_loop():
    # C(10, 4) = 210 supports are one full block of 128 and a partial one.
    # Chunks 7-10 are scaled up, so the worst support is the last one,
    # (6, 7, 8, 9) 0-based, which falls in the partial block.
    rng = np.random.default_rng(7)
    Phi = random_complex(rng, (6, 10)) / np.sqrt(12)
    Phi[:, 6:] *= 3.0
    q = RipQuery(4, 1)
    idx = ChunkIndexing(10, 1)

    def deviations_of(supports):
        deviations = []
        for chunks in supports:
            lam_max, lam_min = _gram_extremes(
                Phi[:, idx.rows_of(c + 1 for c in chunks)])
            deviations.append(max(lam_max - 1.0, 1.0 - lam_min))
        return deviations

    every = list(itertools.combinations(range(10), 4))
    deviations = deviations_of(every)
    assert len(every) == 210
    assert int(np.argmax(deviations)) == len(every) - 1
    assert block_rip_exact(Phi, q) == pytest.approx(
        rip_bruteforce_reference(Phi, 4, 1), abs=1e-10)

    # the sampled path: the same draws, the first 4 chunks of each of
    # n_samples random permutations, deduplicated and sorted
    n_samples = 209
    order = np.argsort(np.random.default_rng(11).random((n_samples, 10)), axis=1)
    seen = np.unique(np.sort(order[:, :4], axis=1), axis=0)
    assert len(seen) > 128
    mc = block_rip_montecarlo(Phi, q, n_samples=n_samples,
                              rng=np.random.default_rng(11))
    assert mc == pytest.approx(max(deviations_of(seen)), abs=1e-10)


def unpruned_delta(Phi, k, d):
    """delta_{k|d} with every support's Gram sent to eigvalsh: the block
    body of _max_deviation before it skipped Grams by their Frobenius
    bound, kept here as the bit-for-bit reference."""
    phi_h = Phi.conj().T
    delta = 0.0
    supports = itertools.combinations(range(Phi.shape[1] // d), k)
    while block := list(itertools.islice(supports, 128)):
        chunks = np.array(block, dtype=np.intp)
        cols = (chunks.ravel()[:, None] * d + np.arange(d)).reshape(len(block), -1)
        sub_h = phi_h[cols]
        eigs = np.linalg.eigvalsh(sub_h @ sub_h.conj().transpose(0, 2, 1))
        lam_min = 0.0 if cols.shape[1] > Phi.shape[0] else eigs[:, 0].min()
        delta = max(delta, eigs[:, -1].max() - 1.0, 1.0 - lam_min)
    return float(delta)


def rip_instance(kind, M, K, d, seed):
    n = K * d
    if kind == "gaussian":
        rng = np.random.default_rng(seed)
        return random_complex(rng, (M, n)) / np.sqrt(2 * max(M, 1))
    if kind == "duplicate":
        # chunk 1 repeats chunk 0, so supports tie on their bounds
        Phi = rip_instance("gaussian", M, K, d, seed)
        if K > 1:
            Phi[:, d:2 * d] = Phi[:, :d]
        return Phi
    if kind == "identity":
        return np.eye(M, n, dtype=complex)
    # the first M rows of a unitary DFT: orthonormal columns when n <= M
    size = max(M, n)
    dft = np.exp(-2j * np.pi * np.outer(np.arange(size), np.arange(size)) / size)
    return dft[:M, :n] / np.sqrt(size)


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["gaussian", "duplicate", "identity", "dft"]),
       M=st.integers(0, 9), d=st.sampled_from([1, 2]), K=st.integers(1, 10),
       k=st.integers(1, 4), seed=st.integers(0, 10**6))
@example(kind="gaussian", M=0, d=2, K=3, k=2, seed=0)  # no rows
@example(kind="gaussian", M=3, d=2, K=3, k=2, seed=1)  # k*d > M
@example(kind="gaussian", M=4, d=2, K=4, k=2, seed=2)  # k*d = M
@example(kind="gaussian", M=8, d=1, K=10, k=4, seed=3)  # partial last block
@example(kind="dft", M=8, d=2, K=4, k=2, seed=0)  # delta is rounding noise
@example(kind="identity", M=9, d=1, K=9, k=4, seed=0)  # delta is 0
@example(kind="identity", M=7, d=1, K=10, k=4, seed=0)  # zero columns
@example(kind="gaussian", M=9, d=2, K=4, k=4, seed=4)  # k = K, k*d < M
@example(kind="gaussian", M=5, d=1, K=3, k=3, seed=5)  # k = K, one support
# tied bounds straddle the first block's edge
@example(kind="duplicate", M=8, d=1, K=10, k=3, seed=0)
@example(kind="duplicate", M=8, d=2, K=12, k=2, seed=4)
# the benchmark's rip-exact instance
@example(kind="gaussian", M=16, d=2, K=32, k=3, seed=0)
@example(kind="gaussian", M=16, d=2, K=32, k=3, seed=1)
@example(kind="gaussian", M=16, d=2, K=32, k=3, seed=2)
def test_pruned_delta_is_bit_identical(kind, M, d, K, k, seed):
    # skipping Grams by their Frobenius bound never changes delta's bits
    k = min(k, K)
    Phi = rip_instance(kind, M, K, d, seed)
    q = RipQuery(k, d)
    want = unpruned_delta(Phi, k, d)
    assert block_rip_exact(Phi, q) == want
    assert block_rip_montecarlo(Phi, q, n_samples=math.comb(K, k),
                                rng=np.random.default_rng(seed)) == want


def test_frobenius_bound_skips_most_grams(monkeypatch):
    # the rip-exact instance: C(32, 3) = 4960 supports of 6 columns
    Phi = rip_instance("gaussian", 16, 32, 2, 0)
    eigvalsh = np.linalg.eigvalsh
    received = []

    def counting(a, *args, **kwargs):
        received.append(len(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    delta = block_rip_exact(Phi, RipQuery(3, 2))
    monkeypatch.undo()
    assert delta == unpruned_delta(Phi, 3, 2)
    assert 0 < sum(received) <= math.comb(32, 3) // 4


@pytest.mark.parametrize("scale", [1e40, 1e80, 1e140])
def test_overflowing_table_keeps_delta_bits(scale):
    # table entries overflow far below where the Grams themselves do
    Phi = rip_instance("gaussian", 6, 6, 2, 3) * scale
    assert block_rip_exact(Phi, RipQuery(2, 2)) == unpruned_delta(Phi, 2, 2)


@pytest.mark.parametrize("exponent", range(150, 161))
def test_overflowing_phi_is_refused_by_name(exponent):
    # ||Phi||_F^2 bounds every Gram entry of the instance; it overflows from
    # 1e154 on, where the Grams once overflowed into a LinAlgError
    Phi = np.random.default_rng(3).standard_normal((6, 12)) * 10.0 ** exponent
    idx = ChunkIndexing(6, 2)
    X = np.zeros((12, 1))
    X[:4] = 1.0
    entries = [
        lambda: block_rip_exact(Phi, RipQuery(2, 2)),
        lambda: block_rip_montecarlo(Phi, RipQuery(2, 2), 5, np.random.default_rng(0)),
        lambda: lemma1_check(Phi, ChunkSupport.of([1, 2], 6), ChunkSupport.of([4], 6),
                             ChunkSparseMatrix(X, idx), RipQuery(3, 2)),
    ]
    for entry in entries:
        if exponent <= 153:
            entry()
        else:
            with pytest.raises(NonFiniteError, match="^Phi's squared Frobenius norm"):
                entry()


def test_vanishing_phi_is_refused_by_name():
    # every Gram of a Phi whose entries square to 0 is 0, so delta read 1.0
    Phi = np.random.default_rng(3).standard_normal((6, 12)) * 1e-170
    with pytest.raises(NonFiniteError,
                       match="^Phi's squared Frobenius norm underflows a float$"):
        block_rip_exact(Phi, RipQuery(2, 2))


def test_pass_ends_at_the_first_block_that_cannot_reach_delta(monkeypatch):
    # with blocks of 4, supports outside the first block of seed 1's
    # rip-exact instance reach its delta, and the pass stops at the first
    # block with none, before it has visited every sorted block
    monkeypatch.setattr(analysis, "_SUPPORT_BLOCK", 4)
    Phi = rip_instance("gaussian", 16, 32, 2, 1)
    argsort, eigvalsh = np.argsort, np.linalg.eigvalsh
    sorted_sizes, blocks = [], []

    def sorting(a, *args, **kwargs):
        sorted_sizes.append(np.size(a))
        return argsort(a, *args, **kwargs)

    def solving(a, *args, **kwargs):
        blocks.append(len(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", sorting)
    monkeypatch.setattr(np.linalg, "eigvalsh", solving)
    delta = block_rip_exact(Phi, RipQuery(3, 2))
    monkeypatch.undo()
    assert delta == unpruned_delta(Phi, 3, 2)
    (n_sorted,) = sorted_sizes
    assert 1 < len(blocks) < 1 + math.ceil(n_sorted / 4)


@pytest.mark.parametrize("seed", range(10))
def test_rip_exact_instance_takes_one_eigvalsh_block(monkeypatch, seed):
    # on the rip-exact instances of seeds 0-9 no support outside the first
    # block can reach delta, so every seed does the same eigvalsh work
    Phi = rip_instance("gaussian", 16, 32, 2, seed)
    eigvalsh = np.linalg.eigvalsh
    received = []

    def counting(a, *args, **kwargs):
        received.append(len(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    block_rip_exact(Phi, RipQuery(3, 2))
    assert received == [analysis._SUPPORT_BLOCK]


@pytest.mark.parametrize("seed", range(10))
def test_rip_exact_instance_sorts_no_more_than_a_block(monkeypatch, seed):
    # the first block is found by a partition; on the rip-exact instances no
    # support outside it reaches delta, so no sort sees more than a block
    Phi = rip_instance("gaussian", 16, 32, 2, seed)
    argsort = np.argsort
    received = []

    def counting(a, *args, **kwargs):
        received.append(np.size(a))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting)
    delta = block_rip_exact(Phi, RipQuery(3, 2))
    monkeypatch.undo()
    assert delta == unpruned_delta(Phi, 3, 2)
    assert max(received, default=0) <= analysis._SUPPORT_BLOCK


def test_combinations_match_itertools():
    # row for row, K = 1 and k = 1 and k = K included
    for K in range(1, 10):
        for k in range(1, K + 1):
            want = list(itertools.combinations(range(K), k))
            got = _combinations(K, k)
            assert got.shape == (len(want), k)
            assert [tuple(row) for row in got.tolist()] == want


@settings(max_examples=40, deadline=None)
@given(M=st.integers(1, 9), d=st.sampled_from([1, 2]), K=st.integers(1, 8),
       k=st.integers(1, 4), seed=st.integers(0, 10**6))
def test_table_bound_lies_between_the_gram_norms(M, d, K, k, seed):
    # the chunk-pair table bounds each support's ||G_T - I||_2 without its
    # Gram, no looser than ||G_T - I||_F, which it equals at d = 1
    k = min(k, K)
    Phi = rip_instance("gaussian", M, K, d, seed)
    idx, supports = ChunkIndexing(K, d), _combinations(K, k)
    got = _deviation_bounds(Phi, idx, supports)
    for bound, chunks in zip(got, supports):
        sub = Phi[:, idx.rows_of(chunks + 1)]
        deviation = sub.conj().T @ sub - np.eye(k * d)
        spectral, frobenius = np.linalg.norm(deviation, 2), np.linalg.norm(deviation)
        assert spectral <= bound * (1 + 1e-12)
        assert bound <= frobenius * (1 + 1e-12)
        if d == 1:
            assert bound == pytest.approx(frobenius, rel=1e-12)


@pytest.mark.parametrize("kind,M,K,d,k,seed", [
    ("gaussian", 16, 32, 2, 3, 0),  # the rip-exact instance
    ("gaussian", 6, 7, 2, 2, 1),  # partial last block of rows
    ("gaussian", 3, 7, 2, 2, 2),  # k*d > M
    ("dft", 8, 5, 1, 3, 0),  # delta is rounding noise
])
@pytest.mark.parametrize("rows", [1, 2, 3])
def test_row_blocked_table_keeps_delta_bits(monkeypatch, kind, M, K, d, k,
                                            seed, rows):
    # a table built a few chunks' rows of Phi^H Phi at a time gives the same
    # bounds and the same delta as the table built in one block
    Phi = rip_instance(kind, M, K, d, seed)
    idx, supports = ChunkIndexing(K, d), _combinations(K, k)
    assert K <= analysis._TABLE_BLOCK
    whole = _deviation_bounds(Phi, idx, supports)
    want = block_rip_exact(Phi, RipQuery(k, d))
    monkeypatch.setattr(analysis, "_TABLE_BLOCK", rows)
    # the dft bounds are rounding noise, so absolute differences count too
    np.testing.assert_allclose(_deviation_bounds(Phi, idx, supports), whole,
                               rtol=1e-12, atol=1e-14)
    assert block_rip_exact(Phi, RipQuery(k, d)) == want


@pytest.mark.parametrize("T", [24, 40])
def test_guarantees_do_not_cover_criterion_08_frames(T):
    """A sampled delta_8 is a lower bound on delta_8, and deltas grow with
    the order, so it also bounds msp's governing delta (order s2 = 20) and
    cmsp's (3 s_bar + s_c = 28) from below. On the measured frame of
    criterion 08's first trial it is past the contraction threshold, so
    neither pursuit's guarantee applies at these pilot lengths."""
    scenario = MimoScenario(M=64, N_ue=2, T=T, P=10 ** 2.5, s_bar=8, s_c=4)
    Phi = simulate_frames(scenario, 2, np.random.default_rng(0))[1][2]
    lower = block_rip_montecarlo(Phi, RipQuery(8, 1), 200,
                                 np.random.default_rng(0))
    assert lower >= CONTRACTION_DELTA
    # the least value every delta of order >= 8 can take in the domain [0, 1)
    # of the constants
    delta = min(lower, np.nextafter(1.0, 0.0))
    assert not msp_constants(delta, delta, delta, s_bar=8, t0_size=8,
                             s_c=4).valid
    assert not cmsp_constants(delta, delta, delta, delta, s_bar=8, s_c=4,
                              t0_size=8).valid


class TestConstantShapes:
    def test_zero_delta_modified(self):
        con = msp_constants(0.0, 0.0, 0.0, s_bar=2, t0_size=2, s_c=1)
        assert con.c1 == 0.0
        assert con.c2 == pytest.approx(5.0)
        assert con.c4 == pytest.approx(6.0)
        assert con.valid

    def test_zero_delta_conservative(self):
        con = cmsp_constants(0.0, 0.0, 0.0, 0.0, s_bar=2, s_c=1, t0_size=2)
        assert con.c5 == 0.0
        assert con.c6 == pytest.approx(5.0)
        assert con.c7 == pytest.approx(6.0)
        assert con.valid

    def test_contraction_threshold(self):
        below = msp_constants(0.0, 0.0, 0.246 - 1e-12, s_bar=2, t0_size=2, s_c=1)
        assert below.c1 < 1.0
        above = msp_constants(0.0, 0.0, 0.25, s_bar=2, t0_size=2, s_c=1)
        assert above.c1 > 1.0
        assert not above.valid

    def test_frozen_contraction_values(self):
        c = msp_constants(0.0, 0.0, 0.246, s_bar=2, t0_size=2, s_c=1)
        assert c.c1 == pytest.approx(0.9925069093799693, abs=1e-12)
        c = msp_constants(0.0, 0.0, 0.25, s_bar=2, t0_size=2, s_c=1)
        assert c.c1 == pytest.approx(1.0243938285880985, abs=1e-12)
        c = msp_constants(0.0, 0.0, 0.1, s_bar=2, t0_size=2, s_c=1)
        assert c.c1 == pytest.approx(0.25160966326631107, abs=1e-12)

    def test_reduced_orders(self):
        con = msp_constants(0.0, 0.0, 0.0, s_bar=2, t0_size=2, s_c=1)
        assert con.s1 == 4 and con.s2 == 5
        con = msp_constants(0.0, 0.0, 0.0, s_bar=2, t0_size=4, s_c=1)
        assert con.s1 == 4 and con.s2 == 6

    def test_conservative_order(self):
        con = cmsp_constants(0.0, 0.0, 0.0, 0.0, s_bar=2, s_c=1, t0_size=2)
        assert con.s3 == 7  # 3*s_bar + s_c, overlap unknown
        con = cmsp_constants(0.0, 0.0, 0.0, 0.0, s_bar=2, s_c=1, t0_size=2,
                             overlap=2)
        assert con.s3 == 6  # 3*2 + 1 + min(0, 2 - 2 - 1)
        # whole floats are read as their ints, so the order stays an int
        con = cmsp_constants(0.0, 0.0, 0.0, 0.0, s_bar=2, s_c=1.0, t0_size=2.0,
                             overlap=2.0)
        assert con.s3 == 6 and type(con.s3) is int

    def test_delta_out_of_range(self):
        with pytest.raises(RipViolationError):
            msp_constants(0.0, 0.0, 1.0, s_bar=2, t0_size=2, s_c=1)
        with pytest.raises(RipViolationError):
            msp_constants(-0.1, 0.0, 0.0, s_bar=2, t0_size=2, s_c=1)

    def test_c3_needs_contraction(self):
        con = msp_constants(0.0, 0.0, 0.25, s_bar=2, t0_size=2, s_c=1)
        with pytest.raises(RipViolationError):
            con.c3(1)

    def test_c3_zero_delta(self):
        con = msp_constants(0.0, 0.0, 0.0, s_bar=2, t0_size=2, s_c=1)
        # c1=0, c2=5: geo=5, value (0 - 4 + ... ) -> (0*(1-5) + 5 + 1) = 6
        assert con.c3(1) == pytest.approx(6.0)


class TestDistortionBounds:
    def test_zero_delta_plain(self):
        con = msp_constants(0.0, 0.0, 0.0, s_bar=2, t0_size=2, s_c=1)
        assert msp_distortion_bound(con, 0.1, 0.05) == pytest.approx(
            max(6 * 0.05, 0.15))

    def test_invalid_raises(self):
        con = msp_constants(0.0, 0.0, 0.25, s_bar=2, t0_size=2, s_c=1)
        with pytest.raises(RipViolationError):
            msp_distortion_bound(con, 0.1, 0.05)

    def test_refined_gate(self):
        con = msp_constants(0.0, 0.0, 0.0, s_bar=2, t0_size=2, s_c=1)
        plain = msp_distortion_bound(con, 0.1, 0.05)
        refined = msp_refined_distortion_bound(con, 0.1, 0.05, plain * 2)
        assert refined == pytest.approx(0.05)
        with pytest.raises(BoundPreconditionError):
            msp_refined_distortion_bound(con, 0.1, 0.05, plain * 0.5)

    def test_conservative_counterparts(self):
        con = cmsp_constants(0.0, 0.0, 0.0, 0.0, s_bar=2, s_c=1, t0_size=2)
        assert msp_distortion_bound(con, 0.1, 0.05) == pytest.approx(
            max(6 * 0.05, 0.15))
        refined = msp_refined_distortion_bound(con, 0.1, 0.05, 1.0)
        assert refined == pytest.approx(0.05)
        with pytest.raises(BoundPreconditionError):
            msp_refined_distortion_bound(con, 0.1, 0.05, 0.01)


def test_bounds_read_the_pursuit_off_the_constants():
    gamma, eta = 0.1, 0.05
    cons = cmsp_constants(0.05, 0.1, 0.12, 0.2, s_bar=2, s_c=1, t0_size=2)
    assert msp_distortion_bound(cons, gamma, eta) == pytest.approx(
        max(cons.c7 * eta, (gamma + eta) / math.sqrt(1.0 - cons.delta["2s_bar"])))
    mod = msp_constants(0.05, 0.1, 0.2, s_bar=2, t0_size=2, s_c=1)
    n = msp_convergence_bound(mod, gamma=0.3, eta=0.001, rho=100.0)
    assert n > 0.0
    bad = cmsp_constants(0.0, 0.0, 0.0, 0.3, s_bar=2, s_c=1, t0_size=2)
    with pytest.raises(RipViolationError, match="delta_s3"):
        msp_distortion_bound(bad, gamma, eta)


class TestConvergenceBound:
    def test_known_logarithm(self):
        base = msp_constants(0.0, 0.0, 0.0, s_bar=2, t0_size=2, s_c=1)
        con = dataclasses.replace(base, c1=0.5)
        # eta = 0: iterate count log_{1/2}(gamma / sqrt(rho))
        n = msp_convergence_bound(con, gamma=0.01, eta=0.0, rho=1.0)
        assert n == pytest.approx(math.log(0.01) / math.log(0.5), abs=1e-12)
        assert n == pytest.approx(6.6438561897747395, abs=1e-12)

    def test_zero_contraction_returns_zero(self):
        con = msp_constants(0.0, 0.0, 0.0, s_bar=2, t0_size=2, s_c=1)
        assert msp_convergence_bound(con, gamma=0.5, eta=0.01, rho=1.0) == 0.0

    def test_gamma_precondition(self):
        base = msp_constants(0.0, 0.0, 0.0, s_bar=2, t0_size=2, s_c=1)
        con = dataclasses.replace(base, c1=0.5)
        # floor = c2 eta / (1 - c1) = 5 * 0.1 / 0.5 = 1.0
        with pytest.raises(BoundPreconditionError, match="gamma"):
            msp_convergence_bound(con, gamma=0.9, eta=0.1, rho=100.0)

    def test_rho_precondition(self):
        base = msp_constants(0.0, 0.0, 0.0, s_bar=2, t0_size=2, s_c=1)
        con = dataclasses.replace(base, c1=0.5)
        # rho gate = ((5 + 0.5 - 1)/0.5 * eta)^2 = (9 eta)^2 = 0.81 at eta=0.1
        with pytest.raises(BoundPreconditionError, match="rho"):
            msp_convergence_bound(con, gamma=2.0, eta=0.1, rho=0.5)

    def test_loose_gamma_needs_no_iterations(self):
        base = msp_constants(0.0, 0.0, 0.0, s_bar=2, t0_size=2, s_c=1)
        con = dataclasses.replace(base, c1=0.5)
        assert msp_convergence_bound(con, gamma=10.0, eta=0.0, rho=1.0) == 0.0

    def test_conservative_route(self):
        base = cmsp_constants(0.0, 0.0, 0.0, 0.0, s_bar=2, s_c=1, t0_size=2)
        con = dataclasses.replace(base, c5=0.5)
        n = msp_convergence_bound(con, gamma=0.01, eta=0.0, rho=1.0)
        assert n == pytest.approx(math.log(0.01) / math.log(0.5), abs=1e-12)


class TestChannelBound:
    def test_gamma_ratio_against_direct_evaluation(self):
        # prefactor 1 and zero threshold isolate (c4 + 1) * Gamma ratio
        nt = 104
        out = channel_recovery_bound(0.0, 6.0, 0.0, M=104, N_ue=4, T=26, P=4.0)
        ratio = out / 7.0
        direct = math.gamma(nt + 0.5) / math.gamma(nt)
        assert ratio == pytest.approx(direct, rel=1e-6)
        assert ratio == pytest.approx(math.sqrt(nt - 0.25), rel=1e-3)

    def test_threshold_term(self):
        base = channel_recovery_bound(0.0, 6.0, 0.0, M=16, N_ue=2, T=16, P=1.0)
        with_gamma = channel_recovery_bound(0.0, 6.0, 2.0, M=16, N_ue=2, T=16, P=1.0)
        assert with_gamma - base == pytest.approx(math.sqrt(16 / 16) * 2.0)

    def test_rip_gate(self):
        with pytest.raises(RipViolationError):
            channel_recovery_bound(0.246, 6.0, 0.0, M=16, N_ue=2, T=16, P=1.0)

    def test_bad_power(self):
        with pytest.raises(ValueError):
            channel_recovery_bound(0.1, 6.0, 0.0, M=16, N_ue=2, T=16, P=0.0)

    def test_nan_power(self):
        # nan passes a P <= 0 test and would make the bound nan
        with pytest.raises(ValueError, match="P must be positive"):
            channel_recovery_bound(0.1, 6.0, 0.0, M=16, N_ue=2, T=16,
                                   P=float("nan"))

    def test_infinite_power(self):
        # an infinite P would give a bound of 0
        with pytest.raises(ValueError, match="^P must be positive and finite, got inf$"):
            channel_recovery_bound(0.1, 2.0, 1.0, 64, 2, 24, float("inf"))

    def test_power_whose_product_with_T_overflows(self):
        # a finite P with P T past every float gave a bound of 0; a float32
        # P overflows in its own type, an int P T past every float in none
        with pytest.raises(ValueError, match=re.escape(
                "P * T overflows a float at P = 1e+307, T = 24")):
            channel_recovery_bound(0.1, 6.0, 0.5, M=64, N_ue=2, T=24, P=1e307)
        for P in (np.float32(3e38), 10 ** 307):
            with pytest.raises(ValueError, match=r"^P \* T overflows a float at P = "):
                channel_recovery_bound(0.1, 6.0, 0.5, M=64, N_ue=2, T=24, P=P)
        # an int P past every float is refused before its product
        with pytest.raises(ValueError, match=r"^P = 10{400} does not fit a float$"):
            channel_recovery_bound(0.1, 6.0, 0.5, M=64, N_ue=2, T=24, P=10 ** 400)
        assert channel_recovery_bound(0.1, 6.0, 0.5, M=64, N_ue=2, T=24,
                                      P=1e306) == pytest.approx(8.05e-152, rel=1e-3)

    def test_non_number_power(self):
        # a comparison with a str raises a TypeError naming no argument
        with pytest.raises(ValueError, match="^P must be positive and finite, got 'a'$"):
            channel_recovery_bound(0.1, 2.0, 1.0, 64, 2, 24, "a")


class TestLemma1:
    def _instance(self, seed=0, K=6, d=1, M=None):
        rng = np.random.default_rng(seed)
        M = M or 2 * K * d
        Phi = random_complex(rng, (M, K * d)) / np.sqrt(2 * M)
        T1 = ChunkSupport.of([1, 2], K)
        T2 = ChunkSupport.of([4], K)
        idx = ChunkIndexing(K, d)
        X = np.zeros((K * d, 1), dtype=complex)
        X[idx.rows_of(T1), :] = random_complex(rng, (2 * d, 1))
        return Phi, T1, T2, ChunkSparseMatrix(X, idx)

    def test_all_checks_pass(self):
        Phi, T1, T2, X = self._instance()
        rep = lemma1_check(Phi, T1, T2, X, RipQuery(3, 1))
        assert rep.all_pass
        assert len(rep.checks) == 5
        names = {c.name for c in rep.checks}
        assert names == {"order_monotonicity", "gram_eigenvalue_sandwich",
                         "pseudoinverse_norm", "cross_gram", "projection_leakage"}

    def test_combined_order_too_small(self):
        Phi, T1, T2, X = self._instance()
        with pytest.raises(ValueError, match="T1"):
            lemma1_check(Phi, T1, T2, X, RipQuery(2, 1))

    def test_overlapping_supports_rejected(self):
        Phi, T1, _, X = self._instance()
        with pytest.raises(ValueError):
            lemma1_check(Phi, T1, ChunkSupport.of([2, 4], 6), X, RipQuery(4, 1))

    def test_x_outside_t1_rejected(self):
        Phi, T1, T2, _ = self._instance()
        idx = ChunkIndexing(6, 1)
        bad = np.zeros((6, 1), dtype=complex)
        bad[5, 0] = 1.0
        with pytest.raises(ValueError):
            lemma1_check(Phi, T1, T2, ChunkSparseMatrix(bad, idx), RipQuery(3, 1))

    def test_vacuous_pinv_when_delta_above_one(self):
        # duplicated columns inside T1 push delta_{|T1|} to 1; rhs goes inf
        rng = np.random.default_rng(7)
        col = random_complex(rng, (6, 1))
        col = col / np.linalg.norm(col)
        rest = random_complex(rng, (6, 2)) / np.sqrt(12)
        Phi = np.hstack([col, 1.0001 * col, rest])
        T1 = ChunkSupport.of([1, 2], 4)
        T2 = ChunkSupport.of([3], 4)
        idx = ChunkIndexing(4, 1)
        X = np.zeros((4, 1), dtype=complex)
        X[0, 0] = 1.0
        rep = lemma1_check(Phi, T1, T2, ChunkSparseMatrix(X, idx), RipQuery(3, 1))
        pinv = next(c for c in rep.checks if c.name == "pseudoinverse_norm")
        assert math.isinf(pinv.rhs)
        assert pinv.passed

    def test_block_height_two(self):
        Phi, T1, T2, X = self._instance(seed=9, K=4, d=2)
        rep = lemma1_check(Phi, T1, T2, X, RipQuery(3, 2))
        assert rep.all_pass


def _lemma1(**changes):
    """lemma1_check on TestLemma1's instance, with some arguments replaced."""
    Phi, T1, T2, X = TestLemma1()._instance()
    args = dict(Phi=Phi, T1=T1, T2=T2, X=X, q=RipQuery(3, 1))
    args.update(changes)
    return lemma1_check(**args)


# hand-built constants that are neither pursuit's set: no c1, so read as
# conservative with no c5, c6, c7 or delta_2s_bar; c1 without c2 and c4
_LACKING_C1 = BoundConstants(delta={"s_bar": 0.0}, valid=True)
_LACKING_C2 = BoundConstants(delta={"s_bar": 0, "s1": 0, "s2": 0}, c1=0.1,
                             valid=True)
# valid constants for the noise-input guards
_MSP = msp_constants(0.0, 0.05, 0.1, s_bar=2, t0_size=2, s_c=1)


@pytest.mark.parametrize("call,error,pattern", [
    (lambda: RipQuery(k=0, d=1), ValueError, "k must be positive, got 0"),
    (lambda: block_rip_exact(np.eye(4, dtype=complex), RipQuery(5, 1)),
     DimensionError, "k=5 exceeds K=4"),
    (lambda: block_rip_montecarlo(np.eye(4, dtype=complex), RipQuery(2, 1),
                                  0, np.random.default_rng(0)),
     ValueError, "n_samples must be positive"),
    (lambda: msp_constants(0.0, 0.0, 0.0, s_bar=2, t0_size=1, s_c=2),
     ValueError, r"s_c <= \|T0\|"),
    (lambda: cmsp_constants(0.0, 0.0, 0.0, 0.0, s_bar=2, s_c=2, t0_size=1),
     ValueError, r"s_c <= \|T0\|"),
    (lambda: cmsp_constants(0.0, 0.0, 0.0, 0.0, s_bar=2, s_c=1, t0_size=2,
                            overlap=3),
     ValueError, r"overlap must be in 0..\|T0\|"),
    (lambda: cmsp_constants(0.0, 0.0, 0.0, 0.0, s_bar=2, s_c=1,
                            t0_size=2).c3(1),
     ValueError, "c3 needs the modified-pursuit constants"),
    (lambda: msp_convergence_bound(dataclasses.replace(
        msp_constants(0.0, 0.0, 0.0, s_bar=2, t0_size=2, s_c=1), c1=1.5),
        0.5, 0.0, 1.0),
     RipViolationError, "contraction factor 1.5 >= 1"),
    (lambda: channel_recovery_bound(0.1, 6.0, 0.0, M=0, N_ue=2, T=16, P=1.0),
     ValueError, "M must be positive, got 0"),
    # an int past every float compares below inf, and then overflowed in
    # the arithmetic, naming no argument
    (lambda: channel_recovery_bound(0.1, 6.0, 10 ** 400, M=64, N_ue=2, T=24, P=1.0),
     BoundPreconditionError, r"^gamma = 10{400} does not fit a float$"),
    (lambda: msp_distortion_bound(msp_constants(0, 0, 0, s_bar=2, t0_size=2, s_c=1),
                                  10 ** 400, 0.1),
     BoundPreconditionError, r"^gamma = 10{400} does not fit a float$"),
    # a Decimal is no numbers.Real: as a bound's gamma it compared with 0
    # and inf and then raised a bare TypeError in the float arithmetic, and
    # the one number check refuses it at every argument it reads
    (lambda: channel_recovery_bound(0.1, 6.0, Decimal("0.5"), M=64, N_ue=2, T=24,
                                    P=1.0),
     BoundPreconditionError,
     re.escape("gamma = Decimal('0.5') is negative or not finite")),
    (lambda: msp_constants(Decimal("0.1"), 0.1, 0.1, 2, 2, 1), RipViolationError,
     re.escape("delta_s_bar must be nonnegative, got Decimal('0.1')")),
    (lambda: channel_recovery_bound(0.1, 6.0, 0.5, M=64, N_ue=2, T=24,
                                    P=Decimal("1")),
     ValueError, re.escape("P must be positive and finite, got Decimal('1')")),
    (lambda: msp_distortion_bound(_LACKING_C1, 1.0, 0.1),
     BoundPreconditionError, "lack a term of cmsp_constants"),
    (lambda: msp_convergence_bound(_LACKING_C1, 1.0, 0.1, 1.0),
     BoundPreconditionError, "lack a term of cmsp_constants"),
    (lambda: msp_distortion_bound(_LACKING_C2, 1.0, 0.1),
     BoundPreconditionError, "lack a term of msp_constants"),
    (lambda: msp_convergence_bound(_LACKING_C2, 1.0, 0.1, 1.0),
     BoundPreconditionError, "lack a term of msp_constants"),
    (lambda: _lemma1(T2=ChunkSupport.of([4], 7)),
     DimensionError, "support universes must equal K=6"),
    (lambda: _lemma1(T1=ChunkSupport.empty(6)), ValueError,
     "T1 and T2 must be nonempty"),
    (lambda: _lemma1(q=RipQuery(7, 1)), DimensionError, "q.k=7 exceeds K=6"),
    (lambda: _lemma1(X=ChunkSparseMatrix(np.zeros((6, 1)),
                                         ChunkIndexing(3, 2))),
     DimensionError, "X indexing must match"),
    # the prior's shape is checked where both constants functions and
    # bounds --matrix read the orders
    (lambda: isometry_orders(0, 0, 0), ValueError, r"s_c <= \|T0\|"),
    (lambda: isometry_orders(2, 3, 2), ValueError, r"s_c <= \|T0\|"),
    (lambda: msp_distortion_bound(_MSP, 0.5, -1.0), BoundPreconditionError,
     "eta = -1.0 is negative or not finite"),
    (lambda: msp_distortion_bound(_MSP, -1.0, 0.01), BoundPreconditionError,
     "gamma = -1.0 is negative or not finite"),
    (lambda: msp_distortion_bound(_MSP, math.nan, 0.01),
     BoundPreconditionError, "gamma = nan is negative or not finite"),
    (lambda: msp_convergence_bound(_MSP, 1.0, 1e300, 2.0),
     BoundPreconditionError, r"rho > .* violated: 2.0 <= inf"),
    (lambda: msp_convergence_bound(_MSP, 1.0, 1e-3, math.inf),
     BoundPreconditionError, "rho = inf is negative or not finite"),
    (lambda: channel_recovery_bound(0.1, 6.0, -1.0, M=16, N_ue=2, T=8, P=1.0),
     BoundPreconditionError, "gamma = -1.0 is negative or not finite"),
    (lambda: channel_recovery_bound(0.1, -5.0, 1.0, M=16, N_ue=2, T=16, P=1.0),
     BoundPreconditionError, "c4 = -5.0 is negative or not finite"),
    (lambda: channel_recovery_bound(0.1, math.nan, 1.0, M=16, N_ue=2, T=16,
                                    P=1.0),
     BoundPreconditionError, "c4 = nan is negative or not finite"),
    (lambda: msp_refined_distortion_bound(_MSP, 1.0, 0.01, math.inf),
     BoundPreconditionError, "min_chunk_energy = inf is negative or not finite"),
    # a non-number is refused by name, where it once raised a bare TypeError
    *[(call, BoundPreconditionError, f"^{name} = {value!r} is negative or not finite$")
      for value in ("abc", None)
      for name, call in [
          ("gamma", lambda v=value: msp_distortion_bound(_MSP, v, 0.01)),
          ("eta", lambda v=value: msp_distortion_bound(_MSP, 0.5, v)),
          ("rho", lambda v=value: msp_convergence_bound(_MSP, 1.0, 1e-3, v)),
          ("c4", lambda v=value: channel_recovery_bound(
              0.1, v, 1.0, M=16, N_ue=2, T=16, P=1.0)),
          ("min_chunk_energy",
           lambda v=value: msp_refined_distortion_bound(_MSP, 1.0, 0.01, v)),
      ]],
    # a delta that is not a number is refused by name, where "0.1" once
    # passed and None or "abc" raised a bare TypeError or ValueError
    *[(call, RipViolationError, f"^delta_{name} must be nonnegative, got {value!r}$")
      for value in ("0.1", None, "abc")
      for name, call in [
          ("s_bar", lambda v=value: msp_constants(v, 0.1, 0.1, 2, 2, 1)),
          ("s2", lambda v=value: msp_constants(0.1, 0.1, v, 2, 2, 1)),
          ("2s_bar_plus_s_c",
           lambda v=value: cmsp_constants(0.1, 0.1, v, 0.1, s_bar=2, s_c=1, t0_size=2)),
          ("s2", lambda v=value: channel_recovery_bound(
              v, 1.0, 1.0, M=16, N_ue=2, T=16, P=1.0)),
      ]],
    # an array is refused by name, where it once reached numpy's bare
    # ValueError on its truth value
    (lambda: msp_constants(np.array([0.1, 0.2]), 0.1, 0.1, 2, 2, 1), RipViolationError,
     r"^delta_s_bar must be nonnegative, got array\(\[0\.1, 0\.2\]\)$"),
    (lambda: msp_constants(0.1, -0.1, 0.1, 2, 2, 1), RipViolationError,
     "^delta_s1 must be nonnegative, got -0.1$"),
    (lambda: cmsp_constants(0.1, 0.1, 0.1, math.nan, s_bar=2, s_c=1, t0_size=2),
     RipViolationError, "^delta_3s_bar_plus_s_c must be nonnegative, got nan$"),
    (lambda: channel_recovery_bound(1.0, 1.0, 1.0, M=16, N_ue=2, T=16, P=1.0),
     RipViolationError, r"^delta_s2 = 1.0 outside \[0, 1\)$"),
    # finite inputs whose bound is past every float
    (lambda: msp_distortion_bound(_MSP, 1.0, 1e308), BoundPreconditionError,
     r"distortion bound overflows a float at gamma = 1.0, eta = 1e\+308"),
    (lambda: msp_distortion_bound(_MSP, 1e308, 1e308), BoundPreconditionError,
     "distortion bound overflows a float"),
    (lambda: msp_refined_distortion_bound(_MSP, 1.0, 1e308, 1.0),
     BoundPreconditionError, "distortion bound overflows a float"),
    (lambda: msp_distortion_bound(
        cmsp_constants(0.0, 0.0, 0.0, 0.0, s_bar=2, s_c=1, t0_size=2),
        1.0, 1e308),
     BoundPreconditionError, "distortion bound overflows a float"),
    (lambda: channel_recovery_bound(0.1, 6.0, 1e308, M=64, N_ue=2, T=1,
                                    P=1e-3),
     BoundPreconditionError,
     r"channel bound overflows a float at gamma = 1e\+308, P = 0.001"),
    (lambda: channel_recovery_bound(0.1, 6.0, 1.0, M=16, N_ue=2, T=8,
                                    P=1e-320),
     BoundPreconditionError, "channel bound overflows a float at .*P = 1e-320"),
])
def test_guards(call, error, pattern):
    with pytest.raises(error, match=pattern):
        call()


@pytest.mark.parametrize("real", [Fraction(1, 2), np.float64(0.5), np.float32(0.5)])
def test_real_numbers_that_are_not_floats_are_taken(real):
    # the number check refuses a Decimal but takes every real number
    want = channel_recovery_bound(0.1, 6.0, 0.5, M=64, N_ue=2, T=24, P=1.0)
    assert channel_recovery_bound(0.1, 6.0, real, M=64, N_ue=2, T=24,
                                  P=real * 2) == want
    assert msp_constants(real / 10, 0.1, 0.1, 2, 2, 1) == msp_constants(
        float(real / 10), 0.1, 0.1, 2, 2, 1)
