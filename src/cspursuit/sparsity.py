"""Chunk-sparse signal model: support types, prior support information,
and random generators for signals and temporally correlated support
sequences.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import (ChunkIndexing, ChunkSupport, _chunk_norms, _whole, _whole_fields,
                   as_matrix)
from .errors import DimensionError, GenerationError, PriorInfoError

__all__ = [
    "ChunkSparseMatrix",
    "PriorSupportInfo",
    "SupportEvolutionParams",
    "chunk_support",
    "generate_chunk_sparse",
    "generate_support_sequence",
]


@dataclass(frozen=True, eq=False)
class ChunkSparseMatrix:
    """A K*d x L complex matrix together with its chunk indexing."""

    data: np.ndarray
    idx: ChunkIndexing

    def __post_init__(self) -> None:
        data = as_matrix(self.data, "data")
        if data.shape[0] != self.idx.total_rows:
            raise DimensionError(
                f"data has {data.shape[0]} rows, indexing needs {self.idx.total_rows}")
        object.__setattr__(self, "data", data)


@dataclass(frozen=True)
class PriorSupportInfo:
    """A believed support T0 with a guaranteed floor s_c on |T0 ∩ T|."""

    T0: ChunkSupport
    s_c: int

    def __post_init__(self) -> None:
        _whole_fields(self, PriorInfoError, s_c=0)
        if self.s_c > len(self.T0):
            raise PriorInfoError(
                f"s_c <= |T0| violated: s_c={self.s_c}, |T0|={len(self.T0)}")

    @classmethod
    def empty(cls, K: int) -> "PriorSupportInfo":
        """The no-information prior (T0 empty, s_c = 0)."""
        return cls(ChunkSupport.empty(K), 0)


@dataclass(frozen=True)
class SupportEvolutionParams:
    """Parameters of the correlated support sequence generator: supports of
    s_bar-2..s_bar of K chunks whose consecutive overlap is at least s_c.
    K >= 2*s_bar - s_c lets two consecutive supports fit in the universe."""

    s_bar: int
    s_c: int
    K: int

    def __post_init__(self) -> None:
        _whole_fields(self, GenerationError, s_bar=None, s_c=0, K=None)
        if self.s_c + 2 > self.s_bar:
            raise GenerationError(
                f"s_c + 2 <= s_bar violated: s_c={self.s_c}, s_bar={self.s_bar}")
        if self.K < 2 * self.s_bar - self.s_c:
            raise GenerationError(
                f"K >= 2*s_bar - s_c violated: K={self.K}, s_bar={self.s_bar}, "
                f"s_c={self.s_c}")


def chunk_support(X: ChunkSparseMatrix, tol: float = 0.0) -> ChunkSupport:
    """Indices of chunks with Frobenius norm strictly above tol."""
    if not tol >= 0:  # also rejects nan, which no norm exceeds
        raise ValueError(f"tol must be nonnegative, got {tol}")
    norms = _chunk_norms(X.data, X.idx.d)
    hot = np.nonzero(norms > tol)[0] + 1
    return ChunkSupport.of(hot.tolist(), X.idx.K)


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """Unit-variance circular complex Gaussian draw: real part, then
    imaginary part, each scaled by 1/sqrt(2)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def generate_chunk_sparse(K: int, d: int, L: int, T: Iterable[int],
                          rng: np.random.Generator) -> ChunkSparseMatrix:
    """Random chunk-sparse matrix: i.i.d. complex unit-variance Gaussian
    entries on the chunks in T, exact zeros elsewhere."""
    idx = ChunkIndexing(K, d)
    L = _whole(L, "L", 1)
    chunks = ChunkSupport.of(T, K)  # ValueError outside 1..K
    data = np.zeros((idx.total_rows, L), dtype=np.complex128)
    for k in chunks:
        data[idx.rows_of([k])] = _complex_gaussian(rng, (d, L))
    return ChunkSparseMatrix(data, idx)


def generate_support_sequence(params: SupportEvolutionParams, n_frames: int,
                              rng: np.random.Generator,
                              pinned: bool = False) -> list[ChunkSupport]:
    """Sequence of supports with |T_i| uniform on {s_bar-2..s_bar} and
    consecutive overlap drawn uniform on {s_c..s_c+2}, clamped to
    min(|T_i|, |T_i+1|), or with pinned every overlap exactly s_c (no
    overlap is drawn then).

    Overlap members are drawn uniformly from the previous support, the
    remainder uniformly from its complement.
    """
    n_frames = _whole(n_frames, "n_frames", 1)
    sizes = [int(rng.integers(params.s_bar - 2, params.s_bar + 1))
             for _ in range(n_frames)]
    universe = np.arange(1, params.K + 1)
    first = rng.choice(universe, size=sizes[0], replace=False)
    supports = [ChunkSupport._drawn(first, params.K)]
    for i in range(1, n_frames):
        prev = np.array(supports[-1].indices, dtype=int)
        want = params.s_c if pinned else int(rng.integers(params.s_c, params.s_c + 3))
        ov = min(want, len(prev), sizes[i])
        keep = rng.choice(prev, size=ov, replace=False)
        outside = np.ones(params.K, dtype=bool)
        outside[prev - 1] = False
        fresh = rng.choice(universe[outside], size=sizes[i] - ov, replace=False)
        supports.append(ChunkSupport._drawn(np.concatenate((keep, fresh)), params.K))
    return supports

