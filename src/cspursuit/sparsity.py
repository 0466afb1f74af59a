"""Chunk-sparse signal model: support types, prior support information,
and random generators for signals and temporally correlated support
sequences.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import (ChunkIndexing, ChunkSupport, _check_number, _check_rng,
                   _chunk_norms, _rows, _support, _whole, _whole_fields, _zero_based,
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
    _check_number(tol, "tol")  # also rejects nan, which no norm exceeds
    return _support(_chunk_norms(X.data, X.idx.d) > tol)


def _complex_from(parts: np.ndarray) -> np.ndarray:
    """(real + 1j imag) / sqrt(2) of standard normal parts stacked (2, ...)
    as (real, imag): the one assembly of a complex Gaussian draw."""
    return (parts[0] + 1j * parts[1]) / np.sqrt(2.0)


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """Unit-variance circular complex Gaussian draw: real parts, then
    imaginary parts, drawn as one (2, *shape) array."""
    return _complex_from(rng.standard_normal((2, *shape)))


def generate_chunk_sparse(K: int, d: int, L: int, T: Iterable[int],
                          rng: np.random.Generator) -> ChunkSparseMatrix:
    """Random chunk-sparse matrix: i.i.d. complex unit-variance Gaussian
    entries on the chunks in T, exact zeros elsewhere."""
    idx = ChunkIndexing(K, d)
    L = _whole(L, "L", 1)
    chunks = _zero_based(ChunkSupport.of(T, K))  # ValueError outside 1..K
    _check_rng(rng)
    data = np.zeros((idx.total_rows, L), dtype=np.complex128)
    for rows in _rows(chunks[:, None], d):
        data[rows] = _complex_gaussian(rng, (d, L))
    return ChunkSparseMatrix(data, idx)


def _support_masks(params: SupportEvolutionParams, n_frames: int,
                   rng: np.random.Generator, pinned: bool) -> np.ndarray:
    """generate_support_sequence as an (n_frames, K) chunk mask, drawn in
    its order: the sizes, the first support, then per frame the kept and
    the fresh chunks, over arange(K) and the sorted previous support."""
    sizes = [int(rng.integers(params.s_bar - 2, params.s_bar + 1))
             for _ in range(n_frames)]
    masks = np.zeros((n_frames, params.K), dtype=bool)
    masks[0, rng.choice(params.K, size=sizes[0], replace=False)] = True
    for i in range(1, n_frames):
        prev = np.flatnonzero(masks[i - 1])
        want = params.s_c if pinned else int(rng.integers(params.s_c, params.s_c + 3))
        ov = min(want, len(prev), sizes[i])
        masks[i, rng.choice(prev, size=ov, replace=False)] = True
        masks[i, rng.choice(np.flatnonzero(~masks[i - 1]), size=sizes[i] - ov,
                            replace=False)] = True
    return masks


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
    _check_rng(rng)
    return [_support(m) for m in _support_masks(params, n_frames, rng, pinned)]
