"""Complex matrix utilities: chunk indexing, top-k chunk selection,
minimum-norm least squares, and a small binary matrix file format.

Matrices are 2-D numpy arrays of complex128. Rows of a signal matrix are
grouped into K chunks of d consecutive rows; chunk indices are 1-based,
so chunk k covers rows (k-1)*d .. k*d-1 (0-based row numbers).

Public functions take 1-based chunk indices and validate their arguments.
Internal kernels (leading underscore) take 0-based chunk index arrays and
validated matrices, and trust their caller to have checked them.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DimensionError, FormatError, SelectionError

# file format: magic, u32 rows, u32 cols, u8 dtype tag, 3 reserved bytes,
# then row-major complex128 little-endian (real, imag) pairs
_MAGIC = b"CSMAT1\x00\x00"
_DTYPE_COMPLEX128 = 0x01
_HEADER_LEN = 20

# relative singular value cutoff for rank decisions in least squares
LS_RCOND = 1e-12


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate `a` as a finite 2-D complex128 array and return it."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def frobenius(a) -> float:
    """Frobenius norm of a matrix."""
    return float(np.linalg.norm(a))


def _rows(chunks: np.ndarray, d: int) -> np.ndarray:
    """0-based rows (or columns) of 0-based chunks, in the given order."""
    return (chunks[:, None] * d + np.arange(d)).ravel()


@dataclass(frozen=True)
class ChunkIndexing:
    """Partition of K*d rows into K chunks of height d."""

    K: int
    d: int

    def __post_init__(self) -> None:
        if self.K < 1 or self.d < 1:
            raise ValueError(f"K and d must be positive, got K={self.K}, d={self.d}")

    @property
    def total_rows(self) -> int:
        return self.K * self.d

    def rows_of(self, chunks: Iterable[int]) -> np.ndarray:
        """0-based row indices covered by the given chunks, in ascending
        chunk order."""
        ordered = sorted(set(int(k) for k in chunks))
        if ordered and (ordered[0] < 1 or ordered[-1] > self.K):
            raise IndexError(f"chunk index out of range 1..{self.K}: {ordered}")
        return _rows(np.array(ordered, dtype=np.intp) - 1, self.d)


def chunking(Phi: np.ndarray, d: int) -> ChunkIndexing:
    """Chunk indexing of a validated Phi's columns, chunk height d."""
    K, extra = divmod(Phi.shape[1], d)
    if extra:
        raise DimensionError(
            f"Phi has {Phi.shape[1]} columns, not a multiple of d={d}")
    if K == 0:
        raise DimensionError("Phi has no columns")
    return ChunkIndexing(K, d)


@dataclass(frozen=True)
class ChunkSupport:
    """Duplicate-free set of 1-based chunk indices within a universe {1..K},
    stored sorted ascending."""

    indices: tuple[int, ...]
    K: int

    def __post_init__(self) -> None:
        idx = tuple(int(i) for i in self.indices)
        object.__setattr__(self, "indices", idx)
        if self.K < 0:
            raise ValueError(f"K must be nonnegative, got {self.K}")
        if any(i < 1 or i > self.K for i in idx):
            raise ValueError(f"chunk index out of range 1..{self.K}: {idx}")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError(f"chunk indices must be strictly ascending: {idx}")

    @classmethod
    def of(cls, indices: Iterable[int], K: int) -> "ChunkSupport":
        """Build from any iterable, deduplicating and sorting."""
        return cls(tuple(sorted(set(int(i) for i in indices))), K)

    @classmethod
    def empty(cls, K: int) -> "ChunkSupport":
        return cls((), K)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def __contains__(self, k: int) -> bool:
        return k in self.indices

    def as_set(self) -> set[int]:
        return set(self.indices)

    def _check_universe(self, other: "ChunkSupport") -> None:
        if self.K != other.K:
            raise ValueError(f"mismatched universes K={self.K} and K={other.K}")

    def union(self, other: "ChunkSupport") -> "ChunkSupport":
        self._check_universe(other)
        return ChunkSupport.of(self.as_set() | other.as_set(), self.K)

    def intersection(self, other: "ChunkSupport") -> "ChunkSupport":
        self._check_universe(other)
        return ChunkSupport.of(self.as_set() & other.as_set(), self.K)

    def difference(self, other: "ChunkSupport") -> "ChunkSupport":
        self._check_universe(other)
        return ChunkSupport.of(self.as_set() - other.as_set(), self.K)

    def complement(self) -> "ChunkSupport":
        return ChunkSupport.of(set(range(1, self.K + 1)) - self.as_set(), self.K)


def _zero_based(S: ChunkSupport) -> np.ndarray:
    return np.array(S.indices, dtype=np.intp) - 1


def _chunk_norms(X: np.ndarray, d: int) -> np.ndarray:
    energy = (np.abs(X) ** 2).sum(axis=1)
    return np.sqrt(energy.reshape(-1, d).sum(axis=1))


def chunk_norms(X, idx: ChunkIndexing) -> np.ndarray:
    """Frobenius norm of each of the K chunks of X (length-K float vector)."""
    X = as_matrix(X, "X")
    if X.shape[0] != idx.total_rows:
        raise DimensionError(
            f"X has {X.shape[0]} rows, chunk indexing needs {idx.total_rows}")
    return _chunk_norms(X, idx.d)


def _top_k(scores: np.ndarray, k: int, pool: np.ndarray) -> np.ndarray:
    """The k highest-scoring chunks of an ascending 0-based pool, ascending.

    The one home of the tie-break: the stable sort keeps equal scores in
    pool order, so ties go to the smaller index. Needs 0 <= k <= len(pool).
    """
    return np.sort(pool[np.argsort(-scores[pool], kind="stable")[:k]])


def top_k_chunks(scores, k: int, candidates: Sequence[int]) -> tuple[int, ...]:
    """Indices of the k largest-scoring candidate chunks, sorted ascending.

    `scores` is indexed 1-based through scores[i-1]. Ties break toward the
    smaller index, so zero-score chunks fill remaining slots in index order.
    Raises SelectionError if k exceeds the number of candidates.
    """
    if k < 0:
        raise SelectionError(f"k must be nonnegative, got {k}")
    cand = sorted(set(int(c) for c in candidates))
    if k > len(cand):
        raise SelectionError(f"asked for {k} chunks from {len(cand)} candidates")
    if cand and (cand[0] < 1 or cand[-1] > len(scores)):
        raise IndexError(f"candidate outside 1..{len(scores)}: {cand}")
    pool = np.array(cand, dtype=np.intp) - 1
    return tuple((_top_k(np.asarray(scores, dtype=float), k, pool) + 1).tolist())


def submatrix_by_chunks(Phi, T: Iterable[int], idx: ChunkIndexing) -> np.ndarray:
    """Columns of Phi belonging to the chunks in T, ascending chunk order.

    Phi has K*d columns; chunk k owns columns (k-1)*d .. k*d-1. An empty T
    yields a matrix with zero columns.
    """
    Phi = as_matrix(Phi, "Phi")
    if Phi.shape[1] != idx.total_rows:
        raise DimensionError(
            f"Phi has {Phi.shape[1]} columns, chunk indexing needs {idx.total_rows}")
    cols = idx.rows_of(T)
    return Phi[:, cols]


def ls_solve(A, B) -> np.ndarray:
    """Minimum-Frobenius-norm solution X of the least squares problem
    min ||A X - B||_F."""
    X, _ = ls_solve_with_rank(A, B)
    return X


def ls_solve_with_rank(A, B) -> tuple[np.ndarray, bool]:
    """As ls_solve, also reporting whether the minimizer was non-unique
    (numerical rank of A below its column count)."""
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    if A.shape[0] != B.shape[0]:
        raise DimensionError(f"A has {A.shape[0]} rows, B has {B.shape[0]}")
    return _lstsq(A, B)


def _lstsq(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, bool]:
    if A.shape[1] == 0:
        return np.zeros((0, B.shape[1]), dtype=np.complex128), False
    X, _, rank, _ = np.linalg.lstsq(A, B, rcond=LS_RCOND)
    return X, bool(rank < A.shape[1])


def write_matrix(path, M) -> None:
    """Write a complex matrix to `path` in the CSMAT1 binary format."""
    M = as_matrix(M, "M")
    header = _MAGIC + struct.pack("<II", M.shape[0], M.shape[1])
    header += bytes([_DTYPE_COMPLEX128, 0, 0, 0])
    payload = np.ascontiguousarray(M.astype("<c16", copy=False)).tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_matrix(path) -> np.ndarray:
    """Read a complex matrix written by write_matrix.

    Raises FormatError on bad magic, dtype tag, reserved bytes, payload
    length, or non-finite values. A 0x0 matrix round-trips.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER_LEN:
        raise FormatError(f"file too short for a header: {len(raw)} bytes")
    if raw[:8] != _MAGIC:
        raise FormatError(f"bad magic bytes {raw[:8]!r}")
    rows, cols = struct.unpack("<II", raw[8:16])
    if raw[16] != _DTYPE_COMPLEX128:
        raise FormatError(f"unsupported dtype tag 0x{raw[16]:02x}")
    if raw[17:20] != b"\x00\x00\x00":
        raise FormatError("reserved header bytes must be zero")
    expected = _HEADER_LEN + rows * cols * 16
    if len(raw) != expected:
        raise FormatError(
            f"payload is {len(raw) - _HEADER_LEN} bytes, {rows}x{cols} needs "
            f"{expected - _HEADER_LEN}")
    data = np.frombuffer(raw[_HEADER_LEN:], dtype="<c16").reshape(rows, cols)
    m = data.astype(np.complex128)
    if m.size and not np.all(np.isfinite(m)):
        raise FormatError("payload contains non-finite values")
    return m
