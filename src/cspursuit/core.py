"""Complex matrix utilities: chunk indexing, top-k chunk selection,
minimum-norm least squares, and a small binary matrix file format.

Least squares solves the normal equations on the Gram G = A^H A when the
1-norm condition number of G is at most 1e4: cond_2(A)^2 <= cond_1(G) then
keeps sigma_min / sigma_max of A at 1e-2 or more, full rank at LS_RCOND.
Every other A takes the SVD route (np.linalg.lstsq), which gives the
minimum-norm solution.

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

from .errors import (DimensionError, FormatError, NonFiniteError,
                     SelectionError)

__all__ = ["ChunkIndexing", "ChunkSupport", "as_matrix", "chunk_norms",
           "frobenius", "top_k_chunks", "submatrix_by_chunks", "ls_solve",
           "ls_solve_with_rank", "read_matrix", "write_matrix"]

# file format: magic, u32 rows, u32 cols, u8 dtype tag, 3 reserved bytes,
# then row-major complex128 little-endian (real, imag) pairs
_MAGIC = b"CSMAT1\x00\x00"
_DTYPE_COMPLEX128 = 0x01
_HEADER_LEN = 20

# relative singular value cutoff for rank decisions in least squares
LS_RCOND = 1e-12
# largest 1-norm condition number of A^H A at which least squares trusts
# the normal equations; above it the SVD route decides rank and solution
_GRAM_COND_MAX = 1e4


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate `a` as a finite 2-D complex128 array and return it."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return m


def frobenius(a) -> float:
    """Frobenius norm of a matrix."""
    return float(np.linalg.norm(a))


def _whole(value, name: str = "chunk index", least=None, error=ValueError) -> int:
    """value as an int, the package's one integer check. A value that is not
    a whole number (a fraction, nan, inf, None) is refused with a ValueError,
    and one below least, 0 or 1, with error; both messages name it."""
    try:
        k = int(value)
    except (TypeError, ValueError, OverflowError):
        k = None
    if k is None or k != value:
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if least is not None and k < least:
        raise error(f"{name} must be {'positive' if least else 'nonnegative'}, got {k}")
    return k


def _whole_fields(obj, error=ValueError, **least) -> None:
    """Store each named field of a frozen dataclass as an int through _whole,
    with its floor least[name] (None for none) and error for one below it."""
    for name, floor in least.items():
        object.__setattr__(obj, name, _whole(getattr(obj, name), name, floor, error))


def _int_array(indices) -> bool:
    """Whether indices is a 1-D integer array, whose entries are whole."""
    return (isinstance(indices, np.ndarray) and indices.ndim == 1
            and indices.dtype.kind in "iu")


def _rows(chunks: np.ndarray, d: int) -> np.ndarray:
    """0-based rows (or columns) of 0-based chunks, in the given order; a
    (B, n) stack of chunk lists gives a (B, n d) stack of row lists."""
    return (chunks[..., None] * d + np.arange(d)).reshape(
        chunks.shape[:-1] + (chunks.shape[-1] * d,))


@dataclass(frozen=True)
class ChunkIndexing:
    """Partition of K*d rows into K chunks of height d."""

    K: int
    d: int

    def __post_init__(self) -> None:
        _whole_fields(self, K=1, d=1)

    @property
    def total_rows(self) -> int:
        return self.K * self.d

    def rows_of(self, chunks: Iterable[int]) -> np.ndarray:
        """0-based row indices covered by the given chunks, in ascending
        chunk order."""
        ordered = sorted(set(map(_whole, chunks)))
        if ordered and (ordered[0] < 1 or ordered[-1] > self.K):
            raise IndexError(f"chunk index out of range 1..{self.K}: {ordered}")
        return _rows(np.array(ordered, dtype=np.intp) - 1, self.d)


def chunking(Phi: np.ndarray, d: int) -> ChunkIndexing:
    """Chunk indexing of a validated Phi's columns, chunk height d."""
    d = _whole(d, "d", 1, DimensionError)
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
        raw = self.indices
        idx = (tuple(raw.tolist()) if _int_array(raw)
               else tuple(map(_whole, raw)))
        object.__setattr__(self, "indices", idx)
        _whole_fields(self, K=0)
        if idx and (min(idx) < 1 or max(idx) > self.K):
            raise ValueError(f"chunk index out of range 1..{self.K}: {idx}")
        if list(idx) != sorted(set(idx)):
            raise ValueError(f"chunk indices must be strictly ascending: {idx}")

    @classmethod
    def of(cls, indices: Iterable[int], K: int) -> "ChunkSupport":
        """Build from any iterable, deduplicating and sorting: a 1-D integer
        array in one np.unique, anything else one index at a time."""
        if _int_array(indices):
            return cls(np.unique(indices), K)
        return cls(tuple(sorted(set(map(_whole, indices)))), K)

    @classmethod
    def _drawn(cls, indices: np.ndarray, K: int) -> "ChunkSupport":
        """Distinct chunks in 1..K that the package drew, stored unchecked."""
        support = object.__new__(cls)
        object.__setattr__(support, "indices", tuple(np.sort(indices).tolist()))
        object.__setattr__(support, "K", K)
        return support

    @classmethod
    def empty(cls, K: int) -> "ChunkSupport":
        return cls((), K)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def as_set(self) -> set[int]:
        return set(self.indices)

    def intersection(self, other: "ChunkSupport") -> "ChunkSupport":
        if self.K != other.K:
            raise ValueError(f"mismatched universes K={self.K} and K={other.K}")
        return ChunkSupport.of(self.as_set() & other.as_set(), self.K)


def _zero_based(S: ChunkSupport) -> np.ndarray:
    return np.array(S.indices, dtype=np.intp) - 1


def _chunk_norms(X: np.ndarray, d: int) -> np.ndarray:
    """Chunk norms of X's rows; a (B, K d, L) stack gives (B, K)."""
    energy = (np.abs(X) ** 2).sum(axis=-1)
    return np.sqrt(energy.reshape(energy.shape[:-1] + (-1, d)).sum(axis=-1))


def chunk_norms(X, idx: ChunkIndexing) -> np.ndarray:
    """Frobenius norm of each of the K chunks of X (length-K float vector)."""
    X = as_matrix(X, "X")
    if X.shape[0] != idx.total_rows:
        raise DimensionError(
            f"X has {X.shape[0]} rows, chunk indexing needs {idx.total_rows}")
    return _chunk_norms(X, idx.d)


def _ranked(scores: np.ndarray) -> np.ndarray:
    """Positions from highest to lowest score, along the last axis. The one
    home of the tie-break: the stable sort puts the smaller index first
    among equal scores, so restricted to any subset it is that subset's
    ranking."""
    return np.argsort(-scores, kind="stable")


def _top_k(scores: np.ndarray, k: int, pool: np.ndarray) -> np.ndarray:
    """The k highest-scoring chunks of an ascending 0-based pool, ascending,
    ranked by _ranked. Needs 0 <= k <= len(pool)."""
    return np.sort(pool[_ranked(scores[pool])[:k]])


def top_k_chunks(scores, k: int, candidates: Sequence[int]) -> tuple[int, ...]:
    """Indices of the k largest-scoring candidate chunks, sorted ascending.

    `scores` is indexed 1-based through scores[i-1]. Ties break toward the
    smaller index, so zero-score chunks fill remaining slots in index order.
    Raises SelectionError if k exceeds the number of candidates.
    """
    k = _whole(k, "k", 0, SelectionError)
    cand = sorted(set(map(_whole, candidates)))
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
    min ||A X - B||_F.

    Solved on the inverted Gram A^H A when its 1-norm condition number is
    at most 1e4, which certifies full column rank; otherwise by the SVD
    (np.linalg.lstsq with rcond=LS_RCOND)."""
    X, _ = ls_solve_with_rank(A, B)
    return X


def ls_solve_with_rank(A, B) -> tuple[np.ndarray, bool]:
    """As ls_solve, also reporting whether the minimizer was non-unique
    (numerical rank of A below its column count). A certified Gram solve
    reports False; the flag of the SVD fallback is np.linalg.lstsq's rank
    at rcond=LS_RCOND."""
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    if A.shape[0] != B.shape[0]:
        raise DimensionError(f"A has {A.shape[0]} rows, B has {B.shape[0]}")
    return _lstsq(A, B)


def _lstsq(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, bool]:
    if A.shape[1] == 0:
        return np.zeros((0, B.shape[1]), dtype=np.complex128), False
    X, deficient = _lstsq_stack(A[None], B[None])
    return X[0], bool(deficient[0])


def _lstsq_stack(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_lstsq of each slice of a stack A[i] X[i] = B[i] whose A have one
    shape: one inversion of the stacked Grams, then a single-problem solve
    of every slice that inversion does not certify (of each slice, when one
    singular Gram makes it raise), so slice i equals _lstsq(A[i], B[i])."""
    AH = A.conj().transpose(0, 2, 1)
    G = AH @ A
    try:
        G_inv = np.linalg.inv(G)
    except np.linalg.LinAlgError:
        certified = np.zeros(len(A), dtype=bool)
    else:
        # the 1-norm condition number; nan or inf fails the test
        cond = (np.abs(G).sum(axis=1).max(axis=1)
                * np.abs(G_inv).sum(axis=1).max(axis=1))
        certified = cond <= _GRAM_COND_MAX
    deficient = np.zeros(len(A), dtype=bool)
    AHB = AH @ B
    if certified.all():
        return G_inv @ AHB, deficient
    X = np.empty(AHB.shape, dtype=np.complex128)
    if certified.any():
        X[certified] = G_inv[certified] @ AHB[certified]
    for i in np.flatnonzero(~certified):
        if len(A) > 1:
            X[i], deficient[i] = _lstsq(A[i], B[i])
        else:
            X[i], _, rank, _ = np.linalg.lstsq(A[i], B[i], rcond=LS_RCOND)
            deficient[i] = rank < A.shape[2]
    return X, deficient


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
