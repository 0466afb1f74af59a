"""Complex matrix utilities: chunk indexing, the one chunk ranking,
minimum-norm least squares, and a small binary matrix file format.

Least squares has one route, _lstsq_stack, and ls_solve is its one-problem
case. It solves the normal equations on the Gram G = A^H A when the 1-norm
condition number of G is at most 1e4: cond_2(A)^2 <= cond_1(G) then keeps
sigma_min / sigma_max of A at 1e-2 or more, full rank at LS_RCOND. Every
other A takes the SVD route (np.linalg.lstsq), which gives the minimum-norm
solution.

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
from typing import Iterable, Iterator

import numpy as np

from .errors import DimensionError, FormatError, NonFiniteError

__all__ = ["ChunkIndexing", "ChunkSupport", "as_matrix", "frobenius", "ls_solve",
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


def _frobenius_stack(a: np.ndarray) -> np.ndarray:
    """frobenius of each slice a[i], bit for bit where strides are positive:
    np.linalg.norm's dot products of the real and imaginary parts of the
    slice raveled in memory order, taken as vector-by-vector matmuls."""
    axes = sorted(range(1, a.ndim), key=lambda i: -abs(a.strides[i]))
    v = a.transpose(0, *axes).reshape(len(a), 1, -1)
    re, im = v.real, v.imag
    return np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0, 0]


def _check_scale(a: np.ndarray, name: str) -> None:
    """Refuse a stack a of finite matrices, with a NonFiniteError naming
    it, when a slice's squared Frobenius norm, which bounds every entry of
    its Gram, overflows a float, or when its nonzero entries square to 0."""
    with np.errstate(over="ignore"):
        norms = _frobenius_stack(a)
    if not np.isfinite(norms).all():
        raise NonFiniteError(f"{name}'s squared Frobenius norm overflows a float")
    if not norms.all() and a[norms == 0].any():
        raise NonFiniteError(f"{name}'s nonzero entries square to 0 in a float")


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


def _check_number(value, name: str, positive: bool = False,
                  finite: bool = False, error=ValueError) -> None:
    """Refuse value with error naming it unless it compares >= 0, or with
    positive unless 0 < value < inf, or with finite unless 0 <= value < inf;
    nan, arrays and non-numbers never do."""
    try:
        if np.ndim(value) == 0 and ((0 < value < np.inf) if positive
                                    else (0 <= value < np.inf) if finite
                                    else value >= 0):
            return
    except (TypeError, ValueError):  # ValueError: a ragged sequence
        pass
    if finite:
        raise error(f"{name} = {value!r} is negative or not finite")
    what = "positive and finite" if positive else "nonnegative"
    raise error(f"{name} must be {what}, got {value!r}")


def _check_rng(rng) -> None:
    """Refuse rng with a TypeError unless a numpy Generator."""
    if not isinstance(rng, np.random.Generator):
        raise TypeError(f"rng must be a numpy Generator, got {rng!r}")


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
    stored sorted ascending. Every one is built checked; inside the package
    supports are boolean chunk masks, made into ChunkSupports by _support."""

    indices: tuple[int, ...]
    K: int

    def __post_init__(self) -> None:
        idx = tuple(map(_whole, self.indices))
        object.__setattr__(self, "indices", idx)
        _whole_fields(self, K=0)
        if idx and (min(idx) < 1 or max(idx) > self.K):
            raise ValueError(f"chunk index out of range 1..{self.K}: {idx}")
        if list(idx) != sorted(set(idx)):
            raise ValueError(f"chunk indices must be strictly ascending: {idx}")

    @classmethod
    def of(cls, indices: Iterable[int], K: int) -> "ChunkSupport":
        """Build from any iterable, deduplicating and sorting."""
        return cls(tuple(sorted(set(map(_whole, indices)))), K)

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


def _support(mask: np.ndarray) -> ChunkSupport:
    """The support of a length-K chunk mask, the package's one way from the
    masks it works on to a ChunkSupport."""
    return ChunkSupport((np.flatnonzero(mask) + 1).tolist(), len(mask))


def _chunk_norms(X: np.ndarray, d: int) -> np.ndarray:
    """Chunk norms of X's rows; a (B, K d, L) stack gives (B, K)."""
    energy = (np.abs(X) ** 2).sum(axis=-1)
    return np.sqrt(energy.reshape(energy.shape[:-1] + (-1, d)).sum(axis=-1))


def _ranked(scores: np.ndarray) -> np.ndarray:
    """Positions from highest to lowest score, along the last axis. The one
    home of the tie-break: the stable sort puts the smaller index first
    among equal scores, so restricted to any subset it is that subset's
    ranking."""
    return np.argsort(-scores, kind="stable")


def ls_solve(A, B) -> np.ndarray:
    """Minimum-Frobenius-norm solution X of min ||A X - B||_F, by the
    certified Gram solve or the SVD route of the module docstring."""
    return ls_solve_with_rank(A, B)[0]


def ls_solve_with_rank(A, B) -> tuple[np.ndarray, bool]:
    """As ls_solve, also reporting whether the minimizer was non-unique (rank
    of A below its column count): False for a certified Gram solve, else by
    np.linalg.lstsq's rank at rcond=LS_RCOND. _lstsq_stack's one-slice case."""
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    if A.shape[0] != B.shape[0]:
        raise DimensionError(f"A has {A.shape[0]} rows, B has {B.shape[0]}")
    if A.shape[1] == 0:
        return np.zeros((0, B.shape[1]), dtype=np.complex128), False
    X, deficient = _lstsq_stack(A[None], B[None])
    return X[0], bool(deficient[0])


def _lstsq_stack(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least squares of each slice of a stack A[i] X[i] = B[i] whose A have
    one shape and columns: X = G^-1 (A^H B) from one inversion of the
    stacked Grams G, then np.linalg.lstsq on each slice whose Gram it does
    not certify. If a singular Gram makes the inversion raise, each slice is
    solved alone, so slice i is always its one-slice answer."""
    AH = A.conj().transpose(0, 2, 1)
    G = AH @ A
    try:
        G_inv = np.linalg.inv(G)
    except np.linalg.LinAlgError:
        if len(A) > 1:
            X, deficient = zip(*map(_lstsq_stack, A[:, None], B[:, None]))
            return np.concatenate(X), np.concatenate(deficient)
        G_inv = np.full_like(G, np.nan)  # certifies nothing
    # the 1-norm condition number; nan or inf fails the test
    cond = (np.abs(G).sum(axis=1).max(axis=1)
            * np.abs(G_inv).sum(axis=1).max(axis=1))
    X = G_inv @ (AH @ B)
    deficient = np.zeros(len(A), dtype=bool)
    for i in np.flatnonzero(~(cond <= _GRAM_COND_MAX)):
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
