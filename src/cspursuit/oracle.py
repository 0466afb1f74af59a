"""Brute-force references used to check the fast implementations.

Both routines here favor obviousness over speed and share no reduction
logic with the main code paths: the support search scans every candidate
in lexicographic order, and the isometry reference builds each Gram matrix
entry by entry before asking for its eigenvalues.
"""
from __future__ import annotations

import itertools
import math
from typing import Optional

import numpy as np

from .core import ChunkSupport, _whole, as_matrix, chunking, frobenius, ls_solve
from .errors import DimensionError, EnumerationCapError, SelectionError

__all__ = ["exhaustive_best_support", "rip_bruteforce_reference"]

SEARCH_CAP = 500_000


def exhaustive_best_support(Y, Phi, s: int, d: int,
                            constraint: Optional[tuple[ChunkSupport, int]] = None,
                            cap: int = SEARCH_CAP) -> ChunkSupport:
    """The s-chunk support minimizing the least-squares residual of Y.

    Ties resolve to the lexicographically smallest support, so Y = 0 yields
    {1..s}. constraint = (T0, m) restricts the scan to supports sharing at
    least m chunks with T0. Raises EnumerationCapError when C(K, s) exceeds
    cap and SelectionError when no support satisfies the constraint.
    """
    Y = as_matrix(Y, "Y")
    Phi = as_matrix(Phi, "Phi")
    if Y.shape[0] != Phi.shape[0]:
        raise DimensionError(f"Y has {Y.shape[0]} rows, Phi has {Phi.shape[0]}")
    idx = chunking(Phi, d)
    K = idx.K
    s = _whole(s, "s", 1, SelectionError)
    if s > K:
        raise SelectionError(f"s must be in 1..{K}, got {s}")
    n_supports = math.comb(K, s)
    if n_supports > cap:
        raise EnumerationCapError(
            f"C({K},{s}) = {n_supports} supports exceeds cap {cap}")
    if constraint is not None:
        if constraint[0].K != K:
            raise DimensionError(f"constraint universe {constraint[0].K} != K={K}")
        t0_set = constraint[0].as_set()
        need = _whole(constraint[1], "m", 0)

    best: Optional[tuple[int, ...]] = None
    best_res = math.inf
    for chunks in itertools.combinations(range(1, K + 1), s):
        if constraint is not None and len(t0_set & set(chunks)) < need:
            continue
        sub = Phi[:, idx.rows_of(chunks)]
        res = frobenius(Y - sub @ ls_solve(sub, Y))
        if res < best_res:
            best, best_res = chunks, res
    if best is None:
        raise SelectionError("no support satisfies the constraint")
    return ChunkSupport.of(best, K)


def rip_bruteforce_reference(Phi, k: int, d: int, cap: int = 2_000_000) -> float:
    """Isometry constant at order k by plain loops: for every k-chunk
    support, assemble the Gram matrix of its columns one inner product at a
    time and take eigenvalue extremes."""
    Phi = as_matrix(Phi, "Phi")
    rows, total_cols = Phi.shape
    K = chunking(Phi, d).K
    k = _whole(k, "k", 1, DimensionError)
    if k > K:
        raise DimensionError(f"k must be in 1..{K}, got {k}")
    n_supports = math.comb(K, k)
    if n_supports > cap:
        raise EnumerationCapError(
            f"C({K},{k}) = {n_supports} supports exceeds cap {cap}")

    delta = 0.0
    for chunks in itertools.combinations(range(K), k):
        cols = [c * d + j for c in chunks for j in range(d)]
        n = len(cols)
        gram = np.zeros((n, n), dtype=np.complex128)
        for a in range(n):
            for b in range(n):
                acc = 0.0 + 0.0j
                for r in range(rows):
                    acc += np.conj(Phi[r, cols[a]]) * Phi[r, cols[b]]
                gram[a, b] = acc
        eigs = np.linalg.eigvalsh(gram)
        delta = max(delta, float(eigs[-1]) - 1.0, 1.0 - float(eigs[0]))
    return float(delta)
