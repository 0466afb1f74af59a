"""Greedy chunk-sparse recovery with prior support information.

The modified pursuit forces the s_c most promising prior chunks into every
merge and refinement step. The conservative variant trusts the prior only
in the merge and re-selects the final support over all chunks, so an
overstated s_c cannot lock wrong chunks into the estimate.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import (LS_RCOND, ChunkIndexing, ChunkSupport, _chunk_norms, _lstsq,
                   _ranked, _rows, _top_k, _zero_based, as_matrix, chunking,
                   frobenius)
from .errors import DimensionError, PriorInfoError, SelectionError
from .sparsity import ChunkSparseMatrix, PriorSupportInfo

__all__ = [
    "StopReason",
    "PursuitConfig",
    "RecoveryResult",
    "msp_support_merge",
    "msp_support_refine",
    "msp_recover",
    "cmsp_support_merge",
    "cmsp_support_refine",
    "cmsp_recover",
    "sp_recover",
    "mmv_sp_recover",
    "genie_ls",
]


class StopReason(enum.Enum):
    THRESHOLD_MET = "ThresholdMet"
    RESIDUE_NON_DECREASING = "ResidueNonDecreasing"
    MAX_ITERATIONS = "MaxIterations"


@dataclass(frozen=True)
class PursuitConfig:
    """Shared knobs for the pursuit algorithms.

    s_bar is the sparsity budget, gamma the residue-norm stopping
    threshold, d the chunk height. A residue at or below LS_RCOND ||Y||_F
    is an exact fit up to rounding and counts as meeting gamma. Final
    supports have exactly s_bar chunks, or none if the first iteration does
    not lower the residue (a zero X_hat, RESIDUE_NON_DECREASING after 1
    iteration).
    """

    s_bar: int
    prior: PriorSupportInfo
    gamma: float
    d: int = 1
    max_iter: int = 100

    def __post_init__(self) -> None:
        if self.s_bar < 1:
            raise ValueError(f"s_bar must be positive, got {self.s_bar}")
        if len(self.prior.T0) > self.s_bar:  # the prior holds s_c <= |T0|
            raise PriorInfoError(
                f"|T0| <= s_bar violated: |T0|={len(self.prior.T0)}, s_bar={self.s_bar}")
        if not self.gamma >= 0:  # also rejects nan, which disables the stop
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")
        if self.d < 1:
            raise ValueError(f"d must be positive, got {self.d}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be positive, got {self.max_iter}")


@dataclass(frozen=True, eq=False)
class RecoveryResult:
    """Output of a pursuit run.

    residue_norms[0] is ||Y||_F; one entry is appended per executed
    iteration, so len(residue_norms) == iterations + 1 even when the
    returned iterate is the previous one. rank_deficient_ls is sticky over
    every least-squares solve in the run.
    """

    X_hat: ChunkSparseMatrix
    T_hat: ChunkSupport
    residue_norms: tuple[float, ...]
    iterations: int
    stop_reason: StopReason
    rank_deficient_ls: bool


def _problem(Y, Phi, d: int, name: str = "Y") -> tuple[np.ndarray, np.ndarray, ChunkIndexing]:
    """Validate Y and Phi of a problem Y = Phi X once and chunk Phi."""
    Y = as_matrix(Y, name)
    Phi = as_matrix(Phi, "Phi")
    if Y.shape[0] != Phi.shape[0]:
        raise DimensionError(f"{name} has {Y.shape[0]} rows, Phi has {Phi.shape[0]}")
    return Y, Phi, chunking(Phi, d)


def _checked_prior(cfg: PursuitConfig, K: int) -> np.ndarray:
    """Check the budget and the prior against K chunks, so that no rule
    below asks for more chunks than its pool holds; return T0 0-based."""
    if cfg.s_bar > K:
        raise SelectionError(f"s_bar={cfg.s_bar} exceeds K={K}")
    if len(cfg.prior.T0) and cfg.prior.T0.K != K:
        raise DimensionError(f"prior universe {cfg.prior.T0.K} != K={K}")
    return _zero_based(cfg.prior.T0)


# The merge and refine rules work on 0-based chunk index arrays: scores has
# one entry per chunk, T is the running support and T0 the prior, both
# ascending. They return ascending arrays.

def _msp_refine(scores: np.ndarray, T0: np.ndarray, cfg: PursuitConfig) -> np.ndarray:
    # the s_c best prior chunks, then the s_bar - s_c best of all others,
    # both read off one ranking of every chunk
    order = _ranked(scores)
    prior = np.zeros(len(scores), dtype=bool)
    prior[T0] = True
    locked = order[prior[order]][:cfg.prior.s_c]
    free = np.ones(len(scores), dtype=bool)
    free[locked] = False
    rest = order[free[order]][:cfg.s_bar - cfg.prior.s_c]
    return np.sort(np.concatenate((locked, rest)))


def _msp_merge(scores: np.ndarray, T: np.ndarray, T0: np.ndarray,
               cfg: PursuitConfig) -> np.ndarray:
    return np.union1d(T, _msp_refine(scores, T0, cfg))


def _cmsp_refine(scores: np.ndarray, T0: np.ndarray, cfg: PursuitConfig) -> np.ndarray:
    return _top_k(scores, cfg.s_bar, np.arange(len(scores)))


def _cmsp_merge(scores: np.ndarray, T: np.ndarray, T0: np.ndarray,
                cfg: PursuitConfig) -> np.ndarray:
    # top up the prior only by the shortfall s_c - |T ∩ T0|
    held = (T0[:, None] == T).any(axis=1)
    shortfall = cfg.prior.s_c - int(np.count_nonzero(held))
    topup = _top_k(scores, max(shortfall, 0), T0[~held])
    return np.unique(np.concatenate((T, topup, _cmsp_refine(scores, T0, cfg))))


def _merge_step(merge, R, Phi, T_hat: ChunkSupport, cfg: PursuitConfig) -> ChunkSupport:
    R, Phi, idx = _problem(R, Phi, cfg.d, "R")
    T0 = _checked_prior(cfg, idx.K)
    if T_hat.K != idx.K:
        raise DimensionError(f"running support universe {T_hat.K} != {idx.K}")
    scores = _chunk_norms(Phi.conj().T @ R, idx.d)
    return ChunkSupport.of(merge(scores, _zero_based(T_hat), T0, cfg) + 1, idx.K)


def _refine_step(refine, Z: ChunkSparseMatrix, cfg: PursuitConfig) -> ChunkSupport:
    T0 = _checked_prior(cfg, Z.idx.K)
    T = refine(_chunk_norms(Z.data, Z.idx.d), T0, cfg)
    return ChunkSupport.of(T + 1, Z.idx.K)


def msp_support_merge(R, Phi, T_hat: ChunkSupport, cfg: PursuitConfig) -> ChunkSupport:
    """Merge step: running support, plus the s_c best-correlated prior
    chunks, plus the s_bar - s_c best chunks outside that pick."""
    return _merge_step(_msp_merge, R, Phi, T_hat, cfg)


def msp_support_refine(Z: ChunkSparseMatrix, cfg: PursuitConfig) -> ChunkSupport:
    """Refinement: keep the s_c strongest chunks inside the prior, then the
    s_bar - s_c strongest among everything not already kept."""
    return _refine_step(_msp_refine, Z, cfg)


def cmsp_support_merge(R, Phi, T_hat: ChunkSupport, cfg: PursuitConfig) -> ChunkSupport:
    """Conservative merge: top up the prior contribution only by the
    shortfall s_c - |T_hat ∩ T0|, then add the s_bar best chunks overall."""
    return _merge_step(_cmsp_merge, R, Phi, T_hat, cfg)


def cmsp_support_refine(Z: ChunkSparseMatrix, cfg: PursuitConfig) -> ChunkSupport:
    """Conservative refinement: the s_bar strongest chunks, prior ignored."""
    return _refine_step(_cmsp_refine, Z, cfg)


def _embedded(rows: np.ndarray, coef: np.ndarray, idx: ChunkIndexing) -> ChunkSparseMatrix:
    data = np.zeros((idx.total_rows, coef.shape[1]), dtype=np.complex128)
    data[rows] = coef
    return ChunkSparseMatrix(data, idx)


def _run_pursuit(Y: np.ndarray, Phi: np.ndarray, idx: ChunkIndexing,
                 cfg: PursuitConfig, merge, refine) -> RecoveryResult:
    """The pursuit loop on a problem _problem has validated."""
    T0 = _checked_prior(cfg, idx.K)
    K, d = idx.K, idx.d
    PhiH = Phi.conj().T
    T_prev = np.empty(0, dtype=np.intp)
    X_prev = np.zeros((0, Y.shape[1]), dtype=np.complex128)
    R_prev = Y
    r_prev = frobenius(Y)
    stop_at = max(cfg.gamma, LS_RCOND * r_prev)
    trace = [r_prev]
    deficient = False

    def result(T, X, iterations, stop):
        return RecoveryResult(_embedded(_rows(T, d), X, idx),
                              ChunkSupport.of(T + 1, K), tuple(trace),
                              iterations, stop, deficient)

    for it in range(1, cfg.max_iter + 1):
        T_a = merge(_chunk_norms(PhiH @ R_prev, d), T_prev, T0, cfg)
        Z, d1 = _lstsq(Phi[:, _rows(T_a, d)], Y)
        norms = np.zeros(K)
        norms[T_a] = _chunk_norms(Z, d)
        T_next = refine(norms, T0, cfg)
        sub = Phi[:, _rows(T_next, d)]
        X_next, d2 = _lstsq(sub, Y)
        deficient = deficient or d1 or d2
        R_next = Y - sub @ X_next
        r_next = frobenius(R_next)
        trace.append(r_next)
        if r_next <= stop_at:
            return result(T_next, X_next, it, StopReason.THRESHOLD_MET)
        if r_next >= r_prev:
            return result(T_prev, X_prev, it, StopReason.RESIDUE_NON_DECREASING)
        T_prev, X_prev, R_prev, r_prev = T_next, X_next, R_next, r_next

    # residues decreased strictly on every continuation, so the last iterate
    # is the minimum-residue one
    return result(T_prev, X_prev, cfg.max_iter, StopReason.MAX_ITERATIONS)


def msp_recover(Y, Phi, cfg: PursuitConfig) -> RecoveryResult:
    """Recover a chunk-sparse X from Y = Phi X + N using the prior-forcing
    pursuit."""
    return _run_pursuit(*_problem(Y, Phi, cfg.d), cfg, _msp_merge, _msp_refine)


def cmsp_recover(Y, Phi, cfg: PursuitConfig) -> RecoveryResult:
    """Recover X with the conservative variant (prior used for candidates
    only, never locked into the output support)."""
    return _run_pursuit(*_problem(Y, Phi, cfg.d), cfg, _cmsp_merge, _cmsp_refine)


def sp_recover(Y, Phi, s_bar: int, gamma: float, max_iter: int = 100) -> RecoveryResult:
    """Conventional subspace pursuit: no prior, scalar chunks (d=1)."""
    return mmv_sp_recover(Y, Phi, s_bar, gamma, d=1, max_iter=max_iter)


def mmv_sp_recover(Y, Phi, s_bar: int, gamma: float, d: int = 1,
                   max_iter: int = 100) -> RecoveryResult:
    """Joint-recovery subspace pursuit: no prior, chunk structure kept."""
    Y, Phi, idx = _problem(Y, Phi, d)
    cfg = PursuitConfig(s_bar=s_bar, prior=PriorSupportInfo.empty(idx.K),
                        gamma=gamma, d=d, max_iter=max_iter)
    return _run_pursuit(Y, Phi, idx, cfg, _msp_merge, _msp_refine)


def genie_ls(Y, Phi, T_true: ChunkSupport, d: int = 1) -> ChunkSparseMatrix:
    """Least squares on the true support (oracle baseline)."""
    Y, Phi, idx = _problem(Y, Phi, d)
    if T_true.K != idx.K:
        raise DimensionError(f"support universe {T_true.K} != K={idx.K}")
    rows = idx.rows_of(T_true)
    return _embedded(rows, _lstsq(Phi[:, rows], Y)[0], idx)
