"""Greedy chunk-sparse recovery with prior support information.

The modified pursuit forces the s_c most promising prior chunks into every
merge and refinement step. The conservative variant trusts the prior only
in the merge and re-selects the final support over all chunks, so an
overstated s_c cannot lock wrong chunks into the estimate.

There is one pursuit loop, and it runs a stack of problems at once: a
leading batch axis over problems that share rows, K, d, s_bar and max_iter,
each with its own prior and gamma. The rules rank every problem's chunks in
one stable sort, the least squares solves stack the Grams of the problems
whose supports have one size, and each problem stops on its own, so every
result equals the one the problem gets alone. Every array of the loop keeps
one row per problem, live lists the running ones, and the result columns,
which the harness reads, hold each problem's answer so far. recover_batch,
the batched entry, builds a RecoveryResult per problem from them. Every
entry validates its problems as a stack, a single problem as a stack of
one: msp_recover, cmsp_recover, mmv_sp_recover and sp_recover are the
one-problem case.
"""
from __future__ import annotations

import enum
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .core import (LS_RCOND, ChunkSupport, _check_number, _check_scale,
                   _chunk_norms, _frobenius_stack, _lstsq_stack, _ranked, _rows,
                   _support, _whole_fields, _zero_based, as_matrix, chunking)
from .errors import DimensionError, PriorInfoError, SelectionError
from .sparsity import ChunkSparseMatrix, PriorSupportInfo

__all__ = [
    "PRIOR_ALGORITHMS",
    "StopReason",
    "PursuitConfig",
    "RecoveryResult",
    "msp_recover",
    "cmsp_recover",
    "sp_recover",
    "mmv_sp_recover",
    "recover_batch",
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
        _whole_fields(self, s_bar=1, d=1, max_iter=1)
        if len(self.prior.T0) > self.s_bar:  # the prior holds s_c <= |T0|
            raise PriorInfoError(
                f"|T0| <= s_bar violated: |T0|={len(self.prior.T0)}, s_bar={self.s_bar}")
        _check_number(self.gamma, "gamma")  # also rejects nan, which disables the stop


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


def _stack(Y, Phi) -> tuple[np.ndarray, np.ndarray]:
    """Validate a stack of problems Y[b] = Phi[b] X[b] once, Y as
    (B, rows, L) and Phi as (B, rows, K d); one problem is [Y], [Phi]. A
    slice too large or too small for a float to square is refused, since
    the residues and Grams would overflow or vanish."""
    Y = np.asarray(Y, dtype=np.complex128, order="C")
    Phi = np.asarray(Phi, dtype=np.complex128, order="C")
    if Y.ndim != 3 or Phi.ndim != 3 or len(Y) != len(Phi) or not len(Y):
        raise DimensionError(f"Y {Y.shape} and Phi {Phi.shape} must be stacks "
                             "(B, rows, L) and (B, rows, K d) of B >= 1 problems")
    for label, a in (("Y", Y), ("Phi", Phi)):
        as_matrix(a.reshape(a.shape[0] * a.shape[1], a.shape[2]), label)
        _check_scale(a, label)
    if Y.shape[1] != Phi.shape[1]:
        raise DimensionError(f"Y has {Y.shape[1]} rows, Phi has {Phi.shape[1]}")
    return Y, Phi


def _priors(cfgs, K: int) -> tuple[np.ndarray, np.ndarray]:
    """Each config's prior, checked with its budget against K chunks so that
    no rule below asks for more chunks than its pool holds: a (B, K) mask
    of T0 and a (B, 1) column of s_c."""
    prior = np.zeros((len(cfgs), K), dtype=bool)
    for b, cfg in enumerate(cfgs):
        if cfg.s_bar > K:
            raise SelectionError(f"s_bar={cfg.s_bar} exceeds K={K}")
        if len(cfg.prior.T0) and cfg.prior.T0.K != K:
            raise DimensionError(f"prior universe {cfg.prior.T0.K} != K={K}")
        prior[b, _zero_based(cfg.prior.T0)] = True
    return prior, np.array([[cfg.prior.s_c] for cfg in cfgs])


# The merge and refine rules work on a stack of problems: scores has one row
# of chunk scores per problem, and the running support (held), the prior T0
# and the returned supports are (B, K) masks over the chunks. s_c is a
# (B, 1) column, s_bar is shared. A rule lays its masks out in each row's
# ranking, best first, picks there, and lays the pick back out by chunk, so
# _ranked's tie-break decides every pick.

def _rank_order(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row index and each row's ranking, which together gather a
    (B, K) mask into rank order or scatter it back."""
    return np.arange(len(scores))[:, None], _ranked(scores)


def _first(member: np.ndarray, count) -> np.ndarray:
    """The first count members of each row of a rank-ordered mask."""
    return member & (np.cumsum(member, axis=1) <= count)


def _by_chunk(rows, ranked, picked: np.ndarray) -> np.ndarray:
    out = np.empty_like(picked)
    out[rows, ranked] = picked
    return out


def _msp_refine(scores, prior, s_c, s_bar: int) -> np.ndarray:
    # the s_c best prior chunks, then the s_bar - s_c best of all others
    rows, ranked = _rank_order(scores)
    locked = _first(prior[rows, ranked], s_c)
    return _by_chunk(rows, ranked, locked | _first(~locked, s_bar - s_c))


def _msp_merge(scores, held, prior, s_c, s_bar: int) -> np.ndarray:
    return held | _msp_refine(scores, prior, s_c, s_bar)


def _cmsp_refine(scores, prior, s_c, s_bar: int) -> np.ndarray:
    rows, ranked = _rank_order(scores)
    top = np.zeros(scores.shape, dtype=bool)
    top[:, :s_bar] = True
    return _by_chunk(rows, ranked, top)


def _cmsp_merge(scores, held, prior, s_c, s_bar: int) -> np.ndarray:
    # top up the prior only by the shortfall s_c - |T ∩ T0|, then add the
    # s_bar best chunks overall
    rows, ranked = _rank_order(scores)
    shortfall = np.maximum(s_c - (held & prior).sum(axis=1, keepdims=True), 0)
    picked = _first((prior & ~held)[rows, ranked], shortfall)
    picked[:, :s_bar] = True
    return held | _by_chunk(rows, ranked, picked)


def _ls_groups(Y: np.ndarray, Phi: np.ndarray, live: np.ndarray, T: np.ndarray,
               d: int):
    """Least squares of each problem live[i] of the whole stack Y, Phi on its
    chunks T[i] (a (len(live), K) mask), one stacked solve per nonempty
    support size. Yields, per size, the positions i, their 0-based chunks
    (G, n), their columns of Phi (G, rows, n d), laid out as a single
    problem's Phi[:, cols] is, the solutions and the rank flags."""
    sizes = T.sum(axis=1)
    for n in sorted(set(sizes.tolist()) - {0}):
        g = np.flatnonzero(sizes == n)
        chunks = np.nonzero(T[g])[1].reshape(len(g), n)
        cols = _rows(chunks, d)
        sub = Phi.transpose(0, 2, 1)[live[g][:, None], cols].transpose(0, 2, 1)
        yield (g, chunks, sub, *_lstsq_stack(sub, Y[live[g]]))


# one pursuit run over a stack of B problems, as columns: support masks T
# (B, K), dense estimates X (B, K d, L), iterations, StopReasons and rank
# flags, each (B,), and residues (B, max_iter + 1), row b read up to its
# iterations
_Batch = namedtuple("_Batch", "T X iterations stops deficient residues")


def _run_pursuit(algorithm: str, Y: np.ndarray, Phi: np.ndarray, prior: np.ndarray,
                 s_c: np.ndarray, gamma: np.ndarray, s_bar: int, d: int = 1,
                 max_iter: int = 100) -> _Batch:
    """The pursuit loop on a validated stack: Y (B, rows, L), Phi (B, rows,
    K d), and per problem a (B, K) prior mask, a (B, 1) floor s_c and a
    threshold gamma. A problem that stops leaves the running set with its
    own stop reason, so each result is the one the loop gives it alone."""
    merge, refine = _RULES[algorithm]
    B, K = prior.shape
    residues = np.full((B, max_iter + 1), np.nan)
    residues[:, 0] = _frobenius_stack(Y)
    stop_at = np.maximum(gamma, LS_RCOND * residues[:, 0])
    out = _Batch(np.zeros((B, K), dtype=bool),
                 np.zeros((B, K * d, Y.shape[2]), dtype=np.complex128),
                 np.zeros(B, dtype=int), np.full(B, StopReason.MAX_ITERATIONS),
                 np.zeros(B, dtype=bool), residues)
    # every array keeps one row per problem and live lists the running ones;
    # out holds each problem's answer so far, so out.T[live] is the running
    # support and residues[live, it - 1] the previous residue. R's stopped
    # rows go unread: the scores come from the whole stack, Phi uncopied.
    live, R = np.arange(B), Y.copy()
    for it in range(1, max_iter + 1):
        out.iterations[live] = it
        # |Phi^H R| read off Phi^T conj(R), its conjugate entry for entry, so
        # that no conjugate of Phi is formed
        scores = _chunk_norms(Phi.transpose(0, 2, 1) @ R.conj(), d)[live]
        T_a = merge(scores, out.T[live], prior[live], s_c[live], s_bar)
        norms = np.zeros(T_a.shape)
        groups = list(_ls_groups(Y, Phi, live, T_a, d))
        for g, chunks, _, Z, flags in groups:
            norms[g[:, None], chunks] = _chunk_norms(Z, d)
            out.deficient[live[g]] |= flags
        T_next = refine(norms, prior[live], s_c[live], s_bar)
        # a refine that keeps one stacked solve's merged supports reuses it
        if len(groups) > 1 or not np.array_equal(T_next, T_a):
            groups = list(_ls_groups(Y, Phi, live, T_next, d))
        ((_, T, sub, X, flags),) = groups
        out.deficient[live] |= flags
        R[live] = R_next = Y[live] - sub @ X
        residues[live, it] = r = _frobenius_stack(R_next)
        met = r <= stop_at[live]
        flat = ~met & (r >= residues[live, it - 1])
        # every other residue fell, so its new iterate is its best so far
        b = live[~flat]
        out.T[b] = T_next[~flat]
        out.X[b] = 0
        out.X[b[:, None], _rows(T[~flat], d)] = X[~flat]
        out.stops[live[met]] = StopReason.THRESHOLD_MET
        out.stops[live[flat]] = StopReason.RESIDUE_NON_DECREASING
        live = live[~(met | flat)]
        if not live.size:
            break
    return out


def _genie(Y: np.ndarray, Phi: np.ndarray, T: np.ndarray,
           d: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """genie_ls of each problem of a validated stack on its (B, K) mask T,
    dense (B, K d, L), one stacked solve per support size, and each
    problem's rank flag (B,)."""
    X = np.zeros((len(Y), Phi.shape[2], Y.shape[2]), dtype=np.complex128)
    deficient = np.zeros(len(Y), dtype=bool)
    for g, chunks, _, Z, flags in _ls_groups(Y, Phi, np.arange(len(Y)), T, d):
        X[g[:, None], _rows(chunks, d)] = Z
        deficient[g] = flags
    return X, deficient


# pursuit -> (merge, refine); mmv_sp, and sp at d = 1, are msp under the
# empty prior
_RULES = {"msp": (_msp_merge, _msp_refine), "cmsp": (_cmsp_merge, _cmsp_refine)}
_RULES.update(mmv_sp=_RULES["msp"], sp=_RULES["msp"])
PRIOR_ALGORITHMS = ("msp", "cmsp")  # the pursuits that read a prior T0


def recover_batch(algorithm: str, Y, Phi, cfgs) -> list[RecoveryResult]:
    """Run one pursuit, "msp", "cmsp", "mmv_sp" or "sp", on a stack of
    problems Y[b] = Phi[b] X[b] + N[b] through one batched loop, validating
    the stack once. Y is (B, rows, L) and Phi (B, rows, K d); cfgs[b]
    configures problem b, and the configs may differ in prior and gamma but
    share s_bar, d and max_iter. mmv_sp and sp read no prior, so their
    configs hold the empty one. Result b equals the single call on problem
    b bit for bit."""
    if algorithm not in _RULES:
        raise ValueError(f"unknown pursuit {algorithm!r}, expected {tuple(_RULES)}")
    return _recover(algorithm, *_stack(Y, Phi), cfgs)


def _recover(algorithm: str, Y: np.ndarray, Phi: np.ndarray, cfgs) -> list[RecoveryResult]:
    """recover_batch on a stack _stack has validated."""
    if len(cfgs) != len(Y):
        raise DimensionError(f"{len(cfgs)} configs for {len(Y)} problems")
    if len({(cfg.s_bar, cfg.d, cfg.max_iter) for cfg in cfgs}) != 1:
        raise ValueError("a batch needs one s_bar, d and max_iter")
    if algorithm not in PRIOR_ALGORITHMS and any(len(cfg.prior.T0) for cfg in cfgs):
        raise PriorInfoError(f"{algorithm} reads no prior, got a nonempty T0")
    if algorithm == "sp" and cfgs[0].d != 1:
        raise ValueError(f"sp runs at d = 1, got d={cfgs[0].d}")
    idx = chunking(Phi[0], cfgs[0].d)
    prior, s_c = _priors(cfgs, idx.K)
    run = _run_pursuit(algorithm, Y, Phi, prior, s_c, np.array([c.gamma for c in cfgs]),
                       cfgs[0].s_bar, idx.d, cfgs[0].max_iter)
    return [RecoveryResult(ChunkSparseMatrix(X, idx), _support(T),
                           tuple(residues[:iterations + 1].tolist()),
                           int(iterations), stop, bool(deficient))
            for T, X, iterations, stop, deficient, residues in zip(*run)]


def msp_recover(Y, Phi, cfg: PursuitConfig) -> RecoveryResult:
    """Recover a chunk-sparse X from Y = Phi X + N using the prior-forcing
    pursuit."""
    return recover_batch("msp", [Y], [Phi], [cfg])[0]


def cmsp_recover(Y, Phi, cfg: PursuitConfig) -> RecoveryResult:
    """Recover X with the conservative variant (prior used for candidates
    only, never locked into the output support)."""
    return recover_batch("cmsp", [Y], [Phi], [cfg])[0]


def sp_recover(Y, Phi, s_bar: int, gamma: float) -> RecoveryResult:
    """Conventional subspace pursuit, no prior: mmv_sp_recover at d=1. The
    harness does not call it; mimo hands the per-antenna columns to the
    pursuit loop as one stack."""
    return mmv_sp_recover(Y, Phi, s_bar, gamma, d=1)


def mmv_sp_recover(Y, Phi, s_bar: int, gamma: float, d: int = 1) -> RecoveryResult:
    """Joint-recovery subspace pursuit: no prior, chunk structure kept."""
    Y, Phi = _stack([Y], [Phi])
    cfg = PursuitConfig(s_bar=s_bar, prior=PriorSupportInfo.empty(chunking(Phi[0], d).K),
                        gamma=gamma, d=d)
    return _recover("mmv_sp", Y, Phi, [cfg])[0]


def genie_ls(Y, Phi, T_true: ChunkSupport, d: int = 1) -> ChunkSparseMatrix:
    """Least squares on the true support (oracle baseline)."""
    Y, Phi = _stack([Y], [Phi])
    idx = chunking(Phi[0], d)
    if T_true.K != idx.K:
        raise DimensionError(f"support universe {T_true.K} != K={idx.K}")
    T = np.zeros((1, idx.K), dtype=bool)
    T[0, _zero_based(T_true)] = True
    X, _ = _genie(Y, Phi, T, d)
    return ChunkSparseMatrix(X[0], idx)
