"""Downlink channel estimation as a chunk-sparse recovery problem.

A base station with M antennas sends T pilot symbols to an N_ue antenna
user. The channel is sparse in the angular domain: H = U H_a V^H, with U
and V fixed to the unitary DFT matrices dft_unitary(N_ue) and
dft_unitary(M), and the rows of H_a sharing a small column support that
drifts slowly frame to frame. The received block Z = sqrt(P) H Theta
+ W is rearranged into Y = Phi X + N with a column-normalized sensing
matrix, recovered with a pursuit, and mapped back to the antenna domain.

Blocks of trials run as arrays through three kernels, _generate, _estimate
and _score. run_frame_sequence checks its arguments once and drives them
frame by frame on one trial; the harness drives them on blocks of trials.
simulate_frames is the generator's one-trial case. Stacked products and
norms equal the one-matrix ones bit for bit, as tests check.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .core import (ChunkSupport, _check_number, _check_power, _check_rng,
                   _frobenius_stack, _support, _whole, _whole_fields, _zero_based,
                   as_matrix)
from .errors import DimensionError, GenerationError, MetricError
from .pursuit import PRIOR_ALGORITHMS, StopReason, _Batch, _genie, _run_pursuit
from .sparsity import SupportEvolutionParams, _complex_gaussian, _support_masks

__all__ = [
    "MimoScenario",
    "ChannelFrame",
    "FrameRecord",
    "ALGORITHMS",
    "dft_unitary",
    "generate_pilots",
    "generate_channel",
    "to_cs_problem",
    "recover_channel",
    "nmse",
    "default_gamma",
    "simulate_frames",
    "run_frame_sequence",
]

ALGORITHMS = PRIOR_ALGORITHMS + ("mmv_sp", "sp", "genie")


@dataclass(frozen=True)
class MimoScenario:
    """Static problem dimensions. P is linear transmit power; supports hold
    s_bar-2..s_bar of the M angular columns, so s_bar >= 3 gives every
    frame a path, and consecutive true supports share at least s_c of them.
    evolution is derived: the support generator's parameters, built once
    from s_bar, s_c and K = M."""

    M: int
    N_ue: int
    T: int
    P: float
    s_bar: int
    s_c: int
    evolution: SupportEvolutionParams = field(init=False)

    def __post_init__(self) -> None:
        _whole_fields(self, M=1, N_ue=1, T=1, s_bar=None, s_c=None)
        _check_power(self.P, self.T)
        if self.s_bar < 3:
            raise GenerationError(f"s_bar must be at least 3, got {self.s_bar}")
        object.__setattr__(self, "evolution",
                           SupportEvolutionParams(self.s_bar, self.s_c, K=self.M))


@dataclass(frozen=True, eq=False)
class ChannelFrame:
    """One frame's channel in both domains plus its true angular support."""

    H: np.ndarray
    H_a: np.ndarray
    T_true: ChunkSupport


@dataclass(frozen=True, eq=False)
class FrameRecord:
    """Per-frame outcome of a recovery run."""

    nmse_ratio: float
    support_exact: bool
    iterations: float
    stop_reason: Optional[StopReason]
    rank_deficient_ls: bool
    T_true: ChunkSupport
    T_hat: ChunkSupport


@lru_cache(maxsize=None)
def dft_unitary(n: int) -> np.ndarray:
    """Unitary DFT matrix, entry (a, b) = exp(-2 pi i a b / n) / sqrt(n).
    Cached per n, so the array is read-only."""
    n = _whole(n, "n", 1)
    a = np.arange(n)
    U = np.exp(-2j * np.pi * np.outer(a, a) / n) / np.sqrt(n)
    U.setflags(write=False)
    return U


def _pilot_values(draws: np.ndarray, M: int) -> np.ndarray:
    """Pilots +-sqrt(1/M) from 0/1 draws."""
    return (2.0 * draws - 1.0).astype(np.complex128) / np.sqrt(M)


def _synthesis(H_a: np.ndarray) -> np.ndarray:
    """H = U H_a V^H."""
    n, m = H_a.shape[-2:]
    return dft_unitary(n) @ H_a @ dft_unitary(m).conj().T


def _cs_problem(Z: np.ndarray, Theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Y, Phi) = (Z^H U, sqrt(M/T) Theta^H V)."""
    (n, t), m = Z.shape[-2:], Theta.shape[-2]
    Y = Z.conj().swapaxes(-1, -2) @ dft_unitary(n)
    Phi = np.sqrt(m / t) * (Theta.conj().swapaxes(-1, -2) @ dft_unitary(m))
    return Y, Phi


def _map_back(X: np.ndarray, P: float, T: int) -> np.ndarray:
    """H_hat = sqrt(M/(P T)) U X^H V^H of M x N_ue estimates X."""
    return np.sqrt(X.shape[-2] / (P * T)) * _synthesis(X.conj().swapaxes(-1, -2))


def generate_pilots(M: int, T: int, rng: np.random.Generator) -> np.ndarray:
    """M x T pilot block with entries +-sqrt(1/M), so tr(Theta Theta^H) = T."""
    M, T = _whole(M, "M", 1), _whole(T, "T", 1)
    _check_rng(rng)
    return _pilot_values(rng.integers(0, 2, size=(M, T)), M)


def generate_channel(scenario: MimoScenario, T_true: ChunkSupport,
                     rng: np.random.Generator) -> ChannelFrame:
    """Random channel H = U H_a V^H whose angular rows share the column
    support T_true; nonzero entries are unit-variance complex Gaussian."""
    if T_true.K != scenario.M:
        raise DimensionError(f"support universe {T_true.K} != M={scenario.M}")
    _check_rng(rng)
    n, m = scenario.N_ue, scenario.M
    H_a = np.zeros((n, m), dtype=np.complex128)
    cols = _zero_based(T_true)
    H_a[:, cols] = _complex_gaussian(rng, (n, len(cols)))
    return ChannelFrame(H=_synthesis(H_a), H_a=H_a, T_true=T_true)


def to_cs_problem(Z, Theta, P: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Rearrange a received N_ue x T block Z, sent with M x T pilots Theta,
    into sparse-recovery form.

    Returns (Y, Phi, scale) with Y = Z^H U (T x N_ue), Phi = sqrt(M/T)
    Theta^H V (T x M, unit expected column norm), and scale = sqrt(P T / M)
    so that Y = Phi (scale * H_a^H) + W^H U exactly.
    """
    Z = as_matrix(Z, "Z")
    Theta = as_matrix(Theta, "Theta")
    (n, t), m = Z.shape, Theta.shape[0]
    if min(n, t, m) < 1 or Theta.shape[1] != t:
        raise DimensionError(f"Z {Z.shape} and Theta {Theta.shape} must be "
                             "nonempty N_ue x T and M x T")
    _check_power(P, t)
    return (*_cs_problem(Z, Theta), float(np.sqrt(P * t / m)))


def recover_channel(X_hat, P: float, T: int) -> np.ndarray:
    """Map a recovered M x N_ue sparse-domain matrix back to the antenna
    domain: H_hat = sqrt(M/(P T)) U X_hat^H V^H."""
    X_hat = as_matrix(X_hat, "X_hat")
    if min(X_hat.shape) < 1:
        raise DimensionError(f"X_hat {X_hat.shape} must be nonempty M x N_ue")
    T = _whole(T, "T", 1)
    _check_power(P, T)
    return _map_back(X_hat, P, T)


def _nmse_ratios(H: np.ndarray, H_hat: np.ndarray) -> list[float]:
    """||H - H_hat||_F^2 / ||H||_F^2 of each slice of two validated stacks."""
    try:
        with np.errstate(over="raise"):  # a norm past every float
            errors, norms = _frobenius_stack(H_hat - H), _frobenius_stack(H)
        return [(e / r) ** 2 for e, r in zip(errors.tolist(), norms.tolist())]
    except ZeroDivisionError:
        raise MetricError("reference channel has zero norm") from None
    except (OverflowError, FloatingPointError):
        raise MetricError("NMSE ratio overflows a float") from None


def nmse(pairs) -> float:
    """Mean of ||H - H_hat||_F^2 / ||H||_F^2 over (H, H_hat) pairs of one
    shape each."""
    ratios = []
    for H, H_hat in pairs:
        H, H_hat = as_matrix(H, "H"), as_matrix(H_hat, "H_hat")
        if H.shape != H_hat.shape:
            raise DimensionError(f"H {H.shape} and H_hat {H_hat.shape} differ in shape")
        ratios += _nmse_ratios(H[None], H_hat[None])
    if not ratios:
        raise MetricError("nmse needs at least one pair")
    return float(np.mean(ratios))


def default_gamma(N_ue: int, T: int) -> float:
    """Residue threshold sqrt(2 * N_ue * T): the noise block has expected
    squared norm N_ue * T, and the factor 2 leaves stopping headroom."""
    return float(np.sqrt(2.0 * _whole(N_ue, "N_ue", 1) * _whole(T, "T", 1)))


def _generate(scenario: MimoScenario, rngs, n_frames: int, noise: bool = True,
              pinned: bool = False) -> list[tuple[np.ndarray, ...]]:
    """simulate_frames of a block of trials, trial b from rngs[b]: per frame
    (H_a, H, Y, Phi, true support mask), each stacked over the trials."""
    m, n, t, B = scenario.M, scenario.N_ue, scenario.T, len(rngs)
    truth = np.zeros((n_frames, B, m), dtype=bool)
    H_a = np.zeros((n_frames, B, n, m), dtype=np.complex128)
    draws = np.empty((n_frames, B, m, t), dtype=np.int8)  # 0/1 pilot signs
    W = np.zeros((n_frames, B, n, t), dtype=np.complex128)
    for b, rng in enumerate(rngs):
        truth[:, b] = _support_masks(scenario.evolution, n_frames, rng, pinned)
        for f in range(n_frames):
            H_a[f, b][:, truth[f, b]] = _complex_gaussian(rng, (n, truth[f, b].sum()))
            draws[f, b] = rng.integers(0, 2, size=(m, t))
            W[f, b] = _complex_gaussian(rng, (n, t)) if noise else 0
    pilots, frames = _pilot_values(np.arange(2), m), []
    for f in range(n_frames):
        H, Theta = _synthesis(H_a[f]), pilots[draws[f]]
        frames.append((H_a[f], H, *_cs_problem(np.sqrt(scenario.P) * H @ Theta
                                               + W[f], Theta), truth[f]))
    return frames


def simulate_frames(scenario: MimoScenario, n_frames: int,
                    rng: np.random.Generator, noise: bool = True,
                    pinned: bool = False
                    ) -> list[tuple[ChannelFrame, np.ndarray, np.ndarray]]:
    """Draw n_frames of data, each as (channel frame, Y, Phi) of the problem
    Y = Phi X + N. The rng is consumed in one order (supports, then per
    frame channel, pilots and noise), so a seed gives every algorithm the
    same data. pinned makes every true consecutive overlap exactly the
    scenario's s_c instead of drawing it (generate_support_sequence)."""
    n_frames = _whole(n_frames, "n_frames", 1)
    _check_rng(rng)
    return [(ChannelFrame(H=H[0], H_a=H_a[0], T_true=_support(truth[0])), Y[0], Phi[0])
            for H_a, H, Y, Phi, truth in _generate(scenario, [rng], n_frames,
                                                   noise, pinned)]


def _estimate(scenario: MimoScenario, Y: np.ndarray, Phi: np.ndarray,
              truth: np.ndarray, algorithm: str, T0: np.ndarray,
              gamma: Optional[float], believed_s_c: Optional[int]) -> _Batch:
    """One algorithm on a block of frames as one batch, from the stacks and
    the (B, M) true and prior masks; run_frame_sequence gives the prior rule."""
    m, n, t, B = scenario.M, scenario.N_ue, scenario.T, len(Y)
    if algorithm == "genie":
        X, deficient = _genie(Y, Phi, truth)
        return _Batch(truth, X, np.zeros(B), np.full(B, None), deficient, None)
    gamma = default_gamma(n, t) if gamma is None else float(gamma)
    if algorithm == "sp":
        # one scalar-sparse problem per receive antenna, supports pooled
        run = _run_pursuit("sp", Y.transpose(0, 2, 1).reshape(-1, t, 1),
                           np.repeat(Phi, n, axis=0), np.zeros((B * n, m), dtype=bool),
                           np.zeros((B * n, 1), dtype=int),
                           np.full(B * n, gamma / np.sqrt(n)), scenario.s_bar)
        return _Batch(run.T.reshape(B, n, m).any(axis=1),
                      run.X.reshape(B, n, m).transpose(0, 2, 1).copy(),
                      run.iterations.reshape(B, n).mean(axis=1), np.full(B, None),
                      run.deficient.reshape(B, n).any(axis=1), None)
    reads = algorithm in PRIOR_ALGORITHMS  # the others run under the empty prior
    cap = (T0 if believed_s_c is not None else T0 & truth).sum(axis=1)
    s_c = np.minimum(scenario.s_c if believed_s_c is None else believed_s_c, cap)
    return _run_pursuit(algorithm, Y, Phi, T0 & reads, s_c[:, None] * reads,
                        np.full(B, gamma), scenario.s_bar)


def _score(scenario: MimoScenario, H: np.ndarray, truth: np.ndarray,
           est: _Batch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A block's NMSE ratios (each from its frame's own norms), iterations
    and exact-support hits."""
    H_hat = _map_back(est.X, scenario.P, scenario.T)
    return (np.array(_nmse_ratios(H, H_hat)),
            est.iterations, (est.T == truth).all(axis=1))


def run_frame_sequence(scenario: MimoScenario, n_frames: int, algorithm: str,
                       rng: np.random.Generator,
                       gamma: Optional[float] = None,
                       noise: bool = True,
                       believed_s_c: Optional[int] = None,
                       pinned: bool = False) -> list[FrameRecord]:
    """n_frames of channel estimation with one algorithm on the data
    simulate_frames draws, pinned or not, each frame estimated and scored in
    turn. The PRIOR_ALGORITHMS read T0, the previous frame's estimated
    support (empty for frame 1). The scenario's s_c floors only the overlap
    of true supports, so by default the prior's s_c is min(scenario s_c,
    |T0 ∩ T|) and the promise |T0 ∩ T| >= s_c holds. That count reads the
    measured frame's true support T, which no receiver has; criterion 08
    passes only with it. An explicit believed_s_c is passed as told,
    clamped only to |T0|, and may overstate it (the mismatch study)."""
    n_frames = _whole(n_frames, "n_frames", 1)
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}, expected {ALGORITHMS}")
    if believed_s_c is not None:
        believed_s_c = _whole(believed_s_c, "believed s_c", 0)
    if algorithm != "genie" and gamma is not None:
        _check_number(gamma, "gamma")  # also rejects nan, which disables the stop
    _check_rng(rng)
    records: list[FrameRecord] = []
    T0 = np.zeros((1, scenario.M), dtype=bool)
    for _, H, Y, Phi, truth in _generate(scenario, [rng], n_frames, noise, pinned):
        est = _estimate(scenario, Y, Phi, truth, algorithm, T0, gamma, believed_s_c)
        (ratio,), (its,), (hit,) = _score(scenario, H, truth, est)
        records.append(FrameRecord(float(ratio), bool(hit), float(its), est.stops[0],
                                   bool(est.deficient[0]), _support(truth[0]),
                                   _support(est.T[0])))
        T0 = est.T
    return records
