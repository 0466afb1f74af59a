"""Downlink channel estimation as a chunk-sparse recovery problem.

A base station with M antennas sends T pilot symbols to an N_ue antenna
user. The channel is sparse in the angular domain: H = U H_a V^H, with U
and V fixed to the unitary DFT matrices dft_unitary(N_ue) and
dft_unitary(M), and the rows of H_a sharing a small column support that
drifts slowly frame to frame. The received block Z = sqrt(P) H Theta
+ W is rearranged into Y = Phi X + N with a column-normalized sensing
matrix, recovered with a pursuit, and mapped back to the antenna domain.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .core import (ChunkSupport, _whole, _whole_fields, _zero_based, as_matrix,
                   frobenius)
from .errors import DimensionError, GenerationError, MetricError
from .pursuit import (PRIOR_ALGORITHMS, PursuitConfig, StopReason, genie_ls,
                      recover_batch)
from .sparsity import PriorSupportInfo, SupportEvolutionParams, \
    _complex_gaussian, generate_support_sequence

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
    "estimate_supports",
    "estimate_frames",
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
        if not self.P > 0:
            raise ValueError(f"P must be positive, got {self.P}")
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


def generate_pilots(M: int, T: int, rng: np.random.Generator) -> np.ndarray:
    """M x T pilot block with entries +-sqrt(1/M), so tr(Theta Theta^H) = T."""
    M, T = _whole(M, "M", 1), _whole(T, "T", 1)
    signs = 2.0 * rng.integers(0, 2, size=(M, T)) - 1.0
    return signs.astype(np.complex128) / np.sqrt(M)


def generate_channel(scenario: MimoScenario, T_true: ChunkSupport,
                     rng: np.random.Generator) -> ChannelFrame:
    """Random channel H = U H_a V^H whose angular rows share the column
    support T_true; nonzero entries are unit-variance complex Gaussian."""
    if T_true.K != scenario.M:
        raise DimensionError(f"support universe {T_true.K} != M={scenario.M}")
    n, m = scenario.N_ue, scenario.M
    H_a = np.zeros((n, m), dtype=np.complex128)
    cols = _zero_based(T_true)
    H_a[:, cols] = _complex_gaussian(rng, (n, len(cols)))
    H = dft_unitary(n) @ H_a @ dft_unitary(m).conj().T
    return ChannelFrame(H=H, H_a=H_a, T_true=T_true)


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
    if not P > 0:
        raise ValueError(f"P must be positive, got {P}")
    Y = Z.conj().T @ dft_unitary(n)
    Phi = np.sqrt(m / t) * (Theta.conj().T @ dft_unitary(m))
    scale = float(np.sqrt(P * t / m))
    return Y, Phi, scale


def recover_channel(X_hat, P: float, T: int) -> np.ndarray:
    """Map a recovered M x N_ue sparse-domain matrix back to the antenna
    domain: H_hat = sqrt(M/(P T)) U X_hat^H V^H."""
    X_hat = as_matrix(X_hat, "X_hat")
    m, n = X_hat.shape
    if min(m, n) < 1:
        raise DimensionError(f"X_hat {X_hat.shape} must be nonempty M x N_ue")
    T = _whole(T, "T", 1)
    if not P > 0:
        raise ValueError(f"P must be positive, got {P}")
    return np.sqrt(m / (P * T)) * (dft_unitary(n) @ X_hat.conj().T
                                   @ dft_unitary(m).conj().T)


def _nmse_ratio(H: np.ndarray, H_hat: np.ndarray) -> float:
    """||H - H_hat||_F^2 / ||H||_F^2 of two validated arrays."""
    try:
        with np.errstate(over="raise"):  # a norm past every float
            return (frobenius(H_hat - H) / frobenius(H)) ** 2
    except ZeroDivisionError:
        raise MetricError("reference channel has zero norm") from None
    except (OverflowError, FloatingPointError):
        raise MetricError("NMSE ratio overflows a float") from None


def nmse(pairs) -> float:
    """Mean of ||H - H_hat||_F^2 / ||H||_F^2 over (H, H_hat) pairs."""
    ratios = [_nmse_ratio(as_matrix(H, "H"), as_matrix(H_hat, "H_hat"))
              for H, H_hat in pairs]
    if not ratios:
        raise MetricError("nmse needs at least one pair")
    return float(np.mean(ratios))


def default_gamma(N_ue: int, T: int) -> float:
    """Residue threshold sqrt(2 * N_ue * T): the noise block has expected
    squared norm N_ue * T, and the factor 2 leaves stopping headroom."""
    return float(np.sqrt(2.0 * _whole(N_ue, "N_ue", 1) * _whole(T, "T", 1)))


def simulate_frames(scenario: MimoScenario, n_frames: int,
                    rng: np.random.Generator, noise: bool = True,
                    pinned: bool = False
                    ) -> list[tuple[ChannelFrame, np.ndarray, np.ndarray]]:
    """Draw n_frames of data, each as (channel frame, Y, Phi) of the problem
    Y = Phi X + N. The rng is consumed in one order (supports, then per
    frame channel, pilots and noise), so a seed gives every algorithm the
    same data. pinned makes every true consecutive overlap exactly the
    scenario's s_c instead of drawing it (generate_support_sequence)."""
    m, n, t = scenario.M, scenario.N_ue, scenario.T
    supports = generate_support_sequence(scenario.evolution, n_frames, rng,
                                         pinned)
    frames = []
    for T_true in supports:
        frame = generate_channel(scenario, T_true, rng)
        Theta = generate_pilots(m, t, rng)
        W = _complex_gaussian(rng, (n, t)) if noise else np.zeros((n, t), complex)
        Z = np.sqrt(scenario.P) * frame.H @ Theta + W
        Y, Phi, _ = to_cs_problem(Z, Theta, scenario.P)
        frames.append((frame, Y, Phi))
    return frames


def _estimate(scenario: MimoScenario, frames, algorithm: str, T0s,
              gamma: Optional[float], believed_s_c: Optional[int]):
    """(X_hat, T_hat, iterations, stop reason, rank flag) of one algorithm
    on each simulate_frames entry frames[i], with prior T0s[i]; the frames'
    pursuits run as one batch. See estimate_frames for the prior rule."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}, expected {ALGORITHMS}")
    m, n, t = scenario.M, scenario.N_ue, scenario.T
    s_c_alg = (scenario.s_c if believed_s_c is None
               else _whole(believed_s_c, "believed s_c", 0))
    if len(T0s) != len(frames):
        raise ValueError(f"{len(T0s)} priors T0 for {len(frames)} frames")
    if not frames:
        return []
    if algorithm == "genie":
        return [(genie_ls(Y, Phi, channel.T_true, d=1).data, channel.T_true, 0.0,
                 None, False) for channel, Y, Phi in frames]
    gamma_val = default_gamma(n, t) if gamma is None else float(gamma)
    Y = np.stack([Y for _, Y, _ in frames])
    if algorithm == "sp":
        # one scalar-sparse problem per receive antenna, supports pooled
        cfg = PursuitConfig(s_bar=scenario.s_bar, prior=PriorSupportInfo.empty(m),
                            gamma=gamma_val / np.sqrt(n))
        runs = recover_batch("sp", Y.transpose(0, 2, 1).reshape(-1, t, 1),
                             np.stack([Phi for _, _, Phi in frames for _ in range(n)]),
                             [cfg] * (n * len(frames)))
        return [(np.hstack([res.X_hat.data for res in mine]),
                 ChunkSupport.of([k for res in mine for k in res.T_hat], m),
                 float(np.mean([res.iterations for res in mine])), None,
                 any(res.rank_deficient_ls for res in mine))
                for mine in (runs[i:i + n] for i in range(0, len(runs), n))]
    Phi = np.stack([Phi for _, _, Phi in frames])
    if algorithm in PRIOR_ALGORITHMS:
        cfgs = []
        for (channel, _, _), T0 in zip(frames, T0s):
            cap = (len(T0) if believed_s_c is not None else
                   len(T0.intersection(channel.T_true)))
            cfgs.append(PursuitConfig(s_bar=scenario.s_bar, gamma=gamma_val,
                                      prior=PriorSupportInfo(T0, min(s_c_alg, cap))))
    else:
        cfgs = [PursuitConfig(s_bar=scenario.s_bar, gamma=gamma_val,
                              prior=PriorSupportInfo.empty(m))] * len(frames)
    return [(res.X_hat.data, res.T_hat, float(res.iterations), res.stop_reason,
             res.rank_deficient_ls)
            for res in recover_batch(algorithm, Y, Phi, cfgs)]


def estimate_supports(scenario: MimoScenario, frames, algorithm: str, T0s,
                      gamma: Optional[float] = None) -> list[ChunkSupport]:
    """The supports estimate_frames would find, not mapped back or scored:
    all that frames which only supply the next frames' priors T0 need."""
    return [e[1] for e in _estimate(scenario, frames, algorithm, T0s, gamma, None)]


def estimate_frames(scenario: MimoScenario, frames, algorithm: str, T0s,
                    gamma: Optional[float] = None,
                    believed_s_c: Optional[int] = None) -> list[FrameRecord]:
    """Estimate and score a list of simulate_frames entries with one
    algorithm, frame i with prior T0s[i]: the pursuits run as one batch, and
    each frame is mapped back and scored on its own. The PRIOR_ALGORITHMS
    read T0s[i], the previous frame's estimated support (empty for a first
    frame). The scenario's s_c floors only the overlap of true supports, so
    by default the prior's s_c is min(scenario s_c, |T0 ∩ T|) and the
    promise |T0 ∩ T| >= s_c holds. That count reads the measured frame's
    true support T, which no receiver has; criterion 08 passes only with it.
    An explicit believed_s_c is passed as told, clamped only to |T0|, and
    may overstate it (the mismatch study)."""
    records = []
    for (channel, _, _), (X_hat, T_hat, iterations, stop, deficient) in zip(
            frames, _estimate(scenario, frames, algorithm, T0s, gamma,
                              believed_s_c)):
        H_hat = recover_channel(X_hat, scenario.P, scenario.T)
        records.append(FrameRecord(
            nmse_ratio=_nmse_ratio(channel.H, H_hat),
            support_exact=(T_hat == channel.T_true), iterations=iterations,
            stop_reason=stop, rank_deficient_ls=deficient,
            T_true=channel.T_true, T_hat=T_hat))
    return records


def run_frame_sequence(scenario: MimoScenario, n_frames: int, algorithm: str,
                       rng: np.random.Generator,
                       gamma: Optional[float] = None,
                       noise: bool = True,
                       believed_s_c: Optional[int] = None,
                       pinned: bool = False) -> list[FrameRecord]:
    """n_frames of channel estimation with one algorithm: simulate_frames,
    pinned or not, then estimate_frames frame by frame with T0 empty for
    frame 1 and the previous frame's estimated support after it (see both
    for the data and the prior rule)."""
    records: list[FrameRecord] = []
    T0 = ChunkSupport.empty(scenario.M)
    for frame in simulate_frames(scenario, n_frames, rng, noise, pinned):
        records += estimate_frames(scenario, [frame], algorithm, [T0], gamma,
                                   believed_s_c)
        T0 = records[-1].T_hat
    return records
