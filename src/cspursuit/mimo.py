"""Downlink channel estimation as a chunk-sparse recovery problem.

A base station with M antennas sends T pilot symbols to an N_ue antenna
user. The channel is sparse in the angular domain: H = U H_a V^H with U, V
unitary DFT matrices and the rows of H_a sharing a small column support
that drifts slowly frame to frame. The received block Z = sqrt(P) H Theta
+ W is rearranged into Y = Phi X + N with a column-normalized sensing
matrix, recovered with a pursuit, and mapped back to the antenna domain.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import ChunkSupport, as_matrix, frobenius
from .errors import DimensionError, MetricError
from .pursuit import (PursuitConfig, StopReason, cmsp_recover, genie_ls,
                      mmv_sp_recover, msp_recover, sp_recover)
from .sparsity import PriorSupportInfo, SupportEvolutionParams, \
    generate_support_sequence

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
    "run_frame_sequence",
]

ALGORITHMS = ("msp", "cmsp", "mmv_sp", "sp", "genie")


@dataclass(frozen=True)
class MimoScenario:
    """Static problem dimensions. P is linear transmit power."""

    M: int
    N_ue: int
    T: int
    P: float
    s_bar: int
    evolution: SupportEvolutionParams

    def __post_init__(self) -> None:
        if min(self.M, self.N_ue, self.T) < 1:
            raise ValueError("M, N_ue, T must be positive")
        if self.P <= 0:
            raise ValueError(f"P must be positive, got {self.P}")
        if self.s_bar > self.M:
            raise ValueError(f"s_bar={self.s_bar} exceeds M={self.M}")
        if self.evolution.K != self.M:
            raise ValueError(
                f"evolution universe K={self.evolution.K} must equal M={self.M}")
        if self.evolution.s_bar != self.s_bar:
            raise ValueError(
                f"evolution s_bar={self.evolution.s_bar} != scenario {self.s_bar}")


@dataclass(frozen=True, eq=False)
class ChannelFrame:
    """One frame's channel in both domains plus its true angular support."""

    H: np.ndarray
    H_a: np.ndarray
    T_true: ChunkSupport


@dataclass(frozen=True, eq=False)
class FrameRecord:
    """Per-frame outcome of a recovery run."""

    frame: int
    nmse_ratio: float
    support_exact: bool
    iterations: float
    stop_reason: Optional[StopReason]
    rank_deficient_ls: bool
    T_true: ChunkSupport
    T_hat: ChunkSupport


def dft_unitary(n: int) -> np.ndarray:
    """Unitary DFT matrix, entry (a, b) = exp(-2 pi i a b / n) / sqrt(n)."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    a = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(a, a) / n) / np.sqrt(n)


def generate_pilots(M: int, T: int, rng: np.random.Generator) -> np.ndarray:
    """M x T pilot block with entries +-sqrt(1/M), so tr(Theta Theta^H) = T."""
    if M < 1 or T < 1:
        raise ValueError("M and T must be positive")
    signs = 2.0 * rng.integers(0, 2, size=(M, T)) - 1.0
    return signs.astype(np.complex128) / np.sqrt(M)


def generate_channel(scenario: MimoScenario, T_true: ChunkSupport,
                     rng: np.random.Generator,
                     U: Optional[np.ndarray] = None,
                     V: Optional[np.ndarray] = None) -> ChannelFrame:
    """Random channel whose angular rows share the column support T_true;
    nonzero entries are unit-variance complex Gaussian."""
    if T_true.K != scenario.M:
        raise DimensionError(f"support universe {T_true.K} != M={scenario.M}")
    n, m = scenario.N_ue, scenario.M
    H_a = np.zeros((n, m), dtype=np.complex128)
    cols = [k - 1 for k in T_true]
    if cols:
        vals = rng.standard_normal((n, len(cols))) + 1j * rng.standard_normal(
            (n, len(cols)))
        H_a[:, cols] = vals / np.sqrt(2.0)
    U = dft_unitary(n) if U is None else U
    V = dft_unitary(m) if V is None else V
    H = U @ H_a @ V.conj().T
    return ChannelFrame(H=H, H_a=H_a, T_true=T_true)


def to_cs_problem(Z, Theta, U, V, P: float, T: int,
                  M: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Rearrange a received block into sparse-recovery form.

    Returns (Y, Phi, scale) with Y = Z^H U (T x N_ue), Phi = sqrt(M/T)
    Theta^H V (T x M, unit expected column norm), and scale = sqrt(P T / M)
    so that Y = Phi (scale * H_a^H) + W^H U exactly.
    """
    Z = as_matrix(Z, "Z")
    Theta = as_matrix(Theta, "Theta")
    U = as_matrix(U, "U")
    V = as_matrix(V, "V")
    if Z.shape[1] != T or Theta.shape != (M, T):
        raise DimensionError(
            f"Z {Z.shape} and Theta {Theta.shape} must be N_ue x {T} and {M} x {T}")
    if U.shape != (Z.shape[0], Z.shape[0]) or V.shape != (M, M):
        raise DimensionError("U and V must be square transforms of N_ue and M")
    if P <= 0:
        raise ValueError(f"P must be positive, got {P}")
    Y = Z.conj().T @ U
    Phi = np.sqrt(M / T) * (Theta.conj().T @ V)
    scale = float(np.sqrt(P * T / M))
    return Y, Phi, scale


def recover_channel(X_hat, U, V, P: float, T: int, M: int) -> np.ndarray:
    """Map a recovered sparse-domain matrix back to the antenna domain:
    H_hat = sqrt(M/(P T)) U X_hat^H V^H."""
    X_hat = as_matrix(X_hat, "X_hat")
    U = as_matrix(U, "U")
    V = as_matrix(V, "V")
    if X_hat.shape[0] != M:
        raise DimensionError(f"X_hat has {X_hat.shape[0]} rows, M={M}")
    if P <= 0 or T < 1:
        raise ValueError("P and T must be positive")
    return np.sqrt(M / (P * T)) * (U @ X_hat.conj().T @ V.conj().T)


def nmse(pairs) -> float:
    """Mean of ||H - H_hat||_F^2 / ||H||_F^2 over (H, H_hat) pairs."""
    ratios = []
    for H, H_hat in pairs:
        denom = frobenius(as_matrix(H, "H"))
        if denom == 0.0:
            raise MetricError("reference channel has zero norm")
        ratios.append((frobenius(as_matrix(H_hat, "H_hat") - H) / denom) ** 2)
    if not ratios:
        raise MetricError("nmse needs at least one pair")
    return float(np.mean(ratios))


def _complex_noise(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def default_gamma(N_ue: int, T: int) -> float:
    """Residue threshold sqrt(2 * N_ue * T): the noise block has expected
    squared norm N_ue * T, and the factor 2 leaves stopping headroom."""
    return float(np.sqrt(2.0 * N_ue * T))


def run_frame_sequence(scenario: MimoScenario, n_frames: int, algorithm: str,
                       rng: np.random.Generator,
                       gamma: Optional[float] = None,
                       noise: bool = True,
                       believed_s_c: Optional[int] = None,
                       fixed_overlap: Optional[int] = None,
                       max_iter: int = 100) -> list[FrameRecord]:
    """Simulate n_frames of channel estimation with one algorithm.

    Frame 1 always runs with the no-information prior; later frames use the
    previous frame's estimated support as T0 with s_c = believed_s_c
    (default: the evolution parameter), clamped to |T0|. Data generation
    consumes the rng identically for every algorithm, so runs with the same
    seed are paired. fixed_overlap pins the true consecutive overlap.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}, expected {ALGORITHMS}")
    if n_frames < 1:
        raise ValueError(f"n_frames must be positive, got {n_frames}")
    m, n, t = scenario.M, scenario.N_ue, scenario.T
    gamma_val = default_gamma(n, t) if gamma is None else float(gamma)
    s_c_alg = scenario.evolution.s_c if believed_s_c is None else believed_s_c
    if s_c_alg < 0:
        raise ValueError(f"believed s_c must be nonnegative, got {believed_s_c}")

    supports = generate_support_sequence(scenario.evolution, n_frames, rng,
                                         fixed_overlap=fixed_overlap)
    U = dft_unitary(n)
    V = dft_unitary(m)
    records: list[FrameRecord] = []
    prev_T_hat: Optional[ChunkSupport] = None

    for i, T_true in enumerate(supports, start=1):
        frame = generate_channel(scenario, T_true, rng, U=U, V=V)
        Theta = generate_pilots(m, t, rng)
        W = _complex_noise(rng, (n, t)) if noise else np.zeros((n, t), complex)
        Z = np.sqrt(scenario.P) * frame.H @ Theta + W
        Y, Phi, scale = to_cs_problem(Z, Theta, U, V, scenario.P, t, m)

        if algorithm == "genie":
            X_hat = genie_ls(Y, Phi, T_true, d=1).data
            T_hat = T_true
            iterations = 0.0
            stop: Optional[StopReason] = None
            deficient = False
        elif algorithm == "sp":
            # one scalar-sparse problem per receive antenna, supports pooled
            cols = []
            iter_counts = []
            deficient = False
            pooled: set[int] = set()
            for j in range(n):
                res = sp_recover(Y[:, j:j + 1], Phi, scenario.s_bar,
                                 gamma_val / np.sqrt(n), max_iter=max_iter)
                cols.append(res.X_hat.data)
                pooled |= res.T_hat.as_set()
                iter_counts.append(res.iterations)
                deficient = deficient or res.rank_deficient_ls
            X_hat = np.hstack(cols)
            T_hat = ChunkSupport.of(pooled, m)
            iterations = float(np.mean(iter_counts))
            stop = None
        else:
            if algorithm == "mmv_sp":
                res = mmv_sp_recover(Y, Phi, scenario.s_bar, gamma_val,
                                     max_iter=max_iter)
            else:
                prior = (PriorSupportInfo.empty(m) if prev_T_hat is None else
                         PriorSupportInfo(prev_T_hat,
                                          min(s_c_alg, len(prev_T_hat))))
                cfg = PursuitConfig(s_bar=scenario.s_bar, prior=prior,
                                    gamma=gamma_val, d=1, max_iter=max_iter)
                solver = cmsp_recover if algorithm == "cmsp" else msp_recover
                res = solver(Y, Phi, cfg)
            X_hat = res.X_hat.data
            T_hat = res.T_hat
            iterations = float(res.iterations)
            stop = res.stop_reason
            deficient = res.rank_deficient_ls

        H_hat = recover_channel(X_hat, U, V, scenario.P, t, m)
        records.append(FrameRecord(
            frame=i, nmse_ratio=nmse([(frame.H, H_hat)]),
            support_exact=(T_hat == T_true), iterations=iterations,
            stop_reason=stop, rank_deficient_ls=deficient,
            T_true=T_true, T_hat=T_hat))
        prev_T_hat = T_hat

    return records
