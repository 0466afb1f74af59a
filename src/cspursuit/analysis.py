"""Chunk isometry constants and closed-form recovery guarantees.

delta_{k|d} is the smallest delta with (1-delta)||X||^2 <= ||Phi X||^2 <=
(1+delta)||X||^2 over all X supported on at most k chunks of height d.
The guarantee constants degrade gracefully as the deltas grow; the pursuit
contraction factor crosses 1 near delta = 0.246, which is where the
convergence statements stop applying.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import ChunkIndexing, ChunkSupport, as_matrix, chunking, frobenius
from .errors import (BoundPreconditionError, DimensionError,
                     EnumerationCapError, RipViolationError)
from .sparsity import ChunkSparseMatrix, chunk_support

__all__ = [
    "RipQuery",
    "BoundConstants",
    "InequalityCheck",
    "Lemma1Report",
    "block_rip_exact",
    "block_rip_montecarlo",
    "msp_constants",
    "cmsp_constants",
    "msp_distortion_bound",
    "msp_refined_distortion_bound",
    "msp_convergence_bound",
    "cmsp_distortion_bound",
    "cmsp_refined_distortion_bound",
    "cmsp_convergence_bound",
    "channel_recovery_bound",
    "lemma1_check",
]

ENUMERATION_CAP = 2_000_000

# contraction factor threshold: below this delta the pursuit provably
# converges geometrically
CONTRACTION_DELTA = 0.246


@dataclass(frozen=True)
class RipQuery:
    """Order k and chunk height d of an isometry-constant request."""

    k: int
    d: int

    def __post_init__(self) -> None:
        if self.k < 1 or self.d < 1:
            raise ValueError(f"k and d must be positive, got k={self.k}, d={self.d}")


def _gram_extremes(sub: np.ndarray) -> tuple[float, float]:
    """(lam_max, lam_min) of the Gram of sub's columns."""
    s = np.linalg.svd(sub, compute_uv=False)
    lam_max = float(s[0] ** 2)
    # a wide submatrix has a singular Gram
    lam_min = 0.0 if sub.shape[1] > sub.shape[0] else float(s[-1] ** 2)
    return lam_max, lam_min


def _max_deviation(Phi: np.ndarray, idx: ChunkIndexing, supports) -> float:
    """Largest deviation from 1 of a Gram eigenvalue over supports given as
    ascending tuples of 0-based chunks."""
    blocks = Phi.reshape(Phi.shape[0], idx.K, idx.d)
    delta = 0.0
    for chunks in supports:
        sub = blocks[:, list(chunks)].reshape(Phi.shape[0], -1)
        lam_max, lam_min = _gram_extremes(sub)
        delta = max(delta, lam_max - 1.0, 1.0 - lam_min)
    return float(delta)


def _exact_delta(Phi: np.ndarray, idx: ChunkIndexing, k: int, cap: int) -> float:
    if k > idx.K:
        raise DimensionError(f"k={k} exceeds K={idx.K}")
    n_supports = math.comb(idx.K, k)
    if n_supports > cap:
        raise EnumerationCapError(
            f"C({idx.K},{k}) = {n_supports} supports exceeds cap {cap}")
    return _max_deviation(Phi, idx, itertools.combinations(range(idx.K), k))


def block_rip_exact(Phi, q: RipQuery, cap: int = ENUMERATION_CAP) -> float:
    """Exact delta_{k|d} by enumerating all k-chunk supports.

    Raises EnumerationCapError when C(K, k) exceeds cap. Values >= 1 are
    reported as computed, not clamped.
    """
    Phi = as_matrix(Phi, "Phi")
    return _exact_delta(Phi, chunking(Phi, q.d), q.k, cap)


def block_rip_montecarlo(Phi, q: RipQuery, n_samples: int,
                         rng: np.random.Generator) -> float:
    """Lower bound on delta_{k|d} from sampled supports (deduplicated).

    When n_samples covers every support the sweep is exhaustive and the
    value equals block_rip_exact.
    """
    Phi = as_matrix(Phi, "Phi")
    idx = chunking(Phi, q.d)
    if n_samples < 1:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    # exhaustive when n_samples covers every support; C(K, k) = 0 for k > K,
    # which _exact_delta rejects
    if n_samples >= math.comb(idx.K, q.k):
        return _exact_delta(Phi, idx, q.k, n_samples)
    seen = set()
    for _ in range(n_samples):
        seen.add(tuple(sorted(rng.choice(idx.K, size=q.k, replace=False))))
    return _max_deviation(Phi, idx, sorted(seen))


@dataclass(frozen=True)
class BoundConstants:
    """Guarantee constants for one pursuit variant.

    delta maps order labels to isometry constants. The modified-pursuit
    set fills c1, c2, c4 (c3 is the method below); the conservative set
    fills c5, c6, c7. valid records whether the contraction precondition
    holds (the governing delta below 0.246).
    """

    delta: dict = field(repr=False)
    s_bar: int = 0
    s_c: int = 0
    t0_size: int = 0
    s1: Optional[int] = None
    s2: Optional[int] = None
    s3: Optional[int] = None
    c1: Optional[float] = None
    c2: Optional[float] = None
    c4: Optional[float] = None
    c5: Optional[float] = None
    c6: Optional[float] = None
    c7: Optional[float] = None
    valid: bool = False

    def c3(self, l: int) -> float:
        """Per-iteration distortion prefactor of the modified pursuit."""
        if self.c1 is None or self.c2 is None:
            raise ValueError("c3 needs the modified-pursuit constants")
        if self.c1 >= 1.0:
            raise RipViolationError(f"c1 = {self.c1} >= 1, no contraction")
        geo = self.c2 / (1.0 - self.c1)
        return (self.c1 ** l * (1.0 - geo) + geo + 1.0) / math.sqrt(
            1.0 - self.delta["s1"])


def _check_delta(name: str, value: float) -> float:
    v = float(value)
    if not 0.0 <= v < 1.0:
        raise RipViolationError(f"delta_{name} = {v} outside [0, 1)")
    return v


def _contraction(delta: float) -> float:
    # 2 d sqrt(1+d) sqrt(1 - d + 4 d^2 + 4 d^3) / (1-d)^2
    return (2.0 * delta * math.sqrt(1.0 + delta)
            * math.sqrt(1.0 - delta + 4.0 * delta ** 2 + 4.0 * delta ** 3)
            / (1.0 - delta) ** 2)


def _merge_loss(d_top: float, d_a: float, d_b: float, d_c: float) -> float:
    # 2 sqrt((1+d_top)/(1-d_a))
    #   + sqrt(1+d_top) sqrt(1 + 4 d_b^2 (1+d_b)/(1-d_a))
    #     * (2 d_b / ((1-d_top) sqrt(1-d_c)) + 2 sqrt(1+d_top)/(1-d_top)) + 1
    term1 = 2.0 * math.sqrt((1.0 + d_top) / (1.0 - d_a))
    inner = math.sqrt(1.0 + 4.0 * d_b ** 2 * (1.0 + d_b) / (1.0 - d_a))
    paren = (2.0 * d_b / ((1.0 - d_top) * math.sqrt(1.0 - d_c))
             + 2.0 * math.sqrt(1.0 + d_top) / (1.0 - d_top))
    return term1 + math.sqrt(1.0 + d_top) * inner * paren + 1.0


def _steady_state(c_contraction: float, c_loss: float, d_floor: float) -> float:
    # (1 - c + C) / ((1 - c) sqrt(1 - d)); infinite without contraction
    if c_contraction >= 1.0:
        return math.inf
    return ((1.0 - c_contraction + c_loss)
            / ((1.0 - c_contraction) * math.sqrt(1.0 - d_floor)))


def msp_constants(delta_sbar: float, delta_s1: float, delta_s2: float,
                  s_bar: int, t0_size: int, s_c: int) -> BoundConstants:
    """Constants of the modified pursuit's guarantees.

    The orders are s1 = 2 s_bar + min(0, |T0| - 2 s_c) and
    s2 = 3 s_bar + min(0, |T0| - 3 s_c).
    """
    d_sbar = _check_delta("s_bar", delta_sbar)
    d_s1 = _check_delta("s1", delta_s1)
    d_s2 = _check_delta("s2", delta_s2)
    if not 0 <= s_c <= t0_size:
        raise ValueError(f"need 0 <= s_c <= |T0|, got s_c={s_c}, |T0|={t0_size}")
    s1 = 2 * s_bar + min(0, t0_size - 2 * s_c)
    s2 = 3 * s_bar + min(0, t0_size - 3 * s_c)
    c1 = _contraction(d_s2)
    c2 = _merge_loss(d_sbar, d_s1, d_s2, d_s1)
    c4 = _steady_state(c1, c2, d_s1)
    return BoundConstants(
        delta={"s_bar": d_sbar, "s1": d_s1, "s2": d_s2},
        s_bar=s_bar, s_c=s_c, t0_size=t0_size, s1=s1, s2=s2,
        c1=c1, c2=c2, c4=c4, valid=d_s2 < CONTRACTION_DELTA)


def cmsp_constants(delta_sbar: float, delta_2sbar: float,
                   delta_2sbar_sc: float, delta_3sbar_sc: float,
                   s_bar: int, s_c: int, t0_size: int,
                   overlap: Optional[int] = None,
                   delta_s3: Optional[float] = None) -> BoundConstants:
    """Constants of the conservative pursuit's guarantees.

    s3 = 3 s_bar + s_c + min(0, |T0| - overlap - s_c) when the true overlap
    |T0 ∩ T| is supplied, else the conservative form 3 s_bar + s_c. The
    contraction factor needs delta at order s3; when s3 is below
    3 s_bar + s_c and no delta_s3 is given, delta_{3 s_bar + s_c} stands in
    as an upper bound (isometry constants are monotone in the order).
    """
    d_sbar = _check_delta("s_bar", delta_sbar)
    d_2sbar = _check_delta("2s_bar", delta_2sbar)
    d_2sbar_sc = _check_delta("2s_bar_plus_s_c", delta_2sbar_sc)
    d_3sbar_sc = _check_delta("3s_bar_plus_s_c", delta_3sbar_sc)
    if not 0 <= s_c <= t0_size:
        raise ValueError(f"need 0 <= s_c <= |T0|, got s_c={s_c}, |T0|={t0_size}")
    if overlap is None:
        s3 = 3 * s_bar + s_c
    else:
        if overlap < 0 or overlap > t0_size:
            raise ValueError(f"overlap must be in 0..|T0|, got {overlap}")
        s3 = 3 * s_bar + s_c + min(0, t0_size - overlap - s_c)
    d_s3 = d_3sbar_sc if delta_s3 is None else _check_delta("s3", delta_s3)
    c5 = _contraction(d_s3)
    c6 = _merge_loss(d_sbar, d_2sbar_sc, d_3sbar_sc, d_2sbar)
    c7 = _steady_state(c5, c6, d_2sbar)
    return BoundConstants(
        delta={"s_bar": d_sbar, "2s_bar": d_2sbar,
               "2s_bar_plus_s_c": d_2sbar_sc, "3s_bar_plus_s_c": d_3sbar_sc,
               "s3": d_s3},
        s_bar=s_bar, s_c=s_c, t0_size=t0_size, s3=s3,
        c5=c5, c6=c6, c7=c7, valid=d_s3 < CONTRACTION_DELTA)


def _require_contraction(constants: BoundConstants, label: str) -> None:
    if not constants.valid:
        raise RipViolationError(
            f"delta_{label} = {constants.delta[label]} >= {CONTRACTION_DELTA}, "
            "guarantee does not apply")


def msp_distortion_bound(constants: BoundConstants, gamma: float,
                         eta: float) -> float:
    """Worst-case ||X - X_hat||_F after the modified pursuit stops, for
    noise norm eta and stopping threshold gamma."""
    _require_contraction(constants, "s2")
    return max(constants.c4 * eta,
               (gamma + eta) / math.sqrt(1.0 - constants.delta["s1"]))


def msp_refined_distortion_bound(constants: BoundConstants, gamma: float,
                                 eta: float, min_chunk_energy: float) -> float:
    """Tighter bound available when every true chunk is energetic enough:
    min_chunk_energy must exceed the plain bound, else
    BoundPreconditionError."""
    base = msp_distortion_bound(constants, gamma, eta)
    if not min_chunk_energy > base:
        raise BoundPreconditionError(
            f"min chunk energy > plain bound violated: {min_chunk_energy} <= {base}")
    return eta / math.sqrt(1.0 - constants.delta["s_bar"])


def cmsp_distortion_bound(constants: BoundConstants, gamma: float,
                          eta: float) -> float:
    """Worst-case ||X - X_hat||_F after the conservative pursuit stops."""
    _require_contraction(constants, "s3")
    return max(constants.c7 * eta,
               (gamma + eta) / math.sqrt(1.0 - constants.delta["2s_bar"]))


def cmsp_refined_distortion_bound(constants: BoundConstants, gamma: float,
                                  eta: float, min_chunk_energy: float,
                                  delta_s1: Optional[float] = None) -> float:
    """Conservative counterpart of the refined bound.

    The energy gate compares against max(c7 eta, (gamma+eta)/sqrt(1-delta))
    where delta defaults to the 2 s_bar order (an upper bound on the gate's
    nominal order); pass delta_s1 to use a sharper value.
    """
    _require_contraction(constants, "s3")
    d_gate = constants.delta["2s_bar"] if delta_s1 is None else _check_delta(
        "s1", delta_s1)
    gate = max(constants.c7 * eta, (gamma + eta) / math.sqrt(1.0 - d_gate))
    if not min_chunk_energy > gate:
        raise BoundPreconditionError(
            f"min chunk energy > gate violated: {min_chunk_energy} <= {gate}")
    return eta / math.sqrt(1.0 - constants.delta["s_bar"])


def _convergence_iterations(c_contraction: float, c_loss: float,
                            delta_sbar: float, gamma: float, eta: float,
                            rho: float) -> float:
    """Iteration count after which the residue provably drops below gamma."""
    if c_contraction >= 1.0:
        raise RipViolationError(
            f"contraction factor {c_contraction} >= 1, no convergence guarantee")
    floor = c_loss * eta / (1.0 - c_contraction) if eta > 0 else 0.0
    rho_gate = ((c_loss + c_contraction - 1.0) / (1.0 - c_contraction) * eta) ** 2
    if not rho > rho_gate:
        raise BoundPreconditionError(
            f"rho > ((C_loss + C_contraction - 1)/(1 - C_contraction) eta)^2 "
            f"violated: {rho} <= {rho_gate}")
    if not gamma > floor:
        raise BoundPreconditionError(
            f"gamma > C_loss eta / (1 - C_contraction) violated: "
            f"{gamma} <= {floor}")
    if c_contraction == 0.0:
        return 0.0
    start = math.sqrt(1.0 + delta_sbar) * math.sqrt(rho) + eta - floor
    ratio = (gamma - floor) / start
    if ratio >= 1.0:
        return 0.0
    return math.log(ratio) / math.log(c_contraction)


def msp_convergence_bound(constants: BoundConstants, gamma: float, eta: float,
                          rho: float) -> float:
    """Iterations needed before the modified pursuit's stopping threshold
    is provably met; rho is the total signal energy ||X||_F^2."""
    _require_contraction(constants, "s2")
    return _convergence_iterations(constants.c1, constants.c2,
                                   constants.delta["s_bar"], gamma, eta, rho)


def cmsp_convergence_bound(constants: BoundConstants, gamma: float, eta: float,
                           rho: float) -> float:
    """Conservative-pursuit counterpart of msp_convergence_bound."""
    _require_contraction(constants, "s3")
    return _convergence_iterations(constants.c5, constants.c6,
                                   constants.delta["s_bar"], gamma, eta, rho)


def channel_recovery_bound(delta_s2: float, c4: float, gamma: float, M: int,
                           N_ue: int, T: int, P: float) -> float:
    """Expected channel estimation error bound sqrt(M/(P T)) * ((c4 +
    1/sqrt(1-delta)) E||W||_F + gamma/sqrt(1-delta)) with E||W||_F the
    Gaussian-noise mean norm, evaluated through log-gamma."""
    d = _check_delta("s2", delta_s2)
    if d >= CONTRACTION_DELTA:
        raise RipViolationError(
            f"delta_s2 = {d} >= {CONTRACTION_DELTA}, guarantee does not apply")
    if min(M, N_ue, T) < 1:
        raise ValueError("M, N_ue, T must be positive")
    if P <= 0:
        raise ValueError(f"P must be positive, got {P}")
    nt = N_ue * T
    mean_noise_norm = math.exp(math.lgamma(nt + 0.5) - math.lgamma(nt))
    scale = math.sqrt(M / (P * T))
    inv = 1.0 / math.sqrt(1.0 - d)
    return scale * ((c4 + inv) * mean_noise_norm + gamma * inv)


@dataclass(frozen=True)
class InequalityCheck:
    name: str
    lhs: float
    rhs: float
    passed: bool


@dataclass(frozen=True)
class Lemma1Report:
    checks: tuple[InequalityCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)


def lemma1_check(Phi, T1: ChunkSupport, T2: ChunkSupport,
                 X: ChunkSparseMatrix, q: RipQuery,
                 cap: int = ENUMERATION_CAP, tol: float = 1e-10) -> Lemma1Report:
    """Numerically evaluate the isometry-constant inequalities on one
    concrete instance.

    T1, T2 must be disjoint; X must be chunk-supported inside T1; q.d is
    the chunk height and q.k the combined order (>= |T1| + |T2|). Five
    checks: delta monotonicity across orders, the Gram eigenvalue sandwich
    and pseudoinverse norm bound on T1, the cross-Gram bound, and the
    projection leakage bound. A delta >= 1 makes the pseudoinverse bound
    vacuous (rhs = inf, passes).
    """
    Phi = as_matrix(Phi, "Phi")
    idx = chunking(Phi, q.d)
    K = idx.K
    if T1.K != K or T2.K != K:
        raise DimensionError(f"support universes must equal K={K}")
    if T1.as_set() & T2.as_set():
        raise ValueError("T1 and T2 must be disjoint")
    if len(T1) < 1 or len(T2) < 1:
        raise ValueError("T1 and T2 must be nonempty")
    if q.k < len(T1) + len(T2):
        raise ValueError(f"q.k must cover |T1|+|T2| = {len(T1) + len(T2)}")
    if q.k > K:
        raise DimensionError(f"q.k={q.k} exceeds K={K}")
    if X.idx.K != K or X.idx.d != q.d:
        raise DimensionError("X indexing must match Phi chunking")
    if not chunk_support(X).as_set() <= T1.as_set():
        raise ValueError("X must be chunk-supported inside T1")

    k1, k2, kc = len(T1), len(T2), q.k
    d_k1 = _exact_delta(Phi, idx, k1, cap)
    d_k2 = d_k1 if k2 == k1 else _exact_delta(Phi, idx, k2, cap)
    d_kc = _exact_delta(Phi, idx, kc, cap)
    checks = []

    hi = max(d_k1, d_k2)
    checks.append(InequalityCheck("order_monotonicity", hi, d_kc,
                                  hi <= d_kc + tol))

    sub1 = Phi[:, idx.rows_of(T1)]
    lam_max, lam_min = _gram_extremes(sub1)
    sandwich = (1.0 - d_k1 <= lam_min + tol) and (lam_max <= 1.0 + d_k1 + tol)
    checks.append(InequalityCheck("gram_eigenvalue_sandwich", lam_max,
                                  1.0 + d_k1, sandwich))

    pinv_lhs = float(np.linalg.norm(np.linalg.pinv(sub1), 2))
    pinv_rhs = math.inf if d_k1 >= 1.0 else 1.0 / math.sqrt(1.0 - d_k1)
    checks.append(InequalityCheck("pseudoinverse_norm", pinv_lhs, pinv_rhs,
                                  pinv_lhs <= pinv_rhs + tol))

    sub2 = Phi[:, idx.rows_of(T2)]
    cross = float(np.linalg.norm(sub1.conj().T @ sub2, 2))
    checks.append(InequalityCheck("cross_gram", cross, d_kc,
                                  cross <= d_kc + tol))

    proj = sub2 @ np.linalg.pinv(sub2)
    leak = frobenius(proj @ (Phi @ X.data))
    rhs = d_kc * math.sqrt(1.0 + d_kc) * frobenius(X.data)
    checks.append(InequalityCheck("projection_leakage", leak, rhs,
                                  leak <= rhs + tol))

    return Lemma1Report(tuple(checks))
