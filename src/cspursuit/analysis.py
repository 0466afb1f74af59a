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

from .core import (ChunkIndexing, ChunkSupport, _check_number, _check_rng,
                   _check_scale, _rows, _whole, _whole_fields, as_matrix,
                   chunking, frobenius)
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
    "isometry_orders",
    "msp_constants",
    "cmsp_constants",
    "msp_distortion_bound",
    "msp_refined_distortion_bound",
    "msp_convergence_bound",
    "channel_recovery_bound",
    "lemma1_check",
]

ENUMERATION_CAP = 2_000_000

# supports _max_deviation visits at once; the running delta prunes between
# blocks, so a block is small
_SUPPORT_BLOCK = 32
# chunks whose rows of Phi^H Phi _deviation_bounds holds at once
_TABLE_BLOCK = 128

# contraction factor threshold: below this delta the pursuit provably
# converges geometrically
CONTRACTION_DELTA = 0.246


@dataclass(frozen=True)
class RipQuery:
    """Order k and chunk height d of an isometry-constant request."""

    k: int
    d: int

    def __post_init__(self) -> None:
        _whole_fields(self, k=1, d=1)


def _gram_extremes(sub: np.ndarray) -> tuple[float, float]:
    """(lam_max, lam_min) of the Gram sub^H sub, by its eigenvalues."""
    eigs = np.linalg.eigvalsh(sub.conj().T @ sub)
    # a wide submatrix has a singular Gram
    lam_min = 0.0 if sub.shape[1] > sub.shape[0] else float(eigs[0])
    return float(eigs[-1]), lam_min


def _combinations(K: int, k: int) -> np.ndarray:
    """Every k-subset of range(K) as a row, in itertools.combinations order;
    the columns are contiguous, the order _deviation_bounds reads them in."""
    cols = [np.arange(K - k + 1)]
    for j in range(1, k):
        # entry j runs from one past entry j - 1 up to K - k + j
        counts = K - k + j - cols[-1]
        cols = [np.repeat(col, counts) for col in cols]
        step = np.arange(len(cols[0])) - np.repeat(np.cumsum(counts) - counts, counts)
        cols.append(cols[-1] + 1 + step)
    return np.stack(cols).T


def _deviation_bounds(Phi: np.ndarray, idx: ChunkIndexing,
                      supports: np.ndarray) -> np.ndarray:
    """A bound on ||Phi_T^H Phi_T - I||_2 of each support T, a row of
    0-based chunks: the Frobenius norm of the k x k matrix of the
    ||B_ij^H B_ij||_F^(1/2) >= ||B_ij||_2, B_ij = Phi_i^H Phi_j - delta_ij I,
    read off a K x K table t. It is at most ||G_T - I||_F, equal at d = 1
    but for rounding. The table is read as max(t, t^T), which only raises
    the bound, so a support takes k diagonal lookups and k(k-1)/2 doubled
    off-diagonal ones, each a gather of one flat index per support."""
    K, d = idx.K, idx.d
    table = np.empty((K, K))
    for start in range(0, K, _TABLE_BLOCK):
        gram = Phi[:, start * d:(start + _TABLE_BLOCK) * d].conj().T @ Phi
        gram -= np.eye(len(gram), K * d, start * d)
        # axes (i, a, j, c) hold entry (a, c) of B_ij
        blocks = gram.reshape(-1, d, K, d)
        # an entry whose products overflow bounds nothing: it becomes inf
        with np.errstate(over="ignore", invalid="ignore"):
            square = np.einsum("iajc,iajb->ijcb", blocks.conj(), blocks)
            table[start:start + _TABLE_BLOCK] = np.sqrt(
                (square.real ** 2 + square.imag ** 2).sum(axis=(2, 3)))
    table[np.isnan(table)] = np.inf
    # B_ji = B_ij^H, so t is symmetric but for rounding
    flat = np.maximum(table, table.T).ravel()
    cols = supports.T
    diagonal = sum(flat[col * (K + 1)] for col in cols)
    across = sum(flat[a * K + b] for a, b in itertools.combinations(cols, 2))
    return np.sqrt(diagonal + 2.0 * across)


def _max_deviation(Phi: np.ndarray, idx: ChunkIndexing,
                   supports: np.ndarray) -> float:
    """Largest deviation from 1 of an eigenvalue of Phi_T^H Phi_T over the
    supports T, the rows of an integer array of 0-based chunks.

    Every eigenvalue of a Hermitian G lies within ||G - I||_2 of 1, and
    _deviation_bounds bounds that norm. A support's reach is its bound plus
    a margin of 1e-8 bound + 1e-10, far above the rounding of the bound
    table and of eigvalsh. The first block is the _SUPPORT_BLOCK supports
    of highest reach, found by a partition, not a sort. Only the supports
    outside it whose reach reaches its delta are sorted, and they are
    visited by descending reach, _SUPPORT_BLOCK at a time. A block's
    supports that reach the running delta get their Grams formed from
    their own columns and sent to one stacked eigvalsh; the first block
    with none ends the pass. So delta equals exhaustive enumeration's bit
    for bit."""
    bound = _deviation_bounds(Phi, idx, supports)
    reach = bound + 1e-8 * bound + 1e-10
    # row j of Phi^H is column j of Phi, conjugated
    phi_h = Phi.conj().T

    def raised(delta: float, block: np.ndarray) -> float:
        cols = _rows(supports[block].ravel(), idx.d).reshape(len(block), -1)
        sub_h = phi_h[cols]
        eigs = np.linalg.eigvalsh(sub_h @ sub_h.conj().transpose(0, 2, 1))
        # a wide submatrix has a singular Gram
        lam_min = 0.0 if cols.shape[1] > Phi.shape[0] else eigs[:, 0].min()
        return max(delta, eigs[:, -1].max() - 1.0, 1.0 - lam_min)

    # ties may go in any order: delta is their maximum either way
    top = np.argpartition(-reach, min(_SUPPORT_BLOCK, len(reach)) - 1)[:_SUPPORT_BLOCK]
    delta = raised(0.0, top)
    outside = reach >= delta
    outside[top] = False
    rest = np.flatnonzero(outside)
    rest = rest[np.argsort(-reach[rest])]
    for start in range(0, len(rest), _SUPPORT_BLOCK):
        block = rest[start:start + _SUPPORT_BLOCK]
        block = block[reach[block] >= delta]
        if not len(block):
            break
        delta = raised(delta, block)
    return float(delta)


def _rip_phi(Phi, d: int) -> tuple[np.ndarray, ChunkIndexing]:
    """Phi checked, its scale too, and chunked at height d."""
    Phi = as_matrix(Phi, "Phi")
    _check_scale(Phi[None], "Phi")
    return Phi, chunking(Phi, d)


def _exact_delta(Phi: np.ndarray, idx: ChunkIndexing, k: int, cap: int) -> float:
    if k > idx.K:
        raise DimensionError(f"k={k} exceeds K={idx.K}")
    n_supports = math.comb(idx.K, k)
    if n_supports > cap:
        raise EnumerationCapError(
            f"C({idx.K},{k}) = {n_supports} supports exceeds cap {cap}")
    return _max_deviation(Phi, idx, _combinations(idx.K, k))


def block_rip_exact(Phi, q: RipQuery, cap: int = ENUMERATION_CAP) -> float:
    """Exact delta_{k|d} by enumerating all k-chunk supports.

    Raises EnumerationCapError when C(K, k) exceeds cap, a positive whole
    number. Values >= 1 are reported as computed, not clamped.
    """
    return _exact_delta(*_rip_phi(Phi, q.d), q.k, _whole(cap, "cap", 1))


def block_rip_montecarlo(Phi, q: RipQuery, n_samples: int,
                         rng: np.random.Generator) -> float:
    """Lower bound on delta_{k|d} from sampled supports (deduplicated).

    When n_samples covers every support the sweep is exhaustive and the
    value equals block_rip_exact.
    """
    Phi, idx = _rip_phi(Phi, q.d)
    n_samples = _whole(n_samples, "n_samples", 1)
    # exhaustive when n_samples covers every support; C(K, k) = 0 for k > K,
    # which _exact_delta rejects
    if n_samples >= math.comb(idx.K, q.k):
        return _exact_delta(Phi, idx, q.k, n_samples)
    _check_rng(rng)
    # row i's first k entries of a random permutation are support i
    draws = np.argsort(rng.random((n_samples, idx.K)), axis=1)[:, :q.k]
    return _max_deviation(Phi, idx, np.unique(np.sort(draws, axis=1), axis=0))


@dataclass(frozen=True)
class BoundConstants:
    """Guarantee constants for one pursuit variant.

    delta maps order labels to isometry constants. The modified-pursuit
    set fills c1, c2, c4 (c3 is the method below); the conservative set
    fills c5, c6, c7. valid records whether the contraction precondition
    holds (the governing delta below 0.246).
    """

    delta: dict = field(repr=False)
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
    """value as a float, refused by name unless a number in [0, 1)."""
    _check_number(value, f"delta_{name}", error=RipViolationError)
    v = float(value)
    if not v < 1.0:
        raise RipViolationError(f"delta_{name} = {v} outside [0, 1)")
    return v


def _finite_bound(name: str, bound: float, **inputs: float) -> float:
    """bound, or BoundPreconditionError naming the inputs it overflows at."""
    if not math.isfinite(bound):
        at = ", ".join(f"{key} = {value}" for key, value in inputs.items())
        raise BoundPreconditionError(f"{name} overflows a float at {at}")
    return bound


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


def isometry_orders(s_bar: int, s_c: int, t0_size: int,
                    conservative: bool = False) -> tuple[int, ...]:
    """Orders of the isometry constants a pursuit's guarantee reads, in the
    order msp_constants or cmsp_constants takes their deltas. Modified
    pursuit: s_bar, s1 = 2 s_bar + min(0, |T0| - 2 s_c) and
    s2 = 3 s_bar + min(0, |T0| - 3 s_c). Conservative pursuit: s_bar,
    2 s_bar, 2 s_bar + s_c and 3 s_bar + s_c. Raises ValueError unless
    s_bar >= 1 and 0 <= s_c <= |T0|, the prior the guarantees assume."""
    s_bar, s_c, t0_size = (_whole(s_bar, "s_bar"), _whole(s_c, "s_c"),
                           _whole(t0_size, "t0_size"))
    if not (s_bar >= 1 and 0 <= s_c <= t0_size):
        raise ValueError(f"need s_bar >= 1 and 0 <= s_c <= |T0|, got "
                         f"s_bar={s_bar}, s_c={s_c}, |T0|={t0_size}")
    if conservative:
        return s_bar, 2 * s_bar, 2 * s_bar + s_c, 3 * s_bar + s_c
    return (s_bar, 2 * s_bar + min(0, t0_size - 2 * s_c),
            3 * s_bar + min(0, t0_size - 3 * s_c))


def msp_constants(delta_sbar: float, delta_s1: float, delta_s2: float,
                  s_bar: int, t0_size: int, s_c: int) -> BoundConstants:
    """Constants of the modified pursuit's guarantees, with the deltas at
    the orders s_bar, s1 and s2 of isometry_orders."""
    d_sbar = _check_delta("s_bar", delta_sbar)
    d_s1 = _check_delta("s1", delta_s1)
    d_s2 = _check_delta("s2", delta_s2)
    _, s1, s2 = isometry_orders(s_bar, s_c, t0_size)
    c1 = _contraction(d_s2)
    c2 = _merge_loss(d_sbar, d_s1, d_s2, d_s1)
    c4 = _steady_state(c1, c2, d_s1)
    return BoundConstants(
        delta={"s_bar": d_sbar, "s1": d_s1, "s2": d_s2},
        s1=s1, s2=s2, c1=c1, c2=c2, c4=c4, valid=d_s2 < CONTRACTION_DELTA)


def cmsp_constants(delta_sbar: float, delta_2sbar: float,
                   delta_2sbar_sc: float, delta_3sbar_sc: float,
                   s_bar: int, s_c: int, t0_size: int,
                   overlap: Optional[int] = None) -> BoundConstants:
    """Constants of the conservative pursuit's guarantees, with the deltas
    at the orders of isometry_orders(conservative=True).

    s3 = 3 s_bar + s_c + min(0, |T0| - overlap - s_c) when the true overlap
    |T0 ∩ T| is supplied, else 3 s_bar + s_c. delta_{3 s_bar + s_c} stands
    in for delta at order s3, an upper bound when s3 is lower (isometry
    constants are monotone in the order).
    """
    d_sbar = _check_delta("s_bar", delta_sbar)
    d_2sbar = _check_delta("2s_bar", delta_2sbar)
    d_2sbar_sc = _check_delta("2s_bar_plus_s_c", delta_2sbar_sc)
    d_3sbar_sc = _check_delta("3s_bar_plus_s_c", delta_3sbar_sc)
    s3 = isometry_orders(s_bar, s_c, t0_size, conservative=True)[-1]
    if overlap is not None:
        # whole, as isometry_orders checked; taken as ints so that s3 is one
        s_c, t0_size = _whole(s_c, "s_c"), _whole(t0_size, "t0_size")
        overlap = _whole(overlap, "overlap", 0)
        if overlap > t0_size:
            raise ValueError(f"overlap must be in 0..|T0|, got {overlap}")
        s3 += min(0, t0_size - overlap - s_c)
    c5 = _contraction(d_3sbar_sc)
    c6 = _merge_loss(d_sbar, d_2sbar_sc, d_3sbar_sc, d_2sbar)
    c7 = _steady_state(c5, c6, d_2sbar)
    return BoundConstants(
        delta={"s_bar": d_sbar, "2s_bar": d_2sbar,
               "2s_bar_plus_s_c": d_2sbar_sc, "3s_bar_plus_s_c": d_3sbar_sc,
               "s3": d_3sbar_sc},
        s3=s3, c5=c5, c6=c6, c7=c7, valid=d_3sbar_sc < CONTRACTION_DELTA)


def _pursuit_terms(constants: BoundConstants, **inputs: float) -> tuple[float, ...]:
    """(contraction, loss, steady state, floor delta) of the pursuit the
    constants belong to: c1, c2, c4, delta_s1 under delta_s2 when c1 is set,
    else c5, c6, c7, delta_2s_bar under delta_s3. BoundPreconditionError
    names a gamma, eta or rho that is not a nonnegative finite number, or a
    term or delta the set lacks; RipViolationError a governing delta past
    the threshold."""
    for name, value in inputs.items():
        _check_number(value, name, finite=True, error=BoundPreconditionError)
    c = constants
    maker, label, floor, terms = (
        ("msp_constants", "s2", "s1", (c.c1, c.c2, c.c4)) if c.c1 is not None
        else ("cmsp_constants", "s3", "2s_bar", (c.c5, c.c6, c.c7)))
    if None in terms or not {"s_bar", label, floor} <= c.delta.keys():
        raise BoundPreconditionError(f"constants lack a term of {maker}")
    if not c.valid:
        raise RipViolationError(
            f"delta_{label} = {c.delta[label]} >= {CONTRACTION_DELTA}, "
            "guarantee does not apply")
    return (*terms, c.delta[floor])


def msp_distortion_bound(constants: BoundConstants, gamma: float,
                         eta: float) -> float:
    """Worst-case ||X - X_hat||_F after the pursuit the constants belong to
    (msp or cmsp) stops, for noise norm eta and stopping threshold gamma;
    a bound past every float is a BoundPreconditionError naming both."""
    _, _, steady, d_floor = _pursuit_terms(constants, gamma=gamma, eta=eta)
    bound = max(steady * eta, (gamma + eta) / math.sqrt(1.0 - d_floor))
    return _finite_bound("distortion bound", bound, gamma=gamma, eta=eta)


def msp_refined_distortion_bound(constants: BoundConstants, gamma: float,
                                 eta: float, min_chunk_energy: float) -> float:
    """Tighter bound available when every true chunk is energetic enough:
    min_chunk_energy must be finite and exceed the plain bound, else
    BoundPreconditionError. Takes either pursuit's constants."""
    base = msp_distortion_bound(constants, gamma, eta)
    _check_number(min_chunk_energy, "min_chunk_energy", finite=True,
                  error=BoundPreconditionError)
    if not min_chunk_energy > base:
        raise BoundPreconditionError(
            f"min chunk energy > plain bound violated: {min_chunk_energy} <= {base}")
    return eta / math.sqrt(1.0 - constants.delta["s_bar"])


def _convergence_iterations(c_contraction: float, c_loss: float,
                            delta_sbar: float, gamma: float, eta: float,
                            rho: float) -> float:
    """Iteration count after which the residue provably drops below gamma."""
    if c_contraction >= 1.0:
        raise RipViolationError(
            f"contraction factor {c_contraction} >= 1, no convergence guarantee")
    floor = c_loss * eta / (1.0 - c_contraction) if eta > 0 else 0.0
    try:
        rho_gate = ((c_loss + c_contraction - 1.0) / (1.0 - c_contraction) * eta) ** 2
    except OverflowError:  # a gate past every float rejects every rho
        rho_gate = math.inf
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
    """Iterations needed before the threshold of the pursuit the constants
    belong to is provably met; rho is the total signal energy ||X||_F^2."""
    contraction, loss, _, _ = _pursuit_terms(constants, gamma=gamma, eta=eta, rho=rho)
    return _convergence_iterations(contraction, loss, constants.delta["s_bar"],
                                   gamma, eta, rho)


def channel_recovery_bound(delta_s2: float, c4: float, gamma: float, M: int,
                           N_ue: int, T: int, P: float) -> float:
    """Expected channel estimation error bound sqrt(M/(P T)) * ((c4 +
    1/sqrt(1-delta)) E||W||_F + gamma/sqrt(1-delta)) with E||W||_F the
    Gaussian-noise mean norm, evaluated through log-gamma. A negative or
    non-finite c4 or gamma, and a bound past every float, is a
    BoundPreconditionError naming them."""
    d = _check_delta("s2", delta_s2)
    if d >= CONTRACTION_DELTA:
        raise RipViolationError(
            f"delta_s2 = {d} >= {CONTRACTION_DELTA}, guarantee does not apply")
    M, N_ue, T = _whole(M, "M", 1), _whole(N_ue, "N_ue", 1), _whole(T, "T", 1)
    _check_number(P, "P", positive=True)
    for name, value in (("c4", c4), ("gamma", gamma)):
        _check_number(value, name, finite=True, error=BoundPreconditionError)
    nt = N_ue * T
    mean_noise_norm = math.exp(math.lgamma(nt + 0.5) - math.lgamma(nt))
    scale = math.sqrt(M / (P * T))
    inv = 1.0 / math.sqrt(1.0 - d)
    bound = scale * ((c4 + inv) * mean_noise_norm + gamma * inv)
    return _finite_bound("channel bound", bound, gamma=gamma, P=P)


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
                 X: ChunkSparseMatrix, q: RipQuery) -> Lemma1Report:
    """Numerically evaluate the isometry-constant inequalities on one
    concrete instance, each with 1e-10 of slack for rounding.

    T1, T2 must be disjoint; X must be chunk-supported inside T1; q.d is
    the chunk height and q.k the combined order (>= |T1| + |T2|). Five
    checks: delta monotonicity across orders, the Gram eigenvalue sandwich
    and pseudoinverse norm bound on T1, the cross-Gram bound, and the
    projection leakage bound. A delta >= 1 makes the pseudoinverse bound
    vacuous (rhs = inf, passes). Enumeration stops at ENUMERATION_CAP.
    """
    Phi, idx = _rip_phi(Phi, q.d)
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
    d_k1 = _exact_delta(Phi, idx, k1, ENUMERATION_CAP)
    d_k2 = d_k1 if k2 == k1 else _exact_delta(Phi, idx, k2, ENUMERATION_CAP)
    d_kc = _exact_delta(Phi, idx, kc, ENUMERATION_CAP)
    tol = 1e-10
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
