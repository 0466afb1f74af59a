"""Monte-Carlo experiment harness: seeded paired trials over a sweep axis,
summary rows, a flat key=value config format, and deterministic CSV output.

Each trial simulates two frames and measures the second; frame 1 only
supplies the prior T0, its support as estimated by mmv_sp (what msp and
cmsp are under the empty prior). The s_c axis sets the generator's overlap
floor on the true supports, so the frame-2 data differ across s_c values.
By default the prior's s_c is that floor clamped to |T0 ∩ T|, a count read
from the measured frame's true support that no receiver has; criterion 08
passes only with it (see run_frame_sequence). Only the believed_s_c axis, the
mismatch study, tells the pursuits a floor that may be wrong: it pins the
true consecutive overlap at s_c and tells them each sweep value instead.
Trials run in blocks through mimo's block kernels, as arrays from draw to
score, with no check of what those kernels built.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, fields, replace
from typing import Optional

import numpy as np

from .core import _whole, _whole_fields
from .errors import ConfigError, MetricError
from .mimo import ALGORITHMS, MimoScenario, _estimate, _generate, _score
from .pursuit import PRIOR_ALGORITHMS

__all__ = [
    "SWEEP_AXES",
    "ExperimentConfig",
    "ResultRow",
    "load_config",
    "run_sweep",
    "rows_to_csv_text",
    "write_csv",
]

SWEEP_AXES = ("pilot_length", "snr_db", "s_c", "believed_s_c")
# trials simulated and estimated together: enough for the batched pursuit
# to pay off, few enough that memory does not grow with n_trials
_BLOCK_TRIALS = 32


def _finite(value) -> bool:
    return isinstance(value, numbers.Real) and math.isfinite(value)


def _power(name: str, db) -> float:
    """10^(db/10), or ConfigError naming the setting if it overflows a float
    or underflows to zero."""
    try:
        power = 10.0 ** (db / 10.0)
    except OverflowError:
        raise ConfigError(f"{name} of {db!r} dB overflows the linear power") from None
    if power == 0.0:
        raise ConfigError(f"{name} of {db!r} dB underflows the linear power to 0")
    return power


@dataclass(frozen=True)
class ExperimentConfig:
    """Scenario dimensions plus sweep and trial bookkeeping, typed and
    checked here once. The int fields, and sweep_values on every axis but
    snr_db, must be whole numbers and are stored as int: 16.0 reads as 16,
    12.5 raises ConfigError. snr_db is the total transmit power per pilot
    slot, P = 10^(snr_db/10), over unit-variance noise per receive antenna
    and slot. gamma_value is the residue stopping threshold; None means
    sqrt(2 N_ue T) per scenario."""

    M: int
    N_ue: int
    s_bar: int
    s_c: int
    pilot_length: int
    snr_db: float
    sweep_axis: str
    sweep_values: tuple
    algorithms: tuple[str, ...]
    n_trials: int = 100
    base_seed: int = 0
    gamma_value: Optional[float] = None

    def __post_init__(self) -> None:
        try:  # core refuses a value that is not whole with a ValueError
            _whole_fields(self, ConfigError, M=1, N_ue=1, s_bar=1, pilot_length=1,
                          n_trials=1, s_c=0, base_seed=0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not _finite(self.snr_db):
            raise ConfigError(f"snr_db must be a finite number, got {self.snr_db!r}")
        _power("snr_db", self.snr_db)
        if self.sweep_axis not in SWEEP_AXES:
            raise ConfigError(
                f"sweep_axis must be one of {SWEEP_AXES}, got {self.sweep_axis!r}")
        try:
            values = tuple(self.sweep_values)
        except TypeError:
            values = ()
        if not values:
            raise ConfigError(f"sweep_values must be nonempty and a sequence, "
                              f"got {self.sweep_values!r}")
        if not all(_finite(v) for v in values):
            raise ConfigError(f"sweep_values must be finite numbers, got {values}")
        if self.sweep_axis == "snr_db":
            _power("sweep_values", min(values))
            _power("sweep_values", max(values))
        else:  # a believed s_c is a floor on an overlap, so at least 0
            least = 0 if self.sweep_axis == "believed_s_c" else None
            try:
                values = tuple(_whole(v, "sweep_values", least, ConfigError)
                               for v in values)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        object.__setattr__(self, "sweep_values", values)
        if not self.algorithms:
            raise ConfigError("algorithms must be nonempty")
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise ConfigError(
                    f"algorithms entry {alg!r} not one of {ALGORITHMS}")
        if len(set(self.algorithms)) < len(self.algorithms):
            raise ConfigError(f"algorithms must not repeat, got {self.algorithms}")
        if self.gamma_value is not None and not (
                _finite(self.gamma_value) and self.gamma_value >= 0):
            raise ConfigError(
                f"gamma_value must be finite and nonnegative, got {self.gamma_value!r}")


@dataclass(frozen=True)
class ResultRow:
    """One (sweep value, algorithm) summary over n_trials paired trials."""

    sweep_axis: str
    sweep_value: float
    algorithm: str
    nmse: float
    nmse_median: float
    nmse_ci95_halfwidth: float
    mean_iterations: float
    support_recovery_rate: float
    n_trials: int
    base_seed: int


CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))

_KEYS = tuple(f.name for f in fields(ExperimentConfig))
_REQUIRED = tuple(f.name for f in fields(ExperimentConfig)
                  if f.default is MISSING)


def _number(text: str, key: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {text!r}") from None


def load_config(path) -> ExperimentConfig:
    """Parse a key=value config file; # starts a comment, blank lines are
    ignored, unknown keys raise ConfigError."""
    raw: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"line {lineno}: expected key=value, got {stripped!r}")
            key, _, value = stripped.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _KEYS:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            if key in raw:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            raw[key] = value

    missing = [k for k in _REQUIRED if k not in raw]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    axis = raw.pop("sweep_axis")
    algorithms, values = (
        tuple(s.strip() for s in raw.pop(key).split(",") if s.strip())
        for key in ("algorithms", "sweep_values"))
    parsed = {key: _number(text, key) for key, text in raw.items()}
    parsed["sweep_values"] = tuple(_number(v, "sweep_values") for v in values)
    return ExperimentConfig(sweep_axis=axis, algorithms=algorithms, **parsed)


def _nmse_at(config: ExperimentConfig, value, algorithm: str) -> str:
    """The NMSE of one row, named by its algorithm, sweep point and SNR."""
    at = f"NMSE of {algorithm} at {config.sweep_axis} = {value}"
    return at if config.sweep_axis == "snr_db" else f"{at}, snr_db = {config.snr_db}"


def _summary_row(config: ExperimentConfig, value, algorithm: str,
                 ratios: np.ndarray, iterations: np.ndarray,
                 exact: np.ndarray) -> ResultRow:
    n = len(ratios)
    # an inf ratio or an overflowing sum or square is named below, not warned
    with np.errstate(over="ignore", invalid="ignore"):
        mean, median = float(np.mean(ratios)), float(np.median(ratios))
        ci = 1.96 * float(np.std(ratios, ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    if not all(map(math.isfinite, (mean, median, ci))):
        raise MetricError(f"{_nmse_at(config, value, algorithm)}, overflows a float")
    return ResultRow(
        sweep_axis=config.sweep_axis, sweep_value=value, algorithm=algorithm,
        nmse=mean, nmse_median=median, nmse_ci95_halfwidth=ci,
        mean_iterations=float(np.mean(iterations)),
        support_recovery_rate=float(np.mean(exact)),
        n_trials=n, base_seed=config.base_seed)


def run_sweep(config: ExperimentConfig, noise: bool = True) -> list[ResultRow]:
    """The one trial loop, on any axis; rows come out in (sweep value,
    algorithm) order. A group is a config point's scenario and its (position,
    believed_s_c) members: one per sweep value, or one for every believed
    value. A group's trials run in blocks of up to _BLOCK_TRIALS, as arrays
    from draw to score. A block's trials are generated first, trial t from
    seed base_seed + t. Then their first frames are estimated once, as one
    batch, if an algorithm reads a prior, and their measured frames are
    estimated and scored as one batch per algorithm: by the PRIOR_ALGORITHMS
    at every member and by the others once. Only one block's data are held
    at a time."""
    positions = list(enumerate(config.sweep_values))
    pinned = config.sweep_axis == "believed_s_c"
    points = ([(config, positions)] if pinned else
              [(replace(config, **{config.sweep_axis: value}), [(position, None)])
               for position, value in positions])
    # every point's scenario is built, and so checked, before the first trial
    groups = [(MimoScenario(M=point.M, N_ue=point.N_ue, T=point.pilot_length,
                            P=_power("snr_db", point.snr_db),
                            s_bar=point.s_bar, s_c=point.s_c), members)
              for point, members in points]
    gamma = config.gamma_value  # None: default_gamma's sqrt(2 N T)
    reads_prior = any(a in PRIOR_ALGORITHMS for a in config.algorithms)
    last = {}  # (position, algorithm) -> columns of each block's measured frames
    for scenario, members in groups:
        for start in range(0, config.n_trials, _BLOCK_TRIALS):
            rngs = [np.random.default_rng(config.base_seed + t) for t in
                    range(start, min(start + _BLOCK_TRIALS, config.n_trials))]
            first, (H_a, H, Y, Phi, truth) = _generate(scenario, rngs, 2, noise,
                                                       pinned)
            T0 = np.zeros_like(truth)
            if reads_prior:
                T0 = _estimate(scenario, *first[2:], "mmv_sp", T0, gamma, None).T
            del first, H_a  # frame 1 gave its supports, and H_a is never read
            shared = {}  # columns of the algorithms that read no prior
            for position, believed_s_c in members:
                for algorithm in config.algorithms:
                    try:
                        columns = shared.get(algorithm) or _score(
                            scenario, H, truth, _estimate(scenario, Y, Phi, truth,
                                                          algorithm, T0, gamma,
                                                          believed_s_c))
                    except MetricError as err:
                        where = _nmse_at(config, config.sweep_values[position],
                                         algorithm)
                        raise MetricError(f"{err} ({where})") from None
                    if algorithm not in PRIOR_ALGORITHMS:
                        shared[algorithm] = columns
                    last.setdefault((position, algorithm), []).append(columns)
    return [_summary_row(config, value, algorithm,
                         *map(np.concatenate, zip(*last[position, algorithm])))
            for position, value in positions
            for algorithm in config.algorithms]


def _format_value(v) -> str:
    if isinstance(v, float):
        return format(v, ".9g")
    return str(v)


def rows_to_csv_text(rows) -> str:
    """Render rows as CSV text: one header row, 9 significant digits."""
    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        lines.append(",".join(_format_value(getattr(r, col))
                              for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def write_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(rows_to_csv_text(rows))
