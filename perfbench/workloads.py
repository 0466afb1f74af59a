"""The benchmark's workloads.

Each workload is built from a seed (that is its set-up: config or matrix
construction), has one small warm-up call, and one pass of fixed seeded
work that the launcher times again and again. Outputs are checked outside
the timed region.

- sweep-pilot: the pilot-length half of criterion 08 through the CLI.
  Four algorithms regenerate the same data per trial and `sp` runs one
  pursuit per antenna, so pursuit kernels and data generation both weigh.
- prior-sc: criterion 09's operating point with msp and cmsp through the
  library's run_sweep. The only cmsp and prior-locking work; two
  algorithms share each trial's data, so generation sharing saves at most
  half of what it saves on sweep-pilot.
- rip-exact: block_rip_exact on one seeded matrix with chunk height 2.
  Touches no mimo, experiments or pursuit code, so a change to those
  should not move it; the only workload with d > 1.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import os
from dataclasses import replace

import numpy as np

from cspursuit import analysis, cli, experiments, oracle

HERE = os.path.dirname(os.path.abspath(__file__))

# criterion 08/09 operating point
SCENARIO = dict(M=64, N_ue=2, s_bar=8, s_c=4, pilot_length=24, snr_db=25.0)

# rip-exact size: C(32, 3) = 4960 supports of 6 columns in a 16-row matrix,
# about 0.2 s per pass; the loop-based oracle takes a few seconds once
RIP_M, RIP_K, RIP_k, RIP_d = 16, 32, 3, 2
RIP_TOLERANCE = 1e-10


class _Sweep:
    """Shared output handling of the two sweep workloads."""

    config: experiments.ExperimentConfig
    expected_spans: tuple[str, ...]
    supports_per_pass = 0

    def __init__(self) -> None:
        self.reference: bytes | None = None

    @property
    def ops_per_pass(self) -> int:
        c = self.config
        return len(c.sweep_values) * len(c.algorithms) * c.n_trials

    def check(self, out: bytes) -> list[str]:
        """Problems with one pass's CSV: differs from the first pass, wrong
        row count or n_trials, or a non-finite NMSE."""
        if self.reference is None:
            self.reference = out
        problems = []
        if out != self.reference:
            problems.append("CSV differs from the first pass of this run")
        rows = list(csv.DictReader(io.StringIO(out.decode("utf-8"))))
        want = len(self.config.sweep_values) * len(self.config.algorithms)
        if len(rows) != want:
            problems.append(f"CSV has {len(rows)} rows, expected {want}")
        for row in rows:
            if int(row["n_trials"]) != self.config.n_trials:
                problems.append(f"n_trials {row['n_trials']} in {row}")
            if not all(math.isfinite(float(row[k]))
                       for k in ("nmse", "nmse_median")):
                problems.append(f"non-finite NMSE in {row}")
        return problems

    def quality(self, out: bytes) -> dict[str, float]:
        """Per algorithm: mean over sweep values of the row medians of NMSE,
        and mean support recovery rate."""
        rows = list(csv.DictReader(io.StringIO(out.decode("utf-8"))))
        result = {}
        for alg in self.config.algorithms:
            mine = [r for r in rows if r["algorithm"] == alg]
            result[f"nmse_median.{alg}"] = float(
                np.mean([float(r["nmse_median"]) for r in mine]))
            result[f"support_recovery_rate.{alg}"] = float(
                np.mean([float(r["support_recovery_rate"]) for r in mine]))
        return result


class SweepPilot(_Sweep):
    name = "sweep-pilot"
    config_path = os.path.join(HERE, "sweep-pilot.cfg")
    expected_spans = (
        "cli.main", "experiments.load_config", "experiments.run_sweep",
        "experiments.write_csv", "experiments.rows_to_csv_text",
        "mimo.run_frame_sequence", "mimo.dft_unitary",
        "mimo.generate_channel", "mimo.generate_pilots",
        "mimo.to_cs_problem", "mimo.recover_channel", "mimo.default_gamma",
        "sparsity.generate_support_sequence", "sparsity.validate_prior",
        "pursuit.msp_recover", "pursuit.sp_recover", "pursuit.genie_ls",
        "pursuit.msp_support_merge", "pursuit.msp_support_refine",
        "core.as_matrix", "core.frobenius", "core.chunk_norms",
        "core.top_k_chunks", "core.submatrix_by_chunks",
        "core.ls_solve_with_rank")

    def __init__(self, seed: int, out_dir: str) -> None:
        super().__init__()
        self.config = replace(experiments.load_config(self.config_path),
                              base_seed=seed)
        self.csv_path = os.path.join(out_dir, f"sweep-pilot-{os.getpid()}.csv")
        self.argv = ["sweep", "--config", self.config_path, "--out",
                     self.csv_path, "--seed", str(seed)]

    def _cli(self, argv: list[str]) -> None:
        # the CLI reports "wrote N rows" on stdout, which is the result channel
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"cspursuit {' '.join(argv)} exited {code}")

    def warm_up(self) -> None:
        self._cli(self.argv + ["--trials", "1"])
        os.remove(self.csv_path)

    def run_pass(self) -> None:
        self._cli(self.argv)

    def output(self, _raw) -> bytes:
        with open(self.csv_path, "rb") as fh:
            data = fh.read()
        os.remove(self.csv_path)
        return data


class PriorSc(_Sweep):
    name = "prior-sc"
    expected_spans = (
        "experiments.run_sweep", "mimo.run_frame_sequence",
        "mimo.dft_unitary", "mimo.generate_channel", "mimo.generate_pilots",
        "mimo.to_cs_problem", "mimo.recover_channel", "mimo.default_gamma",
        "sparsity.generate_support_sequence", "sparsity.validate_prior",
        "pursuit.msp_recover", "pursuit.cmsp_recover",
        "pursuit.msp_support_merge", "pursuit.msp_support_refine",
        "pursuit.cmsp_support_merge", "pursuit.cmsp_support_refine",
        "core.as_matrix", "core.frobenius", "core.chunk_norms",
        "core.top_k_chunks", "core.submatrix_by_chunks",
        "core.ls_solve_with_rank")

    def __init__(self, seed: int, _out_dir: str) -> None:
        super().__init__()
        # criterion 09 runs 200 trials of msp only; one pass here is 25
        self.config = experiments.ExperimentConfig(
            sweep_axis="s_c", sweep_values=(0, 2, 4, 6),
            algorithms=("msp", "cmsp"), n_trials=25, base_seed=seed,
            **SCENARIO)

    def warm_up(self) -> None:
        experiments.run_sweep(replace(self.config, n_trials=1))

    def run_pass(self):
        return experiments.run_sweep(self.config)

    def output(self, rows) -> bytes:
        return experiments.rows_to_csv_text(rows).encode("utf-8")


class RipExact:
    name = "rip-exact"
    expected_spans = ("analysis.block_rip_exact", "core.as_matrix",
                      "core.submatrix_by_chunks")
    ops_per_pass = supports_per_pass = math.comb(RIP_K, RIP_k)

    def __init__(self, seed: int, _out_dir: str) -> None:
        rng = np.random.default_rng(seed)
        shape = (RIP_M, RIP_K * RIP_d)
        # unit expected column norm
        self.Phi = (rng.standard_normal(shape)
                    + 1j * rng.standard_normal(shape)) / np.sqrt(2 * RIP_M)
        self.query = analysis.RipQuery(k=RIP_k, d=RIP_d)
        self.reference: float | None = None

    def warm_up(self) -> None:
        analysis.block_rip_exact(self.Phi, analysis.RipQuery(k=1, d=RIP_d))

    def run_pass(self) -> float:
        return analysis.block_rip_exact(self.Phi, self.query)

    def output(self, delta: float) -> float:
        return delta

    def check(self, delta: float) -> list[str]:
        if self.reference is None:
            self.reference = oracle.rip_bruteforce_reference(
                self.Phi, RIP_k, RIP_d)
        if not abs(delta - self.reference) <= RIP_TOLERANCE:
            return [f"delta {delta!r} differs from the oracle's "
                    f"{self.reference!r} by more than {RIP_TOLERANCE}"]
        return []

    def quality(self, delta: float) -> dict[str, float]:
        return {"delta": delta}


WORKLOADS = {w.name: w for w in (SweepPilot, PriorSc, RipExact)}
