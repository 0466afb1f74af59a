"""Outside-in spans for the traced benchmark run.

A Tracer replaces module-level functions of cspursuit with timing wrappers
for the length of one traced pass, then puts the originals back. The
package calls these functions through module globals (``from .core import
as_matrix`` binds a global that is looked up at every call), so rebinding
every global that refers to a wrapped function captures every call while
no file of the package changes.

Each span adds its duration to its name's total and to its parent's child
time; a name's self time is its total minus its children. Aggregates stay
in memory and are read once the pass ends.
"""
from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

# layer -> public functions wrapped in a traced pass
SPANS = {
    "cli": ("main",),
    "experiments": ("load_config", "run_sweep", "write_csv",
                    "rows_to_csv_text"),
    "mimo": ("run_frame_sequence", "dft_unitary", "generate_channel",
             "generate_pilots", "to_cs_problem", "recover_channel",
             "default_gamma"),
    "sparsity": ("generate_support_sequence", "validate_prior"),
    "pursuit": ("msp_recover", "cmsp_recover", "mmv_sp_recover",
                "sp_recover", "genie_ls", "msp_support_merge",
                "msp_support_refine", "cmsp_support_merge",
                "cmsp_support_refine"),
    "core": ("as_matrix", "frobenius", "chunk_norms", "top_k_chunks",
             "submatrix_by_chunks", "ls_solve", "ls_solve_with_rank"),
    "analysis": ("block_rip_exact",),
}
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in SPANS.items()
                   for fn in fns)

# entry points of one recovery; sp and mmv_sp call msp_recover, and only
# the outermost call of a recovery is recorded. A recovery is attributed to
# the algorithm run_frame_sequence was asked for (the harness runs mmv_sp
# through msp_recover with an empty prior), else to its entry point.
RECOVERS = {"pursuit.msp_recover": "msp", "pursuit.cmsp_recover": "cmsp",
            "pursuit.mmv_sp_recover": "mmv_sp", "pursuit.sp_recover": "sp",
            "pursuit.genie_ls": "genie"}
ALGORITHMS = ("msp", "cmsp", "mmv_sp", "sp", "genie")
PURSUITS = ALGORITHMS[:4]
STOPS = ("THRESHOLD_MET", "RESIDUE_NON_DECREASING", "MAX_ITERATIONS")
MERGES = ("pursuit.msp_support_merge", "pursuit.cmsp_support_merge")
REFINES = ("pursuit.msp_support_refine", "pursuit.cmsp_support_refine")
# the steps of a pursuit loop that are not loop overhead: merge, refine,
# and the least-squares step (column gather plus solve)
LOOP_STEPS = MERGES + REFINES + ("core.submatrix_by_chunks",
                                 "core.ls_solve_with_rank")
GENERATION = ("sparsity.generate_support_sequence", "mimo.generate_channel",
              "mimo.generate_pilots", "mimo.dft_unitary",
              "mimo.to_cs_problem")


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from the naming convention of
    Tracer.layer_metrics."""
    if name.endswith((".calls", ".sequences")) or ".iterations." in name:
        return "count"
    if name.endswith("_share"):
        return "share"
    if name.endswith((".us", "_us")) or ".us_per_" in name:
        return "us"
    return "s"


class Tracer:
    """Context manager that records spans of SPAN_NAMES while active."""

    def __init__(self) -> None:
        self.stats = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}  # calls, total s, self s
        self.missing: list[str] = []
        self.recovers = {alg: [0, 0.0] for alg in ALGORITHMS}  # calls, total s
        self.iterations = dict.fromkeys(PURSUITS, 0)
        self.stops = dict.fromkeys(STOPS, 0)
        self.deficient = 0
        self.loop_steps_s = 0.0
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._algorithm = None
        self._in_recover = False
        self._in_loop = False

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in list(sys.modules.items())
                   if name == "cspursuit" or name.startswith("cspursuit.")]
        for name in SPAN_NAMES:
            layer, fn_name = name.split(".")
            home = sys.modules.get(f"cspursuit.{layer}")
            original = getattr(home, fn_name, None)
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        loop_step = name in LOOP_STEPS

        @functools.wraps(fn)
        def span(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - child[0]
                if stack:
                    stack[-1][0] += duration
                if loop_step and self._in_loop:
                    self.loop_steps_s += duration

        if name == "mimo.run_frame_sequence":
            signature = inspect.signature(fn)

            @functools.wraps(fn)
            def sequence(*args, **kwargs):
                bound = signature.bind(*args, **kwargs)
                self._algorithm = bound.arguments.get("algorithm")
                try:
                    return span(*args, **kwargs)
                finally:
                    self._algorithm = None

            return sequence

        entry_alg = RECOVERS.get(name)
        if entry_alg is None:
            return span

        @functools.wraps(fn)
        def recover(*args, **kwargs):
            if self._in_recover:
                return fn(*args, **kwargs)
            alg = self._algorithm or entry_alg
            self._in_recover = True
            self._in_loop = alg in PURSUITS
            start = perf_counter()
            try:
                result = span(*args, **kwargs)
            finally:
                record = self.recovers[alg]
                record[0] += 1
                record[1] += perf_counter() - start
                self._in_recover = self._in_loop = False
            if alg in PURSUITS:
                self.iterations[alg] += result.iterations
                self.stops[result.stop_reason.name] += 1
                self.deficient += bool(result.rank_deficient_ls)
            return result

        return recover

    def calls(self, name: str) -> int:
        return self.stats[name][0]

    def total(self, *names: str) -> float:
        return sum(self.stats[n][1] for n in names)

    def per_call_us(self, *names: str) -> float:
        n = sum(self.calls(name) for name in names)
        return self.total(*names) / n * 1e6 if n else 0.0

    def coverage(self, expected) -> tuple[dict[str, int], list[str]]:
        """Calls per wrapped name, and the expected names that got none
        (renamed, removed or inlined stages)."""
        calls = {name: self.calls(name) for name in SPAN_NAMES}
        lost = [name for name in expected if calls[name] == 0]
        return calls, lost

    def layer_metrics(self, supports: int) -> dict[str, float]:
        """Per-layer metrics of one traced pass; a layer the pass never
        entered reads 0. supports is the number of supports block_rip_exact
        enumerates in the pass."""
        m: dict[str, float] = {}
        sweep_s = self.total("experiments.run_sweep")
        m["experiments.self_s"] = self.stats["experiments.run_sweep"][2]
        m["experiments.sequences"] = self.calls("mimo.run_frame_sequence")
        m["cli.overhead_s"] = (self.total("cli.main") - sweep_s
                               if self.calls("cli.main") else 0.0)
        frames = self.stats["mimo.run_frame_sequence"]
        m["mimo.run_frame_sequence.self_us"] = (
            frames[2] / frames[0] * 1e6 if frames[0] else 0.0)
        m["mimo.dft_unitary.calls"] = self.calls("mimo.dft_unitary")
        for fn in ("dft_unitary", "generate_channel", "generate_pilots",
                   "to_cs_problem", "recover_channel"):
            m[f"mimo.{fn}.us"] = self.per_call_us(f"mimo.{fn}")
        m["mimo.generation_share"] = (self.total(*GENERATION) / sweep_s
                                      if sweep_s else 0.0)
        m["sparsity.generate_support_sequence.us"] = self.per_call_us(
            "sparsity.generate_support_sequence")

        for alg, (calls, total) in self.recovers.items():
            m[f"pursuit.recover.{alg}.us"] = total / calls * 1e6 if calls else 0.0
        for alg in PURSUITS:
            m[f"pursuit.iterations.{alg}"] = self.iterations[alg]
        m["pursuit.merge.us"] = self.per_call_us(*MERGES)
        m["pursuit.refine.us"] = self.per_call_us(*REFINES)
        runs = sum(self.recovers[alg][0] for alg in PURSUITS)
        loops_s = sum(self.recovers[alg][1] for alg in PURSUITS)
        m["pursuit.loop_self_us"] = ((loops_s - self.loop_steps_s) / runs * 1e6
                                     if runs else 0.0)
        m["pursuit.rank_deficient_share"] = (self.deficient / runs
                                             if runs else 0.0)
        for stop, count in self.stops.items():
            m[f"pursuit.stop.{stop.lower()}_share"] = (count / runs
                                                       if runs else 0.0)

        m["core.ls_solve.us"] = self.per_call_us("core.ls_solve_with_rank")
        m["core.ls_solve.calls"] = self.calls("core.ls_solve_with_rank")
        m["core.top_k_chunks.us"] = self.per_call_us("core.top_k_chunks")
        m["core.top_k_chunks.calls"] = self.calls("core.top_k_chunks")
        m["core.submatrix_by_chunks.us"] = self.per_call_us(
            "core.submatrix_by_chunks")
        m["core.chunk_norms.us"] = self.per_call_us("core.chunk_norms")
        m["core.as_matrix.calls"] = self.calls("core.as_matrix")

        rip_s = self.total("analysis.block_rip_exact")
        m["analysis.us_per_support"] = (rip_s / supports * 1e6
                                        if rip_s and supports else 0.0)
        m["analysis.submatrix_share"] = (
            self.total("core.submatrix_by_chunks") / rip_s if rip_s else 0.0)
        return m
