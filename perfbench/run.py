"""cspursuit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep-pilot --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
src/. One client in one process runs the workload's pass of fixed seeded
work again and again for --seconds (a closed loop), checking every pass's
output outside the timed region. BLAS is pinned to one thread before numpy
loads.

Every timed pass is bracketed by a fixed reference loop (calibrate.py),
and times are reported at the reference speed: measured time times
REFERENCE_S over the reference loop's time around it. The raw medians are
in the report.

--trace 0 prints the end-to-end metrics. Set-up is timed in separate
processes (probe.py), several times, and its median reported.
--trace 1 alternates untraced and traced passes, prints the per-layer
metrics, the tracing overhead and the span coverage report.

stdout: a JSON report (machine record, raw times, every metric under the
names perfbench/NOTES.md uses, checks, span coverage), then one line with
the result.
"""
import os

# set before numpy loads: a run keeps to one core, so on a 2-core machine
# no BLAS thread competes with the client
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("sweep-pilot", "prior-sc", "rip-exact")

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
MIN_PASSES = 3
QUALITY = ("nmse_median.genie", "nmse_median.msp", "nmse_median.cmsp",
           "nmse_median.mmv_sp", "nmse_median.sp",
           "support_recovery_rate.msp", "support_recovery_rate.cmsp")


def blas_threads():
    """Thread count OpenBLAS reports in this process, or None when no
    OpenBLAS with a known entry point is loaded."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh
                 if "openblas" in line.lower() and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_record(load_at_start):
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "blas_thread_env_set_by_launcher": {
            v: os.environ[v] for v in BLAS_THREAD_VARS},
        "loadavg_at_start": load_at_start,
        "platform": platform.platform(),
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def time_setup(workload, seed, ref):
    """Set-up seconds of SETUP_PROBES fresh processes that each import the
    package, build the workload and make one warm-up call: raw, and at the
    reference speed measured around each probe."""
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), "--workload",
           workload, "--seed", str(seed), "--out-dir", OUT_DIR]
    raw, scaled = [], []
    before = ref.measure()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=PROBE_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        raw.append(time.perf_counter() - start)
        after = ref.measure()
        scaled.append(raw[-1] * ref.speed(before, after))
        before = after
    return raw, scaled


class Runner:
    """Times passes of one workload, each bracketed by the reference loop,
    and checks their outputs."""

    def __init__(self, wl, ref):
        self.wl = wl
        self.ref = ref
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.last_output = None
        self._before = ref.measure()

    def one_pass(self, tracer=None):
        """(wall s, CPU s, speed) of one pass, or None if it raised; speed
        converts its times to the reference speed. The output check runs
        after the timing."""
        self.attempted += 1
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                raw = self.wl.run_pass()
            else:
                with tracer:
                    raw = self.wl.run_pass()
        except Exception:  # a failed pass is counted, and the run goes on
            self.failed += 1
            self.problems.append(traceback.format_exc())
            self._before = self.ref.measure()
            return None
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        after = self.ref.measure()
        speed = self.ref.speed(self._before, after)
        self._before = after
        try:
            out = self.wl.output(raw)
            problems = self.wl.check(out)
        except Exception:  # unreadable output is a failed check
            out, problems = None, [traceback.format_exc()]
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        if out is not None:
            self.last_output = out
        return wall, cpu, speed


def run_untraced(runner, seconds):
    passes = []
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline
           or (len(passes) < MIN_PASSES and runner.failed < MIN_PASSES)):
        timed = runner.one_pass()
        if timed is not None:
            passes.append(timed)
    return passes


def run_traced(runner, seconds):
    """Alternate untraced and traced passes. Returns both kinds of pass
    timings, the per-layer metrics of each traced pass with its times at
    the reference speed, and the last pass's tracer."""
    from tracer import Tracer, layer_unit
    plain, traced, layers = [], [], []
    tracer = None
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline
           or (len(traced) < MIN_PASSES and runner.failed < MIN_PASSES)):
        timed = runner.one_pass()
        tracer = Tracer()
        timed_traced = runner.one_pass(tracer)
        if timed is None or timed_traced is None:
            continue
        plain.append(timed)
        traced.append(timed_traced)
        speed = timed_traced[2]
        layers.append({
            name: value * speed if layer_unit(name) in ("s", "us") else value
            for name, value in tracer.layer_metrics(
                runner.wl.supports_per_pass).items()})
    return plain, traced, layers, tracer


def at_reference(passes):
    """Median pass seconds at the reference speed."""
    return statistics.median(wall * speed for wall, _, speed in passes)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "cspursuit", "__init__.py")):
        print(f"error: no cspursuit sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    load_at_start = list(os.getloadavg())

    import calibrate
    import workloads

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_record(load_at_start)}
    metrics = {}
    ref = calibrate.Reference()
    if args.trace == 0:
        setup_raw, setup_scaled = time_setup(args.workload, args.seed, ref)
        report["setup_s_raw_probes"] = setup_raw

    wl = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    wl.warm_up()
    runner = Runner(wl, ref)
    runner.one_pass()  # fills lazy state and gives the reference output
    report["ops_per_pass"] = wl.ops_per_pass

    if args.trace == 0:
        passes = run_untraced(runner, args.seconds)
        wall = at_reference(passes)
        metrics = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "wall_s": (wall, "s"),
            "ops_per_s": (wl.ops_per_pass / wall, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
        walls = [p[0] for p in passes]
        cpus = [p[1] for p in passes]
        rate = "supports_per_s" if wl.supports_per_pass else "trials_per_s"
        report.update({
            "passes": len(passes),
            rate: wl.ops_per_pass / wall,
            "setup_s_raw": statistics.median(setup_raw),
            "wall_s_raw": statistics.median(walls),
            "wall_s_raw_quartiles": list(quartiles(walls)),
            "cpu_s_raw": statistics.median(cpus),
            "cpu_s_raw_quartiles": list(quartiles(cpus)),
        })
    else:
        from tracer import layer_unit
        plain, traced, layers, tracer = run_traced(runner, args.seconds)
        for name in layers[0]:
            metrics[name] = (statistics.median(l[name] for l in layers),
                             layer_unit(name))
        untraced_s, traced_s = at_reference(plain), at_reference(traced)
        metrics["trace.untraced_pass_s"] = (untraced_s, "s")
        metrics["trace.traced_pass_s"] = (traced_s, "s")
        metrics["trace_overhead_share"] = (traced_s / untraced_s - 1.0, "share")
        calls, lost = tracer.coverage(wl.expected_spans)
        metrics["spans.lost"] = (len(lost), "count")
        report["passes"] = {"untraced": len(plain), "traced": len(traced)}
        report["span_coverage"] = {"calls_per_pass": calls,
                                   "expected": list(wl.expected_spans),
                                   "lost": lost,
                                   "not_wrapped": tracer.missing}
    report["reference_loop_s"] = {
        "median": statistics.median(ref.seconds),
        "quartiles": list(quartiles(ref.seconds)),
        "at_reference_speed": calibrate.REFERENCE_S}

    quality = ({} if runner.last_output is None
               else wl.quality(runner.last_output))
    report["quality"] = quality
    # equal digests across runs with one seed show the output is
    # byte-identical across processes and commits
    report["output_sha256"] = hashlib.sha256(
        repr(runner.last_output).encode()).hexdigest()
    if args.trace == 1:
        for name in QUALITY:
            metrics[name] = (quality.get(name, 0.0), "ratio"
                             if name.startswith("nmse") else "share")
    report["attempted"] = runner.attempted
    report["failed"] = runner.failed
    report["failed_share"] = runner.failed / runner.attempted
    report["problems"] = runner.problems[:20]
    report["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    print(json.dumps(report, indent=1))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
