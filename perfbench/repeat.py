"""Run the benchmark once per seed and summarise the spread of each metric.

    python3 perfbench/repeat.py --workload sweep-pilot --seeds 0-9
    python3 perfbench/repeat.py --workload rip-exact --seeds 0-2 --trace 1 \\
        --out perfbench/baseline/rip-exact.trace1.json

Runs are sequential, one process at a time. For every metric it prints the
median, the quartiles (statistics.quantiles, n=4) and their distance as a
share of the median, next to the metric's bound in BENCHMARK.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=True, timeout=600)
    lines = proc.stdout.rstrip("\n").split("\n")
    return json.loads("\n".join(lines[:-1])), json.loads(lines[-1])


def summarise(results):
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (values[0],) * 3)
        summary[name] = {"unit": results[0]["metrics"][name]["unit"],
                         "median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else 0.0}
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 1,3,5")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write runs and summary")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    runs = []
    for seed in parse_seeds(args.seeds):
        report, result = run_once(args.workload, seed, seconds, args.trace)
        del report["metrics"]  # the same as the result line's
        runs.append({"seed": seed, "result": result, "report": report})
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}"
                         for k, v in result["metrics"].items()
                         if k in bounds), flush=True)
    summary = summarise([r["result"] for r in runs])
    for name, s in summary.items():
        bound = bounds.get(name)
        note = f"  bound {bound}" if bound is not None else ""
        print(f"{name:44s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
              f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f}{note}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "seconds": seconds,
                       "trace": args.trace, "runs": runs,
                       "summary": summary}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
