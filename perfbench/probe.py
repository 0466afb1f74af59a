"""One set-up of a workload in a fresh process: import, config or matrix
construction, and one warm-up call. run.py times this process from start
to exit to get setup_s.

    python3 perfbench/probe.py --workload sweep-pilot --seed 0
"""
import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (needs the path above)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()
    workloads.WORKLOADS[args.workload](args.seed, args.out_dir).warm_up()
    return 0


if __name__ == "__main__":
    sys.exit(main())
