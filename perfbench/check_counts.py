"""Check that the traced run's count metrics repeat exactly for a fixed seed.

    python3 perfbench/check_counts.py [--workloads a,b] [--seed 3] [--seconds 4]

Runs each workload's traced run twice with the same seed, each in a fresh
process, and compares every count metric: each ``*.calls``,
``autodiff.matmul.gflop``, ``attacks.useful_grad_frac`` and
``attacks.stale_param_grads``. Counts are per timed step, so they must not
depend on how many steps fit in the run. Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import sys

from sweep import ROOT, run_once

COUNTS = ("autodiff.matmul.gflop", "attacks.useful_grad_frac", "attacks.stale_param_grads")


def is_count(name: str) -> bool:
    return name.endswith(".calls") or name in COUNTS


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=int, default=4)
    args = parser.parse_args(argv)

    names = [m["name"] for m in spec["per_layer"] if is_count(m["name"])]
    bad = 0
    for workload in args.workloads.split(","):
        first, second = (run_once(workload, args.seed, args.seconds, 1)["metrics"] for _ in range(2))
        diffs = [n for n in names if first[n]["value"] != second[n]["value"]]
        for n in diffs:
            print(f"{workload}: {n} differs: {first[n]['value']!r} vs {second[n]['value']!r}")
        print(f"{workload}: {len(names) - len(diffs)} of {len(names)} count metrics repeat exactly")
        bad += len(diffs)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
