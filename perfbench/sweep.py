"""Run workloads over several seeds, one fresh process per run, and summarise.

    python3 perfbench/sweep.py [--workloads a,b] [--seeds 1-10] [--seconds 20] [--trace 0|1]
                               [--out perfbench/out/sweep]

For every end-to-end metric it prints the median, the quartiles and the
spread (quartile distance over the median, as ``statistics.quantiles(n=4)``
gives the quartiles) next to the metric's bound in BENCHMARK.json, and the
failed steps of each seed that had any. With
``--trace 1`` it prints the median of every per-layer metric instead. The
summary goes to ``<out>.json``; ``<out>.md`` holds the same tables.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    with open(RUN.parent / "out" / f"record-{workload}-seed{seed}-trace{trace}.json", encoding="utf-8") as fh:
        return json.load(fh)


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / "perfbench" / "out" / "sweep"))
    args = parser.parse_args(argv)

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    seeds = parse_seeds(args.seeds)
    summary = {"seconds": args.seconds, "trace": args.trace, "seeds": seeds, "workloads": {}}
    lines = []
    for workload in args.workloads.split(","):
        started = time.perf_counter()
        runs = [run_once(workload, seed, args.seconds, args.trace) for seed in seeds]
        wall = time.perf_counter() - started
        stats = {m["name"]: summarise([r["metrics"][m["name"]]["value"] for r in runs]) for m in metrics}
        summary["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "wall_s": wall,
            "metrics": stats,
        }
        lines.append(f"\n### {workload} ({len(runs)} runs, {wall:.0f} s, "
                     f"{summary['workloads'][workload]['failed']} failed of "
                     f"{summary['workloads'][workload]['attempted']} steps)\n")
        if args.trace:
            lines.append("| metric | unit | median |\n| --- | --- | --- |")
            lines += [f"| {m['name']} | {m['unit']} | {stats[m['name']]['median']:.6g} |" for m in metrics]
        else:
            lines.append("| metric | unit | median | q1 | q3 | spread | bound |\n"
                         "| --- | --- | --- | --- | --- | --- | --- |")
            for m in metrics:
                s = stats[m["name"]]
                lines.append(f"| {m['name']} | {m['unit']} | {s['median']:.6g} | {s['q1']:.6g} | "
                             f"{s['q3']:.6g} | {s['spread']:.4f} | {m['bound']} |")
        failed = [r for r in runs if r["failed"]]
        summary["workloads"][workload]["failed_seeds"] = {r["seed"]: r["failures"][0] for r in failed}
        lines += [f"\nseed {r['seed']}: {r['failed']} of {r['attempted']} steps failed: "
                  f"{r['failures'][0].strip().splitlines()[-1]}" for r in failed]
        print("\n".join(lines[-len(metrics) - 2 - len(failed):]), flush=True)
    with open(f"{args.out}.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    with open(f"{args.out}.md", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines).lstrip() + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
