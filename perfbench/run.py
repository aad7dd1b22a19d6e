"""Run one benchmark workload of mimir and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src/``. The
workload is a closed loop with one client: each step starts when the
previous one returns, and steps repeat for ``--seconds`` after one untimed
warm-up step. Every step's output is checked; a step that raises or fails
its check counts as failed.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json:
``images_per_s`` over the wall time of the timed steps; ``step_s_p50``, the
median step time; ``setup_s``; and ``peak_rss_mb``. ``setup_s`` is this
process's set-up: the imports, timed once from the top of this file, before
numpy or mimir is imported, plus the median of ``SETUP_REPEATS`` builds of
the workload's inputs. It also prints ``failed_ops_frac``, which has no bound
because it is 0 on a run where every step passes.
With ``--trace 1`` the first half of the time runs untraced and the second
half with every public function wrapped (see tracing.py); the run reports
the per-layer metrics per timed step and writes its spans next to the
record under ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
NPROC = len(os.sched_getaffinity(0))
SETUP_REPEATS = 3
# One BLAS thread, whatever the environment says: on a 2-core VM two threads
# gave no measurable gain at these matrix sizes (pretrain-mid32, 5 seeds each:
# 34.9 against 34.3 img/s), and one thread keeps every run the same.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads() -> None:
    """Fix BLAS and OpenMP threads; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_package() -> None:
    """Import mimir from this checkout's ``src``, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "mimir" / "__init__.py").is_file():
        raise SystemExit(f"error: no mimir package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import mimir
    if Path(mimir.__file__).resolve().parent != (src / "mimir").resolve():
        raise SystemExit(f"error: imported mimir from {mimir.__file__}, not from {src}")


def environment() -> dict:
    import ctypes
    import platform

    import numpy as np
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas_threads = None
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                blas_threads = fn()
                break
    return {
        "nproc": NPROC,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def expected_metrics(trace: bool) -> list[str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


class Loop:
    """Closed-loop step runner that counts attempted and failed steps."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def one(self) -> float:
        self.attempted += 1
        started = time.perf_counter()
        try:
            out = self.workload.step()
        except Exception:  # a failing step is counted, reported, and the loop goes on
            self.fail(traceback.format_exc())
            return time.perf_counter() - started
        elapsed = time.perf_counter() - started
        problem = self.workload.check(out)
        if problem is not None:
            self.fail(problem)
        return elapsed

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)
        print(f"step {self.attempted} failed: {message}", file=sys.stderr)

    def timed(self, seconds: float, tracer=None) -> tuple[list[float], float]:
        """Run steps until ``seconds`` have passed (at least one); return (step times, wall)."""
        times = []
        started = time.perf_counter()
        while not times or time.perf_counter() - started < seconds:
            if tracer is None:
                times.append(self.one())
            else:
                with tracer.step():
                    times.append(self.one())
        return times, time.perf_counter() - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cap_threads()
    load_before = os.getloadavg()[0]
    import_package()
    import workloads
    imports_s = time.perf_counter() - STARTED

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        builds = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            workload = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
            builds.append(time.perf_counter() - started)
        return measure(args, workload, load_before, imports_s + statistics.median(builds))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, load_before: float, setup_s: float) -> int:
    import tracing

    trace = bool(args.trace)
    env = environment()
    workload.prepare()
    loop = Loop(workload)
    loop.one()  # warm-up: lazy imports, allocator and BLAS buffers
    metrics: dict[str, tuple[float, str]] = {}
    samples: dict[str, int] = {}
    top = []
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if trace:
        half = args.seconds / 2.0
        plain, plain_wall = loop.timed(half)
        tracer = tracing.Tracer(workload.params)
        tracer.install()
        traced, traced_wall = loop.timed(half, tracer)
        untraced_ips = workload.images_per_step * len(plain) / plain_wall
        traced_ips = workload.images_per_step * len(traced) / traced_wall
        metrics = tracing.layer_metrics(tracer, traced_ips, untraced_ips)
        samples = dict.fromkeys(metrics, len(traced))
        top = tracing.top_functions(tracer)
        tracer.write_spans(str(OUT / f"spans-{tag}.tsv.gz"))
    else:
        times, wall = loop.timed(args.seconds)
        n = len(times)
        metrics["images_per_s"] = (workload.images_per_step * n / wall, "img/s")
        metrics["step_s_p50"] = (statistics.median(times), "s")
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        samples = {"images_per_s": n, "step_s_p50": n, "setup_s": SETUP_REPEATS, "peak_rss_mb": 1}

    problem = workload.finish()
    if problem is not None:
        loop.fail(problem)
    fingerprint = workload.fingerprint()
    load_after = os.getloadavg()[0]

    gated = expected_metrics(trace)
    if not set(gated) <= set(metrics) or (trace and len(gated) != len(metrics)):
        raise SystemExit(f"error: metrics {sorted(set(metrics) ^ set(gated))} disagree with BENCHMARK.json")

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items() if k != "thread_env")
          + f" load1m={load_before:.2f}->{load_after:.2f}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit} (n={samples[name]})")
    print(f"failed_ops_frac = {loop.failed / loop.attempted:g} ({loop.failed} of {loop.attempted} steps)")
    if top:
        print("top functions by self time per step:")
        for name, own, calls in top:
            print(f"  {name:32s} {own * 1e3:10.3f} ms  {calls:10.1f} calls")
    print(f"fingerprint sha256 {fingerprint}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "load1m_before": load_before, "load1m_after": load_after,
        "attempted": loop.attempted, "failed": loop.failed, "failures": loop.failures,
        "fingerprint_sha256": fingerprint,
        "metrics": {k: {"value": v, "unit": u, "n": samples[k], "gated": k in gated}
                    for k, (v, u) in metrics.items()},
        "step_s": [] if trace else times,
        "top_self_s": [{"name": n, "self_s": s, "calls": c} for n, s, c in top],
    }
    with open(OUT / f"record-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in gated},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
