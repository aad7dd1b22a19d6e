"""The bits manifest: the sha256 of every artifact and digest that a refactor must keep.

    PYTHONPATH=src python tests/bits_manifest.py            # print the manifest it computes
    PYTHONPATH=src python tests/bits_manifest.py --write    # rewrite tests/bits/manifest.json

Run it from the repository root. For each BLAS thread count in ``BLAS_THREADS``
it starts one Python process with ``OPENBLAS_NUM_THREADS`` set to it, which
- runs ``pretrain -> finetune -> eval -> attack -> landscape -> mi-estimate -> bounds``
  through ``mimir.cli`` on each config under ``tests/bits/``, and hashes every
  file the run leaves in its output directory;
- builds perfbench's workloads with perfbench's seeds and shapes and hashes the
  pretrain-mid32 parameters after ``PRETRAIN_STEPS`` steps on seeds 1-3, the
  finetune-tiny16 parameters after ``FINETUNE_STEPS`` steps, and the
  mi-estimate-mid32 ``mi.csv``.

Next to the digests the manifest records the environment that produced them:
Python, numpy, scipy, the BLAS, its version and the CPU core it chose, the
core count, and the thread count that the BLAS reported in each process.
``tests/test_bits.py`` recomputes the manifest. Where every digest matches,
it passes. Where a digest differs, it fails if the environment is the
recorded one. In any other environment it skips, and its reason names both
the environment difference and the digests that differ, because BLAS kernels
and thread splits may round differently there. ``hold`` is that rule, which
``tests/test_memory.py`` applies to the memory record as well.

A change that moves bits on purpose rewrites the manifest with ``--write``
and lists the changed entries in CHANGES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BITS = ROOT / "tests" / "bits"
MANIFEST = BITS / "manifest.json"
CONFIGS = ("tiny", "mid32")
BLAS_THREADS = (1, 2)
COMMANDS = ("pretrain", "finetune", "eval", "attack", "landscape", "mi-estimate", "bounds")
PRETRAIN_STEPS = 4
FINETUNE_STEPS = 6
# a numpy RuntimeWarning fails a child process, as pyproject's filterwarnings fails a test
CHILD_WARNINGS = "error::RuntimeWarning"


def python_at(cwd, blas_threads: int, *args: str) -> str:
    """Standard output of ``python *args`` run in ``cwd`` with ``OPENBLAS_NUM_THREADS`` set
    and this checkout's ``src`` on the path; a failing run raises."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads), PYTHONPATH=str(ROOT / "src"),
               PYTHONWARNINGS=CHILD_WARNINGS)
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, check=True,
                          capture_output=True, text=True).stdout


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _environment() -> dict:
    """What the digests depend on besides the code, as this process sees it."""
    import ctypes
    import platform

    import numpy as np
    import scipy
    from mimir import _runtime

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = _runtime._c_function(*_runtime._BLAS_THREADS)
    core = _runtime._c_function("scipy_openblas_get_corename64_", "openblas_get_corename")
    if core is not None:
        core.argtypes, core.restype = [], ctypes.c_char_p
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_core": None if core is None else core().decode("ascii"),
        "cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_threads": None if threads is None else threads(),
    }


def _cli_digests(workdir: Path) -> dict[str, str]:
    """``config/file`` -> sha256 of every file of the CLI pipeline on each config."""
    from mimir import cli

    digests = {}
    for name in CONFIGS:
        out = workdir / name
        base = (BITS / f"{name}.cfg").read_text(encoding="utf-8")
        for command in COMMANDS:  # pretrain and bounds read no checkpoint
            checkpoint = out / ("pretrain.ckpt" if command == "finetune" else "finetune.ckpt")
            path = workdir / f"{name}-{command}.cfg"
            path.write_text(f"{base}checkpoint = {checkpoint}\n", encoding="utf-8")
            if cli.main([command, "--config", str(path), "--out", str(out)]) != 0:
                raise RuntimeError(f"{command} on {name}.cfg failed")
        digests.update((f"{name}/{file.name}", _sha256(file.read_bytes()))
                       for file in sorted(out.iterdir()))
    return digests


def _library_digests(workdir: Path) -> dict[str, str]:
    """perfbench's fingerprints after fixed step counts, on perfbench's seeds and shapes."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    digests = {}
    for name, seeds, steps in (("pretrain-mid32", (1, 2, 3), PRETRAIN_STEPS),
                               ("finetune-tiny16", (1,), FINETUNE_STEPS),
                               ("mi-estimate-mid32", (1,), 1)):
        for seed in seeds:
            workload = workloads.WORKLOADS[name](seed, str(workdir))
            workload.prepare()
            for _ in range(steps):
                error = workload.check(workload.step())
                if error:
                    raise RuntimeError(f"{name} seed {seed}: {error}")
            digests[f"{name}/seed{seed}/{steps} steps"] = workload.fingerprint()
    return digests


def _one_setting() -> dict:
    """The environment and every digest, in this process (the caller sets its BLAS threads)."""
    with tempfile.TemporaryDirectory() as tmp:
        cli_dir, library_dir = Path(tmp) / "cli", Path(tmp) / "library"
        cli_dir.mkdir()
        library_dir.mkdir()
        return {"environment": _environment(),
                "digests": {**_cli_digests(cli_dir), **_library_digests(library_dir)}}


def child_setting(script: str, blas_threads: int) -> dict:
    """What ``script --one`` prints, run in a fresh process at ``blas_threads`` BLAS threads."""
    with tempfile.TemporaryDirectory() as tmp:
        return json.loads(python_at(tmp, blas_threads, str(Path(script).resolve()), "--one"))


def compute() -> dict:
    """The manifest of this checkout: one process per BLAS thread count."""
    environment, reported, digests = {}, {}, {}
    for threads in BLAS_THREADS:
        setting = child_setting(__file__, threads)
        environment = setting["environment"]
        reported[str(threads)] = environment.pop("blas_threads")
        digests.update((f"blas{threads}/{key}", value) for key, value in setting["digests"].items())
    return {"environment": {**environment, "blas_threads": reported}, "digests": digests}


def hold(recorded: dict, now: dict, moved: list[str], what: str, remedy: str) -> None:
    """Pass where no entry ``moved``; otherwise skip, naming each environment difference, where
    ``now`` was measured in an environment unlike ``recorded``'s, and fail where it was not.

    Both messages give the count of moved entries, ``what`` happened to them and every entry;
    the failure adds ``remedy``, what a change that moves them on purpose does.
    """
    if not moved:
        return
    import pytest  # here, not at the top: the child processes run this file without pytest

    was, is_now = recorded["environment"], now["environment"]
    differences = [f"{name} {was.get(name)} -> {is_now.get(name)}"
                   for name in sorted(was.keys() | is_now.keys()) if was.get(name) != is_now.get(name)]
    if differences:
        pytest.skip(f"{len(moved)} {what} in an environment unlike the record's "
                    f"({'; '.join(differences)}): {', '.join(moved)}")
    pytest.fail(f"{len(moved)} {what}: {', '.join(moved)}. {remedy}")


def main(argv=None, doc: str = __doc__, record: Path = MANIFEST, one_setting=_one_setting,
         compute=compute) -> int:
    """Print the ``record`` that ``compute`` makes, or rewrite it with ``--write``; ``--one``
    runs ``one_setting`` in this process only, as each child process does."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {record.relative_to(ROOT)}")
    parser.add_argument("--one", action="store_true",
                        help="compute in this process only (what each child runs)")
    args = parser.parse_args(argv)
    result = one_setting() if args.one else compute()
    text = json.dumps(result, indent=1, sort_keys=True) + "\n"
    if args.write:
        record.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
