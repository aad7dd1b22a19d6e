"""The memory record: tracemalloc peaks of one step of three workloads, beside the bits manifest.

    PYTHONPATH=src python tests/memory_manifest.py            # print the record it measures
    PYTHONPATH=src python tests/memory_manifest.py --write    # rewrite tests/bits/memory.json

Run it from the repository root. It starts one Python process with
``OPENBLAS_NUM_THREADS=1``, which builds each workload from perfbench's
seed-1 inputs:

- perfbench's ``Pretrain`` workload, one pre-training step of mid32 over
  one batch of 32 images, with the reconstruction attack and the HSIC
  penalty;
- the same recipe on perfbench's tiny16 shape and images, for which
  perfbench has no pre-training workload;
- perfbench's ``MIEstimate`` workload, one ``cli.run_config`` call of
  ``mi-estimate`` per step, which loads a mid32 checkpoint and estimates
  the MI of 64 images.

For each it runs one warm-up step and then reports in MB the least or the
most (see ``WORKLOADS``) of the tracemalloc peaks of a few more steps: the
most memory that a step's own allocations held at once. numpy reports its
arrays to tracemalloc, so the peak is that of the step's arrays and graphs.

Next to the peaks the record keeps the environment that produced them (see
``bits_manifest._environment``), which sets the BLAS and the number of image
shares a pass runs in, and so how many shares' arrays are alive at once.
``tests/test_memory.py`` measures again. A peak at most ``SLACK`` above its
record passes. A higher one fails in the recorded environment and skips, naming
the difference, in any other.

A change that raises a peak on purpose rewrites the record with ``--write``
and gives the figures in CHANGES.md; so does one that lowers a peak.
"""

from __future__ import annotations

import gc
import sys
import tempfile
import tracemalloc
from typing import Callable

import numpy as np

import bits_manifest

RECORD = bits_manifest.BITS / "memory.json"
SLACK = 0.02
# name -> (steps traced after the warm-up step, which of their peaks is recorded)
WORKLOADS = {"pretrain-tiny16": (3, min), "pretrain-mid32": (3, min),
             "mi-estimate-mid32": (9, max)}


def _step(name: str, seed: int, workdir: str) -> Callable[[], object]:
    """One step of ``name``: perfbench's ``Pretrain`` or ``MIEstimate`` writing into
    ``workdir``, or for tiny16 a pre-training step of the ``Pretrain`` recipe over one
    batch of its 16 images."""
    sys.path.insert(0, str(bits_manifest.ROOT / "perfbench"))
    import workloads

    from mimir import attacks, model, train

    if name != "pretrain-tiny16":
        return {"pretrain-mid32": workloads.Pretrain,
                "mi-estimate-mid32": workloads.MIEstimate}[name](seed, workdir).step
    dataset = workloads._dataset(4, 4, 16, 1, seed)
    params = model.init_params(model.ViTConfig(**workloads.TINY16), np.random.default_rng([seed, 0]))
    state = train.TrainState.create(params, seed)
    config = train.TrainConfig(base_lr=1e-3, total_epochs=workloads.HORIZON_EPOCHS,
                               batch_size=len(dataset), attack=attacks.pretrain_attack_spec(),
                               lam=1e-5, estimator="hsic")
    return lambda: train.pretrain_epoch(state, dataset, config)


def _peak_mb(name: str, workdir: str) -> float:
    """The least or the most tracemalloc peak of a few steps of ``name`` after a warm-up
    step (see ``WORKLOADS``), in MB.

    Each step is traced on its own, so its peak counts only its own
    allocations. The shares of a pass run on threads, and where their
    allocations overlap moves the peak of a step. A pre-training step peaks
    higher now and then, by up to 2% on mid32, so the least of a few steps
    is the one that repeats. mi-estimate's encoder pass runs each share in
    chunks, and its steps peak at one of several levels up to 4% apart, by
    which chunks of the two shares overlap; the most of 9 steps read within
    about 1% from process to process (21.98-22.21 MB in 15 processes).
    """
    steps, pick = WORKLOADS[name]
    step = _step(name, 1, workdir)
    step()
    peaks = []
    for _ in range(steps):
        gc.collect()
        tracemalloc.start()
        try:
            step()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return round(pick(peaks) / 2**20, 3)


def _one_setting() -> dict:
    """The environment and every peak, in this process (the caller sets its BLAS threads)."""
    with tempfile.TemporaryDirectory() as tmp:
        peaks = {name: _peak_mb(name, tmp) for name in WORKLOADS}
    return {"environment": bits_manifest._environment(), "peaks_mb": peaks}


def compute() -> dict:
    """The record of this checkout, measured in a fresh process at one BLAS thread."""
    return bits_manifest.child_setting(__file__, 1)


def main(argv=None) -> int:
    return bits_manifest.main(argv, __doc__, RECORD, _one_setting, compute)


if __name__ == "__main__":
    sys.exit(main())
