import json

import bits_manifest
import memory_manifest


def test_no_pretraining_step_peaks_above_its_record():
    """The tracemalloc peaks of ``memory_manifest`` stay within ``SLACK`` of the record.

    A higher peak fails in the recorded environment and skips, naming the
    difference, in any other (see ``memory_manifest``'s docstring).
    """
    recorded = json.loads(memory_manifest.RECORD.read_text(encoding="utf-8"))
    now = memory_manifest.compute()
    higher = [f"{name} {mb} -> {now['peaks_mb'].get(name)} MB"
              for name, mb in sorted(recorded["peaks_mb"].items())
              if not now["peaks_mb"].get(name, float("inf")) <= mb * (1.0 + memory_manifest.SLACK)]
    bits_manifest.hold(recorded, now, higher,
                       f"peaks rose more than {memory_manifest.SLACK:.0%} above the record",
                       "Rewrite the record only for a change that raises memory on purpose, "
                       "and give the figures in CHANGES.md")
