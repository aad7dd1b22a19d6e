"""The benchmark's tracer wraps package functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_is_a_package_function():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = tracing.traced_names()
    missing = [name for name in names
               if not callable(getattr(importlib.import_module("mimir." + name.split(".")[0]),
                                       name.split(".")[1], None))]
    assert names and not missing, missing
