import ast
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from mimir import _runtime as rt
from mimir import autodiff as ad
from mimir.autodiff import Tensor

from bits_manifest import CHILD_WARNINGS


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


def _package_env() -> dict:
    """The environment minus any malloc tuning, with this checkout's package on the path."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("MALLOC_") and key != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(rt.__file__))
    env["PYTHONWARNINGS"] = CHILD_WARNINGS
    return env


# Three rounds of 25 written-and-freed 4 MiB arrays after importing what the benchmark's
# workloads import; prints the minor page faults of the third round.
_HEAP_ROUNDS = """
import resource
import numpy as np
import mimir.train

def round_trip():
    arrays = [np.full(1 << 19, 1.0) for _ in range(25)]
    del arrays

round_trip()
round_trip()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
round_trip()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


# The caller allocates and frees 48 MiB in rounds, then a helper thread does the
# same; prints how far the helper raised the peak RSS, in KiB.
_HELPER_ROUNDS = """
import resource
import threading
import numpy as np
import mimir.train

def rounds():
    for _ in range(3):
        arrays = [np.full(1 << 17, 1.0) for _ in range(48)]
        del arrays

rounds()
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
helper = threading.Thread(target=rounds)
helper.start()
helper.join()
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak)
"""


# Imports the CLI and then every module of the package; prints the scipy modules loaded.
_SCIPY_MODULES = """
import importlib, pkgutil, sys
import mimir, mimir.cli
for module in pkgutil.iter_modules(mimir.__path__):
    importlib.import_module("mimir." + module.name)
print(sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy.")))
"""


def test_no_mimir_module_imports_scipy():
    """scipy is the test suite's reference only: ``scipy.special`` cost every start 0.2 s."""
    loaded = subprocess.run([sys.executable, "-c", _SCIPY_MODULES], env=_package_env(), check=True,
                            capture_output=True, text=True).stdout
    assert loaded.strip() == "[]"


@pytest.mark.skipif(not _glibc(), reason="the heap policy applies to glibc only")
class TestHeapPolicy:
    def _third_round_faults(self, **malloc_env) -> int:
        env = dict(_package_env(), **malloc_env)
        return int(subprocess.run([sys.executable, "-c", _HEAP_ROUNDS], env=env, check=True,
                                  capture_output=True, text=True).stdout)

    def test_freed_arrays_are_reused_without_faulting(self):
        assert self._third_round_faults() < 1000

    def test_user_malloc_setting_wins(self):
        # glibc's own policy returns the freed arrays, so the third round faults them in again
        assert self._third_round_faults(MALLOC_TRIM_THRESHOLD_="0") > 5000

    def test_arena_setting_opts_out_too(self):
        assert self._third_round_faults(MALLOC_ARENA_MAX="8") > 5000

    def test_helper_thread_reuses_the_callers_freed_heap(self):
        """With one arena a helper allocates from the pages the caller freed, so peak RSS holds."""
        grown_kib = int(subprocess.run([sys.executable, "-c", _HELPER_ROUNDS], env=_package_env(),
                                       check=True, capture_output=True, text=True).stdout)
        assert grown_kib < 16 << 10  # a helper arena of its own would add the 48 MiB again


def test_heap_policy_leaves_non_glibc_alone(monkeypatch):
    def not_glibc(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    def no_dlopen(*args, **kwargs):
        raise AssertionError("mallopt looked up off glibc")

    monkeypatch.setattr(os, "confstr", not_glibc)
    monkeypatch.setattr(rt.ctypes, "CDLL", no_dlopen)
    assert rt._keep_freed_heap() is False


class TestWorkers:
    """``workers``: one thread of a split pass per group of cores that one BLAS call occupies."""

    @pytest.mark.parametrize("blas, workers", [(1, 4), (2, 2), (3, 1), (4, 1), (8, 1), (None, 1)])
    def test_cores_over_blas_threads(self, monkeypatch, blas, workers):
        monkeypatch.setattr(rt.os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        monkeypatch.setattr(rt, "_c_function", lambda *names: lambda: blas)
        assert rt.workers() == workers

    def test_failed_lookup_gives_one_worker(self, monkeypatch):
        monkeypatch.setattr(rt.os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        monkeypatch.setattr(rt, "_c_function", lambda *names: None)
        assert rt.workers() == 1

    def test_lookup_reads_a_thread_count(self):
        query = rt._c_function(*rt._BLAS_THREADS)
        assert query is None or query() >= 1


@pytest.mark.skipif(rt._c_function("sched_getcpu") is None or not hasattr(os, "sched_setaffinity"),
                    reason="needs glibc's sched_getcpu and sched_setaffinity")
def test_helpers_run_off_the_callers_cpu(monkeypatch):
    monkeypatch.setattr(rt, "workers", lambda: 2)
    lookup = rt._c_function
    getcpu = lookup("sched_getcpu")
    callers = []

    def spy():
        assert threading.current_thread() is threading.main_thread()
        callers.append(getcpu())
        return callers[-1]

    monkeypatch.setattr(rt, "_c_function",
                        lambda *names: spy if names == ("sched_getcpu",) else lookup(*names))
    helpers = []
    w = Tensor(np.ones((1, 1)), requires_grad=True)

    def fn(part, rows):
        out = ad.linear(part, w)
        if not rows.start:
            return (out,)

        def vjp(g):
            helpers.append((callers[-1], os.sched_getaffinity(0)))
            return g

        helpers.append((callers[-1], os.sched_getaffinity(0)))
        return (ad._result(out.data, "spy", [(out, vjp)]),)

    (out,) = ad.shards(fn, Tensor(np.zeros((4, 1, 1))))
    ad.backward(ad.reduce_sum(out))
    allowed = os.sched_getaffinity(0)
    assert len(callers) == 2 and len(helpers) == 2  # the helper of the pass and of its backward
    for cpu, affinity in helpers:
        assert affinity == (allowed - {cpu} if len(allowed) > 1 else allowed)


def test_helpers_start_unpinned_where_the_callers_cpu_is_unknown(monkeypatch):
    def no_pinning(*args):
        raise AssertionError("a helper pinned itself off an unknown CPU")

    monkeypatch.setattr(rt, "_c_function", lambda *names: None)
    monkeypatch.setattr(rt.os, "sched_setaffinity", no_pinning, raising=False)
    ran = rt.run_shares(lambda i: (i, threading.current_thread().name.split("_")[0]), 3)
    assert ran == [(0, "MainThread"), (1, "mimir-shard"), (2, "mimir-shard")]


# Imports that start threads or call into C: only ``_runtime`` may use them.
_PROCESS_MODULES = ("ctypes", "concurrent.futures", "threading")


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_only_the_runtime_imports_ctypes_or_an_executor():
    package = Path(rt.__file__).parent
    offenders = {}
    for path in sorted(package.glob("*.py")):
        if path.name == "_runtime.py":
            continue
        found = sorted(name for name in _imported(ast.parse(path.read_text(encoding="utf-8")))
                       if any(name == banned or name.startswith(banned + ".")
                              for banned in _PROCESS_MODULES))
        if found:
            offenders[path.name] = found
    assert offenders == {}


def test_only_the_split_pass_helper_calls_shards():
    """``model._split_pass`` alone decides whether a pass runs in shares."""
    callers = set()
    for path in sorted(Path(rt.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {id(node): "<module>" for node in ast.walk(tree)}
        for func in ast.walk(tree):  # outer functions come first, so inner ones win
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(node), func.name) for node in ast.walk(func))
        callers.update((path.name, owner[id(node)]) for node in ast.walk(tree)
                       if isinstance(node, ast.Call)
                       and "shards" in (getattr(node.func, "id", None),
                                        getattr(node.func, "attr", None)))
    assert callers == {("model.py", "_split_pass")}
