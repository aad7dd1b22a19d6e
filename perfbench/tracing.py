"""Span tracing of mimir's public functions, installed from outside the package.

``Tracer.install`` replaces each traced function wherever it is bound: on its
own module and on every module that holds a ``from``-import copy of it
(``train.attack_recon``, ``attacks.encode_full``, ``cli.hsic``, ...). A span
is recorded only inside a step opened with ``Tracer.step``; spans stay in
memory (name, start, end, parent, step id) until ``write_spans`` at the end.

Beside the spans the tracer keeps three counts at layer boundaries:
forward matmul flops from operand shapes, the input-gradient share of the
leaf gradients that ``backward`` returns inside an attack, and the parameter
tensors whose ``.grad`` an attack set or replaced.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Functions with their own per-layer metrics, by module.
REPORTED = {
    "autodiff": ("backward", "matmul", "gelu", "layer_norm", "softmax", "cross_entropy",
                 "mse_loss", "gather_rows"),
    "model": ("encode", "decode", "encode_full", "classify", "patchify", "unpatchify",
              "sample_mask"),
    "mi": ("penalty_mi", "median_bandwidth", "rbf_gram", "symmetric_eigenvalues", "hsic",
           "renyi_mi"),
    "attacks": ("pgd", "attack_recon", "attack_ce", "attack_mi", "attack_fea", "linf_project"),
    "train": ("adamw_step", "load_checkpoint", "save_checkpoint"),
    "evaluate": ("evaluate",),
    "config": ("load_config",),
    "cli": ("run_config",),
    "data": ("synth_dataset",),
}

# Every public graph op of the engine; they are summed into autodiff.ops.
OPS = ("add", "sub", "mul", "scale", "neg", "exp", "log", "sqrt", "square", "clip", "matmul",
       "reshape", "transpose", "gather_rows", "concat", "expand", "reduce_sum", "reduce_mean",
       "softmax", "layer_norm", "gelu", "mse_loss", "cross_entropy")

ATTACK_ENTRIES = ("attacks.attack_recon", "attacks.attack_ce", "attacks.attack_mi",
                  "attacks.attack_fea")
STAGES = ("attack", "forward", "backward", "optimizer")
STEP = "step"


def _stage_of(name: str) -> str | None:
    """The stage a span belongs to when no enclosing span has claimed one."""
    if name.startswith("attacks."):
        return "attack"
    if name == "autodiff.backward":
        return "backward"
    if name == "train.adamw_step":
        return "optimizer"
    if name.startswith(("autodiff.", "model.")) or name == "mi.penalty_mi":
        return "forward"
    return None


def traced_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fns in REPORTED.items() for fn in fns]
    return names + [f"autodiff.{op}" for op in OPS if f"autodiff.{op}" not in names]


def _matmul_flops(a, b) -> int:
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    return 2 * int(np.prod(batch, dtype=np.int64)) * a.shape[-2] * a.shape[-1] * b.shape[-1]


class Tracer:
    def __init__(self, params=None):
        self.param_ids = set() if params is None else {id(t) for t in params.tensors.values()}
        self.params = params
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.step_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.steps = 0
        self.attack_depth = 0
        self.matmul_flops = 0
        self.grad_input = 0
        self.grad_all = 0
        self.stale_grads = 0
        self.attack_calls = 0
        self.grads_at_entry: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function on its module and on all its import copies."""
        modules = [m for name, m in sys.modules.items() if name.startswith("mimir.")]
        wrappers = {}
        for full in traced_names():
            mod, fn = full.split(".")
            original = getattr(sys.modules[f"mimir.{mod}"], fn)
            wrappers[id(original)] = self._wrap(full, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        after = {"autodiff.matmul": self._after_matmul,
                 "autodiff.backward": self._after_backward}.get(name)
        is_attack = name in ATTACK_ENTRIES
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            if not stack:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.name_of.append(name_id)
            tracer.parent.append(stack[-1])
            tracer.step_of.append(tracer.steps)
            tracer.end.append(0.0)
            stack.append(idx)
            if is_attack:
                if tracer.attack_depth == 0:
                    tracer._before_attack()
                tracer.attack_depth += 1
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                stack.pop()
                if is_attack:
                    tracer.attack_depth -= 1
            if after is not None:
                after(args, result)
            elif is_attack and tracer.attack_depth == 0:
                tracer._after_attack()
            return result

        return functools.wraps(fn)(traced)

    def _after_matmul(self, args, result) -> None:
        self.matmul_flops += _matmul_flops(args[0], args[1])

    def _after_backward(self, args, grads) -> None:
        if self.attack_depth == 0:
            return
        for leaf, g in grads.items():
            self.grad_all += g.size
            if id(leaf) not in self.param_ids:
                self.grad_input += g.size

    def _before_attack(self) -> None:
        # Hold the grad objects themselves: ``backward`` always stores a new
        # array, so a grad the attack wrote is a different object afterwards.
        if self.params is not None:
            self.grads_at_entry = [t.grad for _, t in self.params.trainable()]

    def _after_attack(self) -> None:
        self.attack_calls += 1
        if self.params is not None:
            after = [t.grad for _, t in self.params.trainable()]
            self.stale_grads += sum(1 for old, new in zip(self.grads_at_entry, after)
                                    if new is not None and new is not old)
        self.grads_at_entry = []

    @contextmanager
    def step(self):
        """Open the root span of one timed step."""
        if STEP not in self.names:
            self.names.append(STEP)
        idx = len(self.start)
        self.name_of.append(self.names.index(STEP))
        self.parent.append(-1)
        self.step_of.append(self.steps)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        try:
            yield
        finally:
            self.end[idx] = perf_counter()
            self.stack.pop()
            self.steps += 1

    # -- analysis ---------------------------------------------------------

    def _arrays(self):
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name_of = np.frombuffer(self.name_of, dtype=np.int32)
        children = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(children, parent[nested], dur[nested])
        return dur, dur - children, parent, name_of

    def per_name(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds), summed over all traced steps."""
        dur, self_t, _, name_of = self._arrays()
        k = len(self.names)
        calls = np.bincount(name_of, minlength=k)
        total = np.bincount(name_of, weights=dur, minlength=k)
        own = np.bincount(name_of, weights=self_t, minlength=k)
        return {n: (int(calls[i]), float(total[i]), float(own[i])) for i, n in enumerate(self.names)}

    def stage_seconds(self) -> dict[str, float]:
        """Seconds per stage, from the outermost span of each stage.

        A span belongs to the stage of its nearest enclosing span that has
        one, so forward and backward work inside an attack counts as attack.
        ``other`` is the step time no stage covers.
        """
        dur, _, parent, name_of = self._arrays()
        own = [_stage_of(n) for n in self.names]
        claimed: list[str | None] = [None] * len(dur)
        out = dict.fromkeys(STAGES, 0.0)
        step_total = 0.0
        for i in range(len(dur)):
            p = int(parent[i])
            if p < 0:
                step_total += dur[i]
                continue
            if claimed[p] is not None:
                claimed[i] = claimed[p]
                continue
            stage = own[name_of[i]]
            if stage is not None:
                claimed[i] = stage
                out[stage] += dur[i]
        out["other"] = step_total - sum(out[s] for s in STAGES)
        return out

    def write_spans(self, path: str) -> None:
        lines = ["name\tstart_s\tend_s\tparent\tstep\n"]
        origin = self.start[0] if self.start else 0.0
        for i in range(len(self.start)):
            lines.append(f"{self.names[self.name_of[i]]}\t{self.start[i] - origin:.9f}\t"
                         f"{self.end[i] - origin:.9f}\t{self.parent[i]}\t{self.step_of[i]}\n")
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.writelines(lines)


def layer_metrics(tracer: Tracer, traced_ips: float, untraced_ips: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per timed step: name -> (value, unit)."""
    steps = tracer.steps
    stats = tracer.per_name()
    out: dict[str, tuple[float, str]] = {}
    for mod, fns in REPORTED.items():
        for fn in fns:
            calls, total, own = stats[f"{mod}.{fn}"]
            out[f"{mod}.{fn}.calls"] = (calls / steps, "count")
            out[f"{mod}.{fn}.total_s"] = (total / steps, "s")
            out[f"{mod}.{fn}.self_s"] = (own / steps, "s")
    op_calls = sum(stats[f"autodiff.{op}"][0] for op in OPS)
    op_self = sum(stats[f"autodiff.{op}"][2] for op in OPS)
    out["autodiff.ops.calls"] = (op_calls / steps, "count")
    out["autodiff.ops.self_s"] = (op_self / steps, "s")
    out["autodiff.ops.us_per_call"] = (1e6 * op_self / op_calls if op_calls else 0.0, "us")
    matmul_self = stats["autodiff.matmul"][2]
    out["autodiff.matmul.gflop"] = (tracer.matmul_flops / steps / 1e9, "GFLOP")
    out["autodiff.matmul.gflop_per_s"] = (tracer.matmul_flops / 1e9 / matmul_self if matmul_self else 0.0,
                                          "GFLOP/s")
    for stage, seconds in tracer.stage_seconds().items():
        out[f"stage.{stage}_s"] = (seconds / steps, "s")
    out["attacks.useful_grad_frac"] = (tracer.grad_input / tracer.grad_all if tracer.grad_all else 0.0,
                                       "fraction")
    out["attacks.stale_param_grads"] = (tracer.stale_grads / tracer.attack_calls
                                        if tracer.attack_calls else 0.0, "count")
    out["trace.overhead_frac"] = (1.0 - traced_ips / untraced_ips, "fraction")
    return out


def top_functions(tracer: Tracer, k: int = 10) -> list[tuple[str, float, float]]:
    """The k functions with the most self time: (name, self s per step, calls per step)."""
    rows = [(n, own / tracer.steps, calls / tracer.steps)
            for n, (calls, _, own) in tracer.per_name().items() if calls]
    return sorted(rows, key=lambda r: -r[1])[:k]
