"""Strict flat key-value experiment configs.

Format: one ``key = value`` per line, ``#`` comments, section prefixes in
the key (``train.base_lr = 1.5e-4``). Unknown keys are rejected by name and
missing required keys for the selected command are listed together, so a
typo can never silently change an experiment. Parsing a serialized config
reproduces the identical structure. The ``model.*``, ``train.*`` and
``attack.*`` keys are fields of ``ViTConfig``, ``TrainConfig`` and
``AttackSpec``, which own their types, defaults and ranges; ``load_config``
builds them, so a bad value fails by key and line before any command runs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields, replace
from typing import get_type_hints

from .attacks import AttackSpec, adaptive_attack_spec, finetune_attack_spec, pretrain_attack_spec
from .bounds import _check_grid_step
from .evaluate import _check_half_width
from .mi import _check_alpha
from .model import ViTConfig
from .train import TrainConfig


class ConfigError(ValueError):
    """Malformed experiment configuration."""


def _parse_bool(raw: str) -> bool:
    if raw in ("true", "false"):
        return raw == "true"
    raise ValueError(f"expected true/false, got {raw!r}")


def _at_least(low, kind: str, cast=int, odd: bool = False):
    def parse(raw):
        value = cast(raw)
        if not value >= low or (odd and value % 2 == 0):
            raise ValueError(f"expected {kind}, got {value}")
        return value
    return parse


_parse_positive_int = _at_least(1, "a positive integer")
_parse_non_negative_int = _at_least(0, "a non-negative integer")
_parse_int_at_least_2 = _at_least(2, "an integer >= 2")
_parse_non_negative_float = _at_least(0.0, "a non-negative number", float)


def _parse_eval_attacks(raw: str) -> str:
    for kind in raw.split(","):
        if kind.strip() not in ("ce", "mi", "fea"):
            raise ValueError(f"entries must be ce/mi/fea, got {kind.strip()!r}")
    return raw


def _field_keys(section: str, cls, skip: tuple[str, ...] = ()) -> dict[str, object]:
    """``section.<field>`` -> its parser, for each field of ``cls`` not in ``skip``."""
    hints = get_type_hints(cls)
    return {f"{section}.{f.name}": _parse_bool if hints[f.name] is bool else hints[f.name]
            for f in fields(cls) if f.name not in skip}


# the name a dataclass check uses -> the train.* key named apart from its field
_KEY_OF = {"lam": "train.lambda", "betas[0]": "train.beta1", "betas[1]": "train.beta2"}
_ATTACK_DEFAULTS = {"pretrain": pretrain_attack_spec(), "finetune": finetune_attack_spec()}

COMMANDS = ("pretrain", "finetune", "attack", "eval", "bounds", "landscape", "mi-estimate")

# key -> parser; every accepted key appears here
KEY_TYPES: dict[str, type | object] = {
    "command": str,
    "seed": _parse_non_negative_int,
    "out_dir": str,
    "checkpoint": str,
    "data.source": str,
    "data.dir": str,
    "data.split": str,
    "data.num_classes": _parse_int_at_least_2,
    "data.samples_per_class": _parse_positive_int,
    "data.image_size": _parse_int_at_least_2,
    "data.channels": _parse_positive_int,
    "data.noise": _parse_non_negative_float,
    **_field_keys("model", ViTConfig),
    **_field_keys("train", TrainConfig, skip=("attack", "betas", "lam")),
    "train.lambda": _parse_non_negative_float,
    "train.beta1": float,
    "train.beta2": float,
    **_field_keys("attack", AttackSpec, skip=("box",)),
    "eval.attacks": _parse_eval_attacks,
    "eval.adaptive_iters": _parse_positive_int,
    "eval.lambda": _parse_non_negative_float,
    "eval.batch_size": _parse_positive_int,
    "eval.subset": _parse_positive_int,
    "bounds.num_classes": _parse_int_at_least_2,
    "bounds.step": _check_grid_step,
    "landscape.half_width": _check_half_width,
    "landscape.resolution": _at_least(3, "an odd integer >= 3", odd=True),
    "landscape.batch_size": _parse_positive_int,
    "mi.alpha": _check_alpha,
    "mi.batch_size": _parse_positive_int,
}

_DATA_KEYS_SYNTH = ("data.num_classes", "data.samples_per_class", "data.image_size", "data.noise")
_DATA_KEYS_CIFAR = ("data.dir",)

_MODEL_KEYS = ("model.image_size", "model.patch_size")
_TRAIN_KEYS = ("out_dir", "data.source", "train.base_lr", "train.total_epochs", "train.batch_size")

# finetune needs _MODEL_KEYS unless it starts from a checkpoint, which holds the architecture
REQUIRED: dict[str, tuple[str, ...]] = {
    "pretrain": _TRAIN_KEYS + _MODEL_KEYS,
    "finetune": _TRAIN_KEYS,
    "attack": ("out_dir", "checkpoint", "data.source"),
    "eval": ("out_dir", "checkpoint", "data.source"),
    "bounds": ("out_dir", "bounds.num_classes", "bounds.step"),
    "landscape": ("out_dir", "checkpoint", "data.source",
                  "landscape.half_width", "landscape.resolution"),
    "mi-estimate": ("out_dir", "checkpoint", "data.source"),
}


@dataclass
class ExperimentConfig:
    """The parsed keys, plus the dataclasses ``load_config`` builds from them."""

    command: str
    values: dict[str, object] = field(default_factory=dict)
    attack: AttackSpec | None = None
    model: ViTConfig | None = None      # built when model.image_size is set
    train: TrainConfig | None = None    # built when the required train.* keys are set

    def get(self, key: str, default=None):
        return self.values.get(key, default)

    @property
    def seed(self) -> int:
        return int(self.values.get("seed", 0))

    @property
    def out_dir(self) -> str:
        return str(self.values["out_dir"])

    def out_path(self, name: str) -> str:
        """Path of the artifact ``name``; the output directory is made on first use."""
        os.makedirs(self.out_dir, exist_ok=True)
        return os.path.join(self.out_dir, name)

    def _section(self, prefix: str) -> dict[str, object]:
        """The ``prefix.*`` keys that are set, by their name after the prefix."""
        return {key.removeprefix(prefix): value for key, value in self.values.items()
                if key.startswith(prefix)}

    def check_model_keys(self, stored: ViTConfig) -> None:
        """Reject any ``model.*`` key that contradicts the architecture a checkpoint stores."""
        for name, value in sorted(self._section("model.").items()):
            if getattr(stored, name) != value:
                raise ConfigError(f"model.{name} = {value} contradicts the checkpoint, "
                                  f"which has {name} = {getattr(stored, name)}")


def _parse(text: str) -> tuple[dict[str, object], dict[str, int]]:
    """The values by key, and the line each key is set on."""
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, raw_value = (part.strip() for part in line.split("=", 1))
        if key not in KEY_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = KEY_TYPES[key](raw_value)
            if isinstance(values[key], float) and not math.isfinite(values[key]):
                raise ValueError(f"expected a finite number, got {values[key]}")
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
        lines[key] = lineno
    return values, lines


def parse_config_text(text: str) -> dict[str, object]:
    return _parse(text)[0]


def _build(lines: dict[str, int], section: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``; a ValueError is reported at the first set key it names."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        for word in str(exc).replace(",", " ").split():
            key = _KEY_OF.get(word, f"{section}.{word}")
            if key in lines:
                raise ConfigError(f"line {lines[key]}: bad value for {key!r}: {exc}") from exc
        raise


def _validate(values: dict[str, object], command: str) -> None:
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; expected one of {', '.join(COMMANDS)}")
    required = list(REQUIRED[command])
    if command == "finetune":
        required += ["checkpoint"] if "checkpoint" in values else _MODEL_KEYS
    source = values.get("data.source")
    if "data.source" in required and source is not None:
        if source == "synth":
            required += list(_DATA_KEYS_SYNTH)
        elif source == "cifar10":
            required += list(_DATA_KEYS_CIFAR)
        else:
            raise ConfigError(f"data.source must be 'synth' or 'cifar10', got {source!r}")
    missing = [key for key in required if key not in values]
    if missing:
        raise ConfigError(f"missing required keys for {command}: {', '.join(sorted(missing))}")
    for key in ("checkpoint", "data.dir"):
        if key in values and key in required and not os.path.exists(str(values[key])):
            raise ConfigError(f"{key} path does not exist: {values[key]}")


def load_config(path, command: str | None = None, seed: int | None = None,
                out_dir: str | None = None) -> ExperimentConfig:
    """Parse, apply CLI overrides, validate, and build the command's dataclasses."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            values, lines = _parse(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if command is None:
        command = values.get("command")
        if command is None:
            raise ConfigError("no command given and the config has no 'command' key")
    if seed is not None:
        try:
            values["seed"] = _parse_non_negative_int(seed)
        except ValueError as exc:
            raise ConfigError(f"--seed override: bad value for 'seed': {exc}") from exc
    if out_dir is not None:
        values["out_dir"] = str(out_dir)
    command = values["command"] = str(command)
    _validate(values, command)
    cfg = ExperimentConfig(command=command, values=values)
    # attack and eval default to PGD-20: the adaptive schedule cut to 20 steps
    default = _ATTACK_DEFAULTS.get(command) or adaptive_attack_spec(iters=20)
    cfg.attack = _build(lines, "attack", replace, default, **cfg._section("attack."))
    if "model.image_size" in values:
        cfg.model = _build(lines, "model", ViTConfig, **cfg._section("model."))
    train = cfg._section("train.")
    if {"base_lr", "total_epochs", "batch_size"} <= train.keys():
        betas = (0.9, 0.999) if command == "finetune" else TrainConfig.betas
        betas = (train.pop("beta1", betas[0]), train.pop("beta2", betas[1]))
        if "lambda" in train:
            train["lam"] = train.pop("lambda")
        cfg.train = _build(lines, "train", TrainConfig, attack=cfg.attack, betas=betas, **train)
    return cfg


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parsing it back yields an identical structure."""
    lines = []
    for key in sorted(cfg.values):
        value = cfg.values[key]
        if isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, float):
            rendered = repr(value)
        else:
            rendered = str(value)
        lines.append(f"{key} = {rendered}")
    return "\n".join(lines) + "\n"
