"""Strict flat key-value experiment configs.

Format: one ``key = value`` per line, ``#`` comments, section prefixes in
the key (``train.base_lr = 1.5e-4``). Unknown keys are rejected by name and
missing required keys for the selected command are listed together, so a
typo can never silently change an experiment. Parsing a serialized config
reproduces the identical structure.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from .attacks import AttackSpec
from .mi import _check_alpha
from .model import ViTConfig
from .train import TrainConfig


class ConfigError(ValueError):
    """Malformed experiment configuration."""


def _parse_bool(raw: str) -> bool:
    if raw in ("true", "false"):
        return raw == "true"
    raise ValueError(f"expected true/false, got {raw!r}")


def _int_at_least(low: int, kind: str, odd: bool = False):
    def parse(raw) -> int:
        value = int(raw)
        if value < low or (odd and value % 2 == 0):
            raise ValueError(f"expected {kind}, got {value}")
        return value
    return parse


_parse_positive_int = _int_at_least(1, "a positive integer")
_parse_non_negative_int = _int_at_least(0, "a non-negative integer")


def _parse_eval_attacks(raw: str) -> str:
    for kind in raw.split(","):
        if kind.strip() not in ("ce", "mi", "fea"):
            raise ValueError(f"entries must be ce/mi/fea, got {kind.strip()!r}")
    return raw


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
    "data.num_classes": _parse_positive_int,
    "data.samples_per_class": _parse_positive_int,
    "data.image_size": _parse_positive_int,
    "data.channels": _parse_positive_int,
    "data.noise": float,
    "model.image_size": _parse_positive_int,
    "model.channels": _parse_positive_int,
    "model.patch_size": _parse_positive_int,
    "model.enc_layers": _parse_positive_int,
    "model.enc_dim": _parse_positive_int,
    "model.enc_heads": _parse_positive_int,
    "model.enc_mlp_ratio": _parse_positive_int,
    "model.dec_layers": _parse_positive_int,
    "model.dec_dim": _parse_positive_int,
    "model.dec_heads": _parse_positive_int,
    "model.dec_mlp_ratio": _parse_positive_int,
    "model.num_classes": _parse_positive_int,
    "model.mask_ratio": float,
    "train.base_lr": float,
    "train.beta1": float,
    "train.beta2": float,
    "train.weight_decay": float,
    "train.warmup_epochs": _parse_non_negative_int,
    "train.total_epochs": _parse_positive_int,
    "train.batch_size": _parse_positive_int,
    "train.lambda": float,
    "train.estimator": str,
    "train.layer_decay": float,
    "train.recon_masked_only": _parse_bool,
    "attack.epsilon": float,
    "attack.step_size": float,
    "attack.iters": _parse_positive_int,
    "attack.init": str,
    "eval.attacks": _parse_eval_attacks,
    "eval.pgd_iters": _parse_positive_int,
    "eval.adaptive_iters": _parse_positive_int,
    "eval.lambda": float,
    "eval.batch_size": _parse_positive_int,
    "eval.subset": _parse_positive_int,
    "bounds.num_classes": _int_at_least(2, "an integer >= 2"),
    "bounds.step": float,
    "landscape.half_width": float,
    "landscape.resolution": _int_at_least(3, "an odd integer >= 3", odd=True),
    "landscape.batch_size": _parse_positive_int,
    "mi.alpha": _check_alpha,
    "mi.batch_size": _parse_positive_int,
}

_DATA_KEYS_SYNTH = ("data.num_classes", "data.samples_per_class", "data.image_size", "data.noise")
_DATA_KEYS_CIFAR = ("data.dir",)

REQUIRED: dict[str, tuple[str, ...]] = {
    "pretrain": ("out_dir", "data.source", "model.image_size", "model.patch_size",
                 "train.base_lr", "train.total_epochs", "train.batch_size"),
    "finetune": ("out_dir", "data.source", "model.image_size", "model.patch_size",
                 "train.base_lr", "train.total_epochs", "train.batch_size"),
    "attack": ("out_dir", "checkpoint", "data.source"),
    "eval": ("out_dir", "checkpoint", "data.source"),
    "bounds": ("out_dir", "bounds.num_classes", "bounds.step"),
    "landscape": ("out_dir", "checkpoint", "data.source",
                  "landscape.half_width", "landscape.resolution"),
    "mi-estimate": ("out_dir", "checkpoint", "data.source"),
}


@dataclass
class ExperimentConfig:
    command: str
    values: dict[str, object] = field(default_factory=dict)

    def get(self, key: str, default=None):
        return self.values.get(key, default)

    @property
    def seed(self) -> int:
        return int(self.values.get("seed", 0))

    @property
    def out_dir(self) -> str:
        return str(self.values["out_dir"])

    def _section(self, prefix: str) -> dict[str, object]:
        """The ``prefix.*`` keys that are set, by their name after the prefix."""
        return {key.removeprefix(prefix): value for key, value in self.values.items()
                if key.startswith(prefix)}

    def vit_config(self) -> ViTConfig:
        return ViTConfig(**self._section("model."))

    def check_model_keys(self, stored: ViTConfig) -> None:
        """Reject any ``model.*`` key that contradicts the architecture a checkpoint stores."""
        for name, value in sorted(self._section("model.").items()):
            if getattr(stored, name) != value:
                raise ConfigError(f"model.{name} = {value} contradicts the checkpoint, "
                                  f"which has {name} = {getattr(stored, name)}")

    def attack_spec(self, default: AttackSpec) -> AttackSpec:
        return replace(default, **self._section("attack."))

    def train_config(self, attack: AttackSpec, default_betas: tuple[float, float]) -> TrainConfig:
        """``TrainConfig`` from the ``train.*`` keys that are set; it keeps its own defaults."""
        train = self._section("train.")
        betas = (train.pop("beta1", default_betas[0]), train.pop("beta2", default_betas[1]))
        if "lambda" in train:
            train["lam"] = train.pop("lambda")
        return TrainConfig(attack=attack, betas=betas, **train)


def parse_config_text(text: str) -> dict[str, object]:
    values: dict[str, object] = {}
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
        caster = KEY_TYPES[key]
        try:
            values[key] = caster(raw_value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return values


def _validate(values: dict[str, object], command: str) -> None:
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; expected one of {', '.join(COMMANDS)}")
    required = list(REQUIRED[command])
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
    """Parse, apply CLI overrides, and validate a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            values = parse_config_text(fh.read())
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
    values["command"] = str(command)
    _validate(values, str(command))
    return ExperimentConfig(command=str(command), values=values)


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
