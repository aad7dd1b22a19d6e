"""Strict flat key-value experiment configs.

Format: one ``key = value`` per line, ``#`` comments, section prefixes in
the key (``train.base_lr = 1.5e-4``). Unknown keys are rejected by name and
missing required keys for the selected command are listed together, so a
typo can never silently change an experiment. Parsing a serialized config
reproduces the identical structure.

Each key has one owner. ``KEYS`` holds every other key's parser, what it
accepts in words and its default, which ``ExperimentConfig.get`` returns
while the key is unset. The ``model.*``, ``train.*`` and ``attack.*`` keys
are fields of the ``SECTIONS`` dataclasses, which own their types, defaults
and ranges; ``load_config`` builds them, so a bad value fails by key and
line before any command runs. A test renders README's key table from both.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields, replace
from typing import Callable, get_type_hints

from .attacks import AttackSpec, adaptive_attack_spec, finetune_attack_spec, pretrain_attack_spec
from .bounds import _check_grid_step
from .evaluate import ATTACKS, _check_half_width
from .mi import _check_alpha
from .model import ViTConfig, visible_count
from .train import TrainConfig


class ConfigError(ValueError):
    """Malformed experiment configuration."""


def _parse_bool(raw: str) -> bool:
    if raw in ("true", "false"):
        return raw == "true"
    raise ValueError(f"expected true/false, got {raw!r}")


@dataclass(frozen=True)
class Key:
    """A key outside the dataclass sections: its parser, what that parser accepts in words,
    and its value while unset: the value of ``same_as`` if one is named, else ``default``."""

    parse: Callable[[str], object]
    accepts: str
    default: object = None
    same_as: str | None = None


def _at_least(low, accepts: str, cast=int, odd: bool = False, **unset) -> Key:
    def parse(raw):
        value = cast(raw)
        if not value >= low or (odd and value % 2 == 0):
            raise ValueError(f"expected {accepts}, got {value}")
        return value
    return Key(parse, accepts, **unset)


def _one_of(*choices: str, default: str | None = None) -> Key:
    accepts = "one of " + ", ".join(choices)

    def parse(raw):
        if raw not in choices:
            raise ValueError(f"expected {accepts}, got {raw!r}")
        return raw
    return Key(parse, accepts, default)


def _parse_eval_attacks(raw: str) -> tuple[str, ...]:
    kinds = tuple(kind.strip() for kind in raw.split(","))
    for i, kind in enumerate(kinds):
        if kind not in ATTACKS:
            raise ValueError(f"entries must be {'/'.join(ATTACKS)}, got {kind!r}")
        if kind in kinds[:i]:
            raise ValueError(f"{kind!r} is listed twice")
    return kinds


COMMANDS = ("pretrain", "finetune", "attack", "eval", "bounds", "landscape", "mi-estimate")
_COUNT, _EXTENT, _WEIGHT = "a positive integer", "an integer >= 2", "a non-negative number"

# every key outside SECTIONS; README's key table is rendered from this and SECTIONS
KEYS: dict[str, Key] = {
    "command": _one_of(*COMMANDS),
    "seed": _at_least(0, "a non-negative integer", default=0),
    "out_dir": Key(str, "a path"),
    "checkpoint": Key(str, "a path"),
    "data.source": _one_of("synth", "cifar10"),
    "data.dir": Key(str, "a path"),
    "data.split": _one_of("train", "test", default="train"),
    "data.num_classes": _at_least(2, _EXTENT),
    "data.samples_per_class": _at_least(1, _COUNT),
    "data.image_size": _at_least(2, _EXTENT),
    "data.channels": _at_least(1, _COUNT, default=1),
    "data.noise": _at_least(0.0, _WEIGHT, float),
    "train.lambda": _at_least(0.0, _WEIGHT, float, default=TrainConfig.lam),
    "eval.attacks": Key(_parse_eval_attacks, "a comma list of " + ", ".join(ATTACKS)
                        + ", each at most once", tuple(ATTACKS)),
    "eval.adaptive_iters": _at_least(1, _COUNT, default=100),
    "eval.lambda": _at_least(0.0, _WEIGHT, float, same_as="train.lambda"),
    "eval.batch_size": _at_least(1, _COUNT, default=64),
    "eval.subset": _at_least(1, _COUNT),
    "bounds.num_classes": _at_least(2, _EXTENT),
    "bounds.step": Key(_check_grid_step, "a number in (0, 0.1]"),
    "landscape.half_width": Key(_check_half_width, "a positive number"),
    "landscape.resolution": _at_least(3, "an odd integer >= 3", odd=True),
    "landscape.batch_size": _at_least(1, _COUNT, default=64),
    "mi.alpha": Key(_check_alpha, "a positive number other than 1", 2.0),
    "mi.batch_size": _at_least(2, _EXTENT, default=64),
}

# section -> the dataclass whose scalar fields are its keys, and where an unset key's value
# comes from: load_config sets the attack.* and betas defaults per command (_PER_COMMAND)
SECTIONS: dict[str, tuple[type, str]] = {
    "model": (ViTConfig, "the dataclass's"),
    "train": (TrainConfig, "the dataclass's, but betas per command"),
    "attack": (AttackSpec, "per command"),
}

# the name a dataclass check uses -> the train.* key named apart from its field
_KEY_OF = {"lam": "train.lambda", "betas[0]": "train.beta1", "betas[1]": "train.beta2"}


def _field_keys(section: str, cls) -> dict[str, object]:
    """``section.<field>`` -> its parser, for each scalar field of ``cls`` that keeps its name."""
    hints = get_type_hints(cls)
    return {f"{section}.{f.name}": _parse_bool if hints[f.name] is bool else hints[f.name]
            for f in fields(cls)
            if hints[f.name] in (bool, int, float, str) and f.name not in _KEY_OF}


# key -> parser; every accepted key appears here
KEY_TYPES: dict[str, object] = {
    **{key: spec.parse for key, spec in KEYS.items()},
    **{key: parse for section, (cls, _) in SECTIONS.items()
       for key, parse in _field_keys(section, cls).items()},
    "train.beta1": float,
    "train.beta2": float,
}

# command -> its attack.* defaults and its train.beta1, train.beta2 defaults; every other
# command attacks with PGD-20, the adaptive schedule cut to 20 steps
_PER_COMMAND = {"pretrain": (pretrain_attack_spec(), TrainConfig.betas),
                "finetune": (finetune_attack_spec(), (0.9, 0.999))}

# data.source -> the data.* keys it needs, and the optional ones it also reads; a data.* key
# that the chosen source never reads fails at load
_DATA_KEYS = {"synth": (("data.num_classes", "data.samples_per_class", "data.image_size",
                         "data.noise"), ("data.channels",)),
              "cifar10": (("data.dir",), ("data.split",))}

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

    def get(self, key: str):
        """The value of ``key`` as set, else its default; KeyError for a key outside ``KEYS``."""
        spec = KEYS[key]
        if key in self.values:
            return self.values[key]
        return self.get(spec.same_as) if spec.same_as else spec.default

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


def _validate(values: dict[str, object], lines: dict[str, int], command: str) -> None:
    required = list(REQUIRED[command])
    if command == "finetune":
        required += ["checkpoint"] if "checkpoint" in values else _MODEL_KEYS
    if "data.source" in values:
        needed, optional = _DATA_KEYS[values["data.source"]]
        for key in values:  # in line order: the overrides set no data.* key
            if key.startswith("data.") and key not in ("data.source", *needed, *optional):
                raise ConfigError(f"line {lines[key]}: data.source = {values['data.source']} "
                                  f"never reads {key!r}")
        if "data.source" in required:
            required += needed
    missing = [key for key in required if key not in values]
    if missing:
        raise ConfigError(f"missing required keys for {command}: {', '.join(sorted(missing))}")
    for key, kind, is_kind in (("checkpoint", "file", os.path.isfile),
                               ("data.dir", "directory", os.path.isdir)):
        path = str(values.get(key))
        if key in values and key in required and not is_kind(path):
            problem = f"is not a {kind}" if os.path.exists(path) else "does not exist"
            raise ConfigError(f"line {lines[key]}: {key} path {problem}: {path}")


def load_config(path, command: str | None = None, seed: int | None = None,
                out_dir: str | None = None) -> ExperimentConfig:
    """Parse, apply CLI overrides, validate, and build the command's dataclasses."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = blob.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"config {path} line {line}: "
                          f"byte 0x{blob[exc.start]:02x} is not UTF-8") from exc
    values, lines = _parse(text)
    if command is None and "command" not in values:
        raise ConfigError("no command given and the config has no 'command' key")
    for key, raw, source in (("command", command, "command"), ("seed", seed, "--seed"),
                             ("out_dir", out_dir, "--out")):
        if raw is not None:
            try:
                values[key] = KEYS[key].parse(raw)
            except ValueError as exc:
                raise ConfigError(f"{source} override: bad value for {key!r}: {exc}") from exc
    command = values["command"]
    _validate(values, lines, command)
    cfg = ExperimentConfig(command=command, values=values)
    attack, betas = _PER_COMMAND.get(command, (adaptive_attack_spec(iters=20), TrainConfig.betas))
    cfg.attack = _build(lines, "attack", replace, attack, **cfg._section("attack."))
    if command == "eval" and cfg.attack.init == "zero" and "fea" in cfg.get("eval.attacks"):
        raise ConfigError(f"line {lines['attack.init']}: attack.init = zero gives the fea attack "
                          "of eval.attacks an identically zero gradient; use random")
    if "model.image_size" in values:
        cfg.model = _build(lines, "model", ViTConfig, **cfg._section("model."))
    train = cfg._section("train.")
    if {"base_lr", "total_epochs", "batch_size"} <= train.keys():
        betas = (train.pop("beta1", betas[0]), train.pop("beta2", betas[1]))
        if "lambda" in train:
            train["lam"] = train.pop("lambda")
        cfg.train = _build(lines, "train", TrainConfig, attack=cfg.attack, betas=betas, **train)
    model = cfg.model
    if (command == "pretrain" and cfg.train.recon_masked_only
            and visible_count(model.num_patches, model.mask_ratio) == model.num_patches):
        raise ConfigError(f"line {lines['train.recon_masked_only']}: train.recon_masked_only = "
                          f"true scores only masked patches, and model.mask_ratio = "
                          f"{model.mask_ratio} masks none of the {model.num_patches}")
    return cfg


def _render(value) -> str:
    """``value`` as a config file spells it: the inverse of its key's parser."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(value)
    return str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parsing it back yields an identical structure."""
    return "\n".join(f"{key} = {_render(cfg.values[key])}" for key in sorted(cfg.values)) + "\n"
