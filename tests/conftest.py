import numpy as np
import pytest

from mimir.attacks import finetune_attack_spec, pretrain_attack_spec
from mimir.data import synth_dataset
from mimir.model import ViTConfig, init_params
from mimir.train import TrainConfig, TrainState, finetune_epoch, pretrain_epoch


def tiny_vit_config(**overrides) -> ViTConfig:
    base = dict(image_size=16, channels=1, patch_size=4, enc_layers=2, enc_dim=32,
                enc_heads=4, enc_mlp_ratio=4, dec_layers=1, dec_dim=16, dec_heads=4,
                dec_mlp_ratio=4, num_classes=4, mask_ratio=0.75)
    base.update(overrides)
    return ViTConfig(**base)


@pytest.fixture(scope="session")
def tiny_config():
    return tiny_vit_config()


@pytest.fixture(scope="session")
def mid32_config():
    """CIFAR-shaped (3x32x32, patch 4, width 96) with one encoder and one decoder layer.

    Its MLP hidden is 192 KiB per image, so a forward-only ``encode_full``
    runs it in chunks of 5 images; a batch of 13 covers a partial last chunk.
    """
    return ViTConfig(image_size=32, channels=3, patch_size=4, enc_layers=1, enc_dim=96,
                     enc_heads=4, enc_mlp_ratio=4, dec_layers=1, dec_dim=64, dec_heads=4,
                     dec_mlp_ratio=4, num_classes=10, mask_ratio=0.75)


@pytest.fixture(scope="session")
def tiny_dataset():
    return synth_dataset(4, 4, 16, 0.1, np.random.default_rng(11), channels=1)


@pytest.fixture(scope="session")
def trained_model(tiny_config, tiny_dataset):
    """A quickly but genuinely trained classifier for attack/eval tests."""
    params = init_params(tiny_config, np.random.default_rng(5))
    pre_cfg = TrainConfig(base_lr=2e-3, total_epochs=40, batch_size=16,
                          attack=pretrain_attack_spec(), warmup_epochs=4, lam=1e-5)
    state = TrainState.create(params, 5)
    for _ in range(40):
        pretrain_epoch(state, tiny_dataset, pre_cfg)
    ft_cfg = TrainConfig(base_lr=1e-3, total_epochs=25, batch_size=16,
                         attack=finetune_attack_spec(), warmup_epochs=2,
                         betas=(0.9, 0.999), layer_decay=0.65, lam=0.0)
    state = TrainState.create(state.params, 5)
    for _ in range(25):
        finetune_epoch(state, tiny_dataset, ft_cfg)
    return state.params
