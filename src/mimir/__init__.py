"""Adversarial masked-autoencoder pre-training with a mutual-information penalty.

Submodules:
    autodiff  -- float64 tensors with reverse-mode differentiation
    model     -- patch embedding, random masking, transformer encoder/decoder
    mi        -- kernel dependence measures (HSIC, Renyi entropies) and oracles
    bounds    -- closed-form information-bottleneck bounds and curve export
    attacks   -- L-infinity PGD engine and the concrete attack objectives
    train     -- pre-training / fine-tuning loops, AdamW, checkpoints
    data      -- dataset loading and synthesis, and the CSV writer
    evaluate  -- natural/robust accuracy and loss-landscape grids
    config    -- strict flat key-value experiment configs
    cli       -- command-line entry point
    _runtime  -- heap policy, worker count and the helper threads of split passes
"""

__version__ = "0.1.0"
