"""Masked autoencoder on a vision transformer backbone.

The encoder sees only the visible patches of each image; the decoder fills
the masked positions with a single shared, learned mask token, restores the
original patch order, and projects back to pixels. A classification head on
mean-pooled encoder tokens serves the fine-tuning path.

All forward functions take and return autodiff tensors so both parameter
gradients (training) and input gradients (attacks) are available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

Array = np.ndarray


@dataclass(frozen=True)
class ViTConfig:
    image_size: int
    channels: int = 3
    patch_size: int = 2
    enc_layers: int = 12
    enc_dim: int = 192
    enc_heads: int = 3
    enc_mlp_ratio: int = 4
    dec_layers: int = 2
    dec_dim: int = 128
    dec_heads: int = 16
    dec_mlp_ratio: int = 4
    num_classes: int = 10
    mask_ratio: float = 0.75

    def __post_init__(self):
        if self.image_size <= 0 or self.image_size % self.patch_size != 0:
            raise ValueError(f"image_size {self.image_size} not divisible by patch_size {self.patch_size}")
        if self.enc_dim % self.enc_heads != 0:
            raise ValueError(f"enc_dim {self.enc_dim} not divisible by enc_heads {self.enc_heads}")
        if self.dec_dim % self.dec_heads != 0:
            raise ValueError(f"dec_dim {self.dec_dim} not divisible by dec_heads {self.dec_heads}")
        if self.enc_dim % 4 != 0 or self.dec_dim % 4 != 0:
            raise ValueError("embedding dims must be divisible by 4 for 2-D sin/cos position tables")
        if not 0.0 <= self.mask_ratio < 1.0:
            raise ValueError(f"mask_ratio must lie in [0, 1), got {self.mask_ratio}")
        if self.num_classes < 1:
            raise ValueError("num_classes must be at least 1")
        if min(self.channels, self.enc_layers, self.dec_layers, self.enc_heads, self.dec_heads,
               self.enc_mlp_ratio, self.dec_mlp_ratio) < 1:
            raise ValueError("all architecture extents must be at least 1")

    @property
    def grid(self) -> int:
        return self.image_size // self.patch_size

    @property
    def num_patches(self) -> int:
        return self.grid * self.grid

    @property
    def patch_dim(self) -> int:
        return self.channels * self.patch_size * self.patch_size

    @property
    def num_visible(self) -> int:
        return visible_count(self.num_patches, self.mask_ratio)


def visible_count(num_patches: int, mask_ratio: float) -> int:
    """floor(P * (1 - ratio)), never below one visible patch."""
    return max(1, int(math.floor(num_patches * (1.0 - mask_ratio))))


@dataclass
class MaskPlan:
    """Per-image permutation of patch indices; the first ``num_visible`` are kept."""

    perm: Array                 # [batch, num_patches] int64
    num_visible: int
    restore: Array = field(init=False)  # inverse permutation per image

    def __post_init__(self):
        self.perm = np.asarray(self.perm, dtype=np.int64)
        if self.perm.ndim != 2:
            raise ValueError("mask plan permutation must be [batch, num_patches]")
        n = self.perm.shape[1]
        base = np.arange(n)
        if not np.all(np.sort(self.perm, axis=1) == base):
            raise ValueError("each mask plan row must be a permutation of the patch indices")
        if not 1 <= self.num_visible <= n:
            raise ValueError(f"num_visible {self.num_visible} out of range for {n} patches")
        inv = np.empty_like(self.perm)
        rows = np.arange(self.perm.shape[0])[:, None]
        inv[rows, self.perm] = np.arange(n)[None, :]
        self.restore = inv

    @property
    def batch(self) -> int:
        return self.perm.shape[0]

    @property
    def num_patches(self) -> int:
        return self.perm.shape[1]

    @property
    def visible(self) -> Array:
        return self.perm[:, : self.num_visible]

    @property
    def masked(self) -> Array:
        return self.perm[:, self.num_visible:]

    def same_plan(self, other: "MaskPlan") -> bool:
        return (self.num_visible == other.num_visible
                and self.perm.shape == other.perm.shape
                and np.array_equal(self.perm, other.perm))


def sample_mask(num_patches: int, mask_ratio: float, rng: np.random.Generator,
                batch_size: int = 1) -> MaskPlan:
    """Uniformly random per-image permutation; deterministic given the rng state."""
    if not 0.0 <= mask_ratio < 1.0:
        raise ValueError(f"mask_ratio must lie in [0, 1), got {mask_ratio}")
    if num_patches < 1 or batch_size < 1:
        raise ValueError("num_patches and batch_size must be positive")
    perm = np.stack([rng.permutation(num_patches) for _ in range(batch_size)])
    return MaskPlan(perm=perm, num_visible=visible_count(num_patches, mask_ratio))


def full_visibility_plan(num_patches: int, batch_size: int) -> MaskPlan:
    """Identity plan with every patch visible (fine-tuning / evaluation path)."""
    perm = np.tile(np.arange(num_patches, dtype=np.int64), (batch_size, 1))
    return MaskPlan(perm=perm, num_visible=num_patches)


@dataclass
class LatentBatch:
    """Encoder output over the visible patches only."""

    z: Tensor                   # [batch, num_visible, enc_dim]
    plan: MaskPlan


@dataclass
class ModelParams:
    """All named tensors of the autoencoder and classification head.

    Position tables are fixed (requires_grad=False) sin/cos embeddings and are
    carried in the same map so checkpoints capture the full model state.
    """

    config: ViTConfig
    tensors: dict[str, Tensor]

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def trainable(self):
        return ((name, t) for name, t in self.tensors.items() if t.requires_grad)

    def zero_grads(self) -> None:
        for _, t in self.trainable():
            t.zero_grad()

    def constants(self) -> "ModelParams":
        """Constant copy of every tensor; a graph built on the copy never reaches a parameter."""
        return ModelParams(config=self.config,
                           tensors={name: Tensor(t.data) for name, t in self.tensors.items()})


def sincos_position_table(dim: int, grid: int) -> Array:
    """Fixed 2-D sin/cos table for a grid x grid patch layout, row-major.

    The first half of each row encodes the patch row index, the second half
    the column index; each half is [sin(p * w), cos(p * w)] over frequencies
    w_k = 1 / 10000^(k / (dim/4)).
    """
    if dim % 4 != 0:
        raise ValueError("position table dim must be divisible by 4")
    half = dim // 2

    def encode_1d(pos: Array) -> Array:
        freq = 1.0 / (10000.0 ** (np.arange(half // 2, dtype=np.float64) / (half // 2)))
        ang = pos[:, None] * freq[None, :]
        return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)

    coords = np.arange(grid, dtype=np.float64)
    rows = np.repeat(coords, grid)
    cols = np.tile(coords, grid)
    return np.concatenate([encode_1d(rows), encode_1d(cols)], axis=1)


def _trunc_normal(rng: np.random.Generator, shape, std: float = 0.02) -> Array:
    out = rng.normal(0.0, std, size=shape)
    while True:
        bad = np.abs(out) > 2.0 * std
        if not bad.any():
            return out
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))


def _block_params(rng: np.random.Generator, tensors: dict[str, Tensor],
                  prefix: str, dim: int, mlp_ratio: int) -> None:
    hidden = dim * mlp_ratio
    tensors[f"{prefix}.ln1.gamma"] = Tensor(np.ones(dim), requires_grad=True)
    tensors[f"{prefix}.ln1.beta"] = Tensor(np.zeros(dim), requires_grad=True)
    # no key bias: softmax is invariant to a constant shift of the attention
    # logits, so a key bias would be a dead parameter
    for name in ("wq", "wk", "wv", "wo"):
        tensors[f"{prefix}.attn.{name}"] = Tensor(_trunc_normal(rng, (dim, dim)), requires_grad=True)
        if name != "wk":
            tensors[f"{prefix}.attn.b{name[1]}"] = Tensor(np.zeros(dim), requires_grad=True)
    tensors[f"{prefix}.ln2.gamma"] = Tensor(np.ones(dim), requires_grad=True)
    tensors[f"{prefix}.ln2.beta"] = Tensor(np.zeros(dim), requires_grad=True)
    tensors[f"{prefix}.mlp.w1"] = Tensor(_trunc_normal(rng, (dim, hidden)), requires_grad=True)
    tensors[f"{prefix}.mlp.b1"] = Tensor(np.zeros(hidden), requires_grad=True)
    tensors[f"{prefix}.mlp.w2"] = Tensor(_trunc_normal(rng, (hidden, dim)), requires_grad=True)
    tensors[f"{prefix}.mlp.b2"] = Tensor(np.zeros(dim), requires_grad=True)


def init_params(config: ViTConfig, rng: np.random.Generator) -> ModelParams:
    """Truncated-normal (std 0.02) weights, zero biases and head, fixed position tables."""
    t: dict[str, Tensor] = {}
    t["patch_embed.weight"] = Tensor(_trunc_normal(rng, (config.patch_dim, config.enc_dim)), requires_grad=True)
    t["patch_embed.bias"] = Tensor(np.zeros(config.enc_dim), requires_grad=True)
    t["enc_pos"] = Tensor(sincos_position_table(config.enc_dim, config.grid))
    for i in range(config.enc_layers):
        _block_params(rng, t, f"enc.{i}", config.enc_dim, config.enc_mlp_ratio)
    t["enc_norm.gamma"] = Tensor(np.ones(config.enc_dim), requires_grad=True)
    t["enc_norm.beta"] = Tensor(np.zeros(config.enc_dim), requires_grad=True)
    t["dec_embed.weight"] = Tensor(_trunc_normal(rng, (config.enc_dim, config.dec_dim)), requires_grad=True)
    t["dec_embed.bias"] = Tensor(np.zeros(config.dec_dim), requires_grad=True)
    t["mask_token"] = Tensor(_trunc_normal(rng, (config.dec_dim,)), requires_grad=True)
    t["dec_pos"] = Tensor(sincos_position_table(config.dec_dim, config.grid))
    for i in range(config.dec_layers):
        _block_params(rng, t, f"dec.{i}", config.dec_dim, config.dec_mlp_ratio)
    t["dec_norm.gamma"] = Tensor(np.ones(config.dec_dim), requires_grad=True)
    t["dec_norm.beta"] = Tensor(np.zeros(config.dec_dim), requires_grad=True)
    t["dec_out.weight"] = Tensor(_trunc_normal(rng, (config.dec_dim, config.patch_dim)), requires_grad=True)
    t["dec_out.bias"] = Tensor(np.zeros(config.patch_dim), requires_grad=True)
    t["head.weight"] = Tensor(np.zeros((config.enc_dim, config.num_classes)), requires_grad=True)
    t["head.bias"] = Tensor(np.zeros(config.num_classes), requires_grad=True)
    return ModelParams(config=config, tensors=t)


# ---------------------------------------------------------------------------
# patch geometry

def patchify(images: Tensor, patch_size: int) -> Tensor:
    """[B, C, H, W] -> [B, (H/p)^2, C p^2] non-overlapping patches, row-major."""
    if images.ndim != 4:
        raise ValueError(f"patchify: expected [B, C, H, W], got {images.shape}")
    b, c, h, w = images.shape
    if h != w:
        raise ValueError(f"patchify: images must be square, got {h}x{w}")
    if h % patch_size != 0:
        raise ValueError(f"patchify: image size {h} not divisible by patch size {patch_size}")
    g = h // patch_size
    x = ad.reshape(images, (b, c, g, patch_size, g, patch_size))
    x = ad.transpose(x, (0, 2, 4, 1, 3, 5))
    return ad.reshape(x, (b, g * g, c * patch_size * patch_size))


def unpatchify(patches: Tensor, patch_size: int, channels: int) -> Tensor:
    """Inverse of :func:`patchify`; the round trip is bitwise exact."""
    if patches.ndim != 3:
        raise ValueError(f"unpatchify: expected [B, P, D], got {patches.shape}")
    b, p, d = patches.shape
    g = int(round(math.sqrt(p)))
    if g * g != p:
        raise ValueError(f"unpatchify: {p} patches do not form a square grid")
    if d != channels * patch_size * patch_size:
        raise ValueError(f"unpatchify: patch dim {d} does not match C p^2")
    x = ad.reshape(patches, (b, g, g, channels, patch_size, patch_size))
    x = ad.transpose(x, (0, 3, 1, 4, 2, 5))
    return ad.reshape(x, (b, channels, g * patch_size, g * patch_size))


def _pixel_mask(plan: MaskPlan, config: ViTConfig) -> Array:
    """Boolean [B, C, H, W] mask that is True on pixels of masked patches."""
    flags = np.zeros((plan.batch, plan.num_patches, config.patch_dim))
    rows = np.arange(plan.batch)[:, None]
    flags[rows, plan.masked] = 1.0
    as_pixels = unpatchify(Tensor(flags), config.patch_size, config.channels)
    return as_pixels.data > 0.5


# ---------------------------------------------------------------------------
# transformer forward

def _attention(params: ModelParams, prefix: str, x: Tensor, heads: int) -> Tensor:
    b, n, dim = x.shape
    hd = dim // heads
    scl = 1.0 / math.sqrt(hd)

    def proj(name: str) -> Tensor:
        y = ad.matmul(x, params[f"{prefix}.attn.{name}"])
        if name != "wk":
            y = ad.add(y, params[f"{prefix}.attn.b{name[1]}"])
        return ad.transpose(ad.reshape(y, (b, n, heads, hd)), (0, 2, 1, 3))

    q, k, v = proj("wq"), proj("wk"), proj("wv")
    att = ad.softmax(ad.scale(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), scl), axis=-1)
    mixed = ad.reshape(ad.transpose(ad.matmul(att, v), (0, 2, 1, 3)), (b, n, dim))
    return ad.add(ad.matmul(mixed, params[f"{prefix}.attn.wo"]), params[f"{prefix}.attn.bo"])


def _mlp(params: ModelParams, prefix: str, x: Tensor) -> Tensor:
    h = ad.gelu(ad.add(ad.matmul(x, params[f"{prefix}.mlp.w1"]), params[f"{prefix}.mlp.b1"]))
    return ad.add(ad.matmul(h, params[f"{prefix}.mlp.w2"]), params[f"{prefix}.mlp.b2"])


def _block(params: ModelParams, prefix: str, x: Tensor, heads: int) -> Tensor:
    h = ad.layer_norm(x, params[f"{prefix}.ln1.gamma"], params[f"{prefix}.ln1.beta"])
    x = ad.add(x, _attention(params, prefix, h, heads))
    h = ad.layer_norm(x, params[f"{prefix}.ln2.gamma"], params[f"{prefix}.ln2.beta"])
    return ad.add(x, _mlp(params, prefix, x=h))


def encode(params: ModelParams, patches: Tensor, plan: MaskPlan) -> LatentBatch:
    """Embed and transform only the visible patches; mask tokens never appear here."""
    cfg = params.config
    if patches.ndim != 3 or patches.shape[2] != cfg.patch_dim:
        raise ValueError(f"encode: expected [B, P, {cfg.patch_dim}], got {patches.shape}")
    if plan.num_patches != patches.shape[1]:
        raise ValueError(f"encode: plan covers {plan.num_patches} patches, input has {patches.shape[1]}")
    if plan.batch != patches.shape[0]:
        raise ValueError(f"encode: plan batch {plan.batch} != input batch {patches.shape[0]}")
    vis = ad.gather_rows(patches, plan.visible)
    x = ad.add(ad.matmul(vis, params["patch_embed.weight"]), params["patch_embed.bias"])
    pos = Tensor(params["enc_pos"].data[plan.visible])
    x = ad.add(x, pos)
    for i in range(cfg.enc_layers):
        x = _block(params, f"enc.{i}", x, cfg.enc_heads)
    x = ad.layer_norm(x, params["enc_norm.gamma"], params["enc_norm.beta"])
    return LatentBatch(z=x, plan=plan)


def decode(params: ModelParams, latent: LatentBatch, plan: MaskPlan) -> Tensor:
    """Fill masked slots with the shared mask token, restore order, reconstruct patches."""
    cfg = params.config
    if not latent.plan.same_plan(plan):
        raise ValueError("decode: latent was produced under a different mask plan")
    z = latent.z
    if z.shape[1] != plan.num_visible:
        raise ValueError(f"decode: latent has {z.shape[1]} tokens, plan expects {plan.num_visible}")
    b = z.shape[0]
    x = ad.add(ad.matmul(z, params["dec_embed.weight"]), params["dec_embed.bias"])
    n_masked = plan.num_patches - plan.num_visible
    if n_masked > 0:
        mask_tok = ad.expand(params["mask_token"], (b, n_masked, cfg.dec_dim))
        x = ad.concat([x, mask_tok], axis=1)
    x = ad.gather_rows(x, plan.restore)
    x = ad.add(x, Tensor(params["dec_pos"].data))
    for i in range(cfg.dec_layers):
        x = _block(params, f"dec.{i}", x, cfg.dec_heads)
    x = ad.layer_norm(x, params["dec_norm.gamma"], params["dec_norm.beta"])
    return ad.add(ad.matmul(x, params["dec_out.weight"]), params["dec_out.bias"])


def forward_autoencoder(params: ModelParams, images: Tensor, plan: MaskPlan) -> Tensor:
    """Full reconstruction path: patchify -> encode -> decode -> unpatchify."""
    cfg = params.config
    patches = patchify(images, cfg.patch_size)
    latent = encode(params, patches, plan)
    recon = decode(params, latent, plan)
    return unpatchify(recon, cfg.patch_size, cfg.channels)


def encode_full(params: ModelParams, images: Tensor) -> LatentBatch:
    """Encoder over every patch (identity plan); shared by classify and attacks."""
    plan = full_visibility_plan(params.config.num_patches, images.shape[0])
    return encode(params, patchify(images, params.config.patch_size), plan)


def _pooled_logits(params: ModelParams, z: Tensor) -> Tensor:
    """Mean-pool encoder tokens [B, N, D] and apply the linear head."""
    pooled = ad.reduce_mean(z, axes=1)
    return ad.add(ad.matmul(pooled, params["head.weight"]), params["head.bias"])


def classify(params: ModelParams, images: Tensor) -> Tensor:
    """Mean-pool the full-visibility encoder tokens and apply the linear head."""
    return _pooled_logits(params, encode_full(params, images).z)
