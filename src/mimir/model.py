"""Masked autoencoder on a vision transformer backbone.

The encoder sees only the visible patches of each image; the decoder fills
the masked positions with a single shared, learned mask token, restores the
original patch order, and projects back to pixels. A classification head on
mean-pooled encoder tokens serves the fine-tuning path.

All forward functions take and return autodiff tensors so both parameter
gradients (training) and input gradients (attacks) are available.

A pass whose batch holds more than one ``_forward_chunk`` runs in image
shares through ``autodiff.shards`` (see ``_split_pass``), on live and on
constant parameters alike. A forward-only ``encode_full`` (neither the
images nor any parameter requires gradients: ``eval``'s and
``landscape``'s classifier passes, ``mi-estimate``, ``attack_fea``'s clean
latents and ``pgd``'s last-iterate score) also runs each share's images in
consecutive chunks whose widest activation fits ``FORWARD_CHUNK_BYTES``,
so it holds one chunk's activations at a time, which bounds its peak RSS.
Every encoder and decoder op works per image (batched GEMMs are per-image
calls, layer norm and softmax are per row, gathers and scatters index
within a row) and reads nothing but its operands, which is what ``shards``
needs for every value and gradient to be the bits of one pass over the
batch, wherever a share or a chunk begins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

Array = np.ndarray

# Working-set budget of one forward-only encoder chunk; 1 MiB gives 5 mid32 and 64 tiny16
# images. The chunks bound peak RSS and move no bit: on a 2-core VM at one BLAS thread,
# 6-s mi-estimate-mid32 processes peaked at 96.7-97.2 MB with them and at 118.4-129.0 MB
# without (4 of each, alternating, seeds 1-4).
FORWARD_CHUNK_BYTES = 1 << 20


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
        for extent in fields(self):
            value = getattr(self, extent.name)
            if extent.name != "mask_ratio" and (type(value) is not int or value < 1):
                raise ValueError(f"{extent.name} must be a positive integer, got {value}")
        if self.image_size % self.patch_size != 0:
            raise ValueError(f"image_size {self.image_size} not divisible by patch_size {self.patch_size}")
        if self.enc_dim % self.enc_heads != 0:
            raise ValueError(f"enc_dim {self.enc_dim} not divisible by enc_heads {self.enc_heads}")
        if self.dec_dim % self.dec_heads != 0:
            raise ValueError(f"dec_dim {self.dec_dim} not divisible by dec_heads {self.dec_heads}")
        for name in ("enc_dim", "dec_dim"):
            if getattr(self, name) % 4 != 0:
                raise ValueError(f"{name} {getattr(self, name)} not divisible by 4, "
                                 "as the 2-D sin/cos position tables need")
        if not 0.0 <= self.mask_ratio < 1.0:
            raise ValueError(f"mask_ratio must lie in [0, 1), got {self.mask_ratio}")

    @property
    def grid(self) -> int:
        return self.image_size // self.patch_size

    @property
    def num_patches(self) -> int:
        return self.grid * self.grid

    @property
    def patch_dim(self) -> int:
        return self.channels * self.patch_size * self.patch_size


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

    def rows(self, rows: slice) -> "MaskPlan":
        """The plan of the images ``rows`` selects."""
        return MaskPlan(perm=self.perm[rows], num_visible=self.num_visible)


def sample_mask(num_patches: int, mask_ratio: float, rng: np.random.Generator,
                batch_size: int = 1) -> MaskPlan:
    """Uniformly random per-image permutation; deterministic given the rng state."""
    if not 0.0 <= mask_ratio < 1.0:
        raise ValueError(f"mask_ratio must lie in [0, 1), got {mask_ratio}")
    if num_patches < 1 or batch_size < 1:
        raise ValueError("num_patches and batch_size must be positive")
    perm = np.stack([rng.permutation(num_patches) for _ in range(batch_size)])
    return MaskPlan(perm=perm, num_visible=visible_count(num_patches, mask_ratio))


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
        """Every tensor as a constant leaf over a read-only view of its array, with no copy.

        A graph built on the views never reaches a parameter, and an in-place
        write into one raises ``ValueError``.
        """
        return ModelParams(config=self.config,
                           tensors={name: ad._result(_read_only(t.data), "constant", (), check=False)
                                    for name, t in self.tensors.items()})


def _read_only(data: Array) -> Array:
    view = data.view()
    view.flags.writeable = False
    return view


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


def _block_specs(specs: dict[str, tuple[tuple[int, ...], str]], prefix: str, dim: int,
                 mlp_ratio: int) -> None:
    hidden = dim * mlp_ratio
    specs[f"{prefix}.ln1.gamma"] = ((dim,), "ones")
    specs[f"{prefix}.ln1.beta"] = ((dim,), "zeros")
    # no key bias: softmax is invariant to a constant shift of the attention
    # logits, so a key bias would be a dead parameter
    for name in ("wq", "wk", "wv", "wo"):
        specs[f"{prefix}.attn.{name}"] = ((dim, dim), "normal")
        if name != "wk":
            specs[f"{prefix}.attn.b{name[1]}"] = ((dim,), "zeros")
    specs[f"{prefix}.ln2.gamma"] = ((dim,), "ones")
    specs[f"{prefix}.ln2.beta"] = ((dim,), "zeros")
    specs[f"{prefix}.mlp.w1"] = ((dim, hidden), "normal")
    specs[f"{prefix}.mlp.b1"] = ((hidden,), "zeros")
    specs[f"{prefix}.mlp.w2"] = ((hidden, dim), "normal")
    specs[f"{prefix}.mlp.b2"] = ((dim,), "zeros")


def param_specs(config: ViTConfig) -> dict[str, tuple[tuple[int, ...], str]]:
    """Name -> (shape, init) of every model tensor, in the order ``init_params`` draws them.

    ``init`` is ``normal`` (truncated normal), ``ones``, ``zeros`` or ``sincos``
    (the fixed position table, the only tensor without gradients).
    """
    enc, dec = config.enc_dim, config.dec_dim
    specs: dict[str, tuple[tuple[int, ...], str]] = {
        "patch_embed.weight": ((config.patch_dim, enc), "normal"),
        "patch_embed.bias": ((enc,), "zeros"),
        "enc_pos": ((config.num_patches, enc), "sincos"),
    }
    for i in range(config.enc_layers):
        _block_specs(specs, f"enc.{i}", enc, config.enc_mlp_ratio)
    specs["enc_norm.gamma"] = ((enc,), "ones")
    specs["enc_norm.beta"] = ((enc,), "zeros")
    specs["dec_embed.weight"] = ((enc, dec), "normal")
    specs["dec_embed.bias"] = ((dec,), "zeros")
    specs["mask_token"] = ((dec,), "normal")
    specs["dec_pos"] = ((config.num_patches, dec), "sincos")
    for i in range(config.dec_layers):
        _block_specs(specs, f"dec.{i}", dec, config.dec_mlp_ratio)
    specs["dec_norm.gamma"] = ((dec,), "ones")
    specs["dec_norm.beta"] = ((dec,), "zeros")
    specs["dec_out.weight"] = ((dec, config.patch_dim), "normal")
    specs["dec_out.bias"] = ((config.patch_dim,), "zeros")
    specs["head.weight"] = ((enc, config.num_classes), "zeros")
    specs["head.bias"] = ((config.num_classes,), "zeros")
    return specs


def init_params(config: ViTConfig, rng: np.random.Generator) -> ModelParams:
    """Truncated-normal (std 0.02) weights, zero biases and head, fixed position tables."""
    tensors: dict[str, Tensor] = {}
    for name, (shape, init) in param_specs(config).items():
        if init == "sincos":
            tensors[name] = Tensor(sincos_position_table(shape[1], config.grid))
        elif init == "normal":
            tensors[name] = Tensor(_trunc_normal(rng, shape), requires_grad=True)
        else:
            tensors[name] = Tensor(np.ones(shape) if init == "ones" else np.zeros(shape),
                                   requires_grad=True)
    return ModelParams(config=config, tensors=tensors)


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
    b, c, g, p = plan.batch, config.channels, config.grid, config.patch_size
    flags = np.zeros((b, plan.num_patches), dtype=bool)
    flags[np.arange(b)[:, None], plan.masked] = True
    as_pixels = np.broadcast_to(flags.reshape(b, 1, g, 1, g, 1), (b, c, g, p, g, p))
    return as_pixels.reshape(b, c, g * p, g * p)


# ---------------------------------------------------------------------------
# transformer forward

def _attention(params: ModelParams, prefix: str, x: Tensor, heads: int) -> Tensor:
    name = f"{prefix}.attn."
    q = ad.linear(x, params[name + "wq"], params[name + "bq"])
    k = ad.linear(x, params[name + "wk"])
    v = ad.linear(x, params[name + "wv"], params[name + "bv"])
    return ad.linear(ad.attention(q, k, v, heads), params[name + "wo"], params[name + "bo"])


def _mlp(params: ModelParams, prefix: str, x: Tensor) -> Tensor:
    h = ad.gelu(ad.linear(x, params[f"{prefix}.mlp.w1"], params[f"{prefix}.mlp.b1"]))
    return ad.linear(h, params[f"{prefix}.mlp.w2"], params[f"{prefix}.mlp.b2"])


def _block(params: ModelParams, prefix: str, x: Tensor, heads: int) -> Tensor:
    h = ad.layer_norm(x, params[f"{prefix}.ln1.gamma"], params[f"{prefix}.ln1.beta"])
    x = ad.add(x, _attention(params, prefix, h, heads))
    h = ad.layer_norm(x, params[f"{prefix}.ln2.gamma"], params[f"{prefix}.ln2.beta"])
    return ad.add(x, _mlp(params, prefix, x=h))


def _check_patches(cfg: ViTConfig, patches: Tensor) -> None:
    if patches.ndim != 3 or patches.shape[2] != cfg.patch_dim:
        raise ValueError(f"encode: expected [B, P, {cfg.patch_dim}], got {patches.shape}")


def _encoder(params: ModelParams, tokens: Tensor, pos: Tensor) -> Tensor:
    """Embed patch tokens, add their position rows and run the encoder blocks."""
    cfg = params.config
    x = ad.linear(tokens, params["patch_embed.weight"], params["patch_embed.bias"])
    x = ad.add(x, pos)
    for i in range(cfg.enc_layers):
        x = _block(params, f"enc.{i}", x, cfg.enc_heads)
    return ad.layer_norm(x, params["enc_norm.gamma"], params["enc_norm.beta"])


def encode(params: ModelParams, patches: Tensor, plan: MaskPlan) -> Tensor:
    """Tokens ``[B, num_visible, enc_dim]`` of only the visible patches; mask tokens never
    appear here."""
    _check_patches(params.config, patches)
    if plan.num_patches != patches.shape[1]:
        raise ValueError(f"encode: plan covers {plan.num_patches} patches, input has {patches.shape[1]}")
    if plan.batch != patches.shape[0]:
        raise ValueError(f"encode: plan batch {plan.batch} != input batch {patches.shape[0]}")
    vis = ad.gather_rows(patches, plan.visible)
    pos = Tensor(params["enc_pos"].data[plan.visible])
    return _encoder(params, vis, pos)


def decode(params: ModelParams, z: Tensor, plan: MaskPlan) -> Tensor:
    """Fill ``plan``'s masked slots of the tokens ``z`` with the mask token, restore order,
    rebuild patches."""
    cfg = params.config
    if z.shape[1] != plan.num_visible:
        raise ValueError(f"decode: latent has {z.shape[1]} tokens, plan expects {plan.num_visible}")
    b = z.shape[0]
    x = ad.linear(z, params["dec_embed.weight"], params["dec_embed.bias"])
    n_masked = plan.num_patches - plan.num_visible
    if n_masked > 0:
        mask_tok = ad.expand(params["mask_token"], (b, n_masked, cfg.dec_dim))
        x = ad.concat([x, mask_tok], axis=1)
    x = ad.gather_rows(x, plan.restore)
    x = ad.add(x, Tensor(params["dec_pos"].data))
    for i in range(cfg.dec_layers):
        x = _block(params, f"dec.{i}", x, cfg.dec_heads)
    x = ad.layer_norm(x, params["dec_norm.gamma"], params["dec_norm.beta"])
    return ad.linear(x, params["dec_out.weight"], params["dec_out.bias"])


def _encode_decode(params: ModelParams, patches: Tensor, plan: MaskPlan) -> tuple[Tensor, Tensor]:
    z = encode(params, patches, plan)
    return z, decode(params, z, plan)


def autoencoder_pass(params: ModelParams, images: Tensor, plan: MaskPlan) -> tuple[Tensor, Tensor]:
    """patchify -> encode -> decode: encoder tokens ``z`` and reconstructed patches ``recon``.

    Encode and decode run in image shares (see ``_split_pass``), each share
    with its rows of ``plan``; ``z`` and ``recon`` are two outputs of one
    ``shards`` node, so a loss on both walks each share once.
    """
    patches = patchify(images, params.config.patch_size)
    return _split_pass(params, patches,
                       lambda part, rows: _encode_decode(params, part, plan.rows(rows)))


def forward_autoencoder(params: ModelParams, images: Tensor, plan: MaskPlan) -> Tensor:
    """Full reconstruction path: patchify -> encode -> decode -> unpatchify."""
    cfg = params.config
    return unpatchify(autoencoder_pass(params, images, plan)[1], cfg.patch_size, cfg.channels)


def _forward_chunk(config: ViTConfig) -> int:
    """Images per forward-only encoder chunk, so its widest activation (the MLP hidden) fits."""
    widest = config.num_patches * config.enc_dim * config.enc_mlp_ratio * 8
    return max(1, FORWARD_CHUNK_BYTES // widest)


def _split_pass(params: ModelParams, x: Tensor, fn) -> tuple[Tensor, ...]:
    """``fn(x, rows)`` over a batch of images, as ``ad.shards`` takes it: once when the batch
    holds at most one forward chunk, in image shares through ``ad.shards`` otherwise."""
    if x.shape[0] <= _forward_chunk(params.config):
        return fn(x, slice(None))
    return ad.shards(fn, x)


def encode_full(params: ModelParams, images: Tensor) -> Tensor:
    """Encoder tokens ``[B, P, enc_dim]`` over every patch; shared by classify and attacks.

    No gather runs (nor its scatter backward); the tokens are bit-identical to
    ``encode``'s under the identity plan with every patch visible. The batch runs in
    shares (see ``_split_pass``), each in chunks of ``_forward_chunk`` images when
    nothing needs a gradient.
    """
    cfg = params.config
    pos = Tensor(params["enc_pos"].data)
    patches = patchify(images, cfg.patch_size)
    _check_patches(cfg, patches)
    if patches.requires_grad or next(params.trainable(), None) is not None:
        return _split_pass(params, patches, lambda part, _: (_encoder(params, part, pos),))[0]
    chunk = _forward_chunk(cfg)

    def chunks(part: Tensor, _) -> tuple[Tensor]:
        return (ad.concat([_encoder(params, Tensor(part.data[start:start + chunk]), pos)
                           for start in range(0, part.shape[0], chunk)], axis=0),)

    return _split_pass(params, patches, chunks)[0]


def _pooled_logits(params: ModelParams, z: Tensor) -> Tensor:
    """Mean-pool encoder tokens [B, N, D] and apply the linear head."""
    pooled = ad.reduce_mean(z, axes=1)
    return ad.linear(pooled, params["head.weight"], params["head.bias"])


def classify(params: ModelParams, images: Tensor) -> Tensor:
    """Mean-pool the full-visibility encoder tokens and apply the linear head."""
    return _pooled_logits(params, encode_full(params, images))
