"""Trainable encoders and their checkpoint format.

The video encoder maps a stack of frame features to a unit vector: shared
per-frame affine + tanh, mean over frames, affine projection, L2 normalize.
The temporal mean makes the embedding invariant to frame order. The label
projector (joint method only) is a single affine + L2 normalize from the
frozen label-embedding space into the video embedding space.

Methods:
  VE  video-only; no label path.
  WE  video mapped straight into the label space (embed_dim == label_dim,
      no projector); label supports are used raw.
  JE  both modalities mapped into a shared space via the projector.

Both encoders run on numcore's affine and row-normalize kernels, forward and
backward. block_shapes(config) is the one definition of the parameter
layout. A model holds its parameters in one float64 vector `params` and
their gradients in one vector `grads`, each block's weights (row-major) then
bias in that order; every ParamBlock's four arrays are views of those
slices, built here and nowhere else. Backward passes accumulate into the
blocks' gradient views; the optimizer steps and zeroes the whole vectors.
A pass computes each frame-sized result in place, into one array the call
owns, with the operations and operand order (so the bits) of plain numpy.
Checkpoints round-trip bit-exactly (OSM1, float64 little-endian).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ContainerReader, pack_u32, write_container
from .errors import ConfigError, DimensionError, FormatError, MethodError
from .numcore import (
    ParamBlock,
    affine_backward,
    affine_forward,
    l2_normalize_rows,
    l2_normalize_rows_backward,
)

METHOD_VE = "VE"
METHOD_WE = "WE"
METHOD_JE = "JE"
METHODS = (METHOD_VE, METHOD_WE, METHOD_JE)

_MAGIC = b"OSM1"
_METHOD_TAGS = {METHOD_VE: 0, METHOD_WE: 1, METHOD_JE: 2}
_TAG_METHODS = {tag: m for m, tag in _METHOD_TAGS.items()}


@dataclass(frozen=True)
class ModelConfig:
    method: str
    input_dim: int
    hidden_dim: int = 64
    embed_dim: int = 32
    label_dim: int = 32

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if min(self.input_dim, self.hidden_dim, self.embed_dim, self.label_dim) < 1:
            raise ConfigError("model dims must be positive")
        if self.method == METHOD_WE and self.embed_dim != self.label_dim:
            raise ConfigError(
                f"WE embeds directly into the label space: embed_dim "
                f"{self.embed_dim} must equal label_dim {self.label_dim}"
            )


@dataclass
class VideoForwardCache:
    """Intermediates of embed_video_batch needed for the backward pass.
    unit is the returned embedding array itself, so callers must not modify
    it before the backward pass."""

    flat_frames: np.ndarray
    activations: np.ndarray
    pooled: np.ndarray
    unit: np.ndarray
    norms: np.ndarray
    n_frames: int


@dataclass
class LabelForwardCache:
    inputs: np.ndarray
    unit: np.ndarray
    norms: np.ndarray


def block_shapes(config: ModelConfig) -> list[tuple[str, int, int]]:
    """The parameter layout: each block's (name, fan_in, fan_out) in the
    order its weights (row-major) and then its bias sit in a model's flat
    vectors: frame layer, output layer, then the projector for JE alone."""
    shapes = [("frame_layer", config.input_dim, config.hidden_dim),
              ("out_layer", config.hidden_dim, config.embed_dim)]
    if config.method == METHOD_JE:
        shapes.append(("label_projector", config.label_dim, config.embed_dim))
    return shapes


class EmbeddingModel:
    """Parameter container plus forward/backward for both encoders. It takes
    ownership of `params`, the flat float64 vector laid out by
    block_shapes(config), allocates zeroed `grads` beside it, and views
    both as one ParamBlock per block."""

    def __init__(self, config: ModelConfig, params: np.ndarray):
        self.config = config
        self.params = params
        self.grads = np.zeros_like(params)
        self.label_projector = None
        start = 0
        for name, fan_in, fan_out in block_shapes(config):
            mid, end = start + fan_in * fan_out, start + (fan_in + 1) * fan_out
            w, gw = (v[start:mid].reshape(fan_in, fan_out) for v in (params, self.grads))
            setattr(self, name, ParamBlock(name, w, params[mid:end], gw, self.grads[mid:end]))
            start = end

    @property
    def method(self) -> str:
        return self.config.method

    def blocks(self) -> list[ParamBlock]:
        return [getattr(self, name) for name, _, _ in block_shapes(self.config)]

    def zero_grad(self) -> None:
        self.grads.fill(0.0)

    def copy(self) -> "EmbeddingModel":
        """A new model holding the current parameters, with zeroed gradients."""
        return EmbeddingModel(self.config, self.params.copy())

    # --- video path ---

    def embed_video_batch(
        self, frames: np.ndarray
    ) -> tuple[np.ndarray, VideoForwardCache]:
        """(B, F, input_dim) -> (B, embed_dim) unit rows plus backward cache."""
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim != 3:
            raise DimensionError("embed_video_batch: expected (B, F, D) input")
        b, f, d_in = frames.shape
        flat = frames.reshape(b * f, d_in)
        act = affine_forward(flat, self.frame_layer)
        np.tanh(act, out=act)
        pooled = np.add.reduce(act.reshape(b, f, self.config.hidden_dim), axis=1)
        pooled /= f  # np.mean's own two steps: the sum, then the division by the count
        pre = affine_forward(pooled, self.out_layer)
        out, norms = l2_normalize_rows(pre)
        cache = VideoForwardCache(
            flat_frames=flat, activations=act, pooled=pooled, unit=out, norms=norms, n_frames=f
        )
        return out, cache

    def backward_video_batch(self, cache: VideoForwardCache, grad_out: np.ndarray) -> None:
        """Accumulate parameter gradients for a prior embed_video_batch call."""
        g_pre = l2_normalize_rows_backward(cache.unit, cache.norms, grad_out)
        affine_backward(cache.pooled, self.out_layer, g_pre)
        g_pooled = g_pre @ self.out_layer.weights.T
        f = cache.n_frames
        # each frame's (1 - act**2) times its video's g_pooled / f, in one array
        g = np.square(cache.activations).reshape(len(g_pooled), f, self.config.hidden_dim)
        np.subtract(1.0, g, out=g)
        g *= (g_pooled / f)[:, None]
        affine_backward(cache.flat_frames, self.frame_layer, g.reshape(cache.activations.shape))

    # --- label path ---

    def embed_label_batch(
        self, label_embeddings: np.ndarray
    ) -> tuple[np.ndarray, LabelForwardCache]:
        """(C, label_dim) -> (C, embed_dim) unit rows through the projector."""
        if self.method != METHOD_JE:
            raise MethodError(f"{self.method} model has no label projector")
        x = np.asarray(label_embeddings, dtype=np.float64)
        pre = affine_forward(x, self.label_projector)
        out, norms = l2_normalize_rows(pre)
        return out, LabelForwardCache(inputs=x, unit=out, norms=norms)

    def backward_label_batch(self, cache: LabelForwardCache, grad_out: np.ndarray) -> None:
        g_pre = l2_normalize_rows_backward(cache.unit, cache.norms, grad_out)
        affine_backward(cache.inputs, self.label_projector, g_pre)


def init_model(config: ModelConfig, seed: int) -> EmbeddingModel:
    """Normal init scaled by 1/sqrt(fan_in), deterministic per seed.

    Each block's weights and then its bias are drawn in block_shapes order,
    straight into the flat vector, so the same seed gives bit-identical
    parameters.
    """
    rng = np.random.default_rng(seed)
    size = sum((fan_in + 1) * fan_out for _, fan_in, fan_out in block_shapes(config))
    net = EmbeddingModel(config, np.empty(size))
    for blk in net.blocks():
        scale = 1.0 / np.sqrt(blk.weights.shape[0])  # 1/sqrt(fan_in)
        for values in (blk.weights, blk.bias):
            rng.standard_normal(out=values)
            values *= scale
    return net


# --- checkpoint IO ---


def save_checkpoint(path: str, model: EmbeddingModel) -> None:
    """OSM1: header (magic, version, method tag, dims, block count), then
    each block as name, shape, float64 little-endian weights and bias."""
    cfg = model.config
    blocks = model.blocks()
    payload = []
    for blk in blocks:
        name = blk.name.encode("utf-8")
        payload += [pack_u32(len(name)), name]
        payload += [pack_u32(*blk.weights.shape), blk.weights.astype("<f8").tobytes()]
        payload += [pack_u32(len(blk.bias)), blk.bias.astype("<f8").tobytes()]
    # the header's dims in ModelConfig's field order
    dims = (cfg.input_dim, cfg.hidden_dim, cfg.embed_dim, cfg.label_dim)
    write_container(path, _MAGIC, (_METHOD_TAGS[cfg.method], *dims, len(blocks)), payload)


def load_checkpoint(path: str) -> EmbeddingModel:
    """Read an OSM1 file. The header must make a valid ModelConfig, and the
    blocks follow in the block_shapes order save_checkpoint writes: each
    one's name and shape are checked against the header before its values
    are read, and non-finite values refused; every request is checked
    against the file's size."""
    with ContainerReader(path, _MAGIC, 6) as reader:
        tag, *dims, n_blocks = reader.header
        if tag not in _TAG_METHODS:
            raise FormatError(f"{path}: unknown method tag {tag}")
        try:
            config = ModelConfig(_TAG_METHODS[tag], *dims)
        except ConfigError as exc:
            raise FormatError(f"{path}: {exc}") from exc
        shapes = block_shapes(config)
        if n_blocks != len(shapes):
            raise FormatError(
                f"{path}: {n_blocks} blocks; a {config.method} model has {len(shapes)}")
        parts = []
        for name, fan_in, fan_out in shapes:
            (name_len,) = reader.take_u32(1)
            if (found := bytes(reader.take(name_len))) != name.encode():
                raise FormatError(f"{path}: block {found!r} where {name!r} belongs")
            if (shape := reader.take_u32(2)) != (fan_in, fan_out):
                raise FormatError(f"{path}: block {name!r} is {shape[0]}x{shape[1]}; "
                                  f"the header's dims make it {fan_in}x{fan_out}")
            weights = np.frombuffer(reader.take(fan_in * fan_out * 8), dtype="<f8")
            if (bias_len := reader.take_u32(1)[0]) != fan_out:
                raise FormatError(f"{path}: block {name!r} has bias {bias_len}; "
                                  f"the header's dims make it {fan_out}")
            bias = np.frombuffer(reader.take(fan_out * 8), dtype="<f8")
            if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
                raise FormatError(f"{path}: block {name!r} has non-finite parameters")
            parts += [weights, bias]
        reader.end()
    return EmbeddingModel(config, np.concatenate(parts, dtype=np.float64))
