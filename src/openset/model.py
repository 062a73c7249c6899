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
backward. Backward passes accumulate into each ParamBlock's gradient buffers;
callers zero/step via the optimizer. Checkpoints round-trip bit-exactly (OSM1,
float64 little-endian).
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


class EmbeddingModel:
    """Parameter container plus forward/backward for both encoders."""

    def __init__(
        self,
        config: ModelConfig,
        frame_layer: ParamBlock,
        out_layer: ParamBlock,
        label_projector: ParamBlock | None,
    ):
        if frame_layer.weights.shape != (config.input_dim, config.hidden_dim):
            raise DimensionError("frame_layer shape mismatch")
        if out_layer.weights.shape != (config.hidden_dim, config.embed_dim):
            raise DimensionError("out_layer shape mismatch")
        if config.method == METHOD_JE:
            if label_projector is None:
                raise ConfigError("JE model requires a label projector")
            if label_projector.weights.shape != (config.label_dim, config.embed_dim):
                raise DimensionError("label_projector shape mismatch")
        elif label_projector is not None:
            raise ConfigError(f"{config.method} model must not carry a label projector")
        self.config = config
        self.frame_layer = frame_layer
        self.out_layer = out_layer
        self.label_projector = label_projector

    @property
    def method(self) -> str:
        return self.config.method

    def blocks(self) -> list[ParamBlock]:
        out = [self.frame_layer, self.out_layer]
        if self.label_projector is not None:
            out.append(self.label_projector)
        return out

    def zero_grad(self) -> None:
        for block in self.blocks():
            block.zero_grad()

    def copy(self) -> "EmbeddingModel":
        return EmbeddingModel(
            config=self.config,
            frame_layer=self.frame_layer.copy(),
            out_layer=self.out_layer.copy(),
            label_projector=(
                None if self.label_projector is None else self.label_projector.copy()
            ),
        )

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
        act = np.tanh(affine_forward(flat, self.frame_layer))
        pooled = act.reshape(b, f, self.config.hidden_dim).mean(axis=1)
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
        g_act = np.repeat(g_pooled / f, f, axis=0)
        g_affine = g_act * (1.0 - cache.activations**2)
        affine_backward(cache.flat_frames, self.frame_layer, g_affine)

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

    Block draw order is fixed (frame layer, output layer, projector) so the
    same seed gives bit-identical parameters.
    """
    rng = np.random.default_rng(seed)

    def block(name: str, fan_in: int, fan_out: int) -> ParamBlock:
        scale = 1.0 / np.sqrt(fan_in)
        return ParamBlock(
            name=name,
            weights=rng.standard_normal((fan_in, fan_out)) * scale,
            bias=rng.standard_normal(fan_out) * scale,
        )

    frame_layer = block("frame_layer", config.input_dim, config.hidden_dim)
    out_layer = block("out_layer", config.hidden_dim, config.embed_dim)
    label_projector = None
    if config.method == METHOD_JE:
        label_projector = block("label_projector", config.label_dim, config.embed_dim)
    return EmbeddingModel(config, frame_layer, out_layer, label_projector)


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
    with ContainerReader(path, _MAGIC, 6) as reader:
        tag, *dims, n_blocks = reader.header
        if tag not in _TAG_METHODS:
            raise FormatError(f"{path}: unknown method tag {tag}")
        named: dict[str, ParamBlock] = {}
        for _ in range(n_blocks):
            (name_len,) = reader.take_u32(1)
            try:
                name = bytes(reader.take(name_len)).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"{path}: block name is not valid UTF-8") from exc
            if name in named:
                raise FormatError(f"{path}: duplicate block {name!r}")
            rows, cols = reader.take_u32(2)
            weights = np.frombuffer(reader.take(rows * cols * 8), dtype="<f8").reshape(rows, cols)
            (bias_len,) = reader.take_u32(1)
            bias = np.frombuffer(reader.take(bias_len * 8), dtype="<f8")
            if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
                raise FormatError(f"{path}: block {name!r} has non-finite parameters")
            named[name] = ParamBlock(name=name, weights=weights.copy(), bias=bias.copy())
        reader.end()
    expected = {"frame_layer", "out_layer"}
    if _TAG_METHODS[tag] == METHOD_JE:
        expected.add("label_projector")
    if set(named) != expected:
        raise FormatError(f"{path}: blocks {sorted(named)} != expected {sorted(expected)}")
    return EmbeddingModel(
        config=ModelConfig(_TAG_METHODS[tag], *dims),
        frame_layer=named["frame_layer"],
        out_layer=named["out_layer"],
        label_projector=named.get("label_projector"),
    )
