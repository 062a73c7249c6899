"""Dense numeric substrate: affine layers, L2 normalization and Adam.

Tensors are plain 2-D float64 numpy arrays in row-major order. There is no
implicit computation graph: forward functions return outputs, backward
functions take the upstream gradient and accumulate parameter gradients
explicitly (populate -> step -> zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, DimensionError, NumericError

_ZERO_NORM_TOL = 1e-12


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Validate and convert to a 2-D float64 array; reject non-finite entries."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"{name}: expected 2-D array, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{name}: contains non-finite values")
    return np.ascontiguousarray(arr)


@dataclass
class ParamBlock:
    """One affine layer's parameters and their gradient accumulators.

    `weights` has shape (fan_in, fan_out); `bias` has shape (fan_out,).
    Gradient arrays always mirror the parameter shapes.
    """

    name: str
    weights: np.ndarray
    bias: np.ndarray
    grad_weights: np.ndarray = field(default=None)  # type: ignore[assignment]
    grad_bias: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.weights = as_matrix(self.weights, f"{self.name}.weights")
        self.bias = np.ascontiguousarray(np.asarray(self.bias, dtype=np.float64))
        if self.bias.ndim != 1:
            raise DimensionError(f"{self.name}.bias: expected 1-D array")
        if self.bias.shape[0] != self.weights.shape[1]:
            raise DimensionError(
                f"{self.name}: bias length {self.bias.shape[0]} != fan_out "
                f"{self.weights.shape[1]}"
            )
        if self.grad_weights is None:
            self.grad_weights = np.zeros_like(self.weights)
        if self.grad_bias is None:
            self.grad_bias = np.zeros_like(self.bias)
        if self.grad_weights.shape != self.weights.shape:
            raise DimensionError(f"{self.name}: grad_weights shape mismatch")
        if self.grad_bias.shape != self.bias.shape:
            raise DimensionError(f"{self.name}: grad_bias shape mismatch")

    @property
    def fan_in(self) -> int:
        return self.weights.shape[0]

    @property
    def fan_out(self) -> int:
        return self.weights.shape[1]

    def zero_grad(self) -> None:
        self.grad_weights.fill(0.0)
        self.grad_bias.fill(0.0)

    def copy(self) -> "ParamBlock":
        return ParamBlock(
            name=self.name,
            weights=self.weights.copy(),
            bias=self.bias.copy(),
            grad_weights=self.grad_weights.copy(),
            grad_bias=self.grad_bias.copy(),
        )


def affine_forward(inp: np.ndarray, params: ParamBlock) -> np.ndarray:
    """Row-wise affine map: out[i] = inp[i] @ W + b."""
    inp = np.asarray(inp, dtype=np.float64)
    if inp.ndim != 2:
        raise DimensionError("affine_forward: input must be 2-D")
    if inp.shape[1] != params.fan_in:
        raise DimensionError(
            f"affine_forward: input cols {inp.shape[1]} != weights rows "
            f"{params.fan_in} ({params.name})"
        )
    return inp @ params.weights + params.bias


def affine_backward(
    inp: np.ndarray, params: ParamBlock, grad_out: np.ndarray
) -> None:
    """Accumulate parameter gradients for affine_forward. The input gradient,
    grad_out @ W.T, is left to callers that need it."""
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != (inp.shape[0], params.fan_out):
        raise DimensionError(
            f"affine_backward: grad_out shape {grad_out.shape} incompatible "
            f"with ({inp.shape[0]}, {params.fan_out})"
        )
    params.grad_weights += inp.T @ grad_out
    params.grad_bias += grad_out.sum(axis=0)


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """Scale a nonzero vector to unit Euclidean norm."""
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    # a NaN or inf entry makes the norm non-finite
    if not math.isfinite(norm):
        raise NumericError("l2_normalize: non-finite input")
    if norm < _ZERO_NORM_TOL:
        raise DegenerateInputError("l2_normalize: zero-norm input")
    return v / norm


def l2_normalize_rows(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise unit normalization of a 2-D array: (unit rows, row norms)."""
    m = np.asarray(m, dtype=np.float64)
    with np.errstate(over="ignore"):  # an overflowed norm is the NumericError below
        norms = np.linalg.norm(m, axis=1)
    if not np.isfinite(norms).all():
        raise NumericError("l2_normalize_rows: non-finite row")
    if np.any(norms < _ZERO_NORM_TOL):
        raise DegenerateInputError("l2_normalize_rows: zero-norm row")
    return m / norms[:, None], norms


def l2_normalize_rows_backward(
    unit: np.ndarray, norms: np.ndarray, grad_out: np.ndarray
) -> np.ndarray:
    """Backward pass of l2_normalize_rows from its outputs: row i of grad_out
    times (I - u u^T) / norms[i], where u = unit[i]."""
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != unit.shape:
        raise DimensionError(
            f"l2_normalize_rows_backward: grad_out shape {grad_out.shape} != {unit.shape}"
        )
    inner = (unit * grad_out).sum(axis=1, keepdims=True)
    return (grad_out - unit * inner) / norms[:, None]


@dataclass
class AdamState:
    """Adam moment estimates for one ParamBlock; moments start at zero."""

    m_weights: np.ndarray
    v_weights: np.ndarray
    m_bias: np.ndarray
    v_bias: np.ndarray
    step_count: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    @classmethod
    def for_block(cls, block: ParamBlock) -> "AdamState":
        return cls(
            m_weights=np.zeros_like(block.weights),
            v_weights=np.zeros_like(block.weights),
            m_bias=np.zeros_like(block.bias),
            v_bias=np.zeros_like(block.bias),
        )


def adam_step(params: ParamBlock, state: AdamState, lr: float) -> None:
    """One Adam update with bias correction; zeroes the gradients afterwards.

    Mutates `params` and `state` in place; not safe for concurrent writers.
    """
    if not (np.all(np.isfinite(params.grad_weights)) and np.all(np.isfinite(params.grad_bias))):
        raise NumericError(f"adam_step: non-finite gradient in {params.name}")
    t = state.step_count + 1
    b1, b2, eps = state.beta1, state.beta2, state.epsilon
    for p, g, m, v in (
        (params.weights, params.grad_weights, state.m_weights, state.v_weights),
        (params.bias, params.grad_bias, state.m_bias, state.v_bias),
    ):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
    state.step_count = t
    params.zero_grad()


def log1p_sum_exp(xs: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Row-wise stable log(1 + sum(exp(xs[i, keep[i]]))); 0 for a row keeping
    nothing. A row's kept entries are summed in column order by one 1-D
    `.sum()` of their compacted run: the bits of a 1-D array of just them,
    which a padded `sum(axis=1)` or `np.add.reduceat` would change."""
    m = np.maximum(np.where(keep, xs, -np.inf).max(axis=1, initial=-np.inf), 0.0)
    kept = np.exp((xs - m[:, None])[keep])
    ends = np.cumsum(keep.sum(axis=1)).tolist()
    sums = np.array([kept[start:end].sum() for start, end in zip([0] + ends, ends)])
    return m + np.log(np.exp(-m) + sums)
