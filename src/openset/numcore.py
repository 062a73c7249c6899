"""Dense numeric substrate: affine layers, L2 normalization, Adam, log-sum-exp.

Tensors are plain 2-D float64 numpy arrays in row-major order. There is no
implicit computation graph: forward functions return outputs, backward
functions take the upstream gradient and accumulate parameter gradients
explicitly (populate -> step -> zero). A ParamBlock is a plain record of one
layer's views into a model's flat parameter and gradient vectors; it neither
allocates nor validates. Adam updates a model's parameters as that one flat
float64 vector, so one step is one pass of elementwise operations, in one
scratch vector; kernels keep plain numpy's operations and operand order.
log1p_sum_exp sums each row of a compacted run of terms with one zero-led
`np.add.reduceat`, which keeps the bits of the row's own 1-D `.sum()`.
A row's affine_forward bits do not depend on its block: every row takes BLAS's
gemm path, never gemv's other bits (checked on numpy 2.4.6, OpenBLAS 0.3.31).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DimensionError, NumericError

_ZERO_NORM_TOL = 1e-12


@dataclass
class ParamBlock:
    """One affine layer's views into an EmbeddingModel's flat vectors:
    `weights` and `grad_weights` of shape (fan_in, fan_out), `bias` and
    `grad_bias` of shape (fan_out,)."""

    name: str
    weights: np.ndarray
    bias: np.ndarray
    grad_weights: np.ndarray
    grad_bias: np.ndarray


def affine_forward(inp: np.ndarray, params: ParamBlock) -> np.ndarray:
    """Row-wise affine map: out[i] = inp[i] @ W + b. A 1-row inp is the first row
    of itself stacked twice: gemm's bits, as in any block, not gemv's."""
    inp = np.asarray(inp, dtype=np.float64)
    if inp.ndim != 2:
        raise DimensionError("affine_forward: input must be 2-D")
    if inp.shape[1] != params.weights.shape[0]:
        raise DimensionError(
            f"affine_forward: input cols {inp.shape[1]} != weights rows "
            f"{params.weights.shape[0]} ({params.name})"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # l2_normalize_rows names a blow-up
        rows = np.concatenate((inp, inp)) if len(inp) == 1 else inp
        out = (rows @ params.weights)[:len(inp)]
        out += params.bias
    return out


def affine_backward(
    inp: np.ndarray, params: ParamBlock, grad_out: np.ndarray
) -> None:
    """Accumulate parameter gradients for affine_forward. The input gradient,
    grad_out @ W.T, is left to callers that need it."""
    grad_out = np.asarray(grad_out, dtype=np.float64)
    want = (inp.shape[0], params.weights.shape[1])
    if grad_out.shape != want:
        raise DimensionError(
            f"affine_backward: grad_out shape {grad_out.shape} incompatible with {want}"
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
        norms = np.sqrt(np.add.reduce(m * m, axis=1))  # np.linalg.norm's own axis path
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


# Adam's decay rates and denominator guard (Kingma & Ba's defaults); nothing sets them
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Adam moment estimates over a model's flat parameter vector; start at zero."""

    m: np.ndarray
    v: np.ndarray
    step_count: int = 0


def adam_step(model, state: AdamState, lr: float) -> None:
    """One Adam update with bias correction over `model.params`, then zeroes
    `model.grads`; elementwise, so each block gets the bits of its own update.
    A non-finite gradient (before anything moves) or an overflowing second
    moment or bias-corrected denominator (before `model.params` moves) is a
    NumericError naming the first block in `model.blocks()` that holds one.
    Mutates `model` and `state` in place; not safe for concurrent writers."""
    g = model.grads
    if not np.isfinite(g).all():
        raise NumericError(f"adam_step: non-finite gradient in {_bad_block(model, g)}")
    t = state.step_count + 1
    m, v = state.m, state.v
    scratch = (1.0 - BETA1) * g
    m *= BETA1
    m += scratch
    # params -= (lr * m_hat) / (sqrt(v_hat) + eps), the denominator in scratch
    with np.errstate(over="ignore"):  # an overflow is the NumericError below
        np.multiply(1.0 - BETA2, g, out=scratch)
        scratch *= g
        v *= BETA2
        v += scratch
        np.sqrt(np.divide(v, 1.0 - BETA2**t, out=scratch), out=scratch)
    if not np.isfinite(scratch).all():
        raise NumericError(f"adam_step: second moment overflows in {_bad_block(model, scratch)}")
    scratch += EPSILON
    step = m / (1.0 - BETA1**t)
    model.params -= np.divide(np.multiply(lr, step, out=step), scratch, out=step)
    state.step_count = t
    g.fill(0.0)


def _bad_block(model, flat: np.ndarray) -> str:
    """The name of the block in `model.blocks()` holding `flat`'s first non-finite entry."""
    ends = np.cumsum([b.weights.size + b.bias.size for b in model.blocks()])
    first = int(np.argmin(np.isfinite(flat)))
    return model.blocks()[int(np.searchsorted(ends, first, side="right"))].name


def log1p_sum_exp(vals: np.ndarray, rows: np.ndarray, n_rows: int) -> np.ndarray:
    """Row-wise stable log(1 + sum(exp(x))) over a compacted run of terms:
    term j is `vals[j]` in row `rows[j]`, with `rows` nondecreasing, as the
    row-major `np.flatnonzero` of a keep mask gives it; 0 for a row with no
    terms. The terms are laid out row-major with a 0.0 at the head of each
    row, so one `np.maximum.reduceat` gives every row's max(0, terms) (a max
    is exact) and one `np.add.reduceat` gives each row's sum: a segment sums
    to 0.0 plus the pairwise sum of the row's run, the bits of that run's
    1-D `.sum()` (checked on numpy 2.4.6 only). A plain `reduceat` over the
    runs, or a padded `sum(axis=1)`, would change them."""
    heads = np.searchsorted(rows, np.arange(n_rows)) + np.arange(n_rows)
    at = np.arange(len(vals)) + rows + 1
    led = np.zeros(len(vals) + n_rows)
    led[at] = vals
    m = np.maximum.reduceat(led, heads)
    led[at] = np.exp(vals - m[rows])
    return m + np.log(np.exp(-m) + np.add.reduceat(led, heads))
