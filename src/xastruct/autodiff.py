"""Reverse-mode automatic differentiation over dense float64 arrays.

Small on purpose: exactly the operations the spectra models need, nothing
generic. Every op returns a Tensor wired to its parents with a local
backward closure; backward(loss) topologically sorts that implicit tape
and accumulates gradients. A closure is handed its output's gradient and
never refers to its output tensor, so a tape holds no reference cycle and
is freed by reference counting as soon as the loss is dropped. Parameters
are leaf tensors; the AdamW moments of a training run live in one
AdamWState, whose flat buffers the parameters' values and gradients are
views of.

A step pays only for the tape it uses:
  * Gradient buffers are lazy, and every backward writes through one path,
    _accumulate: an op output gets its buffer when the first gradient
    reaches it. Reading `grad` allocates nothing; before a gradient arrives
    it gives read-only zeros. backward() skips nodes no gradient reached.
    Parameters keep an eager buffer, which zero_grad updates in place.
  * The optimizer step costs a fixed dozen-odd ufunc calls, however many
    parameters a model has: adamw_step works on AdamWState's flat buffers.
  * Inside `with no_grad():` ops compute the same values with the same
    checks but record no parents and no closure, so inference builds no
    tape. Blocks nest and restore the previous mode on exit.
  * A gated layer is one tape node: gated_linear and swiglu fuse the two
    products (dense, or factorized over an EdgeConcat as edge_linear does),
    the sigmoid or swish and the product of the branches, so a layer pays
    one node's bookkeeping and makes no first-gradient copies of its
    intermediates. Their arithmetic is bit for bit that of the composed
    primitives, which stay for tests and the gradient check.
  * An input passed as a plain array is a constant: as_tensor would wrap
    it in a leaf that no caller holds, so nobody could read its gradient.
    The dense and edge products (linear, edge_linear and the fused layers)
    skip that gradient's product; segment_sum's row weights are one too.
  * Every op output is still checked for finiteness, and so are the fused
    layers' intermediates: both pre-activations, the sigmoid or swish
    output, and the result. A check only at the loss would miss a gate
    input that overflows to inf, since the sigmoid squashes it to 1.0; the
    check costs one sum unless that sum is not finite.

All data is float64. Gradient checks against central finite differences
are the ground truth for every op here; see finite_difference_check.
"""

import base64
import contextlib
import math
from typing import NamedTuple

import numpy as np

from .jsonio import dumps, integer, list_of, read_json, real, record, write_bytes


class ShapeError(ValueError):
    pass


def _shape_error(op, *shapes):
    return ShapeError(f"{op}: incompatible shapes {' vs '.join(str(s) for s in shapes)}")


_recording = True  # False inside no_grad()


@contextlib.contextmanager
def no_grad():
    """Ops inside build no tape: outputs have no parents and no backward closure."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


def _check_finite(arr: np.ndarray) -> None:
    # inf and NaN propagate through a sum, so only a non-finite sum needs
    # the elementwise scan (finite values can still overflow the sum)
    if not math.isfinite(arr.sum()) and not np.isfinite(arr).all():
        raise ValueError("tensor entries must be finite")


class Tensor:
    """Dense array plus gradient and the links that make up the tape."""

    __slots__ = ("data", "_grad", "_parents", "_backward")

    def __init__(self, data, parents=(), backward=None):
        arr = np.asarray(data, dtype=np.float64)
        _check_finite(arr)
        self.data = arr
        self._grad = None
        self._parents = tuple(parents) if _recording else ()
        self._backward = backward if _recording else None

    @property
    def grad(self) -> np.ndarray:
        """The accumulated gradient; read-only zeros until a gradient reaches this tensor."""
        if self._grad is None:
            return np.broadcast_to(0.0, self.data.shape)
        return self._grad

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


class Parameter(Tensor):
    """Trainable leaf with an eager gradient buffer.

    An AdamWState rebinds `data` and the buffer to views of its flat arrays;
    everything else updates both in place, so the views stay bound.
    """

    __slots__ = ()

    def __init__(self, data):
        super().__init__(data)
        self._grad = np.zeros_like(self.data)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(t: Tensor, g) -> None:
    """t.grad += g, allocating t's buffer on the first gradient to reach it.

    The first gradient is copied, never stored: add hands one array to both
    parents, and reshape and segment_sum hand over views. Adding 0.0 makes
    the copy bit for bit what zeros + g gave, -0.0 turned into +0.0.
    """
    if t._grad is None:
        if g.shape != t.data.shape:
            g = np.broadcast_to(g, t.data.shape)
        t._grad = np.add(g, 0.0)
    else:
        t._grad += g


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` back down to `shape` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# --- core ops ---------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise _shape_error("add", a.shape, b.shape)

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return Tensor(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise _shape_error("mul", a.shape, b.shape)

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return Tensor(data, (a, b), backward)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise _shape_error("matmul", a.shape, b.shape)

    def backward(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return Tensor(a.data @ b.data, (a, b), backward)


def _dense_affine(x, W, b, op: str):
    """x @ W.T + b for x [d_in] or [B, d_in]: (data, parents, backward).

    backward(g) accumulates the gradients of W, x and b, in that order; x
    given as a plain array is a constant and gets none.
    """
    constant = not isinstance(x, Tensor)
    x, W = as_tensor(x), as_tensor(W)
    if W.ndim != 2 or x.shape[-1] != W.shape[1] or x.ndim not in (1, 2):
        raise _shape_error(op, x.shape, W.shape)
    data = x.data @ W.data.T
    if b is not None:
        b = as_tensor(b)
        if b.shape != (W.shape[0],):
            raise _shape_error(f"{op} bias", b.shape, (W.shape[0],))
        data += b.data

    def backward(g):
        _accumulate(W, np.outer(g, x.data) if x.ndim == 1 else g.T @ x.data)
        if not constant:
            _accumulate(x, g @ W.data)
        if b is not None:
            _accumulate(b, g if x.ndim == 1 else g.sum(axis=0))

    parents = ((W,) if constant else (x, W)) + (() if b is None else (b,))
    return data, parents, backward


def linear(x, W, b=None) -> Tensor:
    """x @ W.T + b with W stored [d_out, d_in]; x may be [d_in] or [B, d_in]."""
    return Tensor(*_dense_affine(x, W, b, "linear"))


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat of an empty sequence")
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        raise _shape_error("concat", *[t.shape for t in tensors])
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(idx)])

    return Tensor(data, tuple(tensors), backward)


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)

    def backward(g):
        _accumulate(x, g.reshape(x.shape))

    return Tensor(x.data.reshape(shape), (x,), backward)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # stable in both tails: 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z)
    # below, so exp only ever sees -|z|. With e = e^-|z| the numerator
    # e^min(z, 0) is exactly 1 or e, with no mask. Computed in place; out=
    # keeps a 0-d input an array, where a plain ufunc would return a scalar.
    e = np.abs(z, out=np.empty_like(z))
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = np.minimum(z, 0.0, out=np.empty_like(z))
    np.exp(num, out=num)
    e += 1.0
    num /= e
    return num


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    y = _sigmoid(x.data)

    def backward(g):
        dx = g * y
        dx *= 1.0 - y
        _accumulate(x, dx)

    return Tensor(y, (x,), backward)


def relu(x) -> Tensor:
    x = as_tensor(x)

    def backward(g):
        _accumulate(x, g * (x.data > 0))

    return Tensor(np.maximum(x.data, 0.0), (x,), backward)


def swish_beta(x, beta) -> Tensor:
    """x * sigmoid(beta * x) with a learnable scalar beta."""
    x, beta = as_tensor(x), as_tensor(beta)
    if beta.data.size != 1:
        raise _shape_error("swish_beta: beta must be scalar", beta.shape)
    b = float(beta.data)
    s = _sigmoid(b * x.data)

    def backward(g):
        ds = s * (1.0 - s)
        _accumulate(x, g * (s + b * x.data * ds))
        _accumulate(beta, np.sum(g * x.data * x.data * ds).reshape(beta.shape))

    return Tensor(x.data * s, (x, beta), backward)


def layer_norm(x, gain, bias, eps: float = 1e-8) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale-shift."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise _shape_error("layer_norm", x.shape, gain.shape, bias.shape)
    # the reductions np.mean and np.var run, with the deviations formed once
    xhat = x.data - x.data.sum(axis=-1, keepdims=True) / d
    var = (xhat * xhat).sum(axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std

    def backward(g):
        dxhat = g * gain.data
        _accumulate(x, inv_std * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        ))
        reduce_axes = tuple(range(g.ndim - 1))
        _accumulate(gain, (g * xhat).sum(axis=reduce_axes))
        _accumulate(bias, g.sum(axis=reduce_axes))

    return Tensor(gain.data * xhat + bias.data, (x, gain, bias), backward)


class BatchNormState:
    """Running statistics for batch_norm_1d. One instance per layer."""

    def __init__(self, n_features: int, momentum: float = 0.9, eps: float = 1e-5):
        self.running_mean = np.zeros(n_features)
        self.running_var = np.ones(n_features)
        self.momentum = momentum
        self.eps = eps


def batch_norm_1d(x, gamma, beta, state: BatchNormState, training: bool) -> Tensor:
    """Batch normalization of [B, C, L] inputs, with statistics per channel.

    Training mode normalizes by batch statistics and updates the running
    averages; eval mode uses the stored running statistics.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if x.ndim != 3 or gamma.shape != x.shape[1:2] or beta.shape != x.shape[1:2]:
        raise _shape_error("batch_norm_1d", x.shape, gamma.shape, beta.shape)
    axes, stat_shape, n_reduced = (0, 2), (1, -1, 1), x.shape[0] * x.shape[2]
    if training:
        # the reductions np.mean and np.var run, with the deviations formed once
        mean = x.data.sum(axis=axes, keepdims=True) / n_reduced
        xhat = x.data - mean
        var = (xhat * xhat).sum(axis=axes) / n_reduced
        m = state.momentum
        state.running_mean = m * state.running_mean + (1.0 - m) * mean.reshape(-1)
        state.running_var = m * state.running_var + (1.0 - m) * var
    else:
        xhat, var = x.data - state.running_mean.reshape(stat_shape), state.running_var
    inv_std = 1.0 / np.sqrt(var + state.eps)
    xhat *= inv_std.reshape(stat_shape)

    def backward(g):
        dxhat = g * gamma.data.reshape(stat_shape)
        if training:
            # gradient through the batch statistics themselves
            _accumulate(x, (inv_std.reshape(stat_shape) / n_reduced) * (
                n_reduced * dxhat
                - dxhat.sum(axis=axes, keepdims=True)
                - xhat * (dxhat * xhat).sum(axis=axes, keepdims=True)
            ))
        else:
            _accumulate(x, dxhat * inv_std.reshape(stat_shape))
        _accumulate(gamma, (g * xhat).sum(axis=axes))
        _accumulate(beta, g.sum(axis=axes))

    data = gamma.data.reshape(stat_shape) * xhat + beta.data.reshape(stat_shape)
    return Tensor(data, (x, gamma, beta), backward)


def conv1d(x, W, b) -> Tensor:
    """Same-padded 1D convolution, stride 1, odd kernel.

    x: [B, C_in, L], W: [C_out, C_in, K], b: [C_out] -> [B, C_out, L].
    """
    x, W, b = as_tensor(x), as_tensor(W), as_tensor(b)
    if x.ndim != 3 or W.ndim != 3 or x.shape[1] != W.shape[1]:
        raise _shape_error("conv1d", x.shape, W.shape)
    c_out, _, kernel = W.shape
    if kernel % 2 == 0:
        raise ShapeError(f"conv1d kernel must be odd, got {kernel}")
    if b.shape != (c_out,):
        raise _shape_error("conv1d bias", b.shape, (c_out,))
    length = x.shape[2]
    pad = kernel // 2
    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad)))
    data = np.zeros((x.shape[0], c_out, length))
    for t in range(kernel):
        data += np.einsum("bcl,oc->bol", xp[:, :, t : t + length], W.data[:, :, t])
    data += b.data.reshape(1, -1, 1)

    def backward(g):
        dW, dxp = np.empty_like(W.data), np.zeros_like(xp)
        for t in range(kernel):
            dW[:, :, t] = np.einsum("bol,bcl->oc", g, xp[:, :, t : t + length])
            dxp[:, :, t : t + length] += np.einsum("bol,oc->bcl", g, W.data[:, :, t])
        _accumulate(W, dW)
        _accumulate(x, dxp[:, :, pad : pad + length])
        _accumulate(b, g.sum(axis=(0, 2)))

    return Tensor(data, (x, W, b), backward)


def avg_pool1d(x) -> Tensor:
    """Average pooling, window 2, stride 2; output length floor(L/2)."""
    x = as_tensor(x)
    if x.ndim != 3 or x.shape[2] < 2:
        raise _shape_error("avg_pool1d needs [B, C, L>=2]", x.shape)
    l_out = x.shape[2] // 2
    even = x.data[:, :, 0 : 2 * l_out : 2]
    odd = x.data[:, :, 1 : 2 * l_out : 2]

    def backward(g):
        dx = np.zeros_like(x.data)
        dx[:, :, 0 : 2 * l_out : 2] = dx[:, :, 1 : 2 * l_out : 2] = 0.5 * g
        _accumulate(x, dx)

    return Tensor(0.5 * (even + odd), (x,), backward)


def masked_mean(H, m, by_mask_sum: bool = False) -> Tensor:
    """(1/V) * sum_i m_i H_i over nodes: H [V, d], m [V] -> [d].

    Divides by the node count V as the pooling is defined, even though
    the sum is masked; by_mask_sum=True switches the denominator to
    sum(m) for the arguably-intended average over unmasked nodes.
    """
    H, m = as_tensor(H), as_tensor(m)
    if H.ndim != 2 or m.shape != (H.shape[0],):
        raise _shape_error("masked_mean", H.shape, m.shape)
    if by_mask_sum:
        denom = float(m.data.sum())
        if denom <= 0:
            raise ValueError("masked_mean by_mask_sum requires a nonempty mask")
    else:
        denom = float(H.shape[0])

    def backward(g):
        _accumulate(H, m.data[:, None] * g[None, :] / denom)
        _accumulate(m, (H.data @ g) / denom)

    return Tensor((m.data[:, None] * H.data).sum(axis=0) / denom, (H, m), backward)


def gather_rows(table, indices) -> Tensor:
    """Row lookup with scatter-add backward: table [n, d], indices [V] -> [V, d]."""
    table = as_tensor(table)
    idx = np.asarray(indices, dtype=int)
    if table.ndim != 2 or idx.ndim != 1:
        raise _shape_error("gather_rows", table.shape, idx.shape)
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ValueError(f"gather_rows index out of range for table of {table.shape[0]} rows")

    def backward(g):
        _accumulate(table, _scatter_rows(g, idx, table.shape[0]))

    return Tensor(table.data[idx], (table,), backward)


def _scatter_rows(g: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    """out[k] = sum of the rows g[e] with idx[e] == k: g [E, d], idx [E] -> [n, d]."""
    d = g.shape[1]
    flat = (idx[:, None] * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=g.ravel(), minlength=n * d).reshape(n, d)


def segment_sum(x, seg, n: int, weights=None) -> Tensor:
    """Rows of x [E, d] summed by sorted segment id seg [E] -> [n, d].

    Segment k is the run of rows with seg == k; an empty segment gives a
    zero row. `weights` [E], a constant array, scales each row before the
    sum. The backward pass gathers each row's segment gradient.
    """
    x = as_tensor(x)
    seg = np.asarray(seg, dtype=int)
    if x.ndim != 2 or seg.shape != (x.shape[0],):
        raise _shape_error("segment_sum", x.shape, seg.shape)
    if seg.size and (seg[0] < 0 or seg[-1] >= n or np.any(seg[1:] < seg[:-1])):
        raise ValueError(f"segment_sum ids must be sorted and in [0, {n})")
    if weights is not None:
        weights = np.asarray(weights, dtype=float)[:, None]
        if weights.shape != (x.shape[0], 1):
            raise _shape_error("segment_sum weights", weights.shape[:1], seg.shape)
    rows = x.data if weights is None else x.data * weights

    def backward(g):
        _accumulate(x, g[seg] if weights is None else g[seg] * weights)

    return Tensor(_scatter_rows(rows, seg, n), (x,), backward)


class EdgeConcat(NamedTuple):
    """Edge rows [H[i] | H[j] | R], described but not built.

    gated_linear and swiglu given one compute their products as edge_linear
    does, from node-level products of H and an edge-level product of R. R
    given as a plain array is a constant and gets no gradient.
    """

    H: Tensor
    R: Tensor  # or a constant np.ndarray
    i: np.ndarray
    j: np.ndarray


def _edge_affine(H, R, i, j, W, b, op: str):
    """[H[i] | H[j] | R] @ W.T + b, factorized: (data, parents, backward).

    R given as a plain array is a constant: no caller could read its
    gradient, so backward skips the g @ W_r product.
    """
    constant = not isinstance(R, Tensor)
    H, R, W = as_tensor(H), as_tensor(R), as_tensor(W)
    i, j = np.asarray(i, dtype=int), np.asarray(j, dtype=int)
    shapes = (H.shape, R.shape, i.shape, j.shape, W.shape)
    if H.ndim != 2 or R.ndim != 2 or W.ndim != 2:
        raise _shape_error(op, *shapes)
    (n_nodes, d), n_edges = H.shape, R.shape[0]
    if W.shape[1] != 2 * d + R.shape[1] or i.shape != (n_edges,) or j.shape != (n_edges,):
        raise _shape_error(op, *shapes)
    if n_edges and (min(i.min(), j.min()) < 0 or max(i.max(), j.max()) >= n_nodes):
        raise ValueError(f"{op} node index out of range for {n_nodes} nodes")
    W_i, W_j, W_r = W.data[:, :d], W.data[:, d : 2 * d], W.data[:, 2 * d :]
    # summed in place: a fresh [E, d_out] array per term costs as much as the add
    data = (H.data @ W_i.T)[i]
    data += (H.data @ W_j.T)[j]
    data += R.data @ W_r.T
    if b is not None:
        b = as_tensor(b)
        if b.shape != (W.shape[0],):
            raise _shape_error(f"{op} bias", b.shape, (W.shape[0],))
        data += b.data

    def backward(g):
        g_i = _scatter_rows(g, i, n_nodes)
        g_j = _scatter_rows(g, j, n_nodes)
        _accumulate(W, np.concatenate([g_i.T @ H.data, g_j.T @ H.data, g.T @ R.data], axis=1))
        _accumulate(H, g_i @ W_i + g_j @ W_j)
        if not constant:
            _accumulate(R, g @ W_r)
        if b is not None:
            _accumulate(b, g.sum(axis=0))

    parents = ((H, W) if constant else (H, R, W)) + (() if b is None else (b,))
    return data, parents, backward


def edge_linear(H, R, i, j, W, b=None) -> Tensor:
    """[H[i] | H[j] | R] @ W.T + b without building the concatenation.

    H [V, d] holds node rows, R [E, r] edge rows, and i, j [E] the node
    indices of each edge; W is [d_out, 2d + r]. Computed as
    (H W_i^T)[i] + (H W_j^T)[j] + R W_r^T + b from the column blocks W_i,
    W_j, W_r of W: node-level products and an r-column edge product.
    """
    return Tensor(*_edge_affine(H, R, i, j, W, b, "edge_linear"))


def _affine(x, W, b, op: str):
    """x W^T + b for a Tensor or an EdgeConcat x: (data, parents, backward)."""
    if isinstance(x, EdgeConcat):
        return _edge_affine(*x, W, b, op)
    return _dense_affine(x, W, b, op)


# --- fused layers -------------------------------------------------------------


def gated_linear(x, W_v, b_v, W_g, b_g) -> Tensor:
    """(x W_v^T + b_v) * sigmoid(x W_g^T + b_g); x is a Tensor or an EdgeConcat.

    Bit for bit mul(linear(x, W_v, b_v), sigmoid(linear(x, W_g, b_g))), with
    edge_linear in place of linear for an EdgeConcat.
    """
    v, v_parents, v_backward = _affine(x, W_v, b_v, "gated_linear")
    _check_finite(v)
    z, z_parents, z_backward = _affine(x, W_g, b_g, "gated_linear")
    _check_finite(z)
    s = _sigmoid(z)
    _check_finite(s)

    def backward(g):
        # the composed tape's order: value branch, then gate branch; the
        # order in which x's gradient is summed fixes its bits
        v_backward(g * s)
        dz = g * v
        dz *= s
        dz *= 1.0 - s
        z_backward(dz)

    # dict keys keep the first of each repeated input, in order
    return Tensor(v * s, tuple(dict.fromkeys(v_parents + z_parents)), backward)


def swiglu(x, W_g, b_g, beta, W_v, b_v) -> Tensor:
    """swish_beta(x W_g^T + b_g) * (x W_v^T + b_v); x is a Tensor or an EdgeConcat.

    Bit for bit mul(swish_beta(linear(x, W_g, b_g), beta), linear(x, W_v, b_v)),
    with edge_linear in place of linear for an EdgeConcat.
    """
    beta = as_tensor(beta)
    if beta.data.size != 1:
        raise _shape_error("swiglu: beta must be scalar", beta.shape)
    z, z_parents, z_backward = _affine(x, W_g, b_g, "swiglu")
    _check_finite(z)
    b = float(beta.data)
    s = _sigmoid(b * z)
    gate = z * s
    _check_finite(gate)
    v, v_parents, v_backward = _affine(x, W_v, b_v, "swiglu")
    _check_finite(v)

    def backward(g):
        # the composed tape's order: gate branch and beta, then value branch
        dgate = g * v
        ds = s * (1.0 - s)
        dz = dgate * (s + b * z * ds)
        _accumulate(beta, np.sum(dgate * z * z * ds).reshape(beta.shape))
        z_backward(dz)
        v_backward(g * gate)

    parents = tuple(dict.fromkeys(z_parents + (beta,) + v_parents))
    return Tensor(gate * v, parents, backward)


def total(x) -> Tensor:
    """Sum of all entries, as a scalar tensor. The building block for test losses."""
    x = as_tensor(x)

    def backward(g):
        _accumulate(x, g)

    return Tensor(x.data.sum(), (x,), backward)


# --- losses -----------------------------------------------------------------


def mse_loss(pred, target) -> Tensor:
    pred = as_tensor(pred)
    target_data = target.data if isinstance(target, Tensor) else np.asarray(target, dtype=float)
    if pred.shape != target_data.shape:
        raise _shape_error("mse_loss", pred.shape, target_data.shape)
    diff = pred.data - target_data

    def backward(g):
        _accumulate(pred, g * 2.0 * diff / diff.size)

    return Tensor(np.mean(diff * diff), (pred,), backward)


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy_loss(logits, labels) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label]: logits [B, C], labels [B]."""
    logits = as_tensor(logits)
    idx = np.asarray(labels, dtype=int)
    if logits.ndim != 2 or idx.shape != logits.shape[:1]:
        raise _shape_error("cross_entropy_loss", logits.shape, idx.shape)
    n, c = logits.shape
    if idx.min() < 0 or idx.max() >= c:
        raise ValueError(f"class index out of range for {c} classes")
    p = softmax(logits.data)
    ce = -np.log(p[np.arange(n), idx])

    def backward(g):
        grad = p.copy()
        grad[np.arange(n), idx] -= 1.0
        grad *= g / n
        _accumulate(logits, grad)

    return Tensor(np.mean(ce), (logits,), backward)


# --- backward pass and optimizer ---------------------------------------------


def backward(loss: Tensor) -> None:
    """Reverse-accumulate gradients from a scalar loss through the tape."""
    if loss.data.ndim != 0:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    loss._grad = np.ones_like(loss.data)
    for node in reversed(topo):
        # a node no gradient reached would only pass zeros on
        if node._backward is not None and node._grad is not None:
            node._backward(node._grad)


def zero_grad(params) -> None:
    """Zero each gradient buffer in place; a tensor without one has nothing to clear."""
    for p in params:
        if p._grad is not None:
            p._grad[...] = 0.0


class AdamWState:
    """AdamW state of a parameter list, held in flat float64 buffers.

    Building it copies every parameter's values and gradient into one
    `data` and one `grad` buffer and rebinds `p.data` and `p._grad` to
    reshaped views of them, so backward() accumulates straight into `grad`
    and adamw_step updates all parameters with a few whole-buffer ufuncs.
    `m` and `v` are the first and second moments, `t` the step count.
    """

    __slots__ = ("data", "grad", "m", "v", "t", "_a", "_b")

    def __init__(self, params):
        params = list(params)
        if len({id(p) for p in params}) != len(params):
            raise ValueError("AdamWState: a parameter is listed twice")
        n = sum(p.data.size for p in params)
        self.data, self.grad = np.empty(n), np.empty(n)
        lo = 0
        for p in params:
            hi = lo + p.data.size
            self.data[lo:hi] = p.data.reshape(-1)
            self.grad[lo:hi] = p.grad.reshape(-1)
            p.data = self.data[lo:hi].reshape(p.data.shape)
            p._grad = self.grad[lo:hi].reshape(p.data.shape)
            lo = hi
        self.m, self.v = np.zeros(n), np.zeros(n)
        self.t = 0
        self._a, self._b = np.empty(n), np.empty(n)  # scratch


def adamw_step(
    state: AdamWState,
    lr: float,
    weight_decay: float = 0.0,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One AdamW update: bias-corrected Adam step plus decoupled decay.

    In place over the flat buffers, each element in the operation order of
        m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
        data -= lr * (m/(1-b1**t) / (sqrt(v/(1-b2**t)) + eps) + wd*data)
    That order fixes every rounding, and with it the bytes of a seeded
    checkpoint.
    """
    state.t += 1
    g, m, v, data, a, b = state.grad, state.m, state.v, state.data, state._a, state._b
    np.multiply(m, beta1, out=m)
    np.multiply(g, 1.0 - beta1, out=a)
    np.add(m, a, out=m)
    np.multiply(v, beta2, out=v)
    np.multiply(g, 1.0 - beta2, out=a)
    np.multiply(a, g, out=a)
    np.add(v, a, out=v)
    np.divide(m, 1.0 - beta1**state.t, out=a)
    np.divide(v, 1.0 - beta2**state.t, out=b)
    np.sqrt(b, out=b)
    np.add(b, eps, out=b)
    np.divide(a, b, out=a)
    np.multiply(data, weight_decay, out=b)
    np.add(a, b, out=a)
    np.multiply(a, lr, out=a)
    np.subtract(data, a, out=data)


# --- verification and checkpoints --------------------------------------------


def finite_difference_check(build_loss, params, eps: float = 1e-4, rel_tol: float = 1e-4):
    """Compare backward() gradients against central finite differences.

    build_loss must be a pure function of the current parameter values
    returning a scalar Tensor. Returns (max relative error, list of
    (param index, flat index, analytic, numeric) failures beyond rel_tol).
    """
    params = list(params)
    zero_grad(params)
    backward(build_loss())
    analytic = [p.grad.copy() for p in params]

    worst = 0.0
    failures = []
    for pi, p in enumerate(params):
        flat = p.data.reshape(-1)
        flat_grad = analytic[pi].reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            # the probes only read the loss value, so they build no tape
            with no_grad():
                flat[i] = saved + eps
                loss_plus = build_loss().item()
                flat[i] = saved - eps
                loss_minus = build_loss().item()
            flat[i] = saved
            fd = (loss_plus - loss_minus) / (2.0 * eps)
            ad = flat_grad[i]
            err = abs(ad - fd) / max(abs(ad), abs(fd), 1e-6)
            worst = max(worst, err)
            if err > rel_tol:
                failures.append((pi, i, float(ad), float(fd)))
    return worst, failures


def save_params(named_params: dict, path, header: dict = None) -> None:
    """JSON checkpoint: {"header": ..., "params": name -> {data, shape}}, sorted.

    `data` is the base64 of the array's little-endian float64 bytes in C
    order, so values round-trip bit for bit. Values may be
    Parameters/Tensors or plain arrays (e.g. running stats). The file holds
    the bytes write_json writes of that document, built here so that the
    base64 text, whose alphabet JSON never escapes, is copied in unscanned.
    """

    def encoded(doc) -> bytes:
        return dumps(path, doc).encode()

    # the pieces of the text, joined once; each record is led by a ", "
    records = []
    for name in sorted(named_params):
        p = named_params[name]
        a = np.asarray(p.data if isinstance(p, Tensor) else p, dtype="<f8")
        # tobytes() is in C order for any layout; ascontiguousarray would make a 0-d array 1-d
        records += [b", ", encoded(name), b': {"data": "', base64.b64encode(a.tobytes()),
                    b'", "shape": ', encoded(list(a.shape)), b"}"]
    parts = [b'{"header": ', encoded(header or {}), b', "params": {', *records[1:], b"}}\n"]
    write_bytes(path, b"".join(parts))


# the checks of a parameter record's fields: `data` is base64 text, or a list of
# numbers in checkpoints written before the base64 codec
_NUMBERS = list_of(real())
PARAM = record({"shape": list_of(integer(0)),
                "data": lambda data, at: _NUMBERS(data, at) if type(data) is list else data})


def _array_from_record(rec, name: str) -> np.ndarray:
    """The array of parameter `name`'s record; an error names the field."""
    rec = PARAM(rec, ("params", name))
    shape, data = rec["shape"], rec["data"]
    try:
        if type(data) is list:
            return np.array(data, dtype=float).reshape(shape)
        raw = base64.b64decode(data, validate=True)
        n = math.prod(shape)
        if len(raw) != 8 * n:
            raise ValueError(f"{len(raw)} data bytes for shape {shape}, expected {8 * n}")
        # copied out of the bytes object: callers keep and update these arrays
        return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"field 'params.{name}.data': {exc}") from None


def params_from_doc(doc: dict) -> tuple:
    """(header dict, name -> ndarray) of a parsed save_params document."""
    params = record()(doc.get("params"), ("params",))
    arrays = {name: _array_from_record(rec, name) for name, rec in params.items()}
    return doc.get("header", {}), arrays


def load_params(path) -> tuple:
    """Returns (header dict, name -> ndarray)."""
    return params_from_doc(read_json(path))

