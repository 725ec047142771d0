"""Reverse-mode automatic differentiation over dense float64 arrays.

Small on purpose: exactly the operations the spectra models need, nothing
generic. Every op returns a Tensor wired to its parents with a local
backward closure; backward(loss) topologically sorts that implicit tape
and accumulates gradients. A closure is handed its output's gradient and
never refers to its output tensor, so a tape holds no reference cycle and
is freed by reference counting as soon as the loss is dropped. Parameters
are leaf tensors carrying AdamW moment state.

All data is float64. Gradient checks against central finite differences
are the ground truth for every op here; see finite_difference_check.
"""

import base64
import json
import math
from pathlib import Path

import numpy as np


class ShapeError(ValueError):
    pass


def _shape_error(op, *shapes):
    return ShapeError(f"{op}: incompatible shapes {' vs '.join(str(s) for s in shapes)}")


class Tensor:
    """Dense array plus gradient and the links that make up the tape."""

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, parents=(), backward=None):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor entries must be finite")
        self.data = arr
        self.grad = np.zeros_like(arr)
        self._parents = tuple(parents)
        self._backward = backward

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

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


class Parameter(Tensor):
    """Trainable leaf: carries AdamW first/second moments and a step count."""

    __slots__ = ("m", "v", "t")

    def __init__(self, data):
        super().__init__(data)
        self.m = np.zeros_like(self.data)
        self.v = np.zeros_like(self.data)
        self.t = 0


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


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
    out = Tensor(data, (a, b))

    def backward(g):
        a.grad += _unbroadcast(g, a.shape)
        b.grad += _unbroadcast(g, b.shape)

    out._backward = backward
    return out


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise _shape_error("mul", a.shape, b.shape)
    out = Tensor(data, (a, b))

    def backward(g):
        a.grad += _unbroadcast(g * b.data, a.shape)
        b.grad += _unbroadcast(g * a.data, b.shape)

    out._backward = backward
    return out


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise _shape_error("matmul", a.shape, b.shape)
    out = Tensor(a.data @ b.data, (a, b))

    def backward(g):
        a.grad += g @ b.data.T
        b.grad += a.data.T @ g

    out._backward = backward
    return out


def linear(x, W, b=None) -> Tensor:
    """x @ W.T + b with W stored [d_out, d_in]; x may be [d_in] or [B, d_in]."""
    x, W = as_tensor(x), as_tensor(W)
    if W.ndim != 2 or x.shape[-1] != W.shape[1] or x.ndim not in (1, 2):
        raise _shape_error("linear", x.shape, W.shape)
    data = x.data @ W.data.T
    if b is not None:
        b = as_tensor(b)
        if b.shape != (W.shape[0],):
            raise _shape_error("linear bias", b.shape, (W.shape[0],))
        data = data + b.data
    parents = (x, W) if b is None else (x, W, b)
    out = Tensor(data, parents)

    def backward(g):
        if x.ndim == 1:
            W.grad += np.outer(g, x.data)
            x.grad += g @ W.data
            if b is not None:
                b.grad += g
        else:
            W.grad += g.T @ x.data
            x.grad += g @ W.data
            if b is not None:
                b.grad += g.sum(axis=0)

    out._backward = backward
    return out


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat of an empty sequence")
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        raise _shape_error("concat", *[t.shape for t in tensors])
    out = Tensor(data, tuple(tensors))
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            t.grad += g[tuple(idx)]

    out._backward = backward
    return out


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    out = Tensor(x.data.reshape(shape), (x,))

    def backward(g):
        x.grad += g.reshape(x.shape)

    out._backward = backward
    return out


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # stable in both tails: 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z)
    # below, so exp only ever sees -|z|
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    y = _sigmoid(x.data)
    out = Tensor(y, (x,))

    def backward(g):
        x.grad += g * y * (1.0 - y)

    out._backward = backward
    return out


def relu(x) -> Tensor:
    x = as_tensor(x)
    out = Tensor(np.maximum(x.data, 0.0), (x,))

    def backward(g):
        x.grad += g * (x.data > 0)

    out._backward = backward
    return out


def swish_beta(x, beta) -> Tensor:
    """x * sigmoid(beta * x) with a learnable scalar beta."""
    x, beta = as_tensor(x), as_tensor(beta)
    if beta.data.size != 1:
        raise _shape_error("swish_beta: beta must be scalar", beta.shape)
    b = float(beta.data)
    s = _sigmoid(b * x.data)
    out = Tensor(x.data * s, (x, beta))

    def backward(g):
        ds = s * (1.0 - s)
        x.grad += g * (s + b * x.data * ds)
        beta.grad += np.sum(g * x.data * x.data * ds).reshape(beta.shape)

    out._backward = backward
    return out


def layer_norm(x, gain, bias, eps: float = 1e-8) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale-shift."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise _shape_error("layer_norm", x.shape, gain.shape, bias.shape)
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv_std
    out = Tensor(gain.data * xhat + bias.data, (x, gain, bias))

    def backward(g):
        dxhat = g * gain.data
        x.grad += inv_std * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        reduce_axes = tuple(range(g.ndim - 1))
        gain.grad += (g * xhat).sum(axis=reduce_axes)
        bias.grad += g.sum(axis=reduce_axes)

    out._backward = backward
    return out


class BatchNormState:
    """Running statistics for batch_norm_1d. One instance per layer."""

    def __init__(self, n_features: int, momentum: float = 0.9, eps: float = 1e-5):
        self.running_mean = np.zeros(n_features)
        self.running_var = np.ones(n_features)
        self.momentum = momentum
        self.eps = eps


def batch_norm_1d(x, gamma, beta, state: BatchNormState, training: bool) -> Tensor:
    """Batch normalization for [B, d] or [B, C, L] inputs.

    Stats are per-feature ([B, d]) or per-channel ([B, C, L]); training
    mode normalizes by batch statistics and updates the running averages,
    eval mode uses the stored running statistics.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if x.ndim == 2:
        axes, stat_shape = (0,), (1, -1)
    elif x.ndim == 3:
        axes, stat_shape = (0, 2), (1, -1, 1)
    else:
        raise _shape_error("batch_norm_1d", x.shape)
    n_features = x.shape[1]
    if gamma.shape != (n_features,) or beta.shape != (n_features,):
        raise _shape_error("batch_norm_1d scale", x.shape, gamma.shape, beta.shape)

    if training:
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        m = state.momentum
        state.running_mean = m * state.running_mean + (1.0 - m) * mean
        state.running_var = m * state.running_var + (1.0 - m) * var
    else:
        mean, var = state.running_mean, state.running_var

    inv_std = 1.0 / np.sqrt(var + state.eps)
    xhat = (x.data - mean.reshape(stat_shape)) * inv_std.reshape(stat_shape)
    out = Tensor(gamma.data.reshape(stat_shape) * xhat + beta.data.reshape(stat_shape), (x, gamma, beta))
    n_reduced = int(np.prod([x.shape[a] for a in axes]))

    def backward(g):
        dxhat = g * gamma.data.reshape(stat_shape)
        if training:
            # gradient through the batch statistics themselves
            x.grad += (inv_std.reshape(stat_shape) / n_reduced) * (
                n_reduced * dxhat
                - dxhat.sum(axis=axes, keepdims=True)
                - xhat * (dxhat * xhat).sum(axis=axes, keepdims=True)
            )
        else:
            x.grad += dxhat * inv_std.reshape(stat_shape)
        gamma.grad += (g * xhat).sum(axis=axes)
        beta.grad += g.sum(axis=axes)

    out._backward = backward
    return out


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
    out = Tensor(data, (x, W, b))

    def backward(g):
        dxp = np.zeros_like(xp)
        for t in range(kernel):
            W.grad[:, :, t] += np.einsum("bol,bcl->oc", g, xp[:, :, t : t + length])
            dxp[:, :, t : t + length] += np.einsum("bol,oc->bcl", g, W.data[:, :, t])
        x.grad += dxp[:, :, pad : pad + length]
        b.grad += g.sum(axis=(0, 2))

    out._backward = backward
    return out


def avg_pool1d(x) -> Tensor:
    """Average pooling, window 2, stride 2; output length floor(L/2)."""
    x = as_tensor(x)
    if x.ndim != 3 or x.shape[2] < 2:
        raise _shape_error("avg_pool1d needs [B, C, L>=2]", x.shape)
    l_out = x.shape[2] // 2
    even = x.data[:, :, 0 : 2 * l_out : 2]
    odd = x.data[:, :, 1 : 2 * l_out : 2]
    out = Tensor(0.5 * (even + odd), (x,))

    def backward(g):
        x.grad[:, :, 0 : 2 * l_out : 2] += 0.5 * g
        x.grad[:, :, 1 : 2 * l_out : 2] += 0.5 * g

    out._backward = backward
    return out


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
    out = Tensor((m.data[:, None] * H.data).sum(axis=0) / denom, (H, m))

    def backward(g):
        H.grad += m.data[:, None] * g[None, :] / denom
        m.grad += (H.data @ g) / denom

    out._backward = backward
    return out


def gather_rows(table, indices) -> Tensor:
    """Row lookup with scatter-add backward: table [n, d], indices [V] -> [V, d]."""
    table = as_tensor(table)
    idx = np.asarray(indices, dtype=int)
    if table.ndim != 2 or idx.ndim != 1:
        raise _shape_error("gather_rows", table.shape, idx.shape)
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ValueError(f"gather_rows index out of range for table of {table.shape[0]} rows")
    out = Tensor(table.data[idx], (table,))

    def backward(g):
        np.add.at(table.grad, idx, g)

    out._backward = backward
    return out


def _scatter_rows(g: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    """out[k] = sum of the rows g[e] with idx[e] == k: g [E, d], idx [E] -> [n, d]."""
    d = g.shape[1]
    flat = (idx[:, None] * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=g.ravel(), minlength=n * d).reshape(n, d)


def segment_sum(x, seg, n: int) -> Tensor:
    """Rows of x [E, d] summed by sorted segment id seg [E] -> [n, d].

    Segment k is the run of rows with seg == k; an empty segment gives a
    zero row. The backward pass gathers each row's segment gradient.
    """
    x = as_tensor(x)
    seg = np.asarray(seg, dtype=int)
    if x.ndim != 2 or seg.shape != (x.shape[0],):
        raise _shape_error("segment_sum", x.shape, seg.shape)
    if seg.size and (seg[0] < 0 or seg[-1] >= n or np.any(seg[1:] < seg[:-1])):
        raise ValueError(f"segment_sum ids must be sorted and in [0, {n})")
    counts = np.bincount(seg, minlength=n)
    filled = counts > 0
    data = np.zeros((n, x.shape[1]))
    if seg.size:
        data[filled] = np.add.reduceat(x.data, (np.cumsum(counts) - counts)[filled], axis=0)
    out = Tensor(data, (x,))

    def backward(g):
        x.grad += g[seg]

    out._backward = backward
    return out


def edge_linear(H, R, i, j, W, b=None) -> Tensor:
    """[H[i] | H[j] | R] @ W.T + b without building the concatenation.

    H [V, d] holds node rows, R [E, r] edge rows, and i, j [E] the node
    indices of each edge; W is [d_out, 2d + r]. Computed as
    (H W_i^T)[i] + (H W_j^T)[j] + R W_r^T + b from the column blocks W_i,
    W_j, W_r of W: node-level products and an r-column edge product.
    """
    H, R, W = as_tensor(H), as_tensor(R), as_tensor(W)
    i, j = np.asarray(i, dtype=int), np.asarray(j, dtype=int)
    shapes = (H.shape, R.shape, i.shape, j.shape, W.shape)
    if H.ndim != 2 or R.ndim != 2 or W.ndim != 2:
        raise _shape_error("edge_linear", *shapes)
    (n_nodes, d), n_edges = H.shape, R.shape[0]
    if W.shape[1] != 2 * d + R.shape[1] or i.shape != (n_edges,) or j.shape != (n_edges,):
        raise _shape_error("edge_linear", *shapes)
    if n_edges and (min(i.min(), j.min()) < 0 or max(i.max(), j.max()) >= n_nodes):
        raise ValueError(f"edge_linear node index out of range for {n_nodes} nodes")
    W_i, W_j, W_r = W.data[:, :d], W.data[:, d : 2 * d], W.data[:, 2 * d :]
    # summed in place: a fresh [E, d_out] array per term costs as much as the add
    data = (H.data @ W_i.T)[i]
    data += (H.data @ W_j.T)[j]
    data += R.data @ W_r.T
    if b is not None:
        b = as_tensor(b)
        if b.shape != (W.shape[0],):
            raise _shape_error("edge_linear bias", b.shape, (W.shape[0],))
        data += b.data
    out = Tensor(data, (H, R, W) if b is None else (H, R, W, b))

    def backward(g):
        g_i = _scatter_rows(g, i, n_nodes)
        g_j = _scatter_rows(g, j, n_nodes)
        W.grad[:, :d] += g_i.T @ H.data
        W.grad[:, d : 2 * d] += g_j.T @ H.data
        W.grad[:, 2 * d :] += g.T @ R.data
        H.grad += g_i @ W_i + g_j @ W_j
        R.grad += g @ W_r
        if b is not None:
            b.grad += g.sum(axis=0)

    out._backward = backward
    return out


def total(x) -> Tensor:
    """Sum of all entries, as a scalar tensor. The building block for test losses."""
    x = as_tensor(x)
    out = Tensor(x.data.sum(), (x,))

    def backward(g):
        x.grad += g

    out._backward = backward
    return out


# --- losses -----------------------------------------------------------------


def mse_loss(pred, target) -> Tensor:
    pred = as_tensor(pred)
    target_data = target.data if isinstance(target, Tensor) else np.asarray(target, dtype=float)
    if pred.shape != target_data.shape:
        raise _shape_error("mse_loss", pred.shape, target_data.shape)
    diff = pred.data - target_data
    out = Tensor(np.mean(diff * diff), (pred,))

    def backward(g):
        pred.grad += g * 2.0 * diff / diff.size

    out._backward = backward
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy_loss(logits, labels) -> Tensor:
    """-log softmax(logits)[label]; mean over the batch for [B, C] inputs."""
    logits = as_tensor(logits)
    if logits.ndim == 1:
        idx = np.array([int(labels)])
        rows = logits.data[None, :]
    elif logits.ndim == 2:
        idx = np.asarray(labels, dtype=int)
        rows = logits.data
        if idx.shape != (rows.shape[0],):
            raise _shape_error("cross_entropy_loss labels", logits.shape, idx.shape)
    else:
        raise _shape_error("cross_entropy_loss", logits.shape)
    n, c = rows.shape
    if idx.min() < 0 or idx.max() >= c:
        raise ValueError(f"class index out of range for {c} classes")
    p = softmax(rows)
    ce = -np.log(p[np.arange(n), idx])
    out = Tensor(np.mean(ce), (logits,))

    def backward(g):
        grad = p.copy()
        grad[np.arange(n), idx] -= 1.0
        grad *= g / n
        logits.grad += grad[0] if logits.ndim == 1 else grad

    out._backward = backward
    return out


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
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)


def zero_grad(params) -> None:
    for p in params:
        p.grad[...] = 0.0


def adamw_step(
    params,
    lr: float,
    weight_decay: float = 0.0,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One AdamW update: bias-corrected Adam step plus decoupled decay."""
    for p in params:
        p.t += 1
        g = p.grad
        p.m = beta1 * p.m + (1.0 - beta1) * g
        p.v = beta2 * p.v + (1.0 - beta2) * g * g
        m_hat = p.m / (1.0 - beta1**p.t)
        v_hat = p.v / (1.0 - beta2**p.t)
        p.data -= lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * p.data)


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
    """JSON checkpoint: {"header": ..., "params": name -> {shape, data}}, sorted.

    `data` is the base64 of the array's little-endian float64 bytes in C
    order, so values round-trip bit for bit. Values may be
    Parameters/Tensors or plain arrays (e.g. running stats).
    """

    def record(p):
        a = np.asarray(p.data if isinstance(p, Tensor) else p, dtype="<f8")
        # tobytes() is in C order for any layout; ascontiguousarray would make a 0-d array 1-d
        return {"shape": list(a.shape), "data": base64.b64encode(a.tobytes()).decode("ascii")}

    doc = {
        "header": header or {},
        "params": {name: record(p) for name, p in named_params.items()},
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")


def _array_from_record(rec: dict) -> np.ndarray:
    shape, data = rec["shape"], rec["data"]
    if isinstance(data, list):  # checkpoints written before the base64 codec
        return np.array(data, dtype=float).reshape(shape)
    raw = base64.b64decode(data, validate=True)
    n = math.prod(shape)
    if len(raw) != 8 * n:
        raise ValueError(f"{len(raw)} data bytes for shape {shape}, expected {8 * n}")
    # copied out of the bytes object: callers keep and update these arrays
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


def params_from_doc(doc: dict) -> tuple:
    """(header dict, name -> ndarray) of a parsed save_params document."""
    arrays = {}
    for name, rec in doc["params"].items():
        try:
            arrays[name] = _array_from_record(rec)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"parameter {name!r}: {exc}") from None
    return doc.get("header", {}), arrays


def load_params(path) -> tuple:
    """Returns (header dict, name -> ndarray)."""
    with open(path) as fh:
        return params_from_doc(json.load(fh))


def load_into(named_params: dict, arrays: dict) -> None:
    """Copy checkpoint arrays into live Parameters, shape-checked."""
    missing = sorted(set(named_params) - set(arrays))
    if missing:
        raise KeyError(f"parameters {missing}")
    for name, p in named_params.items():
        arr = arrays[name]
        if arr.shape != p.data.shape:
            raise _shape_error(f"parameter {name!r}", arr.shape, p.data.shape)
        p.data[...] = arr
