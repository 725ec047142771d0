"""Neural building blocks: gated linear units, SwiGLU stacks, conv blocks,
and a message-passing encoder that turns a batch of structure graphs into
per-node embeddings.

Every layer and model subclasses Module, which names Parameters and
buffers after the attributes that hold them, for the optimizer and for
checkpoints. Forward passes are built entirely from autodiff ops, so
gradients come for free.
"""

import math

import numpy as np

from .autodiff import (
    BatchNormState,
    EdgeConcat,
    Parameter,
    Tensor,
    add,
    avg_pool1d,
    batch_norm_1d,
    concat,
    conv1d,
    gated_linear,
    gather_rows,
    layer_norm,
    mul,
    relu,
    segment_sum,
    swiglu,
)

N_ELEMENTS = 118


def glorot_uniform(rng, shape, fan_in: int, fan_out: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class Module:
    """Names Parameters and buffers after attributes, in assignment order.

    A Parameter attribute `x` is named `x`; a sub-Module `x` contributes its
    own names under `x.`; item i of a list `x` of Modules goes under `x{i}.`.
    Other attributes, lists of labels included, hold no parameters.
    """

    def _members(self):
        for name, value in vars(self).items():
            if isinstance(value, (Parameter, Module)):
                yield name, value
            elif isinstance(value, list):
                yield from ((f"{name}{i}", v) for i, v in enumerate(value) if isinstance(v, Module))

    def named_parameters(self, prefix: str = "") -> dict:
        out = {}
        for name, value in self._members():
            if isinstance(value, Parameter):
                out[prefix + name] = value
            else:
                out.update(value.named_parameters(f"{prefix}{name}."))
        return out

    def named_buffers(self, prefix: str = "") -> dict:
        """Non-trained state, such as BatchNorm running statistics."""
        out = {}
        for name, value in self._members():
            if isinstance(value, Module):
                out.update(value.named_buffers(f"{prefix}{name}."))
        return out

    def load_buffers(self, arrays: dict, prefix: str = "") -> None:
        for name, value in self._members():
            if isinstance(value, Module):
                value.load_buffers(arrays, f"{prefix}{name}.")


class GatedLinearLayer(Module):
    """(W_v x + b_v) * sigmoid(W_g x + b_g); x may be a Tensor or an EdgeConcat."""

    def __init__(self, rng, d_in: int, d_out: int):
        self.W_v = Parameter(glorot_uniform(rng, (d_out, d_in), d_in, d_out))
        self.W_g = Parameter(glorot_uniform(rng, (d_out, d_in), d_in, d_out))
        self.b_v = Parameter(np.zeros(d_out))
        self.b_g = Parameter(np.zeros(d_out))

    def __call__(self, x) -> Tensor:
        return gated_linear(x, self.W_v, self.b_v, self.W_g, self.b_g)


class SwiGLULayer(Module):
    """swish_beta(x W_g + b_g) * (x W_v + b_v), beta learnable; x may be an EdgeConcat."""

    def __init__(self, rng, d_in: int, d_out: int):
        self.W_v = Parameter(glorot_uniform(rng, (d_out, d_in), d_in, d_out))
        self.W_g = Parameter(glorot_uniform(rng, (d_out, d_in), d_in, d_out))
        self.b_v = Parameter(np.zeros(d_out))
        self.b_g = Parameter(np.zeros(d_out))
        self.beta = Parameter(np.array(1.0))

    def __call__(self, x) -> Tensor:
        return swiglu(x, self.W_g, self.b_g, self.beta, self.W_v, self.b_v)


class SBlock(Module):
    """SwiGLU(LayerNorm(GatedLinear(x)))."""

    def __init__(self, rng, d_in: int, d_out: int):
        self.gated = GatedLinearLayer(rng, d_in, d_out)
        self.ln_gain = Parameter(np.ones(d_out))
        self.ln_bias = Parameter(np.zeros(d_out))
        self.swiglu = SwiGLULayer(rng, d_out, d_out)

    def __call__(self, x) -> Tensor:
        return self.swiglu(layer_norm(self.gated(x), self.ln_gain, self.ln_bias))


class SGMLP(Module):
    """k-layer gated MLP: (k-1) SBlocks followed by a final GatedLinear.

    k = 1 degenerates to a single GatedLinear from d_in to d_out.
    """

    def __init__(self, rng, d_in: int, hidden: int, d_out: int, k: int):
        if k < 1:
            raise ValueError(f"SGMLP depth k must be >= 1, got {k}")
        self.block = []
        width = d_in
        for _ in range(k - 1):
            self.block.append(SBlock(rng, width, hidden))
            width = hidden
        self.final = GatedLinearLayer(rng, width, d_out)

    def __call__(self, x) -> Tensor:
        for block in self.block:
            x = block(x)
        return self.final(x)


class ConvBlock(Module):
    """AvgPool(ReLU(BatchNorm(Conv1D(z)))): [B, c_in, L] -> [B, c_out, L//2]."""

    def __init__(self, rng, c_in: int, c_out: int, kernel: int = 3):
        fan_in, fan_out = c_in * kernel, c_out * kernel
        self.W = Parameter(glorot_uniform(rng, (c_out, c_in, kernel), fan_in, fan_out))
        self.b = Parameter(np.zeros(c_out))
        self.bn_gamma = Parameter(np.ones(c_out))
        self.bn_beta = Parameter(np.zeros(c_out))
        self.bn_state = BatchNormState(c_out)

    def __call__(self, x, training: bool) -> Tensor:
        y = conv1d(x, self.W, self.b)
        y = batch_norm_1d(y, self.bn_gamma, self.bn_beta, self.bn_state, training)
        return avg_pool1d(relu(y))

    def named_buffers(self, prefix: str = "") -> dict:
        return {
            f"{prefix}bn_running_mean": self.bn_state.running_mean,
            f"{prefix}bn_running_var": self.bn_state.running_var,
        }

    def load_buffers(self, arrays: dict, prefix: str = "") -> None:
        self.bn_state.running_mean = np.array(arrays[f"{prefix}bn_running_mean"], dtype=float)
        self.bn_state.running_var = np.array(arrays[f"{prefix}bn_running_var"], dtype=float)


def rbf_features(distances, centers: np.ndarray, width: float) -> np.ndarray:
    """Gaussian radial basis: exp(-((d - c)/width)^2), one column per center.

    Values lie in (0, 1]; a distance exactly at a center scores 1 there.
    """
    d = np.asarray(distances, dtype=float).reshape(-1, 1)
    return np.exp(-(((d - centers[None, :]) / width) ** 2))


class MessageRound(Module):
    """One message-passing round's layers: message and update SGMLPs, LayerNorm."""

    def __init__(self, rng, d: int, n_rbf: int, hidden: int, k: int):
        self.message = SGMLP(rng, 2 * d + n_rbf, hidden, d, k)
        self.update = SGMLP(rng, 2 * d, hidden, d, k)
        self.ln_gain = Parameter(np.ones(d))
        self.ln_bias = Parameter(np.zeros(d))


class MPEncoder(Module):
    """Message-passing encoder over a batch of structure graphs.

    The batch is encoded as one graph, the disjoint union of its graphs
    with node indices offset graph by graph. T rounds of:
    m_ij = SGMLP([h_i | h_j | rbf(d_ij)]), summed over the neighbors of i,
    then h_i <- LayerNorm(h_i + SGMLP([h_i | sum_j m_ij])). The message
    SGMLP's first gated layer is factorized (see EdgeConcat), so the
    [E, 2d + n_rbf] edge input is never built; edges arrive sorted by i,
    so the sum over neighbors is a segment sum. Node features start from a
    per-element embedding table. Permutation equivariant: relabeling nodes
    relabels rows of the output.
    """

    def __init__(
        self,
        rng,
        d: int = 64,
        t_rounds: int = 3,
        n_rbf: int = 16,
        hidden: int = None,
        k: int = 2,
        r_max: float = 6.0,
        n_elements: int = N_ELEMENTS,
    ):
        hidden = hidden or d
        self.d = d
        self.centers = np.linspace(0.0, r_max, n_rbf)
        self.width = self.centers[1] - self.centers[0]
        self.embedding = Parameter(glorot_uniform(rng, (n_elements + 1, d), d, d))
        self.round = [MessageRound(rng, d, n_rbf, hidden, k) for _ in range(t_rounds)]

    def __call__(self, graphs) -> Tensor:
        """Node embeddings [sum of V, d] of a list of graphs, graph after graph."""
        sizes = [len(g.node_elements) for g in graphs]
        if not sizes or min(sizes) == 0:
            raise ValueError("cannot encode an empty graph or an empty batch")
        starts = np.cumsum([0] + sizes[:-1])
        z = [el.atomic_number for g in graphs for el in g.node_elements]
        edges = np.concatenate([g.edges + start for g, start in zip(graphs, starts)])
        dists = np.concatenate([g.edge_dist for g in graphs])
        H = gather_rows(self.embedding, z)
        feats = Tensor(rbf_features(dists, self.centers, self.width))
        i, j = edges[:, 0], edges[:, 1]
        for rnd in self.round:
            messages = rnd.message(EdgeConcat(H, feats, i, j))
            agg = segment_sum(messages, i, len(z))
            update = rnd.update(concat([H, agg], axis=1))
            H = layer_norm(add(H, update), rnd.ln_gain, rnd.ln_bias)
        return H

    def pooled(self, graphs, by_mask_sum: bool = False) -> Tensor:
        """Per-graph masked mean of the node embeddings: [B, d] for B graphs.

        Graph b's vector is sum_i m_i h_i over its nodes, divided by its node
        count, or by its mask sum with by_mask_sum.
        """
        masks = [g.mask for g in graphs]
        denom = np.array([m.sum() if by_mask_sum else m.size for m in masks], dtype=float)
        if by_mask_sum and np.any(denom <= 0):
            raise ValueError("masked mean by mask sum requires a nonempty mask")
        graph_of = np.repeat(np.arange(len(graphs)), [m.size for m in masks])
        weights = np.concatenate(masks) / denom[graph_of]
        return segment_sum(mul(self(graphs), Tensor(weights[:, None])), graph_of, len(graphs))
