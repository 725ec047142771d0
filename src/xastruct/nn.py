"""Neural building blocks: gated linear units, SwiGLU stacks, conv blocks,
and a message-passing encoder that turns a batch of structure graphs into
per-node embeddings.

Every layer and model subclasses Module, which names its Parameters after
the attributes that hold them, for the optimizer, and collects them with
its other arrays into one named state, for checkpoints. Forward passes are
built entirely from autodiff ops, so gradients come for free.
"""

import math

import numpy as np

from .autodiff import (
    BatchNormState,
    EdgeConcat,
    Parameter,
    ShapeError,
    Tensor,
    add,
    avg_pool1d,
    batch_norm_1d,
    concat,
    conv1d,
    gated_linear,
    gather_rows,
    layer_norm,
    relu,
    segment_sum,
    swiglu,
)

N_ELEMENTS = 118


def glorot_uniform(rng, shape, fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform draws within the Glorot bound; zeros without an rng, for a model
    whose every array a checkpoint's load_state overwrites."""
    if rng is None:
        return np.zeros(shape)
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class Module:
    """Names Parameters and buffers after attributes, in assignment order.

    A Parameter attribute `x` is named `x`; a sub-Module `x` contributes its
    own names under `x.`; item i of a list `x` of Modules goes under `x{i}.`.
    Other attributes, lists of labels included, hold no parameters. A
    module's buffers, arrays that no optimizer updates, are what its
    own_buffers() names. The state is every array by name, Parameters'
    values and buffers alike: what a checkpoint holds and load_state checks.
    """

    def _members(self):
        for name, value in vars(self).items():
            if isinstance(value, (Parameter, Module)):
                yield name, value
            elif isinstance(value, list):
                yield from ((f"{name}{i}", v) for i, v in enumerate(value) if isinstance(v, Module))

    def _named(self, prefix: str):
        """(name, Parameter or buffer) of every array, sub-Modules' included."""
        yield from ((prefix + name, arr) for name, arr in self.own_buffers().items())
        for name, value in self._members():
            if isinstance(value, Parameter):
                yield prefix + name, value
            else:
                yield from value._named(f"{prefix}{name}.")

    def named_parameters(self, prefix: str = "") -> dict:
        return {name: v for name, v in self._named(prefix) if isinstance(v, Parameter)}

    def own_buffers(self) -> dict:
        """This module's own buffers by name; none by default."""
        return {}

    def state(self) -> dict:
        """Name -> array of every Parameter's values and every buffer."""
        return {name: v.data if isinstance(v, Parameter) else v for name, v in self._named("")}

    def load_state(self, arrays: dict) -> None:
        """Copy arrays[name] into each array of state() in place.

        Each must be present, with its array's shape and finite values; the
        error names the array that is not. Other names are ignored.
        """
        for name, target in self.state().items():
            if name not in arrays:
                raise KeyError(f"array {name!r}")
            arr = arrays[name]
            if arr.shape != target.shape:
                raise ShapeError(f"array {name!r}: shape {arr.shape}, expected {target.shape}")
            if not np.isfinite(arr).all():
                raise ValueError(f"array {name!r}: entries must be finite")
            target[...] = arr


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

    def own_buffers(self) -> dict:
        return {"bn_running_mean": self.bn_state.running_mean,
                "bn_running_var": self.bn_state.running_var}


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
    [E, 2d + n_rbf] edge input is never built. Node features start from a
    per-element embedding table. Permutation equivariant: relabeling nodes
    relabels rows of the output.

    Work is spent only on rows that reach the output:
      * One message per distinct (i, j, d_ij). The graphs store the
        periodic images that share their receiver, sender and distance
        bits as one edge row with a multiplicity (see StructureGraph), so
        each round runs the message SGMLP once per row and weights the row
        by its multiplicity in the receiver's segment sum.
      * pooled() runs the last round only for the nodes its readout
        weights by a nonzero amount: along the edges into them, and their
        updates. Other nodes' last-round values reach the readout only
        multiplied by 0. Called without out_nodes, the encoder returns
        every node's row.
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
        hidden = d if hidden is None else hidden
        self.d = d
        self.centers = np.linspace(0.0, r_max, n_rbf)
        self.width = self.centers[1] - self.centers[0]
        self.embedding = Parameter(glorot_uniform(rng, (n_elements + 1, d), d, d))
        self.round = [MessageRound(rng, d, n_rbf, hidden, k) for _ in range(t_rounds)]

    def __call__(self, graphs, out_nodes=None) -> Tensor:
        """Node embeddings [sum of V, d] of a list of graphs, graph after graph.

        With out_nodes, sorted row indices, only those rows; the last round
        then computes them alone.
        """
        sizes = [len(g.node_z) for g in graphs]
        if not sizes or min(sizes) == 0:
            raise ValueError("cannot encode an empty graph or an empty batch")
        starts = np.cumsum([0] + sizes[:-1])
        i, j = np.concatenate([g.edges + start for g, start in zip(graphs, starts)]).T.copy()
        dists = np.concatenate([g.edge_dist for g in graphs])
        mult = np.concatenate([g.edge_mult for g in graphs])
        # a constant array: the message layers compute no gradient for it
        feats = rbf_features(dists, self.centers, self.width)
        H = gather_rows(self.embedding, np.concatenate([g.node_z for g in graphs]))
        for t, rnd in enumerate(self.round, 1):
            H = self._round(rnd, H, feats, i, j, mult, out_nodes if t == len(self.round) else None)
        return H if out_nodes is None or self.round else gather_rows(H, out_nodes)

    @staticmethod
    def _round(rnd, H, feats, i, j, mult, out_nodes=None) -> Tensor:
        """One round: every node's new row, or only those of out_nodes."""
        receiver, n_out, H_out = i, H.shape[0], H
        if out_nodes is not None:
            # only the edges into out_nodes, receivers renumbered in out_nodes' order
            position = np.full(H.shape[0], -1)
            position[out_nodes] = np.arange(len(out_nodes))
            into = position[i] >= 0
            feats, i, j, mult = feats[into], i[into], j[into], mult[into]
            receiver, n_out, H_out = position[i], len(out_nodes), gather_rows(H, out_nodes)
        agg = segment_sum(rnd.message(EdgeConcat(H, feats, i, j)), receiver, n_out, weights=mult)
        update = rnd.update(concat([H_out, agg], axis=1))
        return layer_norm(add(H_out, update), rnd.ln_gain, rnd.ln_bias)

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
        read = np.flatnonzero(weights)
        return segment_sum(self(graphs, read), graph_of[read], len(graphs), weights=weights[read])

