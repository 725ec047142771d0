import math

import numpy as np
import pytest

from xastruct.autodiff import (
    EdgeConcat,
    Tensor,
    add,
    concat,
    finite_difference_check,
    gather_rows,
    layer_norm,
    masked_mean,
    matmul,
    mul,
    segment_sum,
    total,
)
from xastruct.config import check_config
from xastruct.crystal import CrystalStructure, Site, build_graph
from xastruct.nn import (
    ConvBlock,
    GatedLinearLayer,
    MPEncoder,
    SBlock,
    SGMLP,
    SwiGLULayer,
    glorot_uniform,
    rbf_features,
)

from conftest import random_structure
from helpers import cscl, fcc, fluorite, image_graph, simple_cubic


def sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z))


class TestGatedLinear:
    def test_zero_gate_halves_value_branch(self):
        rng = np.random.default_rng(0)
        layer = GatedLinearLayer(rng, 4, 3)
        layer.W_g.data[...] = 0.0
        layer.b_g.data[...] = 0.0
        x = rng.normal(size=4)
        value = layer.W_v.data @ x + layer.b_v.data
        assert np.allclose(layer(Tensor(x)).data, 0.5 * value, atol=1e-12)

    def test_saturated_gate_passes_value_branch(self):
        rng = np.random.default_rng(1)
        layer = GatedLinearLayer(rng, 4, 3)
        layer.W_g.data[...] = 0.0
        layer.b_g.data[...] = 50.0
        x = rng.normal(size=4)
        value = layer.W_v.data @ x + layer.b_v.data
        assert np.allclose(layer(Tensor(x)).data, value, atol=1e-9)

    def test_matches_scalar_evaluation(self):
        # independent element-by-element evaluation of the printed formula
        rng = np.random.default_rng(2)
        layer = GatedLinearLayer(rng, 2, 3)
        layer.b_v.data[...] = rng.normal(size=3)
        layer.b_g.data[...] = rng.normal(size=3)
        x = rng.normal(size=2)
        got = layer(Tensor(x)).data
        for o in range(3):
            v = layer.b_v.data[o] + sum(layer.W_v.data[o, i] * x[i] for i in range(2))
            g = layer.b_g.data[o] + sum(layer.W_g.data[o, i] * x[i] for i in range(2))
            assert got[o] == pytest.approx(v * sigmoid(g), abs=1e-12)

    def test_batched_input(self):
        rng = np.random.default_rng(3)
        layer = GatedLinearLayer(rng, 4, 3)
        xb = rng.normal(size=(5, 4))
        batched = layer(Tensor(xb)).data
        for r in range(5):
            assert np.allclose(batched[r], layer(Tensor(xb[r])).data, atol=1e-12)


class TestSwiGLU:
    def test_zero_input_zero_biases(self):
        layer = SwiGLULayer(np.random.default_rng(4), 3, 2)
        assert np.allclose(layer(Tensor(np.zeros(3))).data, 0.0)

    def test_beta_zero_halves_gate(self):
        rng = np.random.default_rng(5)
        layer = SwiGLULayer(rng, 3, 2)
        layer.beta.data[...] = 0.0
        x = rng.normal(size=3)
        gate = layer.W_g.data @ x + layer.b_g.data
        value = layer.W_v.data @ x + layer.b_v.data
        assert np.allclose(layer(Tensor(x)).data, 0.5 * gate * value, atol=1e-12)

    def test_matches_scalar_evaluation(self):
        rng = np.random.default_rng(6)
        layer = SwiGLULayer(rng, 2, 3)
        layer.b_v.data[...] = rng.normal(size=3)
        layer.b_g.data[...] = rng.normal(size=3)
        layer.beta.data[...] = 1.7
        x = rng.normal(size=2)
        got = layer(Tensor(x)).data
        for o in range(3):
            v = layer.b_v.data[o] + sum(layer.W_v.data[o, i] * x[i] for i in range(2))
            g = layer.b_g.data[o] + sum(layer.W_g.data[o, i] * x[i] for i in range(2))
            swish = g / (1.0 + math.exp(-1.7 * g))
            assert got[o] == pytest.approx(swish * v, abs=1e-12)


class TestSGMLP:
    def test_k1_is_bitwise_gated_linear(self):
        rng = np.random.default_rng(7)
        net = SGMLP(rng, 4, 8, 3, k=1)
        raw = GatedLinearLayer(np.random.default_rng(99), 4, 3)
        for name in ("W_v", "W_g", "b_v", "b_g"):
            getattr(raw, name).data[...] = getattr(net.final, name).data
        x = Tensor(rng.normal(size=4))
        assert np.array_equal(net(x).data, raw(x).data)

    def test_k3_structure(self):
        net = SGMLP(np.random.default_rng(8), 4, 8, 3, k=3)
        assert len(net.block) == 2
        assert isinstance(net.block[0], SBlock)
        assert net.final.W_v.shape == (3, 8)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            SGMLP(np.random.default_rng(9), 4, 8, 3, k=0)

    def test_dimension_chaining(self):
        rng = np.random.default_rng(10)
        net = SGMLP(rng, 5, 7, 2, k=3)
        out = net(Tensor(rng.normal(size=(4, 5))))
        assert out.shape == (4, 2)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        net = SGMLP(rng, 3, 4, 2, k=3)
        x = Tensor(rng.normal(size=(2, 3)))
        coeff = Tensor(rng.normal(size=(2, 2)))
        params = list(net.named_parameters().values())
        worst, failures = finite_difference_check(
            lambda: total(mul(net(x), coeff)), params, eps=1e-4, rel_tol=1e-4
        )
        assert worst < 1e-4, failures[:3]

    def test_named_parameters_unique(self):
        net = SGMLP(np.random.default_rng(12), 3, 4, 2, k=3)
        names = list(net.named_parameters("head."))
        assert len(names) == len(set(names))
        assert all(n.startswith("head.") for n in names)


class TestConvBlock:
    def test_zero_input_zero_output_eval(self):
        block = ConvBlock(np.random.default_rng(13), 2, 4)
        out = block(Tensor(np.zeros((3, 2, 10))), training=False)
        assert np.allclose(out.data, 0.0)

    def test_output_nonnegative(self):
        rng = np.random.default_rng(14)
        block = ConvBlock(rng, 2, 4)
        out = block(Tensor(rng.normal(size=(3, 2, 12))), training=True)
        assert np.all(out.data >= 0.0)

    def test_length_halved(self):
        block = ConvBlock(np.random.default_rng(15), 3, 5)
        out = block(Tensor(np.random.default_rng(0).normal(size=(2, 3, 100))), training=True)
        assert out.shape == (2, 5, 50)

    def test_buffers_round_trip(self):
        rng = np.random.default_rng(16)
        block = ConvBlock(rng, 2, 3)
        block(Tensor(rng.normal(size=(4, 2, 8))), training=True)  # move running stats
        state = block.state()
        assert {"bn_running_mean", "bn_running_var"} <= state.keys()
        fresh = ConvBlock(np.random.default_rng(0), 2, 3)
        fresh.load_state(state)
        assert np.allclose(fresh.bn_state.running_mean, block.bn_state.running_mean)
        assert np.allclose(fresh.bn_state.running_var, block.bn_state.running_var)


class TestRbf:
    def test_values_in_unit_interval(self):
        centers = np.linspace(0.0, 6.0, 16)
        width = centers[1] - centers[0]
        feats = rbf_features(np.linspace(0.5, 6.0, 40), centers, width)
        assert np.all(feats > 0.0) and np.all(feats <= 1.0)

    def test_center_scores_one(self):
        centers = np.linspace(0.0, 6.0, 16)
        width = centers[1] - centers[0]
        feats = rbf_features([centers[5]], centers, width)
        assert feats[0, 5] == 1.0

    def test_glorot_bound(self):
        w = glorot_uniform(np.random.default_rng(17), (200, 100), 100, 200)
        bound = math.sqrt(6.0 / 300.0)
        assert np.max(np.abs(w)) <= bound


class TestMPEncoder:
    def encoder(self, seed=18, **kw):
        kw.setdefault("d", 8)
        kw.setdefault("t_rounds", 2)
        kw.setdefault("n_rbf", 4)
        kw.setdefault("k", 2)
        return MPEncoder(np.random.default_rng(seed), **kw)

    def test_single_node_no_edges(self):
        from xastruct.crystal import Element, Lattice

        enc = self.encoder()
        sites = (Site(Element.from_symbol("Cu"), np.zeros(3)),)
        g1 = build_graph(CrystalStructure(lattice=Lattice(np.eye(3) * 9.0), sites=sites), 0, 2.0)
        g2 = build_graph(CrystalStructure(lattice=Lattice(np.eye(3) * 12.0), sites=sites), 0, 2.0)
        assert g1.edges.shape == (0, 2) and g2.edges.shape == (0, 2)
        h1, h2 = enc([g1]), enc([g2])
        assert h1.shape == (1, 8)
        # with no edges the output depends only on the element embedding
        assert np.array_equal(h1.data, h2.data)

    def test_permutation_equivariance(self, rng):
        enc = self.encoder()
        for _ in range(5):
            s = random_structure(rng, max_sites=6)
            perm = rng.permutation(len(s))
            permuted = CrystalStructure(
                lattice=s.lattice, sites=tuple(s.sites[p] for p in perm), id=s.id
            )
            absorber = 0
            new_absorber = int(np.nonzero(perm == absorber)[0][0])
            h = enc([build_graph(s, absorber, 5.0)]).data
            hp = enc([build_graph(permuted, new_absorber, 5.0)]).data
            # new row p holds what old row perm[p] held
            assert np.max(np.abs(hp - h[perm])) < 1e-9

    def test_isomorphic_graphs_same_embedding_multiset(self, rng):
        enc = self.encoder()
        s = random_structure(rng, max_sites=5)
        perm = rng.permutation(len(s))
        permuted = CrystalStructure(
            lattice=s.lattice, sites=tuple(s.sites[p] for p in perm), id=s.id
        )
        new_absorber = int(np.nonzero(perm == 0)[0][0])
        h = enc([build_graph(s, 0, 5.0)]).data
        hp = enc([build_graph(permuted, new_absorber, 5.0)]).data
        a = np.array(sorted(h.tolist()))
        b = np.array(sorted(hp.tolist()))
        assert np.max(np.abs(a - b)) < 1e-9

    def test_pooled_invariant_under_permutation(self, rng):
        enc = self.encoder()
        s = random_structure(rng, max_sites=5)
        perm = rng.permutation(len(s))
        permuted = CrystalStructure(
            lattice=s.lattice, sites=tuple(s.sites[p] for p in perm), id=s.id
        )
        new_absorber = int(np.nonzero(perm == 0)[0][0])
        za = enc.pooled([build_graph(s, 0, 5.0)]).data
        zb = enc.pooled([build_graph(permuted, new_absorber, 5.0)]).data
        assert np.max(np.abs(za - zb)) < 1e-9

    def test_empty_graph_rejected(self):
        enc = self.encoder()
        fake = type("G", (), {"node_z": np.zeros(0, dtype=int), "edges": np.zeros((0, 2), dtype=int),
                              "edge_dist": np.zeros(0), "edge_mult": np.zeros(0),
                              "mask": np.zeros(0)})()
        with pytest.raises(ValueError):
            enc([fake])
        with pytest.raises(ValueError):
            enc([])

    def test_gradients_match_finite_differences(self):
        # tiny element table keeps the finite-difference sweep fast
        from xastruct.crystal import Element, Lattice

        enc = MPEncoder(
            np.random.default_rng(19), d=4, t_rounds=1, n_rbf=3, k=2, n_elements=4
        )
        sites = (
            Site(Element(1), np.array([0.0, 0.0, 0.0])),
            Site(Element(3), np.array([0.5, 0.5, 0.5])),
        )
        s = CrystalStructure(lattice=Lattice(np.eye(3) * 3.0), sites=sites)
        g = build_graph(s, 0, 3.0)
        rng = np.random.default_rng(20)
        coeff = Tensor(rng.normal(size=(2, 4)))
        params = list(enc.named_parameters().values())
        worst, failures = finite_difference_check(
            lambda: total(mul(enc([g]), coeff)), params, eps=1e-4, rel_tol=1e-4
        )
        assert worst < 1e-4, failures[:3]


# --- the per-graph encoder that batching replaced, kept as the reference ----------
# The references read per-image graphs (helpers.image_graph), built from
# neighbor lists: one edge per periodic image, as graphs stored them before
# images of one distance shared a row.


def reference_encode(enc, g):
    """One per-image graph, one tape: a dense [V, E] receive matmul and a gather+concat first layer."""
    n_nodes, n_edges = len(g.node_z), len(g.edges)
    H = gather_rows(enc.embedding, g.node_z)
    i, j = g.edges[:, 0], g.edges[:, 1]
    feats = Tensor(rbf_features(g.edge_dist, enc.centers, enc.width))
    receive = np.zeros((n_nodes, n_edges))
    receive[i, np.arange(n_edges)] = 1.0
    receive = Tensor(receive)
    for rnd in enc.round:
        messages = rnd.message(concat([gather_rows(H, i), gather_rows(H, j), feats], axis=1))
        update = rnd.update(concat([H, matmul(receive, messages)], axis=1))
        H = layer_norm(add(H, update), rnd.ln_gain, rnd.ln_bias)
    return H


def reference_predict(model, g):
    pooled = masked_mean(reference_encode(model.encoder, g), Tensor(g.mask),
                         by_mask_sum=model.by_mask_sum)
    return model.head(pooled)


def reference_mean_loss(losses):
    out = losses[0]
    for item in losses[1:]:
        out = add(out, item)
    return mul(out, Tensor(np.array(1.0 / len(losses))))


def lone_site():
    """One Cu site in a 9 A cell, absorber 0, cutoff 6 A: a 1-node graph with no edges."""
    from xastruct.crystal import Element, Lattice

    s = CrystalStructure(lattice=Lattice(np.eye(3) * 9.0),
                         sites=(Site(Element.from_symbol("Cu"), np.zeros(3)),))
    return s, 0, 6.0


def assert_close_to_largest(got, want, what):
    scale = np.max(np.abs(want), initial=0.0)
    err = np.max(np.abs(got - want), initial=0.0)
    assert err <= 1e-12 * scale, f"{what}: off by {err:.2e}, largest entry {scale:.2e}"


class TestBatchedMatchesPerGraphReference:
    """Batched predictions and gradients on fixed parameters, against one tape per graph."""

    def model(self, k, by_mask_sum, seed=31):
        from xastruct import pipelines as pl

        arch = {"encoder_dim": 8, "encoder_rounds": 2, "encoder_rbf": 6, "encoder_hidden": 8,
                "encoder_k": k, "forward_hidden": 10, "forward_k": 2,
                "masked_mean_by_mask_sum": by_mask_sum}
        return pl.ForwardModel(np.random.default_rng(seed), check_config(arch), "Cu", "K", "XANES",
                               np.linspace(0.0, 1.0, 7))

    def cases(self, rng, n):
        """(structure, absorber, cutoff) of n random cells."""
        out = []
        for _ in range(n):
            s = random_structure(rng, max_sites=5)
            out.append((s, int(rng.integers(0, len(s))), float(rng.uniform(3.0, 5.0))))
        return out

    def check(self, model, cases, rng):
        from xastruct.autodiff import backward, mse_loss, zero_grad

        graphs = [build_graph(*case) for case in cases]
        images = [image_graph(*case) for case in cases]
        params = model.named_parameters()
        targets = rng.normal(size=(len(graphs), model.n_out))
        reference = np.stack([reference_predict(model, g).data for g in images])
        assert_close_to_largest(model(graphs).data, reference, "predictions")

        zero_grad(params.values())
        backward(mse_loss(model(graphs), targets))
        batched = {name: p.grad.copy() for name, p in params.items()}
        zero_grad(params.values())
        backward(reference_mean_loss(
            [mse_loss(reference_predict(model, g), t) for g, t in zip(images, targets)]))
        for name, p in params.items():
            assert_close_to_largest(batched[name], p.grad, f"gradient of {name}")

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("by_mask_sum", [0, 1])
    def test_seeded_random_cells(self, k, by_mask_sum):
        rng = np.random.default_rng(40 + k + 2 * by_mask_sum)
        model = self.model(k, by_mask_sum)
        cases = self.cases(rng, 6)
        assert sum(len(image_graph(*case).edges) for case in cases) > 0
        self.check(model, cases, rng)

    @pytest.mark.parametrize("k", [1, 2])
    def test_lone_node_alone_and_among_larger_graphs(self, k):
        rng = np.random.default_rng(50 + k)
        model = self.model(k, 0)
        lone = lone_site()
        assert build_graph(*lone).edges.shape == (0, 2)
        self.check(model, [lone], rng)
        larger = self.cases(rng, 3)
        self.check(model, [larger[0], lone, larger[1], lone, larger[2]], rng)

    def test_encoder_rows_match_per_graph_reference(self, rng):
        enc = MPEncoder(np.random.default_rng(18), d=8, t_rounds=2, n_rbf=4, k=2)
        cases = self.cases(rng, 4) + [lone_site()]
        rows = enc([build_graph(*case) for case in cases]).data
        reference = np.concatenate([reference_encode(enc, image_graph(*case)).data
                                    for case in cases])
        assert_close_to_largest(rows, reference, "node embeddings")


class TestDistinctEdges:
    def test_no_edges(self):
        g = build_graph(*lone_site())
        assert all(a.size == 0 for a in (g.edges, g.edge_dist, g.edge_mult))
        enc = MPEncoder(np.random.default_rng(19), d=8, t_rounds=2, n_rbf=4, k=1)
        rows = enc([g, g]).data
        # with no edges every node receives nothing: both graphs' rows are one row
        assert rows.shape == (2, 8) and np.isfinite(rows).all()
        assert np.array_equal(rows[0], rows[1])


# --- the encoder before deduplication, kept as the reference ------------------------


def edgewise_pooled(enc, images, by_mask_sum):
    """One message per edge of per-image graphs, every node updated in every round, then
    the masked mean."""
    sizes = [len(g.node_z) for g in images]
    starts = np.cumsum([0] + sizes[:-1])
    z = np.concatenate([g.node_z for g in images])
    edges = np.concatenate([g.edges + start for g, start in zip(images, starts)])
    i, j = edges[:, 0], edges[:, 1]
    feats = Tensor(rbf_features(np.concatenate([g.edge_dist for g in images]),
                                enc.centers, enc.width))
    H = gather_rows(enc.embedding, z)
    for rnd in enc.round:
        agg = segment_sum(rnd.message(EdgeConcat(H, feats, i, j)), i, len(z))
        update = rnd.update(concat([H, agg], axis=1))
        H = layer_norm(add(H, update), rnd.ln_gain, rnd.ln_bias)
    masks = [g.mask for g in images]
    denom = np.array([m.sum() if by_mask_sum else m.size for m in masks], dtype=float)
    graph_of = np.repeat(np.arange(len(images)), sizes)
    weights = np.concatenate(masks) / denom[graph_of]
    return segment_sum(mul(H, Tensor(weights[:, None])), graph_of, len(images))


def repeated_edge_count(images):
    """Edges beyond the first of each distinct (i, j, distance bits) of per-image graphs."""
    return sum(len(g.edges) - len({(i, j, d.tobytes()) for (i, j), d in zip(g.edges, g.edge_dist)})
               for g in images)


class TestDistinctEdgesMatchEdgewiseEncoder:
    """Deduplicated messages and the readout-only last round, against one message per edge."""

    model = TestBatchedMatchesPerGraphReference.model

    def cases(self):
        """(structure, absorber, cutoff) of cells with repeated edges and unread nodes."""
        rng = np.random.default_rng(61)
        out = [(simple_cubic(2.6), 0, 5.5),  # only self images
               (fcc(3.6), 0, 4.0),
               (cscl(3.1, "Cu", "O"), 1, 5.0),
               (fluorite(5.2, "Cu", "F"), 0, 4.0)]
        for _ in range(3):
            s = random_structure(rng, max_sites=5)
            out.append((s, int(rng.integers(0, len(s))), 4.5))
        return out

    def check(self, model, cases, rng):
        from xastruct.autodiff import backward, mse_loss, zero_grad

        graphs = [build_graph(*case) for case in cases]
        images = [image_graph(*case) for case in cases]
        params = model.named_parameters()
        targets = rng.normal(size=(len(graphs), model.n_out))

        def reference():
            return model.head(edgewise_pooled(model.encoder, images, model.by_mask_sum))

        assert_close_to_largest(model(graphs).data, reference().data, "predictions")
        grads = []
        for predict in (model, lambda graphs: reference()):
            zero_grad(params.values())
            backward(mse_loss(predict(graphs), targets))
            grads.append({name: p.grad.copy() for name, p in params.items()})
        for name in params:
            assert_close_to_largest(grads[0][name], grads[1][name], f"gradient of {name}")

    def test_the_graphs_have_repeated_edges_and_unread_nodes(self):
        images = [image_graph(*case) for case in self.cases()]
        graphs = [build_graph(*case) for case in self.cases()]
        assert repeated_edge_count(images) > 0
        assert repeated_edge_count(images) == sum(g.edge_mult.sum() - len(g.edges) for g in graphs)
        # the simple cubic cell's 32 edges are four shells of one distance each
        assert repeated_edge_count(images[:1]) == len(images[0].edges) - 4 == 28
        assert graphs[0].edge_mult.tolist() == [6.0, 12.0, 8.0, 6.0]
        assert any(not g.mask.all() for g in graphs)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("by_mask_sum", [0, 1])
    def test_predictions_and_gradients(self, k, by_mask_sum):
        rng = np.random.default_rng(70 + k + 2 * by_mask_sum)
        self.check(self.model(k, by_mask_sum), self.cases(), rng)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("by_mask_sum", [0, 1])
    def test_lone_node_alone_and_batched(self, k, by_mask_sum):
        rng = np.random.default_rng(80 + k + 2 * by_mask_sum)
        model = self.model(k, by_mask_sum)
        lone = lone_site()
        self.check(model, [lone], rng)
        cases = self.cases()
        self.check(model, [lone, cases[0], lone, cases[3], lone], rng)

    def test_out_nodes_are_those_rows_of_every_node(self):
        enc = MPEncoder(np.random.default_rng(18), d=8, t_rounds=2, n_rbf=4, k=2)
        graphs = [build_graph(*case) for case in self.cases() + [lone_site()]]
        rows = enc(graphs).data
        out_nodes = np.flatnonzero(np.concatenate([g.mask for g in graphs]))
        assert 0 < len(out_nodes) < len(rows)
        assert_close_to_largest(enc(graphs, out_nodes).data, rows[out_nodes], "read rows")
