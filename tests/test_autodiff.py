import gc
import math

import numpy as np
import pytest
from helpers import TINY_FORWARD_ARCH, TINY_INVERSE_ARCH, forward_pairs, labeled_sample, rocksalt

from xastruct import pipelines as pl
from xastruct.autodiff import (
    AdamWState,
    BatchNormState,
    EdgeConcat,
    Parameter,
    ShapeError,
    Tensor,
    adamw_step,
    add,
    avg_pool1d,
    backward,
    batch_norm_1d,
    concat,
    conv1d,
    cross_entropy_loss,
    edge_linear,
    finite_difference_check,
    gated_linear,
    gather_rows,
    layer_norm,
    linear,
    load_params,
    masked_mean,
    params_from_doc,
    matmul,
    mse_loss,
    mul,
    no_grad,
    relu,
    reshape,
    save_params,
    segment_sum,
    sigmoid,
    softmax,
    swiglu,
    swish_beta,
    total,
    zero_grad,
)
from xastruct.nn import Module


def assert_grads_match(build_loss, params, tol=1e-4):
    worst, failures = finite_difference_check(build_loss, params, eps=1e-4, rel_tol=tol)
    assert worst < tol, f"max rel err {worst:.3e}, first failures {failures[:3]}"


def away_from_zero(rng, shape, floor=0.1):
    # keep relu/abs kinks out of the finite-difference stencil
    x = rng.normal(size=shape)
    return np.sign(x) * (floor + np.abs(x))


class TestTensorBasics:
    def test_finite_enforced(self):
        with pytest.raises(ValueError):
            Tensor([1.0, np.inf])

    def test_finite_check_scans_only_when_the_sum_is_not_finite(self):
        # finite entries whose sum overflows are accepted; inf and NaN are not
        with np.errstate(over="ignore"):
            Tensor([1e308, 1e308])
        for bad in ([np.inf, -np.inf], [np.nan], [1.0, -np.inf]):
            with pytest.raises(ValueError), np.errstate(invalid="ignore"):
                Tensor(bad)

    def test_item_requires_scalar(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).item()

    def test_parameter_state(self):
        p = Parameter(np.ones((2, 2)))
        assert p.grad.shape == (2, 2)

    def test_shape_errors_report_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


class TestForwardValues:
    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor(0.0)).item() == 0.5

    def test_sigmoid_saturation_is_stable(self):
        y = sigmoid(Tensor([-800.0, 800.0]))
        assert np.allclose(y.data, [0.0, 1.0])

    def test_sigmoid_matches_masked_reference_bit_for_bit(self):
        def reference(z):
            out = np.empty_like(z)
            pos = z >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
            ez = np.exp(z[~pos])
            out[~pos] = ez / (1.0 + ez)
            return out

        rng = np.random.default_rng(40)
        for scale in (0.1, 1.0, 10.0, 100.0, 800.0):
            z = rng.normal(scale=scale, size=(400, 64))
            assert sigmoid(Tensor(z)).data.tobytes() == reference(z).tobytes()
        edges = np.array([0.0, -0.0, 745.0, -745.0])
        assert sigmoid(Tensor(edges)).data.tobytes() == reference(edges).tobytes()

    def test_swish_at_zero(self):
        for beta in (0.0, 1.0, 7.5):
            assert swish_beta(Tensor(0.0), Tensor(beta)).item() == 0.0

    def test_swish_beta_zero_halves(self):
        x = Tensor([1.0, -2.0, 0.5])
        assert np.allclose(swish_beta(x, Tensor(0.0)).data, 0.5 * x.data)

    def test_masked_mean_all_ones(self):
        H = Tensor(np.arange(12.0).reshape(4, 3))
        z = masked_mean(H, Tensor(np.ones(4)))
        assert np.allclose(z.data, H.data.mean(axis=0))

    def test_masked_mean_all_zeros(self):
        H = Tensor(np.arange(12.0).reshape(4, 3))
        assert np.allclose(masked_mean(H, Tensor(np.zeros(4))).data, 0.0)

    def test_masked_mean_divides_by_node_count(self):
        H = Tensor(np.ones((4, 2)))
        m = Tensor(np.array([1.0, 1.0, 0.0, 0.0]))
        assert np.allclose(masked_mean(H, m).data, 0.5)  # 2 selected / 4 nodes
        assert np.allclose(masked_mean(H, m, by_mask_sum=True).data, 1.0)

    def test_masked_mean_empty_mask_sum_rejected(self):
        with pytest.raises(ValueError):
            masked_mean(Tensor(np.ones((3, 2))), Tensor(np.zeros(3)), by_mask_sum=True)

    def test_segment_sum_matches_loop_with_empty_segments(self):
        x = Tensor(np.arange(15.0).reshape(5, 3))
        seg = [1, 1, 1, 3, 5]
        got = segment_sum(x, seg, 7).data
        want = np.zeros((7, 3))
        for row, k in zip(x.data, seg):
            want[k] += row
        assert got.tolist() == want.tolist()
        assert segment_sum(Tensor(np.zeros((0, 2))), [], 3).data.tolist() == [[0.0, 0.0]] * 3

    def test_segment_sum_weights_scale_each_row_forward_and_backward(self):
        x = Parameter(np.arange(15.0).reshape(5, 3))
        seg, weights = [1, 1, 1, 3, 5], np.array([2.0, 1.0, 0.5, 3.0, 0.0])
        out = segment_sum(x, seg, 7, weights=weights)
        want = np.zeros((7, 3))
        for row, k, w in zip(x.data, seg, weights):
            want[k] += w * row
        assert out.data.tolist() == want.tolist()
        c = np.arange(21.0).reshape(7, 3)
        backward(total(mul(out, Tensor(c))))
        assert x.grad.tolist() == (c[seg] * weights[:, None]).tolist()
        with pytest.raises(ShapeError):
            segment_sum(x, seg, 7, weights=weights[:4])

    def test_segment_sum_rejects_unsorted_or_out_of_range_ids(self):
        x = Tensor(np.ones((3, 2)))
        for seg, n in (([1, 0, 2], 3), ([0, 1, 3], 3), ([-1, 0, 1], 3)):
            with pytest.raises(ValueError):
                segment_sum(x, seg, n)
        with pytest.raises(ShapeError):
            segment_sum(x, [0, 1], 3)

    def test_edge_linear_matches_gather_concat_linear(self):
        rng = np.random.default_rng(3)
        i, j = [0, 0, 1, 3, 3, 3], [2, 1, 1, 0, 2, 3]
        H, R = Parameter(rng.normal(size=(4, 3))), Parameter(rng.normal(size=(6, 2)))
        W, b = Parameter(rng.normal(size=(5, 8))), Parameter(rng.normal(size=5))
        c = Tensor(rng.normal(size=(6, 5)))
        ref = lambda: linear(concat([gather_rows(H, i), gather_rows(H, j), R], axis=1), W, b)
        grads = []
        for build in (ref, lambda: edge_linear(H, R, i, j, W, b)):
            zero_grad([H, R, W, b])
            out = build()
            backward(total(mul(out, c)))
            grads.append([out.data] + [p.grad.copy() for p in (H, R, W, b)])
        for want, got in zip(*grads):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_edge_linear_rejects_bad_shapes_and_indices(self):
        H, R = Tensor(np.ones((3, 2))), Tensor(np.ones((2, 1)))
        W, b = Tensor(np.ones((4, 5))), Tensor(np.ones(4))
        with pytest.raises(ShapeError):
            edge_linear(H, R, [0, 1], [1, 2], Tensor(np.ones((4, 6))), b)
        with pytest.raises(ShapeError):
            edge_linear(H, R, [0, 1, 2], [1, 2, 0], W, b)
        with pytest.raises(ValueError):
            edge_linear(H, R, [0, 3], [1, 2], W, b)

    def test_conv1d_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 3, 9)))
        W = np.zeros((3, 3, 3))
        for c in range(3):
            W[c, c, 1] = 1.0  # single 1 at kernel center
        y = conv1d(x, Tensor(W), Tensor(np.zeros(3)))
        assert np.allclose(y.data, x.data)

    def test_conv1d_rejects_even_kernel(self):
        with pytest.raises(ShapeError):
            conv1d(Tensor(np.zeros((1, 2, 8))), Tensor(np.zeros((2, 2, 4))), Tensor(np.zeros(2)))

    def test_avg_pool_halves_length(self):
        x = Tensor(np.arange(12.0).reshape(1, 2, 6))
        y = avg_pool1d(x)
        assert y.shape == (1, 2, 3)
        assert np.allclose(y.data[0, 0], [0.5, 2.5, 4.5])

    def test_avg_pool_odd_length_floors(self):
        assert avg_pool1d(Tensor(np.zeros((1, 1, 7)))).shape == (1, 1, 3)

    def test_layer_norm_standardizes(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(6, 8)) * 3.0 + 2.0)
        y = layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
        assert np.max(np.abs(y.data.mean(axis=-1))) < 1e-6
        assert np.max(np.abs(y.data.var(axis=-1) - 1.0)) < 1e-6

    def test_batch_norm_train_vs_eval(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(16, 4)) * 2.0 + 1.0)
        gamma, beta = Tensor(np.ones(4)), Tensor(np.zeros(4))
        state = BatchNormState(4)
        y = batch_norm_1d(x, gamma, beta, state, training=True)
        assert np.max(np.abs(y.data.mean(axis=0))) < 1e-9
        # running stats moved toward the batch stats
        assert np.allclose(state.running_mean, 0.1 * x.data.mean(axis=0))
        y_eval = batch_norm_1d(x, gamma, beta, state, training=False)
        assert not np.allclose(y_eval.data, y.data)

    def test_batch_norm_channel_layout(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(4, 3, 10)))
        state = BatchNormState(3)
        y = batch_norm_1d(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), state, training=True)
        assert np.max(np.abs(y.data.mean(axis=(0, 2)))) < 1e-9

    def test_gather_rows(self):
        table = Tensor(np.arange(10.0).reshape(5, 2))
        out = gather_rows(table, [3, 0, 3])
        assert np.allclose(out.data, [[6.0, 7.0], [0.0, 1.0], [6.0, 7.0]])
        with pytest.raises(ValueError):
            gather_rows(table, [5])


class TestConstantInputs:
    """An input given as a plain array gets no gradient and changes no other one."""

    @pytest.mark.parametrize("kind", ["dense", "edge"])
    @pytest.mark.parametrize("op", sorted(["gated_linear", "swiglu"]))
    def test_same_bits_as_a_tensor_leaf(self, op, kind):
        rng = np.random.default_rng(23)
        H = Parameter(rng.normal(size=(4, 3)))
        data = rng.normal(size=(6, 2) if kind == "edge" else (5, 3))
        i, j = [0, 0, 1, 2, 3, 3], [1, 2, 0, 0, 3, 2]
        args = fused_layer_args(op, rng, 8 if kind == "edge" else 3)
        results = []
        for x in (Tensor(data), data):
            zero_grad([H, *args])
            layer_in = EdgeConcat(mul(H, Tensor(1.5)), x, i, j) if kind == "edge" else x
            out = FUSED[op][0](layer_in, *args)
            backward(total(mul(out, out)))
            results.append([out.data.tobytes()] + [p.grad.tobytes() for p in (H, *args)])
            parents = {id(p) for p in out._parents}
        assert results[0] == results[1]
        # the array's leaf is not on the tape
        assert len(parents) == len(args) + (kind == "edge")


class TestBackward:
    def test_linear_map_gradient(self):
        # loss = sum(W x): dloss/dW = ones outer x, dloss/dx = column sums of W
        rng = np.random.default_rng(4)
        W = Parameter(rng.normal(size=(3, 5)))
        x = Parameter(rng.normal(size=5))
        loss = total(linear(x, W))
        backward(loss)
        assert np.allclose(W.grad, np.outer(np.ones(3), x.data))
        assert np.allclose(x.grad, W.data.sum(axis=0))

    def test_disconnected_parameter_gets_zero_grad(self):
        a = Parameter(np.ones(3))
        b = Parameter(np.ones(3))
        zero_grad([a, b])
        backward(total(mul(a, a)))
        assert np.all(b.grad == 0.0)

    def test_grad_accumulates_on_reuse(self):
        a = Parameter(np.array(2.0))
        backward(total(mul(a, a)))  # d(a^2)/da = 2a = 4
        assert a.grad == pytest.approx(4.0)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ShapeError):
            backward(Tensor(np.ones(3)))

    def test_tape_is_freed_without_the_cyclic_collector(self):
        rng = np.random.default_rng(41)
        W = Parameter(rng.normal(size=(4, 3)))
        b = Parameter(rng.normal(size=4))
        x = rng.normal(size=(5, 3))
        gc.collect()
        gc.disable()
        try:
            h = sigmoid(linear(Tensor(x), W, b))
            loss = mse_loss(concat([h, relu(h)], axis=1), np.zeros((5, 8)))
            backward(loss)
            del h, loss
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestLazyGradients:
    def test_add_gives_each_parent_its_own_buffer(self):
        a, b = Tensor(np.ones(3)), Tensor(np.full(3, 2.0))
        backward(total(add(a, b)))
        assert a.grad is not b.grad and not np.shares_memory(a.grad, b.grad)
        a.grad[0] = 7.0
        assert np.array_equal(b.grad, np.ones(3))

    def test_first_negative_zero_gradient_reads_as_positive_zero(self):
        x = Tensor(np.array([1.0, 2.0]))
        backward(total(mul(x, Tensor(np.array([-0.0, 3.0])))))
        assert x.grad.tobytes() == np.array([0.0, 3.0]).tobytes()

    def test_fresh_output_grad_reads_as_zeros(self):
        y = mul(Tensor(np.ones((2, 3))), Tensor(2.0))
        assert y.grad.shape == (2, 3) and not y.grad.any()


class TestNoGrad:
    def test_ops_record_no_parents_and_no_closure(self):
        rng = np.random.default_rng(42)
        W = Parameter(rng.normal(size=(4, 3)))
        x = Tensor(rng.normal(size=(5, 3)))
        with no_grad():
            h = sigmoid(linear(x, W))
            loss = mse_loss(h, np.zeros((5, 4)))
        for t in (h, loss):
            assert t._parents == () and t._backward is None
        taped = sigmoid(linear(x, W))
        assert taped._parents and taped._backward is not None
        assert h.data.tobytes() == taped.data.tobytes()

    def test_recording_resumes_after_nested_blocks_and_errors(self):
        a = Tensor(np.ones(2))
        with no_grad():
            with no_grad():
                pass
            assert add(a, a)._parents == ()
        assert add(a, a)._parents == (a, a)
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("inside the block")
        assert add(a, a)._backward is not None

    def test_model_predictions_equal_a_tape_built_pass(self):
        """forward, mnnd and neighbor inference under no_grad, bit for bit."""
        pairs = forward_pairs([2.4, 2.7, 3.0])
        cfg = pl.TrainConfig(lr=3e-3, epochs=1, batch_size=2, extras=dict(TINY_FORWARD_ARCH))
        _, fwd = pl.train_forward(pairs, cfg)
        graphs = [g for g, _ in pairs]
        taped = fwd(graphs)
        assert taped._backward is not None
        got = pl.forward_predict(fwd, graphs, batch_size=len(graphs))
        assert got.tobytes() == (taped.data + fwd.y_center).tobytes()

        samples = [labeled_sample(rocksalt(a, "Ni", other))
                   for other in ("O", "S") for a in (3.9, 4.2, 4.5)]
        cfg = pl.TrainConfig(lr=3e-3, epochs=1, batch_size=4, scope="unified",
                             extras=dict(TINY_INVERSE_ARCH))
        _, mnnd = pl.train_mnnd(samples, cfg)
        for batch in (samples, samples[:1]):
            taped = mnnd.forward(*mnnd.inputs(batch), training=False)
            want = taped.data * mnnd.y_std + mnnd.y_mean
            assert pl.predict_mnnd_batch(mnnd, batch).tobytes() == want.tobytes()
        assert pl.mnnd_predict(mnnd, samples[0]) == float(want[0])

        _, nbr = pl.train_neighbor(samples, cfg)
        taped = nbr.forward(*nbr.inputs(samples))
        assert nbr.logits(samples).tobytes() == taped.data.tobytes()


def _composed_linear(x, W, b):
    return edge_linear(*x, W, b) if isinstance(x, EdgeConcat) else linear(x, W, b)


def composed_gated_linear(x, W_v, b_v, W_g, b_g):
    """The composition that gated_linear fuses, as the reference."""
    return mul(_composed_linear(x, W_v, b_v), sigmoid(_composed_linear(x, W_g, b_g)))


def composed_swiglu(x, W_g, b_g, beta, W_v, b_v):
    """The composition that swiglu fuses, as the reference."""
    return mul(swish_beta(_composed_linear(x, W_g, b_g), beta), _composed_linear(x, W_v, b_v))


FUSED = {"gated_linear": (gated_linear, composed_gated_linear),
         "swiglu": (swiglu, composed_swiglu)}


def fused_layer_args(op, rng, d_in, d_out=4):
    W_v, W_g = Parameter(rng.normal(size=(d_out, d_in))), Parameter(rng.normal(size=(d_out, d_in)))
    b_v, b_g = Parameter(rng.normal(size=d_out)), Parameter(rng.normal(size=d_out))
    if op == "gated_linear":
        return [W_v, b_v, W_g, b_g]
    return [W_g, b_g, Parameter(np.array(0.7)), W_v, b_v]


class TestFusedLayers:
    @pytest.mark.parametrize("op", sorted(FUSED))
    @pytest.mark.parametrize("kind", ["2-D", "1-D", "edge"])
    def test_equals_the_composition_bit_for_bit(self, op, kind):
        rng = np.random.default_rng(17)
        if kind == "edge":
            leaves = [Parameter(rng.normal(size=(4, 3))), Parameter(rng.normal(size=(7, 2)))]
            # repeated node indices: several edges read the same row of H
            i, j = [0, 0, 1, 1, 1, 3, 3], [2, 2, 0, 3, 3, 0, 1]
            d_in, out_shape = 8, (7, 4)
        else:
            shape = (5, 3) if kind == "2-D" else (3,)
            leaves, d_in, out_shape = [Parameter(rng.normal(size=shape))], 3, shape[:-1] + (4,)
        args = fused_layer_args(op, rng, d_in)
        coeff = Tensor(rng.uniform(0.5, 1.5, out_shape))
        params = leaves + args
        results = []
        for build in FUSED[op]:
            zero_grad(params)
            # the input is a tape node with another consumer, whose gradient
            # reaches it first; the layer's two branches then add theirs, in
            # the order the composition's tape ran them
            first = mul(leaves[0], Tensor(1.5))
            x = EdgeConcat(first, leaves[1], i, j) if kind == "edge" else first
            out = build(x, *args)
            backward(add(total(mul(first, first)), total(mul(out, coeff))))
            results.append([out.data.tobytes()] + [p.grad.tobytes() for p in params])
        assert results[0] == results[1]
        # one tape node: its parents are the layer's inputs and parameters
        fused = FUSED[op][0](x, *args)
        assert {id(p) for p in fused._parents} == {id(t) for t in [first, *leaves[1:], *args]}

    @pytest.mark.parametrize("op", sorted(FUSED))
    def test_no_grad_records_no_parents_and_no_closure(self, op):
        rng = np.random.default_rng(18)
        x = Tensor(rng.normal(size=(5, 3)))
        args = fused_layer_args(op, rng, 3)
        with no_grad():
            out = FUSED[op][0](x, *args)
        assert out._parents == () and out._backward is None
        assert out.data.tobytes() == FUSED[op][0](x, *args).data.tobytes()

    @pytest.mark.parametrize("op", sorted(FUSED))
    def test_inf_gate_preactivation_raises(self, op):
        # x W_g^T overflows to inf; the sigmoid alone would squash it to 1.0
        args = fused_layer_args(op, np.random.default_rng(19), 3)
        args[2 if op == "gated_linear" else 0] = Parameter(np.full((4, 3), 1e200))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="entries must be finite"):
            FUSED[op][0](Tensor(np.full((2, 3), 1e200)), *args)


class TestFiniteDifferences:
    def test_add_broadcast(self):
        rng = np.random.default_rng(10)
        a = Parameter(rng.normal(size=(4, 3)))
        b = Parameter(rng.normal(size=3))
        c = rng.normal(size=(4, 3))
        assert_grads_match(lambda: total(mul(add(a, b), Tensor(c))), [a, b])

    def test_mul_and_matmul(self):
        rng = np.random.default_rng(11)
        a = Parameter(rng.normal(size=(3, 4)))
        b = Parameter(rng.normal(size=(4, 2)))
        c = rng.normal(size=(3, 2))
        assert_grads_match(lambda: total(mul(matmul(a, b), Tensor(c))), [a, b])

    def test_linear_both_ranks(self):
        rng = np.random.default_rng(12)
        W = Parameter(rng.normal(size=(3, 5)))
        b = Parameter(rng.normal(size=3))
        x1 = Parameter(rng.normal(size=5))
        x2 = Parameter(rng.normal(size=(4, 5)))
        c1 = rng.normal(size=3)
        c2 = rng.normal(size=(4, 3))
        assert_grads_match(lambda: total(mul(linear(x1, W, b), Tensor(c1))), [W, b, x1])
        assert_grads_match(lambda: total(mul(linear(x2, W, b), Tensor(c2))), [W, b, x2])

    def test_concat_and_reshape(self):
        rng = np.random.default_rng(13)
        a = Parameter(rng.normal(size=(2, 3)))
        b = Parameter(rng.normal(size=(2, 2)))
        c = rng.normal(size=10)
        assert_grads_match(
            lambda: total(mul(reshape(concat([a, b], axis=1), (10,)), Tensor(c))), [a, b]
        )

    def test_sigmoid_relu_swish(self):
        rng = np.random.default_rng(14)
        x = Parameter(away_from_zero(rng, (3, 4)))
        beta = Parameter(np.array(1.3))
        c = rng.normal(size=(3, 4))
        assert_grads_match(lambda: total(mul(sigmoid(x), Tensor(c))), [x])
        assert_grads_match(lambda: total(mul(relu(x), Tensor(c))), [x])
        assert_grads_match(lambda: total(mul(swish_beta(x, beta), Tensor(c))), [x, beta])

    def test_layer_norm(self):
        rng = np.random.default_rng(15)
        x = Parameter(rng.normal(size=(4, 6)))
        gain = Parameter(rng.normal(size=6))
        bias = Parameter(rng.normal(size=6))
        c = rng.normal(size=(4, 6))
        assert_grads_match(lambda: total(mul(layer_norm(x, gain, bias), Tensor(c))), [x, gain, bias])

    def test_batch_norm_training_mode(self):
        rng = np.random.default_rng(16)
        x = Parameter(rng.normal(size=(6, 3)))
        gamma = Parameter(rng.normal(size=3))
        beta = Parameter(rng.normal(size=3))
        c = rng.normal(size=(6, 3))

        def build():
            state = BatchNormState(3)  # fresh state keeps the loss pure
            return total(mul(batch_norm_1d(x, gamma, beta, state, training=True), Tensor(c)))

        assert_grads_match(build, [x, gamma, beta])

    def test_batch_norm_eval_mode(self):
        rng = np.random.default_rng(17)
        x = Parameter(rng.normal(size=(5, 3)))
        gamma = Parameter(rng.normal(size=3))
        beta = Parameter(rng.normal(size=3))
        state = BatchNormState(3)
        state.running_mean = rng.normal(size=3)
        state.running_var = np.abs(rng.normal(size=3)) + 0.5
        c = rng.normal(size=(5, 3))
        assert_grads_match(
            lambda: total(mul(batch_norm_1d(x, gamma, beta, state, training=False), Tensor(c))),
            [x, gamma, beta],
        )

    def test_batch_norm_channels(self):
        rng = np.random.default_rng(18)
        x = Parameter(rng.normal(size=(2, 3, 8)))
        gamma = Parameter(rng.normal(size=3))
        beta = Parameter(rng.normal(size=3))
        c = rng.normal(size=(2, 3, 8))

        def build():
            state = BatchNormState(3)
            return total(mul(batch_norm_1d(x, gamma, beta, state, training=True), Tensor(c)))

        assert_grads_match(build, [x, gamma, beta])

    def test_conv_and_pool(self):
        rng = np.random.default_rng(19)
        x = Parameter(rng.normal(size=(2, 3, 7)))
        W = Parameter(rng.normal(size=(4, 3, 3)))
        b = Parameter(rng.normal(size=4))
        c = rng.normal(size=(2, 4, 3))
        assert_grads_match(
            lambda: total(mul(avg_pool1d(conv1d(x, W, b)), Tensor(c))), [x, W, b]
        )

    def test_masked_mean(self):
        rng = np.random.default_rng(20)
        H = Parameter(rng.normal(size=(5, 4)))
        m = Tensor(np.array([1.0, 0.0, 1.0, 1.0, 0.0]))
        c = rng.normal(size=4)
        assert_grads_match(lambda: total(mul(masked_mean(H, m), Tensor(c))), [H])
        assert_grads_match(
            lambda: total(mul(masked_mean(H, m, by_mask_sum=True), Tensor(c))), [H]
        )

    def test_gather_rows_scatter_add(self):
        rng = np.random.default_rng(21)
        table = Parameter(rng.normal(size=(5, 3)))
        c = rng.normal(size=(4, 3))
        assert_grads_match(
            lambda: total(mul(gather_rows(table, [1, 1, 3, 0]), Tensor(c))), [table]
        )

    def test_losses(self):
        rng = np.random.default_rng(22)
        pred = Parameter(rng.normal(size=(4, 3)))
        target = rng.normal(size=(4, 3))
        assert_grads_match(lambda: mse_loss(pred, target), [pred])
        logits = Parameter(rng.normal(size=(5, 4)))
        labels = np.array([0, 3, 2, 1, 3])
        assert_grads_match(lambda: cross_entropy_loss(logits, labels), [logits])

    def test_composed_network(self):
        rng = np.random.default_rng(23)
        W1 = Parameter(rng.normal(size=(6, 4)) * 0.5)
        b1 = Parameter(rng.normal(size=6) * 0.1)
        gain = Parameter(np.ones(6))
        bias = Parameter(np.zeros(6))
        W2 = Parameter(rng.normal(size=(2, 6)) * 0.5)
        b2 = Parameter(rng.normal(size=2) * 0.1)
        x = Tensor(rng.normal(size=(3, 4)))
        target = rng.normal(size=(3, 2))

        def build():
            h = layer_norm(linear(x, W1, b1), gain, bias)
            h = mul(h, sigmoid(h))
            return mse_loss(linear(h, W2, b2), target)

        assert_grads_match(build, [W1, b1, gain, bias, W2, b2])


class TestLosses:
    def test_mse_zero_at_match(self):
        p = Tensor(np.array([1.0, 2.0, 3.0]))
        assert mse_loss(p, np.array([1.0, 2.0, 3.0])).item() == 0.0

    def test_mse_shape_error(self):
        with pytest.raises(ShapeError):
            mse_loss(Tensor(np.zeros(3)), np.zeros(4))

    def test_uniform_logits_give_log_c(self):
        for c in (2, 5, 13):
            ce = cross_entropy_loss(Tensor(np.zeros(c)), 0)
            assert ce.item() == pytest.approx(math.log(c), abs=1e-12)

    def test_two_class_hand_value(self):
        # ce([2, 0], class 0) = -log(e^2/(e^2+1)) = log(1 + e^-2)
        ce = cross_entropy_loss(Tensor(np.array([2.0, 0.0])), 0)
        assert ce.item() == pytest.approx(math.log(1.0 + math.exp(-2.0)), abs=1e-12)
        assert ce.item() == pytest.approx(0.126928, abs=1e-6)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy_loss(Tensor(np.zeros(3)), 3)
        with pytest.raises(ValueError):
            cross_entropy_loss(Tensor(np.zeros((2, 3))), np.array([0, -1]))

    def test_softmax_normalized(self):
        rng = np.random.default_rng(24)
        p = softmax(rng.normal(size=(10, 7)) * 30.0)
        assert np.max(np.abs(p.sum(axis=-1) - 1.0)) < 1e-9

    def test_batch_ce_is_mean_of_rows(self):
        rng = np.random.default_rng(25)
        logits = rng.normal(size=(6, 4))
        labels = np.array([1, 0, 3, 2, 2, 0])
        per_row = [cross_entropy_loss(Tensor(l), int(y)).item() for l, y in zip(logits, labels)]
        batch = cross_entropy_loss(Tensor(logits), labels).item()
        assert batch == pytest.approx(np.mean(per_row), abs=1e-12)


def reference_adamw_step(params, moments, lr, weight_decay=0.0, beta1=0.9, beta2=0.999,
                         eps=1e-8):
    """The per-parameter AdamW update that AdamWState replaced, line for line.

    `moments` maps id(p) to that parameter's [m, v, t], which Parameter
    itself used to carry.
    """
    for p in params:
        m, v, t = moments.setdefault(id(p), [np.zeros_like(p.data), np.zeros_like(p.data), 0])
        t += 1
        g = p.grad
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p.data -= lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * p.data)
        moments[id(p)] = [m, v, t]


class TestAdamW:
    def test_pure_decay_with_zero_grad(self):
        p = Parameter(np.array([2.0, -4.0]))
        state = AdamWState([p])
        zero_grad([p])
        adamw_step(state, lr=0.1, weight_decay=0.01)
        assert np.allclose(p.data, [2.0, -4.0] - 0.1 * 0.01 * np.array([2.0, -4.0]), atol=1e-15)

    def test_descends_on_quadratic(self):
        w = Parameter(np.array(1.0))
        state = AdamWState([w])
        zero_grad([w])
        backward(mul(w, w))
        adamw_step(state, lr=0.1, weight_decay=0.0)
        assert float(w.data) < 1.0

    def test_converges_on_two_parameter_quadratic(self):
        # f(a, b) = (a - 3)^2 + 2 (b + 1)^2, minimum 0
        a = Parameter(np.array(0.0))
        b = Parameter(np.array(0.0))
        state = AdamWState([a, b])

        def loss():
            da = add(a, Tensor(np.array(-3.0)))
            db = add(b, Tensor(np.array(1.0)))
            return add(mul(da, da), mul(Tensor(np.array(2.0)), mul(db, db)))

        initial = loss().item()
        for _ in range(200):
            zero_grad([a, b])
            backward(loss())
            adamw_step(state, lr=0.1, weight_decay=0.0)
        assert loss().item() < 1e-3 * initial

    def test_matches_reference_adam_when_decay_is_zero(self):
        # independent Adam written straight from the update equations
        rng = np.random.default_rng(26)
        w0 = rng.normal(size=4)
        target = rng.normal(size=4)

        p = Parameter(w0.copy())
        state = AdamWState([p])
        ref_w = w0.copy()
        ref_m = np.zeros(4)
        ref_v = np.zeros(4)
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        for t in range(1, 51):
            zero_grad([p])
            backward(mse_loss(p, target))
            adamw_step(state, lr=lr, weight_decay=0.0, beta1=b1, beta2=b2, eps=eps)

            g = 2.0 * (ref_w - target) / 4.0
            ref_m = b1 * ref_m + (1 - b1) * g
            ref_v = b2 * ref_v + (1 - b2) * g * g
            ref_w = ref_w - lr * (ref_m / (1 - b1**t)) / (np.sqrt(ref_v / (1 - b2**t)) + eps)
            assert np.allclose(p.data, ref_w, atol=1e-14), f"diverged at step {t}"

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_flat_state_matches_per_parameter_update_bit_for_bit(self, weight_decay):
        rng = np.random.default_rng(41)
        shapes = [(), (5,), (3, 4), (2, 3, 4), (1,), ()]
        init = [rng.normal(size=shape) for shape in shapes]
        flat = [Parameter(a.copy()) for a in init]
        ref = [Parameter(a.copy()) for a in init]
        state, moments = AdamWState(flat), {}
        for step in range(10):
            # gradients of both signs and scales, some exactly zero
            grads = [np.asarray(rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3))
                     for shape in shapes]
            grads[step % len(grads)] = np.zeros(shapes[step % len(grads)])
            for p, q, g in zip(flat, ref, grads):
                p.grad[...] = g
                q.grad[...] = g
            adamw_step(state, lr=3e-3, weight_decay=weight_decay)
            reference_adamw_step(ref, moments, lr=3e-3, weight_decay=weight_decay)
        for p, q in zip(flat, ref):
            assert p.data.shape == q.data.shape
            assert p.data.tobytes() == q.data.tobytes()
        assert state.t == 10

    def test_state_rebinds_parameters_to_views_of_its_buffers(self):
        a, b = Parameter(np.arange(6.0).reshape(2, 3)), Parameter(np.array(7.0))
        a.grad[...] = 1.0
        state = AdamWState([a, b])
        assert state.data.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0]
        assert state.grad.tolist() == [1.0] * 6 + [0.0]
        assert np.shares_memory(a.data, state.data) and np.shares_memory(b.grad, state.grad)
        backward(mul(b, b))
        assert state.grad[-1] == 14.0
        with pytest.raises(ValueError, match="twice"):
            AdamWState([a, a])

    def test_fit_keeps_views_and_early_stop_restore_writes_through(self):
        # the metric is best after the first epoch, so patience 2 stops after
        # the third and the first epoch's values are restored
        model = pl.InverseMNND(np.random.default_rng(5), 40, 40,
                               pl.TrainConfig(extras=TINY_INVERSE_ARCH))
        params = list(model.named_parameters().values())
        snapshots = []

        def batch_loss(idx):
            p = params[0]
            return mse_loss(reshape(p, (-1,)), np.full(p.data.size, float(len(idx))))

        def validate():
            snapshots.append([p.data.copy() for p in params])
            return float(len(snapshots) > 1), len(snapshots)

        cfg = pl.TrainConfig(lr=1e-2, epochs=10, batch_size=4, patience=2)
        history = pl.fit(model, cfg, np.random.default_rng(0), 8, batch_loss, validate)
        assert len(history) == 3
        assert history.val_output == 1  # the first epoch's output, with its parameters
        base = params[0].data.base
        assert base is not None and base.size == sum(p.data.size for p in params)
        for p, best in zip(params, snapshots[0]):
            assert p.data.base is base
            assert p.grad.base is params[0].grad.base
            assert np.array_equal(p.data, best)
        assert not np.array_equal(snapshots[0][0], snapshots[-1][0])


class _Layer(Module):
    """Parameters layer.W [3, 2] and layer.b [3]: normal draws of rng, zeros without one."""

    def __init__(self, rng):
        self.layer = Module()
        self.layer.W = Parameter(np.zeros((3, 2)) if rng is None else rng.normal(size=(3, 2)))
        self.layer.b = Parameter(np.zeros(3) if rng is None else rng.normal(size=3))


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        model = _Layer(np.random.default_rng(27))
        path = tmp_path / "model.json"
        save_params(model.state(), path, header={"d": 2})
        header, arrays = load_params(path)
        assert header == {"d": 2}
        fresh = _Layer(None)
        fresh.load_state(arrays)
        assert np.array_equal(fresh.layer.W.data, model.layer.W.data)
        assert np.array_equal(fresh.layer.b.data, model.layer.b.data)

    def test_deterministic_bytes(self, tmp_path):
        params = {"b": Parameter(np.array([1.0, 2.0])), "a": Parameter(np.array(3.0))}
        save_params(params, tmp_path / "x.json", header={"k": 1})
        save_params(params, tmp_path / "y.json", header={"k": 1})
        assert (tmp_path / "x.json").read_bytes() == (tmp_path / "y.json").read_bytes()

    def test_pinned_bytes(self, tmp_path):
        params = {
            "w": Parameter(np.array([[0.1, -2.5, 1e-300], [1.0 / 3.0, -0.0, 12345.678901234567]])),
            "b": Parameter(np.array([7.0, 2.0 ** -40])),
            "scale": np.array(3),
        }
        save_params(params, tmp_path / "pin.json", header={"task": "demo", "grid": [0.5, 1.25], "n": 2})
        assert (tmp_path / "pin.json").read_text() == (
            '{"header": {"grid": [0.5, 1.25], "n": 2, "task": "demo"}, "params": '
            '{"b": {"data": "AAAAAAAAHEAAAAAAAABwPQ==", "shape": [2]}, '
            '"scale": {"data": "AAAAAAAACEA=", "shape": []}, '
            '"w": {"data": "mpmZmZmZuT8AAAAAAAAEwFnz+MIfbqUBVVVVVVVV1T8AAAAAAAAAgNdTPObWHMhA", '
            '"shape": [2, 3]}}}\n'
        )

    def test_list_checkpoint_still_loads(self, tmp_path):
        # the bytes save_params wrote before data became base64
        (tmp_path / "old.json").write_text(
            '{"header": {"grid": [0.5, 1.25], "n": 2, "task": "demo"}, "params": '
            '{"b": {"data": [7.0, 9.094947017729282e-13], "shape": [2]}, '
            '"scale": {"data": [3.0], "shape": []}, '
            '"w": {"data": [0.1, -2.5, 1e-300, 0.3333333333333333, -0.0, 12345.678901234567], '
            '"shape": [2, 3]}}}\n'
        )
        header, arrays = load_params(tmp_path / "old.json")
        assert header == {"grid": [0.5, 1.25], "n": 2, "task": "demo"}
        w = np.array([[0.1, -2.5, 1e-300], [1.0 / 3.0, -0.0, 12345.678901234567]])
        assert arrays["w"].tobytes() == w.tobytes()
        assert arrays["b"].tobytes() == np.array([7.0, 2.0 ** -40]).tobytes()
        assert arrays["scale"].shape == () and float(arrays["scale"]) == 3.0

    def test_special_values_round_trip_bit_for_bit(self, tmp_path):
        special = np.array([5e-324, -0.0, 1e-300, 1.7976931348623157e308, -5e-324, 0.0])
        values = {"v": special, "grid": special[::-1].reshape(2, 3).T, "empty": np.zeros((0, 3))}
        save_params(values, tmp_path / "s.json")
        _, arrays = load_params(tmp_path / "s.json")
        for name, a in values.items():
            assert arrays[name].shape == a.shape
            assert arrays[name].tobytes() == a.tobytes()
            # decoded arrays are owned copies that callers may update in place
            assert arrays[name].dtype == np.float64 and arrays[name].flags.writeable

    @pytest.mark.parametrize("data,match", [
        ("AAAAAAAAHEAAAAAAAABwPQ==", r"16 data bytes for shape \[3\], expected 24"),
        ("AAAAAAAAHEAAAAAAAABw", r"15 data bytes"),
        ("AAAAAAAAHEAAAAAAAABwPQ", r"padding"),
        ("AAAAAAAAHEAAAAAA*AABwPQ==", r"base64"),
        (7.0, r""),
    ])
    def test_bad_data_names_the_parameter(self, data, match):
        doc = {"params": {"layer.W": {"shape": [3], "data": data}}}
        with pytest.raises(ValueError, match=r"^parameter 'layer\.W': .*" + match):
            params_from_doc(doc)

    @pytest.mark.parametrize("shape", [[2, "a"], [2, True], [-1], [2.0], "2"])
    def test_bad_shape_names_the_parameter(self, shape):
        doc = {"params": {"layer.W": {"shape": shape, "data": "AAAAAAAAHEAAAAAAAABwPQ=="}}}
        with pytest.raises(ValueError, match=r"^parameter 'layer\.W': shape .* is not a list of "
                                             r"non-negative integers$"):
            params_from_doc(doc)

    def test_shape_mismatch_rejected(self, tmp_path):
        save_params({"layer.W": np.zeros((3, 2)), "layer.b": np.zeros(4)}, tmp_path / "m.json")
        _, arrays = load_params(tmp_path / "m.json")
        with pytest.raises(ShapeError, match=r"^array 'layer\.b': shape \(4,\), expected \(3,\)$"):
            _Layer(None).load_state(arrays)

    def test_missing_key_rejected(self, tmp_path):
        save_params({"layer.W": np.zeros((3, 2))}, tmp_path / "m.json")
        _, arrays = load_params(tmp_path / "m.json")
        with pytest.raises(KeyError, match="array 'layer.b'"):
            _Layer(None).load_state(arrays)

    def test_non_finite_rejected(self):
        arrays = {"layer.W": np.ones((3, 2)), "layer.b": np.array([1.0, np.nan, 1.0])}
        with pytest.raises(ValueError, match=r"^array 'layer\.b': entries must be finite$"):
            _Layer(None).load_state(arrays)
