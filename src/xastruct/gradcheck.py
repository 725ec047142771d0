"""Finite-difference check of every autodiff op and nn block.

`cases(seed)` draws one small instance of each op and block, whose
analytic gradients `run` compares against central differences; the
`gradcheck` subcommand and acceptance criterion c1 run it.
"""

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
    cross_entropy_loss,
    edge_linear,
    finite_difference_check,
    gated_linear,
    gather_rows,
    layer_norm,
    linear,
    masked_mean,
    matmul,
    mse_loss,
    mul,
    relu,
    reshape,
    segment_sum,
    sigmoid,
    swiglu,
    swish_beta,
    total,
)
from .crystal import CrystalStructure, Element, Lattice, Site, build_graph
from .nn import ConvBlock, GatedLinearLayer, MPEncoder, SBlock, SGMLP, SwiGLULayer


def cases(seed: int):
    """(name, params, scalar loss fn) triples covering every op and block.

    Each output is contracted against fixed random coefficients rather than
    plainly summed: a plain sum over a normalized output has structurally
    tiny parameter gradients (BatchNorm makes the sum invariant to the conv
    weights, LayerNorm to the gain), and finite differences of a near-zero
    gradient are all truncation noise.
    """
    rng = np.random.default_rng(seed)

    def p(*shape):
        # magnitudes in [0.2, 1.2]: keeps relu kinks away from the FD step
        return Parameter(rng.uniform(0.2, 1.2, shape) * rng.choice([-1.0, 1.0], shape))

    cases = []

    def case(name, params, forward):
        coeff = Tensor(rng.uniform(0.5, 1.5, forward().shape))
        cases.append((name, params, lambda: total(mul(forward(), coeff))))

    def case_scalar(name, params, loss):
        cases.append((name, params, loss))

    x, y = p(3, 4), p(3, 4)
    case("add", (x, y), lambda: add(x, y))
    case("mul", (x, y), lambda: mul(x, y))
    w, v = p(4, 3), p(3, 5)
    case("matmul", (w, v), lambda: matmul(w, v))
    lw, lb, lx = p(4, 3), p(4), p(2, 3)
    case("linear", (lw, lb, lx), lambda: linear(lx, lw, lb))
    c1, c2 = p(2, 3), p(2, 2)
    case("concat", (c1, c2), lambda: concat([c1, c2], axis=1))
    r = p(2, 6)
    case("reshape", (r,), lambda: reshape(r, (3, 4)))
    s1 = p(3, 3)
    case("sigmoid", (s1,), lambda: sigmoid(s1))
    case("relu", (s1,), lambda: relu(s1))
    beta = Parameter(np.array(1.3))
    case("swish_beta", (s1, beta), lambda: swish_beta(s1, beta))
    g_, b_, ln_x = p(4), p(4), p(3, 4)
    case("layer_norm", (ln_x, g_, b_), lambda: layer_norm(ln_x, g_, b_))
    # [B, C, 1] from a [4, 3] draw, which keeps this case's draws and every later one's
    bn_x, bn_g, bn_b = p(4, 3), p(3), p(3)
    case(
        "batch_norm(train)",
        (bn_x, bn_g, bn_b),
        lambda: batch_norm_1d(reshape(bn_x, (4, 3, 1)), bn_g, bn_b, BatchNormState(3), training=True),
    )
    bn_state = BatchNormState(3)
    bn_state.running_mean = rng.standard_normal(3) * 0.1
    bn_state.running_var = 1.0 + rng.random(3)
    case(
        "batch_norm(eval)",
        (bn_x, bn_g, bn_b),
        lambda: batch_norm_1d(reshape(bn_x, (4, 3, 1)), bn_g, bn_b, bn_state, training=False),
    )
    cw, cb, cx = p(2, 1, 3), p(2), p(2, 1, 6)
    case("conv1d", (cw, cb, cx), lambda: conv1d(cx, cw, cb))
    case("avg_pool1d", (cx,), lambda: avg_pool1d(cx))
    mm_x = p(4, 3)
    mm_mask = Tensor(np.array([1.0, 0.0, 1.0, 1.0]))
    case("masked_mean", (mm_x,), lambda: masked_mean(mm_x, mm_mask))
    gr = p(4, 3)
    case("gather_rows", (gr,), lambda: gather_rows(gr, [0, 2, 2]))
    mt = p(2, 4)
    case_scalar("mse_loss", (mt,), lambda: mse_loss(mt, np.ones((2, 4))))
    ce_logits = p(3, 4)
    case_scalar(
        "cross_entropy_loss", (ce_logits,), lambda: cross_entropy_loss(ce_logits, np.array([0, 3, 1]))
    )

    gx = p(2, 3)
    gated = GatedLinearLayer(rng, 3, 4)
    case("GatedLinear", (gx, *gated.named_parameters().values()), lambda: gated(gx))
    swig = SwiGLULayer(rng, 3, 4)
    case("SwiGLU", (gx, *swig.named_parameters().values()), lambda: swig(gx))
    sblock = SBlock(rng, 3, 4)
    case("SBlock", (gx, *sblock.named_parameters().values()), lambda: sblock(gx))
    sgmlp = SGMLP(rng, 3, 5, 2, k=3)
    case("SGMLP", (gx, *sgmlp.named_parameters().values()), lambda: sgmlp(gx))

    conv_block = ConvBlock(rng, 1, 2, 3)
    for _ in range(64):
        cbx = p(2, 1, 8)
        pre = batch_norm_1d(
            conv1d(Tensor(cbx.data), conv_block.W, conv_block.b),
            conv_block.bn_gamma, conv_block.bn_beta, BatchNormState(2), training=True,
        )
        # keep every relu input clear of the kink by much more than the FD step
        if np.abs(pre.data).min() > 5e-3:
            break
    case(
        "ConvBlock",
        (cbx, *conv_block.named_parameters().values()),
        lambda: conv_block(cbx, training=True),
    )

    cell = CrystalStructure(
        lattice=Lattice(np.eye(3) * 2.6),
        sites=(Site(Element(2), np.zeros(3)), Site(Element(3), np.full(3, 0.5))),
        id="gradcheck",
    )
    graph = build_graph(cell, 0, cutoff=3.2)
    encoder = MPEncoder(rng, d=3, t_rounds=1, n_rbf=2, hidden=3, k=2, n_elements=4)
    case("MPEncoder", tuple(encoder.named_parameters().values()), lambda: encoder.pooled([graph]))

    seg_x = p(5, 3)
    # segments 1 and 4 are empty; each row weighted
    case("segment_sum", (seg_x,),
         lambda: segment_sum(seg_x, [0, 0, 2, 3, 3], 5, weights=[2.0, 1.0, 0.5, 3.0, 1.0]))
    el_h, el_r, el_w, el_b = p(3, 2), p(4, 2), p(3, 6), p(3)
    case("edge_linear", (el_h, el_r, el_w, el_b),
         lambda: edge_linear(el_h, el_r, [0, 0, 1, 2], [1, 2, 0, 0], el_w, el_b))
    # two graphs as one union, and k = 1: the factorized layer is the message's final one
    lone = CrystalStructure(lattice=Lattice(np.eye(3) * 2.9),
                            sites=(Site(Element(3), np.zeros(3)),))
    batch = [graph, build_graph(lone, 0, cutoff=3.2)]
    shallow = MPEncoder(rng, d=3, t_rounds=1, n_rbf=2, hidden=3, k=1, n_elements=4)
    case("MPEncoder batch", tuple(shallow.named_parameters().values()),
         lambda: shallow.pooled(batch))
    gl = p(2, 3), p(4, 3), p(4), p(4, 3), p(4)
    case("gated_linear", gl, lambda: gated_linear(*gl))
    # repeated node indices: the gradient of H sums over every edge that reads a row
    ge_h, ge_r = p(3, 2), p(4, 2)
    ge = p(3, 6), p(3), p(3, 6), p(3)
    edges = EdgeConcat(ge_h, ge_r, [0, 0, 1, 2], [1, 2, 0, 0])
    case("gated_linear(edge)", (ge_h, ge_r, *ge), lambda: gated_linear(edges, *ge))
    sw_x, sw_beta = p(2, 3), Parameter(np.array(0.8))
    sw = p(4, 3), p(4), sw_beta, p(4, 3), p(4)
    case("swiglu", (sw_x, *sw), lambda: swiglu(sw_x, *sw))
    return cases


def corrupted_case():
    x = Parameter(np.array([0.7, -0.4, 1.2]))

    def loss():
        def _backward(g):
            x.grad[...] += 1.9 * g  # wrong on purpose: forward scale is 2.0

        out = Tensor(x.data * 2.0, (x,), _backward)
        return total(mul(out, out))

    return (x,), loss


def run(seeds: int, corrupt: bool = False) -> int:
    """Check every case over `seeds` seeds and print one line per case; returns the failures.

    With `corrupt`, a deliberately wrong gradient is checked as well, and
    must fail.
    """
    failures = 0
    worst_by_case = {}
    # eps 1e-5 keeps central-difference truncation error (third-derivative
    # terms, worst through LayerNorm at small widths) below the 1e-4 gate
    for seed in range(seeds):
        for name, params, loss_fn in cases(seed):
            worst, bad = finite_difference_check(loss_fn, list(params), eps=1e-5)
            worst_by_case[name] = max(worst, worst_by_case.get(name, 0.0))
            if bad:
                failures += 1
                print(f"seed {seed:2d}  {name:22s} max_rel={worst:.3e}  FAIL")
    for name, worst in worst_by_case.items():
        print(f"{name:22s} max_rel={worst:.3e}  {'FAIL' if worst > 1e-4 else 'PASS'}")
    if corrupt:
        params, loss_fn = corrupted_case()
        worst, bad = finite_difference_check(loss_fn, list(params), eps=1e-5)
        print(f"{'corrupted fixture':22s} max_rel={worst:.3e}  {'FAIL' if bad else 'PASS'}")
        failures += bool(bad)
    print(f"gradcheck: {'FAILED' if failures else 'ok'} ({failures} failing cases)")
    return failures
