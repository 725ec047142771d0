"""The benchmark's tracer must install on, and come off, the shipped package.

perfbench/tracing.py wraps xastruct's public functions by name and the
`save`/`load`/`__call__` methods that each model class defines itself. A
rename, a deleted function or a method moved into a base class breaks it;
these tests find that without a traced benchmark run. The second one also
runs the forward stages under the tracer and checks what its hooks read
off their results, such as the edge count of a graph.
"""

import importlib
import sys
from pathlib import Path

import pytest
from helpers import TINY_FORWARD_ARCH, cscl, forward_pairs
from xastruct.config import check_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


def _state(modules):
    """Every attribute the tracer may patch: module globals and class methods."""
    nn, pl, ad = modules["nn"], modules["pipelines"], modules["autodiff"]
    classes = (nn.MPEncoder, nn.SGMLP, nn.ConvBlock, pl.ForwardModel, pl.InverseMNND,
               pl.InverseNeighbor, pl.CNClassifier, ad.Tensor)
    state = {(name, key): v for name, mod in modules.items() for key, v in vars(mod).items()}
    for cls in classes:
        state.update({(cls.__name__, key): value for key, value in vars(cls).items()})
    return state


def test_instrument_patches_and_restores(tracing):
    modules = {name: importlib.import_module(f"xastruct.{name}") for name in tracing.MODULES}
    before = _state(modules)
    pl = modules["pipelines"]
    with tracing.instrument(tracing.Tracer(), modules):
        during = _state(modules)
        assert pl.ForwardModel.__dict__["save"] is not before[("ForwardModel", "save")]
        assert modules["cli"].build_graph is not before[("cli", "build_graph")]
    changed = [key for key, value in during.items() if before.get(key) is not value]
    assert len(changed) > 50
    after = _state(modules)
    assert after.keys() == before.keys()
    assert [key for key, value in after.items() if before[key] is not value] == []


def test_traced_forward_train_predict_and_graph_build(tracing):
    modules = {name: importlib.import_module(f"xastruct.{name}") for name in tracing.MODULES}
    crystal, pl = modules["crystal"], modules["pipelines"]
    spectra = [sp for _, sp in forward_pairs([2.3, 2.5, 2.7, 2.9, 3.1])]  # targets only
    cfg = check_config({"lr": 1e-3, "epochs": 2, "batch_size": 2, "seed": 1, **TINY_FORWARD_ARCH})
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, modules):
        structures = [cscl(a, "Cu", "O") for a in (2.3, 2.5, 2.7, 2.9, 3.1)]
        graphs = [crystal.build_graph(s, 0, 6.0) for s in structures]
        pairs = list(zip(graphs, spectra))
        _, model = pl.train_forward(pairs[:3], cfg, val_pairs=pairs[3:])
        graphs.append(crystal.build_graph(structures[0], 1, 6.0))
        one = pl.forward_predict(model, graphs[-1])
        metrics = tracing.layer_metrics(tracer)
    assert one.shape == (model.n_out,)
    assert metrics["crystal.build_graph.calls"][0] == len(graphs)
    assert metrics["crystal.build_graph.edges"][0] == sum(len(g.edges) for g in graphs) > 0
    assert metrics["pipelines.train_forward.s"][0] > 0
    assert metrics["nn.MPEncoder.calls"][0] > 0 and metrics["autodiff.backward.calls"][0] > 0
