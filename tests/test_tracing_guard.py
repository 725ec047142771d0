"""The benchmark's tracer must install on, and come off, the shipped package.

perfbench/tracing.py wraps xastruct's public functions by name and the
`save`/`load`/`__call__` methods that each model class defines itself. A
rename, a deleted function or a method moved into a base class breaks it;
this test finds that without a traced benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

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
