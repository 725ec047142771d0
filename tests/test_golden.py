"""Golden values of tiny seeded training runs through `pipelines`.

A refactor of the model, training or checkpoint code must leave what
training computes unchanged. These runs pin it: each neural model's
parameter names in order, per parameter its sum, sum of squares and a
fixed-seed projection, the history rows, the BatchNorm running statistics
and the validation predictions, all within 1e-12 relative.

After a deliberate change to what training computes, regenerate with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from xastruct import cli
from xastruct import pipelines as pl
from xastruct.config import check_config
from xastruct.crystal import build_graph

GOLDEN = Path(__file__).with_name("golden_models.json")
RTOL = 1e-12

CORPUS = {"seed": "5", "n_samples": "40", "elements": "Ti,Cu", "n_grid": "24"}
FORWARD_ARCH = {"encoder_dim": 4, "encoder_rounds": 2, "encoder_rbf": 4, "encoder_hidden": 4,
                "forward_hidden": 6, "forward_k": 2}
INVERSE_ARCH = {"embed_dim": 4, "embed_hidden": 6, "conv_channels": 2, "head_hidden": 6}


def _param_stats(model):
    """name -> [size, sum, sum of squares, projection on fixed standard-normal weights]."""
    out = {}
    for name, p in model.named_parameters().items():
        flat = p.data.reshape(-1)
        weights = np.random.default_rng(0).standard_normal(flat.size)
        out[name] = [flat.size, float(flat.sum()), float(flat @ flat), float(flat @ weights)]
    return out


def _neural(history, model, predictions, buffers):
    return {
        "names": list(model.named_parameters()),
        "params": _param_stats(model),
        "history": [[h["epoch"], h["train_loss"], h["val_metric"]] for h in history],
        "buffers": {k: np.asarray(v, dtype=float).tolist() for k, v in buffers.items()},
        "predictions": np.asarray(predictions, dtype=float).tolist(),
    }


def fingerprints() -> dict:
    cfg = dict(cli.CONFIG_DEFAULTS)
    cfg.update(CORPUS)
    samples, structures = cli.synth_samples(cfg)
    train, val = samples[:30], samples[30:]
    out = {}

    pairs = [(build_graph(s, a, 4.0), smp.xanes)
             for smp, (s, a) in zip(samples, structures) if smp.xanes.absorber.symbol == "Cu"]
    fcfg = check_config({"lr": 1e-2, "epochs": 3, "batch_size": 4, "seed": 2, **FORWARD_ARCH})
    history, model = pl.train_forward(pairs[:-4], fcfg, val_pairs=pairs[-4:])
    preds = [pl.forward_predict(model, g) for g, _ in pairs[-4:]]
    out["forward"] = _neural(history, model, preds, {"y_center": model.y_center})

    # patience 2 fires after epoch 8; the best epoch is 6
    mcfg = check_config({"lr": 3e-2, "epochs": 12, "batch_size": 8, "seed": 3, "patience": 2,
                         **INVERSE_ARCH})
    history, model = pl.train_mnnd(train, mcfg, val_samples=val)
    stats = {}
    for stack in ("conv_xanes", "conv_exafs"):
        for i, block in enumerate(getattr(model, stack)):
            stats[f"{stack}{i}.running_mean"] = block.bn_state.running_mean
            stats[f"{stack}{i}.running_var"] = block.bn_state.running_var
    out["mnnd"] = _neural(history, model, pl.predict_mnnd_batch(model, val), stats)

    ncfg = check_config({"lr": 1e-2, "epochs": 4, "batch_size": 8, "seed": 4, "patience": 2,
                         **INVERSE_ARCH})
    history, model = pl.train_neighbor(train, ncfg, val_samples=val)
    out["neighbor"] = _neural(history, model, model.logits(val), {})

    cn = pl.train_cn(train, check_config({"seed": 6, "n_trees": 5, "max_depth": 4}))
    out["cn"] = {"classes": cn.classes,
                 "predictions": np.stack([pl.cn_proba(cn, s) for s in val]).tolist()}
    return out


@pytest.fixture(scope="module")
def runs():
    return fingerprints()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def assert_close(got, want, scale, where):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, where
    err = np.max(np.abs(got - want), initial=0.0)
    assert err <= RTOL * scale, f"{where}: off by {err:.3e}, scale {scale:.3e}"


def _magnitude(values) -> float:
    return float(np.max(np.abs(np.asarray(values, dtype=float)), initial=0.0))


def test_mnnd_run_stops_early(runs):
    assert len(runs["mnnd"]["history"]) < 12


@pytest.mark.parametrize("task", ["forward", "mnnd", "neighbor"])
def test_neural_run_matches_golden(runs, golden, task):
    got, want = runs[task], golden[task]
    assert got["names"] == want["names"]
    for name in want["names"]:
        (size, s, ss, proj), (wsize, ws, wss, wproj) = got["params"][name], want["params"][name]
        assert size == wsize, f"{task} {name} size"
        assert_close(ss, wss, wss, f"{task} {name} sum of squares")
        # a sum or projection may cancel to near zero: measure it against the
        # largest value it could take, sqrt(size * sum of squares)
        bound = np.sqrt(wsize * wss)
        for value, pinned, what in ((s, ws, "sum"), (proj, wproj, "projection")):
            assert_close(value, pinned, max(abs(pinned), bound), f"{task} {name} {what}")
    assert [h[0] for h in got["history"]] == [h[0] for h in want["history"]]
    for (epoch, loss, val), (_, wloss, wval) in zip(got["history"], want["history"]):
        assert_close(loss, wloss, abs(wloss), f"{task} epoch {epoch} train_loss")
        assert_close(val, wval, abs(wval), f"{task} epoch {epoch} val_metric")
    assert list(got["buffers"]) == list(want["buffers"])
    for key, values in want["buffers"].items():
        assert_close(got["buffers"][key], values, _magnitude(values), f"{task} buffer {key}")
    assert_close(got["predictions"], want["predictions"], _magnitude(want["predictions"]),
                 f"{task} validation predictions")


def test_cn_run_matches_golden(runs, golden):
    assert runs["cn"]["classes"] == golden["cn"]["classes"]
    assert_close(runs["cn"]["predictions"], golden["cn"]["predictions"], 1.0, "cn probabilities")


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(fingerprints(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
