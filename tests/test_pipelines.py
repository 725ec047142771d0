import dataclasses
import json
import math
import re

import numpy as np
import pytest
from helpers import (
    TINY_FORWARD_ARCH,
    TINY_INVERSE_ARCH,
    cscl,
    fluorite,
    forward_pairs,
    labeled_sample,
    rocksalt,
    simple_cubic,
)

from xastruct import config
from xastruct import pipelines as pl
from xastruct.autodiff import params_from_doc
from xastruct.jsonio import write_json
from xastruct.crystal import Element, build_graph
from xastruct.spectra import InsufficientDataError


# --- metrics -----------------------------------------------------------------


def test_regression_hand_case():
    m = pl.evaluate([1.0, 2.0, 6.0], [1.0, 2.0, 3.0], "regression")
    assert m.mae == pytest.approx(1.0, abs=1e-12)
    assert m.r2 == pytest.approx(-3.5, abs=1e-12)


def test_perfect_regression():
    m = pl.evaluate([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], "regression")
    assert m.mae == 0.0
    assert m.r2 == 1.0


def test_constant_predictor_r2_is_zero():
    y = [1.0, 2.0, 3.0, 6.0]
    mean = sum(y) / len(y)
    m = pl.evaluate([mean] * 4, y, "regression")
    assert m.r2 == pytest.approx(0.0, abs=1e-12)
    assert m.mae > 0


def test_regression_mae_symmetric():
    a = pl.evaluate([1.0, 5.0], [2.0, 3.0], "regression").mae
    b = pl.evaluate([2.0, 3.0], [1.0, 5.0], "regression").mae
    assert a == b == 1.5


def test_constant_targets_r2():
    assert pl.evaluate([2.0, 2.0], [2.0, 2.0], "regression").r2 == 1.0
    assert pl.evaluate([2.0, 3.0], [2.0, 2.0], "regression").r2 is None


def test_uniform_probability_cross_entropy():
    # a C-class uniform prediction costs ln(C) per sample, summed over samples
    for c in (2, 4, 7):
        proba = np.full((3, c), 1.0 / c)
        m = pl.evaluate([0, 0, 0], [0, 1 % c, 0], "classification", proba=proba, classes=list(range(c)))
        assert m.cross_entropy == pytest.approx(3 * math.log(c), rel=1e-12)


def test_perfect_classification():
    m = pl.evaluate([4, 6, 8], [4, 6, 8], "classification",
                    proba=np.eye(3), classes=[4, 6, 8])
    assert m.accuracy == 1.0
    assert m.macro_f1 == 1.0
    assert m.cross_entropy == 0.0


def test_macro_f1_hand_case():
    # class 0: P=1, R=1/2; class 1: P=1/3, R=1; class 2: no predictions, F1=0
    m = pl.evaluate([0, 1, 1, 1], [0, 0, 1, 2], "classification")
    expected = (2 / 3 + 1 / 2 + 0.0) / 3
    assert m.macro_f1 == pytest.approx(expected, rel=1e-12)
    assert m.accuracy == pytest.approx(0.5)


def test_macro_f1_relabeling_invariance():
    y = [0, 0, 1, 2, 2, 1]
    p = [0, 1, 1, 2, 0, 1]
    relabel = {0: 12, 1: 4, 2: 8}
    a = pl.evaluate(p, y, "classification").macro_f1
    b = pl.evaluate([relabel[v] for v in p], [relabel[v] for v in y], "classification").macro_f1
    assert a == b


def test_accuracy_hand_cases():
    assert pl.evaluate([1, 1, 1, 1], [1, 1, 1, 0], "classification").accuracy == 0.75
    assert pl.evaluate([0], [1], "classification").accuracy == 0.0


def test_evaluate_rejects_bad_input():
    with pytest.raises(ValueError):
        pl.evaluate([1.0], [1.0, 2.0], "regression")
    with pytest.raises(ValueError):
        pl.evaluate([], [], "regression")
    with pytest.raises(ValueError):
        pl.evaluate([1.0], [1.0], "ranking")
    with pytest.raises(ValueError):
        pl.evaluate([0], [0], "classification", proba=np.eye(1))  # classes missing


def test_metrics_report_and_json(tmp_path):
    m = pl.evaluate([1.0, 2.0, 6.0], [1.0, 2.0, 3.0], "regression")
    report = pl.metrics_report("mnnd", "unified", m, n_train=8, n_val=2, seed=7)
    assert set(report) == {
        "task", "scope", "mae", "r2", "accuracy", "macro_f1", "cross_entropy",
        "n_train", "n_val", "seed",
    }
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_json(p1, report)
    write_json(p2, report)
    assert p1.read_bytes() == p2.read_bytes()
    loaded = json.loads(p1.read_text())
    assert loaded["mae"] == 1.0 and loaded["accuracy"] is None


def test_history_csv(tmp_path):
    rows = [
        {"epoch": 0, "train_loss": 1.5, "val_metric": 0.25},
        {"epoch": 1, "train_loss": 0.5, "val_metric": None},
    ]
    path = tmp_path / "log.csv"
    pl.write_history_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_metric"
    assert lines[1] == "0,1.5,0.25"
    assert lines[2] == "1,0.5,"


# --- train config ---------------------------------------------------------------


def test_train_config_validation():
    with pytest.raises(ValueError):
        config.check_config({"lr": 0.0})
    with pytest.raises(ValueError):
        config.check_config({"weight_decay": -0.1})
    with pytest.raises(ValueError):
        config.check_config({"scope": "global"})
    with pytest.raises(ValueError, match="batch_size"):
        config.check_config({"batch_size": 0})


def test_train_config_rejects_non_finite_rates():
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lr"):
            config.check_config({"lr": value})
        with pytest.raises(ValueError, match="weight_decay"):
            config.check_config({"weight_decay": value})


def test_train_config_from_flat_dict():
    cfg = config.check_config({"lr": "0.001", "epochs": "5", "scope": "unified", "embed_dim": 16})
    assert cfg["lr"] == 0.001 and cfg["epochs"] == 5 and cfg["scope"] == "unified"
    model = pl.InverseMNND(None, 40, 40, cfg)
    assert model.arch == {key: cfg[key] for key in config.ARCH}
    assert model.arch["embed_dim"] == 16
    assert model.arch["conv_blocks"] == config.read({}, "conv_blocks") == 2


@pytest.mark.parametrize("key,value,kind", [
    ("lr", "abc", "a number"),
    ("weight_decay", "", "a number"),
    ("epochs", "1.5", "an integer"),
    ("batch_size", "eight", "an integer"),
])
def test_train_config_value_that_does_not_parse_names_its_key(key, value, kind):
    with pytest.raises(ValueError, match=rf"^config key '{key}' must be {kind}, got '{value}'$"):
        config.check_config({key: value})


def test_arch_value_that_does_not_parse_names_its_key():
    for key, value in (("embed_dim", "abc"), ("conv_blocks", "2.0")):
        with pytest.raises(ValueError, match=rf"^config key '{key}' must be an integer, "
                                             rf"got '{value}'$"):
            config.check_config({key: value})


# --- forward model ---------------------------------------------------------------


def _forward_cfg(**kw):
    base = dict(lr=3e-3, weight_decay=0.01, epochs=60, batch_size=16, seed=0, **TINY_FORWARD_ARCH)
    base.update(kw)
    return config.check_config(base)


def test_forward_requires_samples():
    with pytest.raises(InsufficientDataError):
        pl.train_forward([], _forward_cfg())


def test_forward_scope_error_on_mixed_elements():
    pairs = forward_pairs([2.4, 2.8], "Cu") + forward_pairs([2.6], "Fe")
    with pytest.raises(pl.ScopeError):
        pl.train_forward(pairs, _forward_cfg())


def test_forward_training_reduces_loss():
    pairs = forward_pairs(np.linspace(2.2, 3.0, 5))
    history, model = pl.train_forward(pairs, _forward_cfg())
    losses = [h["train_loss"] for h in history]
    assert losses[-1] < losses[0] / 10
    drops = sum(1 for a, b in zip(losses, losses[1:]) if b < a)
    assert drops / (len(losses) - 1) >= 0.9
    pred = pl.forward_predict(model, pairs[0][0])
    assert pred.shape == (pairs[0][1].grid.n,)
    assert np.all(np.isfinite(pred))


def test_forward_deterministic_for_seed():
    pairs = forward_pairs([2.4, 2.8, 3.0])
    cfg = _forward_cfg(epochs=5)
    h1, m1 = pl.train_forward(pairs, cfg)
    h2, m2 = pl.train_forward(pairs, cfg)
    assert h1 == h2
    assert np.array_equal(pl.forward_predict(m1, pairs[1][0]), pl.forward_predict(m2, pairs[1][0]))


def test_forward_permutation_invariance():
    s = rocksalt(4.2, "Ni", "O", sid="perm-a")
    swapped = type(s)(lattice=s.lattice, sites=(s.sites[1], s.sites[0]), id="perm-b")
    pairs = forward_pairs([2.4, 2.8], "Ni", cutoff=5.0)
    _, model = pl.train_forward(pairs, _forward_cfg(epochs=2))
    a = pl.forward_predict(model, build_graph(s, 0, 5.0))
    b = pl.forward_predict(model, build_graph(swapped, 1, 5.0))
    assert np.max(np.abs(a - b)) < 1e-9


def test_forward_empty_environment_rejected():
    pairs = forward_pairs([2.4, 2.8])
    _, model = pl.train_forward(pairs, _forward_cfg(epochs=2))
    g = build_graph(simple_cubic(2.5), 0, 6.0)
    hollow = dataclasses.replace(g, mask=np.zeros_like(g.mask))
    with pytest.raises(ValueError, match="empty"):
        pl.forward_predict(model, hollow)


def test_forward_checkpoint_roundtrip(tmp_path):
    pairs = forward_pairs([2.4, 2.8, 3.0])
    cfg = _forward_cfg(epochs=3)
    _, model = pl.train_forward(pairs, cfg)
    path = tmp_path / "fwd.json"
    model.save(path)
    loaded = pl.ForwardModel.load(path)
    assert loaded.element == "Cu" and loaded.kind == "XANES"
    for g, _ in pairs:
        assert np.array_equal(pl.forward_predict(model, g), pl.forward_predict(loaded, g))
    path2 = tmp_path / "fwd2.json"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_forward_early_stopping_restores_best():
    pairs = forward_pairs(np.linspace(2.2, 3.0, 6))
    cfg = _forward_cfg(epochs=400, patience=3)
    history, model = pl.train_forward(pairs[:4], cfg, val_pairs=pairs[4:])
    assert len(history) < 400
    val = [h["val_metric"] for h in history]
    best = min(val)
    got = float(np.mean([np.abs(pl.forward_predict(model, g) - sp.mu).mean() for g, sp in pairs[4:]]))
    assert got == pytest.approx(best, rel=1e-9)


def test_forward_train_loss_stop_halts_training():
    pairs = forward_pairs([2.4, 2.8, 3.0])
    cfg = _forward_cfg(epochs=200, train_loss_stop="1e9")  # any epoch clears it
    history, _ = pl.train_forward(pairs, cfg)
    assert len(history) == 1


# --- inverse mnnd ---------------------------------------------------------------


@pytest.fixture(scope="module")
def mnnd_samples():
    return [labeled_sample(simple_cubic(a)) for a in np.linspace(2.0, 3.1, 24)]


def _inverse_cfg(**kw):
    base = dict(lr=3e-3, weight_decay=0.01, epochs=10, batch_size=16, seed=1,
                scope="unified", **TINY_INVERSE_ARCH)
    base.update(kw)
    return config.check_config(base)


def test_mnnd_needs_data():
    with pytest.raises(InsufficientDataError):
        pl.train_mnnd([], _inverse_cfg())


def test_mnnd_learns_on_training_set(mnnd_samples):
    history, model = pl.train_mnnd(mnnd_samples, _inverse_cfg(epochs=30))
    losses = [h["train_loss"] for h in history]
    assert losses[-1] < losses[0] / 3
    metrics = pl.eval_mnnd(model, mnnd_samples)
    assert metrics.r2 > 0.5
    assert metrics.mae < 0.2


def test_mnnd_predict_deterministic(mnnd_samples):
    _, model = pl.train_mnnd(mnnd_samples, _inverse_cfg(epochs=2))
    a = pl.mnnd_predict(model, mnnd_samples[0])
    b = pl.mnnd_predict(model, mnnd_samples[0])
    assert a == b
    assert isinstance(a, float) and math.isfinite(a)


def test_mnnd_batch_matches_single(mnnd_samples):
    _, model = pl.train_mnnd(mnnd_samples, _inverse_cfg(epochs=2))
    batch = pl.predict_mnnd_batch(model, mnnd_samples[:5])
    singles = [pl.mnnd_predict(model, s) for s in mnnd_samples[:5]]
    assert np.allclose(batch, singles, atol=1e-9)


def test_mnnd_grid_mismatch_rejected(mnnd_samples):
    _, model = pl.train_mnnd(mnnd_samples, _inverse_cfg(epochs=1))
    other = labeled_sample(simple_cubic(2.5), n_grid=24)
    with pytest.raises(ValueError, match="grid length"):
        pl.mnnd_predict(model, other)


def test_mnnd_training_deterministic(mnnd_samples):
    cfg = _inverse_cfg(epochs=4)
    h1, m1 = pl.train_mnnd(mnnd_samples, cfg)
    h2, m2 = pl.train_mnnd(mnnd_samples, cfg)
    assert h1 == h2
    assert pl.mnnd_predict(m1, mnnd_samples[3]) == pl.mnnd_predict(m2, mnnd_samples[3])


def test_mnnd_early_stopping(mnnd_samples):
    cfg = _inverse_cfg(epochs=500, patience=4)
    history, _ = pl.train_mnnd(mnnd_samples[:18], cfg, val_samples=mnnd_samples[18:])
    assert len(history) < 500
    assert all(h["val_metric"] is not None for h in history)


def test_mnnd_checkpoint_roundtrip(mnnd_samples, tmp_path):
    cfg = _inverse_cfg(epochs=3)
    _, model = pl.train_mnnd(mnnd_samples, cfg)
    path = tmp_path / "mnnd.json"
    model.save(path)
    loaded = pl.InverseMNND.load(path)
    for s in mnnd_samples[:4]:
        assert pl.mnnd_predict(loaded, s) == pl.mnnd_predict(model, s)
    path2 = tmp_path / "mnnd2.json"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()


# --- inverse neighbor type --------------------------------------------------------


@pytest.fixture(scope="module")
def neighbor_samples():
    out = []
    for other in ("O", "S", "Se"):
        for a in np.linspace(3.8, 4.6, 8):
            out.append(labeled_sample(rocksalt(a, "Ni", other)))
    return out


def test_neighbor_classes_sorted_and_learnable(neighbor_samples):
    history, model = pl.train_neighbor(neighbor_samples, _inverse_cfg(epochs=25))
    assert model.classes == sorted(model.classes)
    assert model.classes == [8, 16, 34]
    metrics = pl.eval_neighbor(model, neighbor_samples)
    assert metrics.accuracy == 1.0
    assert metrics.macro_f1 == 1.0
    assert metrics.cross_entropy is not None
    pred = pl.neighbor_predict(model, neighbor_samples[0])
    assert isinstance(pred, Element)
    assert pred.symbol == "O"


def test_neighbor_uses_absorption_only(neighbor_samples):
    _, model = pl.train_neighbor(neighbor_samples, _inverse_cfg(epochs=2))
    s = neighbor_samples[0]
    shifted = type(s)(
        xanes=type(s.xanes)(
            grid=type(s.xanes.grid)(s.xanes.grid.values + 50.0),
            mu=s.xanes.mu,
            kind=s.xanes.kind,
            edge=s.xanes.edge,
            absorber=s.xanes.absorber,
            structure_id=s.xanes.structure_id,
        ),
        exafs=s.exafs,
        labels=s.labels,
    )
    assert np.array_equal(model.logits([s]), model.logits([shifted]))


def test_neighbor_checkpoint_roundtrip(neighbor_samples, tmp_path):
    cfg = _inverse_cfg(epochs=3)
    _, model = pl.train_neighbor(neighbor_samples, cfg)
    path = tmp_path / "nb.json"
    model.save(path)
    loaded = pl.InverseNeighbor.load(path)
    assert loaded.classes == model.classes
    for s in neighbor_samples[:3]:
        assert np.array_equal(model.logits([s]), loaded.logits([s]))


def test_neighbor_training_deterministic(neighbor_samples):
    cfg = _inverse_cfg(epochs=3)
    h1, m1 = pl.train_neighbor(neighbor_samples, cfg)
    h2, m2 = pl.train_neighbor(neighbor_samples, cfg)
    assert h1 == h2
    assert np.array_equal(m1.logits(neighbor_samples[:2]), m2.logits(neighbor_samples[:2]))


def test_inverse_train_loss_stop_halts_training(mnnd_samples, neighbor_samples):
    cfg = _inverse_cfg(epochs=50, train_loss_stop="1e9")  # any epoch clears it
    history, _ = pl.train_mnnd(mnnd_samples, cfg)
    assert len(history) == 1
    history, _ = pl.train_neighbor(neighbor_samples, cfg)
    assert len(history) == 1


# --- checkpoint codec ------------------------------------------------------------


def _with_list_params(path, out):
    """`path` rewritten with `data` as JSON lists, as checkpoints were before base64."""
    doc = json.loads(path.read_text())
    _, arrays = params_from_doc(doc)
    for name, rec in doc["params"].items():
        rec["data"] = arrays[name].reshape(-1).tolist()
    out.write_text(json.dumps(doc, sort_keys=True) + "\n")
    return out


@pytest.mark.parametrize("task", ["forward", "mnnd", "neighbor"])
def test_loaded_predictions_bit_identical_in_both_formats(task, mnnd_samples, neighbor_samples,
                                                         tmp_path):
    if task == "forward":
        pairs = forward_pairs([2.4, 2.8, 3.0])
        cfg = _forward_cfg(epochs=3)
        _, model = pl.train_forward(pairs, cfg)
        predict = lambda m: np.stack([pl.forward_predict(m, g) for g, _ in pairs])
    elif task == "mnnd":
        cfg = _inverse_cfg(epochs=3)
        _, model = pl.train_mnnd(mnnd_samples, cfg)
        predict = lambda m: pl.predict_mnnd_batch(m, mnnd_samples)
    else:
        cfg = _inverse_cfg(epochs=3)
        _, model = pl.train_neighbor(neighbor_samples, cfg)
        predict = lambda m: m.logits(neighbor_samples)
    path = tmp_path / "model.json"
    model.save(path)
    expected = predict(model).tobytes()
    for ckpt in (path, _with_list_params(path, tmp_path / "list.json")):
        assert predict(type(model).load(ckpt)).tobytes() == expected


def _seeded_build(model):
    """`model` built from glorot draws of default_rng(0), then given its state."""
    cfg, rng = config.check_config(model.arch), np.random.default_rng(0)
    if isinstance(model, pl.ForwardModel):
        built = pl.ForwardModel(rng, cfg, model.element, model.edge, model.kind, model.grid)
    elif isinstance(model, pl.InverseMNND):
        built = pl.InverseMNND(rng, model.n_xanes, model.n_exafs, cfg)
        built.y_mean, built.y_std = model.y_mean, model.y_std
    else:
        built = pl.InverseNeighbor(rng, model.n_xanes, model.n_exafs, model.classes, cfg)
    built.load_state(model.state())
    return built


@pytest.mark.parametrize("task", ["forward", "mnnd", "neighbor"])
def test_draw_free_load_predicts_the_bytes_of_a_seeded_build(task, mnnd_samples,
                                                             neighbor_samples, tmp_path,
                                                             monkeypatch):
    if task == "forward":
        pairs = forward_pairs([2.4, 2.8, 3.0])
        _, model = pl.train_forward(pairs, _forward_cfg(epochs=2))
        predict = lambda m: pl.forward_predict(m, [g for g, _ in pairs])
    elif task == "mnnd":
        _, model = pl.train_mnnd(mnnd_samples, _inverse_cfg(epochs=2))
        predict = lambda m: pl.predict_mnnd_batch(m, mnnd_samples)
    else:
        _, model = pl.train_neighbor(neighbor_samples, _inverse_cfg(epochs=2))
        predict = lambda m: m.logits(neighbor_samples)
    path = tmp_path / "model.json"
    model.save(path)
    with monkeypatch.context() as m:
        m.setattr(np.random, "default_rng", None)  # a load that made an rng would fail
        loaded = type(model).load(path)
    assert predict(loaded).tobytes() == predict(_seeded_build(loaded)).tobytes()
    assert predict(loaded).tobytes() == predict(model).tobytes()


@pytest.mark.parametrize("key,token", [
    ("y_std", "0"), ("y_std", "-0.5"), ("y_std", "1e999"), ("y_std", '"abc"'),
    ("y_std", "true"), ("y_mean", "1e999"), ("y_mean", "-1e999"), ("y_mean", '"abc"'),
    ("y_mean", "false"), ("y_mean", "null"), ("y_std", "1" + "0" * 400),
])
def test_mnnd_target_scale_that_is_no_finite_number_names_file_and_field(
    key, token, mnnd_samples, tmp_path
):
    path = tmp_path / "mnnd.json"
    pl.train_mnnd(mnnd_samples, _inverse_cfg(epochs=1))[1].save(path)
    doc = json.loads(path.read_text())
    doc["header"][key] = "@"
    path.write_text(json.dumps(doc).replace('"@"', token))
    # a real past the float range is refused as it is read, naming the line
    match = (rf"^{re.escape(str(path))}:1: non-finite number {token}$" if "e999" in token else
             rf"^checkpoint {re.escape(str(path))}: field 'header\.{key}': expected a .*finite "
             rf"number, got ")
    with pytest.raises(ValueError, match=match):
        pl.load_checkpoint(path)


# --- coordination number forest -----------------------------------------------------


@pytest.fixture(scope="module")
def cn_samples():
    # fluorite anion sites have 4 neighbors, simple cubic 6, cscl 8
    fours = [labeled_sample(fluorite(a, "Ca", "F"), absorber=4) for a in np.linspace(5.0, 5.4, 4)]
    sixes = [labeled_sample(simple_cubic(a, "Cu")) for a in np.linspace(2.2, 2.8, 4)]
    eights = [labeled_sample(cscl(a, "Cs", "Cl")) for a in np.linspace(3.8, 4.2, 4)]
    return fours + sixes + eights


def test_cn_classifier_memorizes(cn_samples):
    cns = sorted({s.labels.cn for s in cn_samples})
    assert len(cns) >= 2
    model = pl.train_cn(cn_samples, config.check_config({"seed": 3, "n_trees": 30}))
    assert model.classes == cns
    metrics = pl.eval_cn(model, cn_samples)
    assert metrics.accuracy == 1.0
    for s in cn_samples[:3]:
        assert pl.cn_predict(model, s) == s.labels.cn
        p = pl.cn_proba(model, s)
        assert p.shape == (len(cns),)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_cn_checkpoint_roundtrip(cn_samples, tmp_path):
    model = pl.train_cn(cn_samples, config.check_config({"seed": 3, "n_trees": 10}))
    path = tmp_path / "cn.json"
    model.save(path)
    loaded = pl.CNClassifier.load(path)
    assert loaded.classes == model.classes
    for s in cn_samples:
        assert pl.cn_predict(loaded, s) == pl.cn_predict(model, s)
    path2 = tmp_path / "cn2.json"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_cn_needs_data():
    with pytest.raises(InsufficientDataError):
        pl.train_cn([], config.check_config({}))


def test_model_load_of_another_task_names_the_file_and_both_tasks(mnnd_samples, cn_samples,
                                                                  tmp_path):
    mnnd, cn = tmp_path / "mnnd.json", tmp_path / "cn.json"
    pl.train_mnnd(mnnd_samples, _inverse_cfg(epochs=1))[1].save(mnnd)
    pl.train_cn(cn_samples, config.check_config({"seed": 3, "n_trees": 2})).save(cn)
    for cls, path, task in ((pl.InverseMNND, cn, "cn"), (pl.CNClassifier, mnnd, "mnnd")):
        with pytest.raises(ValueError) as exc:
            cls.load(path)
        message = str(exc.value)
        assert str(path) in message and repr(task) in message and repr(cls.task) in message


def test_cyclic_forest_is_rejected_on_load(cn_samples, tmp_path):
    """A child index that points back up the tree would send a walk round forever."""
    path = tmp_path / "cn.json"
    pl.train_cn(cn_samples, config.check_config({"seed": 3, "n_trees": 3})).save(path)
    doc = json.loads(path.read_text())
    t, nodes = next((t, nodes) for t, nodes in enumerate(doc["forest"]["trees"])
                    if "feature" in nodes[0])
    nodes[0].update(left=0, right=0)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=rf"^checkpoint .*cn\.json: tree {t} node 0 is neither a split"):
        pl.load_checkpoint(path)


def test_spectrum_models_reject_another_grid_length(mnnd_samples, neighbor_samples, cn_samples):
    """mnnd, neighbor and the cn forest read spectra through one grid check and message."""
    cfg = _inverse_cfg(epochs=1)
    forest_cfg = config.check_config({"seed": 3, "n_trees": 3})
    models = {
        pl.mnnd_predict: pl.train_mnnd(mnnd_samples, cfg)[1],
        pl.neighbor_predict: pl.train_neighbor(neighbor_samples, cfg)[1],
        pl.cn_predict: pl.train_cn(cn_samples, forest_cfg),
    }
    other = labeled_sample(simple_cubic(2.5), n_grid=24)
    message = r"^grid length mismatch: sample has \(24, 24\), model expects \(40, 40\)$"
    for predict, model in models.items():
        with pytest.raises(ValueError, match=message):
            predict(model, other)
    with pytest.raises(ValueError, match=message):
        pl.train_cn(cn_samples + [other], forest_cfg)


# --- grouping ------------------------------------------------------------------


def test_group_by_element(mnnd_samples, neighbor_samples):
    groups = pl.group_by_element(mnnd_samples + neighbor_samples)
    assert set(groups) == {"Cu", "Ni"}
    assert len(groups["Cu"]) == len(mnnd_samples)
    assert len(groups["Ni"]) == len(neighbor_samples)
