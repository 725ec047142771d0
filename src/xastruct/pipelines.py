"""Model assemblies, training loops, and evaluation metrics.

Four predictors:
  * ForwardModel      structure graph -> spectrum values (one model per
                      element/edge/kind combination)
  * InverseMNND       spectrum pair -> mean nearest-neighbor distance,
                      one unified model across elements
  * InverseNeighbor   spectrum pair -> dominant neighbor species, from
                      the absorption embeddings only
  * CNClassifier      spectrum pair -> coordination number, random forest
                      on the concatenated raw spectra

Training is plain AdamW with minibatch shuffling, optional early stopping
on a validation metric, and deterministic behavior for a fixed seed.
"""

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import forest as rf
from .autodiff import (
    Tensor,
    add,
    adamw_step,
    backward,
    concat,
    cross_entropy_loss,
    load_into,
    mse_loss,
    mul,
    params_from_doc,
    reshape,
    save_params,
    softmax,
    zero_grad,
)
from .crystal import Element, StructureGraph
from .nn import ConvBlock, MPEncoder, SGMLP
from .spectra import InsufficientDataError, LabeledSample


class ScopeError(ValueError):
    pass


# architecture hyperparameters; flat config keys override these
DEFAULT_ARCH = {
    "encoder_dim": 64,
    "encoder_rounds": 3,
    "encoder_rbf": 16,
    "encoder_hidden": 64,
    "encoder_k": 2,
    "forward_hidden": 128,
    "forward_k": 3,
    "masked_mean_by_mask_sum": 0,
    "embed_dim": 32,
    "embed_hidden": 64,
    "embed_k": 2,
    "conv_channels": 8,
    "conv_blocks": 2,
    "conv_kernel": 3,
    "head_hidden": 64,
    "head_k": 2,
}


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-4
    weight_decay: float = 0.01
    epochs: int = 100
    batch_size: int = 16
    seed: int = 0
    scope: str = "per-element"
    patience: int = 20
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be non-negative, got {self.weight_decay}")
        if self.scope not in ("per-element", "unified"):
            raise ValueError(f"scope must be per-element or unified, got {self.scope!r}")

    @classmethod
    def from_config(cls, cfg: dict) -> "TrainConfig":
        known = {
            "lr": float,
            "weight_decay": float,
            "epochs": int,
            "batch_size": int,
            "seed": int,
            "patience": int,
            "scope": str,
        }
        kwargs = {k: cast(cfg[k]) for k, cast in known.items() if k in cfg}
        extras = {k: v for k, v in cfg.items() if k not in known}
        return cls(extras=extras, **kwargs)

    def arch(self, key: str):
        value = self.extras.get(key, DEFAULT_ARCH[key])
        return type(DEFAULT_ARCH[key])(value)


# --- metrics ------------------------------------------------------------------


@dataclass(frozen=True)
class Metrics:
    mae: float = None
    r2: float = None
    accuracy: float = None
    macro_f1: float = None
    cross_entropy: float = None

    def to_dict(self) -> dict:
        return {
            "mae": self.mae,
            "r2": self.r2,
            "accuracy": self.accuracy,
            "macro_f1": self.macro_f1,
            "cross_entropy": self.cross_entropy,
        }


def _regression_metrics(predictions, targets):
    p = np.asarray(predictions, dtype=float).reshape(-1)
    t = np.asarray(targets, dtype=float).reshape(-1)
    mae = float(np.mean(np.abs(p - t)))
    ss_res = float(np.sum((t - p) ** 2))
    ss_tot = float(np.sum((t - np.mean(t)) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res == 0.0 else None  # constant targets: R^2 undefined
    else:
        r2 = 1.0 - ss_res / ss_tot
    return mae, r2


def macro_f1_score(y_true, y_pred) -> float:
    """Mean per-class F1 over every class seen in targets or predictions.

    A class with no true and no predicted members contributes F1 = 0 only
    if it appears at all; classes absent from both sides are not scored.
    """
    y_true, y_pred = list(y_true), list(y_pred)
    classes = sorted(set(y_true) | set(y_pred), key=repr)
    scores = []
    for c in classes:
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        scores.append(f1)
    return float(np.mean(scores))


def evaluate(predictions, targets, task: str, proba=None, classes=None) -> Metrics:
    """Metrics for one prediction run.

    task "regression": predictions/targets are reals; fills mae and r2.
    task "classification": predictions/targets are labels; fills accuracy
    and macro_f1, plus cross_entropy (summed over samples, not averaged)
    when per-class probabilities and their class order are given.
    """
    predictions, targets = list(predictions), list(targets)
    if len(predictions) != len(targets):
        raise ValueError(f"length mismatch: {len(predictions)} vs {len(targets)}")
    if not predictions:
        raise ValueError("cannot evaluate an empty prediction set")
    if task == "regression":
        mae, r2 = _regression_metrics(predictions, targets)
        return Metrics(mae=mae, r2=r2)
    if task == "classification":
        accuracy = float(np.mean([p == t for p, t in zip(predictions, targets)]))
        f1 = macro_f1_score(targets, predictions)
        ce = None
        if proba is not None:
            if classes is None:
                raise ValueError("classification cross-entropy needs the class order")
            index = {c: i for i, c in enumerate(classes)}
            proba = np.asarray(proba, dtype=float)
            cols = np.array([index.get(t, -1) for t in targets])
            rows = np.arange(len(targets))
            # a true class the model has no column for gets probability zero
            picked = np.where(cols >= 0, proba[rows, np.maximum(cols, 0)], 0.0)
            ce = float(-np.sum(np.log(np.maximum(picked, 1e-300)))) + 0.0
        return Metrics(accuracy=accuracy, macro_f1=f1, cross_entropy=ce)
    raise ValueError(f"unknown task kind {task!r}")


def metrics_report(task: str, scope: str, metrics: Metrics, n_train: int, n_val: int, seed: int) -> dict:
    report = {"task": task, "scope": scope, "n_train": n_train, "n_val": n_val, "seed": seed}
    report.update(metrics.to_dict())
    return report


def write_metrics_json(report: dict, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(report, fh, sort_keys=True)
        fh.write("\n")


def write_history_csv(history: list, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_metric"])
        for row in history:
            val = "" if row["val_metric"] is None else f"{row['val_metric']:.10g}"
            writer.writerow([row["epoch"], f"{row['train_loss']:.10g}", val])


# --- shared helpers -----------------------------------------------------------


class Standardizer:
    """Per-feature affine map to zero mean / unit variance, fit on training data."""

    def __init__(self, mean: np.ndarray, std: np.ndarray):
        self.mean = np.asarray(mean, dtype=float)
        self.std = np.asarray(std, dtype=float)

    @classmethod
    def fit(cls, X: np.ndarray) -> "Standardizer":
        X = np.asarray(X, dtype=float)
        return cls(X.mean(axis=0), np.maximum(X.std(axis=0), 1e-8))

    def apply(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.mean) / self.std


def _mean_loss(losses):
    out = losses[0]
    for item in losses[1:]:
        out = add(out, item)
    return mul(out, Tensor(np.array(1.0 / len(losses))))


def _epoch_batches(n: int, batch_size: int, rng) -> list:
    order = rng.permutation(n)
    return [order[i : i + batch_size] for i in range(0, n, batch_size)]


def _snapshot(params: dict) -> dict:
    return {name: p.data.copy() for name, p in params.items()}


def _restore(params: dict, snap: dict) -> None:
    for name, p in params.items():
        p.data[...] = snap[name]


def _sample_matrices(samples, n_xanes: int, n_exafs: int):
    """Stack (xanes E, xanes mu, exafs E, exafs mu) rows; validates grid lengths."""
    for s in samples:
        if s.xanes.grid.n != n_xanes or s.exafs.grid.n != n_exafs:
            raise ValueError(
                f"grid length mismatch: sample has ({s.xanes.grid.n}, {s.exafs.grid.n}), "
                f"model expects ({n_xanes}, {n_exafs})"
            )
    ex = np.stack([s.xanes.grid.values for s in samples])
    ax = np.stack([s.xanes.mu for s in samples])
    ee = np.stack([s.exafs.grid.values for s in samples])
    ae = np.stack([s.exafs.mu for s in samples])
    return ex, ax, ee, ae


def read_checkpoint(path) -> dict:
    """The parsed JSON document of a checkpoint file; each model's from_doc builds it."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"checkpoint {path} is not valid JSON: {exc}") from None


# --- forward model -------------------------------------------------------------


class ForwardModel:
    """Graph encoder + SGMLP head predicting an n-point spectrum."""

    def __init__(self, rng, n_out: int, cfg: TrainConfig, element: str, edge: str, kind: str, grid_values):
        self.encoder = MPEncoder(
            rng,
            d=cfg.arch("encoder_dim"),
            t_rounds=cfg.arch("encoder_rounds"),
            n_rbf=cfg.arch("encoder_rbf"),
            hidden=cfg.arch("encoder_hidden"),
            k=cfg.arch("encoder_k"),
        )
        self.head = SGMLP(rng, cfg.arch("encoder_dim"), cfg.arch("forward_hidden"), n_out, cfg.arch("forward_k"))
        self.by_mask_sum = bool(cfg.arch("masked_mean_by_mask_sum"))
        self.n_out = n_out
        self.element = element
        self.edge = edge
        self.kind = kind
        self.grid_values = np.asarray(grid_values, dtype=float)
        # the head learns the residual around the mean training spectrum
        self.y_center = np.zeros(n_out)

    def predict_tensor(self, g: StructureGraph) -> Tensor:
        """Residual prediction; add y_center for the spectrum itself."""
        if not np.any(g.mask):
            raise ValueError("graph mask selects no nodes: empty absorber environment")
        return self.head(self.encoder.pooled(g, by_mask_sum=self.by_mask_sum))

    def named_parameters(self) -> dict:
        out = self.encoder.named_parameters("encoder.")
        out.update(self.head.named_parameters("head."))
        return out

    def save(self, path, cfg: TrainConfig) -> None:
        header = {
            "task": "forward",
            "element": self.element,
            "edge": self.edge,
            "kind": self.kind,
            "n_out": self.n_out,
            "grid": [float(v) for v in self.grid_values],
            "arch": {k: cfg.arch(k) for k in DEFAULT_ARCH},
        }
        merged = dict(self.named_parameters())
        merged["y_center"] = self.y_center
        save_params(merged, path, header=header)

    @classmethod
    def load(cls, path) -> "ForwardModel":
        return cls.from_doc(read_checkpoint(path))

    @classmethod
    def from_doc(cls, doc: dict) -> "ForwardModel":
        header, arrays = params_from_doc(doc)
        if header.get("task") != "forward":
            raise ValueError(f"checkpoint task {header.get('task')!r} is not a forward model")
        cfg = TrainConfig(extras=header["arch"])
        model = cls(
            np.random.default_rng(0),
            n_out=header["n_out"],
            cfg=cfg,
            element=header["element"],
            edge=header["edge"],
            kind=header["kind"],
            grid_values=header["grid"],
        )
        load_into(model.named_parameters(), arrays)
        model.y_center = arrays["y_center"]
        return model


def forward_predict(model: ForwardModel, g: StructureGraph) -> np.ndarray:
    return model.predict_tensor(g).data + model.y_center


def train_forward(pairs, cfg: TrainConfig, val_pairs=None):
    """Fit one forward model on (StructureGraph, Spectrum) pairs.

    One model covers exactly one absorber/edge/kind combination; mixing
    them in the training set is a scope error, not something to average
    over. Minibatch AdamW on the mean squared error of the mu values.
    """
    if not pairs:
        raise InsufficientDataError("forward training needs at least one sample")
    first = pairs[0][1]
    triple = (first.absorber.symbol, first.edge, first.kind)
    for _, sp in pairs:
        if (sp.absorber.symbol, sp.edge, sp.kind) != triple:
            raise ScopeError(
                f"forward training mixes {(sp.absorber.symbol, sp.edge, sp.kind)} with {triple}; "
                "train one model per element, edge, and spectrum kind"
            )
        if sp.grid.n != first.grid.n:
            raise ScopeError("forward training mixes spectra of different grid lengths")

    rng = np.random.default_rng(cfg.seed)
    model = ForwardModel(rng, first.grid.n, cfg, *triple, grid_values=first.grid.values)
    model.y_center = np.mean([sp.mu for _, sp in pairs], axis=0)
    history = _fit_forward(model, pairs, cfg, val_pairs, rng)
    return history, model


def _fit_forward(model, pairs, cfg, val_pairs, rng):
    params = model.named_parameters()
    plist = list(params.values())
    graphs = [g for g, _ in pairs]
    # MSE(head + center, mu) == MSE(head, mu - center): train on residuals
    targets = [sp.mu - model.y_center for _, sp in pairs]
    # optional stopping target on the epoch training loss, e.g. for overfit probes
    loss_stop = float(cfg.extras.get("train_loss_stop", 0.0) or 0.0)
    history = []
    best = (np.inf, None)
    patience_left = cfg.patience
    for epoch in range(cfg.epochs):
        epoch_losses = []
        for batch in _epoch_batches(len(pairs), cfg.batch_size, rng):
            losses = [mse_loss(model.predict_tensor(graphs[i]), targets[i]) for i in batch]
            loss = _mean_loss(losses)
            zero_grad(plist)
            backward(loss)
            adamw_step(plist, lr=cfg.lr, weight_decay=cfg.weight_decay)
            epoch_losses.append(loss.item())
        val_metric = None
        if val_pairs:
            val_metric = float(
                np.mean([np.abs(forward_predict(model, g) - sp.mu).mean() for g, sp in val_pairs])
            )
            if val_metric < best[0]:
                best = (val_metric, _snapshot(params))
                patience_left = cfg.patience
            else:
                patience_left -= 1
        history.append(
            {"epoch": epoch, "train_loss": float(np.mean(epoch_losses)), "val_metric": val_metric}
        )
        if val_pairs and patience_left <= 0:
            break
        if loss_stop and history[-1]["train_loss"] < loss_stop:
            break
    if best[1] is not None:
        _restore(params, best[1])
    return history


# --- inverse MNND ---------------------------------------------------------------


class InverseMNND:
    """Energy+absorption embeddings per kind, conv stacks, scalar distance head."""

    def __init__(self, rng, n_xanes: int, n_exafs: int, cfg: TrainConfig):
        d = cfg.arch("embed_dim")
        hidden = cfg.arch("embed_hidden")
        k = cfg.arch("embed_k")
        self.f_E_xanes = SGMLP(rng, n_xanes, hidden, d, k)
        self.f_A_xanes = SGMLP(rng, n_xanes, hidden, d, k)
        self.f_E_exafs = SGMLP(rng, n_exafs, hidden, d, k)
        self.f_A_exafs = SGMLP(rng, n_exafs, hidden, d, k)
        channels = cfg.arch("conv_channels")
        kernel = cfg.arch("conv_kernel")
        n_blocks = cfg.arch("conv_blocks")
        self.conv_xanes = []
        self.conv_exafs = []
        length = 2 * d
        for b in range(n_blocks):
            c_in = 1 if b == 0 else channels
            self.conv_xanes.append(ConvBlock(rng, c_in, channels, kernel))
            self.conv_exafs.append(ConvBlock(rng, c_in, channels, kernel))
            length //= 2
        if length < 1:
            raise ValueError("too many conv blocks for the embedding width")
        feat = 2 * channels * length
        self.f_d = SGMLP(rng, feat, cfg.arch("head_hidden"), 1, cfg.arch("head_k"))
        self.d = d
        self.n_xanes = n_xanes
        self.n_exafs = n_exafs
        # input/target normalization, set by the training loop
        self.norm = {}
        self.y_mean = 0.0
        self.y_std = 1.0
        self.element = None  # absorber symbol of a per-element model

    def _conv_features(self, blocks, z, training):
        h = reshape(z, (z.shape[0], 1, z.shape[1]))
        for block in blocks:
            h = block(h, training)
        return reshape(h, (h.shape[0], h.shape[1] * h.shape[2]))

    def forward(self, ex, ax, ee, ae, training: bool) -> Tensor:
        z_x = concat([self.f_E_xanes(ex), self.f_A_xanes(ax)], axis=1)  # [B, 2d]
        z_e = concat([self.f_E_exafs(ee), self.f_A_exafs(ae)], axis=1)
        fx = self._conv_features(self.conv_xanes, z_x, training)
        fe = self._conv_features(self.conv_exafs, z_e, training)
        out = self.f_d(concat([fx, fe], axis=1))  # [B, 1]
        return reshape(out, (out.shape[0],))

    def standardized_inputs(self, samples):
        ex, ax, ee, ae = _sample_matrices(samples, self.n_xanes, self.n_exafs)
        return (
            Tensor(self.norm["ex"].apply(ex)),
            Tensor(self.norm["ax"].apply(ax)),
            Tensor(self.norm["ee"].apply(ee)),
            Tensor(self.norm["ae"].apply(ae)),
        )

    def named_parameters(self) -> dict:
        out = {}
        out.update(self.f_E_xanes.named_parameters("f_E_xanes."))
        out.update(self.f_A_xanes.named_parameters("f_A_xanes."))
        out.update(self.f_E_exafs.named_parameters("f_E_exafs."))
        out.update(self.f_A_exafs.named_parameters("f_A_exafs."))
        for i, block in enumerate(self.conv_xanes):
            out.update(block.named_parameters(f"conv_xanes{i}."))
        for i, block in enumerate(self.conv_exafs):
            out.update(block.named_parameters(f"conv_exafs{i}."))
        out.update(self.f_d.named_parameters("f_d."))
        return out

    def _named_buffers(self) -> dict:
        out = {}
        for i, block in enumerate(self.conv_xanes):
            out.update(block.named_buffers(f"conv_xanes{i}."))
        for i, block in enumerate(self.conv_exafs):
            out.update(block.named_buffers(f"conv_exafs{i}."))
        for key, std in self.norm.items():
            out[f"norm.{key}.mean"] = std.mean
            out[f"norm.{key}.std"] = std.std
        return out

    def save(self, path, cfg: TrainConfig) -> None:
        header = {
            "task": "mnnd",
            "n_xanes": self.n_xanes,
            "n_exafs": self.n_exafs,
            "y_mean": self.y_mean,
            "y_std": self.y_std,
            "arch": {k: cfg.arch(k) for k in DEFAULT_ARCH},
        }
        if self.element is not None:
            header["element"] = self.element
        merged = dict(self.named_parameters())
        merged.update(self._named_buffers())
        save_params(merged, path, header=header)

    @classmethod
    def load(cls, path) -> "InverseMNND":
        return cls.from_doc(read_checkpoint(path))

    @classmethod
    def from_doc(cls, doc: dict) -> "InverseMNND":
        header, arrays = params_from_doc(doc)
        if header.get("task") != "mnnd":
            raise ValueError(f"checkpoint task {header.get('task')!r} is not an mnnd model")
        cfg = TrainConfig(extras=header["arch"])
        model = cls(np.random.default_rng(0), header["n_xanes"], header["n_exafs"], cfg)
        load_into(model.named_parameters(), arrays)
        for i, block in enumerate(model.conv_xanes):
            block.load_buffers(arrays, f"conv_xanes{i}.")
        for i, block in enumerate(model.conv_exafs):
            block.load_buffers(arrays, f"conv_exafs{i}.")
        model.norm = {
            key: Standardizer(arrays[f"norm.{key}.mean"], arrays[f"norm.{key}.std"])
            for key in ("ex", "ax", "ee", "ae")
        }
        model.y_mean = float(header["y_mean"])
        model.y_std = float(header["y_std"])
        model.element = header.get("element")
        return model


def mnnd_predict(model: InverseMNND, sample: LabeledSample) -> float:
    inputs = model.standardized_inputs([sample])
    out = model.forward(*inputs, training=False)
    return float(out.data[0]) * model.y_std + model.y_mean


def train_mnnd(samples, cfg: TrainConfig, val_samples=None):
    if len(samples) < 2:
        raise InsufficientDataError("mnnd training needs at least 2 samples")
    n_xanes = samples[0].xanes.grid.n
    n_exafs = samples[0].exafs.grid.n
    rng = np.random.default_rng(cfg.seed)
    model = InverseMNND(rng, n_xanes, n_exafs, cfg)

    ex, ax, ee, ae = _sample_matrices(samples, n_xanes, n_exafs)
    model.norm = {
        "ex": Standardizer.fit(ex),
        "ax": Standardizer.fit(ax),
        "ee": Standardizer.fit(ee),
        "ae": Standardizer.fit(ae),
    }
    y = np.array([s.labels.mnnd for s in samples])
    model.y_mean = float(y.mean())
    model.y_std = float(max(y.std(), 1e-8))
    y_norm = (y - model.y_mean) / model.y_std

    X = [
        model.norm["ex"].apply(ex),
        model.norm["ax"].apply(ax),
        model.norm["ee"].apply(ee),
        model.norm["ae"].apply(ae),
    ]
    params = model.named_parameters()
    plist = list(params.values())
    history = []
    best = (np.inf, None, None)
    patience_left = cfg.patience
    for epoch in range(cfg.epochs):
        epoch_losses = []
        for batch in _epoch_batches(len(samples), cfg.batch_size, rng):
            inputs = [Tensor(mat[batch]) for mat in X]
            pred = model.forward(*inputs, training=True)
            loss = mse_loss(pred, y_norm[batch])
            zero_grad(plist)
            backward(loss)
            adamw_step(plist, lr=cfg.lr, weight_decay=cfg.weight_decay)
            epoch_losses.append(loss.item())
        val_metric = None
        if val_samples:
            preds = predict_mnnd_batch(model, val_samples)
            val_metric = float(np.mean(np.abs(preds - np.array([s.labels.mnnd for s in val_samples]))))
            if val_metric < best[0]:
                best = (val_metric, _snapshot(params), model._named_buffers())
                patience_left = cfg.patience
            else:
                patience_left -= 1
        history.append(
            {"epoch": epoch, "train_loss": float(np.mean(epoch_losses)), "val_metric": val_metric}
        )
        if val_samples and patience_left <= 0:
            break
    if best[1] is not None:
        _restore(params, best[1])
        _restore_buffers(model, best[2])
    return history, model


def _restore_buffers(model: InverseMNND, buffers: dict) -> None:
    for i, block in enumerate(model.conv_xanes):
        block.load_buffers(buffers, f"conv_xanes{i}.")
    for i, block in enumerate(model.conv_exafs):
        block.load_buffers(buffers, f"conv_exafs{i}.")


def predict_mnnd_batch(model: InverseMNND, samples) -> np.ndarray:
    inputs = model.standardized_inputs(samples)
    out = model.forward(*inputs, training=False)
    return out.data * model.y_std + model.y_mean


# --- inverse neighbor type -------------------------------------------------------


class InverseNeighbor:
    """Absorption-only embeddings into a species classifier.

    Deliberately never sees the energy axes: the classifier consumes
    [z_a,xanes | z_a,exafs] alone.
    """

    def __init__(self, rng, n_xanes: int, n_exafs: int, classes, cfg: TrainConfig):
        d = cfg.arch("embed_dim")
        hidden = cfg.arch("embed_hidden")
        k = cfg.arch("embed_k")
        self.f_A_xanes = SGMLP(rng, n_xanes, hidden, d, k)
        self.f_A_exafs = SGMLP(rng, n_exafs, hidden, d, k)
        self.f_t = SGMLP(rng, 2 * d, cfg.arch("head_hidden"), len(classes), cfg.arch("head_k"))
        self.classes = [int(z) for z in classes]  # atomic numbers, sorted
        self.n_xanes = n_xanes
        self.n_exafs = n_exafs
        self.norm = {}
        self.element = None  # absorber symbol of a per-element model

    def forward(self, ax, ae) -> Tensor:
        z = concat([self.f_A_xanes(ax), self.f_A_exafs(ae)], axis=1)
        return self.f_t(z)

    def logits(self, samples) -> np.ndarray:
        _, ax, _, ae = _sample_matrices(samples, self.n_xanes, self.n_exafs)
        out = self.forward(Tensor(self.norm["ax"].apply(ax)), Tensor(self.norm["ae"].apply(ae)))
        return out.data

    def named_parameters(self) -> dict:
        out = {}
        out.update(self.f_A_xanes.named_parameters("f_A_xanes."))
        out.update(self.f_A_exafs.named_parameters("f_A_exafs."))
        out.update(self.f_t.named_parameters("f_t."))
        return out

    def save(self, path, cfg: TrainConfig) -> None:
        header = {
            "task": "neighbor",
            "n_xanes": self.n_xanes,
            "n_exafs": self.n_exafs,
            "classes": self.classes,
            "arch": {k: cfg.arch(k) for k in DEFAULT_ARCH},
        }
        if self.element is not None:
            header["element"] = self.element
        merged = dict(self.named_parameters())
        for key, std in self.norm.items():
            merged[f"norm.{key}.mean"] = std.mean
            merged[f"norm.{key}.std"] = std.std
        save_params(merged, path, header=header)

    @classmethod
    def load(cls, path) -> "InverseNeighbor":
        return cls.from_doc(read_checkpoint(path))

    @classmethod
    def from_doc(cls, doc: dict) -> "InverseNeighbor":
        header, arrays = params_from_doc(doc)
        if header.get("task") != "neighbor":
            raise ValueError(f"checkpoint task {header.get('task')!r} is not a neighbor model")
        cfg = TrainConfig(extras=header["arch"])
        model = cls(
            np.random.default_rng(0), header["n_xanes"], header["n_exafs"], header["classes"], cfg
        )
        load_into(model.named_parameters(), arrays)
        model.norm = {
            key: Standardizer(arrays[f"norm.{key}.mean"], arrays[f"norm.{key}.std"])
            for key in ("ax", "ae")
        }
        model.element = header.get("element")
        return model


def neighbor_predict(model: InverseNeighbor, sample: LabeledSample) -> Element:
    logits = model.logits([sample])[0]
    return Element(model.classes[int(np.argmax(logits))])


def train_neighbor(samples, cfg: TrainConfig, val_samples=None):
    if len(samples) < 2:
        raise InsufficientDataError("neighbor training needs at least 2 samples")
    n_xanes = samples[0].xanes.grid.n
    n_exafs = samples[0].exafs.grid.n
    classes = sorted({s.labels.neighbor_type.atomic_number for s in samples})
    class_index = {z: i for i, z in enumerate(classes)}
    rng = np.random.default_rng(cfg.seed)
    model = InverseNeighbor(rng, n_xanes, n_exafs, classes, cfg)

    _, ax, _, ae = _sample_matrices(samples, n_xanes, n_exafs)
    model.norm = {"ax": Standardizer.fit(ax), "ae": Standardizer.fit(ae)}
    Xa = model.norm["ax"].apply(ax)
    Xe = model.norm["ae"].apply(ae)
    y = np.array([class_index[s.labels.neighbor_type.atomic_number] for s in samples])

    params = model.named_parameters()
    plist = list(params.values())
    history = []
    best = (np.inf, None)
    patience_left = cfg.patience
    for epoch in range(cfg.epochs):
        epoch_losses = []
        for batch in _epoch_batches(len(samples), cfg.batch_size, rng):
            logits = model.forward(Tensor(Xa[batch]), Tensor(Xe[batch]))
            loss = cross_entropy_loss(logits, y[batch])
            zero_grad(plist)
            backward(loss)
            adamw_step(plist, lr=cfg.lr, weight_decay=cfg.weight_decay)
            epoch_losses.append(loss.item())
        val_metric = None
        if val_samples:
            logits = model.logits(val_samples)
            yv = np.array(
                [class_index.get(s.labels.neighbor_type.atomic_number, -1) for s in val_samples]
            )
            p = softmax(logits)
            known = yv >= 0
            if known.any():
                val_metric = float(-np.mean(np.log(np.maximum(p[known, yv[known]], 1e-300))))
            else:
                val_metric = float("inf")
            if val_metric < best[0]:
                best = (val_metric, _snapshot(params))
                patience_left = cfg.patience
            else:
                patience_left -= 1
        history.append(
            {"epoch": epoch, "train_loss": float(np.mean(epoch_losses)), "val_metric": val_metric}
        )
        if val_samples and patience_left <= 0:
            break
    if best[1] is not None:
        _restore(params, best[1])
    return history, model


# --- coordination-number forest ----------------------------------------------------


class CNClassifier:
    """Random forest over [x_xanes | x_exafs]; classes are the observed CNs."""

    def __init__(self, forest_model: rf.RandomForest, classes, n_xanes: int, n_exafs: int):
        self.forest = forest_model
        self.classes = [int(c) for c in classes]
        self.n_xanes = n_xanes
        self.n_exafs = n_exafs
        self.element = None  # absorber symbol of a per-element model

    def features(self, sample: LabeledSample) -> np.ndarray:
        if sample.xanes.grid.n != self.n_xanes or sample.exafs.grid.n != self.n_exafs:
            raise ValueError(
                f"feature length mismatch: sample has ({sample.xanes.grid.n}, {sample.exafs.grid.n}), "
                f"model expects ({self.n_xanes}, {self.n_exafs})"
            )
        return np.concatenate([sample.xanes.mu, sample.exafs.mu])

    def save(self, path) -> None:
        header = {
            "task": "cn",
            "classes": self.classes,
            "n_xanes": self.n_xanes,
            "n_exafs": self.n_exafs,
        }
        if self.element is not None:
            header["element"] = self.element
        doc = {"header": header, "forest": rf.forest_to_doc(self.forest)}
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "CNClassifier":
        return cls.from_doc(read_checkpoint(path))

    @classmethod
    def from_doc(cls, doc: dict) -> "CNClassifier":
        header = doc["header"]
        if header.get("task") != "cn":
            raise ValueError(f"checkpoint task {header.get('task')!r} is not a cn model")
        forest_model = rf.forest_from_doc(doc["forest"])
        model = cls(forest_model, header["classes"], header["n_xanes"], header["n_exafs"])
        model.element = header.get("element")
        return model


def cn_predict(model: CNClassifier, sample: LabeledSample) -> int:
    return model.classes[rf.predict(model.forest, model.features(sample))]


def cn_proba(model: CNClassifier, sample: LabeledSample) -> np.ndarray:
    return rf.predict_proba(model.forest, model.features(sample))


def train_cn(samples, cfg: TrainConfig) -> CNClassifier:
    if len(samples) < 2:
        raise InsufficientDataError("cn training needs at least 2 samples")
    classes = sorted({s.labels.cn for s in samples})
    class_index = {c: i for i, c in enumerate(classes)}
    n_xanes = samples[0].xanes.grid.n
    n_exafs = samples[0].exafs.grid.n
    X = np.stack([np.concatenate([s.xanes.mu, s.exafs.mu]) for s in samples])
    y = np.array([class_index[s.labels.cn] for s in samples])
    # keys absent from the config keep ForestConfig's defaults
    sizes = ("n_trees", "max_depth", "min_samples_leaf")
    fcfg = rf.ForestConfig(seed=cfg.seed, **{k: int(cfg.extras[k]) for k in sizes if k in cfg.extras})
    forest_model = rf.fit(X, y, fcfg)
    return CNClassifier(forest_model, classes, n_xanes, n_exafs)


# --- dataset-level evaluation ----------------------------------------------------


def group_by_element(samples) -> dict:
    """Samples keyed by absorber symbol, insertion order by first appearance."""
    groups = {}
    for s in samples:
        groups.setdefault(s.xanes.absorber.symbol, []).append(s)
    return groups


def eval_forward(model: ForwardModel, pairs) -> Metrics:
    preds = np.concatenate([forward_predict(model, g) for g, _ in pairs])
    targets = np.concatenate([sp.mu for _, sp in pairs])
    return evaluate(preds, targets, "regression")


def eval_mnnd(model: InverseMNND, samples) -> Metrics:
    preds = predict_mnnd_batch(model, samples)
    targets = [s.labels.mnnd for s in samples]
    return evaluate(preds, targets, "regression")


def eval_neighbor(model: InverseNeighbor, samples) -> Metrics:
    logits = model.logits(samples)
    proba = softmax(logits)
    preds = [model.classes[i] for i in np.argmax(logits, axis=1)]
    targets = [s.labels.neighbor_type.atomic_number for s in samples]
    return evaluate(preds, targets, "classification", proba=proba, classes=model.classes)


def eval_cn(model: CNClassifier, samples) -> Metrics:
    proba = np.stack([cn_proba(model, s) for s in samples])
    # argmax keeps the lowest class on ties, as rf.predict does
    preds = [model.classes[i] for i in np.argmax(proba, axis=1)]
    targets = [s.labels.cn for s in samples]
    return evaluate(preds, targets, "classification", proba=proba, classes=model.classes)
