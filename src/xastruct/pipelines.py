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

The two inverse networks are SpectrumModels: each names the spectrum rows
it reads in INPUTS and standardizes them with statistics of its training
set. Every model names its checkpoint task once, in its `task` attribute.

The three neural models train through one loop, `fit`: plain AdamW with
minibatch shuffling, optional early stopping on a validation metric, and
deterministic behavior for a fixed seed. `fit` builds one AdamWState per
run, which moves the model's parameters into flat buffers; they stay views
of those buffers after training, and the early-stop restore writes through
them.
"""

import csv
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import forest as rf
from .autodiff import (
    AdamWState,
    Tensor,
    adamw_step,
    backward,
    concat,
    cross_entropy_loss,
    mse_loss,
    no_grad,
    params_from_doc,
    reshape,
    save_params,
    softmax,
    zero_grad,
)
from .crystal import Element, StructureGraph
from .jsonio import read_json, write_json
from .nn import ConvBlock, Module, MPEncoder, SGMLP
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
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(
                f"weight_decay must be non-negative and finite, got {self.weight_decay}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
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
    report.update(asdict(metrics))
    return report


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


class History(list):
    """fit's rows, one per epoch, and the validation output of the model it returns.

    `val_output` is what validate() returned for the parameters and buffers
    that fit ends with: the best epoch's, or the last epoch's if no metric
    was below inf. Scoring it gives the numbers a fresh prediction would.
    None without validation.
    """

    val_output = None


def fit(model: Module, cfg: TrainConfig, rng, n: int, batch_loss, validate=None) -> History:
    """AdamW over shuffled minibatches of range(n); returns one history row per epoch.

    batch_loss(indices) builds the scalar loss of one minibatch. With
    validate, each epoch ends with validate(), which returns (metric,
    output): the metric is lower for better, the output what it was
    computed from. After `patience` epochs without a new best, training
    stops, and the best epoch's parameters and buffers are restored. A
    positive `train_loss_stop` config key also stops training, once an
    epoch's mean training loss falls below it.
    """
    plist = list(model.named_parameters().values())
    state = AdamWState(plist)
    loss_stop = float(cfg.extras.get("train_loss_stop", 0.0) or 0.0)
    history = History()
    best_metric, best = np.inf, None
    patience_left = cfg.patience
    for epoch in range(cfg.epochs):
        epoch_losses = []
        order = rng.permutation(n)
        for batch in (order[i : i + cfg.batch_size] for i in range(0, n, cfg.batch_size)):
            loss = batch_loss(batch)
            zero_grad(plist)
            backward(loss)
            adamw_step(state, lr=cfg.lr, weight_decay=cfg.weight_decay)
            epoch_losses.append(loss.item())
        metric, output = (None, None) if validate is None else validate()
        if metric is not None:
            if metric < best_metric:
                best_metric = metric
                best = ({name: arr.copy() for name, arr in model.state().items()}, output)
                patience_left = cfg.patience
            else:
                patience_left -= 1
        history.append(
            {"epoch": epoch, "train_loss": float(np.mean(epoch_losses)), "val_metric": metric}
        )
        if metric is not None and patience_left <= 0:
            break
        if loss_stop and history[-1]["train_loss"] < loss_stop:
            break
    history.val_output = output
    if best is not None:
        model.load_state(best[0])
        history.val_output = best[1]
    return history


# the rows of a spectrum pair that a spectrum model can read, by name
_ROWS = {
    "ex": lambda s: s.xanes.grid.values,  # XANES energies
    "ax": lambda s: s.xanes.mu,  # XANES absorption
    "ee": lambda s: s.exafs.grid.values,  # EXAFS energies
    "ae": lambda s: s.exafs.mu,  # EXAFS absorption
}


def _spectra(samples, n_xanes: int, n_exafs: int, names) -> list:
    """One [N, n] matrix per named row of the N samples; validates grid lengths."""
    for s in samples:
        if s.xanes.grid.n != n_xanes or s.exafs.grid.n != n_exafs:
            raise ValueError(
                f"grid length mismatch: sample has ({s.xanes.grid.n}, {s.exafs.grid.n}), "
                f"model expects ({n_xanes}, {n_exafs})"
            )
    return [np.stack([_ROWS[name](s) for s in samples]) for name in names]


def load_checkpoint(path, cls=None) -> tuple:
    """(task, model) of a checkpoint file from one parse; every error names the file.

    The header's task picks the model class, and must be `cls.task` if `cls` is given.
    """
    doc = read_json(path)
    header = doc.get("header") if isinstance(doc, dict) else None
    task = header.get("task", "") if isinstance(header, dict) else ""
    if cls is not None and task != cls.task:
        raise ValueError(f"checkpoint {path} has task {task!r}, not {cls.task!r}")
    models = {m.task: m for m in (ForwardModel, InverseMNND, InverseNeighbor, CNClassifier)}
    if task not in models:
        raise ValueError(f"checkpoint {path} has unknown task {task!r}")
    try:
        return task, models[task].from_doc(doc)
    except KeyError as exc:
        # str() of a KeyError is only the quoted key, as in "error: 'forest'"
        raise ValueError(f"checkpoint {path}: missing {exc.args[0]}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint {path}: {exc}") from None


def _header(model, **fields) -> dict:
    """The model's task, `fields` and, for a per-element model, its absorber."""
    if model.element is not None:
        fields["element"] = model.element
    return {"task": model.task, **fields}


def _save_neural(model: Module, path, header: dict) -> None:
    """Header with the model's arch; the model's state by name."""
    save_params(model.state(), path, header=_header(model, arch=model.arch, **header))


def _neural_from_doc(doc: dict, build) -> tuple:
    """(header, model): build(header, cfg) constructs it, then its state loads in."""
    header, arrays = params_from_doc(doc)
    arch = header["arch"]
    if not isinstance(arch, dict):
        raise ValueError(f"field 'header.arch': expected a JSON object, got {type(arch).__name__}")
    model = build(header, TrainConfig(extras=arch))
    model.load_state(arrays)
    model.element = header.get("element")
    return header, model


# --- forward model -------------------------------------------------------------


class ForwardModel(Module):
    """Graph encoder + SGMLP head predicting an n-point spectrum."""

    task = "forward"

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
        self.arch = {key: cfg.arch(key) for key in DEFAULT_ARCH}
        self.by_mask_sum = bool(cfg.arch("masked_mean_by_mask_sum"))
        self.n_out = n_out
        self.element = element
        self.edge = edge
        self.kind = kind
        self.grid_values = np.asarray(grid_values, dtype=float)
        # the head learns the residual around the mean training spectrum
        self.y_center = np.zeros(n_out)

    def own_buffers(self) -> dict:
        return {"y_center": self.y_center}

    def __call__(self, graphs) -> Tensor:
        """Residual predictions [B, n_out] of B graphs, encoded as one batch.

        Add y_center for the spectra themselves.
        """
        if not all(np.any(g.mask) for g in graphs):
            raise ValueError("graph mask selects no nodes: empty absorber environment")
        return self.head(self.encoder.pooled(graphs, by_mask_sum=self.by_mask_sum))

    def predict_tensor(self, g: StructureGraph) -> Tensor:
        """Residual prediction [n_out] of one graph."""
        return reshape(self([g]), (self.n_out,))

    def save(self, path) -> None:
        header = {"edge": self.edge, "kind": self.kind, "n_out": self.n_out,
                  "grid": [float(v) for v in self.grid_values]}
        _save_neural(self, path, header)

    @classmethod
    def load(cls, path) -> "ForwardModel":
        return load_checkpoint(path, cls)[1]

    @classmethod
    def from_doc(cls, doc: dict) -> "ForwardModel":
        return _neural_from_doc(doc, lambda h, cfg: cls(
            np.random.default_rng(0), h["n_out"], cfg, h["element"], h["edge"], h["kind"], h["grid"]
        ))[1]


def forward_predict(model: ForwardModel, graphs,
                    batch_size: int = TrainConfig.batch_size) -> np.ndarray:
    """Spectrum [n_out] of one graph, or spectra [B, n_out] of a list of graphs.

    A list is encoded batch_size graphs at a time, which bounds the size of
    one batch's arrays. No tape is built.
    """
    if isinstance(graphs, StructureGraph):
        return forward_predict(model, [graphs])[0]
    with no_grad():
        chunks = [model(graphs[k : k + batch_size]).data for k in range(0, len(graphs), batch_size)]
    return np.concatenate(chunks) + model.y_center


def train_forward(pairs, cfg: TrainConfig, val_pairs=None):
    """Fit one forward model on (StructureGraph, Spectrum) pairs.

    One model covers exactly one absorber/edge/kind combination; mixing
    them in the training set is a scope error, not something to average
    over. Minibatch AdamW on the mean squared error of the mu values; each
    minibatch is encoded as one batch of graphs.
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
    graphs = [g for g, _ in pairs]
    # MSE(head + center, mu) == MSE(head, mu - center): train on residuals.
    # One MSE over the [B, n_out] batch is the mean of the per-graph MSEs.
    targets = np.stack([sp.mu for _, sp in pairs]) - model.y_center

    def batch_loss(batch):
        return mse_loss(model([graphs[i] for i in batch]), targets[batch])

    def val_mae():
        preds = forward_predict(model, [g for g, _ in val_pairs], cfg.batch_size)
        errors = np.abs(preds - np.stack([sp.mu for _, sp in val_pairs]))
        return float(np.mean(errors.mean(axis=1))), preds

    history = fit(model, cfg, rng, len(pairs), batch_loss, val_mae if val_pairs else None)
    return history, model


# --- spectrum models ------------------------------------------------------------


class SpectrumModel(Module):
    """A network over the standardized rows of a spectrum pair.

    INPUTS names the rows (keys of _ROWS) that forward() takes, in order.
    `norm` maps each to the (mean, std) per feature that standardizes it:
    the identity until fit_inputs fits them on the training samples. They
    are the buffers norm.<row>.mean and norm.<row>.std.
    """

    INPUTS = ()

    def __init__(self, n_xanes: int, n_exafs: int, cfg: TrainConfig):
        self.arch = {key: cfg.arch(key) for key in DEFAULT_ARCH}
        self.n_xanes = n_xanes
        self.n_exafs = n_exafs
        width = {"ex": n_xanes, "ax": n_xanes, "ee": n_exafs, "ae": n_exafs}
        self.norm = {name: (np.zeros(width[name]), np.ones(width[name])) for name in self.INPUTS}
        self.element = None  # absorber symbol of a per-element model

    def own_buffers(self) -> dict:
        return {f"norm.{name}.{stat}": arr for name, pair in self.norm.items()
                for stat, arr in zip(("mean", "std"), pair)}

    def _rows(self, samples) -> list:
        return _spectra(samples, self.n_xanes, self.n_exafs, self.INPUTS)

    def _standardize(self, rows) -> list:
        return [(X - mean) / std for X, (mean, std) in zip(rows, self.norm.values())]

    def fit_inputs(self, samples) -> list:
        """Fit `norm` on `samples`; their standardized matrices."""
        rows = self._rows(samples)
        self.norm = {name: (X.mean(axis=0), np.maximum(X.std(axis=0), 1e-8))
                     for name, X in zip(self.INPUTS, rows)}
        return self._standardize(rows)

    def inputs(self, samples) -> list:
        """The standardized input Tensors of `samples`, in forward()'s order."""
        return [Tensor(X) for X in self._standardize(self._rows(samples))]

    def _save(self, path, header: dict) -> None:
        _save_neural(self, path, {"n_xanes": self.n_xanes, "n_exafs": self.n_exafs, **header})


# --- inverse MNND ---------------------------------------------------------------


class InverseMNND(SpectrumModel):
    """Energy+absorption embeddings per kind, conv stacks, scalar distance head."""

    task = "mnnd"
    INPUTS = ("ex", "ax", "ee", "ae")

    def __init__(self, rng, n_xanes: int, n_exafs: int, cfg: TrainConfig):
        super().__init__(n_xanes, n_exafs, cfg)
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
        # target normalization, set by the training loop
        self.y_mean = 0.0
        self.y_std = 1.0

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

    def save(self, path) -> None:
        self._save(path, {"y_mean": self.y_mean, "y_std": self.y_std})

    @classmethod
    def load(cls, path) -> "InverseMNND":
        return load_checkpoint(path, cls)[1]

    @classmethod
    def from_doc(cls, doc: dict) -> "InverseMNND":
        header, model = _neural_from_doc(doc, lambda h, cfg: cls(
            np.random.default_rng(0), h["n_xanes"], h["n_exafs"], cfg
        ))
        model.y_mean = float(header["y_mean"])
        model.y_std = float(header["y_std"])
        return model


def mnnd_predict(model: InverseMNND, sample: LabeledSample) -> float:
    return float(predict_mnnd_batch(model, [sample])[0])


def train_mnnd(samples, cfg: TrainConfig, val_samples=None):
    if len(samples) < 2:
        raise InsufficientDataError("mnnd training needs at least 2 samples")
    rng = np.random.default_rng(cfg.seed)
    model = InverseMNND(rng, samples[0].xanes.grid.n, samples[0].exafs.grid.n, cfg)
    X = model.fit_inputs(samples)
    y = np.array([s.labels.mnnd for s in samples])
    model.y_mean = float(y.mean())
    model.y_std = float(max(y.std(), 1e-8))
    y_norm = (y - model.y_mean) / model.y_std

    def batch_loss(batch):
        # plain arrays: constant inputs, whose gradient no layer computes
        pred = model.forward(*[mat[batch] for mat in X], training=True)
        return mse_loss(pred, y_norm[batch])

    def val_mae():
        preds = predict_mnnd_batch(model, val_samples)
        targets = np.array([s.labels.mnnd for s in val_samples])
        return float(np.mean(np.abs(preds - targets))), preds

    history = fit(model, cfg, rng, len(samples), batch_loss, val_mae if val_samples else None)
    return history, model


def predict_mnnd_batch(model: InverseMNND, samples) -> np.ndarray:
    inputs = model.inputs(samples)
    with no_grad():
        out = model.forward(*inputs, training=False)
    return out.data * model.y_std + model.y_mean


# --- inverse neighbor type -------------------------------------------------------


class InverseNeighbor(SpectrumModel):
    """Absorption-only embeddings into a species classifier.

    Deliberately never sees the energy axes: the classifier consumes
    [z_a,xanes | z_a,exafs] alone.
    """

    task = "neighbor"
    INPUTS = ("ax", "ae")

    def __init__(self, rng, n_xanes: int, n_exafs: int, classes, cfg: TrainConfig):
        super().__init__(n_xanes, n_exafs, cfg)
        d = cfg.arch("embed_dim")
        hidden = cfg.arch("embed_hidden")
        k = cfg.arch("embed_k")
        self.f_A_xanes = SGMLP(rng, n_xanes, hidden, d, k)
        self.f_A_exafs = SGMLP(rng, n_exafs, hidden, d, k)
        self.f_t = SGMLP(rng, 2 * d, cfg.arch("head_hidden"), len(classes), cfg.arch("head_k"))
        self.classes = [int(z) for z in classes]  # atomic numbers, sorted

    def forward(self, ax, ae) -> Tensor:
        z = concat([self.f_A_xanes(ax), self.f_A_exafs(ae)], axis=1)
        return self.f_t(z)

    def logits(self, samples) -> np.ndarray:
        with no_grad():
            out = self.forward(*self.inputs(samples))
        return out.data

    def save(self, path) -> None:
        self._save(path, {"classes": self.classes})

    @classmethod
    def load(cls, path) -> "InverseNeighbor":
        return load_checkpoint(path, cls)[1]

    @classmethod
    def from_doc(cls, doc: dict) -> "InverseNeighbor":
        return _neural_from_doc(doc, lambda h, cfg: cls(
            np.random.default_rng(0), h["n_xanes"], h["n_exafs"], h["classes"], cfg
        ))[1]


def neighbor_predict(model: InverseNeighbor, sample: LabeledSample) -> Element:
    logits = model.logits([sample])[0]
    return Element(model.classes[int(np.argmax(logits))])


def train_neighbor(samples, cfg: TrainConfig, val_samples=None):
    if len(samples) < 2:
        raise InsufficientDataError("neighbor training needs at least 2 samples")
    classes = sorted({s.labels.neighbor_type.atomic_number for s in samples})
    class_index = {z: i for i, z in enumerate(classes)}
    rng = np.random.default_rng(cfg.seed)
    model = InverseNeighbor(rng, samples[0].xanes.grid.n, samples[0].exafs.grid.n, classes, cfg)
    X = model.fit_inputs(samples)
    y = np.array([class_index[s.labels.neighbor_type.atomic_number] for s in samples])

    def batch_loss(batch):
        return cross_entropy_loss(model.forward(*[mat[batch] for mat in X]), y[batch])

    def val_cross_entropy():
        """(mean cross-entropy over samples of classes seen in training, inf if none; logits)."""
        yv = np.array(
            [class_index.get(s.labels.neighbor_type.atomic_number, -1) for s in val_samples]
        )
        logits = model.logits(val_samples)
        p = softmax(logits)
        known = yv >= 0
        if not known.any():
            return float("inf"), logits
        return float(-np.mean(np.log(np.maximum(p[known, yv[known]], 1e-300)))), logits

    val_metric = val_cross_entropy if val_samples else None
    history = fit(model, cfg, rng, len(samples), batch_loss, val_metric)
    return history, model


# --- coordination-number forest ----------------------------------------------------


class CNClassifier:
    """Random forest over [x_xanes | x_exafs]; classes are the observed CNs."""

    task = "cn"
    INPUTS = ("ax", "ae")

    def __init__(self, forest_model: rf.RandomForest, classes, n_xanes: int, n_exafs: int):
        self.forest = forest_model
        self.classes = [int(c) for c in classes]
        self.n_xanes = n_xanes
        self.n_exafs = n_exafs
        self.element = None  # absorber symbol of a per-element model

    def features(self, sample: LabeledSample) -> np.ndarray:
        return np.concatenate(_spectra([sample], self.n_xanes, self.n_exafs, self.INPUTS), axis=1)[0]

    def save(self, path) -> None:
        header = _header(self, classes=self.classes, n_xanes=self.n_xanes, n_exafs=self.n_exafs)
        write_json(path, {"header": header, "forest": rf.forest_to_doc(self.forest)})

    @classmethod
    def load(cls, path) -> "CNClassifier":
        return load_checkpoint(path, cls)[1]

    @classmethod
    def from_doc(cls, doc: dict) -> "CNClassifier":
        header = doc["header"]
        forest_model = rf.forest_from_doc(doc["forest"])
        model = cls(forest_model, header["classes"], header["n_xanes"], header["n_exafs"])
        sizes = (len(model.classes), model.n_xanes + model.n_exafs)
        if sizes != (forest_model.n_classes, forest_model.n_features):
            raise ValueError(f"header has {sizes[0]} classes and {sizes[1]} features, the forest "
                             f"{forest_model.n_classes} and {forest_model.n_features}")
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
    X = np.concatenate(_spectra(samples, n_xanes, n_exafs, CNClassifier.INPUTS), axis=1)
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


# eval_forward, eval_mnnd and eval_neighbor take the model's output on the
# items when it is already at hand (fit's kept validation output), in place
# of predicting them again.


def eval_forward(model: ForwardModel, pairs, batch_size: int = TrainConfig.batch_size,
                 preds=None) -> Metrics:
    if preds is None:
        preds = forward_predict(model, [g for g, _ in pairs], batch_size)
    targets = np.concatenate([sp.mu for _, sp in pairs])
    return evaluate(preds.reshape(-1), targets, "regression")


def eval_mnnd(model: InverseMNND, samples, preds=None) -> Metrics:
    if preds is None:
        preds = predict_mnnd_batch(model, samples)
    targets = [s.labels.mnnd for s in samples]
    return evaluate(preds, targets, "regression")


def eval_neighbor(model: InverseNeighbor, samples, logits=None) -> Metrics:
    if logits is None:
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
