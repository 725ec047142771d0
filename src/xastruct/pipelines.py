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
set. Every model names its checkpoint task once, in its `task` attribute,
and the checks of its other header fields in HEADER.

The three neural models train through one loop, `fit`: plain AdamW with
minibatch shuffling, optional early stopping on a validation metric, and
deterministic behavior for a fixed seed. `fit` builds one AdamWState per
run, which moves the model's parameters into flat buffers; they stay views
of those buffers after training, and the early-stop restore writes through
them. Training and the neural models take `cfg`, the dict that
config.check_config returns: every key of the config-key table, typed. A
neural model keeps the ARCH keys as `arch`, for its checkpoint header.
"""

import csv
from dataclasses import asdict, dataclass
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
)
from .config import ARCH, ELEMENT_SYMBOLS, check_config, read
from .crystal import Element, StructureGraph
from .jsonio import ELEMENT, choice, integer, list_of, optional, read_json, real, record, write_json
from .nn import ConvBlock, Module, MPEncoder, SGMLP
from .spectra import EDGES, KINDS, InsufficientDataError, LabeledSample


class ScopeError(ValueError):
    pass


def _arch(cfg: dict) -> dict:
    """The architecture keys of a checked config, as a checkpoint header stores them."""
    return {key: cfg[key] for key in ARCH}


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


def fit(model: Module, cfg: dict, rng, n: int, batch_loss, validate=None) -> History:
    """AdamW over shuffled minibatches of range(n); returns one history row per epoch.

    batch_loss(indices) builds the scalar loss of one minibatch. With
    validate, each epoch ends with validate(), which returns (metric,
    output): the metric is lower for better, the output what it was
    computed from. After `patience` epochs without a new best, training
    stops, and the best epoch's parameters and buffers are restored. A
    positive `train_loss_stop` config key also stops training, once an
    epoch's mean training loss falls below it.
    """
    state = AdamWState(model.named_parameters().values())
    loss_stop, batch_size = cfg["train_loss_stop"], cfg["batch_size"]
    history = History()
    best_metric, best = np.inf, None
    patience_left = cfg["patience"]
    for epoch in range(cfg["epochs"]):
        epoch_losses = []
        order = rng.permutation(n)
        for batch in (order[i : i + batch_size] for i in range(0, n, batch_size)):
            loss = batch_loss(batch)
            state.grad.fill(0.0)  # every parameter's gradient is a view of it
            backward(loss)
            adamw_step(state, lr=cfg["lr"], weight_decay=cfg["weight_decay"])
            epoch_losses.append(loss.item())
        metric, output = (None, None) if validate is None else validate()
        if metric is not None:
            if metric < best_metric:
                best_metric = metric
                best = ({name: arr.copy() for name, arr in model.state().items()}, output)
                patience_left = cfg["patience"]
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
        header = record(models[task].HEADER)(doc["header"], ("header",))
        return task, models[task]._build(header, doc)
    except KeyError as exc:
        # str() of a KeyError is only the quoted key, as in "error: 'forest'"
        raise ValueError(f"checkpoint {path}: missing {exc.args[0]}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint {path}: {exc}") from None


# A model class gives the checks of its checkpoint header's fields, besides the task, in
# HEADER: each is a model attribute and, but for a forward model's n_out and cutoff, a
# constructor argument. Its classmethod `_build(header, doc)` builds the model from the
# checked header.
SIZE = integer(2)


def _header_of(model) -> dict:
    """The checkpoint header of `model`: its task and its HEADER fields that are set."""
    fields = {name: getattr(model, name) for name in model.HEADER}
    return {"task": model.task, **{k: v for k, v in fields.items() if v is not None}}


def _save_arrays(model: Module, path) -> None:
    """Save a neural model as a checkpoint: its header, then its arrays by name."""
    save_params(model.state(), path, header=_header_of(model))


def _build_neural(cls, header: dict, doc: dict) -> Module:
    """The neural model of a checkpoint, built without an rng, so with zeros for weights
    and no random draws; then its arrays load in over every array."""
    model = cls(None, cfg=check_config(header.pop("arch")), **header)
    model.load_state(params_from_doc(doc)[1])
    return model


def _load(cls, path):
    """The `cls` model of a checkpoint file."""
    return load_checkpoint(path, cls)[1]


# --- forward model -------------------------------------------------------------


class ForwardModel(Module):
    """Graph encoder + SGMLP head predicting an n-point spectrum."""

    task = "forward"
    # a forward model is of one element
    HEADER = {"element": ELEMENT, "edge": choice(EDGES), "kind": choice(KINDS), "n_out": SIZE,
              "grid": list_of(real()), "cutoff": real(positive=True), "arch": record()}

    def __init__(self, rng, cfg: dict, element: str, edge: str, kind: str, grid):
        self.grid = [float(v) for v in grid]  # energies in eV
        self.cutoff = cfg["cutoff"]  # of the graphs it trains on and predicts from, Angstrom
        self.n_out = n_out = len(self.grid)
        self.arch = a = _arch(cfg)
        self.encoder = MPEncoder(rng, d=a["encoder_dim"], t_rounds=a["encoder_rounds"],
                                 n_rbf=a["encoder_rbf"], hidden=a["encoder_hidden"], k=a["encoder_k"])
        self.head = SGMLP(rng, a["encoder_dim"], a["forward_hidden"], n_out, a["forward_k"])
        self.by_mask_sum = bool(a["masked_mean_by_mask_sum"])
        self.element = element
        self.edge = edge
        self.kind = kind
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

    save = _save_arrays
    load = classmethod(_load)

    @classmethod
    def _build(cls, header: dict, doc: dict) -> "ForwardModel":
        grid, n_out = header["grid"], header.pop("n_out")  # the model counts its grid
        if len(grid) != n_out or not np.all(np.diff(grid) > 0):
            raise ValueError(f"field 'header.grid': expected {n_out} (header.n_out) "
                             f"increasing numbers, got {len(grid)} numbers")
        header["arch"] = {**header["arch"], "cutoff": header.pop("cutoff")}  # the model's cfg
        return _build_neural(cls, header, doc)


def forward_predict(model: ForwardModel, graphs,
                    batch_size: int = read({}, "batch_size")) -> np.ndarray:
    """Spectrum [n_out] of one graph, or spectra [B, n_out] of a list of graphs.

    A list is encoded batch_size graphs at a time, which bounds the size of
    one batch's arrays. No tape is built.
    """
    if isinstance(graphs, StructureGraph):
        return forward_predict(model, [graphs])[0]
    with no_grad():
        chunks = [model(graphs[k : k + batch_size]).data for k in range(0, len(graphs), batch_size)]
    return np.concatenate(chunks) + model.y_center


def train_forward(pairs, cfg: dict, val_pairs=None):
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

    rng = np.random.default_rng(cfg["seed"])
    model = ForwardModel(rng, cfg, *triple, grid=first.grid.values)
    model.y_center = np.mean([sp.mu for _, sp in pairs], axis=0)
    graphs = [g for g, _ in pairs]
    # MSE(head + center, mu) == MSE(head, mu - center): train on residuals.
    # One MSE over the [B, n_out] batch is the mean of the per-graph MSEs.
    targets = np.stack([sp.mu for _, sp in pairs]) - model.y_center

    def batch_loss(batch):
        return mse_loss(model([graphs[i] for i in batch]), targets[batch])

    def val_mae():
        preds = forward_predict(model, [g for g, _ in val_pairs], cfg["batch_size"])
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
    # element None: a model of every element; arch's keys are read through the config-key table
    HEADER = {"element": optional(ELEMENT), "n_xanes": SIZE, "n_exafs": SIZE, "arch": record()}
    _build = classmethod(_build_neural)

    def __init__(self, n_xanes: int, n_exafs: int, cfg: dict, element: str = None):
        self.arch = _arch(cfg)
        self.n_xanes = n_xanes
        self.n_exafs = n_exafs
        width = {"ex": n_xanes, "ax": n_xanes, "ee": n_exafs, "ae": n_exafs}
        self.norm = {name: (np.zeros(width[name]), np.ones(width[name])) for name in self.INPUTS}
        self.element = element  # absorber symbol of a per-element model

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


# --- inverse MNND ---------------------------------------------------------------


class InverseMNND(SpectrumModel):
    """Energy+absorption embeddings per kind, conv stacks, scalar distance head."""

    task = "mnnd"
    INPUTS = ("ex", "ax", "ee", "ae")
    HEADER = {**SpectrumModel.HEADER, "y_mean": real(), "y_std": real(positive=True)}

    def __init__(self, rng, n_xanes: int, n_exafs: int, cfg: dict, element: str = None,
                 y_mean: float = 0.0, y_std: float = 1.0):
        super().__init__(n_xanes, n_exafs, cfg, element)
        a = self.arch
        d, hidden, k = a["embed_dim"], a["embed_hidden"], a["embed_k"]
        self.f_E_xanes = SGMLP(rng, n_xanes, hidden, d, k)
        self.f_A_xanes = SGMLP(rng, n_xanes, hidden, d, k)
        self.f_E_exafs = SGMLP(rng, n_exafs, hidden, d, k)
        self.f_A_exafs = SGMLP(rng, n_exafs, hidden, d, k)
        channels, kernel, n_blocks = a["conv_channels"], a["conv_kernel"], a["conv_blocks"]
        self.conv_xanes = []
        self.conv_exafs = []
        for b in range(n_blocks):
            c_in = 1 if b == 0 else channels
            self.conv_xanes.append(ConvBlock(rng, c_in, channels, kernel))
            self.conv_exafs.append(ConvBlock(rng, c_in, channels, kernel))
        feat = 2 * channels * ((2 * d) >> n_blocks)  # each block halves the length
        self.f_d = SGMLP(rng, feat, a["head_hidden"], 1, a["head_k"])
        self.d = d
        # target normalization
        self.y_mean = y_mean
        self.y_std = y_std

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

    save = _save_arrays
    load = classmethod(_load)


def mnnd_predict(model: InverseMNND, sample: LabeledSample) -> float:
    return float(predict_mnnd_batch(model, [sample])[0])


def train_mnnd(samples, cfg: dict, val_samples=None):
    if len(samples) < 2:
        raise InsufficientDataError("mnnd training needs at least 2 samples")
    rng = np.random.default_rng(cfg["seed"])
    y = np.array([s.labels.mnnd for s in samples])
    model = InverseMNND(rng, samples[0].xanes.grid.n, samples[0].exafs.grid.n, cfg,
                        y_mean=float(y.mean()), y_std=float(max(y.std(), 1e-8)))
    X = model.fit_inputs(samples)
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
    HEADER = {**SpectrumModel.HEADER,
              "classes": list_of(choice(range(1, len(ELEMENT_SYMBOLS) + 1), "an atomic number"))}

    def __init__(self, rng, n_xanes: int, n_exafs: int, classes, cfg: dict, element: str = None):
        super().__init__(n_xanes, n_exafs, cfg, element)
        a = self.arch
        d, hidden, k = a["embed_dim"], a["embed_hidden"], a["embed_k"]
        self.f_A_xanes = SGMLP(rng, n_xanes, hidden, d, k)
        self.f_A_exafs = SGMLP(rng, n_exafs, hidden, d, k)
        self.f_t = SGMLP(rng, 2 * d, a["head_hidden"], len(classes), a["head_k"])
        self.classes = [int(z) for z in classes]  # atomic numbers, sorted

    def forward(self, ax, ae) -> Tensor:
        z = concat([self.f_A_xanes(ax), self.f_A_exafs(ae)], axis=1)
        return self.f_t(z)

    def logits(self, samples) -> np.ndarray:
        with no_grad():
            out = self.forward(*self.inputs(samples))
        return out.data

    save = _save_arrays
    load = classmethod(_load)


def neighbor_predict(model: InverseNeighbor, sample: LabeledSample) -> Element:
    logits = model.logits([sample])[0]
    return Element(model.classes[int(np.argmax(logits))])


def train_neighbor(samples, cfg: dict, val_samples=None):
    if len(samples) < 2:
        raise InsufficientDataError("neighbor training needs at least 2 samples")
    classes = sorted({s.labels.neighbor_type.atomic_number for s in samples})
    class_index = {z: i for i, z in enumerate(classes)}
    rng = np.random.default_rng(cfg["seed"])
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
    HEADER = {"element": optional(ELEMENT), "classes": list_of(integer(1)), "n_xanes": SIZE,
              "n_exafs": SIZE}

    def __init__(self, forest_model: rf.RandomForest, classes, n_xanes: int, n_exafs: int,
                 element: str = None):
        self.forest = forest_model
        self.classes = [int(c) for c in classes]
        self.n_xanes = n_xanes
        self.n_exafs = n_exafs
        self.element = element  # absorber symbol of a per-element model

    def features(self, samples) -> np.ndarray:
        """The [N, n_xanes + n_exafs] forest input of N samples."""
        return np.concatenate(_spectra(samples, self.n_xanes, self.n_exafs, self.INPUTS), axis=1)

    def save(self, path) -> None:
        write_json(path, {"header": _header_of(self), "forest": rf.forest_to_doc(self.forest)})

    load = classmethod(_load)

    @classmethod
    def _build(cls, header: dict, doc: dict) -> "CNClassifier":
        forest = rf.forest_from_doc(doc["forest"])
        sizes = (len(header["classes"]), header["n_xanes"] + header["n_exafs"])
        if sizes != (forest.n_classes, forest.n_features):
            raise ValueError(f"header has {sizes[0]} classes and {sizes[1]} features, the forest "
                             f"{forest.n_classes} and {forest.n_features}")
        return cls(forest, **header)


def cn_predict(model: CNClassifier, sample: LabeledSample) -> int:
    return model.classes[rf.predict(model.forest, model.features([sample])[0])]


def cn_proba(model: CNClassifier, sample: LabeledSample) -> np.ndarray:
    return rf.predict_proba(model.forest, model.features([sample]))[0]


def train_cn(samples, cfg: dict) -> CNClassifier:
    if len(samples) < 2:
        raise InsufficientDataError("cn training needs at least 2 samples")
    classes = sorted({s.labels.cn for s in samples})
    class_index = {c: i for i, c in enumerate(classes)}
    n_xanes = samples[0].xanes.grid.n
    n_exafs = samples[0].exafs.grid.n
    X = np.concatenate(_spectra(samples, n_xanes, n_exafs, CNClassifier.INPUTS), axis=1)
    y = np.array([class_index[s.labels.cn] for s in samples])
    return CNClassifier(rf.fit(X, y, cfg), classes, n_xanes, n_exafs)


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


def eval_forward(model: ForwardModel, pairs, batch_size: int = read({}, "batch_size"),
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
    proba = rf.predict_proba(model.forest, model.features(samples))
    # argmax keeps the lowest class on ties, as rf.predict does
    preds = [model.classes[i] for i in np.argmax(proba, axis=1)]
    targets = [s.labels.cn for s in samples]
    return evaluate(preds, targets, "classification", proba=proba, classes=model.classes)
