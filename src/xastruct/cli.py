"""Command-line entry point.

    xastruct synth     --out DIR [--config FILE] [--seed N]
    xastruct extract   STRUCTURES --out DIR
    xastruct train     --task TASK --data DIR --out DIR
    xastruct eval      --checkpoint FILE --data DIR --out DIR
    xastruct predict   --checkpoint FILE --input FILE --out DIR
    xastruct gradcheck [--corrupt]
    xastruct plot      FILES... --out DIR

Every command accepts --config (flat key = value text), --seed, and --set
key=value overrides; precedence is flags > config file > defaults. Each run
writes run.json next to its outputs: the command name, the config file path,
the seed, git-style content hashes of the inputs, and the output paths. Exit
codes: 0 success, 1 runtime or validation failure, 2 usage error.
"""

import argparse
import csv
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import exafs_oracle as oracle
from . import gradcheck
from . import pipelines as pl
from .crystal import (
    DESCRIPTOR_CUTOFF,
    CrystalStructure,
    Element,
    Lattice,
    Site,
    build_graph,
    extract_descriptors,
    neighbor_search,
    read_structure,
    read_structures,
    site_index,
    write_structures,
)
from .jsonio import read_json, write_json, write_jsonl
from .spectra import (
    EnergyGrid,
    LabeledSample,
    Spectrum,
    labels_to_dict,
    load_dataset,
    load_spectrum,
    load_spectrum_pair,
    save_dataset,
    save_spectrum,
    split_dataset,
)

CONFIG_DEFAULTS = {
    "seed": "0",
    "n_samples": "100",
    "elements": "Ti,Fe,Cu,Zn",
    "templates": "sc,fcc,rocksalt,fluorite_cation,fluorite_anion",
    "mnnd_min": "1.8",
    "mnnd_max": "3.2",
    "strain": "0.05",
    "jitter": "0.05",
    "n_grid": "100",
    "cutoff": "6.0",
    "forward_kind": "XANES",
    "absorber": "",
    "task": "",
}


class UsageError(ValueError):
    pass


# --- config -------------------------------------------------------------------


def parse_config_file(path) -> dict:
    """Flat `key = value` lines; # comments and blank lines are skipped."""
    out = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def resolve_config(args) -> dict:
    cfg = dict(CONFIG_DEFAULTS)
    if args.config:
        cfg.update(parse_config_file(args.config))
    for item in args.set or []:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        cfg[key.strip()] = value.strip()
    if args.seed is not None:
        cfg["seed"] = str(args.seed)
    return cfg


# --- run manifest ----------------------------------------------------------------


def _blob_hash(path) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    h = hashlib.sha1()
    h.update(b"blob %d\0" % len(data))
    h.update(data)
    return h.hexdigest()


def _tree_entries(directory, prefix: str, entries: list) -> None:
    """Append "relative/path:blob" for every file below `directory`, in Path.parts order.

    Depth first with each directory's names sorted is the order of sorting
    the paths by their parts. As Path.rglob does, it does not descend into
    a symlinked directory, hashes a symlinked file by its target and skips
    a directory it may not read.
    """
    try:
        with os.scandir(directory) as it:
            children = sorted(it, key=lambda entry: entry.name)
    except PermissionError:
        return
    for entry in children:
        if entry.is_file(follow_symlinks=False) or (
            entry.is_symlink() and Path(entry.path).is_file()
        ):
            entries.append(f"{prefix}{entry.name}:{_blob_hash(entry.path)}")
        elif entry.is_dir(follow_symlinks=False):
            _tree_entries(entry.path, f"{prefix}{entry.name}{os.sep}", entries)


def content_hash(path) -> str:
    """Git-style content hash: blob for files, sorted entry tree for directories."""
    path = Path(path)
    if path.is_file():
        return _blob_hash(path)
    if path.is_dir():
        entries = []
        _tree_entries(path, "", entries)
        body = "\n".join(entries).encode()
        h = hashlib.sha1()
        h.update(b"tree %d\0" % len(body))
        h.update(body)
        return h.hexdigest()
    raise FileNotFoundError(f"no such input: {path}")


def write_manifest(out_dir: Path, command: str, args, cfg: dict, inputs, outputs) -> None:
    manifest = {
        "command": command,
        "config_path": str(args.config) if args.config else "",
        "seed": int(cfg["seed"]),
        "inputs": {str(p): content_hash(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
    }
    write_json(out_dir / "run.json", manifest, indent=1)


# --- synthetic structures -----------------------------------------------------------


def _sc_cell(m: float, absorber: Element, scatterer: Element):
    return Lattice(np.eye(3) * m), (Site(absorber, np.zeros(3)),), 0, 6


def _fcc_cell(m: float, absorber: Element, scatterer: Element):
    frac = [(0.0, 0.0, 0.0), (0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0)]
    sites = tuple(Site(absorber, np.array(f)) for f in frac)
    return Lattice(np.eye(3) * m * np.sqrt(2.0)), sites, 0, 12


def _rocksalt_cell(m: float, absorber: Element, scatterer: Element):
    basis = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]) * m
    sites = (Site(absorber, np.zeros(3)), Site(scatterer, np.full(3, 0.5)))
    return Lattice(basis), sites, 0, 6


def _fluorite_cell(m: float, cation: Element, anion: Element):
    a = 4.0 * m / np.sqrt(3.0)
    cation_frac = [(0.0, 0.0, 0.0), (0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0)]
    anion_frac = [(x, y, z) for x in (0.25, 0.75) for y in (0.25, 0.75) for z in (0.25, 0.75)]
    sites = tuple(Site(cation, np.array(f)) for f in cation_frac) + tuple(
        Site(anion, np.array(f)) for f in anion_frac
    )
    return Lattice(np.eye(3) * a), sites, None, None


def _fluorite_cation_cell(m, absorber, scatterer):
    lattice, sites, _, _ = _fluorite_cell(m, absorber, scatterer)
    return lattice, sites, 0, 8


def _fluorite_anion_cell(m, absorber, scatterer):
    lattice, sites, _, _ = _fluorite_cell(m, scatterer, absorber)
    return lattice, sites, 4, 4


# template -> (builder, needs a second species)
TEMPLATES = {
    "sc": (_sc_cell, False),
    "fcc": (_fcc_cell, False),
    "rocksalt": (_rocksalt_cell, True),
    "fluorite_cation": (_fluorite_cation_cell, True),
    "fluorite_anion": (_fluorite_anion_cell, True),
}


def synth_structure(rng, template: str, absorber: Element, scatterer: Element,
                    mnnd_range, strain: float, jitter: float, sid: str):
    """One perturbed template cell whose first shell matches the template's CN.

    Draws until the jittered cell still extracts the nominal coordination
    number, so label classes stay clean; the draw count is bounded. Returns
    (structure, absorber, labels, absorber's neighbor_search at DESCRIPTOR_CUTOFF).
    """
    builder, _ = TEMPLATES[template]
    for _ in range(64):
        m_target = rng.uniform(*mnnd_range)
        m = m_target * (1.0 + rng.uniform(-strain, strain))
        m = float(np.clip(m, mnnd_range[0], mnnd_range[1]))
        lattice, sites, absorber_index, nominal_cn = builder(m, absorber, scatterer)
        cart_jitter = rng.uniform(-jitter, jitter, size=(len(sites), 3))
        frac_jitter = cart_jitter @ np.linalg.inv(lattice.basis)
        jittered = tuple(
            Site(site.element, site.frac_coords + delta)
            for site, delta in zip(sites, frac_jitter)
        )
        s = CrystalStructure(lattice=lattice, sites=jittered, id=sid)
        neighbors = neighbor_search(s, absorber_index, DESCRIPTOR_CUTOFF)
        labels = extract_descriptors(s, absorber_index, neighbors=neighbors)
        if labels.cn == nominal_cn:
            return s, absorber_index, labels, neighbors
    raise RuntimeError(f"template {template} failed to produce cn={nominal_cn} after 64 draws")


def synth_samples(cfg: dict):
    """Draw the labeled corpus described by cfg; returns (samples, structures)."""
    seed = int(cfg["seed"])
    n = int(cfg["n_samples"])
    elements = [Element.from_symbol(sym.strip()) for sym in cfg["elements"].split(",") if sym.strip()]
    if not elements:
        raise UsageError("config key 'elements' must name at least one element")
    template_names = [t.strip() for t in cfg["templates"].split(",") if t.strip()]
    for t in template_names:
        if t not in TEMPLATES:
            raise UsageError(f"unknown template {t!r}; choose from {sorted(TEMPLATES)}")
    mnnd_range = (float(cfg["mnnd_min"]), float(cfg["mnnd_max"]))
    if mnnd_range[0] > mnnd_range[1]:
        raise UsageError(f"config key 'mnnd_min' ({mnnd_range[0]}) exceeds 'mnnd_max' "
                         f"({mnnd_range[1]})")
    strain = float(cfg["strain"])
    jitter = float(cfg["jitter"])
    for key, value in (("strain", strain), ("jitter", jitter)):
        if value < 0:
            raise UsageError(f"config key {key!r} must be non-negative, got {value}")
    n_grid = int(cfg["n_grid"])
    cutoff = _cutoff(cfg)

    oracle_inputs = {}  # absorber element -> (OracleParams, XANES grid, EXAFS grid)
    samples, structures = [], []
    for i in range(n):
        rng = np.random.default_rng([seed, i])
        template = template_names[rng.integers(len(template_names))]
        absorber = elements[rng.integers(len(elements))]
        needs_pair = TEMPLATES[template][1]
        scatterer = absorber
        if needs_pair and len(elements) > 1:
            others = [el for el in elements if el.atomic_number != absorber.atomic_number]
            scatterer = others[rng.integers(len(others))]
        sid = f"{template}-{absorber.symbol}-{i:06d}"
        s, absorber_index, labels, neighbors = synth_structure(
            rng, template, absorber, scatterer, mnnd_range, strain, jitter, sid
        )
        element = s.sites[absorber_index].element
        if element not in oracle_inputs:
            params = oracle.OracleParams.from_config(cfg, e0_ev=oracle.default_edge_energy(element))
            oracle_inputs[element] = (params, oracle.default_xanes_grid(params.e0_ev, n=n_grid),
                                      oracle.default_exafs_grid(params.e0_ev, n=n_grid))
        params, xanes_grid, exafs_grid = oracle_inputs[element]
        xanes = oracle.synth_xanes(labels, element, params, xanes_grid, structure_id=sid)
        exafs = oracle.synth_exafs(
            s, absorber_index, params, exafs_grid, cutoff=cutoff,
            neighbors=neighbors if cutoff == DESCRIPTOR_CUTOFF else None,
        )
        samples.append(LabeledSample(xanes=xanes, exafs=exafs, labels=labels))
        structures.append((s, absorber_index))
    return samples, structures


def synth_dataset(cfg: dict, out_dir: Path):
    samples, structures = synth_samples(cfg)
    save_dataset(samples, out_dir / "manifest.jsonl")
    write_structures(structures, out_dir / "structures.jsonl")
    return samples, structures


def _cutoff(cfg: dict) -> float:
    """The `cutoff` config key: a neighbor distance in angstroms, positive and finite."""
    try:
        if 0 < float(cfg["cutoff"]) < np.inf:
            return float(cfg["cutoff"])
    except ValueError:
        pass
    raise UsageError(f"config key 'cutoff' must be a positive, finite distance, got {cfg['cutoff']!r}")


def _absorber(cfg: dict, s: CrystalStructure, absorber: int) -> int:
    """The site index that the `absorber` config key sets, else the record's `absorber`."""
    if cfg["absorber"]:
        return site_index(cfg["absorber"], len(s), "config key 'absorber'")
    return absorber


# --- tasks -------------------------------------------------------------------------


def _samples(data_dir: Path, cfg: dict, model=None) -> list:
    """The dataset's samples; for a per-element model, its element's samples only."""
    samples = load_dataset(data_dir / "manifest.jsonl")
    if model is None or model.element is None:
        return samples
    return [s for s in samples if s.xanes.absorber.symbol == model.element]


def _forward_pairs(data_dir: Path, cfg: dict, model=None) -> list:
    """(graph, spectrum) pairs of the forward_kind spectra; for a model, its kind and element's."""
    cutoff = _cutoff(cfg)
    if model is None:
        kind, element = cfg["forward_kind"], None
        if kind not in ("XANES", "EXAFS"):
            raise UsageError(f"forward_kind must be XANES or EXAFS, got {kind!r}")
    else:
        kind, element = model.kind, model.element
    manifest, structures_path = data_dir / "manifest.jsonl", data_dir / "structures.jsonl"
    samples = load_dataset(manifest)
    structures = {s.id: (s, a) for s, a in read_structures(structures_path)}
    pairs = []
    for sample in samples:
        sp = sample.xanes if kind == "XANES" else sample.exafs
        if sp.structure_id not in structures:
            raise ValueError(f"{manifest}: a spectrum references structure id "
                             f"{sp.structure_id!r}, which {structures_path} does not hold")
        if element is None or sp.absorber.symbol == element:
            s, absorber = structures[sp.structure_id]
            pairs.append((build_graph(s, absorber, cutoff), sp))
    return pairs


def _predict_spectrum(model, path, cfg: dict, out_dir: Path) -> dict:
    """Write the spectrum of the input structure file's absorber as spectrum.csv."""
    s, absorber = read_structure(path)
    g = build_graph(s, _absorber(cfg, s, absorber), _cutoff(cfg))
    sp = Spectrum(
        grid=EnergyGrid(model.grid_values), mu=pl.forward_predict(model, g), kind=model.kind,
        edge=model.edge, absorber=Element.from_symbol(model.element), structure_id=s.id,
    )
    out_path = out_dir / "spectrum.csv"
    save_spectrum(sp, out_path)
    return {"spectrum_csv": str(out_path)}


def _predict_label(field: str, predict):
    """A predictor that reports predict(model, spectrum pair of the input file) as `field`."""
    return lambda model, path, cfg, out_dir: {field: predict(model, load_spectrum_pair(path))}


def _sample_absorber(sample) -> str:
    return sample.xanes.absorber.symbol


@dataclass(frozen=True)
class Task:
    """What train, eval and predict do for one task.

    The functions call pipelines through its module attributes when they
    run, so a wrapper installed on those attributes sees every call.
    """

    load: Callable  # (data dir, cfg, model or None) -> items: all, or those a model is scored on
    absorber: Callable  # item -> absorber symbol, the key of a per-element scope
    train: Callable  # (items, TrainConfig, validation items) -> (pl.History, model)
    # (model, items, TrainConfig, the model's output on the items or None) -> Metrics
    score: Callable
    predict: Callable  # (model, input file, cfg, out dir) -> the prediction's fields
    scope: str = "per-element"  # the training scope where the `scope` key is unset
    scope_settable: bool = True  # whether the `scope` key applies to this task
    tag: Callable = lambda model: model.element or "unified"  # checkpoint name after the task
    report_scope: Callable = lambda model, unscoped: model.element or unscoped

    @property
    def unscoped(self) -> str:
        """eval's report scope of a model of every element."""
        return "unified" if self.scope == "unified" else "all"


TASKS = {
    "forward": Task(
        load=_forward_pairs,
        absorber=lambda pair: pair[1].absorber.symbol,
        train=lambda items, tcfg, val: pl.train_forward(items, tcfg, val_pairs=val),
        score=lambda model, items, tcfg, out: pl.eval_forward(model, items, tcfg.batch_size, out),
        predict=_predict_spectrum,
        scope_settable=False,
        tag=lambda model: f"{model.element}_{model.kind}",
        report_scope=lambda model, unscoped: f"{model.element}/{model.edge}/{model.kind}",
    ),
    "mnnd": Task(
        load=_samples,
        absorber=_sample_absorber,
        train=lambda items, tcfg, val: pl.train_mnnd(items, tcfg, val_samples=val),
        score=lambda model, items, tcfg, out: pl.eval_mnnd(model, items, out),
        predict=_predict_label("mnnd_angstrom", lambda model, pair: pl.mnnd_predict(model, pair)),
        scope="unified",
    ),
    "neighbor": Task(
        load=_samples,
        absorber=_sample_absorber,
        train=lambda items, tcfg, val: pl.train_neighbor(items, tcfg, val_samples=val),
        score=lambda model, items, tcfg, out: pl.eval_neighbor(model, items, out),
        predict=_predict_label(
            "neighbor_type", lambda model, pair: pl.neighbor_predict(model, pair).symbol
        ),
    ),
    "cn": Task(
        load=_samples,
        absorber=_sample_absorber,
        train=lambda items, tcfg, val: (pl.History(), pl.train_cn(items, tcfg)),
        score=lambda model, items, tcfg, out: pl.eval_cn(model, items),
        predict=_predict_label("cn", lambda model, pair: pl.cn_predict(model, pair)),
    ),
}


# --- command implementations ----------------------------------------------------------


def cmd_synth(args) -> int:
    cfg = resolve_config(args)
    out_dir = Path(args.out)
    samples, _ = synth_dataset(cfg, out_dir)
    outputs = [out_dir / "manifest.jsonl", out_dir / "structures.jsonl"]
    inputs = [args.config] if args.config else []
    write_manifest(out_dir, "synth", args, cfg, inputs, outputs)
    print(f"wrote {len(samples)} samples to {out_dir}")
    return 0


def cmd_extract(args) -> int:
    cfg = resolve_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = read_structures(args.structures)
    out_path = out_dir / "labels.jsonl"
    rows = []
    for s, absorber in records:
        absorber = _absorber(cfg, s, absorber)
        rows.append({"id": s.id, "absorber": absorber, **labels_to_dict(extract_descriptors(s, absorber))})
    write_jsonl(out_path, rows)
    write_manifest(out_dir, "extract", args, cfg, [args.structures], [out_path])
    print(f"wrote {len(records)} label rows to {out_path}")
    return 0


def cmd_train(args) -> int:
    """One model per scope with at least 5 samples: checkpoint, metrics and history."""
    cfg = resolve_config(args)
    name = args.task or cfg["task"]
    if name not in TASKS:
        raise UsageError(f"unknown task {name!r}; choose from {', '.join(TASKS)}")
    task = TASKS[name]
    tcfg = pl.TrainConfig.from_config(cfg)
    data_dir = Path(args.data)
    out_dir = Path(args.out)
    seed = int(cfg["seed"])
    items = task.load(data_dir, cfg)
    scope = cfg.get("scope", task.scope) if task.scope_settable else task.scope
    scoped = {"unified": items}
    if scope == "per-element":
        scoped = {}
        for item in items:
            scoped.setdefault(task.absorber(item), []).append(item)
    outputs = []
    for key in sorted(scoped):
        part = scoped[key]
        if len(part) < 5:
            print(f"skipping scope {key}: {len(part)} samples is too few to split", file=sys.stderr)
            continue
        train_part, val_part = split_dataset(part, seed)
        history, model = task.train(train_part, tcfg, val_part)
        # the validation output of the epoch whose parameters training kept
        metrics = task.score(model, val_part, tcfg, history.val_output)
        if scope == "per-element":
            model.element = key  # eval scores the model on this element only
        tag = f"{name}_{task.tag(model)}"
        ckpt = out_dir / f"{tag}.json"
        model.save(ckpt)
        report = pl.metrics_report(name, task.report_scope(model, "unified"), metrics,
                                   n_train=len(train_part), n_val=len(val_part), seed=seed)
        write_json(out_dir / f"metrics_{tag}.json", report)
        if history:
            pl.write_history_csv(history, out_dir / f"history_{tag}.csv")
            outputs.append(out_dir / f"history_{tag}.csv")
        outputs += [ckpt, out_dir / f"metrics_{tag}.json"]
        print(json.dumps(report, sort_keys=True))
    if not outputs:
        raise ValueError("no element scope has enough samples to train on")
    write_manifest(out_dir, "train", args, cfg, [data_dir], outputs)
    return 0


def cmd_eval(args) -> int:
    cfg = resolve_config(args)
    name, model = pl.load_checkpoint(args.checkpoint)
    task = TASKS[name]
    data_dir = Path(args.data)
    items = task.load(data_dir, cfg, model)
    if not items:
        of = f" of {model.element}" if model.element else ""
        raise ValueError(f"{data_dir} has no samples{of} to evaluate {args.checkpoint} on")
    metrics = task.score(model, items, pl.TrainConfig.from_config(cfg), None)
    report = pl.metrics_report(name, task.report_scope(model, task.unscoped), metrics,
                               n_train=0, n_val=len(items), seed=int(cfg["seed"]))
    out_path = Path(args.out) / "metrics.json"
    write_json(out_path, report)
    write_manifest(Path(args.out), "eval", args, cfg, [args.checkpoint, data_dir], [out_path])
    print(json.dumps(report, sort_keys=True))
    return 0


def cmd_predict(args) -> int:
    cfg = resolve_config(args)
    name, model = pl.load_checkpoint(args.checkpoint)
    if args.task and args.task != name:
        raise ValueError(f"task mismatch: checkpoint is {name!r}, requested {args.task!r}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = {"task": name, **TASKS[name].predict(model, args.input, cfg, out_dir)}
    write_json(out_dir / "prediction.json", result)
    write_manifest(out_dir, "predict", args, cfg, [args.checkpoint, args.input],
                   [out_dir / "prediction.json"])
    print(json.dumps(result, sort_keys=True))
    return 0


def cmd_gradcheck(args) -> int:
    return 1 if gradcheck.run(int(args.seeds), args.corrupt) else 0


# --- plotting ---------------------------------------------------------------------


SVG_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _spectrum_overlay_svg(series, out_path: Path) -> None:
    width, height, margin = 720, 440, 56
    xs = np.concatenate([e for _, e, _ in series])
    ys = np.concatenate([m for _, _, m in series])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x):
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2:.0f}" y="{height - 12}" text-anchor="middle" '
        f'font-size="14">energy (eV)</text>',
        f'<text x="16" y="{height / 2:.0f}" font-size="14" '
        f'transform="rotate(-90 16 {height / 2:.0f})" text-anchor="middle">mu</text>',
    ]
    for i, (label, energy, mu) in enumerate(series):
        color = SVG_COLORS[i % len(SVG_COLORS)]
        points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(energy, mu))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')
        parts.append(
            f'<text x="{width - margin - 4}" y="{margin + 16 * (i + 1)}" text-anchor="end" '
            f'font-size="12" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    out_path.write_text("\n".join(parts) + "\n")


def cmd_plot(args) -> int:
    cfg = resolve_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    metric_rows, series = [], []
    for name in args.files:
        path = Path(name)
        if path.suffix == ".json":
            row = read_json(path)
            if not isinstance(row, dict):
                raise ValueError(f"{path}: metrics must be a JSON object, not a {type(row).__name__}")
            metric_rows.append(row)
        elif path.suffix == ".csv":
            sp = load_spectrum(path)
            series.append((path.stem, sp.grid.values, sp.mu))
        else:
            raise UsageError(f"plot inputs must be metrics .json or spectrum .csv, got {name}")

    outputs = []
    if metric_rows:
        table = out_dir / "metrics_table.csv"
        columns = ["task", "scope", "mae", "r2", "accuracy", "macro_f1",
                   "cross_entropy", "n_train", "n_val", "seed"]
        with open(table, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
            writer.writeheader()
            for row in metric_rows:
                writer.writerow(row)
        outputs.append(table)
    if series:
        overlay = out_dir / "overlay.svg"
        _spectrum_overlay_svg(series, overlay)
        outputs.append(overlay)
    if not outputs:
        raise UsageError("nothing to plot: pass metrics .json and/or spectrum .csv files")
    write_manifest(out_dir, "plot", args, cfg, list(args.files), outputs)
    print("wrote " + ", ".join(str(p) for p in outputs))
    return 0


# --- argument parsing ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="xastruct", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_default=None):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--seed", type=int, help="random seed (overrides config)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        if out_default is not None:
            p.add_argument("--out", default=out_default, help="output directory")

    p = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    common(p, out_default="xastruct_data")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", help="extract descriptor labels from structures")
    p.add_argument("structures", help="JSON-lines structure file")
    common(p, out_default="xastruct_labels")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train one task and write checkpoint + metrics")
    p.add_argument("--task", choices=list(TASKS))
    p.add_argument("--data", required=True, help="dataset directory from synth")
    common(p, out_default="xastruct_train")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="recompute metrics for a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    common(p, out_default="xastruct_eval")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="single-sample inference from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="structure JSON or spectrum-pair JSON")
    p.add_argument("--task", choices=list(TASKS),
                   help="expected task; errors if the checkpoint differs")
    common(p, out_default="xastruct_predict")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference check of every op and block")
    p.add_argument("--seeds", default="20", help="number of random seeds")
    p.add_argument("--corrupt", action="store_true",
                   help="include a deliberately wrong gradient (must fail)")
    common(p)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("plot", help="emit metrics tables (CSV) and spectrum overlays (SVG)")
    p.add_argument("files", nargs="+", help="metrics .json and/or spectrum .csv files")
    common(p, out_default="xastruct_plots")
    p.set_defaults(func=cmd_plot)

    return parser


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters


def _retain_freed_heap() -> None:
    """Keep freed heap memory mapped for the rest of the process (glibc only).

    A training step frees its whole tape, over 100 MB for a forward
    minibatch, and by default glibc hands the top of the heap back to the
    system once that much is free there, so the next step faults every page
    back in. Whether a live allocation happens to sit above the tape and
    prevent it is an accident of layout: training a forward model faulted
    40k to 300k pages depending on it. Fixed thresholds remove the accident:
    blocks up to 32 MiB (glibc's own dynamic maximum) come from the heap,
    and up to 1 GiB of free heap stays mapped.
    """
    import ctypes  # here, so that `import xastruct.cli` does not load it

    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return  # another C library: keep its defaults
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def main(argv=None) -> int:
    _retain_freed_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
