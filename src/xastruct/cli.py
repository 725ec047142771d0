"""Command-line entry point.

    xastruct synth     --out DIR [--config FILE] [--seed N]
    xastruct extract   STRUCTURES --out DIR
    xastruct train     --task {forward,mnnd,neighbor,cn} --data DIR --out DIR
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
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import exafs_oracle as oracle
from . import pipelines as pl
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
from .crystal import (
    DESCRIPTOR_CUTOFF,
    CrystalStructure,
    Element,
    Lattice,
    Site,
    build_graph,
    extract_descriptors,
    neighbor_list,
    structure_from_dict,
    structure_to_dict,
)
from .nn import ConvBlock, GatedLinearLayer, MPEncoder, SBlock, SGMLP, SwiGLULayer
from .spectra import (
    EnergyGrid,
    LabeledSample,
    Spectrum,
    labels_to_dict,
    load_dataset,
    load_spectrum,
    save_dataset,
    save_spectrum,
    split_dataset,
)

EDGE = "K"

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


@dataclass(frozen=True)
class RunManifest:
    command: str
    config_path: str
    seed: int
    inputs: dict
    outputs: list

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "config_path": self.config_path,
            "seed": self.seed,
            "inputs": self.inputs,
            "outputs": self.outputs,
        }


def write_manifest(out_dir: Path, command: str, args, cfg: dict, inputs, outputs) -> None:
    manifest = RunManifest(
        command=command,
        config_path=str(args.config) if args.config else "",
        seed=int(cfg["seed"]),
        inputs={str(p): content_hash(p) for p in inputs},
        outputs=[str(p) for p in outputs],
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "run.json", "w") as fh:
        json.dump(manifest.to_dict(), fh, sort_keys=True, indent=1)
        fh.write("\n")


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
    (structure, absorber, labels, absorber's neighbor_list at DESCRIPTOR_CUTOFF).
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
        neighbors = neighbor_list(s, absorber_index, DESCRIPTOR_CUTOFF)
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
    strain = float(cfg["strain"])
    jitter = float(cfg["jitter"])
    n_grid = int(cfg["n_grid"])
    cutoff = float(cfg["cutoff"])

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
        params = oracle.OracleParams.from_config(
            cfg, e0_ev=oracle.default_edge_energy(s.sites[absorber_index].element)
        )
        xanes = oracle.synth_xanes(
            labels, s.sites[absorber_index].element, params,
            oracle.default_xanes_grid(params.e0_ev, n=n_grid), structure_id=sid,
        )
        exafs = oracle.synth_exafs(
            s, absorber_index, params,
            oracle.default_exafs_grid(params.e0_ev, n=n_grid), cutoff=cutoff,
            neighbors=neighbors if cutoff == DESCRIPTOR_CUTOFF else None,
        )
        samples.append(LabeledSample(xanes=xanes, exafs=exafs, labels=labels))
        structures.append((s, absorber_index))
    return samples, structures


def synth_dataset(cfg: dict, out_dir: Path):
    samples, structures = synth_samples(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_dataset(samples, out_dir / "manifest.jsonl")
    with open(out_dir / "structures.jsonl", "w") as fh:
        for s, absorber_index in structures:
            record = structure_to_dict(s)
            record["absorber"] = absorber_index
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return samples, structures


def _absorber_index(value, n_sites: int, source: str) -> int:
    """`value` as the index of one of n_sites sites; an error names `source`."""
    try:
        index = int(value)
    except (TypeError, ValueError):
        raise ValueError(f"{source} must be a site index, got {value!r}") from None
    if not 0 <= index < n_sites:
        raise ValueError(f"{source} is {index}, out of range for {n_sites} sites")
    return index


def load_structures_with_absorbers(path) -> list:
    """(structure, absorber index) per JSON line; a bad line raises naming the file and line."""
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                s = structure_from_dict(record)
                absorber = _absorber_index(record.get("absorber", 0), len(s), "field 'absorber'")
                out.append((s, absorber))
            except (AttributeError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return out


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
    records = load_structures_with_absorbers(args.structures)
    out_path = out_dir / "labels.jsonl"
    with open(out_path, "w") as fh:
        for s, absorber in records:
            if cfg["absorber"]:
                absorber = _absorber_index(cfg["absorber"], len(s), "config key 'absorber'")
            labels = extract_descriptors(s, absorber)
            row = {"id": s.id, "absorber": absorber}
            row.update(labels_to_dict(labels))
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    write_manifest(out_dir, "extract", args, cfg, [args.structures], [out_path])
    print(f"wrote {len(records)} label rows to {out_path}")
    return 0


def _forward_pairs_from_dataset(data_dir: Path, kind: str, cutoff: float, element: str = None):
    """absorber symbol -> [(graph, spectrum)]; with `element`, that absorber's pairs only."""
    samples = load_dataset(data_dir / "manifest.jsonl")
    structures = {s.id: (s, a) for s, a in load_structures_with_absorbers(data_dir / "structures.jsonl")}
    groups = {}
    for sample in samples:
        sp = sample.xanes if kind == "XANES" else sample.exafs
        if sp.structure_id not in structures:
            raise ValueError(f"spectrum references unknown structure id {sp.structure_id!r}")
        if element is not None and sp.absorber.symbol != element:
            continue
        s, absorber = structures[sp.structure_id]
        g = build_graph(s, absorber, cutoff)
        groups.setdefault(sp.absorber.symbol, []).append((g, sp))
    return groups


def _train_one(task, train_part, val_part, tcfg):
    """(history, model, metrics on the validation part, or on the training part if it is empty)."""
    if task == "cn":
        history, model = [], pl.train_cn(train_part, tcfg)
    else:
        train = pl.train_mnnd if task == "mnnd" else pl.train_neighbor
        history, model = train(train_part, tcfg, val_samples=val_part)
    score = {"mnnd": pl.eval_mnnd, "neighbor": pl.eval_neighbor, "cn": pl.eval_cn}[task]
    return history, model, score(model, val_part or train_part)


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    task = args.task or cfg["task"]
    if task not in ("forward", "mnnd", "neighbor", "cn"):
        raise UsageError(f"unknown task {task!r}; choose forward, mnnd, neighbor, or cn")
    tcfg = pl.TrainConfig.from_config(cfg)
    data_dir = Path(args.data)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = int(cfg["seed"])
    outputs = []

    if task == "forward":
        kind = cfg["forward_kind"]
        if kind not in ("XANES", "EXAFS"):
            raise UsageError(f"forward_kind must be XANES or EXAFS, got {kind!r}")
        groups = _forward_pairs_from_dataset(data_dir, kind, float(cfg["cutoff"]))
        for symbol, pairs in sorted(groups.items()):
            train_part, val_part = split_dataset(pairs, seed)
            history, model = pl.train_forward(train_part, tcfg, val_pairs=val_part)
            metrics = pl.eval_forward(model, val_part, tcfg.batch_size)
            tag = f"forward_{symbol}_{kind}"
            ckpt = out_dir / f"{tag}.json"
            model.save(ckpt)
            report = pl.metrics_report(
                "forward", f"{symbol}/{EDGE}/{kind}", metrics,
                n_train=len(train_part), n_val=len(val_part), seed=seed,
            )
            pl.write_metrics_json(report, out_dir / f"metrics_{tag}.json")
            pl.write_history_csv(history, out_dir / f"history_{tag}.csv")
            outputs += [ckpt, out_dir / f"metrics_{tag}.json", out_dir / f"history_{tag}.csv"]
            print(json.dumps(report, sort_keys=True))
    else:
        samples = load_dataset(data_dir / "manifest.jsonl")
        per_element = not (tcfg.scope == "unified" or task == "mnnd" and "scope" not in cfg)
        scoped = pl.group_by_element(samples) if per_element else {"unified": samples}
        trained = 0
        for scope_key in sorted(scoped):
            part = scoped[scope_key]
            if len(part) < 5:
                print(f"skipping scope {scope_key}: {len(part)} samples is too few to split",
                      file=sys.stderr)
                continue
            trained += 1
            train_part, val_part = split_dataset(part, seed)
            history, model, metrics = _train_one(task, train_part, val_part, tcfg)
            if per_element:
                model.element = scope_key  # eval scores the model on this element only
            tag = f"{task}_{scope_key}"
            ckpt = out_dir / f"{tag}.json"
            model.save(ckpt)
            report = pl.metrics_report(
                task, scope_key, metrics, n_train=len(train_part), n_val=len(val_part), seed=seed
            )
            pl.write_metrics_json(report, out_dir / f"metrics_{tag}.json")
            if history:
                pl.write_history_csv(history, out_dir / f"history_{tag}.csv")
                outputs.append(out_dir / f"history_{tag}.csv")
            outputs += [ckpt, out_dir / f"metrics_{tag}.json"]
            print(json.dumps(report, sort_keys=True))
        if not trained:
            raise ValueError("no element scope has enough samples to train on")

    write_manifest(out_dir, "train", args, cfg, [data_dir], outputs)
    return 0


def _load_checkpoint(path):
    """(task, model) from one parse of the checkpoint, dispatched on its header."""
    doc = pl.read_checkpoint(path)
    header = doc.get("header") if isinstance(doc, dict) else None
    task = header.get("task", "") if isinstance(header, dict) else ""
    models = {
        "forward": pl.ForwardModel,
        "mnnd": pl.InverseMNND,
        "neighbor": pl.InverseNeighbor,
        "cn": pl.CNClassifier,
    }
    if task not in models:
        raise ValueError(f"checkpoint {path} has unknown task {task!r}")
    try:
        return task, models[task].from_doc(doc)
    except KeyError as exc:
        # str() of a KeyError is only the quoted key, as in "error: 'forest'"
        raise ValueError(f"checkpoint {path}: missing {exc.args[0]}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint {path}: {exc}") from None


def cmd_eval(args) -> int:
    cfg = resolve_config(args)
    task, model = _load_checkpoint(args.checkpoint)
    data_dir = Path(args.data)
    out_dir = Path(args.out)
    seed = int(cfg["seed"])

    if task == "forward":
        groups = _forward_pairs_from_dataset(data_dir, model.kind, float(cfg["cutoff"]), model.element)
        if model.element not in groups:
            raise ValueError(f"dataset has no {model.element} {model.kind} samples to evaluate")
        pairs = groups[model.element]
        metrics = pl.eval_forward(model, pairs, pl.TrainConfig.from_config(cfg).batch_size)
        scope = f"{model.element}/{model.edge}/{model.kind}"
        n_val = len(pairs)
    else:
        manifest = data_dir / "manifest.jsonl"
        samples = load_dataset(manifest)
        scope = "unified" if task == "mnnd" else "all"
        if model.element is not None:
            # a per-element checkpoint is scored on its own element's samples
            samples = pl.group_by_element(samples).get(model.element)
            if not samples:
                raise ValueError(
                    f"{manifest} has no {model.element} samples to evaluate {args.checkpoint} on"
                )
            scope = model.element
        score = {"mnnd": pl.eval_mnnd, "neighbor": pl.eval_neighbor, "cn": pl.eval_cn}[task]
        metrics, n_val = score(model, samples), len(samples)

    report = pl.metrics_report(task, scope, metrics, n_train=0, n_val=n_val, seed=seed)
    out_path = Path(out_dir) / "metrics.json"
    pl.write_metrics_json(report, out_path)
    write_manifest(Path(out_dir), "eval", args, cfg, [args.checkpoint, data_dir], [out_path])
    print(json.dumps(report, sort_keys=True))
    return 0


def _read_json_input(path):
    """The JSON document of a predict input; a parse error names the file and line."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{exc.lineno}: {exc.msg}") from None


def _sample_from_input(path):
    """A spectrum-pair JSON {"xanes": csv, "exafs": csv}, paths relative to it."""
    path = Path(path)
    doc = _read_json_input(path)
    if not isinstance(doc, dict) or "xanes" not in doc or "exafs" not in doc:
        raise ValueError(
            f"{path} is not a spectrum-pair input; expected JSON with xanes/exafs keys"
        )
    for key in ("xanes", "exafs"):
        if not isinstance(doc[key], str):
            raise ValueError(f"{path}: {key!r} must be a CSV path, got {doc[key]!r}")
    return SimpleNamespace(
        xanes=load_spectrum(path.parent / doc["xanes"]),
        exafs=load_spectrum(path.parent / doc["exafs"]),
    )


def cmd_predict(args) -> int:
    cfg = resolve_config(args)
    task, model = _load_checkpoint(args.checkpoint)
    if args.task and args.task != task:
        raise ValueError(f"task mismatch: checkpoint is {task!r}, requested {args.task!r}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if task == "forward":
        record = _read_json_input(args.input)
        try:
            s = structure_from_dict(record)
        except ValueError as exc:
            raise ValueError(f"{args.input}: {exc}") from None
        if cfg["absorber"]:
            absorber = _absorber_index(cfg["absorber"], len(s), "config key 'absorber'")
        else:
            absorber = _absorber_index(record.get("absorber", 0), len(s),
                                       f"{args.input}: field 'absorber'")
        g = build_graph(s, absorber, float(cfg["cutoff"]))
        mu = pl.forward_predict(model, g)
        sp = Spectrum(
            grid=EnergyGrid(model.grid_values), mu=mu, kind=model.kind, edge=model.edge,
            absorber=Element.from_symbol(model.element), structure_id=s.id,
        )
        out_path = out_dir / "spectrum.csv"
        save_spectrum(sp, out_path)
        result = {"task": task, "spectrum_csv": str(out_path)}
    else:
        sample = _sample_from_input(args.input)
        if task == "mnnd":
            result = {"task": task, "mnnd_angstrom": pl.mnnd_predict(model, sample)}
        elif task == "neighbor":
            result = {"task": task, "neighbor_type": pl.neighbor_predict(model, sample).symbol}
        else:
            result = {"task": task, "cn": pl.cn_predict(model, sample)}

    with open(out_dir / "prediction.json", "w") as fh:
        json.dump(result, fh, sort_keys=True)
        fh.write("\n")
    write_manifest(out_dir, "predict", args, cfg, [args.checkpoint, args.input],
                   [out_dir / "prediction.json"])
    print(json.dumps(result, sort_keys=True))
    return 0


# --- gradient check suite --------------------------------------------------------------


def _gradcheck_cases(seed: int):
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
    bn_x, bn_g, bn_b = p(4, 3), p(3), p(3)
    case(
        "batch_norm(train)",
        (bn_x, bn_g, bn_b),
        lambda: batch_norm_1d(bn_x, bn_g, bn_b, BatchNormState(3), training=True),
    )
    bn_state = BatchNormState(3)
    bn_state.running_mean = rng.standard_normal(3) * 0.1
    bn_state.running_var = 1.0 + rng.random(3)
    case(
        "batch_norm(eval)",
        (bn_x, bn_g, bn_b),
        lambda: batch_norm_1d(bn_x, bn_g, bn_b, bn_state, training=False),
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
    # segments 1 and 4 are empty
    case("segment_sum", (seg_x,), lambda: segment_sum(seg_x, [0, 0, 2, 3, 3], 5))
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


def _corrupted_case():
    x = Parameter(np.array([0.7, -0.4, 1.2]))

    def loss():
        def _backward(g):
            x.grad[...] += 1.9 * g  # wrong on purpose: forward scale is 2.0

        out = Tensor(x.data * 2.0, (x,), _backward)
        return total(mul(out, out))

    return (x,), loss


def cmd_gradcheck(args) -> int:
    failures = 0
    worst_by_case = {}
    # eps 1e-5 keeps central-difference truncation error (third-derivative
    # terms, worst through LayerNorm at small widths) below the 1e-4 gate
    for seed in range(int(args.seeds)):
        for name, params, loss_fn in _gradcheck_cases(seed):
            worst, bad = finite_difference_check(loss_fn, list(params), eps=1e-5)
            worst_by_case[name] = max(worst, worst_by_case.get(name, 0.0))
            if bad:
                failures += 1
                print(f"seed {seed:2d}  {name:22s} max_rel={worst:.3e}  FAIL")
    for name, worst in worst_by_case.items():
        print(f"{name:22s} max_rel={worst:.3e}  {'FAIL' if worst > 1e-4 else 'PASS'}")
    if args.corrupt:
        params, loss_fn = _corrupted_case()
        worst, bad = finite_difference_check(loss_fn, list(params), eps=1e-5)
        print(f"{'corrupted fixture':22s} max_rel={worst:.3e}  {'FAIL' if bad else 'PASS'}")
        failures += bool(bad)
    print(f"gradcheck: {'FAILED' if failures else 'ok'} ({failures} failing cases)")
    return 1 if failures else 0


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
            with open(path) as fh:
                metric_rows.append(json.load(fh))
        elif path.suffix == ".csv":
            sp = load_spectrum(path)
            series.append((path.stem, sp.grid.values, sp.mu))
        else:
            raise UsageError(f"plot inputs must be metrics .json or spectrum .csv, got {name}")

    outputs = []
    if metric_rows:
        import csv as _csv

        table = out_dir / "metrics_table.csv"
        columns = ["task", "scope", "mae", "r2", "accuracy", "macro_f1",
                   "cross_entropy", "n_train", "n_val", "seed"]
        with open(table, "w", newline="") as fh:
            writer = _csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
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
    p.add_argument("--task", choices=["forward", "mnnd", "neighbor", "cn"])
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
    p.add_argument("--task", help="expected task; errors if the checkpoint differs")
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
