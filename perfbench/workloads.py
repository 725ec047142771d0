"""The benchmark's workloads: seeded inputs, one closed-loop round of CLI commands, checks.

A workload runs one stage of the loop a user runs. Each round sets up its
inputs, builds the stage's artifact once (`synth` for corpus; `train` for
forward and inverse), then reads it in a few passes. A pass is one scan,
the commands over a whole dataset (`extract`; `eval`), then a few point
queries, commands on one structure or one sample (`extract`; `predict`).
The checks score what the round wrote.

Paths are relative: the runner makes the work directory the current
directory, so the files the program writes (the `run.json` manifests
record their input paths) do not depend on where the checkout lives.
"""

import contextlib
import gc
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import reference as ref
from clock import timed

FORWARD_ELEMENT = "Cu"  # the forward checkpoint that eval and predict use
INVERSE_ELEMENTS = "Ni,Se"  # well-separated scatterers from acceptance test c6

# training settings; everything else keeps the CLI defaults
N_TREES = 20
FORWARD_TRAIN = ("--set", "epochs=2")
INVERSE_TRAIN = {
    "mnnd": ("--set", "epochs=5", "--set", "lr=3e-3", "--set", "batch_size=32",
             "--set", "weight_decay=1e-5"),
    "neighbor": ("--set", "epochs=20", "--set", "lr=3e-3", "--set", "batch_size=32",
                 "--set", "weight_decay=1e-5"),
    "cn": ("--set", f"n_trees={N_TREES}", "--set", "max_depth=12"),
}

# the method's thresholds (acceptance criteria c4-c6)
MNND_R2_MIN = 0.90
MNND_MAE_MAX = 0.08
ACCURACY_MIN = 0.85


class CommandFailed(RuntimeError):
    pass


class Ledger:
    """Operations attempted and failed; an operation is a CLI command or a check.

    A failure is (name, detail, known): `known` marks the one fault the
    benchmark expects, every other failure makes the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, name, ok, detail="", known=False):
        self.attempted += 1
        if not ok:
            self.failures.append((name, detail, known))
        return ok


class Workload:
    """`setup()` writes the inputs; `build()` and `read()` run a round's commands;
    `checks()` scores the round's outputs. `seconds` and `wall` sum
    the time of the commands run since the caller last reset them, at
    reference speed and on the wall clock (`clock.py`)."""

    name = ""
    setups = 1  # set-ups a round; a short one is repeated, for more samples of setup_s
    passes = 1  # passes a round: each runs `scan()`, then `point()` `points` times
    points = 1
    figures = ()  # (name, unit) of the per-command figures `sample` records

    def __init__(self, seed, cli, ledger: Ledger, src: Path):
        self.seed = seed
        self.cli = cli
        self.ledger = ledger
        self.src = src
        self.seconds = 0.0
        self.wall = 0.0
        self.inputs = Path("inputs")

    def call(self, argv):
        """One CLI command in-process, untimed and not counted."""
        argv = [str(a) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main(argv)
        if code != 0:
            raise CommandFailed(f"xastruct {' '.join(argv)} exited {code}")

    def run(self, argv):
        """One timed CLI command, counted as an operation; returns its seconds at
        reference speed."""
        # start each command from a collected heap, as a fresh process would; the
        # autodiff tapes are reference cycles, so leftovers otherwise set the peak
        gc.collect()
        self.ledger.attempted += 1
        with timed() as t:
            self.call(argv)
        self.seconds += t.seconds
        self.wall += t.wall
        return t.seconds

    def synth(self, out, seed, n, *settings):
        fresh(out)
        argv = ["synth", "--out", out, "--seed", seed, "--set", f"n_samples={n}"]
        for setting in settings:
            argv += ["--set", setting]
        self.call(argv)

    def setup(self):
        """Start an interpreter that imports the CLI, as every command line run does
        (the benchmark's own commands run in-process and pay it once), then write
        the workload's inputs; returns the timing."""
        env = dict(os.environ, PYTHONPATH=str(self.src))
        gc.collect()
        with timed() as t:
            subprocess.run([sys.executable, "-c", "import xastruct.cli"], env=env, check=True)
            fresh(self.inputs).mkdir(parents=True)
            self.write_inputs()
        return t

    def write_inputs(self):
        pass

    def read(self, rnd, sample):
        """One pass."""
        self.scan(rnd, sample)
        for i in range(self.points):
            self.point(rnd, i, sample)


class Corpus(Workload):
    """`synth` of a seeded corpus, then `extract` of all its structures and of
    single structures."""

    name = "corpus"
    setups = 3
    passes = 2
    points = len(ref.NOMINAL_CN)  # one structure of each template a pass
    figures = (("synth_samples_per_s", "samples/s"),
               ("extract_structures_per_s", "structures/s"), ("extract_one_ms", "ms"))
    n_samples = 300  # Ti/Fe/Cu/Zn, all 5 templates, 100-point grids (the defaults)
    exafs_every = 30  # every 30th sample's EXAFS is recomputed

    def build(self, rnd, sample):
        t = self.run(["synth", "--out", fresh(rnd / "synth"), "--seed", self.seed,
                      "--set", f"n_samples={self.n_samples}"])
        sample("synth_samples_per_s", self.n_samples / t)
        # the point queries' inputs: of each template, the structure whose mnnd
        # is nearest 2.5 A, so their cost does not swing with the seed
        lines = (rnd / "synth" / "structures.jsonl").read_text().splitlines()
        manifest = _jsonl(rnd / "synth" / "manifest.jsonl")
        self.singles = []
        for template in ref.NOMINAL_CN:
            rows = [i for i, line in enumerate(lines)
                    if ref.template_of(json.loads(line)["id"]) == template]
            i = min(rows, key=lambda i: (abs(manifest[i]["labels"]["mnnd"] - 2.5), i))
            path = rnd / f"single_{template}.jsonl"
            path.write_text(lines[i] + "\n")
            self.singles.append((path, i))

    def scan(self, rnd, sample):
        t = self.run(["extract", rnd / "synth" / "structures.jsonl",
                      "--out", fresh(rnd / "extract")])
        sample("extract_structures_per_s", self.n_samples / t)

    def point(self, rnd, i, sample):
        path, _ = self.singles[i]
        t = self.run(["extract", path, "--out", fresh(rnd / f"extract_{path.stem}")])
        sample("extract_one_ms", 1e3 * t)

    def checks(self, rnd, xa):
        check = self.ledger.check
        data = rnd / "synth"
        manifest = _jsonl(data / "manifest.jsonl")
        records = _jsonl(data / "structures.jsonl")
        extracted = _jsonl(rnd / "extract" / "labels.jsonl")
        bad_brute, bad_template, bad_exafs = [], [], []
        worst_exafs = 0.0
        for i, (row, record) in enumerate(zip(manifest, records)):
            labels = row["labels"]
            basis, frac, species = ref.structure_arrays(record)
            cn, mnnd, neighbor = ref.first_shell_labels(basis, frac, species, record["absorber"])
            if (cn != labels["cn"] or abs(mnnd - labels["mnnd"]) > 1e-9
                    or neighbor != labels["neighbor_type"]):
                bad_brute.append(record["id"])
            if labels["cn"] != ref.NOMINAL_CN[ref.template_of(record["id"])]:
                bad_template.append(record["id"])
            if i % self.exafs_every == 0:
                mu = _spectrum_mu(data / row["exafs"])
                shells = ref.scattering_shells(basis, frac, species, record["absorber"])
                chi = ref.single_scattering_chi(shells, ref.exafs_k_grid(mu.size))
                err = float(np.max(np.abs((mu - 1.0) - chi)))
                worst_exafs = max(worst_exafs, err)
                if err > 1e-8:
                    bad_exafs.append(record["id"])
        n = len(records)
        check("corpus.labels_match_brute_force", len(manifest) == n == self.n_samples
              and not bad_brute, f"{len(bad_brute)} of {n} differ, first {bad_brute[:3]}")
        check("corpus.cn_matches_template", not bad_template,
              f"{len(bad_template)} of {n} differ, first {bad_template[:3]}")
        same = len(extracted) == n and all(
            e["id"] == r["id"] and e["cn"] == m["labels"]["cn"]
            and e["neighbor_type"] == m["labels"]["neighbor_type"]
            and abs(e["mnnd"] - m["labels"]["mnnd"]) <= 1e-12
            and e["shell_distances"] == m["labels"]["shell_distances"]
            for e, r, m in zip(extracted, records, manifest))
        check("corpus.extract_matches_manifest", same)
        for path, i in self.singles:
            got = _jsonl(rnd / f"extract_{path.stem}" / "labels.jsonl")
            want = manifest[i]["labels"]
            check(f"corpus.extract_{path.stem}", len(got) == 1
                  and got[0]["id"] == records[i]["id"] and got[0]["cn"] == want["cn"]
                  and abs(got[0]["mnnd"] - want["mnnd"]) <= 1e-12
                  and got[0]["neighbor_type"] == want["neighbor_type"], f"{got}")
        check("corpus.exafs_matches_single_scattering", not bad_exafs,
              f"max |mu - 1 - chi| {worst_exafs:.2e} on {bad_exafs[:3]}")


class Forward(Workload):
    """`train --task forward` on a seeded corpus, then `eval` of the Cu checkpoint
    and single-structure `predict`s."""

    name = "forward"
    setups = 3
    passes = 2
    points = 3  # two predicts of the structure, then one of its reordered copy
    figures = (("train_forward_graphs_per_s", "graphs/s"), ("eval_forward_s", "s"),
               ("predict_forward_ms", "ms"))
    n_samples = 60  # a multiple of the 5 templates
    elements = "Ti,Fe,Cu,Zn"
    # A graph's edge count, the forward model's work, grows as mnnd^-3. Over the
    # default 1.8-3.2 A an 80-sample corpus held 29k to 46k edges, seed to seed.
    mnnd_range = ("mnnd_min=2.3", "mnnd_max=2.7")
    data, point_data = Path("forward_data"), Path("forward_point")

    def write_inputs(self):
        self._template_balanced_synth()
        self._structures()

    def _template_balanced_synth(self):
        """One synth per template, n / 5 samples each, merged into one corpus.

        Forward training time and memory grow with the graphs' site counts,
        which range from 1 (sc) to 12 (fluorite); a fixed template mix keeps
        them from swinging with the workload seed.
        """
        out = self.data
        fresh(out).mkdir(parents=True)
        manifest, structures = [], []
        for k, template in enumerate(ref.NOMINAL_CN):
            # a seed of its own per template: with one seed, every template would
            # draw the same sequence of absorber elements
            part = Path(f"part_{template}")
            self.synth(part, 8 * self.seed + k, self.n_samples // 5, f"elements={self.elements}",
                       f"templates={template}", *self.mnnd_range)
            for row in _jsonl(part / "manifest.jsonl"):
                for kind in ("xanes", "exafs"):
                    name = f"sample_{len(manifest):06d}_{kind}.csv"
                    for suffix in (".csv", ".json"):
                        (part / row[kind]).with_suffix(suffix).rename(
                            (out / name).with_suffix(suffix))
                    row[kind] = name
                manifest.append(row)
            structures += (part / "structures.jsonl").read_text().splitlines()
            shutil.rmtree(part)
        (out / "manifest.jsonl").write_text("".join(json.dumps(r, sort_keys=True) + "\n"
                                                    for r in manifest))
        (out / "structures.jsonl").write_text("".join(line + "\n" for line in structures))

    def _structures(self):
        """The predicted structure, from a one-sample synth of its own: a Cu
        fluorite cell (12 sites, the most of any template) at mnnd 2.5 A, so the
        graph's size does not swing with the seed; and a copy of it with the
        sites reversed."""
        self.synth(self.point_data, 8 * self.seed + 5, 1, f"elements={FORWARD_ELEMENT}",
                   "templates=fluorite_cation", "mnnd_min=2.5", "mnnd_max=2.5")
        record = _jsonl(self.point_data / "structures.jsonl")[0]
        reordered = dict(record, sites=record["sites"][::-1],
                         absorber=len(record["sites"]) - 1 - record["absorber"])
        _write_json(self.inputs / "structure.json", record)
        _write_json(self.inputs / "structure_reordered.json", reordered)

    @staticmethod
    def checkpoint(rnd):
        return rnd / "forward" / f"forward_{FORWARD_ELEMENT}_XANES.json"

    def build(self, rnd, sample):
        out = fresh(rnd / "forward")
        t = self.run(["train", "--task", "forward", "--data", self.data, "--out", out,
                      *FORWARD_TRAIN])
        graphs = sum(_trained(path) for path in out.glob("metrics_forward_*.json"))
        sample("train_forward_graphs_per_s", graphs / t)

    def scan(self, rnd, sample):
        t = self.run(["eval", "--checkpoint", self.checkpoint(rnd), "--data", self.data,
                      "--out", fresh(rnd / "forward_eval")])
        sample("eval_forward_s", t)

    def point(self, rnd, i, sample):
        name = "structure_reordered" if i == self.points - 1 else "structure"
        t = self.run(["predict", "--checkpoint", self.checkpoint(rnd),
                      "--input", self.inputs / f"{name}.json", "--out", rnd / f"predict_{name}"])
        sample("predict_forward_ms", 1e3 * t)

    def checks(self, rnd, xa):
        check = self.ledger.check
        pl, crystal = xa["pipelines"], xa["crystal"]
        losses = [_history_losses(p) for p in sorted((rnd / "forward").glob("history_forward_*.csv"))]
        check("forward.training_loss_falls",
              losses and all(len(h) >= 2 and h[-1] < h[0] for h in losses),
              f"train_loss by epoch {losses}")

        a = _spectrum_mu(rnd / "predict_structure" / "spectrum.csv")
        b = _spectrum_mu(rnd / "predict_structure_reordered" / "spectrum.csv")
        # one unit in the CSV's tenth significant digit on top of the 1e-9 gap
        quantum = 10.0 ** (np.floor(np.log10(np.max(np.abs(a)))) - 9)
        gap = float(np.max(np.abs(a - b)))
        check("forward.predict_permutation_invariant", gap <= 1e-9 + quantum, f"gap {gap:.2e}")

        model = pl.ForwardModel.load(self.checkpoint(rnd))
        manifest = _jsonl(self.data / "manifest.jsonl")
        records = _jsonl(self.data / "structures.jsonl")
        record = _jsonl(self.point_data / "structures.jsonl")[0]
        graph = crystal.build_graph(crystal.structure_from_dict(record), record["absorber"], 6.0)
        xanes = _jsonl(self.point_data / "manifest.jsonl")[0]["xanes"]
        target = _spectrum_mu(self.point_data / xanes) - model.y_center
        worst = _worst_fd_error(xa["autodiff"], model, graph, target)
        check("forward.gradients_match_finite_differences", worst <= 1e-4,
              f"max relative error {worst:.2e}")

        preds, targets = [], []
        for row, record in zip(manifest, records):
            if record["sites"][record["absorber"]]["element"] != FORWARD_ELEMENT:
                continue
            g = crystal.build_graph(crystal.structure_from_dict(record), record["absorber"], 6.0)
            preds.append(pl.forward_predict(model, g))
            targets.append(_spectrum_mu(self.data / row["xanes"]))
        report = json.loads((rnd / "forward_eval" / "metrics.json").read_text())
        p, t = np.concatenate(preds), np.concatenate(targets)
        ok = (report["n_val"] == len(preds) and ref.close(report["mae"], ref.mae(p, t))
              and ref.close(report["r2"], ref.r2(p, t)))
        check("forward.eval_matches_recomputation", ok,
              f"eval n_val {report['n_val']} mae {report['mae']} r2 {report['r2']}; "
              f"recomputed n {len(preds)} mae {ref.mae(p, t)} r2 {ref.r2(p, t)}")


class Inverse(Workload):
    """`train` of mnnd, neighbor and cn on a seeded corpus, then `eval` of every
    checkpoint on a held-out corpus and `predict`s on held-out samples."""

    name = "inverse"
    points = 12  # a point query predicts mnnd, cn and neighbor of one held-out sample
    tasks = ("mnnd", "cn", "neighbor")
    figures = (("train_mnnd_samples_per_s", "samples/s"),
               ("train_neighbor_samples_per_s", "samples/s"),
               ("train_cn_trees_per_s", "trees/s"), ("eval_inverse_s", "s"),
               ("predict_mnnd_ms", "ms"), ("predict_cn_ms", "ms"), ("predict_neighbor_ms", "ms"))
    n_train, n_held = 600, 100  # Ni/Se, all 5 templates
    data, held = Path("inverse_data"), Path("held_data")

    def write_inputs(self):
        self.synth(self.data, self.seed + 2, self.n_train, f"elements={INVERSE_ELEMENTS}")
        self.synth(self.held, self.seed + 3, self.n_held, f"elements={INVERSE_ELEMENTS}")
        manifest = _jsonl(self.held / "manifest.jsonl")
        self.samples = []  # (pair file, element, labels)
        for i, record in enumerate(manifest[:self.points]):
            path = self.inputs / f"pair_{i:04d}.json"
            _write_json(path, {"xanes": f"../{self.held}/{record['xanes']}",
                               "exafs": f"../{self.held}/{record['exafs']}"})
            meta = json.loads((self.held / record["xanes"]).with_suffix(".json").read_text())
            self.samples.append((path, meta["absorber"], record["labels"]))

    @staticmethod
    def checkpoints(rnd):
        return ([rnd / "mnnd" / "mnnd_unified.json"] + sorted((rnd / "cn").glob("cn_*.json"))
                + sorted((rnd / "neighbor").glob("neighbor_*.json")))

    def build(self, rnd, sample):
        for task in ("mnnd", "neighbor", "cn"):
            out = fresh(rnd / task)
            t = self.run(["train", "--task", task, "--data", self.data, "--out", out,
                          *INVERSE_TRAIN[task]])
            if task == "cn":
                sample("train_cn_trees_per_s", N_TREES * len(list(out.glob("cn_*.json"))) / t)
            else:
                done = sum(_trained(path) for path in out.glob(f"metrics_{task}_*.json"))
                sample(f"train_{task}_samples_per_s", done / t)

    def scan(self, rnd, sample):
        total = 0.0
        for ckpt in self.checkpoints(rnd):
            total += self.run(["eval", "--checkpoint", ckpt, "--data", self.held,
                               "--out", fresh(rnd / "eval" / ckpt.stem)])
        sample("eval_inverse_s", total)

    def point(self, rnd, i, sample):
        path, element, _ = self.samples[i]
        for task in self.tasks:
            ckpt = rnd / task / ("mnnd_unified.json" if task == "mnnd" else
                                 f"{task}_{element}.json")
            t = self.run(["predict", "--checkpoint", ckpt, "--input", path,
                          "--out", rnd / "predict" / f"{task}_{i:04d}"])
            sample(f"predict_{task}_ms", 1e3 * t)

    def checks(self, rnd, xa):
        check = self.ledger.check
        pl, spectra = xa["pipelines"], xa["spectra"]
        held = spectra.load_dataset(self.held / "manifest.jsonl")
        by_element = pl.group_by_element(held)

        model = pl.InverseMNND.load(rnd / "mnnd" / "mnnd_unified.json")
        pred = [pl.mnnd_predict(model, s) for s in held]
        truth = [s.labels.mnnd for s in held]
        r2, mae = ref.r2(pred, truth), ref.mae(pred, truth)
        check("inverse.mnnd_held_out", r2 >= MNND_R2_MIN and mae <= MNND_MAE_MAX,
              f"R2 {r2:.4f} MAE {mae:.4f}")
        report = _eval_report(rnd, "mnnd_unified")
        check("inverse.mnnd_eval_matches_recomputation", report["n_val"] == len(held)
              and ref.close(report["r2"], r2) and ref.close(report["mae"], mae),
              f"eval n_val {report['n_val']} R2 {report['r2']} MAE {report['mae']}; "
              f"recomputed n {len(held)} R2 {r2} MAE {mae}")

        models = {}
        for ckpt in self.checkpoints(rnd)[1:]:
            task, element = ckpt.stem.split("_", 1)
            samples = by_element[element]
            if task == "cn":
                classifier = models[ckpt.stem] = pl.CNClassifier.load(ckpt)
                pred = [pl.cn_predict(classifier, s) for s in samples]
                truth = [s.labels.cn for s in samples]
            else:
                classifier = models[ckpt.stem] = pl.InverseNeighbor.load(ckpt)
                logits = classifier.logits(samples)
                pred = [classifier.classes[i] for i in np.argmax(logits, axis=1)]
                truth = [s.labels.neighbor_type.atomic_number for s in samples]
            own = ref.accuracy(pred, truth)
            check(f"inverse.{ckpt.stem}.accuracy", own >= ACCURACY_MIN, f"accuracy {own:.3f}")
            report = _eval_report(rnd, ckpt.stem)
            # Known fault: the per-element checkpoint does not record its element, so
            # eval scores it on the whole held-out corpus. Any other mismatch is not it.
            check(f"inverse.{ckpt.stem}.eval_scope",
                  report["n_val"] == len(samples) and ref.close(report["accuracy"], own),
                  f"eval n_val {report['n_val']} accuracy {report['accuracy']:.3f}; "
                  f"{element} held-out n {len(samples)} accuracy {own:.3f}",
                  known=report["n_val"] == len(held) != len(samples))

        # each predict must give what its checkpoint gives on that sample; the
        # checkpoints' accuracy is checked above, on every held-out sample
        for task in self.tasks:
            wrong = []
            for i, (_, element, _) in enumerate(self.samples):
                got = json.loads((rnd / "predict" / f"{task}_{i:04d}" / "prediction.json")
                                 .read_text())
                if task == "mnnd":
                    ok = ref.close(got["mnnd_angstrom"], pl.mnnd_predict(model, held[i]))
                elif task == "cn":
                    ok = got["cn"] == pl.cn_predict(models[f"cn_{element}"], held[i])
                else:
                    want = pl.neighbor_predict(models[f"neighbor_{element}"], held[i])
                    ok = got["neighbor_type"] == want.symbol
                if not ok:
                    wrong.append((i, got))
            check(f"inverse.predict_{task}_matches_checkpoint", not wrong,
                  f"{len(wrong)} of {len(self.samples)} differ, first {wrong[:2]}")


WORKLOADS = {w.name: w for w in (Corpus, Forward, Inverse)}


# --- file helpers ---------------------------------------------------------------------


def fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    return path


def _jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _write_json(path, doc):
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")


def _spectrum_mu(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=1, ndmin=1)


def _history_losses(path):
    lines = Path(path).read_text().splitlines()[1:]
    return [float(line.split(",")[1]) for line in lines if line]


def _trained(metrics_path):
    """Training samples times epochs run, from a train command's metrics and history."""
    metrics_path = Path(metrics_path)
    report = json.loads(metrics_path.read_text())
    history = metrics_path.with_name(metrics_path.name.replace("metrics_", "history_", 1))
    history = history.with_suffix(".csv")
    return report["n_train"] * len(_history_losses(history))


def _eval_report(rnd, stem):
    return json.loads((rnd / "eval" / stem / "metrics.json").read_text())


def _worst_fd_error(ad, model, graph, target, entries=3, eps=1e-6):
    """Largest relative gap between backward() and central differences.

    Checks the largest-gradient entry of the first, middle and last parameter.
    """
    params = model.named_parameters()

    def loss():
        return ad.mse_loss(model.predict_tensor(graph), target)

    for p in params.values():
        p.grad[...] = 0.0
    ad.backward(loss())
    names = list(params)
    chosen = [names[0], names[len(names) // 2], names[-1]][:entries]
    worst = 0.0
    for name in chosen:
        p = params[name]
        flat = p.data.reshape(-1)
        i = int(np.argmax(np.abs(p.grad.reshape(-1))))
        analytic = float(p.grad.reshape(-1)[i])
        saved = flat[i]
        flat[i] = saved + eps
        up = loss().item()
        flat[i] = saved - eps
        down = loss().item()
        flat[i] = saved
        numeric = (up - down) / (2.0 * eps)
        worst = max(worst, abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12))
    return worst
