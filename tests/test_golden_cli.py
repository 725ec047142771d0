"""Golden values of a tiny seeded synth -> train -> eval -> predict through the CLI.

A change that only reorders float sums must leave what the commands report
unchanged to within 1e-12 relative. These runs pin, for all four tasks, every
number in train's and eval's metrics.json and the predict output: the
forward spectrum, the MNND distance, the neighbor species and the CN.

After a deliberate change to what the commands compute, regenerate with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import csv
import json
import sys
import tempfile
from pathlib import Path

import pytest

from xastruct import cli

GOLDEN = Path(__file__).with_name("golden_cli.json")
RTOL = 1e-12
TASKS = ("forward", "mnnd", "neighbor", "cn")

SYNTH = ["--seed", "5", "--set", "n_samples=40", "--set", "elements=Ti,Cu", "--set", "n_grid=24"]
TRAIN = {
    "forward": ["--seed", "2", "--set", "epochs=3", "--set", "lr=0.01", "--set", "batch_size=4",
                "--set", "encoder_dim=4", "--set", "encoder_rounds=2", "--set", "encoder_rbf=4",
                "--set", "encoder_hidden=4", "--set", "forward_hidden=6", "--set", "forward_k=2",
                "--set", "cutoff=4.0"],
    "mnnd": ["--seed", "3", "--set", "epochs=4", "--set", "lr=0.03", "--set", "batch_size=8",
             "--set", "embed_dim=4", "--set", "embed_hidden=6", "--set", "conv_channels=2",
             "--set", "head_hidden=6"],
    "neighbor": ["--seed", "4", "--set", "epochs=4", "--set", "lr=0.01", "--set", "batch_size=8",
                 "--set", "embed_dim=4", "--set", "embed_hidden=6", "--set", "conv_channels=2",
                 "--set", "head_hidden=6"],
    "cn": ["--seed", "6", "--set", "n_trees=5", "--set", "max_depth=4"],
}
# the checkpoint each task's eval and predict load
CHECKPOINT = {"forward": "forward_Cu_XANES.json", "mnnd": "mnnd_unified.json",
              "neighbor": "neighbor_Cu.json", "cn": "cn_Cu.json"}


def _json(path) -> dict:
    return json.loads(Path(path).read_text())


def _predict_input(data: Path, task: str, tmp: Path) -> Path:
    """The first Cu sample: its structure for forward, its spectrum pair otherwise.

    synth writes manifest and structure lines in the same sample order.
    """
    rows = [json.loads(line) for line in (data / "manifest.jsonl").read_text().splitlines()]
    structures = (data / "structures.jsonl").read_text().splitlines()
    i = next(i for i, line in enumerate(structures)
             if (rec := json.loads(line))["sites"][rec["absorber"]]["element"] == "Cu")
    target = tmp / f"{task}_input.json"
    if task == "forward":
        target.write_text(structures[i] + "\n")
    else:
        target.write_text(json.dumps({"xanes": str(data / rows[i]["xanes"]),
                                      "exafs": str(data / rows[i]["exafs"])}))
    return target


def _prediction(out: Path, task: str):
    if task == "forward":
        with open(out / "spectrum.csv", newline="") as fh:
            return [float(row[1]) for row in list(csv.reader(fh))[1:]]
    result = _json(out / "prediction.json")
    return result[{"mnnd": "mnnd_angstrom", "neighbor": "neighbor_type", "cn": "cn"}[task]]


def _run(argv):
    if cli.main(argv) != 0:
        raise RuntimeError(f"xastruct {' '.join(argv)} failed")


def fingerprints(tmp: Path) -> dict:
    data = tmp / "data"
    _run(["synth", "--out", str(data), *SYNTH])
    out = {}
    for task in TASKS:
        run = tmp / task
        _run(["train", "--task", task, "--data", str(data), "--out", str(run), *TRAIN[task]])
        ckpt = str(run / CHECKPOINT[task])
        _run(["eval", "--checkpoint", ckpt, "--data", str(data), "--out", str(tmp / f"{task}_eval"),
              *TRAIN[task]])
        _run(["predict", "--checkpoint", ckpt, "--input", str(_predict_input(data, task, tmp)),
              "--out", str(tmp / f"{task}_predict"), *TRAIN[task]])
        out[task] = {
            "train": {p.name: _json(p) for p in sorted(run.glob("metrics_*.json"))},
            "eval": _json(tmp / f"{task}_eval" / "metrics.json"),
            "predict": _prediction(tmp / f"{task}_predict", task),
        }
    return out


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return fingerprints(tmp_path_factory.mktemp("golden_cli"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def assert_matches(got, want, where):
    """Same structure and strings; every number within RTOL of the pinned one."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, (int, float)), where
        assert abs(got - want) <= RTOL * abs(want), f"{where}: {got!r} vs pinned {want!r}"
    else:
        assert got == want, f"{where}: {got!r} vs pinned {want!r}"


@pytest.mark.parametrize("task", TASKS)
def test_cli_run_matches_golden(runs, golden, task):
    assert_matches(runs[task], golden[task], task)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(fingerprints(Path(tmp)), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
