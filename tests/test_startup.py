"""What a fresh interpreter loads: the data commands start without the model stack.

The test session imports the whole package, so only a new process shows
that `import xastruct.cli` leaves autodiff, nn, pipelines, forest and
gradcheck unloaded, and that the model commands import them when they run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from xastruct import cli

SRC = Path(__file__).resolve().parents[1] / "src"
MODEL_STACK = tuple(f"xastruct.{name}" for name in
                    ("autodiff", "nn", "pipelines", "forest", "gradcheck"))

# what the `xastruct` console script does, once per command, in one interpreter;
# prints each command's exit code and the model modules loaded before the first
COMMANDS = """
import json, sys
from xastruct.cli import main
stack, commands = json.loads(sys.argv[1]), json.loads(sys.argv[2])
before = sorted(set(stack) & set(sys.modules))
print(json.dumps({"before": before, "codes": [main(argv) for argv in commands]}))
"""


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_cli_import_loads_no_model_module():
    loaded = set(run_python("import sys, xastruct.cli\nprint(*sys.modules)").stdout.split())
    assert {"xastruct.cli", "xastruct.exafs_oracle", "xastruct.spectra"} <= loaded
    assert sorted(loaded.intersection(MODEL_STACK)) == []


def test_train_and_predict_run_in_a_process_that_imported_only_the_cli(tmp_path):
    data, run = tmp_path / "data", tmp_path / "run"
    assert cli.main(["synth", "--out", str(data), "--seed", "5", "--set", "n_samples=12",
                     "--set", "n_grid=40", "--set", "elements=Cu"]) == 0
    row = json.loads((data / "manifest.jsonl").read_text().splitlines()[0])
    (data / "pair.json").write_text(json.dumps({"xanes": row["xanes"], "exafs": row["exafs"]}))
    commands = [
        ["train", "--task", "cn", "--data", str(data), "--out", str(run),
         "--set", "n_trees=3", "--set", "max_depth=3"],
        ["predict", "--checkpoint", str(run / "cn_Cu.json"), "--input", str(data / "pair.json"),
         "--out", str(tmp_path / "predict")],
    ]
    proc = run_python(COMMANDS, json.dumps(MODEL_STACK), json.dumps(commands))
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"before": [], "codes": [0, 0]}, proc.stderr
    prediction = json.loads((tmp_path / "predict" / "prediction.json").read_text())
    assert prediction["task"] == "cn" and isinstance(prediction["cn"], int)
