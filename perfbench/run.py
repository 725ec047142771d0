"""Closed-loop benchmark of the xastruct command line.

    python3 perfbench/run.py --workload {corpus,forward,inverse} --seed N \
        --seconds S --trace {0,1}

Run it from the repository root. One client issues each `xastruct` command
in-process (`cli.main([...])`) after the previous one returned, in whole
rounds until S seconds have passed, and checks every round's outputs.
`--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced
and traced rounds (starting and ending untraced), prints the per-layer
metrics and the tracing overhead, and writes the spans to perfbench/out/.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.
"""

import argparse
import contextlib
import ctypes
import glob
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

# One BLAS thread, set before numpy loads: on a 2-core machine whose cores other
# tenants share, a second BLAS thread makes each large product wait for the
# busier core, and the same forward training read 13 s or 22 s from run to run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy  # noqa: E402

import clock  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Times are at reference speed (clock.py) and medians over the run.
END_TO_END = (
    ("setup_s", "s"),  # a round's set-up
    ("build_s", "s"),  # a round's commands that build the stage's artifact
    ("pass_s", "s"),  # a pass's commands: one scan, then the point queries
)


def load_xastruct():
    """The xastruct modules, imported from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "xastruct" / "__init__.py").is_file():
        raise ImportError(f"no xastruct package under {src}")
    sys.path.insert(0, str(src))
    return {name: importlib.import_module(f"xastruct.{name}") for name in tracing.MODULES}


def blas_threads():
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        try:
            fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_")
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return int(fn())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(var):
            return f"{var}={os.environ[var]}"
    return "unknown"


def source_lines():
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "xastruct").rglob("*.py"))


def median(values):
    return float(statistics.median(values))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def measure(args, xa, workload):
    """Run rounds until the time is up; returns what the report needs.

    Each round sets up again, builds and reads, so every end-to-end metric
    is a median of samples spread over the whole run.
    """
    samples = defaultdict(list)
    command_time = {False: [], True: []}  # traced? -> seconds of each round's commands
    layer_rounds = []
    tracer = tracing.Tracer()
    rnd = Path("round")
    start = time.perf_counter()
    rounds = 0
    while True:
        traced = bool(args.trace) and rounds % 2 == 1

        def sample(name, value):
            if not traced:
                samples[name].append(value)

        def span(name, body):
            """Runs body; samples the commands' time at reference speed and on the wall."""
            seconds, wall = workload.seconds, workload.wall
            body()
            sample(name, workload.seconds - seconds)
            sample("wall " + name, workload.wall - wall)

        for _ in range(workload.setups):
            t = workload.setup()
            sample("setup_s", t.seconds)
            sample("wall setup_s", t.wall)
        if traced:
            tracer.reset_totals()
        with tracing.instrument(tracer, xa) if traced else contextlib.nullcontext():
            workload.seconds = workload.wall = 0.0
            span("build_s", lambda: workload.build(rnd, sample))
            for _ in range(workload.passes):
                span("pass_s", lambda: workload.read(rnd, sample))
        if traced:
            layer_rounds.append(tracing.layer_metrics(tracer))
        command_time[traced].append(workload.seconds)
        workload.checks(rnd, xa)
        rounds += 1
        # a traced run brackets each traced round by untraced ones (U T U ...),
        # so warm-up in the first round does not pass for tracing overhead
        done = not args.trace or (rounds >= 3 and rounds % 2 == 1)
        if done and time.perf_counter() - start >= args.seconds:
            break
    return {
        "samples": samples,
        "command_time": command_time,
        "layers": layer_rounds,
        "tracer": tracer,
        "rounds": rounds,
        "measured_s": time.perf_counter() - start,
    }


def medians(result, names):
    values = result["samples"]
    return {name: (median(values[name]), unit, len(values[name])) for name, unit in names}


def per_layer_metrics(result):
    """Counts from the first traced round; times are medians over the traced rounds."""
    rounds = result["layers"]
    out = {}
    for name, (value, unit) in rounds[0].items():
        if unit == "s":
            value = median([r[name][0] for r in rounds])
        out[name] = (value, unit, len(rounds))
    plain = median(result["command_time"][False])
    traced = median(result["command_time"][True])
    out["trace.overhead_s"] = (traced - plain, "s", len(rounds))
    out["trace.overhead_share"] = ((traced - plain) / plain, "ratio", len(rounds))
    return out


def report(args, workload, result, ledger, metrics):
    """Human-readable lines before the JSON result."""
    print(f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={result['rounds']} measured={result['measured_s']:.1f}s")
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} blas_threads={blas_threads()}")
    print(f"source: src/xastruct {source_lines()} lines")
    # reported, not gated: on the forward workload the peak moves with the seed
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"peak_rss_mb: {peak_mb:.1f} MB (this process, which runs the commands)")
    print(f"operations: attempted={ledger.attempted} failed={len(ledger.failures)}")
    for name, detail, known in ledger.failures:
        tag = "known fault: per-element checkpoint scored on every element" if known \
            else "UNEXPECTED"
        print(f"  failed [{tag}] {name}: {detail}" if detail else f"  failed [{tag}] {name}")
    if args.trace:
        print(f"{'layer':40s} {'calls':>9s} {'self s':>10s} {'inclusive s':>12s}")
        for name, calls, self_s, incl in result["tracer"].table():
            print(f"{name:40s} {calls:9d} {self_s:10.4f} {incl:12.4f}")
    else:
        print("command figures at reference speed (not gated):")
        for name, (value, unit, n) in medians(result, workload.figures).items():
            print(f"  {name:42s} {value:14.6g} {unit:14s} median of {n}")
        print("end-to-end metrics on the wall clock (not gated):")
        wall = [("wall " + name, unit) for name, unit in END_TO_END]
        for name, (value, unit, n) in medians(result, wall).items():
            print(f"  {name:42s} {value:14.6g} {unit:14s} median of {n}")
        print(f"end-to-end metrics at reference speed ({clock.REF_S * 1e3:g} ms a "
              "reference loop):")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit:14s} median of {n}")


def main(argv=None):
    args = parse_args(argv)
    try:
        xa = load_xastruct()
    except ImportError as exc:
        print(f"perfbench: cannot import xastruct: {exc}", file=sys.stderr)
        return 2

    ledger = wl.Ledger()
    workload = wl.WORKLOADS[args.workload](args.seed, xa["cli"], ledger, ROOT / "src")
    # the commands get paths relative to the work directory, so what they write
    # does not depend on where the checkout is
    work = OUT / f"work-{args.workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        result = measure(args, xa, workload)
    except wl.CommandFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = per_layer_metrics(result)
        tracing.write_trace(result["tracer"], OUT / f"trace-{args.workload}-seed{args.seed}.json",
                            {"workload": args.workload, "seed": args.seed,
                             "rounds": result["rounds"]})
    else:
        metrics = medians(result, END_TO_END)
    report(args, workload, result, ledger, metrics)
    print(json.dumps({
        "correct": all(known for _, _, known in ledger.failures),
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
