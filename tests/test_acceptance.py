"""Acceptance gate: one test per shipped guarantee.

Each test prints a single [PASS]/[FAIL] line with the measured numbers at
pinned tolerances (run with ``pytest tests/test_acceptance.py -v -s`` to see
the report as it happens). The closed-loop tests synthesize their corpora
with the oracle, train from scratch, and score held-out samples, so the
whole file is self-contained and seed-deterministic.
"""

import math
import time

import numpy as np
import pytest

from conftest import brute_force_neighbors, random_structure
from helpers import cscl, forward_pairs
from xastruct import cli, gradcheck
from xastruct import exafs_oracle as oracle
from xastruct import pipelines as pl
from xastruct.autodiff import finite_difference_check
from xastruct.config import check_config
from xastruct.crystal import build_graph, neighbor_list
from xastruct.spectra import split_dataset


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def corpus():
    """2000 oracle-labeled samples, 4 elements, all five templates."""
    cfg = dict(cli.CONFIG_DEFAULTS)
    cfg.update({"n_samples": "2000", "seed": "123", "n_grid": "100"})
    t0 = time.time()
    samples, _ = cli.synth_samples(cfg)
    return samples, time.time() - t0


def test_c1_gradients_match_finite_differences_for_every_op_and_block():
    t0 = time.time()
    worst_overall, n_cases = 0.0, 0
    bad_cases = []
    for seed in range(20):
        for name, params, loss_fn in gradcheck.cases(seed):
            worst, failures = finite_difference_check(loss_fn, list(params), eps=1e-5)
            worst_overall = max(worst_overall, worst)
            n_cases += 1
            if failures:
                bad_cases.append((seed, name, worst))
    elapsed = time.time() - t0
    ok = not bad_cases and worst_overall < 1e-4 and elapsed < 60.0
    report(
        1,
        ok,
        f"{n_cases} op/block cases over 20 seeds, max rel err "
        f"{worst_overall:.2e} (tol 1e-4), {elapsed:.1f}s (budget 60s)"
        + (f"; failures {bad_cases[:3]}" if bad_cases else ""),
    )


def test_c2_neighbor_list_matches_brute_force_enumeration():
    def as_set(neighbors):
        return {(nb[0], tuple(nb[1]), round(nb[2], 9)) for nb in neighbors}

    rng = np.random.default_rng(7)
    t0 = time.time()
    mismatches = 0
    for i in range(200):
        s = random_structure(rng, max_sites=8, sid=f"r{i}")
        center = int(rng.integers(0, len(s)))
        cutoff = float(rng.uniform(2.0, 8.0))
        got = as_set(neighbor_list(s, center, cutoff))
        want = as_set(brute_force_neighbors(s, center, cutoff))
        mismatches += got != want
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 30.0
    report(
        2,
        ok,
        f"200 random structures (<=8 sites), {mismatches} mismatches vs "
        f"brute force, {elapsed:.1f}s (budget 30s)",
    )


def test_c3_single_shell_radius_recovery_and_additivity():
    params = check_config({"e0_ev": 8979.0})
    k = np.linspace(2.5, 12.5, 4000)
    worst_rel = 0.0
    for r_true in (2.0, 2.5, 3.0):
        shell = oracle.ScatteringShell(n_atoms=6, radius=r_true, z_scatter=8, sigma2=0.003)
        chi = oracle.chi_shell(shell, params, k)
        spacing = oracle.median_crossing_spacing(k, chi)
        r_est = oracle.radius_from_spacing(spacing, params["r_phase"])
        worst_rel = max(worst_rel, abs(r_est - r_true) / r_true)

    shells = [
        oracle.ScatteringShell(n_atoms=6, radius=2.1, z_scatter=8, sigma2=0.003),
        oracle.ScatteringShell(n_atoms=12, radius=3.0, z_scatter=17, sigma2=0.003),
        oracle.ScatteringShell(n_atoms=8, radius=3.6, z_scatter=8, sigma2=0.003),
    ]
    summed = sum(oracle.chi_shell(sh, params, k) for sh in shells)
    parts = np.zeros_like(k)
    for sh in shells:
        parts = parts + oracle.chi_shell(sh, params, k)
    additivity_gap = float(np.max(np.abs(summed - parts)))
    # the spectrum itself must be exactly 1 + the sum of its shell terms
    s = cscl(3.2, "Cu", "O", sid="additivity")
    sp = oracle.synth_exafs(s, 0, params, oracle.default_exafs_grid(params["e0_ev"], n=200))
    k_sp = oracle.wavenumber(sp.grid.values, params["e0_ev"])
    rebuilt = np.ones_like(k_sp)
    for sh in oracle.shells_from_structure(s, 0, params):
        rebuilt = rebuilt + oracle.chi_shell(sh, params, k_sp)
    spectrum_gap = float(np.max(np.abs(sp.mu - rebuilt)))

    ok = worst_rel <= 0.05 and additivity_gap <= 1e-12 and spectrum_gap <= 1e-12
    report(
        3,
        ok,
        f"zero-crossing radius recovery worst rel err {worst_rel:.3f} "
        f"(tol 0.05) over R in (2.0, 2.5, 3.0); shell additivity gap "
        f"{max(additivity_gap, spectrum_gap):.1e} (tol 1e-12)",
    )


def test_c4_closed_loop_mnnd_regression(corpus):
    samples, synth_seconds = corpus
    t0 = time.time()
    train, held = split_dataset(samples, 0)
    inner_train, inner_val = split_dataset(train, 1)
    cfg = check_config({
        "lr": 3e-3, "weight_decay": 1e-5, "epochs": 12, "batch_size": 32, "seed": 0,
        "scope": "unified", "patience": 12,
        "embed_dim": 32, "embed_hidden": 64, "conv_channels": 8, "head_hidden": 64,
    })
    _, model = pl.train_mnnd(inner_train, cfg, val_samples=inner_val)
    metrics = pl.eval_mnnd(model, held)
    elapsed = synth_seconds + (time.time() - t0)
    elements = {s.xanes.absorber.symbol for s in samples}
    spread = (min(s.labels.mnnd for s in samples), max(s.labels.mnnd for s in samples))
    ok = (
        len(samples) == 2000
        and len(elements) >= 4
        and spread[0] <= 1.85 and spread[1] >= 3.15
        and metrics.r2 >= 0.90
        and metrics.mae <= 0.08
        and elapsed < 900.0
    )
    report(
        4,
        ok,
        f"2000 samples, {len(elements)} elements, mnnd [{spread[0]:.2f}, {spread[1]:.2f}] A; "
        f"held-out R2 {metrics.r2:.4f} (>=0.90), MAE {metrics.mae:.4f} A (<=0.08), "
        f"{elapsed:.0f}s end to end (budget 900s)",
    )


def test_c5_coordination_number_forest(corpus):
    samples, _ = corpus
    train, held = split_dataset(samples, 0)
    cfg = check_config({"seed": 0, "n_trees": 40, "max_depth": 12, "min_samples_leaf": 2})
    model = pl.train_cn(train, cfg)
    metrics = pl.eval_cn(model, held)
    classes = sorted({s.labels.cn for s in samples})
    ok = classes == [4, 6, 8, 12] and metrics.accuracy >= 0.85
    report(
        5,
        ok,
        f"4-class CN {classes}: held-out accuracy {metrics.accuracy:.4f} (>=0.85), "
        f"macro-F1 {metrics.macro_f1:.4f}",
    )


def test_c6_neighbor_species_classification_absorption_only():
    cfg = dict(cli.CONFIG_DEFAULTS)
    cfg.update({
        "n_samples": "360", "seed": "321", "n_grid": "100",
        "elements": "Ni,O,S,Se", "templates": "rocksalt,fluorite_cation",
    })
    samples, _ = cli.synth_samples(cfg)
    ni = pl.group_by_element(samples)["Ni"]
    train, held = split_dataset(ni, 0)
    tc = check_config({
        "lr": 3e-3, "weight_decay": 1e-5, "epochs": 25, "batch_size": 16, "seed": 0,
        "embed_dim": 16, "embed_hidden": 32,
    })
    _, model = pl.train_neighbor(train, tc, val_samples=held)
    metrics = pl.eval_neighbor(model, held)
    classes = sorted({s.labels.neighbor_type.symbol for s in ni})
    ok = classes == ["O", "S", "Se"] and metrics.accuracy >= 0.85
    report(
        6,
        ok,
        f"3-class neighbor type {classes} around Ni, absorption values only: "
        f"held-out accuracy {metrics.accuracy:.4f} (>=0.85), macro-F1 {metrics.macro_f1:.4f}",
    )


def test_c7_forward_overfit_and_permutation_invariance():
    pairs = forward_pairs(np.linspace(2.0, 3.2, 10), "Cu", n_grid=80)
    cfg = check_config({
        "lr": 1e-4, "weight_decay": 0.01, "epochs": 2000, "batch_size": 10, "seed": 0,
        "encoder_dim": 32, "encoder_rounds": 2, "encoder_rbf": 16,
        "encoder_hidden": 32, "forward_hidden": 128,
        "train_loss_stop": 1e-3,
    })
    history, model = pl.train_forward(pairs, cfg)
    steps = len(history)  # batch covers all 10 samples, so one step per epoch
    mse = float(np.mean([np.mean((pl.forward_predict(model, g) - sp.mu) ** 2) for g, sp in pairs]))

    two_site = cscl(2.9, "Cu", "Cu", sid="perm-a")
    swapped = type(two_site)(
        lattice=two_site.lattice, sites=(two_site.sites[1], two_site.sites[0]), id="perm-b"
    )
    a = pl.forward_predict(model, build_graph(two_site, 0, 6.0))
    b = pl.forward_predict(model, build_graph(swapped, 1, 6.0))
    perm_gap = float(np.max(np.abs(a - b)))

    ok = steps <= 2000 and mse < 1e-3 and perm_gap < 1e-9
    report(
        7,
        ok,
        f"10-sample overfit at lr 1e-4, wd 0.01: MSE {mse:.2e} (<1e-3) after "
        f"{steps} of 2000 AdamW steps; site-permutation gap {perm_gap:.1e} (<1e-9)",
    )


def test_c8_metric_implementations_on_hand_worked_cases():
    checks = []

    def close(got, want, tol=1e-12):
        checks.append(abs(got - want) <= tol)

    ev = pl.evaluate
    # mean absolute error
    close(ev(np.array([1.0, 2, 3, 4]), np.array([1.0, 2, 3, 4]), "regression").mae, 0.0)
    close(ev(np.array([1.0, -1]), np.array([0.0, 0]), "regression").mae, 1.0)
    close(ev(np.array([2.0, 4]), np.array([1.0, 2]), "regression").mae, 1.5)
    close(ev(np.array([-2.0, -2]), np.array([-1.0, -3]), "regression").mae, 1.0)
    close(ev(np.array([0.0, 10]), np.array([5.0, 5]), "regression").mae, 5.0)
    # coefficient of determination, including the pinned -3.5 case
    close(ev(np.array([1.5, 1.0]), np.array([0.0, 1.0]), "regression").r2, -3.5)
    close(ev(np.array([1.0, 2, 3]), np.array([1.0, 2, 3]), "regression").r2, 1.0)
    close(ev(np.array([2.0, 2, 2]), np.array([1.0, 2, 3]), "regression").r2, 0.0)
    close(ev(np.array([3.0, 3]), np.array([3.0, 3]), "regression").r2, 1.0)
    checks.append(ev(np.array([3.0, 4]), np.array([3.0, 3]), "regression").r2 is None)
    # accuracy
    close(ev(np.array([1, 1, 2, 2]), np.array([1, 1, 2, 2]), "classification").accuracy, 1.0)
    close(ev(np.array([1, 1, 2, 2]), np.array([2, 2, 1, 1]), "classification").accuracy, 0.0)
    close(ev(np.array([1, 1, 2, 2]), np.array([1, 2, 2, 2]), "classification").accuracy, 0.75)
    close(ev(np.array([0, 1]), np.array([0, 2]), "classification").accuracy, 0.5)
    close(ev(np.array(["a", "b", "b"]), np.array(["a", "b", "a"]), "classification").accuracy, 2 / 3)
    # macro F1 over the union of observed classes
    close(pl.macro_f1_score(np.array([1, 1, 2, 3]), np.array([1, 1, 2, 2])), (1.0 + 2 / 3 + 0.0) / 3)
    close(pl.macro_f1_score(np.array([1, 2]), np.array([1, 2])), 1.0)
    close(pl.macro_f1_score(np.array([1, 1]), np.array([2, 2])), 0.0)
    close(pl.macro_f1_score(np.array([1, 1, 2]), np.array([1, 1, 1])), (4 / 5) / 2)
    close(pl.macro_f1_score(np.array([4, 6, 8]), np.array([4, 6, 8])), 1.0)
    # summed cross entropy, including uniform -> ln(n_classes) per sample
    uni4 = np.full((1, 4), 0.25)
    close(ev(np.array([2]), np.array([2]), "classification", proba=uni4,
             classes=[0, 1, 2, 3]).cross_entropy, math.log(4))
    uni3 = np.full((2, 3), 1 / 3)
    close(ev(np.array([0, 1]), np.array([0, 1]), "classification", proba=uni3,
             classes=[0, 1, 2]).cross_entropy, 2 * math.log(3))
    close(ev(np.array([0]), np.array([0]), "classification",
             proba=np.array([[0.5, 0.25, 0.25]]), classes=[0, 1, 2]).cross_entropy, math.log(2))
    close(ev(np.array([0, 1]), np.array([0, 1]), "classification",
             proba=np.array([[1.0, 0.0], [0.0, 1.0]]), classes=[0, 1]).cross_entropy, 0.0)
    unknown = ev(np.array([5]), np.array([5]), "classification",
                 proba=np.array([[1.0, 0.0]]), classes=[0, 1]).cross_entropy
    checks.append(unknown > 600.0)  # clipped log of an impossible class

    n_bad = checks.count(False)
    report(
        8,
        n_bad == 0,
        f"{len(checks)} hand-worked metric cases (mae, r2 incl. -3.5, accuracy, "
        f"macro-F1, summed cross-entropy incl. ln C), {n_bad} disagreed (tol 1e-12)",
    )


def test_c9_reruns_produce_byte_identical_metrics(tmp_path):
    data = tmp_path / "data"
    rc = cli.main(["synth", "--out", str(data), "--seed", "7",
                   "--set", "n_samples=24", "--set", "n_grid=40"])
    assert rc == 0
    tiny = ["--set", "epochs=2", "--set", "lr=0.003", "--set", "embed_dim=8",
            "--set", "embed_hidden=16", "--set", "conv_channels=4",
            "--set", "head_hidden=16", "--set", "batch_size=8"]
    train_bytes, eval_bytes = [], []
    for tag in ("a", "b"):
        run = tmp_path / f"train_{tag}"
        assert cli.main(["train", "--task", "mnnd", "--data", str(data),
                         "--out", str(run), "--seed", "3", *tiny]) == 0
        train_bytes.append((run / "metrics_mnnd_unified.json").read_bytes())
        ev = tmp_path / f"eval_{tag}"
        assert cli.main(["eval", "--checkpoint", str(run / "mnnd_unified.json"),
                         "--data", str(data), "--out", str(ev)]) == 0
        eval_bytes.append((ev / "metrics.json").read_bytes())
    ok = train_bytes[0] == train_bytes[1] and eval_bytes[0] == eval_bytes[1]
    report(
        9,
        ok,
        "train and eval reruns with identical config and seed wrote "
        f"byte-identical metrics JSON ({len(train_bytes[0])} and {len(eval_bytes[0])} bytes)",
    )
