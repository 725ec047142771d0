"""End-to-end checks of the command-line interface, run in-process."""

import argparse
import base64
import hashlib
import json
import re
import shutil
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from xastruct import cli, gradcheck
from xastruct import exafs_oracle as oracle
from xastruct.config import check_config
from xastruct.crystal import Element, extract_descriptors, structure_from_dict
from xastruct.spectra import load_dataset, load_spectrum

TINY_MNND = [
    "--set", "epochs=2", "--set", "lr=0.003", "--set", "embed_dim=8",
    "--set", "embed_hidden=16", "--set", "conv_channels=4",
    "--set", "head_hidden=16", "--set", "batch_size=8",
]
TINY_FORWARD = [
    "--set", "epochs=2", "--set", "lr=0.0005", "--set", "encoder_dim=16",
    "--set", "encoder_rounds=1", "--set", "encoder_rbf=8",
    "--set", "encoder_hidden=16", "--set", "forward_hidden=32",
]


def dataset_bytes(root: Path, skip=("run.json",)) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name not in skip
    }


def tree_sha256(root: Path) -> str:
    h = hashlib.sha256()
    for name, data in dataset_bytes(root).items():
        h.update(name.encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest()


# tree_sha256 of `synth --seed 7 --set n_samples=24 --set n_grid=40`, plus the
# cutoff override, recorded before synth shared one neighbor search per draw
# and summed its shells from one broadcast
GOLDEN_SYNTH = {
    "6.0": "b478fad5938d78add9bc5c64029de27696efc1d0238978c1de494aaac11903db",
    "5.0": "412adcc1651eaea63b8ed04476bb25963cf5605dd17832213e1a5a8a9ad9230e",
}
# sha256 of `extract`'s labels.jsonl for the mixed_data fixture's structures,
# recorded before extract read the neighbor search's arrays directly
GOLDEN_EXTRACT = "66426b03ed2b83708111c3553078967010abd706361cf562a22309127eaf2b53"


@pytest.fixture(scope="module")
def mixed_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "mixed"
    rc = cli.main(["synth", "--out", str(out), "--seed", "7",
                   "--set", "n_samples=24", "--set", "n_grid=40"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def cu_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "cu"
    rc = cli.main(["synth", "--out", str(out), "--seed", "11",
                   "--set", "n_samples=12", "--set", "n_grid=40",
                   "--set", "elements=Cu", "--set", "templates=sc,fcc"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def two_element_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "ni_se"
    rc = cli.main(["synth", "--out", str(out), "--seed", "9",
                   "--set", "n_samples=30", "--set", "n_grid=40",
                   "--set", "elements=Ni,Se"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def mnnd_run(mixed_data, tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "mnnd"
    rc = cli.main(["train", "--task", "mnnd", "--data", str(mixed_data),
                   "--out", str(out), "--seed", "3", *TINY_MNND])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def neighbor_run(mixed_data, tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "neighbor"
    rc = cli.main(["train", "--task", "neighbor", "--data", str(mixed_data), "--out", str(out),
                   "--seed", "3", "--set", "scope=unified", *TINY_MNND])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def cn_run(mixed_data, tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "cn"
    rc = cli.main(["train", "--task", "cn", "--data", str(mixed_data), "--out", str(out),
                   "--set", "n_trees=3", "--set", "max_depth=3"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def forward_run(cu_data, tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "fwd"
    rc = cli.main(["train", "--task", "forward", "--data", str(cu_data),
                   "--out", str(out), "--seed", "2", *TINY_FORWARD])
    assert rc == 0
    return out


class TestSynth:
    def test_reproducible_byte_for_byte(self, mixed_data, tmp_path):
        again = tmp_path / "again"
        rc = cli.main(["synth", "--out", str(again), "--seed", "7",
                       "--set", "n_samples=24", "--set", "n_grid=40"])
        assert rc == 0
        assert dataset_bytes(again) == dataset_bytes(mixed_data)

    def test_golden_bytes(self, mixed_data, tmp_path):
        assert tree_sha256(mixed_data) == GOLDEN_SYNTH["6.0"]
        out = tmp_path / "cut5"
        assert cli.main(["synth", "--out", str(out), "--seed", "7", "--set", "n_samples=24",
                         "--set", "n_grid=40", "--set", "cutoff=5.0"]) == 0
        assert tree_sha256(out) == GOLDEN_SYNTH["5.0"]

    def test_set_edge_energy_moves_both_grids(self, tmp_path):
        argv = ["--seed", "7", "--set", "n_samples=4", "--set", "n_grid=40",
                "--set", "elements=Cu,Zn"]
        assert cli.main(["synth", "--out", str(tmp_path / "default"), *argv]) == 0
        assert cli.main(["synth", "--out", str(tmp_path / "set"), *argv,
                         "--set", "e0_ev=5000"]) == 0
        def grids(e0):
            return (oracle.default_xanes_grid(e0, n=40).values,
                    oracle.default_exafs_grid(e0, n=40).values)

        default = load_dataset(tmp_path / "default" / "manifest.jsonl")
        for sample, base in zip(load_dataset(tmp_path / "set" / "manifest.jsonl"), default):
            assert sample.labels == base.labels
            own = oracle.default_edge_energy(Element.from_symbol(base.xanes.absorber.symbol))
            # the CSV keeps ten significant digits
            for got, want in [((sample.xanes, sample.exafs), grids(5000.0)),
                              ((base.xanes, base.exafs), grids(own))]:
                for sp, grid in zip(got, want):
                    assert np.allclose(sp.grid.values, grid, rtol=1e-9, atol=0), sp.kind

    def test_mnnd_min_at_the_floor_is_a_usage_error_naming_it(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = cli.main(["synth", "--out", str(out), "--set", "mnnd_min=0.5", "--set", "mnnd_max=0.5",
                       "--set", "jitter=0", "--set", "strain=0"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "usage error: config key 'mnnd_min' must be above 0.5, got 0.5\n")
        assert not out.exists()

    def test_cell_jittered_under_the_floor_exits_1_naming_the_keys_and_structure(self, tmp_path,
                                                                                  capsys):
        out = tmp_path / "out"
        rc = cli.main(["synth", "--out", str(out), "--set", "mnnd_min=0.52", "--set", "mnnd_max=0.6"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: structure 'fluorite_anion-Cu-000000': sites closer than 0.5 A under PBC: "
            "0.447 A (drawn with 'mnnd_min' 0.52 and 'jitter' 0.05)\n")
        assert not out.exists()

    def test_one_neighbor_search_per_draw(self, monkeypatch):
        calls = Counter()

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "neighbor_search", counted("synth", cli.neighbor_search))
        monkeypatch.setattr(cli.oracle, "neighbor_search",
                            counted("exafs", cli.oracle.neighbor_search))
        cfg = dict(cli.CONFIG_DEFAULTS, n_samples="6", n_grid="40")
        cli.synth_samples(cfg)
        assert calls["synth"] >= 6 and calls["exafs"] == 0
        cli.synth_samples(dict(cfg, cutoff="5.0"))  # the EXAFS shells need their own search
        assert calls["exafs"] == 6

    def test_different_seed_differs(self, mixed_data, tmp_path):
        other = tmp_path / "other"
        cli.main(["synth", "--out", str(other), "--seed", "8",
                  "--set", "n_samples=24", "--set", "n_grid=40"])
        assert dataset_bytes(other) != dataset_bytes(mixed_data)

    def test_element_set_restricts_labels(self, tmp_path):
        out = tmp_path / "duo"
        rc = cli.main(["synth", "--out", str(out), "--seed", "2",
                       "--set", "n_samples=10", "--set", "n_grid=40",
                       "--set", "elements=Ni,O"])
        assert rc == 0
        samples = load_dataset(out / "manifest.jsonl")
        seen = {s.labels.neighbor_type.symbol for s in samples}
        seen |= {s.xanes.absorber.symbol for s in samples}
        assert seen <= {"Ni", "O"}

    def test_labels_match_fresh_extraction(self, mixed_data):
        samples = {s.xanes.structure_id: s for s in load_dataset(mixed_data / "manifest.jsonl")}
        with open(mixed_data / "structures.jsonl") as fh:
            for line in fh:
                record = json.loads(line)
                s = structure_from_dict(record)
                fresh = extract_descriptors(s, int(record["absorber"]))
                stored = samples[s.id].labels
                assert fresh.cn == stored.cn
                assert fresh.neighbor_type == stored.neighbor_type
                assert fresh.mnnd == pytest.approx(stored.mnnd, abs=1e-12)

    def test_covers_all_cn_classes(self, tmp_path):
        out = tmp_path / "cns"
        cli.main(["synth", "--out", str(out), "--seed", "5",
                  "--set", "n_samples=40", "--set", "n_grid=40"])
        samples = load_dataset(out / "manifest.jsonl")
        assert {s.labels.cn for s in samples} == {4, 6, 8, 12}

    def test_mnnd_range_respected(self, mixed_data):
        samples = load_dataset(mixed_data / "manifest.jsonl")
        for s in samples:
            # jitter moves individual bonds by up to ~0.09 A around the target
            assert 1.7 <= s.labels.mnnd <= 3.3

    # every TEMPLATES row: (absorber site, nominal CN, whether it holds a second species)
    @pytest.mark.parametrize("template,site,cn,pair", [
        ("sc", 0, 6, False), ("fcc", 0, 12, False), ("rocksalt", 0, 6, True),
        ("fluorite_cation", 0, 8, True), ("fluorite_anion", 4, 4, True),
    ])
    def test_template_row_sets_absorber_site_cn_and_species(self, template, site, cn, pair):
        assert template in cli.TEMPLATES and len(cli.TEMPLATES) == 5
        cu, o = Element.from_symbol("Cu"), Element.from_symbol("O")
        s, absorber, labels, _ = cli.synth_structure(np.random.default_rng(0), template, cu, o,
                                                     (2.0, 2.5), 0.0, 0.0, "t")
        assert (absorber, s.sites[absorber].element, labels.cn) == (site, cu, cn)
        assert {x.element for x in s.sites} == ({cu, o} if pair else {cu})
        cfg = dict(cli.CONFIG_DEFAULTS, n_samples="3", n_grid="40", elements="Ni,Se",
                   templates=template, strain="0", jitter="0")
        for sample, (s, absorber) in zip(*cli.synth_samples(cfg)):
            assert (absorber, sample.labels.cn) == (site, cn)
            assert s.sites[absorber].element == sample.xanes.absorber
            assert len({x.element for x in s.sites}) == (2 if pair else 1)

    def test_unknown_template_is_usage_error(self, tmp_path):
        rc = cli.main(["synth", "--out", str(tmp_path / "x"), "--set", "templates=bcc"])
        assert rc == 2

    @pytest.mark.parametrize("setting,key", [
        ("mnnd_min=3.5", "'mnnd_min'"), ("strain=-0.1", "'strain'"), ("jitter=-0.05", "'jitter'"),
        ("n_samples=abc", "usage error: config key 'n_samples' must be an integer, got 'abc'"),
        ("n_samples=-1", "usage error: config key 'n_samples' must be at least 0, got -1"),
        ("n_grid=2.5", "usage error: config key 'n_grid' must be an integer, got '2.5'"),
        ("n_grid=1", "usage error: config key 'n_grid' must be at least 2, got 1"),
        ("strain=nan", "usage error: config key 'strain' must be finite, got nan"),
        ("jitter=inf", "usage error: config key 'jitter' must be finite, got inf"),
        ("mnnd_min=abc", "usage error: config key 'mnnd_min' must be a number, got 'abc'"),
        ("mnnd_max=-inf", "usage error: config key 'mnnd_max' must be finite, got -inf"),
        ("seed=abc", "error: config key 'seed' must be an integer, got 'abc'"),
        ("seed=-1", "error: config key 'seed' must be at least 0, got -1"),
        ("mnnd_min=0", "usage error: config key 'mnnd_min' must be above 0.5, got 0.0"),
        ("elements=Xx", "usage error: config key 'elements' names an unknown element symbol: 'Xx'"),
    ])
    def test_bad_draw_range_is_usage_error_naming_the_key(self, setting, key, cu_data, tmp_path,
                                                          capsys):
        commands = [["synth"]]
        if setting.startswith("seed="):  # parsed before any command writes, with train's exit 1
            commands.append(["extract", str(cu_data / "structures.jsonl")])
        for i, argv in enumerate(commands):
            out = tmp_path / str(i)
            rc = cli.main([*argv, "--out", str(out), "--set", setting])
            err = capsys.readouterr().err
            assert rc == (1 if setting.startswith("seed=") else 2), err
            assert key in err and "Traceback" not in err, err
            assert not out.exists()

    @pytest.mark.parametrize("key,value,message", [
        ("sigma2", "nan", "must be finite, got nan"),
        ("amp_scale", "nan", "must be finite, got nan"),
        ("lambda_a", "nan", "must be finite, got nan"),
        ("r_phase", "inf", "must be finite, got inf"),
        ("amp_scale", "-3", "must be positive, got -3.0"),
        ("sigma2", "abc", "must be a number, got 'abc'"),
    ])
    def test_bad_oracle_setting_exits_1_naming_the_key(self, key, value, message, tmp_path,
                                                       capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["synth", "--out", str(tmp_path / "out"), "--set", "n_samples=2",
                           "--set", f"{key}={value}"])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert f"error: config key '{key}' {message}" in err, err
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert not (tmp_path / "out" / "manifest.jsonl").exists()

    def test_run_manifest_hashes(self, mixed_data):
        with open(mixed_data / "run.json") as fh:
            manifest = json.load(fh)
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 7
        for path, digest in manifest["inputs"].items():
            assert cli.content_hash(path) == digest


def test_content_hash_orders_entries_by_path_parts(tmp_path):
    # as strings "a-b" < "a.b" < "a/b"; as paths a/b sorts first
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "b").write_text("inner\n")
    (tmp_path / "a-b").write_text("outer\n")
    (tmp_path / "a.b").write_text("dot\n")
    blobs = [f"{name}:{cli._blob_hash(tmp_path / name)}" for name in ("a/b", "a-b", "a.b")]
    body = "\n".join(blobs).encode()
    assert cli.content_hash(tmp_path) == hashlib.sha1(b"tree %d\0" % len(body) + body).hexdigest()
    assert cli.content_hash(tmp_path) == "cf6b644edd05b42033f180af9f758a1485a2d98f"
    # a nested directory sorts by its parts too ("c" < "c-link"); a symlinked
    # file is hashed by its target, and a symlinked directory is not walked
    (tmp_path / "a" / "c" / "d").mkdir(parents=True)
    (tmp_path / "a" / "c" / "d" / "e").write_text("deep\n")
    (tmp_path / "a" / "c-link").symlink_to("../a-b")
    (tmp_path / "z").symlink_to("a", target_is_directory=True)
    names = ("a/b", "a/c/d/e", "a/c-link", "a-b", "a.b")
    blobs = [f"{name}:{cli._blob_hash(tmp_path / name)}" for name in names]
    body = "\n".join(blobs).encode()
    assert cli.content_hash(tmp_path) == hashlib.sha1(b"tree %d\0" % len(body) + body).hexdigest()
    assert cli.content_hash(tmp_path) == "51b788c3514360f258acfdab53c96c9d5fffb35d"


class TestExtract:
    def test_extract_round_trip(self, mixed_data, tmp_path):
        out = tmp_path / "labels"
        rc = cli.main(["extract", str(mixed_data / "structures.jsonl"), "--out", str(out)])
        assert rc == 0
        rows = [json.loads(l) for l in (out / "labels.jsonl").read_text().splitlines()]
        samples = {s.xanes.structure_id: s for s in load_dataset(mixed_data / "manifest.jsonl")}
        assert len(rows) == len(samples)
        for row in rows:
            assert row["cn"] == samples[row["id"]].labels.cn

    def test_golden_bytes(self, mixed_data, tmp_path):
        out = tmp_path / "labels"
        assert cli.main(["extract", str(mixed_data / "structures.jsonl"), "--out", str(out)]) == 0
        assert hashlib.sha256((out / "labels.jsonl").read_bytes()).hexdigest() == GOLDEN_EXTRACT

    def test_missing_file_exits_1(self, tmp_path):
        rc = cli.main(["extract", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_cell_too_thin_for_the_search_exits_1_naming_it(self, tmp_path, capsys):
        """A valid one-site record whose 6 A search box would hold 1.01e9 cells (24 GB of
        offsets) is refused before the box is built."""
        path = tmp_path / "thin.jsonl"
        path.write_text(json.dumps({"id": "thin", "lattice": [3, 0, 0, 3, 0.001, 0, 0, 0, 3],
                                    "sites": [{"element": "Cu", "frac": [0, 0, 0]}]}) + "\n")
        out = tmp_path / "o"
        assert cli.main(["extract", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: structure 'thin': a 6.0 A search needs image cells up to (6002, 6001, 3) "
            "away, more than 1048576 cells; its cell is too thin for the cutoff\n")
        assert not (out / "labels.jsonl").exists()


def _cut_inside_first_column(text):
    lines = text.splitlines()
    return "\n".join(lines[:10] + [lines[10][:3]]), 11


def _set_line(lineno, row):
    def corrupt(text):
        lines = text.splitlines()
        lines[lineno - 1] = row(lines[lineno - 1])
        return "\n".join(lines) + "\n", lineno

    return corrupt


def _bare_cr(lineno):
    """End line `lineno` with a bare CR in place of its newline."""
    def corrupt(text):
        lines = text.splitlines(keepends=True)
        lines[lineno - 1] = lines[lineno - 1].replace("\n", "\r")
        return "".join(lines), lineno

    return corrupt


def _cut_last_line(text):
    lines = text.splitlines()
    return "\n".join(lines[:-1] + [lines[-1][: len(lines[-1]) // 2]]), len(lines)


def _set_field(key, value):
    def corrupt(text):
        return json.dumps({**json.loads(text), key: value}), None

    return corrupt


def _set_label(key, value):
    """Set one label of the manifest's second line."""
    def row(line):
        record = json.loads(line)
        return json.dumps({**record, "labels": {**record["labels"], key: value}})

    return _set_line(2, row)


def _with_token(corrupt, token):
    """`corrupt`, with each "@" it writes made the raw JSON number `token`."""
    def raw(text):
        text, lineno = corrupt(text)
        return text.replace('"@"', token), lineno

    return raw


def _write_predict_inputs(data):
    """pair.json (the first sample's spectra) and one.json (the first structure) in `data`."""
    row = json.loads((data / "manifest.jsonl").read_text().splitlines()[0])
    (data / "pair.json").write_text(json.dumps({"xanes": row["xanes"], "exafs": row["exafs"]}))
    (data / "one.json").write_text((data / "structures.jsonl").read_text().splitlines()[0])


# (file in the dataset, corruption returning (new text, line at fault or None),
# the train task that reads it or "predict <checkpoint task>")
MALFORMED = {
    "short row": ("sample_000003_xanes.csv", _cut_inside_first_column, "cn"),
    "corrupt number": ("sample_000004_exafs.csv", _set_line(5, lambda r: "7266.03.5,0.5"), "cn"),
    "nan in mu": ("sample_000005_xanes.csv", _set_line(7, lambda r: r.split(",")[0] + ",nan"),
                  "cn"),
    "re-headed csv": ("sample_000006_xanes.csv", _set_line(1, lambda r: "E,mu"), "cn"),
    # quoted fields, a bare CR line end and rows of more than two fields are refused
    "long row": ("sample_000007_xanes.csv", _set_line(5, lambda r: r + ",1.0"), "cn"),
    "trailing comma": ("sample_000008_exafs.csv", _set_line(6, lambda r: r + ","), "cn"),
    "quoted field": ("sample_000009_xanes.csv",
                     _set_line(4, lambda r: '"{}",{}'.format(*r.split(","))), "cn"),
    "bare CR": ("sample_000010_exafs.csv", _bare_cr(7), "cn"),
    "bare CR every line": ("sample_000011_xanes.csv", lambda text: (text.replace("\n", "\r"), 1),
                           "cn"),
    "truncated manifest line": ("manifest.jsonl", _cut_last_line, "cn"),
    "truncated structure line": ("structures.jsonl", _cut_last_line, "forward"),
    "non-path xanes in pair": ("pair.json", _set_field("xanes", 3), "predict mnnd"),
    "truncated pair json": ("pair.json", _cut_last_line, "predict mnnd"),
    "truncated structure json": ("one.json", _cut_last_line, "predict forward"),
    "non-integer absorber": ("one.json", _set_field("absorber", "x"), "predict forward"),
    "out-of-range absorber": ("one.json", _set_field("absorber", 99), "predict forward"),
    "missing spectrum csv": ("manifest.jsonl",
                             _set_line(3, lambda r: r.replace("_xanes.csv", "_gone.csv")), "cn"),
    "non-integer cn label": ("manifest.jsonl", _set_label("cn", "four"), "cn"),
    "fractional cn label": ("manifest.jsonl", _set_label("cn", 2.9), "cn"),
    "boolean cn label": ("manifest.jsonl", _set_label("cn", True), "cn"),
    "boolean mnnd label": ("manifest.jsonl", _set_label("mnnd", True), "mnnd"),
    "string mnnd label": ("manifest.jsonl", _set_label("mnnd", "2"), "mnnd"),
    "string shell_distances label": ("manifest.jsonl", _set_label("shell_distances", "22"),
                                     "mnnd"),
    # reals past the float range, which json reads as infinities
    "overflowing mnnd label": ("manifest.jsonl", _with_token(_set_label("mnnd", "@"), "1e999"),
                               "mnnd"),
    "overflowing lattice entry": ("structures.jsonl", _with_token(_set_line(
        2, lambda r: json.dumps({**json.loads(r), "lattice": ["@"] * 9})), "-1e999"), "forward"),
    "overflowing absorber": ("one.json", _with_token(_set_line(
        1, lambda r: json.dumps({**json.loads(r), "absorber": "@"})), "1" + "0" * 400 + ".0"),
        "predict forward"),
}
# cases whose message must also name the field at fault
MALFORMED_FIELD = {
    "long row": "expected 2 fields, got 3",
    "bare CR every line": "(the line holds bare CRs; a line ends with LF or CRLF)",
    "non-path xanes in pair": "'xanes'",
    "non-integer absorber": "'absorber'",
    "out-of-range absorber": "'absorber'",
    "missing spectrum csv": "sample_000002_gone.csv",
    "non-integer cn label": "field 'labels.cn'",
    "fractional cn label": "field 'labels.cn'",
    "boolean cn label": "field 'labels.cn'",
    "boolean mnnd label": "field 'labels.mnnd'",
    "string mnnd label": "field 'labels.mnnd'",
    "string shell_distances label": "field 'labels.shell_distances'",
    "overflowing mnnd label": "non-finite number 1e999",
    "overflowing lattice entry": "non-finite number -1e999",
    "overflowing absorber": "non-finite number 1000",
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_1_naming_file_and_line(case, mixed_data, tmp_path, capsys,
                                                      request):
    name, corrupt, command = MALFORMED[case]
    data = tmp_path / "data"
    shutil.copytree(mixed_data, data)
    _write_predict_inputs(data)
    text, lineno = corrupt((data / name).read_text())
    (data / name).write_text(text)
    out = str(tmp_path / "run")
    if command.startswith("predict"):
        task = command.split()[1]
        ckpt = {"mnnd": "mnnd_unified.json", "forward": "forward_Cu_XANES.json"}[task]
        run = request.getfixturevalue(f"{task}_run")
        argv = ["predict", "--checkpoint", str(run / ckpt), "--input", str(data / name)]
    else:
        argv = ["train", "--task", command, "--data", str(data)]
    rc = cli.main([*argv, "--out", out])
    err = capsys.readouterr().err
    assert rc == 1, err
    where = f"{data / name}:" if lineno is None else f"{data / name}:{lineno}:"
    assert where in err and "Traceback" not in err, err
    assert MALFORMED_FIELD.get(case, "") in err, err
    if case.startswith("bare CR"):  # a bare-CR file is one line, which is quoted only in part
        assert len(err.split(where, 1)[1]) <= 250, err


# finite lattices past the float range: two face areas overflow (heights of 0.0), or the volume does
OVERFLOWING_LATTICES = {"areas": [3.0, 0, 0, 0, 3.0, 0, 0, 0, 1e300],
                        "volume": [1e120, 0, 0, 0, 1e120, 0, 0, 0, 1e120]}


@pytest.mark.parametrize("command", ["extract", "train", "eval", "predict"])
@pytest.mark.parametrize("probe", sorted(OVERFLOWING_LATTICES))
def test_lattice_past_the_float_range_exits_1_naming_file_and_line(probe, command, cu_data,
                                                                   forward_run, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(cu_data, data)
    lines = (data / "structures.jsonl").read_text().splitlines()
    lines[1] = json.dumps({**json.loads(lines[1]), "lattice": OVERFLOWING_LATTICES[probe]})
    (data / "structures.jsonl").write_text("\n".join(lines) + "\n")
    (data / "one.json").write_text(lines[1])
    ckpt = ["--checkpoint", str(forward_run / "forward_Cu_XANES.json")]
    argv, where = {
        "extract": (["extract", str(data / "structures.jsonl")], f"{data / 'structures.jsonl'}:2:"),
        "train": (["train", "--task", "forward", "--data", str(data), *TINY_FORWARD],
                  f"{data / 'structures.jsonl'}:2:"),
        "eval": (["eval", *ckpt, "--data", str(data)], f"{data / 'structures.jsonl'}:2:"),
        "predict": (["predict", *ckpt, "--input", str(data / "one.json")], f"{data / 'one.json'}:"),
    }[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main([*argv, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert f"error: {where} lattice" in err and "Traceback" not in err, err


def test_missing_sidecar_exits_1_naming_the_manifest_line(mixed_data, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(mixed_data, data)
    (data / "sample_000002_exafs.json").unlink()
    rc = cli.main(["train", "--task", "cn", "--data", str(data), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert f"{data / 'manifest.jsonl'}:3:" in err and "sample_000002_exafs.json" in err, err
    assert "Traceback" not in err, err


def test_bad_sidecar_field_exits_1_naming_the_sidecar(mixed_data, mnnd_run, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(mixed_data, data)
    _write_predict_inputs(data)
    sidecar = (data / json.loads((data / "pair.json").read_text())["xanes"]).with_suffix(".json")
    sidecar.write_text(sidecar.read_text().replace('"XANES"', '"FOO"'))
    rc = cli.main(["predict", "--checkpoint", str(mnnd_run / "mnnd_unified.json"),
                   "--input", str(data / "pair.json"), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert f"error: {sidecar}: field 'kind': expected one of 'XANES', 'EXAFS', got 'FOO'" in err, err


@pytest.mark.parametrize("value", [5, [1]])
def test_structure_id_that_is_no_string_exits_1_naming_the_field(value, cu_data, tmp_path, capsys):
    one = tmp_path / "one.json"
    record = json.loads((cu_data / "structures.jsonl").read_text().splitlines()[0])
    one.write_text(json.dumps({**record, "id": value}))
    rc = cli.main(["extract", str(one), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert f"error: {one}:1: malformed structure record: field 'id': expected a string" in err, err


@pytest.mark.parametrize("command", ["predict", "extract"])
@pytest.mark.parametrize("value", ["x", "99"])
def test_bad_absorber_setting_exits_1_naming_the_key(command, value, cu_data, forward_run,
                                                     tmp_path, capsys):
    structures = cu_data / "structures.jsonl"
    if command == "predict":
        one = tmp_path / "one.json"
        one.write_text(structures.read_text().splitlines()[0])
        argv = ["predict", "--checkpoint", str(forward_run / "forward_Cu_XANES.json"),
                "--input", str(one)]
    else:
        argv = ["extract", str(structures)]
    rc = cli.main([*argv, "--set", f"absorber={value}", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert "config key 'absorber'" in err and "Traceback" not in err, err


@pytest.mark.parametrize("command", ["synth", "train", "eval", "predict"])
@pytest.mark.parametrize("value", ["inf", "nan", "-1"])
def test_bad_cutoff_is_usage_error_naming_the_key(command, value, cu_data, forward_run,
                                                  tmp_path, capsys):
    ckpt = str(forward_run / "forward_Cu_XANES.json")
    one = tmp_path / "one.json"
    one.write_text((cu_data / "structures.jsonl").read_text().splitlines()[0])
    argv = {"synth": ["synth", "--set", "n_samples=2"],
            "train": ["train", "--task", "forward", "--data", str(cu_data)],
            "eval": ["eval", "--checkpoint", ckpt, "--data", str(cu_data)],
            "predict": ["predict", "--checkpoint", ckpt, "--input", str(one)]}[command]
    rc = cli.main([*argv, "--set", f"cutoff={value}", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "config key 'cutoff'" in err and "Traceback" not in err, err


@pytest.mark.parametrize("setting,message", [
    ("lr=abc", "config key 'lr' must be a number, got 'abc'"),
    ("epochs=1.5", "config key 'epochs' must be an integer, got '1.5'"),
    ("embed_dim=abc", "config key 'embed_dim' must be an integer, got 'abc'"),
    ("train_loss_stop=abc", "config key 'train_loss_stop' must be a number, got 'abc'"),
    ("n_trees=abc", "config key 'n_trees' must be an integer, got 'abc'"),
    ("n_trees=2.5", "config key 'n_trees' must be an integer, got '2.5'"),
    ("max_depth=abc", "config key 'max_depth' must be an integer, got 'abc'"),
    ("min_samples_leaf=abc", "config key 'min_samples_leaf' must be an integer, got 'abc'"),
])
def test_training_value_that_does_not_parse_exits_1_naming_the_key(setting, message, mixed_data,
                                                                   tmp_path, capsys):
    forest_keys = ("n_trees", "max_depth", "min_samples_leaf")
    task = "cn" if setting.partition("=")[0] in forest_keys else "mnnd"
    rc = cli.main(["train", "--task", task, "--data", str(mixed_data),
                   "--out", str(tmp_path / "run"), "--set", setting])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert f"error: {message}\n" in err, err
    assert not list((tmp_path / "run").glob(f"{task}_*.json"))


@pytest.mark.parametrize("setting,message", [
    ("encoder_rounds=-1", "error: config key 'encoder_rounds' must be at least 0, got -1"),
    ("max_depth=-1", "error: config key 'max_depth' must be at least 1, got -1"),
    ("patience=-5", "error: config key 'patience' must be at least 1, got -5"),
    ("masked_mean_by_mask_sum=7",
     "error: config key 'masked_mean_by_mask_sum' must be 0 or 1, got 7"),
    ("train_loss_stop=nan", "error: config key 'train_loss_stop' must be finite, got nan"),
    ("train_loss_stop=-1", "error: config key 'train_loss_stop' must be at least 0, got -1.0"),
    ("embed_dim=-3", "error: config key 'embed_dim' must be at least 1, got -3"),
    ("conv_blocks=7",
     "error: config key 'conv_blocks' must halve 2 * embed_dim = 64 at most 6 times, got 7"),
    ("conv_kernel=2", "error: config key 'conv_kernel' must be odd, got 2"),
    ("batch_size=0", "error: config key 'batch_size' must be at least 1, got 0"),
    ("scope=global", "error: config key 'scope' must be per-element or unified, got 'global'"),
    ("sigma2=-1", "error: config key 'sigma2' must be at least 0, got -1.0"),
    ("forward_kind=xanes",
     "usage error: config key 'forward_kind' must be XANES or EXAFS, got 'xanes'"),
    ("epoch=3", "usage error: unknown config key 'epoch'"),
])
def test_bad_setting_fails_before_train_reads_its_data(setting, message, tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main(["train", "--task", "mnnd", "--data", str(tmp_path / "no-data"),
                   "--out", str(out), "--set", setting])
    err = capsys.readouterr().err
    assert rc == (2 if message.startswith("usage") else 1), err
    assert err == message + "\n"
    assert not out.exists()


def test_scope_of_a_forward_model_is_per_element(tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main(["train", "--task", "forward", "--data", str(tmp_path / "no-data"),
                   "--out", str(out), "--set", "scope=unified"])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert err == "error: config key 'scope' must be per-element for task 'forward', got 'unified'\n"
    assert not out.exists()


@pytest.mark.parametrize("target", ["checkpoint", "sidecar", "pair", "config"])
def test_non_utf8_byte_exits_1_naming_file_and_line(target, mixed_data, mnnd_run, tmp_path,
                                                     capsys):
    data = tmp_path / "data"
    shutil.copytree(mixed_data, data)
    _write_predict_inputs(data)
    ckpt = tmp_path / "mnnd.json"
    shutil.copy(mnnd_run / "mnnd_unified.json", ckpt)
    cfg = tmp_path / "run.cfg"
    cfg.write_text('# "predict" settings\nseed = 3\n')
    pair = json.loads((data / "pair.json").read_text())
    bad = {"checkpoint": ckpt, "sidecar": (data / pair["xanes"]).with_suffix(".json"),
           "pair": data / "pair.json", "config": cfg}[target]
    bad.write_bytes(bad.read_bytes().replace(b'"', b'"\xff', 1))  # inside the first string
    rc = cli.main(["predict", "--checkpoint", str(ckpt), "--input", str(data / "pair.json"),
                   "--config", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert f"error: {bad}:1: byte 0xff is not UTF-8" in err, err


# --- input fuzzing: one mutation of one file that predict or synth reads ------

FUZZ_CONFIG = (b"n_samples = 6\nn_grid = 20\nseed = 4\nsigma2 = 0.003\n"
               b"lambda_a = 0.8\nlambda_b = 3.0\n")
_NUMBER = re.compile(rb"\d+(?:\.\d+)?")


@st.composite
def _mutated(draw, data: bytes) -> bytes:
    """`data` cut at a byte, with a byte flipped, with a comma or a field inserted, or
    with one number made nan, 1e999 or text."""
    how = draw(st.sampled_from(["cut", "flip", "comma", "field", "nan", "1e999", "text"]))
    at = draw(st.integers(0, len(data) - 1))
    if how == "cut":
        return data[:at]
    if how == "flip":
        return data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
    if how in ("comma", "field"):
        return data[:at] + (b"," if how == "comma" else b",1.5") + data[at:]
    numbers = list(_NUMBER.finditer(data))
    assume(numbers)
    number = draw(st.sampled_from(numbers))
    word = {"nan": b"nan", "1e999": b"1e999", "text": b"abc"}[how]
    return data[:number.start()] + word + data[number.end():]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(target=st.sampled_from(["xanes", "exafs", "sidecar", "config"]), data=st.data())
def test_one_mutated_input_exits_0_1_or_2_and_an_error_names_it(target, data, mixed_data, mnnd_run,
                                                                 tmp_path, capsys):
    """predict of a spectrum pair whose CSV or XANES sidecar has one mutation, or synth of a
    mutated config file: exit 0, 1 or 2, never an exception; an exit 1 names the file."""
    pair = json.loads((mixed_data / "manifest.jsonl").read_text().splitlines()[0])
    with tempfile.TemporaryDirectory(dir=tmp_path) as tmp:
        tmp = Path(tmp)
        for key in ("xanes", "exafs"):
            for suffix in (".csv", ".json"):
                shutil.copy((mixed_data / pair[key]).with_suffix(suffix), tmp / f"{key}{suffix}")
        (tmp / "pair.json").write_text('{"xanes": "xanes.csv", "exafs": "exafs.csv"}')
        (tmp / "run.cfg").write_bytes(FUZZ_CONFIG)
        bad = {"xanes": tmp / "xanes.csv", "exafs": tmp / "exafs.csv",
               "sidecar": tmp / "xanes.json", "config": tmp / "run.cfg"}[target]
        bad.write_bytes(data.draw(_mutated(bad.read_bytes())))
        if target == "config":
            argv = ["synth", "--config", str(bad)]
        else:
            argv = ["predict", "--checkpoint", str(mnnd_run / "mnnd_unified.json"),
                    "--input", str(tmp / "pair.json")]
        rc = cli.main([*argv, "--out", str(tmp / "out")])
    err = capsys.readouterr().err
    assert rc in (0, 1, 2), err
    assert rc != 1 or str(bad) in err, err


@pytest.mark.parametrize("key", ["xanes", "exafs"])
def test_pair_csv_of_another_grid_length_names_the_csv(key, mixed_data, mnnd_run, tmp_path,
                                                        capsys):
    data = tmp_path / "data"
    shutil.copytree(mixed_data, data)
    _write_predict_inputs(data)
    csv_path = data / json.loads((data / "pair.json").read_text())[key]
    csv_path.write_text("".join(csv_path.read_text().splitlines(keepends=True)[:-1]))
    rc = cli.main(["predict", "--checkpoint", str(mnnd_run / "mnnd_unified.json"),
                   "--input", str(data / "pair.json"), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert err == f"error: {csv_path}: 39 grid points, model reads 40\n"


@pytest.mark.parametrize("line", [1, 5])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_dataset_csv_of_another_grid_length_names_the_line_and_both_csvs(command, line,
                                                                         mixed_data, mnnd_run,
                                                                         tmp_path, capsys):
    """One XANES CSV cut by a row, first in the manifest or later: train and eval exit 1
    naming the manifest line, the CSV of another length and the first XANES CSV."""
    data = tmp_path / "data"
    shutil.copytree(mixed_data, data)
    manifest = data / "manifest.jsonl"
    xanes = [data / json.loads(rec)["xanes"] for rec in manifest.read_text().splitlines()]
    cut = xanes[line - 1]
    cut.write_text("".join(cut.read_text().splitlines(keepends=True)[:-1]))
    argv = {"train": ["train", "--task", "mnnd", "--data", str(data), "--seed", "3", *TINY_MNND],
            "eval": ["eval", "--checkpoint", str(mnnd_run / "mnnd_unified.json"),
                     "--data", str(data)]}[command]
    rc = cli.main([*argv, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1, err
    if line == 1:
        expected = f"{manifest}:2: {xanes[1]}: 40 grid points, but {cut} has 39"
    else:
        expected = f"{manifest}:{line}: {cut}: 39 grid points, but {xanes[0]} has 40"
    assert err == f"error: {expected}\n"


# a pair's XANES sidecar edit, each spectrum valid alone, and the SpectrumPair check it breaks
MISMATCHED_PAIRS = {
    "kind": ({"kind": "EXAFS"}, "sample spectra must be (XANES, EXAFS) in that order"),
    "absorber": ({"absorber": "O"}, "XANES and EXAFS absorbers differ"),
}


@pytest.mark.parametrize("case", sorted(MISMATCHED_PAIRS))
def test_pair_of_spectra_that_do_not_belong_together_exits_1_naming_it(case, mixed_data, mnnd_run,
                                                                        tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(mixed_data, data)
    _write_predict_inputs(data)
    pair = json.loads((data / "pair.json").read_text())
    sidecars = [(data / pair[key]).with_suffix(".json") for key in ("xanes", "exafs")]
    edit, message = MISMATCHED_PAIRS[case]
    sidecars[0].write_text(json.dumps({**json.loads(sidecars[0].read_text()), **edit}))
    out = tmp_path / "out"
    rc = cli.main(["predict", "--checkpoint", str(mnnd_run / "mnnd_unified.json"),
                   "--input", str(data / "pair.json"), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert err == (f"error: {data / 'pair.json'}: {message} "
                   f"(sidecars {sidecars[0]} and {sidecars[1]})\n")
    assert not (out / "prediction.json").exists()


@pytest.mark.parametrize("key,token", [("y_std", "0"), ("y_std", "1e999"), ("y_std", '"abc"'),
                                       ("y_std", "true"), ("y_mean", "1e999")])
def test_mnnd_target_scale_that_is_no_finite_number_exits_1(key, token, mixed_data, mnnd_run,
                                                            tmp_path, capsys):
    doc = json.loads((mnnd_run / "mnnd_unified.json").read_text())
    doc["header"][key] = "@"
    ckpt = tmp_path / "mnnd.json"
    ckpt.write_text(json.dumps(doc).replace('"@"', token))
    out = tmp_path / "eval"
    rc = cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(mixed_data), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1, err
    # a real past the float range is refused as it is read, naming the line
    expected = (f"error: {ckpt}:1: non-finite number {token}" if "e999" in token
                else f"error: checkpoint {ckpt}: field 'header.{key}'")
    assert expected in err, err
    assert not (out / "metrics.json").exists()


def test_unknown_structure_id_names_both_files(cu_data, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(cu_data, data)
    lines = (data / "structures.jsonl").read_text().splitlines(keepends=True)
    (data / "structures.jsonl").write_text("".join(lines[1:]))
    missing = json.loads(lines[0])["id"]
    rc = cli.main(["train", "--task", "forward", "--data", str(data),
                   "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 1, err
    for part in (str(data / "manifest.jsonl"), str(data / "structures.jsonl"), repr(missing)):
        assert part in err, err


class TestTrain:
    def test_unknown_task_exits_2(self, mixed_data, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--task", "bogus", "--data", str(mixed_data),
                      "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    def test_missing_task_exits_2(self, mixed_data, tmp_path):
        rc = cli.main(["train", "--data", str(mixed_data), "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_zero_batch_size_exits_1_naming_the_key(self, mixed_data, tmp_path, capsys):
        rc = cli.main(["train", "--task", "mnnd", "--data", str(mixed_data),
                       "--out", str(tmp_path / "x"), "--set", "batch_size=0"])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert "batch_size" in err and "Traceback" not in err, err

    @pytest.mark.parametrize("epochs", ["0", "-3"])
    def test_nonpositive_epochs_exits_1_naming_the_key(self, epochs, mixed_data, tmp_path,
                                                        capsys):
        out = tmp_path / "x"
        rc = cli.main(["train", "--task", "mnnd", "--data", str(mixed_data),
                       "--out", str(out), "--set", f"epochs={epochs}"])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert "epochs" in err and "Traceback" not in err, err
        assert not list(out.glob("*.json"))

    @pytest.mark.parametrize("key,value", [("lr", "nan"), ("lr", "inf"), ("lr", "-inf"),
                                           ("weight_decay", "nan"), ("weight_decay", "inf")])
    def test_non_finite_rate_exits_1_naming_the_key(self, key, value, mixed_data, tmp_path,
                                                    capsys):
        out = tmp_path / "x"
        rc = cli.main(["train", "--task", "mnnd", "--data", str(mixed_data),
                       "--out", str(out), "--set", f"{key}={value}"])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert f"error: config key '{key}' must be finite, got {value}\n" in err, err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("task,key,least", [
        ("forward", "encoder_dim", 1), ("forward", "forward_hidden", 1),
        ("forward", "encoder_rbf", 2), ("mnnd", "embed_hidden", 1),
        ("mnnd", "conv_channels", 1), ("mnnd", "conv_kernel", 1), ("neighbor", "head_hidden", 1),
        ("forward", "encoder_hidden", 1), ("forward", "encoder_rounds", 0),
        ("forward", "encoder_k", 1), ("forward", "forward_k", 1), ("mnnd", "embed_dim", 1),
        ("mnnd", "embed_k", 1), ("mnnd", "conv_blocks", 1), ("neighbor", "head_k", 1),
        ("cn", "n_trees", 1), ("cn", "max_depth", 1), ("cn", "min_samples_leaf", 1),
    ])
    def test_arch_size_below_its_least_exits_1_naming_the_key(self, task, key, least, request,
                                                              tmp_path, capsys):
        data = request.getfixturevalue("cu_data" if task == "forward" else "mixed_data")
        out = tmp_path / "x"
        rc = cli.main(["train", "--task", task, "--data", str(data), "--out", str(out),
                       "--set", "epochs=1", "--set", f"{key}={least - 1}"])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert f"error: config key '{key}' must be at least {least}, got {least - 1}" in err, err
        assert not list(out.glob("*.json"))

    @pytest.mark.parametrize("task", ["forward", "mnnd", "neighbor"])
    def test_validation_predicts_once_an_epoch_and_not_after_fit(self, task, request,
                                                                 monkeypatch, tmp_path):
        from xastruct import pipelines as pl

        owner, attr = {"forward": (pl, "forward_predict"), "mnnd": (pl, "predict_mnnd_batch"),
                       "neighbor": (pl.InverseNeighbor, "logits")}[task]
        calls = []
        predict = getattr(owner, attr)

        def counted(*args, **kwargs):
            calls.append(1)
            return predict(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
        data = request.getfixturevalue("cu_data" if task == "forward" else "mixed_data")
        out = tmp_path / task
        rc = cli.main(["train", "--task", task, "--data", str(data), "--out", str(out),
                       "--seed", "3", *(TINY_FORWARD if task == "forward" else TINY_MNND)])
        assert rc == 0
        epochs = sum(len(p.read_text().splitlines()) - 1 for p in out.glob("history_*.csv"))
        assert epochs >= 2 and len(calls) == epochs

    @pytest.mark.parametrize("task", ["forward", "mnnd", "neighbor", "cn"])
    def test_train_metrics_equal_a_fresh_score_of_the_checkpoint(self, task, request, tmp_path):
        """Scoring the kept validation output gives the bytes of predicting it again."""
        from xastruct import pipelines as pl
        from xastruct.spectra import split_dataset

        data = request.getfixturevalue("cu_data" if task == "forward" else "mixed_data")
        settings = {"forward": TINY_FORWARD, "mnnd": TINY_MNND, "neighbor": TINY_MNND,
                    "cn": ["--set", "n_trees=5", "--set", "max_depth=4"]}[task]
        out = tmp_path / task
        assert cli.main(["train", "--task", task, "--data", str(data), "--out", str(out),
                         "--seed", "4", *settings]) == 0
        reports = sorted(out.glob("metrics_*.json"))
        assert reports
        for path in reports:
            report = json.loads(path.read_text())
            name, model = pl.load_checkpoint(out / path.name.replace("metrics_", ""))
            items = cli.TASKS[name].load(data, dict(cli.CONFIG_DEFAULTS), model)
            _, val = split_dataset(items, 4)
            fresh = cli.TASKS[name].score(model, val, check_config({}), None)
            for field, value in vars(fresh).items():
                assert report[field] == value, (path.name, field)

    def test_main_builds_its_parser_once_and_finds_the_command_when_it_runs(self, monkeypatch):
        ran = []
        monkeypatch.setattr(cli, "cmd_extract", lambda args: ran.append(args.structures) or 0)
        assert cli.main(["extract", "first.jsonl"]) == 0
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **k: built.append(a) or init(self, *a, **k))
        monkeypatch.setattr(cli, "cmd_extract",
                            lambda args: ran.append(("wrapped", args.structures)) or 0)
        assert cli.main(["extract", "second.jsonl"]) == 0
        assert ran == ["first.jsonl", ("wrapped", "second.jsonl")]
        assert built == []

    def test_task_choices_are_the_task_table(self):
        commands = next(a for a in cli.build_parser()._actions if a.dest == "command")
        task = next(a for a in commands.choices["train"]._actions if a.dest == "task")
        assert list(task.choices) == list(cli.TASKS)

    def test_forward_skips_an_element_with_too_few_samples(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert cli.main(["synth", "--out", str(data), "--seed", "1", "--set", "n_samples=10",
                         "--set", "n_grid=40", "--set", "elements=Cu,Ni",
                         "--set", "templates=sc,fcc"]) == 0
        counts = Counter(s.xanes.absorber.symbol for s in load_dataset(data / "manifest.jsonl"))
        assert counts == {"Cu": 7, "Ni": 3}
        out = tmp_path / "fwd"
        rc = cli.main(["train", "--task", "forward", "--data", str(data), "--out", str(out),
                       "--seed", "2", *TINY_FORWARD])
        err = capsys.readouterr().err
        assert rc == 0, err
        assert "skipping scope Ni: 3 samples is too few to split" in err
        assert sorted(p.name for p in out.glob("forward_*.json")) == ["forward_Cu_XANES.json"]
        assert (out / "history_forward_Cu_XANES.csv").exists()

    def test_mnnd_outputs(self, mnnd_run):
        assert (mnnd_run / "mnnd_unified.json").exists()
        assert (mnnd_run / "history_mnnd_unified.csv").exists()
        with open(mnnd_run / "metrics_mnnd_unified.json") as fh:
            report = json.load(fh)
        assert report["task"] == "mnnd"
        assert report["scope"] == "unified"
        assert report["n_train"] + report["n_val"] == 24
        assert report["mae"] > 0
        assert report["accuracy"] is None

    def test_mnnd_checkpoint_is_train_mnnd_of_the_checked_config(self, mixed_data, mnnd_run,
                                                                 tmp_path):
        """train --task mnnd writes the bytes of train_mnnd given check_config of its keys."""
        from xastruct import pipelines as pl
        from xastruct.spectra import split_dataset

        cfg = check_config({"seed": 3, **dict(item.split("=") for item in TINY_MNND[1::2])})
        train, val = split_dataset(load_dataset(mixed_data / "manifest.jsonl"), 3)
        pl.train_mnnd(train, cfg, val_samples=val)[1].save(tmp_path / "mnnd.json")
        assert (tmp_path / "mnnd.json").read_bytes() == (mnnd_run / "mnnd_unified.json").read_bytes()

    def test_rerun_metrics_byte_identical(self, mixed_data, mnnd_run, tmp_path):
        again = tmp_path / "again"
        rc = cli.main(["train", "--task", "mnnd", "--data", str(mixed_data),
                       "--out", str(again), "--seed", "3", *TINY_MNND])
        assert rc == 0
        first = (mnnd_run / "metrics_mnnd_unified.json").read_bytes()
        second = (again / "metrics_mnnd_unified.json").read_bytes()
        assert first == second
        assert (mnnd_run / "mnnd_unified.json").read_bytes() == (again / "mnnd_unified.json").read_bytes()

    def test_forward_training_writes_per_element_checkpoint(self, cu_data, tmp_path):
        out = tmp_path / "fwd"
        rc = cli.main(["train", "--task", "forward", "--data", str(cu_data),
                       "--out", str(out), "--seed", "2", *TINY_FORWARD])
        assert rc == 0
        assert (out / "forward_Cu_XANES.json").exists()
        with open(out / "metrics_forward_Cu_XANES.json") as fh:
            assert json.load(fh)["scope"] == "Cu/K/XANES"

    def test_cn_trains_per_element(self, mixed_data, tmp_path):
        out = tmp_path / "cn"
        rc = cli.main(["train", "--task", "cn", "--data", str(mixed_data),
                       "--out", str(out), "--seed", "5",
                       "--set", "n_trees=10", "--set", "max_depth=6"])
        assert rc == 0
        metrics = sorted(p.name for p in out.glob("metrics_cn_*.json"))
        assert metrics, "expected at least one per-element cn report"
        for path in out.glob("metrics_cn_*.json"):
            with open(path) as fh:
                report = json.load(fh)
            assert report["accuracy"] is not None
            assert report["mae"] is None


def _split_root(doc) -> dict:
    """The root of the first tree of a cn checkpoint whose root splits: every sample visits it."""
    return next(nodes[0] for nodes in doc["forest"]["trees"] if "feature" in nodes[0])


def _first_leaf(doc) -> dict:
    """The first leaf of that tree, which some training sample reaches."""
    nodes = next(nodes for nodes in doc["forest"]["trees"] if "feature" in nodes[0])
    return next(node for node in nodes if "histogram" in node)


# (checkpoint task, corruption of its parsed document in place)
CORRUPT_CHECKPOINT = {
    "arch list": ("mnnd", lambda doc: doc["header"].update(arch=list(doc["header"]["arch"]))),
    "params list": ("mnnd", lambda doc: doc.update(params=list(doc["params"].values()))),
    "string feature": ("cn", lambda doc: _split_root(doc).update(feature="0")),
    "child out of range": ("cn", lambda doc: _split_root(doc).update(right=10 ** 6)),
    "short histogram": ("cn", lambda doc: _first_leaf(doc)["histogram"].pop()),
    "more classes than the forest": ("cn", lambda doc: doc["header"]["classes"].append(99)),
}


@pytest.mark.parametrize("case", sorted(CORRUPT_CHECKPOINT))
def test_corrupt_checkpoint_exits_1_naming_it(case, mixed_data, mnnd_run, cn_run, tmp_path,
                                              capsys):
    task, corrupt = CORRUPT_CHECKPOINT[case]
    source = {"mnnd": mnnd_run / "mnnd_unified.json", "cn": cn_run / "cn_Cu.json"}[task]
    doc = json.loads(source.read_text())
    corrupt(doc)
    ckpt = tmp_path / "bad.json"
    ckpt.write_text(json.dumps(doc))
    for command in (["eval", "--data", str(mixed_data)], ["predict", "--input", str(ckpt)]):
        rc = cli.main([*command, "--checkpoint", str(ckpt), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert f"checkpoint {ckpt}:" in capsys.readouterr().err


def _corrupt_array(doc, name: str, kind: str) -> None:
    """Cut checkpoint array `name` to one entry (kind "shape") or make its first entry NaN."""
    rec = doc["params"][name]
    values = np.frombuffer(base64.b64decode(rec["data"]), dtype="<f8").copy()
    if kind == "shape":
        values, rec["shape"] = values[:1], [1]
    else:
        values[0] = np.nan
    rec["data"] = base64.b64encode(values.tobytes()).decode("ascii")


# (checkpoint task, array): a buffer of each kind and a parameter per neural task
CORRUPT_ARRAYS = [
    ("forward", "y_center"),
    ("forward", "head.final.W_v"),
    ("mnnd", "conv_exafs0.bn_running_mean"),
    ("mnnd", "norm.ax.mean"),
    ("mnnd", "f_d.final.W_g"),
    ("neighbor", "norm.ae.std"),
    ("neighbor", "f_t.final.W_g"),
]


@pytest.mark.parametrize("kind", ["shape", "nan"])
@pytest.mark.parametrize("task,name", CORRUPT_ARRAYS)
def test_corrupt_array_exits_1_naming_checkpoint_and_array(task, name, kind, request, tmp_path,
                                                            capsys):
    run = request.getfixturevalue(f"{task}_run")
    data = request.getfixturevalue("cu_data" if task == "forward" else "mixed_data")
    source = next(run.glob(f"{task}_*.json"))
    doc = json.loads(source.read_text())
    _corrupt_array(doc, name, kind)
    ckpt = tmp_path / "bad.json"
    ckpt.write_text(json.dumps(doc))
    for command in (["eval", "--data", str(data)], ["predict", "--input", str(ckpt)]):
        out = tmp_path / command[0]
        rc = cli.main([*command, "--checkpoint", str(ckpt), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert f"checkpoint {ckpt}: array '{name}'" in err, err
        assert not (out / "metrics.json").exists()


_MISSING = object()  # a probe value: the field is left out
# (checkpoint task, header field, its value as train never writes it, from the header)
HEADER_PROBES = {
    "forward kind": ("forward", "kind", lambda h: "FOO"),
    # a forward model is of one element: no header of it lacks the element
    "forward missing element": ("forward", "element", lambda h: _MISSING),
    "forward null element": ("forward", "element", lambda h: None),
    "forward edge": ("forward", "edge", lambda h: "Q"),
    "forward grid one point short": ("forward", "grid", lambda h: h["grid"][:-1]),
    "forward unknown element": ("forward", "element", lambda h: "Xx"),
    "forward real n_out": ("forward", "n_out", lambda h: float(h["n_out"])),
    # eval and predict build graphs at the cutoff the model trained at: no header lacks it
    "forward missing cutoff": ("forward", "cutoff", lambda h: _MISSING),
    "forward zero cutoff": ("forward", "cutoff", lambda h: 0),
    "mnnd boolean n_xanes": ("mnnd", "n_xanes", lambda h: True),
    "mnnd unknown element": ("mnnd", "element", lambda h: "Xx"),
    "mnnd quoted y_mean": ("mnnd", "y_mean", lambda h: str(h["y_mean"])),
    "neighbor boolean class": ("neighbor", "classes", lambda h: [True, 29]),
    "neighbor class past the periodic table": ("neighbor", "classes",
                                               lambda h: [200] + h["classes"][1:]),
    "neighbor real n_exafs": ("neighbor", "n_exafs", lambda h: 40.0),
    "cn quoted classes": ("cn", "classes", lambda h: ["22", "29"]),
    "cn boolean n_xanes": ("cn", "n_xanes", lambda h: True),
    "cn unknown element": ("cn", "element", lambda h: "Xx"),
}


@pytest.mark.parametrize("case", sorted(HEADER_PROBES))
def test_header_field_train_never_writes_exits_1_naming_it(case, request, tmp_path, capsys):
    task, field, value = HEADER_PROBES[case]
    source = next(request.getfixturevalue(f"{task}_run").glob(f"{task}_*.json"))
    doc = json.loads(source.read_text())
    doc["header"][field] = value(doc["header"])
    if doc["header"][field] is _MISSING:
        del doc["header"][field]
    ckpt = tmp_path / "bad.json"
    ckpt.write_text(json.dumps(doc))
    data = request.getfixturevalue("cu_data" if task == "forward" else "mixed_data")
    for command, written in ((["eval", "--data", str(data)], "metrics.json"),
                             (["predict", "--input", str(ckpt)], "prediction.json")):
        out = tmp_path / command[0]
        rc = cli.main([*command, "--checkpoint", str(ckpt), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert f"error: checkpoint {ckpt}: field 'header.{field}" in err, err
        assert not (out / written).exists()


def test_cn_forest_header_is_breimans_forest(cn_run):
    for ckpt in sorted(cn_run.glob("cn_*.json")):
        header = json.loads(ckpt.read_text())["forest"]["header"]
        assert header == {"n_trees": 3, "max_depth": 3, "min_samples_leaf": 2,
                          "max_features": "sqrt", "bootstrap": True, "seed": 0,
                          "n_features": 80, "n_classes": header["n_classes"]}, ckpt


# a forest header field and a value that fit never writes
@pytest.mark.parametrize("field,value", [("max_features", None), ("bootstrap", False),
                                         ("max_depth", None)])
def test_cn_forest_header_fit_never_writes_exits_1_naming_it(field, value, mixed_data, cn_run,
                                                             tmp_path, capsys):
    doc = json.loads((cn_run / "cn_Cu.json").read_text())
    doc["forest"]["header"][field] = value
    ckpt = tmp_path / "bad.json"
    ckpt.write_text(json.dumps(doc))
    for command in (["eval", "--data", str(mixed_data)], ["predict", "--input", str(ckpt)]):
        rc = cli.main([*command, "--checkpoint", str(ckpt), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert f"error: checkpoint {ckpt}: field 'forest.header.{field}': expected " in err, err


# (arch key, a value train never writes, the error; None where the value reads as written)
ARCH_VALUES = {
    "real conv_blocks": ("conv_blocks", 2.7, "config key 'conv_blocks' must be an integer, got 2.7"),
    "boolean embed_k": ("embed_k", True, "config key 'embed_k' must be an integer, got True"),
    "quoted embed_k": ("embed_k", "2", None),  # a string parses, as in a config file
}


@pytest.mark.parametrize("case", sorted(ARCH_VALUES))
def test_checkpoint_arch_value_is_checked_not_coerced(case, mixed_data, mnnd_run, tmp_path, capsys):
    key, value, error = ARCH_VALUES[case]
    doc = json.loads((mnnd_run / "mnnd_unified.json").read_text())
    assert doc["header"]["arch"][key] == 2
    doc["header"]["arch"][key] = value
    ckpt = tmp_path / "edited.json"
    ckpt.write_text(json.dumps(doc))
    row = json.loads((mixed_data / "manifest.jsonl").read_text().splitlines()[0])
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({k: str(mixed_data / row[k]) for k in ("xanes", "exafs")}))
    codes = [cli.main(["predict", "--checkpoint", str(source), "--input", str(pair),
                       "--out", str(tmp_path / source.stem)])
             for source in (mnnd_run / "mnnd_unified.json", ckpt)]
    err = capsys.readouterr().err
    written = tmp_path / "edited" / "prediction.json"
    if error is None:
        assert codes == [0, 0], err
        assert written.read_bytes() == (tmp_path / "mnnd_unified" / "prediction.json").read_bytes()
    else:
        assert codes == [0, 1]
        assert err == f"error: checkpoint {ckpt}: {error}\n"
        assert not written.exists()


@pytest.mark.parametrize("task", ["forward", "mnnd", "neighbor", "cn"])
def test_checkpoint_saved_from_its_load_has_the_same_bytes(task, request, tmp_path):
    from xastruct import pipelines as pl

    for ckpt in sorted(request.getfixturevalue(f"{task}_run").glob(f"{task}_*.json")):
        _, model = pl.load_checkpoint(ckpt)
        model.save(tmp_path / ckpt.name)
        assert (tmp_path / ckpt.name).read_bytes() == ckpt.read_bytes()


class TestEvalPredict:
    def test_eval_reports_on_full_manifest(self, mixed_data, mnnd_run, tmp_path):
        out = tmp_path / "eval"
        rc = cli.main(["eval", "--checkpoint", str(mnnd_run / "mnnd_unified.json"),
                       "--data", str(mixed_data), "--out", str(out)])
        assert rc == 0
        with open(out / "metrics.json") as fh:
            report = json.load(fh)
        assert report["n_val"] == 24
        assert report["n_train"] == 0

    @pytest.mark.parametrize("task,settings", [
        ("cn", ["--set", "n_trees=5", "--set", "max_depth=4"]),
        ("neighbor", ["--set", "epochs=1", "--set", "embed_dim=8", "--set", "embed_hidden=16",
                      "--set", "head_hidden=16", "--set", "batch_size=8"]),
    ])
    def test_per_element_checkpoint_is_scored_on_its_element(
        self, two_element_data, task, settings, tmp_path
    ):
        run = tmp_path / task
        rc = cli.main(["train", "--task", task, "--data", str(two_element_data),
                       "--out", str(run), "--seed", "1", *settings])
        assert rc == 0
        counts = Counter(s.xanes.absorber.symbol
                         for s in load_dataset(two_element_data / "manifest.jsonl"))
        assert sorted(counts) == ["Ni", "Se"]
        for element, n in counts.items():
            ckpt = run / f"{task}_{element}.json"
            assert json.loads(ckpt.read_text())["header"]["element"] == element
            out = tmp_path / f"eval_{element}"
            rc = cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(two_element_data),
                           "--out", str(out)])
            assert rc == 0
            report = json.loads((out / "metrics.json").read_text())
            assert (report["scope"], report["n_val"]) == (element, n)

        # a header without an element, as older checkpoints have, scores every sample
        doc = json.loads((run / f"{task}_Ni.json").read_text())
        del doc["header"]["element"]
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps(doc, sort_keys=True))
        rc = cli.main(["eval", "--checkpoint", str(legacy), "--data", str(two_element_data),
                       "--out", str(tmp_path / "eval_legacy")])
        assert rc == 0
        report = json.loads((tmp_path / "eval_legacy" / "metrics.json").read_text())
        assert (report["scope"], report["n_val"]) == ("unified", sum(counts.values()))

    def test_eval_without_the_checkpoint_element_exits_1(self, two_element_data, cu_data,
                                                          tmp_path, capsys):
        run = tmp_path / "cn"
        assert cli.main(["train", "--task", "cn", "--data", str(two_element_data),
                         "--out", str(run), "--set", "n_trees=3", "--set", "max_depth=3"]) == 0
        ckpt = run / "cn_Ni.json"
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(cu_data),
                       "--out", str(tmp_path / "eval")])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(ckpt) in err and "Ni" in err

    def test_unreadable_or_unknown_checkpoint_exits_1_naming_it(self, mixed_data, tmp_path,
                                                                capsys):
        bogus = tmp_path / "bogus.json"
        truncated = tmp_path / "truncated.json"
        bogus.write_text(json.dumps({"header": {"task": "bogus"}}))
        truncated.write_text('{"header": {"task": "cn"')
        for ckpt in (bogus, truncated):
            rc = cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(mixed_data),
                           "--out", str(tmp_path / "eval")])
            assert rc == 1
            assert str(ckpt) in capsys.readouterr().err

    def test_malformed_checkpoint_exits_1_naming_file_and_field(
        self, mixed_data, mnnd_run, forward_run, cn_run, tmp_path, capsys
    ):
        no_forest = json.loads((cn_run / "cn_Cu.json").read_text())
        del no_forest["forest"]
        truncated = json.loads((forward_run / "forward_Cu_XANES.json").read_text())
        rec = truncated["params"]["head.final.W_v"]
        rec["data"] = rec["data"][:-7]
        no_param = json.loads((mnnd_run / "mnnd_unified.json").read_text())
        del no_param["params"]["conv_exafs0.W"]
        for doc, field in ((no_forest, "forest"), (truncated, "head.final.W_v"),
                           (no_param, "conv_exafs0.W")):
            ckpt = tmp_path / f"bad_{doc['header']['task']}.json"
            ckpt.write_text(json.dumps(doc))
            for command in (["eval", "--data", str(mixed_data)],
                            ["predict", "--input", str(ckpt)]):
                rc = cli.main([*command, "--checkpoint", str(ckpt), "--out", str(tmp_path / "o")])
                assert rc == 1
                err = capsys.readouterr().err
                assert f"checkpoint {ckpt}:" in err and field in err, err

    @pytest.mark.parametrize("field", ["header.arch", "params"])
    def test_checkpoint_field_that_is_not_an_object_exits_1_naming_it(
        self, mixed_data, mnnd_run, tmp_path, capsys, field
    ):
        doc = json.loads((mnnd_run / "mnnd_unified.json").read_text())
        if field == "params":
            doc["params"] = list(doc["params"])
        else:
            doc["header"]["arch"] = list(doc["header"]["arch"].items())
        ckpt = tmp_path / "bad.json"
        ckpt.write_text(json.dumps(doc))
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(mixed_data),
                       "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"checkpoint {ckpt}: field '{field}': expected a JSON object, got list" in err, err

    def test_forward_eval_builds_graphs_of_its_element_only(
        self, mixed_data, forward_run, tmp_path, monkeypatch
    ):
        built = []
        build_graph = cli.build_graph
        monkeypatch.setattr(cli, "build_graph", lambda *a: built.append(a) or build_graph(*a))
        out = tmp_path / "eval"
        rc = cli.main(["eval", "--checkpoint", str(forward_run / "forward_Cu_XANES.json"),
                       "--data", str(mixed_data), "--out", str(out)])
        assert rc == 0
        n_cu = sum(s.xanes.absorber.symbol == "Cu"
                   for s in load_dataset(mixed_data / "manifest.jsonl"))
        report = json.loads((out / "metrics.json").read_text())
        assert (report["scope"], report["n_val"]) == ("Cu/K/XANES", n_cu)
        assert len(built) == n_cu

    def test_eval_rerun_byte_identical(self, mixed_data, mnnd_run, tmp_path):
        outs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            cli.main(["eval", "--checkpoint", str(mnnd_run / "mnnd_unified.json"),
                      "--data", str(mixed_data), "--out", str(out)])
            outs.append((out / "metrics.json").read_bytes())
        assert outs[0] == outs[1]

    def test_predict_mnnd_contract(self, mixed_data, mnnd_run, tmp_path):
        with open(mixed_data / "manifest.jsonl") as fh:
            row = json.loads(fh.readline())
        pair = tmp_path / "pair.json"
        pair.write_text(json.dumps({
            "xanes": str(mixed_data / row["xanes"]),
            "exafs": str(mixed_data / row["exafs"]),
        }))
        out = tmp_path / "pred"
        rc = cli.main(["predict", "--checkpoint", str(mnnd_run / "mnnd_unified.json"),
                       "--input", str(pair), "--out", str(out)])
        assert rc == 0
        with open(out / "prediction.json") as fh:
            result = json.load(fh)
        assert result["task"] == "mnnd"
        assert isinstance(result["mnnd_angstrom"], float)

    def test_predict_forward_emits_spectrum_csv(self, cu_data, tmp_path):
        run = tmp_path / "fwd"
        cli.main(["train", "--task", "forward", "--data", str(cu_data),
                  "--out", str(run), "--seed", "2", *TINY_FORWARD])
        structure_line = (cu_data / "structures.jsonl").read_text().splitlines()[0]
        target = tmp_path / "one.json"
        target.write_text(structure_line)
        out = tmp_path / "pred"
        rc = cli.main(["predict", "--checkpoint", str(run / "forward_Cu_XANES.json"),
                       "--input", str(target), "--out", str(out)])
        assert rc == 0
        sp = load_spectrum(out / "spectrum.csv")
        assert sp.grid.n == 40
        assert sp.kind == "XANES"

    def test_forward_eval_and_predict_use_the_cutoff_of_training(self, cu_data, tmp_path):
        run = tmp_path / "fwd"
        cutoff = ["--set", "cutoff=4.0"]
        assert cli.main(["train", "--task", "forward", "--data", str(cu_data), "--out", str(run),
                         "--seed", "2", *TINY_FORWARD, *cutoff]) == 0
        ckpt = run / "forward_Cu_XANES.json"
        one = tmp_path / "one.json"
        one.write_text((cu_data / "structures.jsonl").read_text().splitlines()[0])
        outputs = []
        for name, flags in (("with", cutoff), ("without", [])):
            eval_out, predict_out = tmp_path / f"eval_{name}", tmp_path / f"predict_{name}"
            assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(cu_data),
                             "--out", str(eval_out), *flags]) == 0
            assert cli.main(["predict", "--checkpoint", str(ckpt), "--input", str(one),
                             "--out", str(predict_out), *flags]) == 0
            outputs.append(((eval_out / "metrics.json").read_bytes(),
                            (predict_out / "spectrum.csv").read_bytes()))
        assert outputs[0] == outputs[1]
        assert json.loads(ckpt.read_text())["header"]["cutoff"] == 4.0

    def test_predict_task_mismatch_exits_1(self, mnnd_run, cu_data, tmp_path):
        structure_line = (cu_data / "structures.jsonl").read_text().splitlines()[0]
        target = tmp_path / "one.json"
        target.write_text(structure_line)
        out = tmp_path / "pred"
        rc = cli.main(["predict", "--checkpoint", str(mnnd_run / "mnnd_unified.json"),
                       "--input", str(target), "--task", "forward", "--out", str(out)])
        assert rc == 1

    def test_predict_unknown_task_exits_2(self, mnnd_run, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["predict", "--checkpoint", str(mnnd_run / "mnnd_unified.json"),
                      "--input", str(tmp_path / "pair.json"), "--task", "bogus",
                      "--out", str(tmp_path / "pred")])
        assert exc.value.code == 2

    def test_predict_wrong_input_shape_exits_1(self, mnnd_run, cu_data, tmp_path):
        # a structure file is not a spectrum pair; the mnnd loader must reject it
        structure_line = (cu_data / "structures.jsonl").read_text().splitlines()[0]
        target = tmp_path / "one.json"
        target.write_text(structure_line)
        rc = cli.main(["predict", "--checkpoint", str(mnnd_run / "mnnd_unified.json"),
                       "--input", str(target), "--out", str(tmp_path / "pred")])
        assert rc == 1


class TestGradcheck:
    def test_clean_suite_exits_0(self):
        assert cli.main(["gradcheck", "--seeds", "2"]) == 0

    def test_corrupted_gradient_exits_1(self):
        assert cli.main(["gradcheck", "--seeds", "1", "--corrupt"]) == 1

    @pytest.mark.parametrize("seeds,message", [
        ("0", "usage error: --seeds must be at least 1, got 0"),
        ("-1", "usage error: --seeds must be at least 1, got -1"),
        ("abc", "argument --seeds: invalid int value: 'abc'"),
        ("2.5", "argument --seeds: invalid int value: '2.5'"),
    ])
    def test_seed_count_that_is_no_integer_of_at_least_1_exits_2_naming_it(self, seeds, message,
                                                                            capsys):
        try:
            rc = cli.main(["gradcheck", f"--seeds={seeds}"])
        except SystemExit as exc:  # argparse's own usage error
            rc = exc.code
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_every_op_and_block_covered(self):
        names = {name for name, _, _ in gradcheck.cases(0)}
        expected = {
            "add", "mul", "matmul", "linear", "concat", "reshape", "sigmoid",
            "relu", "swish_beta", "layer_norm", "batch_norm(train)",
            "batch_norm(eval)", "conv1d", "avg_pool1d", "masked_mean",
            "gather_rows", "mse_loss", "cross_entropy_loss", "GatedLinear",
            "SwiGLU", "SBlock", "SGMLP", "ConvBlock", "MPEncoder",
            "segment_sum", "edge_linear", "MPEncoder batch", "gated_linear",
            "gated_linear(edge)", "swiglu",
        }
        assert names == expected


class TestPlot:
    def test_table_and_overlay(self, mixed_data, mnnd_run, tmp_path):
        out = tmp_path / "plots"
        rc = cli.main(["plot", str(mnnd_run / "metrics_mnnd_unified.json"),
                       str(mixed_data / "sample_000000_xanes.csv"),
                       str(mixed_data / "sample_000001_xanes.csv"),
                       "--out", str(out)])
        assert rc == 0
        table = (out / "metrics_table.csv").read_text().splitlines()
        assert table[0].startswith("task,scope,mae")
        assert len(table) == 2
        svg = (out / "overlay.svg").read_text()
        assert svg.count("<polyline") == 2
        assert "</svg>" in svg

    def test_no_inputs_is_usage_error(self, tmp_path):
        rc = cli.main(["plot", str(tmp_path / "x.txt"), "--out", str(tmp_path / "p")])
        assert rc == 2

    def test_malformed_metrics_json_exits_1_naming_it(self, tmp_path, capsys):
        truncated, listed = tmp_path / "truncated.json", tmp_path / "listed.json"
        truncated.write_text('{"task": "mnnd",\n "mae": ')
        listed.write_text("[1, 2]\n")
        for path, where in ((truncated, f"{truncated}:2: "), (listed, f"{listed}: ")):
            rc = cli.main(["plot", str(path), "--out", str(tmp_path / "p")])
            assert rc == 1
            assert where in capsys.readouterr().err


class TestConfig:
    def test_flags_beat_file(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 99\nn_samples = 4\n")
        out = tmp_path / "d"
        rc = cli.main(["synth", "--config", str(cfg), "--seed", "4",
                       "--out", str(out), "--set", "n_grid=40"])
        assert rc == 0
        with open(out / "run.json") as fh:
            manifest = json.load(fh)
        assert manifest["seed"] == 4
        samples = load_dataset(out / "manifest.jsonl")
        assert len(samples) == 4  # file value survives where no flag overrides

    def test_malformed_set_exits_2(self, tmp_path):
        rc = cli.main(["synth", "--out", str(tmp_path / "d"), "--set", "nonsense"])
        assert rc == 2

    def test_malformed_config_line_exits_2(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("this line has no equals sign\n")
        rc = cli.main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d")])
        assert rc == 2

    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_unknown_key_is_usage_error_naming_it_and_its_line(self, command, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# synth keys\nn_samples = 4\nbogus_key = 1\n")
        argv = [command, "--out", str(tmp_path / "out")]
        if command == "train":
            argv += ["--task", "cn", "--data", str(tmp_path / "no-data")]
        assert cli.main([*argv, "--set", "bogus_key=1"]) == 2
        assert capsys.readouterr().err == "usage error: unknown config key 'bogus_key'\n"
        assert cli.main([*argv, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"usage error: {cfg}:3: unknown config key 'bogus_key'\n"
        cfg.write_text("n_samples = 4\n")  # --set wins over the file
        assert cli.main([*argv, "--config", str(cfg), "--set", "n_samples=x"]) == 2
        assert capsys.readouterr().err == ("usage error: config key 'n_samples' must be an "
                                           "integer, got 'x'\n")
        assert not (tmp_path / "out").exists()

    def test_one_file_of_synth_and_training_keys_serves_both(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("n_samples = 12\nn_grid = 30\nelements = Ni,Cu\nseed = 5\n"
                       "n_trees = 3\nmax_depth = 3\nlr = 0.003\nepochs = 2\n")
        data = tmp_path / "data"
        assert cli.main(["synth", "--config", str(cfg), "--out", str(data)]) == 0
        assert cli.main(["train", "--task", "cn", "--data", str(data), "--config", str(cfg),
                         "--out", str(tmp_path / "run")]) == 0
        assert len(load_dataset(data / "manifest.jsonl")) == 12

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# comment\n\nn_samples = 3\n")
        assert cli.parse_config_file(cfg) == {"n_samples": "3"}

    @pytest.mark.parametrize("text,message", [
        ("seed = -1\n", "error: {cfg}: config key 'seed' must be at least 0, got -1"),
        ("lambda_a = -1\nlambda_b = 3.0\n",
         "error: {cfg}: config key 'lambda_a' must keep lambda(k) > 0 on (0, 16], got -1.0"),
        ("n_grid = x\n", "usage error: {cfg}: config key 'n_grid' must be an integer, got 'x'"),
    ])
    def test_bad_value_from_the_file_names_the_file(self, text, message, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        argv = ["synth", "--config", str(cfg), "--out", str(tmp_path / "d")]
        assert cli.main(argv) == (2 if message.startswith("usage") else 1)
        assert capsys.readouterr().err == message.format(cfg=cfg) + "\n"
        # a flag that overrides the bad value leaves no error; one of its own names no file
        key = text.split()[0]
        good = {"seed": "2", "lambda_a": "0.8", "n_grid": "20"}[key]
        assert cli.main([*argv, "--set", f"{key}={good}", "--set", "n_samples=-3"]) == 2
        assert capsys.readouterr().err == ("usage error: config key 'n_samples' must be at "
                                           "least 0, got -3\n")
        assert not (tmp_path / "d").exists()
