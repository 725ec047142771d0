import csv
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from xastruct import spectra
from xastruct.crystal import DescriptorLabels, Element
from xastruct.spectra import (
    EXAFS,
    XANES,
    EnergyGrid,
    InsufficientDataError,
    LabeledSample,
    Spectrum,
    load_dataset,
    load_spectrum,
    save_dataset,
    save_spectrum,
    split_dataset,
    split_indices,
)

CU = Element.from_symbol("Cu")


def make_spectrum(energies, mu, kind=XANES, sid="s0"):
    return Spectrum(EnergyGrid(np.asarray(energies)), np.asarray(mu), kind, "K", CU, sid)


def step_spectrum(lo=0.0, hi=2.0, n=100):
    e = np.linspace(8900.0, 9100.0, n)
    mu = np.where(e < 9000.0, lo, hi)
    return make_spectrum(e, mu)


class TestGridAndSpectrum:
    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            EnergyGrid(np.array([1.0, 1.0, 2.0]))
        with pytest.raises(ValueError):
            EnergyGrid(np.array([5.0]))

    def test_mu_length_checked(self):
        with pytest.raises(ValueError):
            make_spectrum([1.0, 2.0, 3.0], [0.0, 1.0])

    def test_mu_must_be_finite(self):
        with pytest.raises(ValueError):
            make_spectrum([1.0, 2.0], [0.0, np.nan])

    def test_kind_and_edge_vocabulary(self):
        with pytest.raises(ValueError):
            Spectrum(EnergyGrid(np.array([1.0, 2.0])), np.zeros(2), "NEXAFS", "K", CU)
        with pytest.raises(ValueError):
            Spectrum(EnergyGrid(np.array([1.0, 2.0])), np.zeros(2), XANES, "M", CU)

    def test_labeled_sample_consistency(self):
        labels = DescriptorLabels(1, 2.0, CU, (2.0,))
        x = step_spectrum()
        e = make_spectrum(x.grid.values, x.mu, kind=EXAFS)
        LabeledSample(x, e, labels)  # consistent pair is fine
        with pytest.raises(ValueError):
            LabeledSample(e, e, labels)
        with pytest.raises(ValueError):
            LabeledSample(x, make_spectrum(x.grid.values, x.mu, kind=EXAFS, sid="other"), labels)


class TestSplit:
    def _samples(self, n):
        labels = DescriptorLabels(1, 2.0, CU, (2.0,))
        out = []
        for i in range(n):
            x = make_spectrum([1.0, 2.0], [0.0, float(i)], sid=f"s{i}")
            e = make_spectrum([1.0, 2.0], [0.0, float(i)], kind=EXAFS, sid=f"s{i}")
            out.append(LabeledSample(x, e, labels))
        return out

    def test_ten_samples_split_eight_two(self):
        train, val = split_dataset(self._samples(10), seed=0)
        assert (len(train), len(val)) == (8, 2)

    def test_determinism(self):
        samples = self._samples(12)
        a = split_dataset(samples, seed=7)
        b = split_dataset(samples, seed=7)
        assert [s.xanes.structure_id for s in a[0]] == [s.xanes.structure_id for s in b[0]]

    def test_large_split_counts(self):
        train_idx, val_idx = split_indices(43_000, seed=1)
        assert (len(train_idx), len(val_idx)) == (34_400, 8_600)

    def test_partition(self):
        samples = self._samples(13)
        train, val = split_dataset(samples, seed=3)
        assert len(train) + len(val) == 13
        ids = sorted(s.xanes.structure_id for s in train + val)
        assert ids == sorted(s.xanes.structure_id for s in samples)
        assert not set(s.xanes.structure_id for s in train) & set(
            s.xanes.structure_id for s in val
        )

    def test_too_few_samples(self):
        with pytest.raises(InsufficientDataError):
            split_dataset(self._samples(4), seed=0)


class TestLabelsFromDict:
    GOOD = {"cn": 2, "mnnd": 2.0, "neighbor_type": "Cu", "shell_distances": [2.0, 2.0]}

    def test_numbers_load(self):
        labels = spectra.labels_from_dict({**self.GOOD, "mnnd": 2, "shell_distances": [2, 2.0]})
        assert labels == DescriptorLabels(2, 2.0, CU, (2.0, 2.0))

    @pytest.mark.parametrize("field,value", [
        ("mnnd", "2"),
        ("shell_distances", "22"),  # a string of cn characters once loaded as distances
        ("shell_distances", ["2.0", "2.0"]),
        ("shell_distances", [2.0, True]),
        ("mnnd", False),
    ])
    def test_strings_and_booleans_raise_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=rf"^field 'labels\.{field}(\[\d\])?': expected "):
            spectra.labels_from_dict({**self.GOOD, field: value})


class TestIo:
    def test_spectrum_round_trip(self, tmp_path):
        sp = step_spectrum()
        save_spectrum(sp, tmp_path / "cu.csv")
        loaded = load_spectrum(tmp_path / "cu.csv")
        assert np.allclose(loaded.grid.values, sp.grid.values)
        assert np.allclose(loaded.mu, sp.mu)
        assert loaded.kind == sp.kind
        assert loaded.absorber == sp.absorber
        assert loaded.structure_id == sp.structure_id

    @pytest.mark.parametrize("sidecar", ['["K"]', '"XANES"', "3", "null"])
    def test_sidecar_that_is_not_an_object_names_the_sidecar(self, tmp_path, sidecar):
        save_spectrum(step_spectrum(), tmp_path / "cu.csv")
        (tmp_path / "cu.json").write_text(sidecar)
        with pytest.raises(ValueError, match="expected a JSON object") as err:
            load_spectrum(tmp_path / "cu.csv")
        assert str(err.value).startswith(f"{tmp_path / 'cu.json'}: ")

    @pytest.mark.parametrize("field,value,expected", [
        ("kind", "FOO", "one of 'XANES', 'EXAFS', got 'FOO'"),
        ("kind", 1, "one of 'XANES', 'EXAFS', got 1"),
        ("kind", ..., "one of 'XANES', 'EXAFS', got None"),  # absent
        ("edge", "M", "one of 'K', 'L', got 'M'"),
        ("absorber", "Xx", "an element symbol, got 'Xx'"),
        ("absorber", 29, "an element symbol, got 29"),
        ("structure_id", 5, "a string, got 5"),
        ("structure_id", [1], "a string, got [1]"),
    ])
    def test_sidecar_field_of_the_wrong_type_names_the_sidecar(self, tmp_path, field, value,
                                                                expected):
        save_spectrum(step_spectrum(), tmp_path / "cu.csv")
        sidecar = tmp_path / "cu.json"
        meta = json.loads(sidecar.read_text())
        meta[field] = value
        sidecar.write_text(json.dumps({k: v for k, v in meta.items() if v is not ...}))
        with pytest.raises(ValueError) as err:
            load_spectrum(tmp_path / "cu.csv")
        assert str(err.value) == f"{sidecar}: field {field!r}: expected {expected}"

    @pytest.mark.parametrize("sidecar_id", [None, ...])
    def test_null_or_absent_structure_id_reads_as_empty(self, tmp_path, sidecar_id):
        save_spectrum(step_spectrum(), tmp_path / "cu.csv")
        sidecar = tmp_path / "cu.json"
        meta = {**json.loads(sidecar.read_text()), "structure_id": sidecar_id}
        sidecar.write_text(json.dumps({k: v for k, v in meta.items() if v is not ...}))
        assert load_spectrum(tmp_path / "cu.csv").structure_id == ""

    def test_csv_error_comes_before_a_sidecar_error(self, tmp_path):
        csv_path = tmp_path / "cu.csv"
        save_spectrum(step_spectrum(), csv_path)
        lines = csv_path.read_text().splitlines(keepends=True)
        lines[3] = lines[3].split(",")[0] + ",nan\r\n"
        csv_path.write_text("".join(lines), newline="")
        (tmp_path / "cu.json").write_text('{"kind": "FOO"}')
        with pytest.raises(ValueError) as err:
            load_spectrum(csv_path)
        assert str(err.value) == f"{csv_path}:4: non-finite value"

    def test_dataset_round_trip(self, tmp_path):
        labels = DescriptorLabels(2, 2.5, CU, (2.0, 3.0))
        samples = []
        for i in range(3):
            x = step_spectrum()
            e = make_spectrum(x.grid.values, np.sin(x.grid.values / 40.0), kind=EXAFS)
            samples.append(LabeledSample(x, e, labels))
        manifest = tmp_path / "data" / "manifest.jsonl"
        save_dataset(samples, manifest)
        loaded = load_dataset(manifest)
        assert len(loaded) == 3
        assert loaded[1].labels.cn == 2
        assert abs(loaded[1].labels.mnnd - 2.5) < 1e-12
        assert np.allclose(loaded[2].exafs.mu, samples[2].exafs.mu, atol=1e-9)

    @pytest.mark.parametrize("short", [0, 2])
    @pytest.mark.parametrize("kind", [XANES, EXAFS])
    def test_spectrum_of_another_grid_length_names_both_csvs(self, tmp_path, kind, short):
        """The first spectrum of a kind sets the grid length; a spectrum of another
        length is refused, naming its manifest line, its CSV and the first's."""
        labels = DescriptorLabels(2, 2.5, CU, (2.0, 3.0))
        lengths = [31, 31, 31]
        lengths[short] = 30
        samples = []
        for n in lengths:
            n_xanes, n_exafs = (n, 31) if kind == XANES else (31, n)
            e = np.linspace(8900.0, 9100.0, n_exafs)
            samples.append(LabeledSample(step_spectrum(n=n_xanes),
                                         make_spectrum(e, np.sin(e / 40.0), kind=EXAFS), labels))
        manifest = tmp_path / "manifest.jsonl"
        save_dataset(samples, manifest)
        bad = 1 if short == 0 else short
        csv = [tmp_path / f"sample_{k:06d}_{kind.lower()}.csv" for k in (0, bad)]
        with pytest.raises(ValueError) as err:
            load_dataset(manifest)
        assert str(err.value) == (f"{manifest}:{bad + 1}: {csv[1]}: {lengths[bad]} grid points, "
                                  f"but {csv[0]} has {lengths[0]}")


def _ten_digits(values) -> np.ndarray:
    """`values` rounded as a spectrum CSV stores them, to ten significant digits."""
    return np.array([float(f"{x:.10g}") for x in values])


@st.composite
def ten_digit_datasets(draw):
    """Samples on up to three energy axes, drawn with repeats, each spectrum with a grid
    object of its own; every value has at most the ten digits that the CSV keeps. All
    spectra of a kind have one grid length, as a dataset must."""
    axes = []
    for _ in range(draw(st.integers(1, 3))):
        steps = draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=7))
        energies = _ten_digits(draw(st.floats(-1e4, 1e4)) + np.cumsum([0.0, *steps]))
        assume(np.all(np.diff(energies) > 0))
        axes.append(energies)
    labels = DescriptorLabels(2, 2.5, CU, (2.0, 3.0))
    kind_axes = {}
    for kind in (XANES, EXAFS):
        n = draw(st.sampled_from(axes)).size
        kind_axes[kind] = [a for a in axes if a.size == n]
    samples = []
    for i in range(draw(st.integers(1, 5))):
        pair = []
        for kind in (XANES, EXAFS):
            energies = draw(st.sampled_from(kind_axes[kind]))
            mu = draw(st.lists(st.floats(-1e300, 1e300), min_size=energies.size,
                               max_size=energies.size))
            pair.append(make_spectrum(energies.copy(), _ten_digits(mu), kind=kind, sid=f"s{i}"))
        samples.append(LabeledSample(*pair, labels))
    return samples


class TestDatasetRoundTrip:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(samples=ten_digit_datasets())
    def test_save_load_save_keeps_bytes_and_bits(self, tmp_path, samples):
        with tempfile.TemporaryDirectory(dir=tmp_path) as tmp:
            first, second = Path(tmp) / "first", Path(tmp) / "second"
            save_dataset(samples, first / "manifest.jsonl")
            loaded = load_dataset(first / "manifest.jsonl")
            save_dataset(loaded, second / "manifest.jsonl")
            names = sorted(p.name for p in first.iterdir())
            assert names == sorted(p.name for p in second.iterdir())
            for name in names:
                assert (first / name).read_bytes() == (second / name).read_bytes(), name
        for sample, got in zip(samples, loaded, strict=True):
            assert got.labels == sample.labels
            for sp, back in ((sample.xanes, got.xanes), (sample.exafs, got.exafs)):
                assert back.grid.values.tobytes() == sp.grid.values.tobytes()
                assert back.mu.tobytes() == sp.mu.tobytes()
                assert (back.kind, back.edge, back.absorber, back.structure_id) == (
                    sp.kind, sp.edge, sp.absorber, sp.structure_id)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(samples=ten_digit_datasets())
    def test_spectra_on_equal_grids_share_one_grid(self, tmp_path, samples):
        with tempfile.TemporaryDirectory(dir=tmp_path) as tmp:
            save_dataset(samples, Path(tmp) / "manifest.jsonl")
            loaded = load_dataset(Path(tmp) / "manifest.jsonl")
        grids = {}  # grid bytes -> the ids of the grid objects on that axis
        for sp in (sp for sample in loaded for sp in (sample.xanes, sample.exafs)):
            grids.setdefault(sp.grid.values.tobytes(), set()).add(id(sp.grid))
        assert all(len(ids) == 1 for ids in grids.values())
        assert len(set().union(*grids.values())) == len(grids)


def reference_load_spectrum(csv_path) -> Spectrum:
    """load_spectrum by the CSV contract, line by line: UTF-8 text, the header
    `energy_ev,mu`, then rows of exactly two fields that float() parses, each line
    ended by LF or CRLF and the last one maybe by neither. The first line whose
    field count or number is at fault is named; then the first non-finite value."""
    csv_path = Path(csv_path)
    lines = csv_path.read_bytes().decode().split("\n")
    if len(lines) > 1 and lines[-1] == "":
        lines.pop()  # the text after the last line's newline
    lines = [line.removesuffix("\r") for line in lines]
    if lines[0] != "energy_ev,mu":  # its first 80 characters, and a note of bare CRs in it
        head = lines[0]
        shown = str(head[:80].split(",")) + ("..." if len(head) > 80 else "")
        note = " (the line holds bare CRs; a line ends with LF or CRLF)" if "\r" in head else ""
        raise ValueError(f"{csv_path}:1: unexpected spectrum CSV header {shown}{note}")
    values = []
    for lineno, line in enumerate(lines[1:], 2):
        fields = line.split(",") if line.strip() else []  # a blank line has no fields
        if len(fields) != 2:
            raise ValueError(f"{csv_path}:{lineno}: expected 2 fields, got {len(fields)}")
        try:
            values.append((float(fields[0]), float(fields[1])))
        except ValueError as exc:
            raise ValueError(f"{csv_path}:{lineno}: malformed row: {exc}") from None
    for lineno, pair in enumerate(values, 2):
        if not np.isfinite(pair).all():
            raise ValueError(f"{csv_path}:{lineno}: non-finite value")
    energies = np.array([e for e, _ in values], dtype=float)
    mu = np.array([m for _, m in values], dtype=float)
    sidecar = csv_path.with_suffix(".json")
    with open(sidecar) as fh:
        try:
            meta = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{sidecar}:{exc.lineno}: {exc.msg}") from None
    try:
        return Spectrum(
            grid=EnergyGrid(energies),
            mu=mu,
            kind=meta["kind"],
            edge=meta["edge"],
            absorber=Element.from_symbol(meta["absorber"]),
            structure_id=meta.get("structure_id", ""),
        )
    except KeyError as exc:
        raise ValueError(f"{sidecar}: missing field {exc.args[0]!r}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"{csv_path}: {exc}") from None


def reference_save_spectrum_csv(sp: Spectrum, csv_path) -> None:
    """save_spectrum's CSV as it was written row by row through csv.writer."""
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["energy_ev", "mu"])
        for e, m in zip(sp.grid.values, sp.mu):
            writer.writerow([f"{e:.10g}", f"{m:.10g}"])


def _outcome(load, path):
    """("ok", grid bytes, mu bytes) of a load, or ("error", its ValueError text)."""
    try:
        sp = load(path)
    except ValueError as exc:
        return "error", str(exc)
    return "ok", sp.grid.values.tobytes(), sp.mu.tobytes(), sp.grid.values.dtype, sp.mu.dtype


BAD_FIELDS = ["nan", "inf", "-Infinity", "", " ", "1.2.3", "0x10", "1_0", "1,5", "abc", "\t",
              "+.5e+3", '"1.5"', '"1,5"', '"1\n5"', "1\x00", "\u0661\u0662", "1.5\u00a0"]
FAULTS = ["short row", "long row", "blank line", "bad field", "header", "no final newline",
          "blank last line", "bare CR", "mixed endings"]


def _number_text(draw, x):
    """One way a CSV may spell x: repr, %.10g, %e or %.3f, maybe with spaces around it."""
    text = draw(st.sampled_from([repr(x), f"{x:.10g}", f"{x:e}", f"{x:.3f}"]))
    return draw(st.sampled_from(["", "", " ", "\t"])) + text + draw(st.sampled_from(["", " "]))


@st.composite
def spectrum_csv_text(draw):
    """Spectrum CSV text with increasing energies, clean or with one or more faults."""
    n = draw(st.integers(0, 10))
    steps = draw(st.lists(st.floats(0.001, 50.0), min_size=n, max_size=n))
    mu = draw(st.lists(st.floats(-1e6, 1e6) | st.floats(allow_nan=True, allow_infinity=True),
                       min_size=n, max_size=n))
    rows = [[_number_text(draw, float(e)), _number_text(draw, m)]
            for e, m in zip(8000.0 + np.cumsum(steps), mu)]
    header = "energy_ev,mu"
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    ends = [newline] * (n + 1)  # the header's and each row's line ending
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=4)):
        i = draw(st.integers(0, n))  # a line; 0 is the header
        if fault == "short row" and i:
            rows[i - 1] = rows[i - 1][:1]
        elif fault == "long row" and i:
            rows[i - 1].append(_number_text(draw, 1.0))
        elif fault == "blank line" and i:
            rows[i - 1] = []
        elif fault == "bad field" and i and rows[i - 1]:
            rows[i - 1][draw(st.integers(0, len(rows[i - 1]) - 1))] = draw(st.sampled_from(BAD_FIELDS))
        elif fault == "header":
            header = draw(st.sampled_from(
                ["E,mu", "energy_ev, mu", '"energy_ev","mu"', "energy_ev,mu,", "", "energy_ev"]))
        elif fault == "no final newline":
            ends[-1] = ""
        elif fault == "blank last line":
            ends[-1] += newline
        elif fault == "bare CR":
            ends[i] = "\r"
        elif fault == "mixed endings":
            ends[i] = "\r\n" if ends[i] == "\n" else "\n"
    lines = [header, *(",".join(row) for row in rows)]
    return "".join(line + end for line, end in zip(lines, ends))


class TestReaderMatchesCsvReference:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=spectrum_csv_text())
    @example(text="energy_ev,mu\n1,2\n3,4\n5")  # short last row, no final newline
    @example(text="energy_ev,mu\r\n1,2\r\n3,4")
    @example(text="energy_ev,mu\n1,2\n\n")
    @example(text="energy_ev,mu\n1,2\r3,4\n")
    @example(text="energy_ev,mu")
    @example(text="energy_ev,mu\n\u0661,2\n3,4\u00a0\n")  # float() takes both
    @example(text="energy_ev,mu\n1,2,3\n4\n")  # four fields, but not two a row
    @example(text="energy_ev,mu\r" + "8000.25,0.125\r" * 12)  # bare CRs: one long header line
    @example(text="energy_ev," + "mu" * 60 + "\n1,2\n")  # a long header, quoted in part
    def test_same_bits_or_same_error(self, tmp_path, text):
        path = tmp_path / "sp.csv"
        path.write_bytes(text.encode())
        path.with_suffix(".json").write_text(
            json.dumps({"kind": XANES, "edge": "K", "absorber": "Cu", "structure_id": "s"}))
        assert _outcome(load_spectrum, path) == _outcome(reference_load_spectrum, path)

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        steps=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=40),
        start=st.floats(-1e5, 1e5),
        data=st.data(),
    )
    def test_save_then_load_rounds_to_ten_digits(self, tmp_path, steps, start, data):
        energies = np.array([float(f"{x:.10g}") for x in start + np.cumsum([0.0, *steps])])
        mu = np.array(data.draw(st.lists(st.floats(-1e300, 1e300), min_size=energies.size,
                                         max_size=energies.size)))
        path = tmp_path / "rt.csv"
        save_spectrum(make_spectrum(energies, mu), path)
        loaded = load_spectrum(path)
        expect = np.array([float(f"{x:.10g}") for x in mu])
        assert loaded.grid.values.tobytes() == energies.tobytes()
        assert loaded.mu.tobytes() == expect.tobytes()

    def test_saved_bytes_match_the_csv_writer_reference(self, tmp_path):
        # -0.0, a subnormal-adjacent tiny value, a huge one, and values that
        # round at the tenth significant digit (half-way cases included)
        energies = [-0.0, 1e-300, 0.99999999995, 1.00000000005, 1.2345678905, 123456789.05,
                    9999999999.5, 1e+22]
        mu = [-0.0, 1e-300, -1e+22, 1e+22, 2.5e-5, -0.12345678905, 99999999995.0, 7.0]
        sp = make_spectrum(energies, mu)
        save_spectrum(sp, tmp_path / "a.csv")
        reference_save_spectrum_csv(sp, tmp_path / "b.csv")
        text = (tmp_path / "a.csv").read_bytes()
        assert text == (tmp_path / "b.csv").read_bytes()
        assert b"-0,-0\r\n" in text and b"1e+22,7\r\n" in text

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2,
                           max_size=30, unique=True))
    def test_saved_bytes_match_the_csv_writer_reference_on_any_floats(self, tmp_path, values):
        energies = np.sort(np.array(values))
        sp = make_spectrum(energies, energies[::-1])
        save_spectrum(sp, tmp_path / "a.csv")
        reference_save_spectrum_csv(sp, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
