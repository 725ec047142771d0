"""Sampled absorption spectra: containers, train/validation splits, dataset I/O.

A spectrum is a plain pair (energy grid, mu values) tagged with enough
metadata to route it through the models: XANES or EXAFS, absorption edge,
absorber element, and the id of the structure it came from. Datasets are
kept on disk as one CSV per spectrum plus a JSON-lines manifest.
"""

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .crystal import DescriptorLabels, Element
from .jsonio import read_json, read_jsonl, write_json, write_jsonl

XANES = "XANES"
EXAFS = "EXAFS"
KINDS = (XANES, EXAFS)
EDGES = ("K", "L")

DEFAULT_GRID_N = 100


class InsufficientDataError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class EnergyGrid:
    """Strictly increasing energy axis, in eV."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("energy grid needs at least two points")
        if not np.all(np.diff(v) > 0):
            raise ValueError("energy grid must be strictly increasing")

    @property
    def n(self) -> int:
        return int(self.values.size)

    @classmethod
    def linspace(cls, e_min: float, e_max: float, n: int = DEFAULT_GRID_N) -> "EnergyGrid":
        return cls(np.linspace(e_min, e_max, n))


@dataclass(frozen=True, eq=False)
class Spectrum:
    grid: EnergyGrid
    mu: np.ndarray
    kind: str
    edge: str
    absorber: Element
    structure_id: str = ""

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        object.__setattr__(self, "mu", mu)
        if mu.shape != (self.grid.n,):
            raise ValueError(f"mu length {mu.shape} does not match grid length {self.grid.n}")
        if not np.all(np.isfinite(mu)):
            raise ValueError("mu contains non-finite values")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.edge not in EDGES:
            raise ValueError(f"edge must be one of {EDGES}, got {self.edge!r}")


@dataclass(frozen=True)
class LabeledSample:
    """One absorbing site: its XANES spectrum, its EXAFS spectrum, and labels."""

    xanes: Spectrum
    exafs: Spectrum
    labels: DescriptorLabels

    def __post_init__(self):
        if self.xanes.kind != XANES or self.exafs.kind != EXAFS:
            raise ValueError("sample spectra must be (XANES, EXAFS) in that order")
        if self.xanes.absorber != self.exafs.absorber:
            raise ValueError("XANES and EXAFS absorbers differ")
        if self.xanes.structure_id != self.exafs.structure_id:
            raise ValueError("XANES and EXAFS structure ids differ")


def split_indices(n: int, seed: int) -> tuple:
    """Deterministic 80/20 shuffle-split of range(n). Train gets floor(0.8 n)."""
    if n < 5:
        raise InsufficientDataError(f"need at least 5 samples to split, got {n}")
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(0.8 * n)
    return tuple(int(i) for i in order[:n_train]), tuple(int(i) for i in order[n_train:])


def split_dataset(samples, seed: int) -> tuple:
    train_idx, val_idx = split_indices(len(samples), seed)
    return [samples[i] for i in train_idx], [samples[i] for i in val_idx]


# --- on-disk format -------------------------------------------------------
#
# One spectrum = <name>.csv with header "energy_ev,mu" plus <name>.json
# sidecar holding the metadata. A dataset = JSON-lines manifest, one
# LabeledSample per line with paths relative to the manifest's directory.
# A spectrum pair = JSON {"xanes": csv, "exafs": csv}, paths relative to it.


def save_spectrum(sp: Spectrum, csv_path) -> None:
    """The CSV, in one write, and its JSON sidecar.

    The rows are the bytes csv.writer writes: fields formatted "%.10g" (never
    quoted) and CRLF line ends.
    """
    csv_path = Path(csv_path)
    values = np.column_stack((sp.grid.values, sp.mu)).ravel().tolist()
    with open(csv_path, "w", newline="") as fh:
        fh.write("energy_ev,mu\r\n" + "%.10g,%.10g\r\n" * sp.grid.n % tuple(values))
    sidecar = {
        "kind": sp.kind,
        "edge": sp.edge,
        "absorber": sp.absorber.symbol,
        "structure_id": sp.structure_id,
    }
    write_json(csv_path.with_suffix(".json"), sidecar)


# Every byte but the four that delimit or quote CSV fields; deleting them
# leaves a file's field separators.
_NOT_SEPARATORS = bytes(sorted(set(range(256)) - set(b',\r\n"')))


def _read_columns_csv(csv_path: Path) -> tuple:
    """(energies, mu) of a spectrum CSV, row by row through csv.reader.

    It defines the accepted format and the errors: a file that the single
    pass of _read_columns does not take is read here instead.
    """
    energies, mu = [], []
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["energy_ev", "mu"]:
            raise ValueError(f"{csv_path}:1: unexpected spectrum CSV header {header}")
        try:
            for row in reader:
                energies.append(float(row[0]))
                mu.append(float(row[1]))
        except IndexError:
            where = f"{csv_path}:{reader.line_num}"
            raise ValueError(f"{where}: expected 2 fields, got {len(row)}") from None
        except (csv.Error, ValueError) as exc:
            raise ValueError(f"{csv_path}:{reader.line_num}: malformed row: {exc}") from None
    return np.array(energies), np.array(mu)


def _read_columns(csv_path: Path) -> tuple:
    """(energies, mu) of a spectrum CSV, read in one pass over its bytes.

    A regular file goes through one np.array(fields, dtype=float), which
    parses each field as float() does: ASCII, the header, then rows of two
    unquoted fields, each line ended by LF or each by CRLF (float() strips
    the CR). Anything else, and any field that does not parse, goes to
    _read_columns_csv, which gives the same values or the error that names
    the line.
    """
    with open(csv_path, "rb") as fh:
        raw = fh.read()
    header, _, body = raw.partition(b"\n")
    rows = body.count(b"\n")
    if (
        raw.endswith(b"\n")
        and header in (b"energy_ev,mu", b"energy_ev,mu\r")
        and body.translate(None, _NOT_SEPARATORS) in (b",\n" * rows, b",\r\n" * rows)
        and raw.isascii()
    ):
        fields = body.decode("ascii").replace("\n", ",").split(",")[:-1]
        try:
            values = np.array(fields, dtype=float)
        except ValueError:
            pass
        else:
            return np.ascontiguousarray(values[0::2]), np.ascontiguousarray(values[1::2])
    return _read_columns_csv(csv_path)


def load_spectrum(csv_path) -> Spectrum:
    """A spectrum from its CSV and JSON sidecar.

    Malformed content raises a ValueError that names the file, and the line
    where one line is at fault.
    """
    csv_path = Path(csv_path)
    energies, mu = _read_columns(csv_path)
    sidecar = csv_path.with_suffix(".json")
    meta = read_json(sidecar)
    if not isinstance(meta, dict):
        raise ValueError(f"{sidecar}: expected a JSON object, got {type(meta).__name__}")
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
        # a NaN energy fails as a non-increasing grid: name the first non-finite
        # line (line 1 is the header)
        bad = np.flatnonzero(~(np.isfinite(energies) & np.isfinite(mu)))
        if bad.size:
            raise ValueError(f"{csv_path}:{bad[0] + 2}: non-finite value") from None
        raise ValueError(f"{csv_path}: {exc}") from None


class SpectrumPair(NamedTuple):
    """The XANES and EXAFS spectra of one absorbing site, without labels."""

    xanes: Spectrum
    exafs: Spectrum


def load_spectrum_pair(path) -> SpectrumPair:
    """The spectra of a pair file {"xanes": csv, "exafs": csv}, paths relative to it.

    A parse error names the file and line, a key that is not a path string
    names the file and the key.
    """
    path = Path(path)
    doc = read_json(path)
    if not isinstance(doc, dict) or "xanes" not in doc or "exafs" not in doc:
        raise ValueError(f"{path} is not a spectrum-pair input; expected JSON with xanes/exafs keys")
    for key in ("xanes", "exafs"):
        if not isinstance(doc[key], str):
            raise ValueError(f"{path}: {key!r} must be a CSV path, got {doc[key]!r}")
    return SpectrumPair(load_spectrum(path.parent / doc["xanes"]),
                        load_spectrum(path.parent / doc["exafs"]))


def labels_to_dict(labels: DescriptorLabels) -> dict:
    return {
        "cn": labels.cn,
        "mnnd": labels.mnnd,
        "neighbor_type": labels.neighbor_type.symbol,
        "shell_distances": list(labels.shell_distances),
    }


def _wrong_type(value) -> TypeError:
    return TypeError(f"wrong type {type(value).__name__} ({value!r})")


def _count(value) -> int:
    if type(value) is not int:  # a bool is an int, but not of this type
        raise _wrong_type(value)
    return value


def _real(value) -> float:
    """A JSON number as a float; a boolean or a string, such as "2", is not one."""
    if type(value) not in (int, float):
        raise _wrong_type(value)
    return float(value)


def _reals(value) -> tuple:
    if type(value) is not list:
        raise _wrong_type(value)
    return tuple(map(_real, value))


def labels_from_dict(d: dict) -> DescriptorLabels:
    """The labels of a manifest record; a value of the wrong type raises naming its field.

    No label may be a boolean or a quoted number: `cn` must be an integer,
    `mnnd` a number and `shell_distances` a list of numbers.
    """
    fields = {"cn": _count, "mnnd": _real, "neighbor_type": Element.from_symbol,
              "shell_distances": _reals}
    values = {}
    for key, cast in fields.items():
        value = d[key]
        try:
            values[key] = cast(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"label {key!r}: {exc}") from None
    return DescriptorLabels(**values)


def save_dataset(samples, manifest_path) -> None:
    """Write each sample's spectra as CSV pairs next to a JSON-lines manifest.

    The manifest is written in one write, after the spectra it names.
    """
    manifest_path = Path(manifest_path)
    root = manifest_path.parent
    root.mkdir(parents=True, exist_ok=True)
    records = []
    for i, sample in enumerate(samples):
        xanes_rel = f"sample_{i:06d}_xanes.csv"
        exafs_rel = f"sample_{i:06d}_exafs.csv"
        save_spectrum(sample.xanes, root / xanes_rel)
        save_spectrum(sample.exafs, root / exafs_rel)
        records.append({"xanes": xanes_rel, "exafs": exafs_rel, "labels": labels_to_dict(sample.labels)})
    write_jsonl(manifest_path, records)


def load_dataset(manifest_path) -> list:
    """The samples of a manifest; a bad line raises a ValueError naming the file and line."""
    root = Path(manifest_path).parent

    def sample(record) -> LabeledSample:
        return LabeledSample(
            xanes=load_spectrum(root / record["xanes"]),
            exafs=load_spectrum(root / record["exafs"]),
            labels=labels_from_dict(record["labels"]),
        )

    return read_jsonl(manifest_path, sample)
