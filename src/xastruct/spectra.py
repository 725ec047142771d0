"""Sampled absorption spectra: containers, train/validation splits, dataset I/O.

A spectrum is a plain pair (energy grid, mu values) tagged with enough
metadata to route it through the models: XANES or EXAFS, absorption edge,
absorber element, and the id of the structure it came from. Datasets are
kept on disk as one CSV per spectrum plus a JSON-lines manifest.

A spectrum CSV is UTF-8 text (jsonio.read_text): the header `energy_ev,mu`,
then rows of exactly two unquoted fields that float() parses, spaces around
them allowed, each line ended by LF or CRLF and the last maybe by neither.
Anything else (a quoted field, a bare CR line end, a third field, a trailing
comma) or a non-finite value raises a ValueError naming the file and line.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .crystal import DescriptorLabels, Element
from .jsonio import (ELEMENT, choice, integer, list_of, optional, read_json, read_jsonl, read_text,
                     real, record, string, write_json, write_jsonl)

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
class SpectrumPair:
    """The XANES and EXAFS spectra of one absorbing site, checked to belong together."""

    xanes: Spectrum
    exafs: Spectrum

    def __post_init__(self):
        if self.xanes.kind != XANES or self.exafs.kind != EXAFS:
            raise ValueError("sample spectra must be (XANES, EXAFS) in that order")
        if self.xanes.absorber != self.exafs.absorber:
            raise ValueError("XANES and EXAFS absorbers differ")
        if self.xanes.structure_id != self.exafs.structure_id:
            raise ValueError("XANES and EXAFS structure ids differ")


@dataclass(frozen=True)
class LabeledSample(SpectrumPair):
    """One absorbing site: its spectrum pair, and labels."""

    labels: DescriptorLabels


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


# every byte but the comma and LF: deleting them leaves ",\n" once per row of two fields
_NOT_COMMA_OR_LF = bytes(sorted(set(range(256)) - set(b",\n")))


def _read_columns(csv_path: Path) -> tuple:
    """(energies, mu) of a spectrum CSV, all finite. One check of the separators and one
    np.array(fields, dtype=float), which parses as float() does and so strips the CR of a
    CRLF, take every row; a loop that names the line at fault runs only if either fails."""
    header, _, body = read_text(csv_path).partition("\n")
    header = header.removesuffix("\r")
    if header != "energy_ev,mu":  # quoted up to 80 characters: a bare-CR file is one line
        shown = f"{header[:80].split(',')}{'...' if len(header) > 80 else ''}"
        bare_cr = " (the line holds bare CRs; a line ends with LF or CRLF)" if "\r" in header else ""
        raise ValueError(f"{csv_path}:1: unexpected spectrum CSV header {shown}{bare_cr}")
    if body and not body.endswith("\n"):
        body += "\n"  # the last line may have no newline
    separators = body.encode().translate(None, _NOT_COMMA_OR_LF)
    try:
        if separators != b",\n" * (len(separators) // 2):
            raise ValueError("a row without two fields")
        values = np.array(body.replace("\n", ",").split(",")[:-1], dtype=float)
    except ValueError:
        for lineno, line in enumerate(body.replace("\r\n", "\n").split("\n")[:-1], 2):
            fields = line.split(",") if line.strip() else []  # a blank line has no fields
            if len(fields) != 2:
                raise ValueError(f"{csv_path}:{lineno}: expected 2 fields, got {len(fields)}") from None
            try:
                float(fields[0]), float(fields[1])
            except ValueError as exc:
                raise ValueError(f"{csv_path}:{lineno}: malformed row: {exc}") from None
        raise
    if not np.isfinite(values).all():
        raise ValueError(f"{csv_path}:{np.argmin(np.isfinite(values)) // 2 + 2}: non-finite value")
    return np.ascontiguousarray(values[0::2]), np.ascontiguousarray(values[1::2])


# the checks of a spectrum sidecar's fields; a null or absent structure_id reads as ""
SIDECAR = record({"kind": choice(KINDS), "edge": choice(EDGES), "absorber": ELEMENT,
                  "structure_id": optional(string())})


def load_spectrum(csv_path, grids: dict = None) -> Spectrum:
    """A spectrum from its CSV and JSON sidecar.

    `grids` maps the bytes of an energy axis to its EnergyGrid; a spectrum
    whose axis is in it shares that grid, and a new axis is added. Malformed
    content raises a ValueError that names the file, and the line where one
    line is at fault; an error of the CSV comes before one of the sidecar.
    """
    csv_path = Path(csv_path)
    energies, mu = _read_columns(csv_path)
    grids = {} if grids is None else grids
    key = energies.tobytes()
    grid = grids.get(key)
    if grid is None:
        try:
            grid = grids[key] = EnergyGrid(energies)
        except ValueError as exc:
            raise ValueError(f"{csv_path}: {exc}") from None
    sidecar = csv_path.with_suffix(".json")
    meta = read_json(sidecar)
    try:
        meta = SIDECAR(meta, ())
    except ValueError as exc:
        raise ValueError(f"{sidecar}: {exc}") from None
    return Spectrum(grid, mu, meta["kind"], meta["edge"], Element.from_symbol(meta["absorber"]),
                    meta["structure_id"] or "")


def load_spectrum_pair(path, points: tuple) -> SpectrumPair:
    """The spectra of a pair file {"xanes": csv, "exafs": csv}, paths relative to it, on
    grids of `points` = (XANES, EXAFS) points, the lengths a model reads.

    A parse error names the file and line, a key that is not a path string
    names the file and the key, a grid of another length names its CSV, and
    spectra that fail SpectrumPair's checks name the file and both sidecars.
    """
    path = Path(path)
    doc = read_json(path)
    if not isinstance(doc, dict) or "xanes" not in doc or "exafs" not in doc:
        raise ValueError(f"{path} is not a spectrum-pair input; expected JSON with xanes/exafs keys")
    pair = []
    for key, n in zip(("xanes", "exafs"), points):
        if not isinstance(doc[key], str):
            raise ValueError(f"{path}: {key!r} must be a CSV path, got {doc[key]!r}")
        pair.append(load_spectrum(path.parent / doc[key]))
        if pair[-1].grid.n != n:
            raise ValueError(f"{path.parent / doc[key]}: {pair[-1].grid.n} grid points, model reads {n}")
    try:
        return SpectrumPair(*pair)
    except ValueError as exc:
        sidecars = [(path.parent / doc[key]).with_suffix(".json") for key in ("xanes", "exafs")]
        raise ValueError(f"{path}: {exc} (sidecars {sidecars[0]} and {sidecars[1]})") from None


def labels_to_dict(labels: DescriptorLabels) -> dict:
    return {
        "cn": labels.cn,
        "mnnd": labels.mnnd,
        "neighbor_type": labels.neighbor_type.symbol,
        "shell_distances": list(labels.shell_distances),
    }


# the checks of a manifest record's labels
LABELS = record({"cn": integer(1), "mnnd": real(), "neighbor_type": ELEMENT,
                 "shell_distances": list_of(real())})


def labels_from_dict(d: dict) -> DescriptorLabels:
    """The labels of a manifest record, `labels` in it; a value of the wrong type raises
    naming its field. No label may be a boolean or a quoted number."""
    values = LABELS(d, ("labels",))
    values["neighbor_type"] = Element.from_symbol(values["neighbor_type"])
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
    """The samples of a manifest; a bad line raises a ValueError naming the file and line.

    Spectra on equal energy axes share one EnergyGrid, checked once. Every
    spectrum must have as many grid points as the manifest's first spectrum
    of its kind; one that does not is refused, naming both CSVs.
    """
    root = Path(manifest_path).parent
    grids, first = {}, {}

    def spectrum(csv_path) -> Spectrum:
        s = load_spectrum(csv_path, grids)
        first_path, n = first.setdefault(s.kind, (csv_path, s.grid.n))
        if s.grid.n != n:
            raise ValueError(f"{csv_path}: {s.grid.n} grid points, but {first_path} has {n}")
        return s

    def sample(record) -> LabeledSample:
        return LabeledSample(
            xanes=spectrum(root / record["xanes"]),
            exafs=spectrum(root / record["exafs"]),
            labels=labels_from_dict(record["labels"]),
        )

    return read_jsonl(manifest_path, sample)
