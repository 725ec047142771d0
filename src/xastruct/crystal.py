"""Periodic crystal structures, cutoff neighbor lists, and structural descriptors.

Conventions: lattice rows are lattice vectors in angstroms, fractional
coordinates live in [0, 1), and cartesian positions are ``frac @ basis``.
Neighbor searches enumerate periodic images exhaustively inside a bound
derived from the perpendicular cell heights; correctness over cleverness.
`neighbor_search` returns one center's neighbors as sorted arrays (image
offsets, site indices, distances), and the descriptors and the EXAFS shells
read those arrays as they are; `neighbor_list` turns them into `Neighbor`
tuples. What does not depend on the structure is built once per process:
the image-offset grid of each search bound (read-only), the 27 shifts of the
minimum-image check and one `Element` per symbol. A structure graph holds
one edge row per distinct (receiver, sender, distance) with its count of
periodic images, the form the encoder reads, so a batch of graphs joins
into one graph by offsetting node indices.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .jsonio import read_json, read_jsonl, write_jsonl

MIN_SITE_SEPARATION = 0.5  # angstrom; guards the 1/R^2 terms downstream
DESCRIPTOR_CUTOFF = 6.0  # angstrom; neighbor search radius of extract_descriptors

_SYMBOLS = (
    "H", "He", "Li", "Be", "B", "C", "N", "O", "F", "Ne",
    "Na", "Mg", "Al", "Si", "P", "S", "Cl", "Ar", "K", "Ca",
    "Sc", "Ti", "V", "Cr", "Mn", "Fe", "Co", "Ni", "Cu", "Zn",
    "Ga", "Ge", "As", "Se", "Br", "Kr", "Rb", "Sr", "Y", "Zr",
    "Nb", "Mo", "Tc", "Ru", "Rh", "Pd", "Ag", "Cd", "In", "Sn",
    "Sb", "Te", "I", "Xe", "Cs", "Ba", "La", "Ce", "Pr", "Nd",
    "Pm", "Sm", "Eu", "Gd", "Tb", "Dy", "Ho", "Er", "Tm", "Yb",
    "Lu", "Hf", "Ta", "W", "Re", "Os", "Ir", "Pt", "Au", "Hg",
    "Tl", "Pb", "Bi", "Po", "At", "Rn", "Fr", "Ra", "Ac", "Th",
    "Pa", "U", "Np", "Pu", "Am", "Cm", "Bk", "Cf", "Es", "Fm",
    "Md", "No", "Lr", "Rf", "Db", "Sg", "Bh", "Hs", "Mt", "Ds",
    "Rg", "Cn", "Nh", "Fl", "Mc", "Lv", "Ts", "Og",
)


class InvalidStructureError(ValueError):
    """Raised for degenerate lattices, overlapping sites, or malformed input."""


class NoNeighborsError(ValueError):
    """Raised when a neighbor shell is requested but no neighbors exist."""


@dataclass(frozen=True, order=True)
class Element:
    """A chemical element identified by atomic number."""

    atomic_number: int
    symbol: str = field(compare=False, default="")

    def __post_init__(self):
        if not 1 <= self.atomic_number <= 118:
            raise InvalidStructureError(f"atomic number out of range: {self.atomic_number}")
        expected = _SYMBOLS[self.atomic_number - 1]
        if self.symbol == "":
            object.__setattr__(self, "symbol", expected)
        elif self.symbol != expected:
            raise InvalidStructureError(
                f"symbol {self.symbol!r} does not match Z={self.atomic_number}"
            )

    @classmethod
    def from_symbol(cls, symbol: str) -> "Element":
        """The one Element of `symbol`; elements are immutable, so every caller shares it."""
        try:
            return _ELEMENT_BY_SYMBOL[symbol]
        except KeyError:
            raise InvalidStructureError(f"unknown element symbol: {symbol!r}") from None


_ELEMENT_BY_SYMBOL = {s: Element(z + 1) for z, s in enumerate(_SYMBOLS)}


@dataclass(frozen=True, eq=False)
class Lattice:
    """Periodic cell: rows of ``basis`` are lattice vectors in angstroms."""

    basis: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float)
        if basis.shape != (3, 3):
            raise InvalidStructureError(f"lattice basis must be 3x3, got {basis.shape}")
        if not np.isfinite(basis).all():
            raise InvalidStructureError("lattice basis contains non-finite entries")
        if np.linalg.det(basis) <= 0:
            raise InvalidStructureError("lattice determinant must be strictly positive")
        object.__setattr__(self, "basis", basis)

    @property
    def volume(self) -> float:
        return float(np.linalg.det(self.basis))

    def heights(self) -> np.ndarray:
        """Perpendicular cell heights: distance between opposite cell faces.

        height_i = volume / |a_j x a_k|; bounds the periodic-image search.
        """
        b, c = self.basis[[1, 2, 0]], self.basis[[2, 0, 1]]  # row i: a_j x a_k
        cross = b[:, [1, 2, 0]] * c[:, [2, 0, 1]] - b[:, [2, 0, 1]] * c[:, [1, 2, 0]]
        return self.volume / np.linalg.norm(cross, axis=1)


@dataclass(frozen=True, eq=False)
class Site:
    """An atom at fractional coordinates, wrapped into [0, 1)."""

    element: Element
    frac_coords: np.ndarray

    def __post_init__(self):
        frac = np.asarray(self.frac_coords, dtype=float)
        if frac.shape != (3,) or not np.isfinite(frac).all():
            raise InvalidStructureError("site coordinates must be a finite 3-vector")
        object.__setattr__(self, "frac_coords", frac - np.floor(frac))


@dataclass(frozen=True, eq=False)
class CrystalStructure:
    """A periodic lattice plus an ordered list of sites."""

    lattice: Lattice
    sites: tuple
    id: str = ""

    def __post_init__(self):
        sites = tuple(self.sites)
        if len(sites) == 0:
            raise InvalidStructureError("structure needs at least one site")
        object.__setattr__(self, "sites", sites)
        dmin = self._min_pair_distance()
        if dmin is not None and dmin < MIN_SITE_SEPARATION:
            raise InvalidStructureError(
                f"sites closer than {MIN_SITE_SEPARATION} A under PBC: {dmin:.3f} A"
            )

    def _min_pair_distance(self):
        n = len(self.sites)
        if n < 2:
            return None
        frac = self.frac_coords()
        diff = frac[:, None, :] - frac[None, :, :]
        diff -= np.round(diff)  # minimum image in fractional space
        d = np.linalg.norm((diff + _NEARBY_SHIFTS[:, None, None, :]) @ self.lattice.basis, axis=-1)
        d[:, np.eye(n, dtype=bool)] = np.inf
        return float(d.min())

    def frac_coords(self) -> np.ndarray:
        return np.array([s.frac_coords for s in self.sites])

    def __len__(self) -> int:
        return len(self.sites)


# the 27 image shifts in {-1, 0, 1}^3: nearby images cover skewed cells where
# rounding to the minimum image alone is not minimal
_NEARBY_SHIFTS = np.array(list(np.ndindex(3, 3, 3))) - 1
_NEARBY_SHIFTS.flags.writeable = False


class Neighbor(NamedTuple):
    index: int
    offset: tuple
    distance: float


class Neighbors(NamedTuple):
    """One center's neighbors as arrays, sorted by (distance, index, offset)."""

    offsets: np.ndarray  # [K, 3] int, the lattice offset of each image
    sites: np.ndarray  # [K] int, the site index of each image
    dists: np.ndarray  # [K] float, the distance from the center


@dataclass(frozen=True, eq=False)
class StructureGraph:
    """Distance-cutoff graph over a structure's sites with periodic images.

    ``node_z`` [V] int holds each site's atomic number. The images of site
    j within the cutoff of site i are directed edges i <- j; those that
    share i, j and the bits of their distance (the +L and -L self images,
    for one) carry the same message, so they are stored as one row, sorted
    by (i, j, distance): ``edges`` [E, 2] int holds (i, j), ``edge_dist``
    [E] the distance and ``edge_mult`` [E] float the number of images.
    Each node's incoming edges are one run of rows, so messages sum by
    segment. ``mask`` is 1 on the absorber and its first-shell neighbors,
    0 elsewhere.
    """

    node_z: np.ndarray
    edges: np.ndarray
    edge_dist: np.ndarray
    edge_mult: np.ndarray
    mask: np.ndarray


@dataclass(frozen=True)
class DescriptorLabels:
    """Ground-truth local-environment descriptors of one absorbing site."""

    cn: int
    mnnd: float
    neighbor_type: Element
    shell_distances: tuple

    def __post_init__(self):
        dists = tuple(float(d) for d in self.shell_distances)
        object.__setattr__(self, "shell_distances", dists)
        if self.cn != len(dists) or self.cn < 1:
            raise ValueError("cn must equal the number of shell distances")
        if self.mnnd <= 0 or abs(self.mnnd - sum(dists) / len(dists)) > 1e-9:
            raise ValueError("mnnd must be the mean of the shell distances")


@functools.lru_cache(maxsize=64)
def _offset_grid(bounds: tuple) -> np.ndarray:
    """[T, 3] int lattice offsets with |T_i| <= bounds[i], in ij order; read-only, shared."""
    axes = [np.arange(-b, b + 1) for b in bounds]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    grid.flags.writeable = False
    return grid


def _image_pairs(s: CrystalStructure, centers, cutoff: float) -> list:
    """(center, offset, site, distance) arrays of all pairs within ``cutoff`` of ``centers``.

    The self-image at zero offset is excluded. One [T, N] block per center.
    """
    if not 0 < cutoff < math.inf:
        raise ValueError(f"cutoff must be positive and finite, got {cutoff}")
    # |T_i| <= ceil(cutoff / height_i) + 1 covers all images: fractional
    # site differences lie in (-1, 1) and |delta_i| <= cutoff / height_i.
    offsets = _offset_grid(tuple(int(math.ceil(cutoff / h)) + 1 for h in s.lattice.heights()))

    frac = s.frac_coords()
    parts = []
    for center in centers:
        disp_frac = frac[None, :, :] + offsets[:, None, :] - frac[center]  # [T, N, 3]
        dists = np.linalg.norm(disp_frac @ s.lattice.basis, axis=-1)
        t_idx, site_idx = np.nonzero((dists <= cutoff) & (dists > 0))
        parts.append((np.full(t_idx.size, center), offsets[t_idx], site_idx, dists[t_idx, site_idx]))
    return [np.concatenate(column) for column in zip(*parts)]


def _shell_size(dists, tol_factor: float) -> int:
    """Length of the first shell: the prefix of ascending ``dists`` within tol_factor * d_min."""
    if len(dists) == 0:
        raise NoNeighborsError("cannot take the first shell of an empty neighbor list")
    if tol_factor < 1:
        raise ValueError(f"tol_factor must be >= 1, got {tol_factor}")
    return int(np.count_nonzero(np.asarray(dists) <= tol_factor * dists[0]))


def neighbor_search(s: CrystalStructure, center: int, cutoff: float) -> Neighbors:
    """All (site, periodic image) pairs within ``cutoff`` of site ``center``, as arrays.

    The self-image at zero offset is excluded. Rows are sorted by (distance,
    index, offset) so output order is deterministic.
    """
    if not 0 <= center < len(s):
        raise ValueError(f"center index {center} out of range")
    _, offsets, sites, dists = _image_pairs(s, [center], cutoff)
    order = np.lexsort((*offsets.T[::-1], sites, dists))
    return Neighbors(offsets[order], sites[order], dists[order])


def neighbor_list(s: CrystalStructure, center: int, cutoff: float) -> list:
    """`neighbor_search` as a list of `Neighbor` tuples, in the same order."""
    offsets, sites, dists = neighbor_search(s, center, cutoff)
    return list(map(Neighbor, sites.tolist(), map(tuple, offsets.tolist()), dists.tolist()))


def first_shell(neighbors: Sequence[Neighbor], tol_factor: float = 1.1) -> list:
    """Neighbors with distance <= tol_factor * d_min, ascending by distance."""
    ordered = sorted(neighbors, key=lambda nb: (nb.distance, nb.index, nb.offset))
    return ordered[:_shell_size([nb.distance for nb in ordered], tol_factor)]


def build_graph(
    s: CrystalStructure,
    absorber: int,
    cutoff: float,
    tol_factor: float = 1.1,
) -> StructureGraph:
    """Cutoff graph with one node per site and one edge row per distinct image distance."""
    if not 0 <= absorber < len(s):
        raise ValueError(f"absorber index {absorber} out of range")

    i, _, j, dist = _image_pairs(s, range(len(s)), cutoff)
    order = np.lexsort((dist, j, i))
    i, j, dist = i[order], j[order], dist[order]
    # distances are positive and finite: equal values are equal bits
    first = np.ones(len(i), dtype=bool)
    first[1:] = (i[1:] != i[:-1]) | (j[1:] != j[:-1]) | (dist[1:] != dist[:-1])
    starts = np.flatnonzero(first)
    i, j, dist, mult = i[starts], j[starts], dist[starts], np.diff(np.append(starts, len(order)))

    mask = np.zeros(len(s), dtype=float)
    mask[absorber] = 1.0
    own = np.flatnonzero(i == absorber)
    if own.size:
        own = own[np.argsort(dist[own], kind="stable")]
        mask[j[own[: _shell_size(dist[own], tol_factor)]]] = 1.0

    return StructureGraph(
        node_z=np.array([site.element.atomic_number for site in s.sites]),
        edges=np.stack([i, j], axis=1),
        edge_dist=dist,
        edge_mult=mult.astype(float),
        mask=mask,
    )


def extract_descriptors(
    s: CrystalStructure,
    absorber: int,
    tol_factor: float = 1.1,
    cutoff: float = DESCRIPTOR_CUTOFF,
    neighbors: Neighbors = None,
) -> DescriptorLabels:
    """First-shell CN, mean distance, and dominant neighbor species.

    Ties in the species count break toward the lowest atomic number so the
    label always collapses to a single class. ``neighbors``, if given, is
    ``neighbor_search(s, absorber, cutoff)`` computed by the caller.
    """
    nbs = neighbor_search(s, absorber, cutoff) if neighbors is None else neighbors
    if not nbs.dists.size:
        raise NoNeighborsError(
            f"site {absorber} has no neighbors within {cutoff} A"
        )
    n = _shell_size(nbs.dists, tol_factor)
    distances = tuple(nbs.dists[:n].tolist())
    counts = Counter(s.sites[j].element for j in nbs.sites[:n].tolist())
    dominant = min(counts, key=lambda el: (-counts[el], el.atomic_number))
    return DescriptorLabels(
        cn=n,
        mnnd=sum(distances) / len(distances),
        neighbor_type=dominant,
        shell_distances=distances,
    )


# ---------------------------------------------------------------------------
# Structure records: {"id", "lattice": [9 row-major reals], "sites":
# [{"element", "frac"}], "absorber": site index}. A structures file holds one
# record per line; a single-record file holds one JSON document.


def structure_to_dict(s: CrystalStructure) -> dict:
    return {
        "id": s.id,
        "lattice": [float(x) for x in s.lattice.basis.reshape(9)],
        "sites": [
            {"element": site.element.symbol, "frac": [float(c) for c in site.frac_coords]}
            for site in s.sites
        ],
    }


def structure_from_dict(d: dict) -> CrystalStructure:
    try:
        lattice = Lattice(np.array(d["lattice"], dtype=float).reshape(3, 3))
        sites = tuple(
            Site(Element.from_symbol(rec["element"]), np.array(rec["frac"], dtype=float))
            for rec in d["sites"]
        )
        return CrystalStructure(lattice=lattice, sites=sites, id=str(d.get("id", "")))
    except InvalidStructureError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidStructureError(f"malformed structure record: {exc}") from exc


def site_index(value, n_sites: int, source: str) -> int:
    """`value` as the index of one of n_sites sites; an error names `source`."""
    try:
        index = int(value)
    except (TypeError, ValueError):
        raise ValueError(f"{source} must be a site index, got {value!r}") from None
    if not 0 <= index < n_sites:
        raise ValueError(f"{source} is {index}, out of range for {n_sites} sites")
    return index


def _from_record(record: dict) -> tuple:
    s = structure_from_dict(record)
    return s, site_index(record.get("absorber", 0), len(s), "field 'absorber'")


def write_structures(records, path) -> None:
    """Write each (structure, absorber index) of `records` as one line."""
    write_jsonl(path, [{**structure_to_dict(s), "absorber": absorber} for s, absorber in records])


def read_structures(path) -> list:
    """(structure, absorber index) per line; a bad line raises naming the file and line."""
    return read_jsonl(path, _from_record)


def read_structure(path) -> tuple:
    """(structure, absorber index) of a single-record file; an error names the file."""
    record = read_json(path)
    try:
        return _from_record(record)
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
