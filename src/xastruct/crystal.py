"""Periodic crystal structures, cutoff neighbor lists, and structural descriptors.

Conventions: lattice rows are lattice vectors in angstroms, fractional
coordinates live in [0, 1), and cartesian positions are ``frac @ basis``.
A neighbor search visits, out of the box of image cells bounded by the
perpendicular cell heights, only the cells whose midpoint lies within the
cutoff plus half the longest cell diagonal of the center: every image in a
cell lies that close to its midpoint. The minimum-image check takes the
zero shift and the 13 shifts in {-1, 0, 1}^3 whose first nonzero entry is
+1; a pair under the opposite shift is the same pair reversed, with the same
distance bits. `neighbor_search` returns one center's neighbors as sorted
arrays (image offsets, site indices, distances), and the descriptors and the
EXAFS shells read those arrays as they are; `neighbor_list` turns them into
`Neighbor` tuples. What does not depend on the structure is built once per
process: the image-offset grid of each search bound (read-only), the 14
shifts of the minimum-image check and one `Element` per symbol. A structure
graph holds one edge row per distinct (receiver, sender, distance) with its
count of periodic images, the form the encoder reads, so a batch of graphs
joins into one graph by offsetting node indices.

Where a numpy call would cost more than its arithmetic, the geometry runs on
Python floats or whole columns, with the bits of the numpy formulas it
replaced. Each `Lattice` computes its cell heights once, from np.cross's
products and a left-to-right sum of their squares; the distances sum whole
columns of squares left to right (`_squared_lengths`). np.linalg.norm is
the root of np.add.reduce over the last axis, which sums three terms left
to right too, and each operation rounds once, so both give norm's bits. A
`Site` wraps its coordinates with float % 1.0, which rounds as numpy's
remainder does. The minimum pair distance is the root of the smallest
squared distance: sqrt is correctly rounded and monotone, so sqrt(min) is
min(sqrt). A lattice whose volume or face areas pass the float range is
refused, since a height of 0.0 or inf bounds no search box, and so is a
search whose box would hold more than MAX_SEARCH_CELLS cells (a thin cell).
When `extract_descriptors` searches itself, it checks the box of the full cutoff, then
reaches only max(tol_factor, 1) times the shortest lattice row L: the absorber's image one
row away bounds the nearest distance by L, and each image keeps its distance bits and rank.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .config import ELEMENT_SYMBOLS
from .jsonio import (ELEMENT, integer, list_of, optional, read_json, read_jsonl, real, record, string,
                     write_jsonl)

MIN_SITE_SEPARATION = 0.5  # angstrom; guards the 1/R^2 terms downstream
DESCRIPTOR_CUTOFF = 6.0  # angstrom; neighbor search radius of extract_descriptors
MAX_SEARCH_CELLS = 1 << 20  # image cells of the largest search box (24 MiB of int offsets)


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
        expected = ELEMENT_SYMBOLS[self.atomic_number - 1]
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


_ELEMENT_BY_SYMBOL = {s: Element(z + 1) for z, s in enumerate(ELEMENT_SYMBOLS)}


@dataclass(frozen=True, eq=False)
class Lattice:
    """Periodic cell: rows of ``basis`` are lattice vectors in angstroms."""

    basis: np.ndarray
    volume: float = field(init=False, repr=False)  # the determinant of basis, in cubic angstroms
    _heights: tuple = field(init=False, repr=False)  # the three cell heights, as floats

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float)
        if basis.shape != (3, 3):
            raise InvalidStructureError(f"lattice basis must be 3x3, got {basis.shape}")
        rows = basis.tolist()
        if not all(map(math.isfinite, rows[0] + rows[1] + rows[2])):
            raise InvalidStructureError("lattice basis contains non-finite entries")
        with np.errstate(over="ignore"):  # an overflowing volume is refused below, unwarned
            volume = float(np.linalg.det(basis))
        if volume <= 0:
            raise InvalidStructureError("lattice determinant must be strictly positive")
        if not volume < math.inf:
            raise InvalidStructureError(f"lattice volume {volume} is past the float range")
        # height_i = volume / |a_j x a_k|, with np.cross's products and np.linalg.norm's
        # left-to-right sum; a face area past the float range gives a height of 0.0
        heights = []
        for (u0, u1, u2), (v0, v1, v2) in ((rows[1], rows[2]), (rows[2], rows[0]), (rows[0], rows[1])):
            x, y, z = u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0
            area = math.sqrt(x * x + y * y + z * z)
            heights.append(volume / area if area else math.inf)
        if not all(0 < h < math.inf for h in heights):
            raise InvalidStructureError(f"lattice cell heights must be finite and positive, "
                                        f"got {heights}")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "volume", volume)
        object.__setattr__(self, "_heights", tuple(heights))

    def heights(self) -> np.ndarray:
        """Perpendicular cell heights: distance between opposite cell faces.

        height_i = volume / |a_j x a_k|, computed when the lattice is built; bounds the
        periodic-image search.
        """
        return np.array(self._heights)


@dataclass(frozen=True, eq=False)
class Site:
    """An atom at fractional coordinates, wrapped into [0, 1)."""

    element: Element
    frac_coords: np.ndarray

    def __post_init__(self):
        frac = np.asarray(self.frac_coords, dtype=float)
        coords = frac.tolist()
        if frac.shape != (3,) or not all(map(math.isfinite, coords)):
            raise InvalidStructureError("site coordinates must be a finite 3-vector")
        # x % 1.0 has the bits of x - floor(x), which round to 1.0 for x just
        # below 0 (-1e-17); the second % 1.0 wraps that to 0.0
        object.__setattr__(self, "frac_coords", np.array([x % 1.0 % 1.0 for x in coords]))


@dataclass(frozen=True, eq=False)
class CrystalStructure:
    """A periodic lattice plus an ordered list of sites."""

    lattice: Lattice
    sites: tuple
    id: str = ""
    _frac: np.ndarray = field(init=False, repr=False)  # [N, 3] site coordinates, read-only

    def __post_init__(self):
        sites = tuple(self.sites)
        if len(sites) == 0:
            raise InvalidStructureError("structure needs at least one site")
        frac = np.array([s.frac_coords for s in sites])
        frac.flags.writeable = False
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "_frac", frac)
        dmin = self._min_pair_distance()
        if dmin is not None and dmin < MIN_SITE_SEPARATION:
            raise InvalidStructureError(
                f"sites closer than {MIN_SITE_SEPARATION} A under PBC: {dmin:.3f} A"
            )

    def _min_pair_distance(self):
        n = len(self.sites)
        if n < 2:
            return None
        frac = self._frac
        diff = frac[:, None, :] - frac[None, :, :]
        diff -= np.rint(diff)  # minimum image in fractional space; np.round's bits
        shifted = (diff.reshape(1, -1) + _pair_shifts(n)).reshape(-1, 3)  # [14 * n * n, 3]
        squared = _squared_lengths(shifted @ self.lattice.basis).reshape(len(_HALF_SHIFTS), n * n)
        squared[:, :: n + 1] = np.inf  # each site with itself
        return math.sqrt(squared.min())

    def frac_coords(self) -> np.ndarray:
        return self._frac.copy()

    def __len__(self) -> int:
        return len(self.sites)


# zero, then the 13 image shifts in {-1, 0, 1}^3 whose first nonzero entry is
# +1: nearby images cover skewed cells where rounding to the minimum image
# alone is not minimal. The (j, i) row under -S is the exact negation of the
# (i, j) row under S, so half the 27 shifts see every pair at its distance.
_HALF_SHIFTS = (np.array(list(np.ndindex(3, 3, 3))) - 1)[13:]
_HALF_SHIFTS.flags.writeable = False


@functools.lru_cache(maxsize=64)
def _pair_shifts(n: int) -> np.ndarray:
    """[14, n * n * 3] float: row s holds shift s of _HALF_SHIFTS once per pair of n sites,
    so that one flat add shifts every pair (a 4-d broadcast add walks rows of 3); read-only."""
    shifts = np.tile(_HALF_SHIFTS.astype(float), (1, n * n))
    shifts.flags.writeable = False
    return shifts


def _squared_lengths(v: np.ndarray) -> np.ndarray:
    """x*x + y*y + z*z of each 3-vector along v's last axis, summed left to right.

    np.linalg.norm takes the root of np.add.reduce(v * v, axis=-1), which over an axis
    of three sums in the same order, so the roots are norm's bits; summing whole
    columns avoids the reduction's short inner loops.
    """
    w = v * v
    return w[..., 0] + w[..., 1] + w[..., 2]


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


def _search_bounds(s: CrystalStructure, cutoff: float) -> tuple:
    """Bounds ceil(cutoff / h_i) + 1 of the search box; refuses a bad cutoff and a thin cell."""
    if not 0 < cutoff < math.inf:
        raise ValueError(f"cutoff must be positive and finite, got {cutoff}")
    b0, b1, b2 = bounds = tuple(math.ceil(cutoff / h) + 1 for h in s.lattice._heights)
    if (2 * b0 + 1) * (2 * b1 + 1) * (2 * b2 + 1) > MAX_SEARCH_CELLS:
        raise InvalidStructureError(
            f"structure {s.id!r}: a {cutoff} A search needs image cells up to {bounds} away, "
            f"more than {MAX_SEARCH_CELLS} cells; its cell is too thin for the cutoff")
    return bounds


def _search_cells(s: CrystalStructure, centers: np.ndarray, cutoff: float) -> list:
    """Per row of ``centers`` [C, 3] (fractional), the [T, 3] offsets of the cells to search.

    |T_i| <= ceil(cutoff / height_i) + 1 bounds a box that covers all images:
    fractional site differences lie in (-1, 1) and |delta_i| <= cutoff /
    height_i. Sites lie in the closed unit cell, so an image in cell T lies
    within half the longest cell diagonal of the midpoint (T + 1/2) B; a cell
    whose midpoint is farther from the center than the cutoff plus that holds
    no image within the cutoff and is dropped. The kept offsets stay in the box's ij order.
    """
    lattice = s.lattice
    box = _offset_grid(_search_bounds(s, cutoff))
    # per axis, the four body diagonals a + b + c, a + b - c, a - b + c and -a + b + c
    axes = [(p + q + r, p + q - r, p - q + r, -p + q + r) for p, q, r in zip(*lattice.basis.tolist())]
    half_diagonal = 0.5 * math.sqrt(max(x * x + y * y + z * z for x, y, z in zip(*axes)))
    reach = (cutoff + half_diagonal) * (1 + 1e-9)  # margin for rounding
    to_midpoints = (box + (0.5 - centers)[:, None, :]) @ lattice.basis  # [C, T, 3]
    near = _squared_lengths(to_midpoints) <= reach * reach
    return [box[keep] for keep in near]


def _image_pairs(s: CrystalStructure, centers, cutoff: float) -> list:
    """(center, offset, site, distance) arrays of all pairs within ``cutoff`` of ``centers``.

    The self-image at zero offset is excluded. One [T, N] block per center
    over the cells `_search_cells` keeps for it, as one [T * N, 3] @ basis product.
    """
    frac, basis = s._frac, s.lattice.basis
    parts = []
    for center, offsets in zip(centers, _search_cells(s, frac[centers], cutoff)):
        v = (frac[None, :, :] + offsets[:, None, :] - frac[center]).reshape(-1, 3) @ basis
        dists = np.sqrt(_squared_lengths(v)).reshape(len(offsets), len(frac))  # [T, N]
        t_idx, site_idx = np.nonzero((dists <= cutoff) & (dists > 0))
        parts.append((np.full(t_idx.size, center), offsets[t_idx], site_idx, dists[t_idx, site_idx]))
    if len(parts) == 1:
        return list(parts[0])
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
    ``neighbor_search(s, absorber, cutoff)`` computed by the caller. Else, once
    the full cutoff's box passes its size check, the search reaches only
    max(tol_factor, 1) * L, L the shortest lattice row (the absorber's image
    one row away is at L), with the full search's distance bits and order.
    """
    if neighbors is None:
        if 0 <= absorber < len(s):  # else neighbor_search names the index, as at the full cutoff
            _search_bounds(s, cutoff)
        shortest = min(math.sqrt(x * x + y * y + z * z) for x, y, z in s.lattice.basis.tolist())
        neighbors = neighbor_search(s, absorber, min(cutoff, max(tol_factor, 1) * shortest * (1 + 1e-9)))
    if not neighbors.dists.size:
        raise NoNeighborsError(
            f"site {absorber} has no neighbors within {cutoff} A"
        )
    n = _shell_size(neighbors.dists, tol_factor)
    distances = tuple(neighbors.dists[:n].tolist())
    counts = Counter(s.sites[j].element for j in neighbors.sites[:n].tolist())
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


# the checks of a structure record's fields; a record without an absorber names site 0,
# and a null or absent id reads as ""
STRUCTURE = record({"id": optional(string()), "lattice": list_of(real()),
                    "sites": list_of(record({"element": ELEMENT, "frac": list_of(real())}))})
ABSORBER = integer(0)


def structure_from_dict(d: dict) -> CrystalStructure:
    """The structure of a record; a field of the wrong type raises naming it."""
    try:
        checked = STRUCTURE(d, ())
        basis = np.array(checked["lattice"], dtype=float).reshape(3, 3)
    except ValueError as exc:  # a field check's, or a lattice of other than 9 numbers
        raise InvalidStructureError(f"malformed structure record: {exc}") from None
    sites = tuple(Site(Element.from_symbol(site["element"]), site["frac"]) for site in checked["sites"])
    return CrystalStructure(lattice=Lattice(basis), sites=sites, id=checked["id"] or "")


def site_index(index: int, n_sites: int, source: str) -> int:
    """`index` if it names one of n_sites sites; else an error naming `source`."""
    if not 0 <= index < n_sites:
        raise ValueError(f"{source} is {index}, out of range for {n_sites} sites")
    return index


def _from_record(record: dict) -> tuple:
    s = structure_from_dict(record)
    absorber = ABSORBER(record.get("absorber", 0), ("absorber",))
    return s, site_index(absorber, len(s), "field 'absorber'")


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
