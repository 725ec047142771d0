"""Sample builders shared by the pipeline and acceptance tests, and the
per-image graph that the encoder references are built on."""

from typing import NamedTuple

import numpy as np

from xastruct import exafs_oracle as oracle
from xastruct.config import check_config
from xastruct.crystal import (
    CrystalStructure,
    Element,
    Lattice,
    Site,
    build_graph,
    extract_descriptors,
    first_shell,
    neighbor_list,
)
from xastruct.spectra import LabeledSample


def simple_cubic(a: float, symbol: str = "Cu", sid: str = "") -> CrystalStructure:
    return CrystalStructure(
        lattice=Lattice(np.eye(3) * a),
        sites=(Site(Element.from_symbol(symbol), np.zeros(3)),),
        id=sid or f"sc-{symbol}-{a:.4f}",
    )


def rocksalt(a: float, cation: str = "Ni", anion: str = "O", sid: str = "") -> CrystalStructure:
    basis = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]) * (a / 2)
    return CrystalStructure(
        lattice=Lattice(basis),
        sites=(
            Site(Element.from_symbol(cation), np.zeros(3)),
            Site(Element.from_symbol(anion), np.full(3, 0.5)),
        ),
        id=sid or f"rs-{cation}{anion}-{a:.4f}",
    )


def cscl(a: float, cation: str = "Cs", anion: str = "Cl", sid: str = "") -> CrystalStructure:
    """Interpenetrating cubic sublattices; both sites have 8 first-shell neighbors."""
    return CrystalStructure(
        lattice=Lattice(np.eye(3) * a),
        sites=(
            Site(Element.from_symbol(cation), np.zeros(3)),
            Site(Element.from_symbol(anion), np.full(3, 0.5)),
        ),
        id=sid or f"cscl-{cation}{anion}-{a:.4f}",
    )


def fcc(a: float, symbol: str = "Cu", sid: str = "") -> CrystalStructure:
    """Conventional face-centered cubic cell: 12 neighbors at a/sqrt(2)."""
    el = Element.from_symbol(symbol)
    frac = [(0.0, 0.0, 0.0), (0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0)]
    return CrystalStructure(
        lattice=Lattice(np.eye(3) * a),
        sites=tuple(Site(el, np.array(f)) for f in frac),
        id=sid or f"fcc-{symbol}-{a:.4f}",
    )


def fluorite(a: float, cation: str = "Ca", anion: str = "F", sid: str = "") -> CrystalStructure:
    """Cation on the fcc sites (8 neighbors), anion in the tetrahedral holes (4)."""
    cat, an = Element.from_symbol(cation), Element.from_symbol(anion)
    cation_frac = [(0.0, 0.0, 0.0), (0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0)]
    anion_frac = [
        (x, y, z)
        for x in (0.25, 0.75)
        for y in (0.25, 0.75)
        for z in (0.25, 0.75)
    ]
    sites = tuple(Site(cat, np.array(f)) for f in cation_frac) + tuple(
        Site(an, np.array(f)) for f in anion_frac
    )
    return CrystalStructure(
        lattice=Lattice(np.eye(3) * a), sites=sites, id=sid or f"fl-{cation}{anion}-{a:.4f}"
    )


class ImageGraph(NamedTuple):
    """A structure graph with one edge per periodic image, built from neighbor lists."""

    node_z: np.ndarray  # [V] int
    edges: np.ndarray  # [E, 2] int, (i, j) of each image of j around i, sorted by (i, j, offset)
    edge_dist: np.ndarray  # [E]
    mask: np.ndarray  # [V], 1 on the absorber and its first shell


def image_graph(s: CrystalStructure, absorber: int, cutoff: float, tol_factor: float = 1.1):
    """The graph of build_graph(s, absorber, cutoff) before images of one distance share a row."""
    rows = sorted((i, nb.index, nb.offset, nb.distance)
                  for i in range(len(s)) for nb in neighbor_list(s, i, cutoff))
    mask = np.zeros(len(s))
    mask[absorber] = 1.0
    own = neighbor_list(s, absorber, cutoff)
    mask[[nb.index for nb in (first_shell(own, tol_factor) if own else [])]] = 1.0
    return ImageGraph(
        node_z=np.array([site.element.atomic_number for site in s.sites]),
        edges=np.array([r[:2] for r in rows], dtype=int).reshape(-1, 2),
        edge_dist=np.array([r[3] for r in rows], dtype=float),
        mask=mask,
    )


def labeled_sample(s: CrystalStructure, absorber: int = 0, n_grid: int = 40) -> LabeledSample:
    """Oracle spectra plus extracted labels for one absorber site."""
    labels = extract_descriptors(s, absorber)
    el = s.sites[absorber].element
    cfg = check_config({})  # e0_ev unset: the absorber's own edge
    e0 = oracle.edge_energy(cfg, el)
    xanes = oracle.synth_xanes(
        labels, el, cfg, oracle.default_xanes_grid(e0, n=n_grid), structure_id=s.id
    )
    exafs = oracle.synth_exafs(s, absorber, cfg, oracle.default_exafs_grid(e0, n=n_grid))
    return LabeledSample(xanes=xanes, exafs=exafs, labels=labels)


def forward_pairs(lattice_constants, symbol: str = "Cu", n_grid: int = 40, cutoff: float = 6.0):
    """(graph, XANES spectrum) training pairs over simple cubic cells."""
    el = Element.from_symbol(symbol)
    cfg = check_config({})  # e0_ev unset: the absorber's own edge
    grid = oracle.default_xanes_grid(oracle.edge_energy(cfg, el), n=n_grid)
    pairs = []
    for a in lattice_constants:
        s = simple_cubic(a, symbol)
        labels = extract_descriptors(s, 0)
        sp = oracle.synth_xanes(labels, el, cfg, grid, structure_id=s.id)
        pairs.append((build_graph(s, 0, cutoff), sp))
    return pairs


TINY_FORWARD_ARCH = {
    "encoder_dim": 16,
    "encoder_rounds": 2,
    "encoder_rbf": 8,
    "encoder_hidden": 16,
    "forward_hidden": 32,
}

TINY_INVERSE_ARCH = {
    "embed_dim": 8,
    "embed_hidden": 16,
    "embed_k": 2,
    "conv_channels": 4,
    "head_hidden": 16,
}
