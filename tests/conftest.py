import math

import numpy as np
import pytest
from hypothesis import assume, settings
from hypothesis import strategies as st

from xastruct.crystal import CrystalStructure, Element, InvalidStructureError, Lattice, Site

# `pytest --hypothesis-profile=ci` (the tier-1 CI step): every run draws the same examples, so a
# failure there reproduces locally with that flag; without it, each run searches anew. Tests
# that set no max_examples run 100.
settings.register_profile("ci", derandomize=True, max_examples=100, database=None, print_blob=True)


def cubic_structure(a=3.0, symbol="Cu", sid="sc"):
    return CrystalStructure(
        lattice=Lattice(np.eye(3) * a),
        sites=(Site(Element.from_symbol(symbol), np.zeros(3)),),
        id=sid,
    )


def rocksalt_structure(a=5.64, cation="Na", anion="Cl", sid="rocksalt"):
    # conventional-cell motif reduced to the 2-atom primitive-like test cell:
    # cation at origin, anion at the body center of the primitive fcc cell
    basis = np.array([[0.0, a / 2, a / 2], [a / 2, 0.0, a / 2], [a / 2, a / 2, 0.0]])
    return CrystalStructure(
        lattice=Lattice(basis),
        sites=(
            Site(Element.from_symbol(cation), np.zeros(3)),
            Site(Element.from_symbol(anion), np.full(3, 0.5)),
        ),
        id=sid,
    )


def random_structure(rng, max_sites=8, sid="random"):
    """A random valid structure: sheared cubic cell, sites kept apart."""
    for _ in range(200):
        n = int(rng.integers(1, max_sites + 1))
        a = float(rng.uniform(3.0, 7.0))
        shear = np.eye(3) + rng.uniform(-0.15, 0.15, size=(3, 3))
        basis = shear * a
        if np.linalg.det(basis) <= 0:
            continue
        frac = rng.uniform(0.0, 1.0, size=(n, 3))
        elements = [Element(int(z)) for z in rng.integers(1, 90, size=n)]
        try:
            return CrystalStructure(
                lattice=Lattice(basis),
                sites=tuple(Site(el, f) for el, f in zip(elements, frac)),
                id=sid,
            )
        except ValueError:
            continue
    raise RuntimeError("failed to draw a valid random structure")


def basis_from_parameters(lengths, angles):
    """Lattice rows of a cell with edge lengths (a, b, c) and angles (alpha, beta, gamma) in degrees.

    a lies along x and b in the xy plane. Returns None for angles that close no cell.
    """
    a, b, c = lengths
    cos_al, cos_be, cos_ga = (math.cos(math.radians(x)) for x in angles)
    sin_ga = math.sin(math.radians(angles[2]))
    cx = c * cos_be
    cy = c * (cos_al - cos_be * cos_ga) / sin_ga
    cz2 = c * c - cx * cx - cy * cy
    if cz2 <= (0.2 * c) ** 2:  # flat cells make the image search large
        return None
    return np.array([[a, 0.0, 0.0], [b * cos_ga, b * sin_ga, 0.0], [cx, cy, math.sqrt(cz2)]])


# symmetric positions give exact distance ties, so the (index, offset) order
# matters; the largest coordinate below 1 puts a site on the cell's far faces
_FRACS = (st.sampled_from([0.0, 0.25, 0.5, 0.75, float(np.nextafter(1.0, 0.0))])
          | st.floats(0.0, 1.0, exclude_max=True))


@st.composite
def triclinic_structures(draw):
    """A valid structure with a general triclinic cell, and a site index of it."""
    lengths = draw(st.tuples(*[st.floats(2.5, 6.0)] * 3))
    angles = draw(st.tuples(*[st.floats(60.0, 120.0)] * 3))
    basis = basis_from_parameters(lengths, angles)
    assume(basis is not None)
    n = draw(st.integers(1, 5))
    frac = draw(st.lists(st.tuples(_FRACS, _FRACS, _FRACS), min_size=n, max_size=n))
    # few species, so shells often hold several and species counts tie
    zs = draw(st.lists(st.sampled_from([8, 26, 29, 34]), min_size=n, max_size=n))
    try:
        s = CrystalStructure(
            lattice=Lattice(basis),
            sites=tuple(Site(Element(z), np.array(f)) for z, f in zip(zs, frac)),
            id="triclinic",
        )
    except InvalidStructureError:
        assume(False)
    return s, draw(st.integers(0, n - 1))


def brute_force_neighbors(s, center, cutoff, image_bound=None):
    """Independent oracle: scan every periodic image inside a generous box.

    The bound is deliberately conservative: cutoff over the shortest
    face-to-face cell height, plus two.
    """
    frac = s.frac_coords()
    basis = s.lattice.basis
    if image_bound is None:
        vol = abs(np.linalg.det(basis))
        heights = [
            vol / np.linalg.norm(np.cross(basis[(i + 1) % 3], basis[(i + 2) % 3]))
            for i in range(3)
        ]
        image_bound = int(np.ceil(cutoff / min(heights))) + 2
    out = []
    rng_t = range(-image_bound, image_bound + 1)
    for t0 in rng_t:
        for t1 in rng_t:
            for t2 in rng_t:
                t = np.array([t0, t1, t2], dtype=float)
                disp = (frac + t - frac[center]) @ basis
                dists = np.linalg.norm(disp, axis=1)
                for j, d in enumerate(dists):
                    if j == center and (t0, t1, t2) == (0, 0, 0):
                        continue
                    if 0 < d <= cutoff:
                        out.append((j, (t0, t1, t2), float(d)))
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)
