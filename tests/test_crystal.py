import dataclasses
import json
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from xastruct.crystal import (
    MIN_SITE_SEPARATION,
    CrystalStructure,
    DescriptorLabels,
    Element,
    InvalidStructureError,
    Lattice,
    Neighbor,
    NoNeighborsError,
    Site,
    build_graph,
    extract_descriptors,
    first_shell,
    neighbor_list,
    neighbor_search,
    read_structure,
    read_structures,
    structure_from_dict,
    structure_to_dict,
    write_structures,
)
from xastruct.crystal import _HALF_SHIFTS, _image_pairs, _pair_shifts, _search_cells, _squared_lengths
from xastruct.cli import TEMPLATES

from conftest import (
    brute_force_neighbors,
    cubic_structure,
    random_structure,
    rocksalt_structure,
    triclinic_structures,
)
from helpers import image_graph


def as_set(neighbors):
    return {(nb[0], tuple(nb[1]), round(nb[2], 9)) for nb in neighbors}


def reference_heights(basis):
    vol = np.linalg.det(basis)
    cross = np.stack([np.cross(basis[1], basis[2]), np.cross(basis[2], basis[0]),
                      np.cross(basis[0], basis[1])])
    return vol / np.linalg.norm(cross, axis=1)


def reference_neighbor_list(s, center, cutoff):
    """The per-pair loop and Python sort that the array search replaced."""
    bounds = [int(math.ceil(cutoff / h)) + 1 for h in reference_heights(s.lattice.basis)]
    axes = [np.arange(-b, b + 1) for b in bounds]
    offsets = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    frac = s.frac_coords()
    disp_frac = frac[None, :, :] + offsets[:, None, :] - frac[center]
    dists = np.linalg.norm(disp_frac @ s.lattice.basis, axis=-1)
    t_idx, site_idx = np.nonzero((dists <= cutoff) & (dists > 0))
    out = [
        Neighbor(int(j), tuple(int(c) for c in offsets[t]), float(dists[t, j]))
        for t, j in zip(t_idx, site_idx)
    ]
    out.sort(key=lambda nb: (nb.distance, nb.index, nb.offset))
    return out


def reference_build_graph(s, absorber, cutoff, tol_factor=1.1):
    """(edges, dists, offsets, mask), one edge per periodic image, from one reference neighbor list per site."""
    records, per_site = [], []
    for i in range(len(s)):
        nbs = reference_neighbor_list(s, i, cutoff)
        per_site.append(nbs)
        records.extend((i, nb.index, nb.offset, nb.distance) for nb in nbs)
    records.sort(key=lambda r: r[:3])
    edges = np.array([r[:2] for r in records], dtype=int).reshape(-1, 2)
    offsets = np.array([r[2] for r in records], dtype=int).reshape(-1, 3)
    dists = np.array([r[3] for r in records], dtype=float)
    mask = np.zeros(len(s), dtype=float)
    mask[absorber] = 1.0
    for nb in per_site[absorber]:  # sorted by distance
        if nb.distance <= tol_factor * per_site[absorber][0].distance:
            mask[nb.index] = 1.0
    return edges, dists, offsets, mask


def reference_rows(edges, dists):
    """(edges, dists, counts) of the distinct (i, j, distance) of per-image edges, sorted by them."""
    counts = Counter(zip(edges[:, 0].tolist(), edges[:, 1].tolist(), dists.tolist()))
    rows = sorted(counts)
    return (np.array([r[:2] for r in rows], dtype=int).reshape(-1, 2),
            np.array([r[2] for r in rows], dtype=float),
            np.array([counts[r] for r in rows], dtype=float))


def reference_extract_descriptors(s, absorber, neighbors, tol_factor=1.1):
    """The labels as read from a list of Neighbor tuples: a sorted, filtered list and a Counter."""
    ordered = sorted(neighbors, key=lambda nb: (nb.distance, nb.index, nb.offset))
    shell = [nb for nb in ordered if nb.distance <= tol_factor * ordered[0].distance]
    distances = tuple(nb.distance for nb in shell)
    counts = Counter(s.sites[nb.index].element for nb in shell)
    dominant = min(counts, key=lambda el: (-counts[el], el.atomic_number))
    return DescriptorLabels(len(shell), sum(distances) / len(distances), dominant, distances)


def assert_same_array(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert (got == want).all()


def reference_site_coords(frac):
    """The array arithmetic that the float wrapping replaced: shape and finiteness, then % 1.0 % 1.0."""
    frac = np.asarray(frac, dtype=float)
    if frac.shape != (3,) or not np.isfinite(frac).all():
        raise InvalidStructureError("site coordinates must be a finite 3-vector")
    return frac % 1.0 % 1.0


def reference_min_pair_distance(s):
    """The loop over 27 image shifts that the broadcast replaced."""
    frac = s.frac_coords()
    diff = frac[:, None, :] - frac[None, :, :]
    diff -= np.round(diff)
    best = np.inf
    for shift in np.ndindex(3, 3, 3):
        d = np.linalg.norm((diff + (np.array(shift) - 1)) @ s.lattice.basis, axis=-1)
        d[np.eye(len(s), dtype=bool)] = np.inf
        best = min(best, float(d.min()))
    return best


# a2 nearly parallel to a1: the site at frac (0.45, 0.45, 0) is 3.48 A from
# the origin after rounding the fractional difference, but 0.405 A from the
# origin's image at -a2, a shift that rounding alone does not reach
SKEWED = np.array([[4.0, 0.0, 0.0], [3.7, 0.6, 0.0], [0.0, 0.0, 4.0]])


class TestElement:
    def test_symbol_from_z(self):
        assert Element(29).symbol == "Cu"
        assert Element.from_symbol("O").atomic_number == 8

    def test_bad_inputs(self):
        with pytest.raises(InvalidStructureError):
            Element(0)
        with pytest.raises(InvalidStructureError):
            Element(119)
        with pytest.raises(InvalidStructureError):
            Element.from_symbol("Xx")
        with pytest.raises(InvalidStructureError):
            Element(29, "O")


class TestStructureValidation:
    def test_degenerate_lattice_rejected(self):
        with pytest.raises(InvalidStructureError):
            Lattice(np.zeros((3, 3)))
        # left-handed cell has negative determinant
        with pytest.raises(InvalidStructureError):
            Lattice(np.diag([-3.0, 3.0, 3.0]))

    def test_site_wrapping(self):
        site = Site(Element(29), np.array([1.25, -0.25, 0.5]))
        assert np.allclose(site.frac_coords, [0.25, 0.75, 0.5])
        # x - floor(x) is 1.0 for these; [0, 1) holds them at 0.0
        assert Site(Element(29), np.array([-1e-17, -5e-17, -1e-300])).frac_coords.tolist() == [0.0] * 3
        largest = np.nextafter(1.0, 0.0)
        assert Site(Element(29), np.array([largest, 0.0, -1.0])).frac_coords.tolist() == [largest, 0.0, 0.0]

    @pytest.mark.parametrize("frac", [
        pytest.param([-1e-17, -5e-17, -1e-300], id="just below 0"),
        pytest.param([np.nextafter(0.0, -1.0), -0.0, 0.0], id="-ulp and signed zeros"),
        pytest.param([np.nextafter(1.0, 0.0), 1.0, -1.0], id="1 - ulp and whole numbers"),
        pytest.param([1e300, -1e300, 2.5e-300], id="huge and tiny"),
        pytest.param([5e-324, -5e-324, 2.2250738585072e-308], id="subnormals"),
        pytest.param([-2.75, 3.125, 1e16 + 2.0], id="several cells away"),
        pytest.param(np.array([True, False, True]), id="boolean array"),
        pytest.param([True, 0, 0.5], id="boolean and integer entries"),
    ])
    def test_site_wrapping_has_the_bits_of_the_array_remainder(self, frac):
        want = reference_site_coords(frac)
        got = Site(Element(29), frac).frac_coords
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert all(0.0 <= x < 1.0 and math.copysign(1.0, x) == 1.0 for x in got.tolist())

    @pytest.mark.parametrize("frac", [
        pytest.param(np.full((3, 1), 0.5), id="(3, 1) array"),
        pytest.param([0.5, 0.5], id="two entries"),
        pytest.param([0.5, math.nan, 0.5], id="NaN"),
        pytest.param([0.5, 0.5, -math.inf], id="inf"),
        pytest.param(True, id="a bool"),
        pytest.param(0.5, id="a scalar"),
    ])
    def test_site_refuses_what_the_array_check_refuses(self, frac):
        with pytest.raises(InvalidStructureError):
            reference_site_coords(frac)
        with pytest.raises(InvalidStructureError, match="finite 3-vector"):
            Site(Element(29), frac)

    @pytest.mark.parametrize("basis,message", [
        # one finite volume, two face areas past the float range: heights of 0.0
        pytest.param(np.diag([3.0, 3.0, 1e300]), "cell heights", id="areas overflow"),
        pytest.param(np.diag([1e120, 1e120, 1e120]), "volume inf", id="volume overflows"),
        # a face area that underflows to 0.0: an infinite height
        pytest.param(np.diag([1e-170, 1e-170, 1e300]), "cell heights", id="area underflows"),
    ])
    def test_lattice_past_the_float_range_rejected_without_warnings(self, basis, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidStructureError, match=message):
                Lattice(basis)

    def test_too_close_sites_rejected(self):
        el = Element(29)
        with pytest.raises(InvalidStructureError):
            CrystalStructure(
                lattice=Lattice(np.eye(3) * 4.0),
                sites=(Site(el, np.zeros(3)), Site(el, np.array([0.05, 0.0, 0.0]))),
            )

    def test_empty_structure_rejected(self):
        with pytest.raises(InvalidStructureError):
            CrystalStructure(lattice=Lattice(np.eye(3) * 3.0), sites=())

    def test_sites_close_only_through_a_skewed_image_rejected(self):
        el = Element(29)
        sites = (Site(el, np.zeros(3)), Site(el, np.array([0.45, 0.45, 0.0])))
        frac_diff = sites[1].frac_coords - np.round(sites[1].frac_coords)
        assert np.linalg.norm(frac_diff @ SKEWED) > 3.0
        with pytest.raises(InvalidStructureError, match="0.405"):
            CrystalStructure(lattice=Lattice(SKEWED), sites=sites)

    def test_single_site_skewed_cell_passes(self):
        # its own images are 0.67 A away (a2 - a1) but never count
        s = CrystalStructure(lattice=Lattice(SKEWED), sites=(Site(Element(29), np.zeros(3)),))
        assert s._min_pair_distance() is None

    def test_min_pair_distance_equals_the_shift_loop(self, rng):
        for _ in range(40):
            s = random_structure(rng)
            if len(s) > 1:
                assert s._min_pair_distance() == reference_min_pair_distance(s)
        el = Element(8)
        s = CrystalStructure(Lattice(SKEWED), (Site(el, np.zeros(3)), Site(el, np.array([0.3, 0.5, 0.5]))))
        assert s._min_pair_distance() == reference_min_pair_distance(s)

    def test_half_shifts_and_their_negations_are_the_27_shifts(self):
        assert _HALF_SHIFTS[0].tolist() == [0, 0, 0]
        assert all(next(c for c in shift if c) == 1 for shift in _HALF_SHIFTS[1:].tolist())
        both = {tuple(t) for t in np.concatenate([_HALF_SHIFTS, -_HALF_SHIFTS]).tolist()}
        assert both == {tuple(c - 1 for c in t) for t in np.ndindex(3, 3, 3)}

    @pytest.mark.parametrize("shape", [(40, 3), (200, 1, 3), (30, 7, 3), (14, 5, 5, 3)])
    def test_squared_lengths_are_the_norm_sum(self, shape, rng):
        v = rng.standard_normal(shape) * rng.uniform(0.01, 100.0, size=shape)
        got = _squared_lengths(v)
        assert got.tobytes() == np.add.reduce(v * v, axis=-1).tobytes()
        assert np.sqrt(got).tobytes() == np.linalg.norm(v, axis=-1).tobytes()

    def test_heights_equal_the_cross_product_formula(self, rng):
        for _ in range(20):
            basis = random_structure(rng).lattice.basis
            assert Lattice(basis).heights().tolist() == reference_heights(basis).tolist()


class TestNeighborList:
    def test_simple_cubic_first_shell(self):
        s = cubic_structure(a=3.0)
        nbs = neighbor_list(s, 0, 3.5)
        assert len(nbs) == 6
        assert all(abs(nb.distance - 3.0) < 1e-12 for nb in nbs)
        assert as_set(nbs) == as_set(brute_force_neighbors(s, 0, 3.5, image_bound=2))

    def test_tiny_cutoff_gives_empty_list(self):
        s = cubic_structure(a=3.0)
        assert neighbor_list(s, 0, 0.1) == []

    def test_rocksalt_first_shell(self):
        s = rocksalt_structure(a=5.64)
        nbs = neighbor_list(s, 0, 3.0)
        assert len(nbs) == 6
        assert all(nb.index == 1 for nb in nbs)
        assert all(abs(nb.distance - 2.82) < 1e-9 for nb in nbs)
        assert as_set(nbs) == as_set(brute_force_neighbors(s, 0, 3.0))

    def test_matches_brute_force_on_random_structures(self, rng):
        for _ in range(25):
            s = random_structure(rng)
            center = int(rng.integers(0, len(s)))
            cutoff = float(rng.uniform(2.0, 8.0))
            got = as_set(neighbor_list(s, center, cutoff))
            want = as_set(brute_force_neighbors(s, center, cutoff))
            assert got == want

    def test_translation_invariance(self, rng):
        s = random_structure(rng, max_sites=4)
        shift = rng.uniform(0, 1, size=3)
        shifted = CrystalStructure(
            lattice=s.lattice,
            sites=tuple(Site(site.element, site.frac_coords + shift) for site in s.sites),
            id=s.id,
        )
        a = neighbor_list(s, 0, 5.0)
        b = neighbor_list(shifted, 0, 5.0)
        assert sorted(round(nb.distance, 9) for nb in a) == sorted(
            round(nb.distance, 9) for nb in b
        )

    def test_bad_arguments(self):
        s = cubic_structure()
        for cutoff in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="cutoff"):
                neighbor_list(s, 0, cutoff)
        with pytest.raises(ValueError):
            neighbor_list(s, 5, 3.0)

    def test_equals_the_per_pair_loop_exactly(self, rng):
        # == on Neighbor tuples: same order, same ints, same float bits
        for _ in range(30):
            s = random_structure(rng)
            center = int(rng.integers(0, len(s)))
            for cutoff in rng.uniform(2.0, 8.0, size=2):
                got = neighbor_list(s, center, float(cutoff))
                assert got == reference_neighbor_list(s, center, float(cutoff))
                assert all(type(nb.index) is int and type(nb.distance) is float for nb in got)
                assert all(type(c) is int for nb in got for c in nb.offset)


class TestArraySearchProperties:
    @settings(max_examples=60, deadline=None)
    @given(structure=triclinic_structures(), cutoff=st.floats(1.0, 7.0))
    def test_neighbor_list_equals_brute_force(self, structure, cutoff):
        s, center = structure
        got = [(nb.index, nb.offset, round(nb.distance, 9)) for nb in neighbor_list(s, center, cutoff)]
        want = [(j, t, round(d, 9)) for j, t, d in brute_force_neighbors(s, center, cutoff)]
        assert sorted(got) == sorted(want)

    @settings(max_examples=60, deadline=None)
    @given(structure=triclinic_structures(), cutoff=st.floats(1.0, 7.0),
           tol_factor=st.floats(1.0, 1.5))
    def test_labels_equal_the_neighbor_list_path(self, structure, cutoff, tol_factor):
        s, center = structure
        found = neighbor_search(s, center, cutoff)
        listed = neighbor_list(s, center, cutoff)
        assert listed == [Neighbor(j, tuple(t), d) for j, t, d in
                          zip(found.sites.tolist(), found.offsets.tolist(), found.dists.tolist())]
        if not listed:
            with pytest.raises(NoNeighborsError):
                extract_descriptors(s, center, tol_factor, cutoff)
            return
        got = extract_descriptors(s, center, tol_factor, cutoff)
        want = reference_extract_descriptors(s, center, listed, tol_factor)
        assert got == want
        assert got.neighbor_type.symbol == want.neighbor_type.symbol
        assert (np.array([got.mnnd, *got.shell_distances]).tobytes()
                == np.array([want.mnnd, *want.shell_distances]).tobytes())
        shell = first_shell(listed, tol_factor)
        assert [nb.distance for nb in shell] == list(got.shell_distances)
        assert extract_descriptors(s, center, tol_factor, cutoff, neighbors=found) == got


class TestGraphRowProperties:
    @settings(max_examples=60, deadline=None)
    @given(structure=triclinic_structures(), cutoff=st.floats(1.0, 7.0))
    def test_rows_expand_to_the_neighbor_lists(self, structure, cutoff):
        s, absorber = structure
        g = build_graph(s, absorber, cutoff)
        keys = list(zip(g.edges[:, 0].tolist(), g.edges[:, 1].tolist(), g.edge_dist.tolist()))
        assert keys == sorted(set(keys))
        assert (g.edge_mult >= 1).all() and (g.edge_mult == np.round(g.edge_mult)).all()
        expanded = Counter(dict(zip(keys, g.edge_mult.astype(int).tolist())))
        assert expanded == Counter((i, nb.index, nb.distance)
                                   for i in range(len(s)) for nb in neighbor_list(s, i, cutoff))

    @settings(max_examples=30, deadline=None)
    @given(structures=st.lists(triclinic_structures(), min_size=1, max_size=3),
           cutoff=st.floats(1.0, 6.0))
    def test_batch_rows_are_the_graph_rows_offset(self, structures, cutoff):
        graphs = [build_graph(s, absorber, cutoff) for s, absorber in structures]
        images = [image_graph(s, absorber, cutoff) for s, absorber in structures]
        starts = np.cumsum([0] + [len(s) for s, _ in structures[:-1]])
        # the distinct rows of the batch's per-image union
        edges, dists, mult = reference_rows(
            np.concatenate([g.edges + start for g, start in zip(images, starts)]),
            np.concatenate([g.edge_dist for g in images]))
        assert_same_array(np.concatenate([g.edges + start for g, start in zip(graphs, starts)]), edges)
        assert np.concatenate([g.edge_dist for g in graphs]).tobytes() == dists.tobytes()
        assert np.concatenate([g.edge_mult for g in graphs]).tobytes() == mult.tobytes()
        assert all(g.mask.tobytes() == image.mask.tobytes() for g, image in zip(graphs, images))


def full_box_search(s, center, cutoff):
    """`reference_neighbor_list` as the (offsets, sites, dists) arrays of a Neighbors."""
    listed = reference_neighbor_list(s, center, cutoff)
    return (np.array([nb.offset for nb in listed], dtype=int).reshape(-1, 3),
            np.array([nb.index for nb in listed], dtype=int),
            np.array([nb.distance for nb in listed], dtype=float))


class TestPrunedSearch:
    @settings(max_examples=40, deadline=None)
    @given(structure=triclinic_structures(), data=st.data())
    def test_search_graph_and_min_pair_equal_the_full_box(self, structure, data):
        s, center = structure
        longest = float(np.linalg.norm(s.lattice.basis, axis=1).max())
        cutoff = data.draw(st.floats(0.5, 2.5 * longest), label="cutoff")
        for got, want in zip(neighbor_search(s, center, cutoff), full_box_search(s, center, cutoff)):
            assert_same_array(got, want)
            assert got.tobytes() == want.tobytes()
        g = build_graph(s, center, cutoff)
        edges, dists, _, mask = reference_build_graph(s, center, cutoff)
        edges, dists, mult = reference_rows(edges, dists)
        assert_same_array(g.edges, edges)
        assert g.edge_dist.tobytes() == dists.tobytes()
        assert g.edge_mult.tobytes() == mult.tobytes()
        assert g.mask.tobytes() == mask.tobytes()
        if len(s) > 1:
            assert s._min_pair_distance() == reference_min_pair_distance(s)

    @pytest.mark.parametrize("template", sorted(TEMPLATES))
    def test_template_searches_visit_few_cells_and_every_cell_with_a_pair(self, template):
        basis, sites, _, _ = TEMPLATES[template]
        cutoff = 6.0
        for m in (1.8, 2.5, 3.2):
            s = CrystalStructure(Lattice(basis(m)),
                                 tuple(Site(Element(26 + sp), np.array(f)) for sp, f in sites))
            box = math.prod(2 * (math.ceil(cutoff / h) + 1) + 1
                            for h in reference_heights(s.lattice.basis))
            for center, cells in enumerate(_search_cells(s, s.frac_coords(), cutoff)):
                assert len(cells) <= 0.4 * box, (m, center, len(cells), box)
                with_pairs = {nb.offset for nb in reference_neighbor_list(s, center, cutoff)}
                assert with_pairs <= set(map(tuple, cells.tolist()))

    @pytest.mark.parametrize("template", sorted(TEMPLATES))
    def test_template_at_the_least_separation_searches_under_the_box_limit(self, template):
        """The smallest cell of each template (first shell at MIN_SITE_SEPARATION, the least
        `mnnd_min`) still extracts its coordination number; sc needs 19,683 cells."""
        basis, sites, absorber, cn = TEMPLATES[template]
        s = CrystalStructure(Lattice(basis(MIN_SITE_SEPARATION)),
                             tuple(Site(Element(26 + sp), np.array(f)) for sp, f in sites))
        assert extract_descriptors(s, absorber).cn == cn  # a box over the limit would raise

    def test_coordinate_below_zero_round_trips_with_the_same_search(self):
        el = Element(29)
        s = CrystalStructure(Lattice(SKEWED + np.diag([0.0, 1.0, 0.0])),
                             (Site(el, np.array([-1e-17, 0.5, -1e-17])), Site(el, np.array([0.5, 0.0, 0.5]))))
        back = structure_from_dict(json.loads(json.dumps(structure_to_dict(s))))
        assert back.frac_coords().tobytes() == s.frac_coords().tobytes()
        for center in range(len(s)):
            for got, want in zip(neighbor_search(back, center, 6.0), neighbor_search(s, center, 6.0)):
                assert_same_array(got, want)
                assert got.tobytes() == want.tobytes()


def reference_image_pairs(s, centers, cutoff):
    """`_image_pairs` with one [T, N, 3] @ basis product per center: T BLAS calls of [N, 3]."""
    frac, basis = s.frac_coords(), s.lattice.basis
    parts = []
    for center, offsets in zip(centers, _search_cells(s, frac[centers], cutoff)):
        dists = np.sqrt(_squared_lengths((frac[None, :, :] + offsets[:, None, :] - frac[center]) @ basis))
        t_idx, site_idx = np.nonzero((dists <= cutoff) & (dists > 0))
        parts.append((np.full(t_idx.size, center), offsets[t_idx], site_idx, dists[t_idx, site_idx]))
    return [np.concatenate(column) for column in zip(*parts)]


def reference_block_min_pair_distance(s):
    """`_min_pair_distance` with the [14, n, n, 3] @ basis product: 14 * n BLAS calls of [n, 3]."""
    n, frac = len(s), s.frac_coords()
    diff = frac[:, None, :] - frac[None, :, :]
    diff -= np.rint(diff)
    shifted = (diff.reshape(1, -1) + _pair_shifts(n)).reshape(len(_HALF_SHIFTS), n, n, 3)
    squared = _squared_lengths(shifted @ s.lattice.basis)
    squared.reshape(len(_HALF_SHIFTS), n * n)[:, :: n + 1] = np.inf
    return math.sqrt(squared.min())


@st.composite
def template_structures(draw):
    """A cell of any synth template at a random mnnd, strained, sheared and jittered, and its
    absorber index."""
    template = draw(st.sampled_from(sorted(TEMPLATES)))
    basis, sites, absorber, _ = TEMPLATES[template]
    m = draw(st.floats(0.6, 3.2)) * (1 + draw(st.floats(-0.05, 0.05)))
    shear = np.eye(3) + np.array(draw(st.lists(st.floats(-0.15, 0.15), min_size=9, max_size=9))).reshape(3, 3)
    jitter = draw(st.floats(0.0, 0.1))
    cart = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3 * len(sites),
                                  max_size=3 * len(sites)))).reshape(-1, 3) * jitter
    try:
        lattice = Lattice(basis(m) @ shear)
        frac = cart @ np.linalg.inv(lattice.basis)
        s = CrystalStructure(lattice, tuple(Site(Element(26 + sp), np.add(f, d))
                                            for (sp, f), d in zip(sites, frac)), id=template)
    except InvalidStructureError:
        assume(False)
    return s, absorber


def _labels_or_error(call):
    """The labels of a call as (cn, mnnd, species, distances) with the floats' bits, or its error."""
    try:
        labels = call()
    except ValueError as exc:
        return type(exc), str(exc)
    return (labels.cn, np.float64(labels.mnnd).tobytes(), labels.neighbor_type.symbol,
            np.array(labels.shell_distances).tobytes())


class TestFirstShellReach:
    """`extract_descriptors`' own search reaches only as far as the first shell can."""

    @settings(max_examples=150, deadline=None)
    @given(structure=template_structures(), tol_factor=st.floats(1.0, 3.0),
           cutoff=st.floats(2.0, 8.0))
    def test_labels_equal_those_of_the_full_cutoff_search(self, structure, tol_factor, cutoff):
        s, absorber = structure
        full = neighbor_search(s, absorber, cutoff)
        assert (_labels_or_error(lambda: extract_descriptors(s, absorber, tol_factor=tol_factor,
                                                             cutoff=cutoff))
                == _labels_or_error(lambda: extract_descriptors(s, absorber, tol_factor=tol_factor,
                                                                cutoff=cutoff, neighbors=full)))

    def test_tol_factor_below_one_raises_the_shell_error(self):
        for s in (cubic_structure(a=3.0), rocksalt_structure(a=5.64)):
            with pytest.raises(ValueError, match=r"^tol_factor must be >= 1, got 0.9$") as exc:
                extract_descriptors(s, 0, tol_factor=0.9)
            assert not isinstance(exc.value, NoNeighborsError)

    def test_no_neighbors_below_the_cutoff_names_the_cutoff(self):
        with pytest.raises(NoNeighborsError, match=r"^site 0 has no neighbors within 6.0 A$"):
            extract_descriptors(cubic_structure(a=9.0), 0)

    def test_box_of_the_full_cutoff_is_checked_before_the_search_narrows(self):
        """A 0.12 A cubic cell's 6 A box holds 103^3 cells, over the limit; its first shell
        would need 7^3. It is refused as synth and train refuse it, naming the 6 A search."""
        with pytest.raises(InvalidStructureError, match=r"a 6.0 A search needs image cells up to "
                                                        r"\(51, 51, 51\) away"):
            extract_descriptors(cubic_structure(a=0.12, sid="tiny"), 0)
        assert extract_descriptors(cubic_structure(a=0.12), 0, cutoff=0.2).cn == 6

    @pytest.mark.parametrize("template", sorted(TEMPLATES))
    def test_folded_products_equal_the_per_block_products(self, template, rng):
        """One [T * N, 3] @ basis product has the bits of T per-block [N, 3] products."""
        basis, sites, _, _ = TEMPLATES[template]
        for m in (0.6, 1.8, 2.5, 3.2):
            for jitter in (0.0, 0.05):
                lattice = Lattice(basis(m) @ (np.eye(3) + rng.uniform(-0.1, 0.1, (3, 3))))
                frac = rng.uniform(-jitter, jitter, (len(sites), 3)) @ np.linalg.inv(lattice.basis)
                s = CrystalStructure(lattice, tuple(Site(Element(26 + sp), np.add(f, d))
                                                    for (sp, f), d in zip(sites, frac)))
                for cutoff in (2.0, 4.0, 6.0):
                    centers = range(len(s))
                    for got, want in zip(_image_pairs(s, centers, cutoff),
                                         reference_image_pairs(s, centers, cutoff)):
                        assert_same_array(got, want)
                        assert got.tobytes() == want.tobytes()
                if len(s) > 1:
                    assert s._min_pair_distance() == reference_block_min_pair_distance(s)


class TestFirstShell:
    def test_tolerance_keeps_near_minimum(self):
        nbs = neighbor_list(cubic_structure(a=2.0), 0, 3.0)
        # fake distances: craft a list manually
        from xastruct.crystal import Neighbor

        lst = [
            Neighbor(0, (0, 0, 0), 2.9),
            Neighbor(1, (0, 0, 0), 2.0),
            Neighbor(2, (0, 0, 0), 2.05),
        ]
        shell = first_shell(lst, tol_factor=1.1)
        assert [nb.distance for nb in shell] == [2.0, 2.05]

    def test_singleton(self):
        from xastruct.crystal import Neighbor

        assert first_shell([Neighbor(0, (0, 0, 0), 2.0)], 1.0)[0].distance == 2.0

    def test_simple_cubic_all_six(self):
        nbs = neighbor_list(cubic_structure(a=3.0), 0, 5.0)
        assert len(first_shell(nbs, 1.1)) == 6

    def test_tol_factor_one_takes_minimum_only(self, rng):
        s = random_structure(rng)
        nbs = neighbor_list(s, 0, 6.0)
        if not nbs:
            pytest.skip("no neighbors drawn")
        shell = first_shell(nbs, 1.0)
        dmin = min(nb.distance for nb in nbs)
        assert all(nb.distance == dmin for nb in shell)

    def test_empty_input_raises(self):
        with pytest.raises(NoNeighborsError):
            first_shell([], 1.1)


class TestBuildGraph:
    def test_single_atom_cubic(self):
        s = cubic_structure(a=3.0)
        g = build_graph(s, 0, 3.5)
        assert g.node_z.tolist() == [29]
        assert g.mask.tolist() == [1.0]
        # the six images at +-a along each axis share one row
        assert g.edges.tolist() == [[0, 0]]
        assert g.edge_dist.tolist() == [3.0]
        assert g.edge_mult.tolist() == [6.0]
        assert sorted(nb.offset for nb in neighbor_list(s, 0, 3.5)) == sorted(
            t for axis in np.eye(3, dtype=int).tolist() for t in (tuple(-c for c in axis), tuple(axis)))

    def test_no_edges_below_cutoff(self):
        g = build_graph(cubic_structure(a=3.0), 0, 1.0)
        assert g.edges.shape == (0, 2) and g.edge_dist.shape == (0,)
        assert g.edge_mult.shape == (0,)
        assert g.mask.tolist() == [1.0]

    def test_rows_are_distinct_sorted_by_receiver_and_counted(self):
        g = build_graph(rocksalt_structure(a=4.2), 0, 5.0)
        a, b = 3.6373066958946425, 3.637306695894643
        assert np.nextafter(a, 4.0) == b
        # the eight third-shell images of the other site: one ulp apart is another distance
        rows = [(0, 1, a, 6.0), (0, 1, b, 2.0)]
        assert [(*e, d, m) for e, d, m in zip(g.edges.tolist(), g.edge_dist.tolist(),
                                              g.edge_mult.tolist())] == [
            (0, 0, 2.9698484809834995, 12.0), (0, 0, 4.2, 6.0), (0, 1, 2.1, 6.0), *rows,
            (0, 1, 4.695742752749559, 24.0), (1, 0, 2.1, 6.0),
            *[(1, 0, d, m) for _, _, d, m in rows], (1, 0, 4.695742752749559, 24.0),
            (1, 1, 2.9698484809834995, 12.0), (1, 1, 4.2, 6.0)]
        assert g.edge_mult.sum() == sum(len(neighbor_list(rocksalt_structure(a=4.2), c, 5.0)) for c in (0, 1))

    def test_equals_per_site_neighbor_lists_exactly(self, rng):
        for _ in range(30):
            s = random_structure(rng)
            absorber = int(rng.integers(0, len(s)))
            nearest = min(
                reference_neighbor_list(s, c, 10.0)[0].distance for c in range(len(s))
            )
            cutoffs = [float(c) for c in rng.uniform(2.0, 8.0, size=2)] + [0.99 * nearest]
            for cutoff in cutoffs:
                g = build_graph(s, absorber, cutoff)
                edges, dists, offsets, mask = reference_build_graph(s, absorber, cutoff)
                edges, dists, mult = reference_rows(edges, dists)
                assert_same_array(g.edges, edges)
                assert_same_array(g.edge_dist, dists)
                assert_same_array(g.edge_mult, mult)
                assert g.mask.tobytes() == mask.tobytes()
                assert g.node_z.tolist() == [site.element.atomic_number for site in s.sites]
            # below the nearest-neighbor distance: no edges, absorber alone
            assert len(g.edges) == 0 and g.mask.sum() == 1.0
            assert all(neighbor_list(s, c, cutoffs[-1]) == [] for c in range(len(s)))

    def test_bad_arguments(self):
        s = rocksalt_structure()
        for cutoff in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="cutoff"):
                build_graph(s, 0, cutoff)
        for absorber in (-1, 2):
            with pytest.raises(ValueError):
                build_graph(s, absorber, 3.0)

    def test_rocksalt_mask_covers_both_sites(self):
        g = build_graph(rocksalt_structure(), 0, 3.0)
        assert g.mask.tolist() == [1.0, 1.0]

    def test_edges_symmetric_as_set(self, rng):
        s = random_structure(rng, max_sites=5)
        records = {(i, nb.index, round(nb.distance, 9), nb.offset)
                   for i in range(len(s)) for nb in neighbor_list(s, i, 5.0)}
        for i, j, d, t in records:
            assert (j, i, d, tuple(-c for c in t)) in records
        g = build_graph(s, 0, 5.0)
        rows = {(i, j, round(d, 9)) for (i, j), d in zip(g.edges.tolist(), g.edge_dist.tolist())}
        assert rows == {r[:3] for r in records}
        for i, j, d in rows:
            assert (j, i, d) in rows

    def test_relabeling_preserves_edge_distances(self, rng):
        s = random_structure(rng, max_sites=6)
        perm = rng.permutation(len(s))
        permuted = CrystalStructure(
            lattice=s.lattice,
            sites=tuple(s.sites[p] for p in perm),
            id=s.id,
        )
        absorber = 0
        new_absorber = int(np.nonzero(perm == absorber)[0][0])
        g0 = build_graph(s, absorber, 5.0)
        g1 = build_graph(permuted, new_absorber, 5.0)
        d0 = sorted(round(d, 9) for d in g0.edge_dist.tolist())
        d1 = sorted(round(d, 9) for d in g1.edge_dist.tolist())
        assert d0 == d1
        assert int(g0.mask.sum()) == int(g1.mask.sum())


class TestExtractDescriptors:
    def test_simple_cubic(self):
        labels = extract_descriptors(cubic_structure(a=3.0, symbol="Cu"), 0)
        assert labels.cn == 6
        assert abs(labels.mnnd - 3.0) < 1e-12
        assert labels.neighbor_type == Element.from_symbol("Cu")

    def test_rocksalt(self):
        labels = extract_descriptors(rocksalt_structure(a=5.64), 0)
        assert labels.cn == 6
        assert abs(labels.mnnd - 2.82) < 1e-9
        assert labels.neighbor_type == Element.from_symbol("Cl")

    def test_equal_distances_mean_is_exact(self):
        labels = extract_descriptors(cubic_structure(a=2.75), 0)
        assert labels.mnnd == labels.shell_distances[0]

    def test_isolated_atom_raises(self):
        s = cubic_structure(a=9.0)
        with pytest.raises(NoNeighborsError):
            extract_descriptors(s, 0, cutoff=6.0)

    def test_translation_leaves_labels_unchanged(self, rng):
        s = random_structure(rng, max_sites=5)
        shift = rng.uniform(0, 1, size=3)
        shifted = CrystalStructure(
            lattice=s.lattice,
            sites=tuple(Site(site.element, site.frac_coords + shift) for site in s.sites),
            id=s.id,
        )
        try:
            a = extract_descriptors(s, 0)
        except NoNeighborsError:
            pytest.skip("isolated center drawn")
        b = extract_descriptors(shifted, 0)
        assert a.cn == b.cn
        assert abs(a.mnnd - b.mnnd) < 1e-9
        assert a.neighbor_type == b.neighbor_type

    def test_neighbor_type_tie_breaks_to_lowest_z(self):
        # center atom with one O and one C neighbor at the same distance
        a = 6.0
        s = CrystalStructure(
            lattice=Lattice(np.eye(3) * a),
            sites=(
                Site(Element.from_symbol("Cu"), np.array([0.5, 0.5, 0.5])),
                Site(Element.from_symbol("O"), np.array([0.5 + 2.0 / a, 0.5, 0.5])),
                Site(Element.from_symbol("C"), np.array([0.5 - 2.0 / a, 0.5, 0.5])),
            ),
        )
        labels = extract_descriptors(s, 0)
        assert labels.cn == 2
        assert labels.neighbor_type == Element.from_symbol("C")


class TestJsonInterchange:
    def test_round_trip(self, tmp_path, rng):
        structures = [random_structure(rng, max_sites=4, sid=f"s{i}") for i in range(3)]
        records = [(s, len(s) - 1) for s in structures]  # the last site absorbs
        path = tmp_path / "stream.jsonl"
        write_structures(records, path)
        loaded = read_structures(path)
        assert len(loaded) == len(records)
        for (s, absorber), (got, got_absorber) in zip(records, loaded):
            assert (got.id, got_absorber) == (s.id, absorber)
            assert np.array_equal(got.lattice.basis, s.lattice.basis)
            assert np.array_equal(got.frac_coords(), s.frac_coords())
            assert [x.element.symbol for x in got.sites] == [x.element.symbol for x in s.sites]
        # one line on its own is a single-record file
        one = tmp_path / "one.json"
        one.write_text(path.read_text().splitlines()[1])
        got, got_absorber = read_structure(one)
        assert (got.id, got_absorber) == ("s1", records[1][1])

    def test_jsonl_stream(self, tmp_path):
        # records written by hand: no absorber means site 0, blank lines are skipped
        rows = [structure_to_dict(cubic_structure(a=3.0, sid=f"s{i}")) for i in range(3)]
        path = tmp_path / "stream.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n\n")
        assert [(s.id, a) for s, a in read_structures(path)] == [("s0", 0), ("s1", 0), ("s2", 0)]
        path.write_text(json.dumps({**rows[0], "absorber": 1}) + "\n")
        with pytest.raises(ValueError) as exc:
            read_structures(path)
        assert str(exc.value).startswith(f"{path}:1: field 'absorber' is 1, out of range")

    @pytest.mark.parametrize("field,value,message", [
        *[pytest.param("absorber", v, f"field 'absorber': expected an integer of at least 0, "
                                      f"got {v!r}", id=f"absorber {v!r}")
          for v in (1.7, 1.0, True, "1")],
        pytest.param("lattice", ["2.82", 2.82, 0, 2.82, 0, 2.82, 0, 2.82, 2.82],
                     "field 'lattice[0]': expected a finite number, got '2.82'", id="quoted lattice"),
        pytest.param("lattice", [[0, 2.82, 2.82], [2.82, 0, 2.82], [2.82, 2.82, 0]],
                     "field 'lattice[0]': expected a finite number, got [0, 2.82, 2.82]",
                     id="nested lattice"),
        pytest.param("sites", [{"element": "Na", "frac": [True, False, False]}],
                     "field 'sites[0].frac[0]': expected a finite number, got True", id="boolean frac"),
        pytest.param("sites", [{"element": "Na", "frac": [0, 0, 0]},
                               {"element": "Xx", "frac": [0.5] * 3}],
                     "field 'sites[1].element': expected an element symbol, got 'Xx'",
                     id="unknown element"),
        pytest.param("sites", {"element": "Na", "frac": [0, 0, 0]},
                     "field 'sites': expected a list, got {'element': 'Na', 'frac': [0, 0, 0]}",
                     id="sites object"),
        pytest.param("id", 5, "field 'id': expected a string, got 5", id="integer id"),
        pytest.param("id", [1], "field 'id': expected a string, got [1]", id="list id"),
    ])
    def test_record_field_of_the_wrong_type_is_named(self, field, value, message, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text(json.dumps({**structure_to_dict(rocksalt_structure()), "absorber": 0,
                                    field: value}) + "\n")
        if field != "absorber":
            message = f"malformed structure record: {message}"
        for read, where in ((read_structures, f"{path}:1"), (read_structure, f"{path}")):
            with pytest.raises(ValueError) as exc:
                read(path)
            assert str(exc.value) == f"{where}: {message}"

    @pytest.mark.parametrize("record_id", [None, ...])
    def test_null_or_absent_id_reads_as_empty(self, record_id):
        record = {**structure_to_dict(rocksalt_structure()), "id": record_id}
        assert structure_from_dict({k: v for k, v in record.items() if v is not ...}).id == ""

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(drawn=st.lists(st.tuples(triclinic_structures(), st.text(max_size=6)), min_size=1,
                          max_size=3))
    def test_write_read_keeps_lattice_frac_and_id_bits(self, tmp_path, drawn):
        records = [(dataclasses.replace(s, id=sid), absorber) for (s, absorber), sid in drawn]
        path = tmp_path / "stream.jsonl"
        write_structures(records, path)
        for (s, absorber), (got, got_absorber) in zip(records, read_structures(path), strict=True):
            assert (got.id, got_absorber) == (s.id, absorber)
            assert got.lattice.basis.tobytes() == s.lattice.basis.tobytes()
            assert got.frac_coords().tobytes() == s.frac_coords().tobytes()
            assert [x.element for x in got.sites] == [x.element for x in s.sites]

    def test_malformed_record(self):
        with pytest.raises(InvalidStructureError):
            structure_from_dict({"lattice": [1, 0, 0]})
