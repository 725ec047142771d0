"""The benchmark's reference code on cells whose first shells are known by hand."""

import math

import numpy as np
import pytest

import reference as ref

FCC = [(0.0, 0.0, 0.0), (0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0)]
TETRAHEDRAL = [(x, y, z) for x in (0.25, 0.75) for y in (0.25, 0.75) for z in (0.25, 0.75)]


def cubic(a):
    return np.eye(3) * a


def rocksalt(a):
    anions = [((x + 0.5) % 1.0, y, z) for x, y, z in FCC]
    return cubic(a), FCC + anions, ["Ni"] * 4 + ["O"] * 4


def fluorite(a):
    return cubic(a), FCC + TETRAHEDRAL, ["Ni"] * 4 + ["O"] * 8


@pytest.mark.parametrize(
    "name, cell, center, cn, mnnd, neighbor",
    [
        ("sc", (cubic(2.5), [(0.0, 0.0, 0.0)], ["Cu"]), 0, 6, 2.5, "Cu"),
        ("fcc", (cubic(3.6), FCC, ["Cu"] * 4), 0, 12, 3.6 / math.sqrt(2.0), "Cu"),
        ("rocksalt", rocksalt(4.2), 0, 6, 2.1, "O"),
        ("fluorite cation", fluorite(5.4), 0, 8, 5.4 * math.sqrt(3.0) / 4.0, "O"),
        ("fluorite anion", fluorite(5.4), 4, 4, 5.4 * math.sqrt(3.0) / 4.0, "Ni"),
    ],
)
def test_first_shell_of_hand_known_cells(name, cell, center, cn, mnnd, neighbor):
    basis, frac, species = cell
    got_cn, got_mnnd, got_neighbor = ref.first_shell_labels(basis, frac, species, center)
    assert (got_cn, got_neighbor) == (cn, neighbor), name
    assert got_mnnd == pytest.approx(mnnd, abs=1e-12)


def test_first_shell_is_independent_of_the_cell_choice():
    # the rocksalt primitive cell, rows (0,1,1), (1,0,1), (1,1,0) times the bond length
    basis = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]) * 2.1
    cn, mnnd, neighbor = ref.first_shell_labels(basis, [(0, 0, 0), (0.5, 0.5, 0.5)], ["Ni", "O"], 0)
    assert (cn, neighbor) == (6, "O")
    assert mnnd == pytest.approx(2.1, abs=1e-12)


def test_species_ties_break_toward_lowest_atomic_number():
    # Ni at the origin of a 4 A cube; Se, S and O sit two apiece at +-2 A along x, y, z
    frac = [(0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (0.0, 0.5, 0.0), (0.0, 0.0, 0.5)]
    cn, mnnd, neighbor = ref.first_shell_labels(cubic(4.0), frac, ["Ni", "Se", "S", "O"], 0)
    assert (cn, neighbor) == (6, "O")
    assert mnnd == pytest.approx(2.0, abs=1e-12)


def test_sc_shells_and_single_shell_signal():
    a = 2.5
    shells = ref.scattering_shells(cubic(a), [(0.0, 0.0, 0.0)], ["Cu"], 0)
    radii = {n: r for n, r, _ in shells[:3]}
    assert [n for n, _, _ in shells[:3]] == [6, 12, 8]
    assert radii[6] == pytest.approx(a)
    assert radii[12] == pytest.approx(a * math.sqrt(2.0))
    assert radii[8] == pytest.approx(a * math.sqrt(3.0))
    assert all(r <= ref.SHELL_CUTOFF for _, r, _ in shells)

    k = ref.exafs_k_grid(50)
    lam = ref.LAMBDA_A * k + ref.LAMBDA_B
    hand = (
        6 * ref.S0_SQUARED * ref.AMP_SCALE * 29 / ((1 + k**2) * k * a**2)
        * np.exp(-2 * a / lam) * np.exp(-2 * ref.SIGMA2 * k**2)
        * np.sin(2 * k * a - 2 * k * ref.R_PHASE)
    )
    assert np.allclose(ref.single_scattering_chi([(6, a, 29)], k), hand, rtol=1e-13, atol=0)
    # the signal of several shells is the sum of their signals
    total = ref.single_scattering_chi(shells, k)
    parts = sum(ref.single_scattering_chi([s], k) for s in shells)
    assert np.allclose(total, parts, rtol=0, atol=1e-12)


def test_template_of_structure_id():
    assert ref.template_of("fluorite_anion-Cu-000012") == "fluorite_anion"
    assert ref.NOMINAL_CN[ref.template_of("sc-Ti-000000")] == 6
