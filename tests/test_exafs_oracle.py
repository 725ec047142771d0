import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xastruct.config import check_config
from xastruct.crystal import (
    CrystalStructure,
    DescriptorLabels,
    Element,
    Lattice,
    NoNeighborsError,
    Site,
    neighbor_list,
)
from xastruct.exafs_oracle import (
    BelowEdgeError,
    ScatteringShell,
    chi_shell,
    default_edge_energy,
    default_exafs_grid,
    default_xanes_grid,
    edge_energy,
    median_crossing_spacing,
    radius_from_spacing,
    shells_from_structure,
    synth_exafs,
    synth_xanes,
    wavenumber,
    zero_crossings,
)
from xastruct.spectra import EnergyGrid

from conftest import (
    brute_force_neighbors,
    cubic_structure,
    random_structure,
    rocksalt_structure,
    triclinic_structures,
)
from helpers import cscl, fcc, fluorite, rocksalt

P = check_config({"e0_ev": 8979.0})  # the Cu K edge, whatever the absorber

# radii whose Python radius**2 differs from radius * radius in the last bit
POW_SENSITIVE_RADII = (3.416353081323097, 2.402410973962667, 2.4723344269563374)


def reference_chi_shell(shell, params, k):
    """The single-shell formula, one shell per call, as synth_exafs once looped over it."""
    k = np.asarray(k, dtype=float)
    lam = params["lambda_a"] * k + params["lambda_b"]
    amplitude = (
        shell.n_atoms
        * params["s0_squared"]
        * params["amp_scale"]
        * shell.z_scatter
        / ((1.0 + k * k) * k * shell.radius**2)
        * np.exp(-2.0 * shell.radius / lam)
        * np.exp(-2.0 * shell.sigma2 * k * k)
    )
    phase = 2.0 * k * shell.radius - 2.0 * k * params["r_phase"]
    chi = amplitude * np.sin(phase)
    return float(chi) if chi.ndim == 0 else chi


def reference_shells(s, absorber, params, cutoff=6.0):
    """Shells from a per-neighbor dict loop and one np.mean per group, as once computed."""
    groups = {}
    for nb in neighbor_list(s, absorber, cutoff):
        key = (s.sites[nb.index].element.atomic_number, round(nb.distance / 0.01))
        groups.setdefault(key, []).append(nb.distance)
    return [
        ScatteringShell(len(dists), float(np.mean(dists)), z, params["sigma2"])
        for (z, _), dists in sorted(groups.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    ]


def reference_mu(s, absorber, params, grid, cutoff=6.0):
    k = wavenumber(grid.values, params["e0_ev"])
    chi = np.zeros_like(k)
    for shell in shells_from_structure(s, absorber, params, cutoff):
        chi += reference_chi_shell(shell, params, k)
    return 1.0 + chi


class TestWavenumber:
    def test_zero_at_edge(self):
        assert wavenumber(100.0, 100.0) == 0.0

    def test_hundred_ev_matches_codata(self):
        # independent constant: k = sqrt(2 m_e E)/hbar in SI, converted to 1/A
        m_e, hbar, ev = 9.1093837015e-31, 1.054571817e-34, 1.602176634e-19
        k_codata = math.sqrt(2 * m_e * 100.0 * ev) / hbar * 1e-10
        assert abs(wavenumber(100.0, 0.0) - k_codata) / k_codata < 1e-3
        assert abs(wavenumber(100.0, 0.0) - 5.123) < 1e-9

    def test_sqrt_scaling(self):
        assert wavenumber(400.0, 0.0) == pytest.approx(2.0 * wavenumber(100.0, 0.0), abs=1e-12)

    def test_below_edge_rejected(self):
        with pytest.raises(BelowEdgeError):
            wavenumber(99.0, 100.0)
        with pytest.raises(BelowEdgeError):
            wavenumber(np.array([101.0, 99.0]), 100.0)


class TestParams:
    def test_s0_squared_range(self):
        with pytest.raises(ValueError):
            check_config({"s0_squared": 0.0})
        with pytest.raises(ValueError):
            check_config({"s0_squared": 1.3})

    def test_mean_free_path_positivity(self):
        with pytest.raises(ValueError):
            check_config({"lambda_a": 0.1, "lambda_b": -1.0})
        with pytest.raises(ValueError):
            check_config({"lambda_a": -1.0, "lambda_b": 3.0})

    def test_edge_energy_is_a_set_e0_ev_else_the_elements_own(self):
        for symbol in ("Ti", "Cu", "Se"):
            el = Element.from_symbol(symbol)
            assert edge_energy(check_config({}), el) == default_edge_energy(el)
            assert edge_energy(check_config({"e0_ev": "5000"}), el) == 5000.0
            assert edge_energy(P, el) == 8979.0

    @pytest.mark.parametrize("e0", [0.0, -5.0, math.inf, math.nan])
    def test_edge_energy_positive_and_finite(self, e0):
        with pytest.raises(ValueError, match="e0_ev"):
            check_config({"e0_ev": e0})

    def test_shell_validation(self):
        with pytest.raises(ValueError):
            ScatteringShell(0, 2.0, 8, 0.003)
        with pytest.raises(ValueError):
            ScatteringShell(6, 0.4, 8, 0.003)
        with pytest.raises(ValueError):
            ScatteringShell(6, 2.0, 8, -0.1)


class TestChiShell:
    def test_infinite_disorder_kills_signal(self):
        shell = ScatteringShell(6, 2.5, 8, 1e6)
        k = np.linspace(3.0, 12.0, 50)
        assert np.max(np.abs(chi_shell(shell, P, k))) < 1e-30

    def test_linear_in_n_atoms(self):
        k = np.linspace(2.5, 12.5, 100)
        one = chi_shell(ScatteringShell(3, 2.5, 8, 0.003), P, k)
        two = chi_shell(ScatteringShell(6, 2.5, 8, 0.003), P, k)
        assert np.allclose(two, 2.0 * one, atol=0, rtol=1e-15)

    def test_zero_crossing_spacing(self):
        # crossings of sin(2kR - 2 k r_phase) sit at k = m*pi/(2R - 2 r_phase)
        R = 2.5
        expected = math.pi / (2 * R - 2 * P["r_phase"])
        k = np.linspace(2.5, 12.5, 400)
        chi = chi_shell(ScatteringShell(6, R, 8, 0.003), P, k)
        assert median_crossing_spacing(k, chi) == pytest.approx(expected, rel=1e-3)

    def test_crossing_positions_match_analytic(self):
        R = 3.0
        k = np.linspace(2.5, 12.5, 800)
        chi = chi_shell(ScatteringShell(6, R, 8, 0.003), P, k)
        crossings = zero_crossings(k, chi)
        period = math.pi / (2 * R - 2 * P["r_phase"])
        offsets = np.mod(crossings, period)
        # each crossing lands on the analytic lattice m*period
        assert np.all(np.minimum(offsets, period - offsets) < 1e-3)

    def test_high_k_decay(self):
        shell = ScatteringShell(6, 2.5, 8, 0.003)
        assert abs(chi_shell(shell, P, 15.0)) < abs(chi_shell(shell, P, 3.0))

    def test_envelope_decreases_with_radius(self):
        k = np.linspace(2.5, 12.5, 2000)
        env = [
            np.max(np.abs(chi_shell(ScatteringShell(6, R, 8, 0.003), P, k)))
            for R in (2.0, 2.5, 3.0, 3.5, 4.0)
        ]
        assert all(a > b for a, b in zip(env, env[1:]))

    def test_equals_the_scalar_formula_exactly(self):
        rng = np.random.default_rng(5)
        params = check_config({"s0_squared": 0.83, "lambda_a": 0.7, "lambda_b": 2.6,
                               "amp_scale": 1.3, "sigma2": 0.004, "r_phase": 0.31})
        radii = list(POW_SENSITIVE_RADII) + list(rng.uniform(1.5, 6.0, size=5))
        k = np.linspace(2.5, 12.5, 100)
        for i, radius in enumerate(radii):
            shell = ScatteringShell(int(rng.integers(1, 13)), float(radius), int(rng.integers(1, 90)),
                                    float(rng.uniform(0.0, 0.01)))
            for p in (P, params):
                assert chi_shell(shell, p, k).tobytes() == reference_chi_shell(shell, p, k).tobytes()
                assert chi_shell(shell, p, float(k[i])) == reference_chi_shell(shell, p, float(k[i]))

    def test_nonpositive_k_rejected(self):
        with pytest.raises(ValueError):
            chi_shell(ScatteringShell(6, 2.5, 8, 0.003), P, 0.0)


class TestSynthExafs:
    def test_isolated_atom_raises(self):
        s = cubic_structure(a=9.0)
        with pytest.raises(NoNeighborsError):
            synth_exafs(s, 0, P, default_exafs_grid(P["e0_ev"]))

    def test_neighbor_at_half_an_angstrom_is_below_the_shell_minimum(self):
        # the closest sites CrystalStructure admits: a shell at exactly 0.5 A
        cu, o = Element.from_symbol("Cu"), Element.from_symbol("O")
        s = CrystalStructure(Lattice(np.eye(3)), (Site(cu, np.zeros(3)), Site(o, np.array([0.5, 0, 0]))))
        with pytest.raises(ValueError, match="shell radius 0.5 below physical minimum"):
            synth_exafs(s, 0, P, default_exafs_grid(P["e0_ev"]))

    def test_grid_below_edge_rejected(self):
        s = cubic_structure(a=3.0)
        with pytest.raises(BelowEdgeError):
            synth_exafs(s, 0, P, EnergyGrid(np.array([P["e0_ev"] - 1.0, P["e0_ev"] + 50.0])))

    def test_simple_cubic_dominant_radius(self):
        grid = default_exafs_grid(P["e0_ev"])
        sp = synth_exafs(cubic_structure(a=3.0), 0, P, grid)
        k = wavenumber(grid.values, P["e0_ev"])
        # chi ~ sin(2k(R - r_phase)) peaks at (R - r_phase)/pi cycles per unit k in
        # |FFT(k^2 chi)|; k^2 flattens the envelope, Hann keeps the shells apart
        n_fft = 16 * k.size
        magnitude = np.abs(np.fft.rfft((sp.mu - 1.0) * k**2 * np.hanning(k.size), n_fft))
        freqs = np.fft.rfftfreq(n_fft, d=float(np.mean(np.diff(k))))
        lo = int(np.searchsorted(freqs, (1.0 - P["r_phase"]) / math.pi))  # skip DC leakage
        est = math.pi * float(freqs[lo + int(np.argmax(magnitude[lo:]))]) + P["r_phase"]
        assert abs(est - 3.0) / 3.0 < 0.05

    def test_lattice_scaling_compresses_spacing(self):
        grid = default_exafs_grid(P["e0_ev"], n=400)
        k = wavenumber(grid.values, P["e0_ev"])
        d1 = median_crossing_spacing(k, synth_exafs(cubic_structure(3.0), 0, P, grid).mu - 1.0)
        d2 = median_crossing_spacing(k, synth_exafs(cubic_structure(3.3), 0, P, grid).mu - 1.0)
        assert d2 / d1 == pytest.approx(1.0 / 1.1, rel=0.03)

    def test_additivity_against_independent_shells(self):
        # rebuild the shells straight from the brute-force neighbor oracle
        # and check mu - 1 equals the plain per-shell sum
        s = rocksalt_structure(a=5.64)
        grid = default_exafs_grid(P["e0_ev"])
        sp = synth_exafs(s, 0, P, grid)
        k = wavenumber(grid.values, P["e0_ev"])

        groups = {}
        for j, _, d in brute_force_neighbors(s, 0, 6.0):
            key = (s.sites[j].element.atomic_number, round(d / 0.01))
            groups.setdefault(key, []).append(d)
        total = np.zeros_like(k)
        for (z, _), dists in groups.items():
            shell = ScatteringShell(len(dists), float(np.mean(dists)), z, P["sigma2"])
            total += chi_shell(shell, P, k)
        assert np.max(np.abs((sp.mu - 1.0) - total)) < 1e-12

    def test_mu_equals_the_per_shell_loop_exactly(self, rng):
        params = check_config({"e0_ev": 7112.0, "sigma2": 0.005, "r_phase": 0.4})
        grid = default_exafs_grid(params["e0_ev"], n=120)
        checked = 0
        for _ in range(30):
            s = random_structure(rng)
            absorber = int(rng.integers(0, len(s)))
            for cutoff in (6.0, 4.5):
                try:
                    mu = synth_exafs(s, absorber, params, grid, cutoff=cutoff).mu
                except NoNeighborsError:
                    continue
                assert mu.tobytes() == reference_mu(s, absorber, params, grid, cutoff).tobytes()
                checked += 1
        assert checked > 30

    @settings(max_examples=60, deadline=None)
    @given(structure=triclinic_structures(), cutoff=st.floats(1.0, 7.0))
    def test_shells_equal_the_neighbor_list_path(self, structure, cutoff):
        s, absorber = structure
        listed = neighbor_list(s, absorber, cutoff)
        if not listed:
            with pytest.raises(NoNeighborsError):
                shells_from_structure(s, absorber, P, cutoff)
            return
        got = shells_from_structure(s, absorber, P, cutoff)
        want = reference_shells(s, absorber, P, cutoff)
        assert got == want
        assert (np.array([sh.radius for sh in got]).tobytes()
                == np.array([sh.radius for sh in want]).tobytes())

    def test_given_neighbors_replace_the_search(self, monkeypatch):
        from xastruct import exafs_oracle
        from xastruct.crystal import neighbor_search

        s = rocksalt_structure()
        grid = default_exafs_grid(P["e0_ev"])
        nbs = neighbor_search(s, 0, 6.0)
        want = synth_exafs(s, 0, P, grid).mu
        monkeypatch.setattr(exafs_oracle, "neighbor_search", None)
        assert synth_exafs(s, 0, P, grid, neighbors=nbs).mu.tobytes() == want.tobytes()

    def test_translation_invariance(self):
        import numpy as np
        from xastruct.crystal import CrystalStructure, Site

        s = rocksalt_structure()
        shifted = CrystalStructure(
            lattice=s.lattice,
            sites=tuple(Site(x.element, x.frac_coords + np.array([0.13, 0.57, 0.91])) for x in s.sites),
            id=s.id,
        )
        grid = default_exafs_grid(P["e0_ev"])
        a = synth_exafs(s, 0, P, grid)
        b = synth_exafs(shifted, 0, P, grid)
        assert np.allclose(a.mu, b.mu, atol=1e-9)

    def test_metadata(self):
        sp = synth_exafs(cubic_structure(a=3.0, symbol="Cu", sid="sc-3"), 0, P, default_exafs_grid(P["e0_ev"]))
        assert sp.kind == "EXAFS"
        assert sp.absorber == Element.from_symbol("Cu")
        assert sp.structure_id == "sc-3"

    def test_shells_equal_the_dict_loop_exactly(self, rng):
        largest = 0
        for build in (fcc, rocksalt, fluorite, cscl):
            for _ in range(8):
                base = build(float(rng.uniform(3.5, 5.5)))
                # jitter far below the 0.01 A bin: shells keep most members, whose
                # distances then differ slightly, so the summation order shows
                sites = tuple(Site(x.element, x.frac_coords + rng.normal(0.0, 2e-5, 3))
                              for x in base.sites)
                s = CrystalStructure(lattice=base.lattice, sites=sites, id=base.id)
                absorber = int(rng.integers(len(s)))
                want = reference_shells(s, absorber, P)
                assert shells_from_structure(s, absorber, P) == want
                largest = max(largest, max(sh.n_atoms for sh in want))
        for _ in range(20):
            s = random_structure(rng)
            if neighbor_list(s, 0, 6.0):
                assert shells_from_structure(s, 0, P) == reference_shells(s, 0, P)
        # np.mean sums groups of 8 or more pairwise, not left to right
        assert largest >= 8

    def test_rocksalt_first_shell_grouping(self):
        shells = shells_from_structure(rocksalt_structure(a=5.64), 0, P)
        first = shells[0]
        assert first.n_atoms == 6
        assert first.z_scatter == Element.from_symbol("Cl").atomic_number
        assert first.radius == pytest.approx(2.82, abs=1e-9)
        # conventional rocksalt has Na at sqrt(2)/2 a, Cl at sqrt(3)/2 a, Na at a inside 6 A
        assert len(shells) == 4


class TestSynthXanes:
    def labels(self, cn, mnnd=2.5, nbr="O"):
        return DescriptorLabels(cn, mnnd, Element.from_symbol(nbr), (mnnd,) * cn)

    def grid(self):
        # 1 eV spacing puts the mnnd=2.5 white line (e0 + 8 eV) exactly on-grid
        return EnergyGrid(np.linspace(P["e0_ev"] - 30.0, P["e0_ev"] + 70.0, 101))

    def test_deterministic(self):
        cu = Element.from_symbol("Cu")
        a = synth_xanes(self.labels(6), cu, P, self.grid())
        b = synth_xanes(self.labels(6), cu, P, self.grid())
        assert np.array_equal(a.mu, b.mu)

    def test_white_line_height_ratio(self):
        cu = Element.from_symbol("Cu")
        mu = {cn: synth_xanes(self.labels(cn), cu, P, self.grid()).mu for cn in (2, 3, 6)}
        num = mu[6] - mu[3]
        den = mu[6] - mu[2]
        sel = np.abs(den) > 1e-6
        assert sel.any()
        assert np.allclose(num[sel] / den[sel], (6 - 3) / (6 - 2), atol=1e-9)

    def test_cn_six_vs_four_peak_difference(self):
        cu = Element.from_symbol("Cu")
        diff = (
            synth_xanes(self.labels(6), cu, P, self.grid()).mu
            - synth_xanes(self.labels(4), cu, P, self.grid()).mu
        )
        assert np.max(diff) == pytest.approx(0.2, abs=1e-12)

    def test_pre_edge_tracks_neighbor_z(self):
        cu = Element.from_symbol("Cu")
        o = synth_xanes(self.labels(6, nbr="O"), cu, P, self.grid()).mu
        s = synth_xanes(self.labels(6, nbr="S"), cu, P, self.grid()).mu
        diff = s - o
        assert np.max(diff) == pytest.approx(0.002 * (16 - 8), abs=1e-12)

    def test_grid_must_span_edge(self):
        cu = Element.from_symbol("Cu")
        with pytest.raises(ValueError):
            synth_xanes(self.labels(6), cu, P, EnergyGrid(np.linspace(P["e0_ev"] + 1, P["e0_ev"] + 50, 20)))

    def test_normalizes_to_unit_tail(self):
        # edge-jump normalization with the pre-edge and post-edge plateaus taken
        # as the first and last tenth of the default 100-point grid
        cu = Element.from_symbol("Cu")
        mu = synth_xanes(self.labels(6), cu, P, default_xanes_grid(P["e0_ev"])).mu
        pre_edge = float(np.mean(mu[:10]))
        jump = float(np.mean(mu[-10:])) - pre_edge
        assert jump > 1e-9
        out = (mu - pre_edge) / jump
        assert abs(float(np.mean(out[-10:])) - 1.0) < 1e-6


class TestDefaults:
    def test_edge_energy_hits_cu(self):
        assert default_edge_energy(Element.from_symbol("Cu")) == pytest.approx(8979.0, rel=1e-3)

    def test_edge_energy_monotone(self):
        e = [default_edge_energy(Element(z)) for z in range(8, 40)]
        assert all(a < b for a, b in zip(e, e[1:]))

    def test_exafs_grid_uniform_in_k(self):
        grid = default_exafs_grid(8979.0)
        k = wavenumber(grid.values, 8979.0)
        assert np.allclose(np.diff(k), np.diff(k)[0], atol=1e-9)
        assert k[0] == pytest.approx(2.5) and k[-1] == pytest.approx(12.5)

    def test_single_shell_estimate_round_trip(self):
        from xastruct.spectra import Spectrum

        grid = default_exafs_grid(P["e0_ev"], n=400)
        k = wavenumber(grid.values, P["e0_ev"])
        for R in (2.0, 2.5, 3.0):
            chi = chi_shell(ScatteringShell(6, R, 8, 0.003), P, k)
            sp = Spectrum(grid, 1.0 + chi, "EXAFS", "K", Element.from_symbol("Cu"), "stub")
            est = radius_from_spacing(median_crossing_spacing(k, sp.mu - 1.0), P["r_phase"])
            assert abs(est - R) / R < 0.05
