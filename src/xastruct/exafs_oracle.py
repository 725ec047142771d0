"""Physics-based synthetic spectra.

EXAFS comes from a single-scattering shell model: the absorber's periodic
neighbor environment is collapsed into discrete shells and each shell
contributes a damped sine in photoelectron wavenumber,

    chi_shell(k) = n * S0^2 * F(k) / (k R^2)
                   * exp(-2R/lambda(k)) * exp(-2 sigma^2 k^2)
                   * sin(2kR + phi(k)),

with smooth analytic surrogates for the scattering functions:
F(k) = amp_scale * Z / (1 + k^2), phi(k) = -2 k r_phase, and mean free
path lambda(k) = lambda_a * k + lambda_b. The total signal is the plain
sum over shells, mu(E) = 1 + sum_p chi_p(k(E)). The spectrum functions take
`cfg`, the dict that config.check_config returns, and read the ORACLE keys
of the config-key table from it.

XANES has no closed form, so the proxy here is descriptor-keyed by
construction: an arctangent edge step plus a white line whose height
tracks coordination number and whose position tracks mean near-neighbor
distance, plus a small pre-edge feature keyed to the neighbor species.
Deterministic given its inputs, which is what the inverse models need.
"""

import math
from dataclasses import dataclass

import numpy as np

from .crystal import (
    CrystalStructure,
    DescriptorLabels,
    Element,
    Neighbors,
    NoNeighborsError,
    neighbor_search,
)
from .spectra import EXAFS, XANES, EnergyGrid, Spectrum

# k = WAVENUMBER_CONST * sqrt(E - E0), E in eV, k in 1/Angstrom.
# sqrt(2 m_e eV)/hbar = 0.51232 per CODATA; we carry the rounded value.
WAVENUMBER_CONST = 0.5123

SHELL_CUTOFF = 6.0
SHELL_BIN = 0.01

# default XANES shape parameters (eV)
STEP_WIDTH = 2.0
WHITE_LINE_WIDTH = 2.0
PRE_EDGE_OFFSET = -8.0
PRE_EDGE_WIDTH = 1.5

# e0(Z) = coeff * Z**exponent, fit through the Fe and Cu K edges
_E0_COEFF = 6.784
_E0_EXP = 2.1347


class BelowEdgeError(ValueError):
    pass


@dataclass(frozen=True)
class ScatteringShell:
    """One discrete coordination shell around the absorber."""

    n_atoms: int
    radius: float
    z_scatter: int
    sigma2: float

    def __post_init__(self):
        if self.n_atoms < 1:
            raise ValueError("shell needs at least one atom")
        if self.radius <= 0.5:
            raise ValueError(f"shell radius {self.radius} below physical minimum")
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be non-negative")


def default_edge_energy(element: Element) -> float:
    """Synthetic K-edge energy in eV, a power law in atomic number."""
    return _E0_COEFF * element.atomic_number**_E0_EXP


def edge_energy(cfg: dict, element: Element) -> float:
    """The `e0_ev` key if it is set, else `element`'s own edge energy (eV)."""
    return default_edge_energy(element) if cfg["e0_ev"] is None else cfg["e0_ev"]


def wavenumber(E, e0: float):
    """Photoelectron wavenumber k (1/Angstrom) for energy E (eV) above edge e0."""
    E = np.asarray(E, dtype=float)
    if np.any(E < e0):
        raise BelowEdgeError(f"energy below edge e0 = {e0}")
    k = WAVENUMBER_CONST * np.sqrt(E - e0)
    return float(k) if k.ndim == 0 else k


def _chi_rows(counts, radius, z, sigma2: float, cfg: dict, k: np.ndarray) -> np.ndarray:
    """chi_shell at k > 0 of shell columns sharing one sigma2: a row per shell, one broadcast."""
    # Python's pow for radius**2, as seeded spectra were made: r * r can differ in the last bit
    r2 = [r**2 for r in radius.tolist()]
    # sigma2 as a column too, so that np.exp sees [shells, k] arrays as it always has
    columns = np.array([counts, radius, r2, z, np.full(len(r2), sigma2)], dtype=float)
    n, r, r2, z, s2 = columns.reshape((5, -1) + (1,) * k.ndim)
    lam = cfg["lambda_a"] * k + cfg["lambda_b"]
    amplitude = (
        n * cfg["s0_squared"] * cfg["amp_scale"] * z / ((1.0 + k * k) * k * r2)
        * np.exp(-2.0 * r / lam)
        * np.exp(-2.0 * s2 * k * k)
    )
    phase = 2.0 * k * r - 2.0 * k * cfg["r_phase"]
    return amplitude * np.sin(phase)


def chi_shell(shell: ScatteringShell, cfg: dict, k):
    """Single-shell EXAFS contribution at wavenumber(s) k > 0."""
    k = np.asarray(k, dtype=float)
    if np.any(k <= 0):
        raise ValueError("chi_shell requires k > 0")
    chi = _chi_rows([shell.n_atoms], np.array([shell.radius]), [shell.z_scatter], shell.sigma2,
                    cfg, k)[0]
    return float(chi) if chi.ndim == 0 else chi


def _shell_columns(s: CrystalStructure, absorber: int, cutoff: float, neighbors: Neighbors):
    """(count, radius, z) arrays of the absorber's shells; see shells_from_structure."""
    neighbors = neighbor_search(s, absorber, cutoff) if neighbors is None else neighbors
    dist = neighbors.dists
    if not dist.size:
        raise NoNeighborsError(f"no neighbors within {cutoff} A of site {absorber}")
    site_z = np.array([site.element.atomic_number for site in s.sites])
    z = site_z[neighbors.sites]
    bins = np.rint(dist / SHELL_BIN)  # round half to even, as round() does
    # stable: a shell's members keep the neighbor order that np.mean summed them in
    order = np.lexsort((z, bins))
    dist, z, bins = dist[order], z[order], bins[order]
    is_bound = np.ones(dist.size + 1, dtype=bool)  # a shell starts or the list ends
    is_bound[1:-1] = (bins[1:] != bins[:-1]) | (z[1:] != z[:-1])
    bounds = np.flatnonzero(is_bound)
    starts, counts = bounds[:-1], bounds[1:] - bounds[:-1]
    # each row of a [shells, c] gather is summed pairwise, as np.mean sums a group
    radius = np.empty(starts.size)
    for c in np.unique(counts):
        of_size = counts == c
        radius[of_size] = dist[starts[of_size, None] + np.arange(c)].mean(axis=1)
    too_close = radius <= 0.5  # ScatteringShell's check, on the columns
    if too_close.any():
        raise ValueError(f"shell radius {radius[too_close][0].item()} below physical minimum")
    return counts, radius, z[starts]


def shells_from_structure(
    s: CrystalStructure, absorber: int, cfg: dict, cutoff: float = SHELL_CUTOFF,
    neighbors: Neighbors = None,
) -> list:
    """Collapse the periodic neighbor environment into discrete shells.

    Neighbors are grouped by (species, distance binned at 0.01 Angstrom);
    each shell's radius is the mean distance of its members, so lattice
    jitter moves the shell rather than splitting it. ``neighbors``, if
    given, is ``neighbor_search(s, absorber, cutoff)`` computed by the caller.
    """
    counts, radius, z = _shell_columns(s, absorber, cutoff, neighbors)
    return [
        ScatteringShell(n_atoms=n, radius=r, z_scatter=zs, sigma2=cfg["sigma2"])
        for n, r, zs in zip(counts.tolist(), radius.tolist(), z.tolist())
    ]


def synth_exafs(
    s: CrystalStructure,
    absorber: int,
    cfg: dict,
    grid: EnergyGrid,
    cutoff: float = SHELL_CUTOFF,
    edge: str = "K",
    neighbors: Neighbors = None,
    k: np.ndarray = None,
) -> Spectrum:
    """Oracle EXAFS spectrum: mu(E) = 1 + sum over shells of chi_shell(k(E)); `k` is k(E) if given."""
    e0 = edge_energy(cfg, s.sites[absorber].element)
    if grid.values[0] <= e0:
        raise BelowEdgeError("EXAFS grid must lie strictly above the edge")
    counts, radius, z = _shell_columns(s, absorber, cutoff, neighbors)
    k = wavenumber(grid.values, e0) if k is None else k
    chi = np.zeros_like(k)
    for row in _chi_rows(counts, radius, z, cfg["sigma2"], cfg, k):  # summed in shell order
        chi += row
    return Spectrum(grid, 1.0 + chi, EXAFS, edge, s.sites[absorber].element, s.id)


def synth_xanes(
    labels: DescriptorLabels,
    absorber: Element,
    cfg: dict,
    grid: EnergyGrid,
    structure_id: str = "",
    edge: str = "K",
) -> Spectrum:
    """Descriptor-keyed XANES proxy: edge step + white line + pre-edge feature."""
    e0 = edge_energy(cfg, absorber)
    E = grid.values
    if not (E[0] < e0 < E[-1]):
        raise ValueError("XANES grid must span the edge energy")
    step = 0.5 + np.arctan((E - e0) / STEP_WIDTH) / math.pi
    white_pos = e0 + 20.0 / labels.mnnd
    white = 0.1 * labels.cn * np.exp(-0.5 * ((E - white_pos) / WHITE_LINE_WIDTH) ** 2)
    pre_pos = e0 + PRE_EDGE_OFFSET
    pre = (
        0.002
        * labels.neighbor_type.atomic_number
        * np.exp(-0.5 * ((E - pre_pos) / PRE_EDGE_WIDTH) ** 2)
    )
    return Spectrum(grid, step + white + pre, XANES, edge, absorber, structure_id)


def default_xanes_grid(e0: float, n: int = 100) -> EnergyGrid:
    return EnergyGrid.linspace(e0 - 30.0, e0 + 70.0, n)


def default_exafs_grid(e0: float, n: int = 100, k_min: float = 2.5, k_max: float = 12.5) -> EnergyGrid:
    """Energy grid uniform in k, so the chi oscillations are evenly sampled."""
    k = np.linspace(k_min, k_max, n)
    return EnergyGrid(e0 + (k / WAVENUMBER_CONST) ** 2)


# --- signal analysis -------------------------------------------------------


def zero_crossings(k, chi) -> np.ndarray:
    """k-positions where chi changes sign, by linear interpolation."""
    k = np.asarray(k, dtype=float)
    chi = np.asarray(chi, dtype=float)
    sign_flip = np.nonzero(np.sign(chi[:-1]) * np.sign(chi[1:]) < 0)[0]
    frac = chi[sign_flip] / (chi[sign_flip] - chi[sign_flip + 1])
    return k[sign_flip] + frac * (k[sign_flip + 1] - k[sign_flip])


def median_crossing_spacing(k, chi) -> float:
    crossings = zero_crossings(k, chi)
    if crossings.size < 3:
        raise ValueError("too few zero crossings to estimate a spacing")
    return float(np.median(np.diff(crossings)))


def radius_from_spacing(spacing: float, r_phase: float) -> float:
    """Invert spacing = pi / (2R - 2 r_phase) for the shell radius R."""
    return 0.5 * math.pi / spacing + r_phase
