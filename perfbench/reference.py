"""Independent reference computations the benchmark checks xastruct against.

Nothing here imports xastruct. The first shell comes from a brute-force
enumeration of periodic images, bounded through the inverse lattice rather
than the cell heights the program uses, and the EXAFS signal is the
single-scattering sum written out from the oracle's published formula.
"""

import math
from collections import Counter

import numpy as np

FIRST_SHELL_FACTOR = 1.1  # first shell: every neighbor within 1.1 x d_min
SHELL_CUTOFF = 6.0  # angstrom; the oracle sums shells out to here
SHELL_BIN = 0.01  # angstrom; neighbors of one species within a bin form a shell
EXAFS_K_RANGE = (2.5, 12.5)  # 1/angstrom; the EXAFS energy grid is uniform in k

# Oracle parameters at their defaults: S0^2, mean free path lambda(k) = a k + b,
# amplitude scale, Debye-Waller sigma^2 and phase radius.
S0_SQUARED = 0.9
LAMBDA_A = 0.8
LAMBDA_B = 3.0
AMP_SCALE = 1.0
SIGMA2 = 0.003
R_PHASE = 0.35

NOMINAL_CN = {"sc": 6, "fcc": 12, "rocksalt": 6, "fluorite_cation": 8, "fluorite_anion": 4}

_SYMBOLS = (
    "H He Li Be B C N O F Ne Na Mg Al Si P S Cl Ar K Ca Sc Ti V Cr Mn Fe Co Ni Cu Zn "
    "Ga Ge As Se Br Kr Rb Sr Y Zr Nb Mo Tc Ru Rh Pd Ag Cd In Sn Sb Te I Xe"
).split()
ATOMIC_NUMBER = {symbol: z for z, symbol in enumerate(_SYMBOLS, start=1)}


def image_distances(basis, frac, center, radius):
    """(distances, site indices) of every periodic image within `radius` of `center`.

    The center's own zero-offset image is left out. A displacement r with
    |r| <= radius has fractional components |f_i| <= radius * |column i of
    inv(basis)|; site differences add less than one cell on each axis.
    """
    basis = np.asarray(basis, dtype=float)
    frac = np.asarray(frac, dtype=float)
    reach = radius * np.linalg.norm(np.linalg.inv(basis), axis=0)
    spans = [np.arange(-n, n + 1) for n in np.ceil(reach).astype(int) + 1]
    images = np.stack(np.meshgrid(*spans, indexing="ij"), axis=-1).reshape(-1, 3)
    delta = frac[None, :, :] - frac[center][None, None, :] + images[:, None, :]
    dist = np.sqrt(np.sum((delta @ basis) ** 2, axis=-1))
    keep = (dist <= radius) & (dist > 1e-9)
    return dist[keep], np.nonzero(keep)[1]


def first_shell_labels(basis, frac, species, center):
    """(cn, mnnd, neighbor species) of site `center`: the shell within 1.1 x d_min.

    The dominant species breaks count ties toward the lowest atomic number.
    """
    basis = np.asarray(basis, dtype=float)
    # d_min is at most the shortest lattice vector (the center's own image)
    radius = FIRST_SHELL_FACTOR * float(np.min(np.linalg.norm(basis, axis=1)))
    dist, sites = image_distances(basis, frac, center, radius)
    shell = dist <= FIRST_SHELL_FACTOR * dist.min()
    counts = Counter(species[j] for j in sites[shell])
    dominant = min(counts, key=lambda s: (-counts[s], ATOMIC_NUMBER[s]))
    return int(shell.sum()), float(dist[shell].mean()), dominant


def scattering_shells(basis, frac, species, center):
    """[(n_atoms, radius, Z)] for the neighbors within SHELL_CUTOFF.

    Neighbors group by (species, distance rounded to SHELL_BIN); a shell's
    radius is the mean distance of its members.
    """
    dist, sites = image_distances(basis, frac, center, SHELL_CUTOFF)
    groups = {}
    for d, j in zip(dist.tolist(), sites.tolist()):
        z = ATOMIC_NUMBER[species[j]]
        groups.setdefault((z, round(d / SHELL_BIN)), []).append(d)
    return [(len(ds), sum(ds) / len(ds), z) for (z, _), ds in sorted(groups.items())]


def exafs_k_grid(n_points):
    return np.linspace(*EXAFS_K_RANGE, n_points)


def single_scattering_chi(shells, k):
    """chi(k) = sum over shells of n S0^2 F(k) / (k R^2) e^(-2R/lambda(k))
    e^(-2 sigma^2 k^2) sin(2kR + phi(k)),

    with F(k) = AMP_SCALE Z / (1 + k^2) and phi(k) = -2 k R_PHASE.
    """
    k = np.asarray(k, dtype=float)
    lam = LAMBDA_A * k + LAMBDA_B
    chi = np.zeros_like(k)
    for n, r, z in shells:
        amplitude = n * S0_SQUARED * AMP_SCALE * z / ((1.0 + k * k) * k * r * r)
        damping = np.exp(-2.0 * r / lam) * np.exp(-2.0 * SIGMA2 * k * k)
        chi += amplitude * damping * np.sin(2.0 * k * r - 2.0 * k * R_PHASE)
    return chi


def template_of(structure_id):
    """Template name from a synthesized structure id '<template>-<element>-<index>'."""
    return structure_id.rsplit("-", 2)[0]


def structure_arrays(record):
    """(basis, frac, species) of a structures.jsonl record."""
    basis = np.array(record["lattice"], dtype=float).reshape(3, 3)
    frac = np.array([site["frac"] for site in record["sites"]], dtype=float)
    species = [site["element"] for site in record["sites"]]
    return basis, frac, species


# --- metrics ------------------------------------------------------------------


def mae(pred, target):
    return float(np.mean(np.abs(np.asarray(pred, float) - np.asarray(target, float))))


def r2(pred, target):
    pred = np.asarray(pred, float)
    target = np.asarray(target, float)
    return 1.0 - float(np.sum((target - pred) ** 2)) / float(np.sum((target - target.mean()) ** 2))


def accuracy(pred, target):
    return sum(p == t for p, t in zip(pred, target)) / len(target)


def close(a, b, rel=1e-9):
    return a is not None and b is not None and math.isclose(a, b, rel_tol=rel, abs_tol=rel)
