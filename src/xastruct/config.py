"""The config-key table: every flat `key = value` setting that a command reads.

A row of KEYS gives a key's type, default (as a config file writes it),
bounds, reading commands and exit code (2 for a `usage` key, else 1); RULES
relate two keys. The CLI runs `check_config` before a command reads or
writes a file. Synth, the oracle, training and the forest take the dict it
returns and read its keys directly, as does a checkpoint header's arch. The
module imports nothing of the package, so reading a config loads no model
code.
"""

import math
import numbers
from dataclasses import dataclass


class UsageError(ValueError):
    """A usage error: the command line or a usage key is wrong (exit 2)."""


# by atomic number, from 1
ELEMENT_SYMBOLS = tuple((
    "H He Li Be B C N O F Ne Na Mg Al Si P S Cl Ar K Ca Sc Ti V Cr Mn Fe Co Ni Cu Zn Ga Ge As "
    "Se Br Kr Rb Sr Y Zr Nb Mo Tc Ru Rh Pd Ag Cd In Sn Sb Te I Xe Cs Ba La Ce Pr Nd Pm Sm Eu Gd "
    "Tb Dy Ho Er Tm Yb Lu Hf Ta W Re Os Ir Pt Au Hg Tl Pb Bi Po At Rn Fr Ra Ac Th Pa U Np Pu Am "
    "Cm Bk Cf Es Fm Md No Lr Rf Db Sg Bh Hs Mt Ds Rg Cn Nh Fl Mc Lv Ts Og").split())
TEMPLATE_NAMES = ("sc", "fcc", "rocksalt", "fluorite_cation", "fluorite_anion")


@dataclass(frozen=True)
class Key:
    """One config key. A `list` key is a comma-separated list of `choices`, each an `item`."""

    type: type  # int, float, str or list
    default: str  # "" leaves an optional key unset: it reads as None
    commands: str  # the commands that read the key, space-separated
    least: float = None
    above: bool = False  # `least` itself is refused
    positive: bool = False  # above 0, and at most `most` where it is given
    most: float = None
    odd: bool = False
    choices: tuple = None
    item: str = None
    usage: bool = False


DATA = {
    "seed": Key(int, "0", "synth extract train eval predict plot", least=0),
    "n_samples": Key(int, "100", "synth", least=0, usage=True),
    "elements": Key(list, "Ti,Fe,Cu,Zn", "synth", choices=ELEMENT_SYMBOLS,
                    item="element symbol", usage=True),
    "templates": Key(list, ",".join(TEMPLATE_NAMES), "synth", choices=TEMPLATE_NAMES,
                     item="template", usage=True),
    "mnnd_min": Key(float, "1.8", "synth", least=0.5, above=True, usage=True),  # the 0.5 A floors
    "mnnd_max": Key(float, "3.2", "synth", usage=True),
    "strain": Key(float, "0.05", "synth", least=0, usage=True),
    "jitter": Key(float, "0.05", "synth", least=0, usage=True),
    "n_grid": Key(int, "100", "synth", least=2, usage=True),
    "cutoff": Key(float, "6.0", "synth train", positive=True, usage=True),
    "absorber": Key(int, "", "extract predict", least=0),
}
ORACLE = {
    "s0_squared": Key(float, "0.9", "synth", positive=True, most=1.2),
    "e0_ev": Key(float, "", "synth", positive=True),
    "lambda_a": Key(float, "0.8", "synth"),
    "lambda_b": Key(float, "3.0", "synth", positive=True),
    "amp_scale": Key(float, "1.0", "synth", positive=True),
    "sigma2": Key(float, "0.003", "synth", least=0),
    "r_phase": Key(float, "0.35", "synth"),
}
TRAINING = {
    "task": Key(str, "", "train", choices=("forward", "mnnd", "neighbor", "cn"), usage=True),
    "forward_kind": Key(str, "XANES", "train", choices=("XANES", "EXAFS"), usage=True),
    "scope": Key(str, "", "train", choices=("per-element", "unified")),
    "lr": Key(float, "0.0001", "train", positive=True),
    "weight_decay": Key(float, "0.01", "train", least=0),
    "epochs": Key(int, "100", "train", least=1),
    "batch_size": Key(int, "16", "train eval", least=1),
    "patience": Key(int, "20", "train", least=1),
    "train_loss_stop": Key(float, "0", "train", least=0),
}
# a size of 0 divides by zero in a Glorot bound; the radial basis needs two centers for its width
ARCH = {
    "encoder_dim": Key(int, "64", "train", least=1),
    "encoder_rounds": Key(int, "3", "train", least=0),
    "encoder_rbf": Key(int, "16", "train", least=2),
    "encoder_hidden": Key(int, "64", "train", least=1),
    "encoder_k": Key(int, "2", "train", least=1),
    "forward_hidden": Key(int, "128", "train", least=1),
    "forward_k": Key(int, "3", "train", least=1),
    "masked_mean_by_mask_sum": Key(int, "0", "train", choices=(0, 1)),
    "embed_dim": Key(int, "32", "train", least=1),
    "embed_hidden": Key(int, "64", "train", least=1),
    "embed_k": Key(int, "2", "train", least=1),
    "conv_channels": Key(int, "8", "train", least=1),
    "conv_blocks": Key(int, "2", "train", least=1),
    "conv_kernel": Key(int, "3", "train", least=1, odd=True),
    "head_hidden": Key(int, "64", "train", least=1),
    "head_k": Key(int, "2", "train", least=1),
}
FOREST = {
    "n_trees": Key(int, "100", "train", least=1),
    "max_depth": Key(int, "16", "train", least=1),
    "min_samples_leaf": Key(int, "2", "train", least=1),
}
KEYS = {**DATA, **ORACLE, **TRAINING, **ARCH, **FOREST}

# (the key an error names, the other key it reads, the rule their values break, else False)
RULES = (
    ("mnnd_min", "mnnd_max", lambda lo, hi: lo > hi and f"not exceed 'mnnd_max' ({hi})"),
    ("lambda_a", "lambda_b", lambda a, b: b + 16.0 * a <= 0 and "keep lambda(k) > 0 on (0, 16]"),
    ("conv_blocks", "embed_dim", lambda n, d: (2 * d) >> n == 0  # each block halves 2 * embed_dim
     and f"halve 2 * embed_dim = {2 * d} at most {(2 * d).bit_length() - 1} times"),
)


def _error(key: str, text: str) -> ValueError:
    """The error of a bad value of `key`, kept as its `key`: a UsageError for a usage key."""
    exc = (UsageError if KEYS[key].usage else ValueError)(f"config key {key!r} {text}")
    exc.key = key
    return exc


# a row type's name in errors, and the class a value that is not a string must be of
_KINDS = {int: ("an integer", numbers.Integral), float: ("a number", numbers.Real),
          str: ("a string", str)}


def read(cfg: dict, key: str):
    """cfg's value of `key`, else its default, typed by its row and in bounds; None if unset."""
    row = KEYS[key]
    value = cfg.get(key, row.default)
    if row.default == "" and value in ("", None):
        return None
    if row.type is list:
        if not isinstance(value, list):
            value = [item.strip() for item in str(value).split(",") if item.strip()]
        unknown = [item for item in value if item not in row.choices]
        if unknown or not value:
            raise _error(key, f"names an unknown {row.item}: {unknown[0]!r}" if unknown
                         else f"must name at least one {row.item}")
        return value
    kind, cls = _KINDS[row.type]
    try:  # a string parses; any other value must already be of the row's kind
        if not isinstance(value, str) and (isinstance(value, bool) or not isinstance(value, cls)):
            raise TypeError
        value = row.type(value)
    except (TypeError, ValueError):
        raise _error(key, f"must be {kind}, got {value!r}") from None
    if row.type is float and not math.isfinite(value):
        broken = "be finite"
    elif row.least is not None and (value <= row.least if row.above else value < row.least):
        broken = f"be {'above' if row.above else 'at least'} {row.least}"
    elif row.positive and not 0 < value <= (row.most or math.inf):
        broken = "be positive" if row.most is None else f"lie in (0, {row.most}]"
    elif row.odd and value % 2 == 0:
        broken = "be odd"
    elif row.choices is not None and value not in row.choices:
        broken = "be " + " or ".join(map(str, row.choices))
    else:
        return value
    raise _error(key, f"must {broken}, got {repr(value) if row.type is str else value}")


def check_config(cfg: dict) -> dict:
    """Every key of the table, typed by read(), then RULES; a key no row names is a usage error."""
    for key in cfg:
        if key not in KEYS:
            raise UsageError(f"unknown config key {key!r}")
    values = {key: read(cfg, key) for key in KEYS}
    for key, other, rule in RULES:
        broken = rule(values[key], values[other])
        if broken:
            raise _error(key, f"must {broken}, got {values[key]}")
    return values
