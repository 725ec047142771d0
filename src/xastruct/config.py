"""Parsing of flat config values, shared by the CLI and the training configs.

It imports nothing of the package, so a command that reads its config does
not load the model stack.
"""


def config_value(key: str, value, cast, least=None):
    """cast(value), at least `least` when one is given; else a ValueError naming the key."""
    try:
        value = cast(value)
    except (TypeError, ValueError):
        kind = {float: "a number", int: "an integer"}[cast]
        raise ValueError(f"config key {key!r} must be {kind}, got {value!r}") from None
    if least is not None and value < least:
        raise ValueError(f"config key {key!r} must be at least {least}, got {value}")
    return value
