"""The JSON file codec: every JSON document or JSON-lines file xastruct writes
or reads, and the checks of the fields it reads back.

Writers sort keys and end each document with a newline, so a rerun writes
the same bytes; the checkpoint writer, which assembles its document from
parts, encodes each part with dumps. read_text reads every input text file
(JSON, JSON lines, spectrum CSV, config) unbuffered and decodes it as UTF-8,
naming the line of a bad byte; a JSON-lines file is decoded whole first, so
such a byte is reported before a bad record on an earlier line. Readers
raise a ValueError that names the file and the line at fault, never a bare
decoder error. Numbers are finite both ways: writers refuse NaN and the
infinities, readers the NaN, Infinity and -Infinity tokens that json
otherwise takes, and reals past the float range, such as 1e999, that float()
reads as infinities.

A check takes a decoded value and its path in the document, the keys and
list indices from its root such as ("sites", 0, "frac"), and returns the
value; a value of another type raises "field '<path>': expected <what>, got
<value>", the path written as `sites[0].frac`. The checks accept what the
writers write and nothing looser: a boolean is no integer and a quoted
number no number.
"""

import json
import math
import re
import sys
from pathlib import Path

from .config import ELEMENT_SYMBOLS


def _refuse_constant(token: str):
    raise ValueError(f"non-finite number {token}")


def _finite_float(token: str) -> float:
    value = float(token)
    if math.isinf(value):
        _refuse_constant(token)
    return value


_DECODER = json.JSONDecoder(parse_constant=_refuse_constant, parse_float=_finite_float)
# a JSON string, a token that parse_constant sees, or a number
_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|NaN|-?Infinity|-?(?:0|[1-9]\d*)(?:\.\d+)?(?:[eE][-+]?\d+)?')


def dumps(path, doc, indent=None) -> str:
    """`doc` as sorted-key JSON; a non-finite number raises naming `path`."""
    try:
        return json.dumps(doc, sort_keys=True, indent=indent, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_bytes(path, data: bytes) -> None:
    """`data` in one write; creates the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


def write_json(path, doc, indent=None) -> None:
    """`doc` as sorted-key JSON plus a newline; creates the parent directory."""
    write_bytes(path, (dumps(path, doc, indent) + "\n").encode())


def write_jsonl(path, records) -> None:
    """Each record as one line of sorted-key JSON, in one write."""
    Path(path).write_text("".join(dumps(path, record) + "\n" for record in records))


def read_bytes(path) -> bytes:
    """The whole file, read unbuffered: a reader that reads it once needs no BufferedReader."""
    with open(path, "rb", buffering=0) as fh:
        return fh.read()


def read_text(path) -> str:
    """The whole file as UTF-8 text; a byte that is not UTF-8 names the file and its line."""
    raw = read_bytes(path)
    try:
        return raw.decode()
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{lineno}: byte 0x{raw[exc.start]:02x} is not UTF-8") from None


def read_json(path):
    """The parsed document of a UTF-8 JSON file; a byte that is not UTF-8, a syntax
    error or a non-finite number names the line."""
    text = read_text(path)
    try:
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: {exc.msg}") from None
    except ValueError as exc:
        # _refuse_constant's, at the first such token outside a string; else int()'s digit limit
        token = str(exc).removeprefix("non-finite number ")
        at = next((m.start() for m in _TOKEN.finditer(text) if m.group() == token), None)
        if at is None:
            raise ValueError(f"{path}: {exc}") from None
        lineno = text.count("\n", 0, at) + 1
        raise ValueError(f"{path}:{lineno}: {exc}") from None


def read_jsonl(path, convert) -> list:
    """convert(record) of each non-blank line of a UTF-8 JSON-lines file.

    A byte that is not UTF-8, or a line that does not parse or convert, raises
    a ValueError naming the file and the line; a missing key reads "missing
    field 'k'". A line ends at a newline byte, as read_json counts lines.
    """
    out = []
    for lineno, line in enumerate(read_text(path).split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        try:
            out.append(convert(_DECODER.decode(line)))
        except KeyError as exc:
            raise ValueError(f"{path}:{lineno}: missing field {exc.args[0]!r}") from None
        except OSError as exc:
            raise ValueError(f"{path}:{lineno}: {exc.strerror}: {exc.filename}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return out


# --- field checks --------------------------------------------------------------

_FLOAT_MAX = sys.float_info.max


def _expected(path: tuple, what: str, got: str) -> ValueError:
    """The error of the field at `path`, its keys and list indices from the document's root."""
    name = "".join(f"[{p}]" if type(p) is int else f".{p}" for p in path).lstrip(".")
    return ValueError(f"{f'field {name!r}: ' if name else ''}expected {what}, got {got}")


def record(checks: dict = None):
    """Check: a JSON object; with `checks`, the dict of checks[key](value, path) of each key
    of `checks`, where a key that the object lacks has the value None."""
    def check(value, path):
        if type(value) is not dict:
            raise _expected(path, "a JSON object", type(value).__name__)
        if checks is None:
            return value
        return {key: c(value.get(key), (*path, key)) for key, c in checks.items()}
    return check


def list_of(item):
    """Check: a JSON list, each entry checked by `item` and named by its index. Over a
    check of single values, one pass of its test takes the whole list, and the walk
    with paths runs only to name the first entry that fails."""
    ok = getattr(item, "ok", None)

    def check(value, path):
        if type(value) is not list:
            raise _expected(path, "a list", repr(value))
        if ok is None or not all(map(ok, value)):
            for i, x in enumerate(value):
                item(x, (*path, i))
        return value
    return check


def _check(ok, what: str):
    """Check: a value for which ok(value) holds, described as `what`; the check keeps
    the test as its `ok`."""
    def check(value, path):
        if ok(value):
            return value
        raise _expected(path, what, repr(value))
    check.ok = ok
    return check


def integer(least: int = 0):
    """Check: a JSON integer, not a boolean, of at least `least`."""
    return _check(lambda v: type(v) is int and v >= least, f"an integer of at least {least}")


def real(positive: bool = False):
    """Check: a JSON number, above 0 if `positive`. The decoder refuses a real past the
    float range; an integer past it, which float() cannot convert, is refused here."""
    return _check(lambda v: type(v) in (int, float) and abs(v) <= _FLOAT_MAX
                  and (v > 0 or not positive),
                  "a positive, finite number" if positive else "a finite number")


def choice(choices, what: str = None):
    """Check: one of `choices`, of its type too (true is not 1)."""
    allowed = {(type(c), c) for c in choices}
    return _check(lambda v: type(v) not in (list, dict) and (type(v), v) in allowed,
                  what or "one of " + ", ".join(map(repr, choices)))


def string():
    """Check: a JSON string."""
    return _check(lambda v: type(v) is str, "a string")


def optional(check):
    """Check: None, or a value that `check` accepts."""
    return lambda value, path: value if value is None else check(value, path)


ELEMENT = choice(ELEMENT_SYMBOLS, "an element symbol")
