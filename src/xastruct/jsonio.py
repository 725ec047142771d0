"""The JSON file codec: every JSON document or JSON-lines file xastruct writes,
and every JSON document it reads whole.

Writers sort keys and end each document with a newline, so a rerun writes
the same bytes. Readers raise a ValueError that names the file and the line
at fault, never a bare decoder error. Numbers are finite both ways: writers
refuse NaN and the infinities, readers the NaN, Infinity and -Infinity
tokens that json otherwise takes.
"""

import json
import re
from pathlib import Path


def _refuse_constant(token: str):
    raise ValueError(f"non-finite number {token}")


_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)
# a JSON string, or a token that parse_constant sees
_STRING_OR_CONSTANT = re.compile(r'"(?:[^"\\]|\\.)*"|NaN|-?Infinity')


def _dumps(path, doc, indent=None) -> str:
    try:
        return json.dumps(doc, sort_keys=True, indent=indent, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_json(path, doc, indent=None) -> None:
    """`doc` as sorted-key JSON plus a newline; creates the parent directory."""
    path = Path(path)
    text = _dumps(path, doc, indent)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def write_jsonl(path, records) -> None:
    """Each record as one line of sorted-key JSON, in one write."""
    Path(path).write_text("".join(_dumps(path, record) for record in records))


def read_json(path):
    """The parsed document of a UTF-8 JSON file; a byte that is not UTF-8, a syntax
    error or a non-finite number names the line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode()
        return _DECODER.decode(text)
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{lineno}: byte 0x{raw[exc.start]:02x} is not UTF-8") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: {exc.msg}") from None
    except ValueError as exc:  # _refuse_constant's, at the first constant outside a string
        at = next(m.start() for m in _STRING_OR_CONSTANT.finditer(text) if m.group()[0] != '"')
        lineno = text.count("\n", 0, at) + 1
        raise ValueError(f"{path}:{lineno}: {exc}") from None


def read_jsonl(path, convert) -> list:
    """convert(record) of each non-blank line of a UTF-8 JSON-lines file.

    A line that is not UTF-8, or that does not parse or convert, raises a
    ValueError naming the file and the line; a missing key reads "missing
    field 'k'". A line ends at a newline byte, as read_json counts lines.
    """
    out = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode().strip()
            except UnicodeDecodeError as exc:
                byte = raw[exc.start]
                raise ValueError(f"{path}:{lineno}: byte 0x{byte:02x} is not UTF-8") from None
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
