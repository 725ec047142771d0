"""The JSON file codec: every JSON document xastruct writes or reads whole.

Writers sort keys and end the file with a newline, so a rerun writes the
same bytes. Readers raise a ValueError that names the file and the line at
fault, never a bare decoder error.
"""

import json
from pathlib import Path


def write_json(path, doc, indent=None) -> None:
    """`doc` as sorted-key JSON plus a newline; creates the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, indent=indent) + "\n")


def read_json(path):
    """The parsed document of a JSON file; a syntax error names the file and line."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{exc.lineno}: {exc.msg}") from None


def read_jsonl(path, convert) -> list:
    """convert(record) of each non-blank line of a JSON-lines file.

    A line that does not parse or convert raises a ValueError naming the file
    and the line; a missing key reads "missing field 'k'".
    """
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(convert(json.loads(line)))
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: missing field {exc.args[0]!r}") from None
            except OSError as exc:
                raise ValueError(f"{path}:{lineno}: {exc.strerror}: {exc.filename}") from None
            except (AttributeError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return out
