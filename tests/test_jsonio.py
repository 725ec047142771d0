"""The JSON file codec, and the rule that no other module parses or writes JSON files itself."""

import json
import re
from pathlib import Path

import pytest

import xastruct
from xastruct.jsonio import read_json, read_jsonl, write_json, write_jsonl

SRC = Path(xastruct.__file__).parent


def test_write_json_bytes_are_json_dump_and_a_newline(tmp_path):
    doc = {"b": [1.5, None, "é"], "a": {"z": 1, "y": True}}
    for indent in (None, 1):
        path = tmp_path / f"indent{indent}" / "doc.json"  # the parent is created
        write_json(path, doc, indent=indent)
        expected = tmp_path / f"expected{indent}.json"
        with open(expected, "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=indent)
            fh.write("\n")
        assert path.read_bytes() == expected.read_bytes()
        assert read_json(path) == doc


def test_read_json_syntax_error_names_file_and_line(tmp_path):
    path = tmp_path / "cut.json"
    path.write_text('{"a": 1,\n "b": ')
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: Expecting value$"):
        read_json(path)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_read_json_refuses_non_finite_numbers_naming_file_and_line(token, tmp_path):
    path = tmp_path / "ckpt.json"
    # the same words inside strings are text, not numbers
    path.write_text(f'{{"header": {{"note": "NaN or Infinity \\" NaN",\n "y_mean": {token}}}}}\n')
    with pytest.raises(ValueError) as exc:
        read_json(path)
    assert str(exc.value) == f"{path}:2: non-finite number {token}"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("write", [write_json, write_jsonl])
def test_writers_refuse_non_finite_numbers_naming_the_file(write, value, tmp_path):
    path = tmp_path / "metrics.json"
    doc = {"mae": value, "r2": [1.0, value]}
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: Out of range float values"):
        write(path, doc if write is write_json else [{"mae": 1.0}, doc])
    assert not path.exists()


def test_write_jsonl_bytes_are_one_json_dump_a_line(tmp_path):
    records = [{"b": 1.5, "a": "é"}, {"z": [None, True]}]
    write_jsonl(tmp_path / "rows.jsonl", records)
    expected = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    assert (tmp_path / "rows.jsonl").read_text() == expected
    assert read_jsonl(tmp_path / "rows.jsonl", lambda r: r) == records


def _open_field(record):
    """A record's field 'a', opened as a file when it is a string."""
    value = record["a"]
    if isinstance(value, str):
        open(value).close()
    return value


@pytest.mark.parametrize("line,message", [
    ('{"a": [1', "Expecting ',' delimiter: line 1 column 9 (char 8)"),
    ('{"b": 1}', "missing field 'a'"),
    ('{"a": "gone.csv"}', "No such file or directory: gone.csv"),
    ("[1]", "list indices must be integers or slices, not str"),
    ('{"a": NaN}', "non-finite number NaN"),
    ('{"a": [1, -Infinity]}', "non-finite number -Infinity"),
])
def test_read_jsonl_error_names_file_and_line(line, message, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "rows.jsonl"
    path.write_text(f'{{"a": 1}}\n\n{line}\n')
    with pytest.raises(ValueError) as exc:
        read_jsonl(path, _open_field)
    assert str(exc.value) == f"{path}:3: {message}"


def test_only_jsonio_parses_or_writes_json_files():
    pattern = re.compile(r"json\.(load|dump)\(|JSONDecodeError")
    offenders = [f"{path.name}:{n}" for path in sorted(SRC.glob("*.py")) if path.name != "jsonio.py"
                 for n, line in enumerate(path.read_text().splitlines(), 1) if pattern.search(line)]
    assert offenders == []
