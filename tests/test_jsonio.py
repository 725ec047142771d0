"""The JSON file codec, and the rule that no other module parses or writes JSON files itself."""

import json
import re
from pathlib import Path

import pytest

import xastruct
from xastruct.crystal import read_structures, structure_from_dict
from xastruct.jsonio import list_of, read_json, read_jsonl, real, record, string, write_json, write_jsonl
from xastruct.pipelines import ForwardModel
from xastruct.spectra import labels_from_dict, load_dataset

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


def test_read_json_counts_crlf_lines_as_lines(tmp_path):
    path = tmp_path / "cut.json"
    path.write_bytes(b'{"a": 1,\r\n "b": [1,\r\n 2,')
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: Expecting value$"):
        read_json(path)
    path.write_bytes(b'{"a": "\xc3\xa9",\r\n "b": NaN}\r\n')
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: non-finite number NaN$"):
        read_json(path)


@pytest.mark.parametrize("raw,lineno,byte", [
    (b'{"a": "\xff"}', 1, "0xff"),
    (b'{"a": 1,\n "b": "caf\xe9"}\n', 2, "0xe9"),  # Latin-1, not UTF-8
    (b'{"a": "\xc3\xa9",\r\n\r\n "b": "\xc3"}', 3, "0xc3"),  # cut multi-byte sequence
])
def test_read_json_non_utf8_byte_names_file_and_line(raw, lineno, byte, tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(raw)
    with pytest.raises(ValueError) as exc:
        read_json(path)
    assert str(exc.value) == f"{path}:{lineno}: byte {byte} is not UTF-8"


@pytest.mark.parametrize("read", [load_dataset, read_structures], ids=["manifest", "structures"])
def test_read_jsonl_non_utf8_byte_names_file_and_line(read, tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'\n{"id": "\xff"}\n')
    with pytest.raises(ValueError) as exc:
        read(path)
    assert str(exc.value) == f"{path}:2: byte 0xff is not UTF-8"


# a real past the float range reads as an infinity, so it is refused as one
@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999",
                                   pytest.param("1" + "0" * 400 + ".5", id="400-digit real")])
def test_read_json_refuses_non_finite_numbers_naming_file_and_line(token, tmp_path):
    path = tmp_path / "ckpt.json"
    # the same words inside strings are text, not numbers
    path.write_text(f'{{"header": {{"note": "NaN or Infinity \\" NaN",\n "y_mean": {token}}}}}\n')
    with pytest.raises(ValueError) as exc:
        read_json(path)
    assert str(exc.value) == f"{path}:2: non-finite number {token}"


def test_read_json_integer_past_the_digit_limit_names_the_file(tmp_path):
    path = tmp_path / "ckpt.json"
    path.write_text('{"header": {"n": ' + "1" * 5000 + "}}\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: Exceeds the limit"):
        read_json(path)


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
    ('{"a": [1, 2e308]}', "non-finite number 2e308"),
])
def test_read_jsonl_error_names_file_and_line(line, message, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "rows.jsonl"
    path.write_text(f'{{"a": 1}}\n\n{line}\n')
    with pytest.raises(ValueError) as exc:
        read_jsonl(path, _open_field)
    assert str(exc.value) == f"{path}:3: {message}"


def test_list_check_passes_the_list_through_and_names_the_first_bad_entry():
    values = [0.5, 1, -2.0]
    assert list_of(real())(values, ("a",)) is values
    with pytest.raises(ValueError, match=r"^field 'a\[3\]': expected a finite number, got '4'$"):
        list_of(real())([*values, "4", True], ("a",))
    # a list of records has no single-value test: each entry is walked
    with pytest.raises(ValueError, match=r"^field 'a\[1\]\.b': expected a string, got 2$"):
        list_of(record({"b": string()}))([{"b": "x"}, {"b": 2}], ("a",))


_STRUCTURE = {"lattice": [3.0, 0, 0, 0, 3.0, 0, 0, 0, 3.0],
              "sites": [{"element": "Cu", "frac": [0, 0, 0]}, {"element": "O", "frac": [0.5, 0.5, 0.5]}]}


# a bad entry after good ones, in each kind of list a reader checks: the name gives its index
@pytest.mark.parametrize("read,doc,name", [
    (structure_from_dict, {**_STRUCTURE, "lattice": [3.0, 0, 0, 0, 3.0, 0, 0, 0, "3"]}, "lattice[8]"),
    (structure_from_dict,
     {**_STRUCTURE, "sites": [_STRUCTURE["sites"][0], {"element": "O", "frac": [0.5, 0.5, None]}]},
     "sites[1].frac[2]"),
    (labels_from_dict, {"cn": 4, "mnnd": 2.0, "neighbor_type": "O", "shell_distances": [2.0] * 3 + ["2"]},
     "labels.shell_distances[3]"),
    (lambda header: record(ForwardModel.HEADER)(header, ("header",)),
     {"element": "Cu", "edge": "K", "kind": "XANES", "n_out": 60, "arch": {},
      "grid": [8979.0 + i for i in range(57)] + [False, 9037.0, 9038.0]},
     "header.grid[57]"),
], ids=["lattice", "frac", "shell distances", "forward grid"])
def test_list_entry_after_good_ones_is_named_by_its_index(read, doc, name):
    with pytest.raises(ValueError, match=rf"field '{re.escape(name)}': expected a finite number, got"):
        read(doc)


def test_only_jsonio_parses_or_writes_json_files():
    pattern = re.compile(r"json\.(load|dump)\(|JSONDecodeError")
    offenders = [f"{path.name}:{n}" for path in sorted(SRC.glob("*.py")) if path.name != "jsonio.py"
                 for n, line in enumerate(path.read_text().splitlines(), 1) if pattern.search(line)]
    assert offenders == []
