"""``tools/loc.py``, the line counter behind the size figures: its columns add up
to each module's line count, and it classes lines as its docstring says."""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("loc", ROOT / "tools" / "loc.py")
loc = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(loc)


def test_columns_add_up_to_each_module(capsys):
    modules = sorted((ROOT / "src" / "sphereflock").glob("*.py"))
    assert modules
    assert loc.main([]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[0] for row in rows] == [path.stem for path in modules] + ["total"]
    for path, (name, lines, code, doc, blank) in zip(modules, rows):
        source = path.read_text(encoding="utf-8")
        assert int(lines) == len(source.splitlines()) == sum(loc.count(source)), name
        assert (int(code), int(doc), int(blank)) == loc.count(source), name
    totals = [sum(int(row[k]) for row in rows[:-1]) for k in range(1, 5)]
    assert [int(column) for column in rows[-1][1:]] == totals


@pytest.mark.parametrize("source, want", [
    ('"""The module\'s docstring."""\n', (0, 1, 0)),
    ("# a comment alone\nx = 1\n", (1, 1, 0)),
    ("x = 1  # a trailing comment\n", (1, 0, 0)),
    ('x = 1\n"a bare string"\n', (1, 1, 0)),
    ('"""First line.\n\nLast line."""\n', (0, 2, 1)),  # the blank line inside is blank
    ('x = (\n    "part of an expression"\n)\n', (3, 0, 0)),
    ('def f():\n    # why\n    """Doc."""\n\n    return 1\n', (2, 2, 1)),
], ids=["module docstring", "comment line", "trailing comment", "bare string",
        "blank in docstring", "string in code", "function"])
def test_lines_are_classed_as_documented(source, want):
    """(code, docstring or comment, blank) of a small source."""
    assert loc.count(source) == want


def _differences(out: str) -> dict[str, list[int]]:
    """{module: the four DIR - SRC columns} of an ``--against`` listing."""
    return {row[0]: [int(value) for value in row[-4:]]
            for row in (line.split() for line in out.splitlines()[2:])}


def test_against_the_same_tree_differs_by_nothing(capsys):
    assert loc.main(["--against", str(ROOT)]) == 0
    diffs = _differences(capsys.readouterr().out)
    assert list(diffs)[-1] == "total" and len(diffs) > 1
    assert all(diff == [0, 0, 0, 0] for diff in diffs.values())


def test_against_counts_an_added_code_line(tmp_path, capsys):
    """A copy of the modules with one code line added to one of them reads +1 line and
    +1 code in that module and in the total, against this checkout, and 0 elsewhere."""
    copy = tmp_path / "sphereflock"
    shutil.copytree(ROOT / "src" / "sphereflock", copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / "errors.py", "a", encoding="utf-8") as fh:
        fh.write("_ADDED = 1\n")
    assert loc.main([str(copy), "--against", str(ROOT)]) == 0
    diffs = _differences(capsys.readouterr().out)
    assert diffs.pop("errors") == diffs.pop("total") == [1, 1, 0, 0]
    assert all(diff == [0, 0, 0, 0] for diff in diffs.values())
