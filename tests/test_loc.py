"""``tools/loc.py``, the line counter behind the size figures: its columns add up
to each module's line count, and it classes lines as its docstring says."""

import importlib.util
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
