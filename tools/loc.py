"""Count the lines of sphereflock's modules by kind: code, docstring or comment,
and blank, so that a change's line claim shows whether code or prose moved.

    python3 tools/loc.py [DIR] [--against SRC]

DIR defaults to this checkout's ``src/sphereflock``.  One row per module, then
the total; the columns always add up to the file's line count.  With
``--against SRC`` each row gives the columns of ``SRC/src/sphereflock`` (another
checkout, such as a change's parent), then DIR's, then DIR's minus SRC's; a module
missing from one side counts as empty there.  Lines are classed with the stdlib
tokenizer:

- docstring: every non-empty line of a string literal that stands alone as a
  statement (a module, class or function docstring, or any other bare string);
- code: a line holding any other token, whatever comment shares it;
- comment: a line whose only token is a comment, counted with the docstrings;
- blank: the rest, which hold nothing but whitespace, inside a docstring too.
"""

from __future__ import annotations

import argparse
import io
import tokenize
from pathlib import Path

# tokens after which a string starts a statement of its own
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}
_LAYOUT = _STATEMENT_START | {tokenize.ENDMARKER}


def count(source: str) -> tuple[int, int, int]:
    """(code, docstring or comment, blank) lines of one module's source."""
    text = source.splitlines()
    kinds: dict[int, str] = {}
    # without NL, a docstring after a comment line still follows its statement start
    tokens = [tok for tok in tokenize.generate_tokens(io.StringIO(source).readline)
              if tok.type != tokenize.NL]
    previous = tokenize.ENCODING
    for k, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            previous = tok.type
            continue
        following = tokens[k + 1].type if k + 1 < len(tokens) else tokenize.ENDMARKER
        lines = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.COMMENT:
            for line in lines:
                kinds.setdefault(line, "doc")
            continue  # a comment leaves the statement's start as it was
        if (tok.type == tokenize.STRING and previous in _STATEMENT_START
                and following in (tokenize.NEWLINE, tokenize.ENDMARKER)):
            for line in lines:
                if text[line - 1].strip():  # a docstring's empty lines are blank
                    kinds.setdefault(line, "doc")
        else:
            for line in lines:
                kinds[line] = "code"
        previous = tok.type
    code = sum(kind == "code" for kind in kinds.values())
    doc = sum(kind == "doc" for kind in kinds.values())
    return code, doc, len(text) - code - doc


def table(root) -> dict[str, tuple[int, int, int, int]]:
    """{module: (lines, code, doc, blank)} of the modules in root, then "total"."""
    rows = {}
    for path in sorted(Path(root).glob("*.py")):
        code, doc, blank = count(path.read_text(encoding="utf-8"))
        rows[path.stem] = (code + doc + blank, code, doc, blank)
    rows["total"] = tuple(map(sum, zip((0, 0, 0, 0), *rows.values())))
    return rows


def _columns(values, signed=False) -> str:
    return "".join(f"{value:>+7}" if signed and value else f"{value:>7}" for value in values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?",
                        default=Path(__file__).resolve().parent.parent / "src" / "sphereflock")
    parser.add_argument("--against", metavar="SRC",
                        help="a checkout whose src/sphereflock to print beside DIR, "
                             "with the difference")
    args = parser.parse_args(argv)
    rows = table(args.root)
    names = ("lines", "code", "doc", "blank")
    if args.against is None:
        print(f"{'module':<14}{_columns(names)}")
        for name, row in rows.items():
            print(f"{name:<14}{_columns(row)}")
        return 0
    against = Path(args.against) / "src" / "sphereflock"
    if not against.is_dir():
        parser.error(f"{against} is not a directory")
    base = table(against)
    print(f"{'':<14}{'SRC':>28}{'DIR':>28}{'DIR - SRC':>28}")
    print(f"{'module':<14}{_columns(names * 3)}")
    empty = (0, 0, 0, 0)
    for name in sorted((set(base) | set(rows)) - {"total"}) + ["total"]:
        old, new = base.get(name, empty), rows.get(name, empty)
        diff = tuple(b - a for a, b in zip(old, new))
        print(f"{name:<14}{_columns(old)}{_columns(new)}{_columns(diff, signed=True)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
