"""Count the lines of sphereflock's modules by kind: code, docstring or comment,
and blank, so that a change's line claim shows whether code or prose moved.

    python3 tools/loc.py [DIR]

DIR defaults to this checkout's ``src/sphereflock``.  One row per module, then
the total; the columns always add up to the file's line count.  Lines are
classed with the stdlib tokenizer:

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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?",
                        default=Path(__file__).resolve().parent.parent / "src" / "sphereflock")
    args = parser.parse_args(argv)
    rows = [(path.stem, *count(path.read_text(encoding="utf-8")))
            for path in sorted(Path(args.root).glob("*.py"))]
    rows.append(("total", *(sum(column) for column in zip(*(row[1:] for row in rows)))))
    print(f"{'module':<14}{'lines':>7}{'code':>7}{'doc':>7}{'blank':>7}")
    for name, code, doc, blank in rows:
        print(f"{name:<14}{code + doc + blank:>7}{code:>7}{doc:>7}{blank:>7}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
