"""Plain-text Cayley table format.

Line 1 is the order n, lines 2..n+1 hold n space-separated integers each
(row x lists x*0 .. x*(n-1)), and an optional trailing comment line
``# labels: ...`` names the elements, each label a non-empty string
without whitespace.  An integer is ASCII digits after an optional minus
sign.  Every CLI command reads and writes this format.
"""

from __future__ import annotations

from .cayley import CayleyTable

LABEL_PREFIX = "# labels:"


def format_table(t: CayleyTable) -> str:
    """The table as text; raises ValueError on a label that parse_table
    would not read back: an empty one, or one holding whitespace."""
    lines = [str(t.n)]
    lines.extend(" ".join(str(v) for v in row) for row in t.entries)
    if t.labels is not None:
        for label in t.labels:
            if label.split() != [label]:
                raise ValueError(f"label {label!r} is empty or holds whitespace")
        lines.append(f"{LABEL_PREFIX} " + " ".join(t.labels))
    return "\n".join(lines) + "\n"


def _integers(line: str) -> tuple[int, ...]:
    """The whitespace-separated integers of a line, each ASCII digits after
    an optional minus sign; ValueError on any other token.  int alone also
    reads +1 and 0_1 as 1, and non-ASCII decimal digits."""
    tokens = line.split()
    if "_" in line or "+" in line or not (line.isascii() or all(map(str.isascii, tokens))):
        raise ValueError(line)
    return tuple(map(int, tokens))


def parse_table(text: str) -> CayleyTable:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ValueError("empty table text")
    try:
        (n,) = _integers(lines[0])
    except ValueError:
        raise ValueError(f"first line must be the order, got {lines[0]!r}") from None
    if n < 1:
        raise ValueError(f"the order must be at least 1, got {n}")
    if len(lines) < n + 1:
        raise ValueError(f"expected {n} rows after the order line, got {len(lines) - 1}")
    rows = []
    for i in range(1, n + 1):
        # each token is converted once; the table checks the rows' lengths
        # and ranges
        try:
            rows.append(_integers(lines[i]))
        except ValueError:
            raise ValueError(f"row {i - 1} contains a non-integer entry") from None
    labels = None
    rest = lines[n + 1:]
    if rest:
        if len(rest) != 1 or not rest[0].startswith(LABEL_PREFIX):
            raise ValueError("unexpected text after table rows")
        labels = tuple(rest[0][len(LABEL_PREFIX):].split())
    return CayleyTable(n, rows, labels)


def read_table(path) -> CayleyTable:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_table(fh.read())
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def write_table(t: CayleyTable, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_table(t))
