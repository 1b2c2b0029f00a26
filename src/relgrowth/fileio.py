"""Text formats: .rel edge lists, .grp multiplication tables, subset files.

.rel: first line n, then "u v" per arc (0-indexed).  '#' starts a comment,
blank lines are skipped, duplicate arcs collapse.  The writer emits sorted
pairs, so files round-trip deterministically.

.grp: first line n >= 1, then n rows of n entries; row g lists g*h for
h = 0..n-1 and element 0 must be the identity.  Entries are
whitespace-separated base-10 integers as int() reads them.  Each row is
read by numpy into int64, and the table reaches `group_from_table` as one
(n, n) array; a row numpy cannot read the way int() does is read again
token by token, which names the bad token, and reaches it as Python ints.
`group_from_table` refuses an entry outside int64 like any other entry out
of range.  Subset files hold one element index per line.
"""

from __future__ import annotations

import os
import sys

import numpy as np

from .groups import FiniteGroup, group_from_table
from .relation import Relation

# vertex count a .rel file may declare; checked before any table is built
MAX_VERTICES = 65_536


class ParseError(ValueError):
    def __init__(self, path: str | os.PathLike, line: int, message: str):
        self.path = str(path)
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


def _data_lines(path: str | os.PathLike) -> list[tuple[int, str]]:
    with open(path, encoding="utf-8") as handle:
        raw = handle.read().splitlines()
    lines = []
    for number, text in enumerate(raw, start=1):
        text = text.split("#", 1)[0].strip()
        if text:
            lines.append((number, text))
    return lines


def _parse_int(path, number: int, token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(path, number, f"invalid {what}: {token!r}") from None


def read_relation(path: str | os.PathLike) -> Relation:
    lines = _data_lines(path)
    if not lines:
        raise ParseError(path, 1, "missing vertex count")
    number, text = lines[0]
    n = _parse_int(path, number, text, "vertex count")
    if n < 0:
        raise ParseError(path, number, f"negative vertex count: {n}")
    if n > MAX_VERTICES:
        raise ParseError(path, number, f"vertex count {n} exceeds {MAX_VERTICES}")
    edges = []
    for number, text in lines[1:]:
        parts = text.split()
        if len(parts) != 2:
            raise ParseError(path, number, f"expected 'u v', got {text!r}")
        u = _parse_int(path, number, parts[0], "vertex")
        v = _parse_int(path, number, parts[1], "vertex")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(path, number, f"arc ({u}, {v}) out of range for n={n}")
        edges.append((u, v))
    return Relation.from_edges(n, edges)


def write_relation(path: str | os.PathLike, rel: Relation) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{rel.n}\n")
        for u, v in rel.edges():
            handle.write(f"{u} {v}\n")


def read_group(path: str | os.PathLike) -> FiniteGroup:
    lines = _data_lines(path)
    if not lines:
        raise ParseError(path, 1, "missing group order")
    number, text = lines[0]
    n = _parse_int(path, number, text, "group order")
    if n < 1:
        raise ParseError(path, number, f"non-positive group order: {n}")
    if len(lines) - 1 != n:
        raise ParseError(path, number, f"expected {n} table rows, got {len(lines) - 1}")
    rows = []
    for number, text in lines[1:]:
        row = _parse_row(text)
        if row is None:  # token by token, as int() reads them; names a bad one
            tokens = [_parse_int(path, number, tok, "table entry") for tok in text.split()]
            row = np.array(tokens, dtype=object)
        if len(row) != n:
            raise ParseError(path, number, f"expected {n} entries, got {len(row)}")
        rows.append(row)
    name = os.path.splitext(os.path.basename(path))[0]
    return group_from_table(np.vstack(rows), name)


def _parse_row(text: str) -> np.ndarray | None:
    """The row's entries as int64, or None where numpy may read it other
    than int() does.  numpy refuses what it cannot read (`1_0`, non-ASCII
    digits and spaces, `1.5`), but it reads a lone sign as 0 and reads
    tokens longer than int()'s digit limit, so such rows go the slow way,
    token by token into Python ints.  numpy saturates an entry outside
    int64 to 2^63 - 1, which no table accepts; read the slow way, such an
    entry is refused by `group_from_table`, as every entry outside int64
    is."""
    if "-" in text or "+" in text:
        return None
    try:
        row = np.fromstring(text, dtype=np.int64, sep=" ")
    except ValueError:
        return None
    # the longest of the row's tokens has at most this many characters
    longest = len(text) - 2 * (len(row) - 1)
    limit = sys.get_int_max_str_digits()
    if limit and longest > limit and max(map(len, text.split())) > limit:
        return None
    return row


def write_group(path: str | os.PathLike, group: FiniteGroup) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{group.n}\n")
        for row in group.table:
            handle.write(" ".join(str(v) for v in row) + "\n")


def read_subset(path: str | os.PathLike) -> list[int]:
    return [
        _parse_int(path, number, text, "element index")
        for number, text in _data_lines(path)
    ]
