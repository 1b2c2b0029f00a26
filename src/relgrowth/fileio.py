"""Text formats: .rel edge lists, .grp multiplication tables, subset files.

.rel: first line n, then "u v" per arc (0-indexed).  '#' starts a comment,
blank lines are skipped, duplicate arcs collapse.  The writer emits sorted
pairs, so files round-trip deterministically.

.grp: first line n, then n rows of n entries; row g lists g*h for
h = 0..n-1 and element 0 must be the identity.  Subset files hold one
element index per line.
"""

from __future__ import annotations

import os
from typing import Iterable

from .groups import FiniteGroup, group_from_table
from .relation import Relation


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
    if len(lines) - 1 != n:
        raise ParseError(path, number, f"expected {n} table rows, got {len(lines) - 1}")
    table = []
    for number, text in lines[1:]:
        tokens = text.split()
        try:
            row = list(map(int, tokens))
        except ValueError:  # parse again token by token to name the bad one
            row = [_parse_int(path, number, tok, "table entry") for tok in tokens]
        if len(row) != n:
            raise ParseError(path, number, f"expected {n} entries, got {len(row)}")
        table.append(row)
    name = os.path.splitext(os.path.basename(path))[0]
    return group_from_table(table, name)


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


def write_subset(path: str | os.PathLike, members: Iterable[int]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for v in sorted(members):
            handle.write(f"{v}\n")
