"""Finite relations (directed graphs, loops allowed) on the vertex set [0, n).

Successor sets and vertex subsets are stored as integer bitmasks, so the
set algebra that dominates every algorithm here is plain machine-word
arithmetic.  All values are immutable; every operation is a pure function.
Iteration is always in ascending vertex order, so output is reproducible
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

INFINITE = math.inf


def _iter_bits(bits: int) -> Iterator[int]:
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


@dataclass(frozen=True, slots=True)
class VertexSet:
    """A subset of [0, n), represented as a bitmask over a fixed universe."""

    n: int
    bits: int

    def members(self) -> tuple[int, ...]:
        return tuple(_iter_bits(self.bits))

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and self.bits >> v & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return _iter_bits(self.bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def difference(self, other: "VertexSet") -> "VertexSet":
        if self.n != other.n:
            raise ValueError(f"universe mismatch: {self.n} != {other.n}")
        return VertexSet(self.n, self.bits & ~other.bits)


def _image_bits(succ: tuple[int, ...], bits: int) -> int:
    out = 0
    for v in _iter_bits(bits):
        out |= succ[v]
    return out


@dataclass(frozen=True, slots=True)
class Relation:
    """A finite relation: vertex count n and a successor bitmask per vertex."""

    n: int
    succ: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(self.succ) != self.n:
            raise ValueError("successor table length must equal vertex count")
        for v, s in enumerate(self.succ):
            if s >> self.n:
                raise ValueError(f"successor of vertex {v} out of range")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Relation":
        succ = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            succ[u] |= 1 << v
        return cls(n, tuple(succ))

    @classmethod
    def identity(cls, n: int) -> "Relation":
        return cls(n, tuple(1 << v for v in range(n)))

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in _iter_bits(self.succ[u]):
                yield u, v

    def image(self, a: VertexSet) -> VertexSet:
        """Union of the successor sets of the members of `a`."""
        if a.n != self.n:
            raise ValueError(f"universe mismatch: {a.n} != {self.n}")
        return VertexSet(self.n, _image_bits(self.succ, a.bits))

    def reverse(self) -> "Relation":
        succ = [0] * self.n
        for u in range(self.n):
            for v in _iter_bits(self.succ[u]):
                succ[v] |= 1 << u
        return Relation(self.n, tuple(succ))

    def reflexive_closure(self) -> "Relation":
        return Relation(self.n, tuple(s | 1 << v for v, s in enumerate(self.succ)))

    def remove_loops(self) -> "Relation":
        return Relation(self.n, tuple(s & ~(1 << v) for v, s in enumerate(self.succ)))

    def is_reflexive(self) -> bool:
        return all(s >> v & 1 for v, s in enumerate(self.succ))

    def has_loop(self) -> bool:
        return any(s >> v & 1 for v, s in enumerate(self.succ))

    def compose(self, other: "Relation") -> "Relation":
        """Left-to-right composition: (x,z) present iff some y has
        (x,y) in self and (y,z) in other."""
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} != {other.n}")
        return Relation(self.n, tuple(_image_bits(other.succ, s) for s in self.succ))

    def power(self, k: int) -> "Relation":
        """k-fold composition; k=0 is the identity, k<0 uses the reverse."""
        base = self if k >= 0 else self.reverse()
        k = abs(k)
        result = Relation.identity(self.n)
        while k:
            if k & 1:
                result = result.compose(base)
            base = base.compose(base)
            k >>= 1
        return result

    def ball(self, v: int, j: int) -> VertexSet:
        """Image of {v} under the j-th power, by j iterated image steps."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        if j < 0:
            raise ValueError("ball radius must be nonnegative")
        bits = 1 << v
        for _ in range(j):
            bits = _image_bits(self.succ, bits)
        return VertexSet(self.n, bits)

    def regular_degree(self) -> int | None:
        """The common out-degree, or None if the relation is not regular."""
        if self.n == 0:
            return 0
        degs = {s.bit_count() for s in self.succ}
        if len(degs) == 1:
            return degs.pop()
        return None

    def girth(self) -> int | float:
        """Length of the shortest directed cycle; INFINITE if acyclic.
        A loop gives girth 1.  The k-step images of each vertex are grown
        until they return to it.  Later searches drop the searched vertex,
        whose shortest cycle is counted, and, once images empty, every
        vertex they passed, as none of those reaches a cycle."""
        best: int | float = INFINITE
        dead = 0
        for a in range(self.n):
            bits = seen = 1 << a
            for k in range(1, self.n + 1):
                if k >= best:
                    break
                bits = _image_bits(self.succ, bits) & ~dead
                if bits >> a & 1:
                    best = k
                    break
                if not bits:
                    dead |= seen
                    break
                seen |= bits
            dead |= 1 << a
            if best == 1:
                break
        return best

    def restriction(self, w: VertexSet) -> tuple["Relation", tuple[int, ...]]:
        """Induced relation on `w`, reindexed to [0, |w|).  Also returns the
        mapping from new index to original vertex."""
        if w.n != self.n:
            raise ValueError(f"universe mismatch: {w.n} != {self.n}")
        if not w:
            raise ValueError("restriction to the empty set is undefined")
        old = w.members()
        pos = {v: i for i, v in enumerate(old)}
        succ = tuple(
            sum(1 << pos[x] for x in _iter_bits(self.succ[v] & w.bits)) for v in old
        )
        return Relation(len(old), succ), old
