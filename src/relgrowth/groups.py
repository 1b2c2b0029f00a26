"""Finite groups as validated multiplication tables, Cayley relations with
a by-construction transitivity certificate, and brute-force automorphism
search for small relations.

The identity is always element 0.  The product convention is left-to-right:
table[g][h] is "g then h", and for permutation groups (g*h)(i) = h[g[i]].
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .relation import Relation

BRUTE_LIMIT = 10
SYMMETRIC_LIMIT = 5
CATALOG_LIMIT = 256  # largest max_order that `gen groups` writes


class GroupValidationError(ValueError):
    def __init__(self, kind: str, witness: tuple[int, ...] = ()):
        self.kind = kind
        self.witness = witness
        detail = f" at {witness}" if witness else ""
        super().__init__(f"{kind}{detail}")


@dataclass(frozen=True, slots=True)
class FiniteGroup:
    """Group of order n given by its full multiplication table."""

    n: int
    table: tuple[tuple[int, ...], ...]
    name: str = "G"

    identity = 0

    def inverse(self, g: int) -> int:
        return self.table[g].index(0)

    def product(self, elems: Iterable[int]) -> int:
        acc = 0
        for e in elems:
            acc = self.table[acc][e]
        return acc


def group_from_table(
    table: Sequence[Sequence[int]] | np.ndarray, name: str = "G"
) -> FiniteGroup:
    """Validate and wrap a multiplication table.

    The table is nested sequences of ints or an (n, n) array.  An int64
    array is used as given, without a copy, and any other table is
    converted to one; an entry outside int64 is refused as MalformedTable,
    like every entry out of range.

    Checks: square with in-range entries, element 0 a two-sided identity,
    every row and column a permutation, associativity for all triples.

    Associativity is accepted by Light's test (Clifford & Preston 1961,
    section 1.2) in O(n^2 log n): the elements a with (x*a)*y == x*(a*y)
    for all x, y are closed under products and contain the identity, so
    if they include a set of elements whose products reach every element,
    the table is associative.  Such a set is built greedily (see
    `_light_generators`); in a group each new generator at least doubles
    the subgroup reached so far (Lagrange), so a table needing more than
    floor(log2 n) of them is not a group.  A table that fails either way
    is refused by the exact check, which compares all triples one slab of
    rows g at a time (about 2^16 triples, at least one row) in O(n^2)
    memory and reports the lexicographically first triple that fails.
    """
    n = len(table)
    if n == 0:
        raise GroupValidationError("EmptyTable")
    try:
        t = np.asarray(table, dtype=np.int64)
    except OverflowError:  # an entry outside int64 is out of range anyway
        raise GroupValidationError("MalformedTable") from None
    if t.shape != (n, n) or t.min() < 0 or t.max() >= n:
        raise GroupValidationError("MalformedTable")
    idx = np.arange(n)
    if not (np.array_equal(t[0], idx) and np.array_equal(t[:, 0], idx)):
        raise GroupValidationError("NoIdentityAtZero")
    if not (
        (np.sort(t, axis=1) == idx).all() and (np.sort(t, axis=0) == idx[:, None]).all()
    ):
        raise GroupValidationError("NotLatinSquare")
    rows = t.tolist()
    gens = _light_generators(rows)
    if gens is None or not all(
        np.array_equal(t[t[:, a]], t[:, t[a]]) for a in gens  # (x*a)*y, x*(a*y)
    ):
        _raise_first_nonassociative(t)
    return FiniteGroup(n, tuple(map(tuple, rows)), name)


def _light_generators(rows: list[list[int]]) -> list[int] | None:
    """Generators whose left-to-right products from the identity reach
    every element: repeatedly add the least element not yet reached.
    None if more than floor(log2 n) are needed, which no group needs."""
    n = len(rows)
    limit = n.bit_length() - 1
    reached = bytearray(n)
    reached[0] = 1
    found = [0]
    gens: list[int] = []
    i = 0
    while len(found) < n:
        if i == len(found):  # closed: add the least element not reached
            if len(gens) == limit:
                return None
            gens.append(reached.index(0))
            i = 0
        row = rows[found[i]]
        for g in gens:
            y = row[g]
            if not reached[y]:
                reached[y] = 1
                found.append(y)
        i += 1
    return gens


def _raise_first_nonassociative(t: np.ndarray) -> None:
    """Raise NotAssociative at the lexicographically first (g, h, k) with
    (g*h)*k != g*(h*k); return if there is none."""
    n = len(t)
    step = max(1, 2**16 // n**2)
    for start in range(0, n, step):
        rows = t[start : start + step]
        lhs = t[rows]  # lhs[i,h,k] = (g*h)*k for g = start + i
        rhs = rows[:, t]  # rhs[i,h,k] = g*(h*k)
        bad = lhs != rhs
        if bad.any():
            i, h, k = (int(v) for v in np.argwhere(bad)[0])
            raise GroupValidationError("NotAssociative", (start + i, h, k))


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic group order must be positive")
    a = np.arange(n)
    return group_from_table((a[:, None] + a) % n, f"Z{n}")


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Row-major pairing: element (a, b) has index a * g2.n + b."""
    n2 = g2.n
    t1, t2 = np.array(g1.table), np.array(g2.table)
    # entry [a1, b1, a2, b2] is the product of (a1, b1) and (a2, b2)
    table = t1[:, None, :, None] * n2 + t2[None, :, None, :]
    return group_from_table(table.reshape(g1.n * n2, g1.n * n2), f"{g1.name}x{g2.name}")


def dihedral(m: int) -> FiniteGroup:
    """Dihedral group of order 2m: rotations 0..m-1, reflections m..2m-1."""
    if m < 1:
        raise ValueError("dihedral parameter must be positive")
    a = np.arange(2 * m)
    k, f = a % m, a // m
    # a reflection first turns the rotation that follows it backwards
    rotation = (k[:, None] + (1 - 2 * f)[:, None] * k) % m
    return group_from_table(rotation + m * (f[:, None] ^ f), f"D{m}")


def symmetric(m: int) -> FiniteGroup:
    """Symmetric group on m points; limited to m <= 5 (order 120)."""
    if not 1 <= m <= SYMMETRIC_LIMIT:
        raise ValueError(f"symmetric group limited to 1 <= m <= {SYMMETRIC_LIMIT}")
    perms = sorted(itertools.permutations(range(m)))  # identity sorts first
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(q[p[i]] for i in range(m))] for q in perms] for p in perms
    ]
    return group_from_table(table, f"S{m}")


def _invariant_factor_chains(n: int, max_factor: int | None = None) -> list[tuple[int, ...]]:
    """All chains d1 | d2 | ... | dk with product n and every di >= 2,
    listed with the largest factor last."""
    if n == 1:
        return [()]
    chains = []
    top = n if max_factor is None else min(n, max_factor)
    for d in range(2, top + 1):
        if n % d == 0:
            for rest in _invariant_factor_chains(n // d, d):
                if all(d % r == 0 for r in rest[-1:]):
                    chains.append(rest + (d,))
    return chains


def abelian_groups(order: int) -> Iterator[FiniteGroup]:
    """All abelian groups of the given order, via invariant factors, built
    one at a time."""
    for chain in sorted(_invariant_factor_chains(order)):
        if not chain:
            yield cyclic(1)
            continue
        g = cyclic(chain[0])
        for d in chain[1:]:
            g = direct_product(g, cyclic(d))
        yield g


def catalog_up_to_order(max_order: int) -> Iterator[FiniteGroup]:
    """The catalog groups of order at most max_order, built one at a time:
    every abelian group, order by order, then D3 .. D_{max_order // 2},
    then S3 .. S_m with m! <= max_order.  No table repeats: D1 and D2 have
    the tables of Z2 and Z2xZ2 and are left out, every later D_m and S_m is
    non-abelian, and S3, S4 and S5 differ in table from D3, D12 and D60."""
    for order in range(1, max_order + 1):
        yield from abelian_groups(order)
    for m in range(3, max_order // 2 + 1):
        yield dihedral(m)
    for m in range(3, SYMMETRIC_LIMIT + 1):
        if math.factorial(m) <= max_order:
            yield symmetric(m)


@dataclass(frozen=True, slots=True)
class TransitivityCertificate:
    """Record of why a relation is known to be point-transitive."""

    certified: bool
    method: str

    @classmethod
    def cayley(cls) -> "TransitivityCertificate":
        return cls(True, "cayley-left-translations")

    @classmethod
    def brute(cls) -> "TransitivityCertificate":
        return cls(True, "brute-orbit")

    @classmethod
    def none(cls) -> "TransitivityCertificate":
        return cls(False, "uncertified")


def _subset_members(group: FiniteGroup, subset: Iterable[int]) -> tuple[int, ...]:
    """The distinct members of a subset of the group, in ascending order."""
    members = tuple(sorted(set(subset)))
    for g in members:
        if not 0 <= g < group.n:
            raise ValueError(f"element {g} out of range for order {group.n}")
    return members


def cayley_relation(
    group: FiniteGroup, subset: Iterable[int]
) -> tuple[Relation, TransitivityCertificate]:
    """Relation with arcs (g, g*s) for s in the subset.  The identity in
    the subset gives every vertex its loop, so Cay(G, S + {e}) is the
    reflexive one.  Left translations x -> h*x are automorphisms acting
    transitively, so the certificate holds by construction."""
    gens = _subset_members(group, subset)
    succ = []
    for row in group.table:
        bits = 0
        for s in gens:
            bits |= 1 << row[s]
        succ.append(bits)
    return Relation(group.n, tuple(succ)), TransitivityCertificate.cayley()


def _automorphisms(
    rel: Relation, image_of_zero: int | None = None
) -> Iterator[tuple[int, ...]]:
    """The arc-preserving vertex permutations in lexicographic order, by
    backtracking search; with image_of_zero, only those mapping 0 to it.
    An oversized relation is refused here, before the search starts."""
    n = rel.n
    if n > BRUTE_LIMIT:
        raise ValueError(f"brute automorphism search refused: n={n} > {BRUTE_LIMIT}")
    succ = rel.succ
    pred = rel.reverse().succ
    outdeg = [s.bit_count() for s in succ]
    indeg = [p.bit_count() for p in pred]
    sigma = [-1] * n

    def extend(k: int, used: int) -> Iterator[tuple[int, ...]]:
        if k == n:
            yield tuple(sigma)
            return
        candidates = [image_of_zero] if k == 0 and image_of_zero is not None else range(n)
        for p in candidates:
            if used >> p & 1:
                continue
            if outdeg[k] != outdeg[p] or indeg[k] != indeg[p]:
                continue
            if (succ[k] >> k & 1) != (succ[p] >> p & 1):
                continue
            ok = True
            for j in range(k):
                q = sigma[j]
                if (succ[j] >> k & 1) != (succ[q] >> p & 1) or (
                    succ[k] >> j & 1
                ) != (succ[p] >> q & 1):
                    ok = False
                    break
            if ok:
                sigma[k] = p
                yield from extend(k + 1, used | 1 << p)

    return extend(0, 0)


def is_point_transitive_brute(rel: Relation) -> bool:
    """True iff for every v some automorphism maps vertex 0 to v.  The
    automorphisms found so far generate a group, so a vertex in the orbit
    of 0 under it needs no search of its own."""
    if rel.n <= 1:
        return True
    found: list[tuple[int, ...]] = []
    orbit = {0}
    for v in range(1, rel.n):
        if v in orbit:
            continue
        p = next(_automorphisms(rel, v), None)
        if p is None:
            return False
        found.append(p)
        orbit = orbit_of_zero(found, rel.n)
    return True


def orbit_of_zero(perms: Iterable[tuple[int, ...]], n: int) -> set[int]:
    """Orbit of vertex 0 under the group generated by the given permutations."""
    orbit = {0}
    frontier = [0]
    perms = list(perms)
    while frontier:
        v = frontier.pop()
        for p in perms:
            w = p[v]
            if w not in orbit:
                orbit.add(w)
                frontier.append(w)
    return orbit
