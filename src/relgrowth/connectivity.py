"""Connectivity kappa, fragments and atoms of a finite relation.

kappa(rel) is the minimum of |image(X) \\ X| over nonempty X with
X + image(X) != V; a minimizer is a fragment, a minimum-cardinality
fragment is an atom.  The engine is a unit-capacity maximum flow on the
vertex-split digraph, one network per relation and direction, reused
across (s, t) pairs; the inclusion-minimal optimal source side is read off
residual reachability, the bottom of the min-cut lattice.  kappa and every
atom take O((kappa + a) * n) flows, a the atom size, not one per ordered
pair: Even's source reduction finds kappa from at most kappa + 1 sources on
the relation and its reverse, and every atom containing s is the bottom of
a flow from s to one of its first a non-successors (see kappa).

fragments_oracle is the independent brute-force route (all 2^n - 1
subsets, numpy-vectorized); the two must agree and the tests insist on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .relation import Relation, VertexSet, _image_bits, _iter_bits

ORACLE_LIMIT = 14


class AtomsUndefinedError(ValueError):
    """Raised when atoms are requested for a complete relation."""


@dataclass(frozen=True, slots=True)
class Fragment:
    """A vertex set X with its boundary image(X) \\ X and the boundary size."""

    set: VertexSet
    boundary: VertexSet
    value: int

    @classmethod
    def of(cls, rel: Relation, x: VertexSet) -> "Fragment":
        boundary = rel.image(x).difference(x)
        return cls(x, boundary, len(boundary))

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (len(self.set), self.set.members())


@dataclass(frozen=True, slots=True)
class ConnectivityResult:
    kappa: int
    complete: bool
    witness: Fragment | None
    atom_size: int | None
    atoms: tuple[Fragment, ...]


class _FlowNet:
    """Unit-capacity flow network; vertex v splits into 2v (in) and 2v+1 (out).

    Built once per relation and reused across (s, t) pairs: every cut
    starts from the saved initial capacities."""

    def __init__(self, rel: Relation):
        n = rel.n
        self.size = 2 * n
        # adj[node] lists (edge, head node); edge e ^ 1 is the reverse of e
        self.adj: list[list[tuple[int, int]]] = [[] for _ in range(self.size)]
        self.to: list[int] = []
        self.cap: list[int] = []
        big = n + 1
        for v in range(n):
            self._add(2 * v, 2 * v + 1, 1)
        for u in range(n):
            for v in _iter_bits(rel.succ[u]):
                if u != v:  # loops never contribute to a boundary
                    self._add(2 * u + 1, 2 * v, big)
        self.cap0 = tuple(self.cap)

    def _add(self, a: int, b: int, c: int) -> None:
        self.adj[a].append((len(self.to), b))
        self.to.append(b)
        self.cap.append(c)
        self.adj[b].append((len(self.to), a))
        self.to.append(a)
        self.cap.append(0)

    def min_cut(self, s: int, t: int) -> tuple[int, int]:
        """Minimum |image(X) \\ X| over X with s in X and t outside
        X + image(X), and the bits of the inclusion-minimal optimal X.
        The caller ensures t is not a successor of s."""
        self.cap[:] = self.cap0
        source, sink = 2 * s + 1, 2 * t
        adj, cap = self.adj, self.cap
        value = 0
        while True:
            # breadth-first search for an augmenting path; once none is
            # left, the nodes it reached are the minimal source side
            parent_edge = [-1] * self.size
            parent_edge[source] = -2
            queue = [source]
            for u in queue:
                for e, w in adj[u]:
                    if cap[e] > 0 and parent_edge[w] == -1:
                        parent_edge[w] = e
                        queue.append(w)
                if parent_edge[sink] != -1:
                    break
            else:
                break
            v = sink
            while v != source:
                e = parent_edge[v]
                cap[e] -= 1
                cap[e ^ 1] += 1
                v = self.to[e ^ 1]
            value += 1
        x_bits = 0
        for node in queue:
            if node & 1:
                x_bits |= 1 << (node >> 1)
        return value, x_bits


def min_separating_set(
    rel: Relation, s: int, t: int
) -> tuple[int, VertexSet] | None:
    """Minimum |image(X) \\ X| over X with s in X and t outside X + image(X),
    together with the inclusion-minimal optimal X.  None means inseparable
    (t is a successor of s, so no such X exists)."""
    if s == t:
        raise ValueError("source and target must differ")
    for v in (s, t):
        if not 0 <= v < rel.n:
            raise ValueError(f"vertex {v} out of range for n={rel.n}")
    if rel.succ[s] >> t & 1:
        return None
    value, x_bits = _FlowNet(rel).min_cut(s, t)
    return value, VertexSet(rel.n, x_bits)


def kappa(rel: Relation) -> ConnectivityResult:
    """Exact connectivity with a witness fragment and all atoms.

    If every ordered pair is inseparable (each vertex reaches all others in
    one step) the relation behaves as complete: kappa = n - 1, atoms
    undefined.  Otherwise two phases of (s, t) flows, one reused network per
    direction:

    1. kappa (Even): every flow from sources 0, 1, .. on rel and on its
       reverse, until as many sources as the best value so far are done.
       If that value exceeded kappa, kappa + 1 sources were done and one
       of them misses a minimum separator S: it lies in a fragment X (a
       forward flow finds kappa) or in Y = V \\ (X + S), a reverse fragment
       with boundary inside S (a reverse flow finds kappa).  Each reverse
       optimum Y also yields the kappa-fragment V \\ (Y + reverse image(Y)),
       which bounds the atom size a from above.
    2. atoms: an atom A containing s is the minimal side of (s, t) for any
       t outside A + image(A), a set of a + kappa vertices that holds s and
       its successors; so the first a + kappa - |{s} + image(s)| + 1
       non-successors t of s include such a t.  That is at most a flows,
       as {s} is a feasible set whose boundary has at least kappa vertices.
    """
    n = rel.n
    if n < 2:
        raise ValueError("kappa requires at least 2 vertices")
    full = (1 << n) - 1
    if all(succ | 1 << v == full for v, succ in enumerate(rel.succ)):
        return ConnectivityResult(n - 1, True, None, None, ())
    back = rel.reverse()
    forward_net, back_net = _FlowNet(rel), _FlowNet(back)
    best = n  # above every separation value, which is at most n - 2
    cuts: list[tuple[int, int]] = []  # forward (value, x bits)
    back_cuts: list[tuple[int, int]] = []  # reverse (value, y bits)
    sources = 0
    while sources < best:
        s = sources
        for net, succ, found in ((forward_net, rel.succ, cuts),
                                 (back_net, back.succ, back_cuts)):
            for t in _iter_bits(full & ~(succ[s] | 1 << s)):
                value, side = net.min_cut(s, t)
                found.append((value, side))
                best = min(best, value)
        sources += 1
    sides = {x for value, x in cuts if value == best}
    atom_size = min(
        [x.bit_count() for x in sides]
        + [
            (full & ~(y | _image_bits(back.succ, y))).bit_count()
            for value, y in back_cuts
            if value == best
        ]
    )
    for s in range(sources, n):
        closed = rel.succ[s] | 1 << s
        for tried, t in enumerate(_iter_bits(full & ~closed)):
            if tried > atom_size + best - closed.bit_count():
                break
            value, x = forward_net.min_cut(s, t)
            if value == best:
                sides.add(x)
                atom_size = min(atom_size, x.bit_count())
    atoms = tuple(
        sorted(
            (Fragment.of(rel, VertexSet(n, x)) for x in sides if x.bit_count() == atom_size),
            key=Fragment.sort_key,
        )
    )
    return ConnectivityResult(best, False, atoms[0], atom_size, atoms)


def _oracle_minimizers(rel: Relation) -> tuple[int, np.ndarray, np.ndarray]:
    """(kappa, every minimizer of the boundary size as a mask, their sizes),
    enumerating every nonempty subset.  A complete-type relation (no
    feasible subset at all) has kappa n - 1 and no minimizers."""
    n = rel.n
    if n < 2:
        raise ValueError("oracle requires at least 2 vertices")
    if n > ORACLE_LIMIT:
        raise ValueError(f"oracle refused: n={n} exceeds limit {ORACLE_LIMIT}")
    # image and size of every subset mask, each built from the mask
    # without its top vertex: 2^n word operations, no per-subset loop
    masks = np.arange(1 << n, dtype=np.int64)
    images = np.zeros(1 << n, dtype=np.int64)
    sizes = np.zeros(1 << n, dtype=np.int64)
    for v, succ in enumerate(rel.succ):
        images[1 << v : 2 << v] = images[: 1 << v] | succ
        sizes[1 << v : 2 << v] = sizes[: 1 << v] + 1
    feasible = (masks != 0) & ((masks | images) != (1 << n) - 1)
    if not feasible.any():
        return n - 1, masks[:0], masks[:0]
    boundary_sizes = sizes[images & ~masks]
    value = int(boundary_sizes[feasible].min())
    hits = masks[feasible & (boundary_sizes == value)]
    return value, hits, sizes[hits]


def _sorted_fragments(rel: Relation, masks: np.ndarray) -> list[Fragment]:
    fragments = [Fragment.of(rel, VertexSet(rel.n, int(m))) for m in masks]
    fragments.sort(key=Fragment.sort_key)
    return fragments


def fragments_oracle(rel: Relation) -> tuple[int, list[Fragment]]:
    """Brute-force route: enumerate every nonempty subset, keep all
    minimizers of the boundary size.  Complete-type relations (no feasible
    subset at all) give (n - 1, [])."""
    value, hits, _ = _oracle_minimizers(rel)
    return value, _sorted_fragments(rel, hits)


def atoms_oracle(rel: Relation) -> tuple[int, list[Fragment]]:
    """(kappa, atoms) via the brute-force oracle; atoms empty when complete.
    Only the minimizers of least size become Fragments."""
    value, hits, sizes = _oracle_minimizers(rel)
    if not hits.size:
        return value, []
    return value, _sorted_fragments(rel, hits[sizes == sizes.min()])


def atom_containing(rel: Relation, v: int) -> Fragment | None:
    """Lexicographically least atom containing v, or None if no atom does."""
    if not 0 <= v < rel.n:
        raise ValueError(f"vertex {v} out of range for n={rel.n}")
    result = kappa(rel)
    if result.complete:
        raise AtomsUndefinedError("atoms are undefined for a complete relation")
    for atom in result.atoms:
        if v in atom.set:
            return atom
    return None


def _pairwise_disjoint(fragments: tuple[Fragment, ...]) -> bool:
    combined = 0
    for f in fragments:
        if combined & f.set.bits:
            return False
        combined |= f.set.bits
    return True


@dataclass(frozen=True, slots=True)
class AtomDisjointnessReport:
    forward_atoms: tuple[Fragment, ...]
    reverse_atoms: tuple[Fragment, ...]
    forward_disjoint: bool
    reverse_disjoint: bool

    @property
    def holds(self) -> bool:
        return self.forward_disjoint or self.reverse_disjoint


def _kappa_and_atoms(rel: Relation, engine: str) -> tuple[int, tuple[Fragment, ...]]:
    """(kappa, atoms); atoms empty for complete-type relations.  The oracle
    engine is only valid up to ORACLE_LIMIT vertices but much faster there."""
    if engine == "oracle":
        value, atoms = atoms_oracle(rel)
        return value, tuple(atoms)
    result = kappa(rel)
    return result.kappa, result.atoms


def check_atom_disjointness(rel: Relation, engine: str = "flow") -> AtomDisjointnessReport:
    """Atoms of rel and of its reverse; disjointness must hold on at least
    one side (a proven fact), so a double failure marks a bug upstream."""
    _, forward_atoms = _kappa_and_atoms(rel, engine)
    _, reverse_atoms = _kappa_and_atoms(rel.reverse(), engine)
    if not forward_atoms or not reverse_atoms:
        raise AtomsUndefinedError("atoms are undefined for a complete relation")
    return AtomDisjointnessReport(
        forward_atoms,
        reverse_atoms,
        _pairwise_disjoint(forward_atoms),
        _pairwise_disjoint(reverse_atoms),
    )


@dataclass(frozen=True, slots=True)
class PropositionReport:
    applicable: bool
    reason: str
    kappa: int | None = None
    atom: Fragment | None = None
    size_within_kappa: bool | None = None
    induced_transitive: bool | None = None

    @property
    def holds(self) -> bool:
        return bool(self.size_within_kappa and self.induced_transitive)


def check_proposition_basic(
    rel: Relation, certified: bool = False, engine: str = "flow"
) -> PropositionReport:
    """For a point-transitive relation with a(rel) <= a(reverse): the atom
    induces a point-transitive relation and |A| <= kappa."""
    from .groups import is_point_transitive_brute

    if not certified and not is_point_transitive_brute(rel):
        return PropositionReport(False, "not point-transitive")
    value, forward_atoms = _kappa_and_atoms(rel, engine)
    if not forward_atoms:
        return PropositionReport(False, "complete relation: no fragments")
    if value == 0:
        # disconnected: atoms are whole closed components, exceeding kappa=0
        return PropositionReport(False, "not connected")
    _, reverse_atoms = _kappa_and_atoms(rel.reverse(), engine)
    if not reverse_atoms:
        return PropositionReport(False, "reverse is complete: no fragments")
    if len(forward_atoms[0].set) > len(reverse_atoms[0].set):
        return PropositionReport(False, "hypothesis a(rel) <= a(reverse) fails")
    atom = forward_atoms[0]
    induced, _ = rel.restriction(atom.set)
    return PropositionReport(
        True,
        "applicable",
        kappa=value,
        atom=atom,
        size_within_kappa=len(atom.set) <= value,
        induced_transitive=is_point_transitive_brute(induced),
    )
