"""Connectivity kappa, fragments and atoms of a finite relation.

kappa(rel) is the minimum of |image(X) \\ X| over nonempty X with
X + image(X) != V; a minimizer is a fragment, a minimum-cardinality
fragment is an atom.  The engine is a unit-capacity maximum flow on the
vertex-split digraph, run as bitmask frontiers: one cut function takes
the loop-free successor and predecessor masks (swapped for the reverse),
reaches a whole frontier with one OR per frontier vertex, and reads the
inclusion-minimal optimal source side off residual reachability, the
bottom of the min-cut lattice.  Phase 1 (Even's super-source reduction)
finds kappa from the flows between the separable pairs of vertices
0..delta, delta the least out-degree of a feasible singleton, plus one
flow per later vertex j on each direction from the vertices before it;
phase 2 finds every atom containing s from at most a flows, a the atom
size (see kappa).

fragments_oracle is the independent brute-force route (all 2^n - 1
subsets, numpy-vectorized); the two must agree and the tests insist on it.
The oracle reads the reverse's atoms off the same pass: X -> V \\ (X +
image(X)) maps the minimizers onto the reverse's, keeping the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import groups
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
    atom_size: int | None
    atoms: tuple[Fragment, ...]

    def atom_containing(self, v: int) -> Fragment | None:
        """Lexicographically least atom containing v, or None if no atom does."""
        if self.complete:
            raise AtomsUndefinedError("atoms are undefined for a complete relation")
        return next((atom for atom in self.atoms if v in atom.set), None)


def _cut(
    succ: tuple[int, ...], pred: tuple[int, ...], first: int, origin: int, t: int
) -> tuple[int, int]:
    """Maximum number of vertex-disjoint paths from the source node to t's
    in-node, and the bits of the inclusion-minimal optimal side.

    Vertex v splits into an in-node and an out-node joined by an arc of
    capacity 1; each arc u -> v of the loop-free successor masks succ
    (pred its predecessor masks) joins u's out-node to v's in-node with
    unbounded capacity.  The flow is a mask of used vertices, whose own
    arcs are full, and per used vertex the bit of its flow predecessor
    (prv) and its flow successor (nxt).  The reverse direction is the same
    search with succ and pred swapped.

    The source node reaches the in-nodes of `first`.  It is s's out-node
    when origin is 1 << s and first is s's successors (the caller ensures
    t is not one of them); with origin 0 it is a super-source outside V
    joined to the in-nodes of the sources `first`, which t must not be
    among."""
    n, into_t = len(succ), pred[t]
    # the paths of length 2, all at once; their entries below are the
    # defaults, and every other entry is written before it is read
    used = first & into_t
    value = used.bit_count()
    prv, nxt = [origin] * n, [t] * n
    while True:
        # breadth-first search in alternating layers of in-nodes and
        # out-nodes; once t is out of reach, the out-nodes reached are
        # the minimal source side
        layers = [first]
        seen_in = frontier = first
        seen_out = origin
        while frontier:
            # a free in-node crosses its own arc, a used one steps back
            # along the flow arc that enters it
            step = frontier & ~used
            back = frontier & used
            while back:
                low = back & -back
                step |= prv[low.bit_length() - 1]
                back ^= low
            step &= ~seen_out
            seen_out |= step
            layers.append(step)
            if step & into_t:
                break
            # an out-node reaches all its successors' in-nodes, and a
            # used vertex's own in-node backwards
            reach = step & used
            while step:
                low = step & -step
                reach |= succ[low.bit_length() - 1]
                step ^= low
            frontier = reach & ~seen_in
            seen_in |= frontier
            layers.append(frontier)
        else:
            return value, seen_out
        # augment along the path rebuilt from t back through the layers
        # (the out-node of u is entered only from u's in-node when u is
        # free, and only from nxt[u]'s in-node when u is used)
        v = t
        for i in range(len(layers) - 1, 0, -2):
            feeders = layers[i] & pred[v]
            if feeders:
                u = (feeders & -feeders).bit_length() - 1
                prv[v] = 1 << u
                if used >> u & 1:
                    v, nxt[u] = nxt[u], v
                else:
                    used |= 1 << u
                    nxt[u], v = v, u
            else:
                # the path came back down v's own arc: v is freed
                used ^= 1 << v
                v = nxt[v]
        prv[v] = origin
        value += 1


def _arcs(rel: Relation) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The loop-free successor and predecessor masks of rel."""
    loopless = rel.remove_loops()
    return loopless.succ, loopless.reverse().succ


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
    succ, pred = _arcs(rel)
    value, x_bits = _cut(succ, pred, succ[s], 1 << s, t)
    return value, VertexSet(rel.n, x_bits)


def kappa(rel: Relation) -> ConnectivityResult:
    """Exact connectivity and all atoms, sorted by `Fragment.sort_key`;
    atoms[0] is a kappa-fragment.

    If every ordered pair is inseparable (each vertex reaches all others in
    one step) the relation behaves as complete: kappa = n - 1, atoms
    undefined.  Otherwise two phases of `_cut` calls on the loop-free masks,
    with successors and predecessors swapped for the reverse:

    1. kappa (Even's super-source reduction): delta, the least
       |image(v) \\ {v}| over the vertices whose closed successor set is not
       V, bounds kappa.  Cut every separable ordered pair among vertices
       0..delta forward, and for each j = delta+1..n-1 cut from a
       super-source over 0..j-1 to j, forward and on the reverse.  A super
       cut below j leaves a source uncut, so it bounds a fragment and never
       reads below kappa.  For a minimum separator S = image(X) \\ X, with
       Y = V \\ (X + S) (a reverse fragment with boundary inside S), the
       first vertex outside S is at most delta.  If it lies in X and the
       first vertex g of Y is at most delta, the pair (it, g) reads |S|;
       otherwise the forward super cut into g does, as 0..g-1 lie in
       X + S.  The case in Y is the same with X and Y swapped: the pair
       runs forward from the first vertex of X, the super cut on the
       reverse.  So phase 1 takes at most delta (delta + 1) + 2 (n - delta - 1)
       cuts.  Each reverse optimum Y also yields the kappa-fragment
       V \\ (Y + reverse image(Y)), which with the forward optima bounds the
       atom size a from above.
    2. atoms: an atom A containing s is the minimal side of (s, t) for any
       t outside A + image(A), a set of a + kappa vertices that holds s and
       its successors; so the first a + kappa - |{s} + image(s)| + 1
       non-successors t of s include such a t.  That is at most a cuts per
       source, as {s} is a feasible set whose boundary has at least kappa
       vertices, and the pair cuts of phase 1 are reused.
    """
    n = rel.n
    if n < 2:
        raise ValueError("kappa requires at least 2 vertices")
    full = (1 << n) - 1
    succ, pred = _arcs(rel)
    degrees = [s.bit_count() for v, s in enumerate(succ) if s | 1 << v != full]
    if not degrees:
        return ConnectivityResult(n - 1, True, None, ())
    delta = min(degrees)
    low = (2 << delta) - 1  # vertices 0..delta
    pair_cuts = {
        (s, t): _cut(succ, pred, succ[s], 1 << s, t)
        for s in range(delta + 1)
        for t in _iter_bits(low & ~(succ[s] | 1 << s))
    }
    cuts = list(pair_cuts.values())
    cuts += [_cut(succ, pred, (1 << j) - 1, 0, j) for j in range(delta + 1, n)]
    back_cuts = [_cut(pred, succ, (1 << j) - 1, 0, j) for j in range(delta + 1, n)]
    best = min(value for value, _ in cuts + back_cuts)
    sides = {x for value, x in cuts if value == best}
    atom_size = min(
        [x.bit_count() for x in sides]
        + [
            (full & ~(y | _image_bits(pred, y))).bit_count()
            for value, y in back_cuts
            if value == best
        ]
    )
    for s in range(n):
        closed = succ[s] | 1 << s
        for tried, t in enumerate(_iter_bits(full & ~closed)):
            if tried > atom_size + best - closed.bit_count():
                break
            value, x = pair_cuts.get((s, t)) or _cut(succ, pred, succ[s], 1 << s, t)
            if value == best:
                sides.add(x)
                atom_size = min(atom_size, x.bit_count())
    atoms = tuple(
        sorted(
            (Fragment.of(rel, VertexSet(n, x)) for x in sides if x.bit_count() == atom_size),
            key=Fragment.sort_key,
        )
    )
    return ConnectivityResult(best, False, atom_size, atoms)


def _oracle_minimizers(rel: Relation) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """(kappa, every minimizer X of the boundary size as a mask, their
    sizes, their boundaries image(X) \\ X as masks), enumerating every
    nonempty subset.  A complete-type relation (no feasible subset at all)
    has kappa n - 1 and no minimizers."""
    n = rel.n
    if n < 2:
        raise ValueError("oracle requires at least 2 vertices")
    if n > ORACLE_LIMIT:
        raise ValueError(f"oracle refused: n={n} exceeds limit {ORACLE_LIMIT}")
    # image of every subset mask, each built from the mask without its
    # top vertex: 2^n word operations, no per-subset loop
    masks = np.arange(1 << n, dtype=np.int64)
    images = np.zeros(1 << n, dtype=np.int64)
    for v, succ in enumerate(rel.succ):
        images[1 << v : 2 << v] = images[: 1 << v] | succ
    feasible = (masks != 0) & ((masks | images) != (1 << n) - 1)
    if not feasible.any():
        return n - 1, masks[:0], masks[:0], masks[:0]
    boundaries = images & ~masks
    boundary_sizes = np.bitwise_count(boundaries)
    value = int(boundary_sizes[feasible].min())
    hits = masks[feasible & (boundary_sizes == value)]
    return value, hits, np.bitwise_count(hits), boundaries[hits]


def _sorted_fragments(
    n: int, sets: np.ndarray, boundaries: np.ndarray, value: int
) -> list[Fragment]:
    fragments = [
        Fragment(VertexSet(n, int(x)), VertexSet(n, int(b)), value)
        for x, b in zip(sets, boundaries)
    ]
    fragments.sort(key=Fragment.sort_key)
    return fragments


def fragments_oracle(rel: Relation) -> tuple[int, list[Fragment]]:
    """Brute-force route: enumerate every nonempty subset, keep all
    minimizers of the boundary size.  Complete-type relations (no feasible
    subset at all) give (n - 1, [])."""
    value, hits, _, boundaries = _oracle_minimizers(rel)
    return value, _sorted_fragments(rel.n, hits, boundaries, value)


def _oracle_atoms(rel: Relation) -> tuple[int, list[Fragment], list[Fragment]]:
    """(kappa, atoms, atoms of the reverse) from one oracle pass.
    X -> V \\ (X + image(X)) maps the minimizers one to one onto the
    reverse's, keeping the boundary, so the reverse's atoms come from the
    largest X."""
    value, hits, sizes, boundaries = _oracle_minimizers(rel)
    if not hits.size:
        return value, [], []
    least, largest = sizes == sizes.min(), sizes == sizes.max()
    rests = ((1 << rel.n) - 1) & ~(hits | boundaries)
    return (
        value,
        _sorted_fragments(rel.n, hits[least], boundaries[least], value),
        _sorted_fragments(rel.n, rests[largest], boundaries[largest], value),
    )


def atoms_oracle(rel: Relation) -> tuple[int, list[Fragment]]:
    """(kappa, atoms) via the brute-force oracle; atoms empty when complete."""
    value, atoms, _ = _oracle_atoms(rel)
    return value, atoms


def atom_containing(rel: Relation, v: int) -> Fragment | None:
    """kappa(rel).atom_containing(v), for a vertex v of rel."""
    if not 0 <= v < rel.n:
        raise ValueError(f"vertex {v} out of range for n={rel.n}")
    return kappa(rel).atom_containing(v)


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


def _atoms_both_ways(
    rel: Relation, engine: str
) -> tuple[int, tuple[Fragment, ...], tuple[Fragment, ...]]:
    """(kappa, atoms, the reverse's atoms); atoms are empty for
    complete-type relations, on both sides at once.  The oracle engine is
    only valid up to ORACLE_LIMIT vertices but much faster there, and reads
    both sides off one pass; the flow engine runs `kappa` on each side."""
    if engine == "oracle":
        value, forward, reverse = _oracle_atoms(rel)
        return value, tuple(forward), tuple(reverse)
    if engine != "flow":
        raise ValueError(f"unknown engine: {engine}")
    result = kappa(rel)
    return result.kappa, result.atoms, kappa(rel.reverse()).atoms


def check_atom_disjointness(rel: Relation, engine: str = "flow") -> AtomDisjointnessReport:
    """Atoms of rel and of its reverse; disjointness must hold on at least
    one side (a proven fact), so a double failure marks a bug upstream."""
    _, forward_atoms, reverse_atoms = _atoms_both_ways(rel, engine)
    if not forward_atoms:
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
    if not certified and not groups.is_point_transitive_brute(rel):
        return PropositionReport(False, "not point-transitive")
    value, forward_atoms, reverse_atoms = _atoms_both_ways(rel, engine)
    if not forward_atoms:
        return PropositionReport(False, "complete relation: no fragments")
    if value == 0:
        # disconnected: atoms are whole closed components, exceeding kappa=0
        return PropositionReport(False, "not connected")
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
        induced_transitive=groups.is_point_transitive_brute(induced),
    )
