"""Executable verification of the sphere-growth theorem and its corollaries.

Every claim checked here is a proven inequality, so on any certified
point-transitive instance a failed check is an implementation bug, never a
discovery.  Checks record lhs/rhs pairs with pass and tightness flags and
aggregate into machine-readable reports.

All the bounds follow from one sphere bound, and each quantity has one
route.  `growth_profile` walks the balls around a vertex once, to the end
of the hypothesis window, and the sphere, ball and girth-window records are
read from it.  `_shortest_return` is the breadth-first search for a
shortest product equal to the identity: it backs `zero_product_witness`
(the CLI `zerosum` command) and is the test oracle of the walks below.

`_size_records` is the one source of sphere and ball records: it reads
them off the ball sizes of a hypothesis window.  `_instance_reports` builds
the records of one relation at vertex 0; it makes the reflexive closure
once and walks it at most once.  `run_family` sends every relation file
through it, and `check_main_theorem`, `check_ball_growth` and
`check_girth_bound` are fronts for a single relation: each checks its
preconditions, then returns the core's one report.

The generator sets of a group build no relation: one batched walk per group
(`_walk`, over the one kernel `_block_windows`) takes each S as a 64-bit
mask to the hypothesis window around e of Cay(G, S + {e}).  Left
translations, being automorphisms, give every other base vertex the same
records.  The girth bound reduces to the ball bound: adjoin every loop, and
the window ends at g - 2.  So the walk knows each set's shortest return,
of length k = window end + 2: the girth scan reads each inverse-free set's
girth off it, and a family run reads each set's zero-product witness off
its balls (`_block_witnesses`).  A family run counts its summary by class,
the sets with the same records, and builds a set's reports only when they
are read.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Iterator, Sequence

import numpy as np

from . import fileio
from .groups import (
    BRUTE_LIMIT,
    FiniteGroup,
    TransitivityCertificate,
    _automorphisms,
    _subset_members,
    abelian_groups,
    cayley_relation,  # unused here; perfbench/tracing.py wraps this name
    cyclic,
    dihedral,
    is_point_transitive_brute,
    symmetric,
)
from .relation import INFINITE, Relation, _image_bits


class BugError(RuntimeError):
    """A proven statement failed on a valid instance: implementation bug."""


@dataclass(frozen=True, slots=True)
class CheckRecord:
    claim: str
    index: int  # the radius j, the girth g, or the witness length k
    lhs: int
    rhs: int

    @property
    def passed(self) -> bool:
        return self.lhs >= self.rhs

    @property
    def tight(self) -> bool:
        return self.lhs == self.rhs

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "index": self.index,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "pass": self.passed,
            "tight": self.tight,
        }


@dataclass(slots=True)
class VerificationReport:
    family: str
    descriptor: str
    params: dict
    r: int | None
    checks: list[CheckRecord] = field(default_factory=list)
    witnesses: dict = field(default_factory=dict)
    caveats: tuple[str, ...] = ()

    @property
    def failures(self) -> list[CheckRecord]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "instance": self.descriptor,
            "params": self.params,
            "r": self.r,
            "checks": [c.to_dict() for c in self.checks],
            "witnesses": self.witnesses,
            "caveats": list(self.caveats),
        }


@dataclass(frozen=True, slots=True)
class ZeroProductWitness:
    """Sequence of subset elements whose left-to-right product is the
    identity, of minimal length k, with the guaranteed bound ceil(n/s)."""

    sequence: tuple[int, ...]
    k: int
    bound: int


@dataclass(frozen=True, slots=True)
class GrowthProfile:
    """The hypothesis window at a vertex and the balls inside it: balls[j]
    is the bitmask of the j-ball for j = 0..max_j.  A ball that stops
    growing keeps the window open for good, so the window then runs to n
    and the last ball repeats."""

    balls: tuple[int, ...]

    @property
    def max_j(self) -> int:
        return len(self.balls) - 1


def growth_profile(rel: Relation, v: int) -> GrowthProfile:
    """Grow balls around v while each meets the reverse image of v only in
    v.  Stops at the first failure or at ball stabilization (capped at n).
    The relation is reflexive, so B_j, the image of B_(j-1), lies in the
    image of B_j: each step images only the newest sphere."""
    if not rel.is_reflexive():
        raise ValueError("hypothesis window requires a reflexive relation")
    if not 0 <= v < rel.n:
        raise ValueError(f"vertex {v} out of range for n={rel.n}")
    rev_bits = 0
    for u in range(rel.n):
        if rel.succ[u] >> v & 1:
            rev_bits |= 1 << u
    balls = [1 << v]
    sphere = balls[0]
    for j in range(1, rel.n + 1):
        nxt = balls[-1] | _image_bits(rel.succ, sphere)
        if nxt & rev_bits != 1 << v:
            break
        if nxt == balls[-1]:  # stabilized: the condition persists forever
            balls += [nxt] * (rel.n + 1 - j)
            break
        sphere = nxt & ~balls[-1]
        balls.append(nxt)
    return GrowthProfile(tuple(balls))


hypothesis_window = growth_profile  # kept only because perfbench/tracing.py wraps this name


def _require_regular(rel: Relation) -> None:
    if rel.regular_degree() is None:
        raise ValueError("relation is not regular (so not point-transitive)")


def _size_records(
    sizes: tuple[int, ...], r: int
) -> tuple[tuple[CheckRecord, ...], tuple[CheckRecord, ...]]:
    """The sphere and the ball records of one vertex, from its ball sizes
    |B_0|, ..., |B_max_j| in the hypothesis window of an r-regular
    reflexive relation.  The records are frozen, so callers may share them
    among instances with the same (r, sizes)."""
    sphere = tuple(
        CheckRecord("sphere-lower-bound", j, sizes[j] - sizes[j - 1], r - 1)
        for j in range(1, len(sizes))
    )
    ball = tuple(
        CheckRecord("ball-lower-bound", j, size, 1 + (r - 1) * j)
        for j, size in enumerate(sizes)
    )
    return sphere, ball


def _instance_reports(
    rel: Relation,
    certificate: TransitivityCertificate,
    descriptor: str,
    family: str,
    params: dict,
    checks: tuple[str, ...],
) -> list[VerificationReport]:
    """The main and growth reports of the reflexive closure and the girth
    report of the loopless relation, in that order, for the selected checks
    among those three.  All three read vertex 0's growth profile, walked at
    most once, and only when main or growth is selected or the girth is
    finite.  On a point-transitive instance every vertex has vertex 0's
    balls, so vertex 0 stands for all of them.

    The girth check retraces the reduction to the ball bound: adjoin all
    loops, then the (g-2)-ball around a vertex still meets the reverse
    image only in that vertex.  On a point-transitive instance every vertex
    lies on a g-cycle, whose last vertex the (g-1)-ball reaches, so on a
    certified instance a window other than g - 2 is a bug.
    """
    closure = rel.reflexive_closure()
    r = closure.regular_degree()  # regular iff the loopless relation is
    if r is None:
        # the bounds are stated for a single out-degree, so a non-regular
        # input gets a caveated empty report per check
        return [
            VerificationReport(family, descriptor, params, None, caveats=("not-regular",))
            for claim in checks
            if claim in ("main", "growth", "girth")
        ]
    profile = None
    records: tuple = ((), ())  # a relation on no vertices has no records
    if rel.n and ("main" in checks or "growth" in checks):
        profile = growth_profile(closure, 0)
        records = _size_records(tuple(b.bit_count() for b in profile.balls), r)
    caveats = () if certificate.certified else ("uncertified-transitivity",)
    reports = [
        VerificationReport(family, descriptor, params, r, list(records[kind]), caveats=caveats)
        for kind, claim in enumerate(("main", "growth"))
        if claim in checks
    ]
    if "girth" in checks:
        loopless = rel.remove_loops()
        degree = loopless.regular_degree()
        report = VerificationReport(family, descriptor, params, degree, caveats=caveats)
        g = loopless.girth()
        if g == INFINITE:
            report.caveats += ("acyclic",)
            report.witnesses["girth"] = "infinite"
        else:
            g = int(g)
            report.witnesses["girth"] = g
            max_j = (profile or growth_profile(closure, 0)).max_j
            report.witnesses["window_max_j"] = max_j
            if certificate.certified and max_j != g - 2:
                side = "below" if max_j < g - 2 else "above"
                raise BugError(
                    f"{descriptor}: reflexive-closure window {max_j} {side} g-2={g - 2}"
                )
            report.checks.append(CheckRecord("girth-order-bound", g, rel.n, 1 + degree * (g - 1)))
        reports.append(report)
    return reports


def check_main_theorem(rel: Relation, certificate: TransitivityCertificate) -> VerificationReport:
    """Sphere sizes within the hypothesis window must be at least r - 1.
    The constant is exact: the reflexive directed cycle meets it with
    equality at every radius of its window."""
    if not rel.is_reflexive():
        raise ValueError("the sphere bound assumes a reflexive relation")
    _require_regular(rel)  # raise here; run_family records a caveat instead
    (report,) = _instance_reports(rel, certificate, "relation", "adhoc", {}, ("main",))
    return report


def check_ball_growth(rel: Relation, certificate: TransitivityCertificate) -> VerificationReport:
    """Ball sizes within the hypothesis window must be at least 1 + (r-1)j."""
    if not rel.is_reflexive():
        raise ValueError("the ball growth bound assumes a reflexive relation")
    _require_regular(rel)
    (report,) = _instance_reports(rel, certificate, "relation", "adhoc", {}, ("growth",))
    return report


def check_girth_bound(rel: Relation, certificate: TransitivityCertificate) -> VerificationReport:
    """For a loopless point-transitive relation with finite girth g the
    order must be at least 1 + r(g-1)."""
    if rel.has_loop():
        raise ValueError("the girth bound assumes a loopless relation")
    _require_regular(rel)
    (report,) = _instance_reports(rel, certificate, "relation", "adhoc", {}, ("girth",))
    return report


def _shortest_return(group: FiniteGroup, gens: tuple[int, ...]) -> list[int]:
    """Shortest nonempty sequence over gens whose left-to-right product is
    the identity, by breadth-first search from the identity in the loopless
    Cayley relation; its length is the girth of that relation."""
    table = group.table
    parent: list[tuple[int, int] | None] = [None] * group.n
    queue = [0]
    for g in queue:  # appending while iterating reads the list as a FIFO queue
        row = table[g]
        for s in gens:
            h = row[s]
            if h == 0:  # BFS order makes the first return minimal
                sequence = [s]
                while g != 0:
                    g, s = parent[g]
                    sequence.append(s)
                sequence.reverse()
                return sequence
            if parent[h] is None:
                parent[h] = (g, s)
                queue.append(h)
    raise BugError(f"identity unreachable over {gens} in {group.name}")


def zero_product_witness(group: FiniteGroup, subset: Iterable[int]) -> ZeroProductWitness:
    """Shortest nonempty sequence over the subset whose left-to-right
    product is the identity, by breadth-first search in the loopless Cayley
    relation; its length is guaranteed to be at most ceil(n / |S|)."""
    gens = _subset_members(group, subset)
    if not gens:
        raise ValueError("subset must be nonempty")
    if group.identity in gens:
        raise ValueError("subset must exclude the identity")
    sequence = _shortest_return(group, gens)
    k = len(sequence)
    bound = (group.n + len(gens) - 1) // len(gens)
    if group.product(sequence) != group.identity:
        raise BugError(f"witness {sequence} does not multiply to the identity")
    if k > bound:
        raise BugError(
            f"witness length {k} exceeds ceil({group.n}/{len(gens)}) = {bound}"
        )
    return ZeroProductWitness(tuple(sequence), k, bound)


def shortest_zero_product_oracle(
    group: FiniteGroup, subset: Iterable[int], max_len: int
) -> int | None:
    """Exhaustive-enumeration oracle: least length <= max_len of a product
    equal to the identity, scanning all |S|^m sequences per length."""
    gens = _subset_members(group, subset)
    for m in range(1, max_len + 1):
        for seq in itertools.product(gens, repeat=m):
            if group.product(seq) == group.identity:
                return m
    return None


@dataclass(slots=True)
class LemmaPowersReport:
    automorphism_count: int
    all_preserve_power: bool
    power_transitive: bool

    @property
    def holds(self) -> bool:
        return self.all_preserve_power and self.power_transitive


def check_lemma_powers(rel: Relation, i: int) -> LemmaPowersReport:
    """Every automorphism of the relation is one of its i-th power, and the
    power inherits point-transitivity through the same orbit.  The
    automorphisms are streamed, not stored; as they form the whole group,
    the orbit of 0 is the set of its images."""
    power = rel.power(i)
    arcs = list(power.edges())
    count, preserve, orbit = 0, True, set()
    for p in _automorphisms(rel):
        count += 1
        preserve = preserve and all(power.succ[p[u]] >> p[v] & 1 for u, v in arcs)
        orbit.update(p[:1])  # p is empty when n = 0
    return LemmaPowersReport(count, preserve, orbit == set(range(rel.n)))


# ---------------------------------------------------------------------------
# Whole-group walks

# generator sets one family run, or one girth scan, may enumerate
MAX_ENUMERATED_INSTANCES = 200_000
# a block holds at most _BLOCK_SETS generator sets, those that differ only in
# their low digits: 3^6 = 729 for the girth scan's inverse pairs, 2^10 for the
# ball walk's elements, so a walk's arrays are O(1024 n) words however many
# sets the group has
_BLOCK_SETS = 1024


def _block_image(sets: np.ndarray, translates: np.ndarray) -> np.ndarray:
    """Column b's image: the OR of the translates translates[g, b] over the
    elements g of sets[b], one layer of a batched walk.  The last row,
    T^-1, has no element: no bit of sets picks it."""
    picked = sets >> np.arange(len(translates) - 1, dtype=np.uint64)[:, None]
    picked &= 1
    picked *= translates[:-1]
    return np.bitwise_or.reduce(picked, axis=0)


def _block_windows(
    translates: np.ndarray,
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """The hypothesis windows around the identity of a block of reflexive
    Cayley relations of one group, by one walk over all of them at once.

    Column b describes T_b = S_b + {e}: for g < n, translates[g, b] is the
    bitmask of the left translate g T_b, and row n holds T_b^-1, the
    reverse image of the identity.  The 1-ball is T_b itself, and each
    later ball is the OR of the translates that the previous ball's bits
    pick out.  As in `growth_profile`, a window ends before the first ball
    that meets T_b^-1 outside the identity, else at n; closed columns drop
    out.  Returns each column's window end, `growth_profile(Cay(G, T_b),
    e).max_j`, and per radius j >= 1 the columns whose window reached j - 1
    and their j-balls: a column's last ball is the one that ends its
    window, B_(k-1) for its shortest return of length k.  Any reflexive
    relations given the same way, by each vertex's successors and the
    reverse image of vertex 0, walk alike from 0.
    """
    n, count = translates.shape[0] - 1, translates.shape[1]
    ends = np.full(count, n)
    columns = np.arange(count)
    ball = translates[0]
    layers = []
    for j in range(1, n + 1):
        if j > 1:
            ball = _block_image(ball, translates)
        layers.append((columns, ball))
        closed = (ball & translates[n]) != 1
        if closed.any():
            ends[columns[closed]] = j - 1
            keep = ~closed
            if not keep.any():
                break
            columns, translates, ball = columns[keep], translates[:, keep], ball[keep]
    return ends, layers


def _walk(
    group: FiniteGroup, choices: list[tuple[int, ...]]
) -> Iterator[tuple[np.ndarray, np.ndarray, list]]:
    """One batched walk over the nonempty generator sets S of a group whose
    digit i picks nothing or one element of choices[i], digit 0 the least
    significant: per block, the S masks and `_block_windows` of the
    reflexive Cay(G, S + {e}).

    The low digits, as many as fit _BLOCK_SETS sets, are built once; a
    block ORs their translates with those of its shared high members.
    """
    n = group.n
    # row g < n, column t: 1 << g t, a bit of the left translate g T;
    # row n, column t: 1 << t^-1, a bit of T^-1
    bits = np.left_shift(
        1, np.array([*group.table, [group.inverse(t) for t in range(n)]], dtype=np.uint64)
    )
    width, sets = 0, 1
    while width < len(choices) and sets * (len(choices[width]) + 1) <= _BLOCK_SETS:
        sets *= len(choices[width]) + 1
        width += 1
    low = bits[:, :1]  # T = {e}
    for choice in choices[:width]:
        low = np.hstack([low, *(low | bits[:, c, None] for c in choice)])
    high = choices[width:][::-1]  # most significant first, as itertools.product counts
    for digits in itertools.product(*(range(len(c) + 1) for c in high)):
        members = [c[d - 1] for c, d in zip(high, digits) if d]
        first = 0 if members else 1  # the first set of all is the empty set
        translates = low[:, first:] | np.bitwise_or.reduce(bits[:, members], axis=1)[:, None]
        yield (translates[0] ^ 1, *_block_windows(translates))


def _ball_matrix(ends: np.ndarray, layers: list) -> np.ndarray:
    """Row j, column b: column b's j-ball from `_block_windows`, for j up to
    its window end plus 1; the rows past that are 0."""
    balls = np.zeros((int(ends.max()) + 2, len(ends)), dtype=np.uint64)
    balls[0] = 1
    for j, (columns, ball) in enumerate(layers, 1):
        balls[j, columns] = ball
    return balls


def _members(masks: np.ndarray, n: int) -> list[list[int]]:
    """Each set's ascending members: the set bits of its mask."""
    bits = np.nonzero(masks[:, None] >> np.arange(n, dtype=np.uint64) & 1)[1].tolist()
    stops = list(itertools.accumulate(np.bitwise_count(masks).tolist()))
    return [bits[a:b] for a, b in zip([0, *stops], stops)]


def _subset_windows(group: FiniteGroup) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every nonempty S in G - {e}, a block at a time: the walk masks, the
    window ends and `_ball_matrix` of the reflexive Cay(G, S + {e}) around
    e.  A family run has at most 200 000 sets, so n <= 18."""
    for masks, ends, layers in _walk(group, [(s,) for s in range(1, group.n)]):
        yield masks, ends, _ball_matrix(ends, layers)


def _block_witnesses(
    mul: np.ndarray, masks: np.ndarray, ends: np.ndarray, balls: np.ndarray
) -> np.ndarray:
    """Row b: the zero-product witness of S_b, the sequence that
    `_shortest_return` finds, in its first k_b = ends[b] + 2 entries.

    The search scans the generators in ascending order, so it returns the
    lexicographically least shortest return.  A prefix p_i = s_1 ... s_i of
    a return of length k has p_i^-1 at distance exactly k - i from e, else
    a shorter return exists (so p_i is e only at i = k).  So the greedy
    takes, at step i, the least s in S with p_i^-1 in B_(k-i); B_(k-1) is
    the ball that ends the window.  The steps run over the columns in
    order of decreasing k, so the columns still open are a prefix.  A step
    that finds no such s takes the least s in S, which leaves a product
    the caller's check refuses.
    """
    n = mul.shape[0]
    # inverse_bits[g, s]: the bit of (g s)^-1
    inverse_bits = np.left_shift(np.uint64(1), np.argmin(mul, axis=1)[mul].astype(np.uint64))
    order = np.argsort(-ends, kind="stable")
    k = ends[order] + 2
    steps = int(k[0])
    members = masks[order, None] >> np.arange(n, dtype=np.uint64) & 1
    # row i: each column's target at step i + 1, B_(k-i-1)
    rows = np.maximum(k - 1 - np.arange(steps)[:, None], 0)
    targets = np.take_along_axis(balls[:, order], rows, axis=0)
    sequences = np.zeros((len(k), steps), dtype=np.intp)
    product = np.zeros(len(k), dtype=np.intp)
    for i, m in enumerate(np.searchsorted(-k, -np.arange(steps)).tolist()):  # m: k > i
        fits = (inverse_bits[product[:m]] & targets[i, :m, None]) != 0
        s = np.argmax(members[:m] << fits, axis=1)
        sequences[:m, i] = s
        product[:m] = mul[product[:m], s]
    sequences[order] = sequences.copy()
    return sequences


def _zero_products(
    group: FiniteGroup, mul: np.ndarray, masks: np.ndarray, ends: np.ndarray, balls: np.ndarray
) -> tuple[np.ndarray, np.ndarray, dict[int, str]]:
    """Per set the row (k, bound, ok): its witness length k = window end +
    2, its bound ceil(n/|S|) and whether its witness passed both checks;
    the witnesses, as the rows of `_block_witnesses`; and the error of each
    set that failed.  The checks are `zero_product_witness`'s: the witness
    multiplies to the identity, then k <= ceil(n/|S|)."""
    k = ends + 2
    sequences = _block_witnesses(mul, masks, ends, balls)
    # the witness, then the identity
    padded = np.where(np.arange(sequences.shape[1]) < k[:, None], sequences, 0)
    product = np.zeros(len(ends), dtype=np.intp)
    for column in padded.T:
        product = mul[product, column]
    size = np.bitwise_count(masks).astype(np.int64)
    bound = (group.n + size - 1) // size
    ok = (product == 0) & (k <= bound)
    errors = {}
    for i in np.flatnonzero(~ok).tolist():
        if product[i] != 0:
            sequence = sequences[i, : k[i]].tolist()
            errors[i] = f"witness {sequence} does not multiply to the identity"
        else:
            errors[i] = f"witness length {k[i]} exceeds ceil({group.n}/{size[i]}) = {bound[i]}"
    return np.stack([k, bound, ok], axis=1), sequences, errors


@dataclass(slots=True)
class GirthScanResult:
    """Girth-bound verification over every nonempty generator subset of one
    group.

    Subsets containing an inverse pair (or an involution) have girth 2, where
    the bound 1 + r reduces to r <= n - 1 and holds for every subset; they
    are verified as one aggregate class.  The remaining, inverse-free
    subsets go through the ball walk (`_walk`): with every loop adjoined,
    the window around the identity ends at g - 2, so each girth is read off
    as the window end plus 2.
    """

    group: str
    order: int
    total_subsets: int
    girth_two_subsets: int
    scanned_subsets: int
    tight_subsets: int
    failures: list[VerificationReport]

    @property
    def ok(self) -> bool:
        return not self.failures


def _inverse_pairs(group: FiniteGroup) -> list[tuple[int, int]]:
    """The pairs (g, g^-1) with g < g^-1, whose 3^pairs - 1 choices are the
    inverse-free generator sets.  Refuses a group with more of those than a
    girth scan may enumerate, and a group of order above 64 with an inverse
    pair: the scan packs a set of elements into one 64-bit word, and it
    refuses such a group rather than pack more words (no catalog group of
    order above 64 has both an inverse pair and at most 200 000 sets)."""
    pairs = [(g, h) for g in range(1, group.n) if g < (h := group.inverse(g))]
    inverse_free = 3 ** len(pairs) - 1
    if inverse_free > MAX_ENUMERATED_INSTANCES:
        raise ValueError(
            f"girth scan of {group.name} refused: {inverse_free} generator sets"
            f" exceed {MAX_ENUMERATED_INSTANCES}"
        )
    if pairs and group.n > 64:
        raise ValueError(
            f"girth scan of {group.name} refused: order {group.n} exceeds 64"
        )
    return pairs


def scan_girth_bound(group: FiniteGroup) -> GirthScanResult:
    n = group.n
    total = (1 << (n - 1)) - 1
    pairs = _inverse_pairs(group)
    inverse_free = 3 ** len(pairs) - 1
    # girth-2 class: r <= n - 1 always; tight only for the full subset,
    # which always contains an inverse pair when n > 1.
    tight = int(n > 1)
    failures: list[VerificationReport] = []
    # pair (a, b)'s digit picks neither, a or b; the last pair is the least
    # significant digit, so the sets come in
    # itertools.product((0, 1, 2), repeat=len(pairs)) order.  With no pair
    # there is nothing to walk, and a group of order above 64 builds no mask.
    for masks, ends, layers in _walk(group, pairs[::-1]) if pairs else ():
        if len(layers) == n:  # some window reached n - 1, but g <= n ends each by n - 2
            raise BugError(f"identity unreachable over {len(layers[-1][0])} generator sets")
        girths = ends + 2
        rhs = 1 + np.bitwise_count(masks) * (girths - 1)
        tight += int(np.count_nonzero(rhs == n))
        for i in np.flatnonzero(rhs > n).tolist():
            (gens,) = _members(masks[[i]], n)
            g = int(girths[i])
            report = VerificationReport(
                "girth-scan",
                f"Cay({group.name},{gens})",
                {"group": group.name, "gens": gens},
                len(gens),
                [CheckRecord("girth-order-bound", g, n, 1 + len(gens) * (g - 1))],
            )
            failures.append(report)
    return GirthScanResult(
        group.name, n, total, total - inverse_free, inverse_free, tight, failures
    )


# ---------------------------------------------------------------------------
# Family enumeration and the harness driver


def subsets_of(elements: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """All nonempty subsets in deterministic (size-lexicographic mask) order."""
    elems = tuple(elements)
    for mask in range(1, 1 << len(elems)):
        yield tuple(e for i, e in enumerate(elems) if mask >> i & 1)


# built-in family -> (its sizing parameter, the groups for a value of it);
# groups are built one at a time, so a refused family stops at the first
# group over its bound
FAMILIES = {
    "circulants": ("max_n", lambda k: (cyclic(n) for n in range(2, k + 1))),
    "cayley_abelian": (
        "max_order",
        lambda k: (g for order in range(2, k + 1) for g in abelian_groups(order)),
    ),
    "cayley_dihedral": ("max_m", lambda k: (dihedral(m) for m in range(1, k + 1))),
    "cayley_symmetric": ("m", lambda k: (symmetric(m) for m in (k,))),
}


def _family_groups(family: str, params: dict) -> Iterator[FiniteGroup]:
    """The groups of the named built-in family that have a nonempty
    generator subset."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family: {family}")
    key, build = FAMILIES[family]
    return (group for group in build(params[key]) if group.n > 1)


ALL_CHECKS = ("main", "growth", "girth", "zerosum")


@dataclass(slots=True)
class FamilyRun:
    """The outcome of `run_family`.  `classed_reports()` yields every report
    with the key of its class: reports with the same key have the same
    checks, and the key None marks a class of one.  `reports` lists them;
    a built-in family builds them on first read."""

    family: str
    params: dict
    girth_scans: list[GirthScanResult]
    summary: dict
    _classed: Callable[[], Iterator[tuple[Hashable, VerificationReport]]] = field(
        compare=False, repr=False
    )
    _reports: list[VerificationReport] | None = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return self.summary["bugs"] == 0

    @property
    def reports(self) -> list[VerificationReport]:
        if self._reports is None:
            self._reports = [report for _, report in self._classed()]
        return self._reports

    def classed_reports(self) -> Iterator[tuple[Hashable, VerificationReport]]:
        return self._classed()


def _summarize(
    classes: Iterable[tuple[int, list[tuple[Sequence[CheckRecord], tuple[str, ...]]]]],
    girth_scans: list[GirthScanResult],
) -> dict:
    """Totals over the reports, grouped by the instance they check.  A
    class is `count` instances whose reports have the same checks and
    caveats, given as one (checks, caveats) pair per report; each class is
    read in one pass."""
    instances = checks = failures = bugs = caveated = tight_checks = tight_instances = 0
    for count, reports in classes:
        instances += count if reports else 0
        caveated += count if any(caveats for _, caveats in reports) else 0
        for records, caveats in reports:
            failed = tight = 0
            # a tight-growth report has only tight ball records of radius
            # >= 1, and they reach radius 2
            growth_tight, radius = True, 0
            for c in records:
                if c.lhs < c.rhs:
                    failed += 1
                elif c.lhs == c.rhs:
                    tight += 1
                if c.claim == "ball-lower-bound" and c.index >= 1:
                    growth_tight = growth_tight and c.lhs == c.rhs
                    radius = c.index
            checks += count * len(records)
            failures += count * failed
            if not caveats:  # violations on uncertified instances are caveats
                bugs += count * failed
            tight_checks += count * tight
            tight_instances += count if growth_tight and radius >= 2 else 0
    scan_subsets = sum(s.total_subsets for s in girth_scans)
    scan_failures = sum(len(s.failures) for s in girth_scans)
    return {
        "instances": instances,
        "checks": checks,
        "failures": failures,
        "bugs": bugs + scan_failures,
        "caveated_instances": caveated,
        "tight_checks": tight_checks,
        "tight_growth_instances": tight_instances,
        "girth_scan_groups": len(girth_scans),
        "girth_scan_subsets": scan_subsets,
        "girth_scan_tight_subsets": sum(s.tight_subsets for s in girth_scans),
    }


def _class_keys(
    width: int,
    masks: np.ndarray,
    ends: np.ndarray,
    balls: np.ndarray | None,
    zero: np.ndarray | None,
) -> list[bytes]:
    """Each set's class, the bytes of its row: r = |S| + 1, the degree of
    the reflexive closure; then its (k, bound, ok) row of `_zero_products`,
    or 0s; then the ball sizes of its window when `balls` is given; then 0s
    to `width` bytes.  Sets with equal keys have equal records.  A family
    run has n <= 18, so each value fits a byte."""
    rows = np.zeros((len(masks), width), dtype=np.uint8)
    rows[:, 0] = np.bitwise_count(masks) + 1
    if zero is not None:
        rows[:, 1:4] = zero
    if balls is not None:
        sizes = np.bitwise_count(balls[:-1]).T
        sizes[np.arange(sizes.shape[1]) > ends[:, None]] = 0
        rows[:, 4 : 4 + sizes.shape[1]] = sizes
    return rows.view(f"V{width}").ravel().tolist()


def _class_records(key: bytes, kinds: list[int], zerosum: bool) -> list[tuple[CheckRecord, ...]]:
    """The records of each report of a set of the class `key`, in report
    order.  A witness that failed its checks gets the zero-product record
    that always fails."""
    r, k, bound, ok = key[:4]
    records = []
    if kinds:
        sizes = _size_records(tuple(key[4:].rstrip(b"\0")), r)
        records += [sizes[kind] for kind in kinds]
    if zerosum:
        records.append((CheckRecord("zero-product-bound", *((k, bound, k) if ok else (0, -1, 0))),))
    return records


def _set_reports(
    family: str, zerosum: bool, blocks: list, records: dict
) -> Iterator[tuple[Hashable, VerificationReport]]:
    """Each generator set's reports in walk order, each keyed by its index
    among the set's reports and the set's class (`_class_keys`), whose
    `records` hold the checks of each report."""
    for group, masks, keys, witnesses, errors in blocks:
        if zerosum:
            witnesses = witnesses.tolist()
        for i, gens in enumerate(_members(masks, group.n)):
            key = keys[i]
            descriptor = f"Cay({group.name},{gens})"
            info = {"group": group.name, "gens": gens}
            checks = records[key]
            for j in range(len(checks) - zerosum):
                report = VerificationReport(family, descriptor, info, key[0], list(checks[j]))
                yield (j, key), report
            if zerosum:
                witness = {"sequence": witnesses[i][: key[1]]} if key[3] else {"error": errors[i]}
                yield (len(checks) - 1, key), VerificationReport(
                    family, descriptor, info, key[0] - 1, list(checks[-1]), witness
                )


def run_family(
    family: str,
    checks: Iterable[str] = ALL_CHECKS,
    files: Iterable[str] = (),
    **params,
) -> FamilyRun:
    """Run the selected checks over every instance of a family.

    An instance is a relation file or a generator subset of a group.  For
    built-in group families the girth bound is verified by the per-group
    scan (aggregate for the girth-2 class, explicit for the inverse-free
    subsets), and subsets are enumerated only for the other checks: one
    walk per group gives each set's records and zero-product witness, and
    the summary counts the sets of each class.
    """
    selected = tuple(checks)
    for c in selected:
        if c not in ALL_CHECKS:
            raise ValueError(f"unknown check: {c}")
    # each claim once, in report order, however the caller listed them
    selected = tuple(c for c in ALL_CHECKS if c in selected)
    girth_scans: list[GirthScanResult] = []
    if family == "from_files":
        instances = []
        for path in files:
            rel = fileio.read_relation(path)
            if rel.n <= BRUTE_LIMIT and is_point_transitive_brute(rel):
                certificate = TransitivityCertificate.brute()
            else:
                certificate = TransitivityCertificate.none()
            instances.append(_instance_reports(rel, certificate, str(path), family, {}, selected))
        reports = [r for instance in instances for r in instance]
        classes = [(1, [(r.checks, r.caveats) for r in instance]) for instance in instances]
        summary = _summarize(classes, girth_scans)
        # each report is a class of one
        classed = functools.partial(zip, itertools.repeat(None), reports)
        return FamilyRun(family, dict(params), girth_scans, summary, classed, reports)
    per_subset = tuple(c for c in selected if c in ("main", "growth", "zerosum"))
    # refuse an oversized family before the first group is scanned
    family_groups = []
    count = 0
    for group in _family_groups(family, params):
        if "girth" in selected:
            _inverse_pairs(group)
        if per_subset:
            count += (1 << (group.n - 1)) - 1
            if count > MAX_ENUMERATED_INSTANCES:
                raise ValueError(
                    f"family {family} exceeds {MAX_ENUMERATED_INSTANCES} enumerated instances"
                )
        family_groups.append(group)
    # the sphere (0) and ball (1) records, in report order
    kinds = [kind for kind, claim in enumerate(("main", "growth")) if claim in per_subset]
    zerosum = "zerosum" in per_subset
    width = 4 + max((group.n for group in family_groups), default=0) + 1
    # per block: the group, the S masks, each set's class, and the witnesses
    # and errors of `_zero_products`
    blocks = []
    counts: Counter = Counter()
    for group in family_groups:
        if "girth" in selected:
            girth_scans.append(scan_girth_bound(group))
        if not per_subset:
            continue
        mul = np.array(group.table, dtype=np.intp) if zerosum else None
        for masks, ends, balls in _subset_windows(group):
            zero = witnesses = errors = None
            if zerosum:
                zero, witnesses, errors = _zero_products(group, mul, masks, ends, balls)
            keys = _class_keys(width, masks, ends, balls if kinds else None, zero)
            counts.update(keys)
            blocks.append((group, masks, keys, witnesses, errors))
    records = {key: _class_records(key, kinds, zerosum) for key in counts}
    classes = [(sets, [(claim, ()) for claim in records[key]]) for key, sets in counts.items()]
    return FamilyRun(
        family, dict(params), girth_scans, _summarize(classes, girth_scans),
        functools.partial(_set_reports, family, zerosum, blocks, records),
    )
