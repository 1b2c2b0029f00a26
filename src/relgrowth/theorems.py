"""Executable verification of the sphere-growth theorem and its corollaries.

Every claim checked here is a proven inequality, so on any certified
point-transitive instance a failed check is an implementation bug, never a
discovery.  Checks record lhs/rhs pairs with pass and tightness flags and
aggregate into machine-readable reports.

All the bounds follow from one sphere bound, and each quantity has one
route.  `growth_profile` walks the balls around a vertex once, to the end
of the hypothesis window, and the sphere, ball and girth-window records are
read from it.  `_shortest_return` is the one search for a shortest product
equal to the identity, and its sequence is the zero-product witness.  The
girth scan of a whole group runs one batched breadth-first search over all
its inverse-free generator sets (`_block_girths`), and `_shortest_return`
is that search's test oracle: their lengths agree set by set.

`_instance_reports` is the one core that builds the sphere, ball and girth
records of an instance; it makes the reflexive closure once and walks each
base vertex once.  `run_family` sends every instance, a generator subset or
a relation file, through it.  `check_main_theorem`, `check_ball_growth` and
`check_girth_bound` are fronts for a single relation: each checks its
preconditions, then returns the core's one report.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .groups import (
    BRUTE_LIMIT,
    FiniteGroup,
    TransitivityCertificate,
    _automorphisms,
    _subset_members,
    abelian_groups,
    cayley_relation,
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

    @property
    def bug(self) -> bool:
        # violations on uncertified instances are caveats, not bugs
        return bool(self.failures) and not self.caveats

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

    vertex: int
    balls: tuple[int, ...]

    @property
    def max_j(self) -> int:
        return len(self.balls) - 1


def growth_profile(rel: Relation, v: int) -> GrowthProfile:
    """Grow balls around v while each meets the reverse image of v only in
    v.  Stops at the first failure or at ball stabilization (capped at n).
    """
    if not rel.is_reflexive():
        raise ValueError("hypothesis window requires a reflexive relation")
    if not 0 <= v < rel.n:
        raise ValueError(f"vertex {v} out of range for n={rel.n}")
    rev_bits = 0
    for u in range(rel.n):
        if rel.succ[u] >> v & 1:
            rev_bits |= 1 << u
    balls = [1 << v]
    for j in range(1, rel.n + 1):
        nxt = _image_bits(rel.succ, balls[-1])
        if nxt & rev_bits != 1 << v:
            break
        if nxt == balls[-1]:  # stabilized: the condition persists forever
            balls += [nxt] * (rel.n + 1 - j)
            break
        balls.append(nxt)
    return GrowthProfile(v, tuple(balls))


hypothesis_window = growth_profile  # kept only because perfbench/tracing.py wraps this name


def _require_regular(rel: Relation) -> None:
    if rel.regular_degree() is None:
        raise ValueError("relation is not regular (so not point-transitive)")


def _instance_reports(
    rel: Relation,
    certificate: TransitivityCertificate,
    descriptor: str,
    family: str,
    params: dict,
    checks: tuple[str, ...],
    all_vertices: bool,
    bound_delta: int,
) -> list[VerificationReport]:
    """The main and growth reports of the reflexive closure and the girth
    report of the loopless relation, in that order, for the selected checks
    among those three.  Main and growth read one growth profile per base
    vertex, and the girth window is read from vertex 0's.

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
    profiles = []
    if "main" in checks or "growth" in checks:
        vertices = range(rel.n) if all_vertices else range(min(rel.n, 1))
        profiles = [growth_profile(closure, v) for v in vertices]
    caveats = () if certificate.certified else ("uncertified-transitivity",)
    reports = []
    if "main" in checks:
        report = VerificationReport(family, descriptor, params, r, caveats=caveats)
        for profile in profiles:
            sizes = [b.bit_count() for b in profile.balls]
            report.checks.extend(
                CheckRecord("sphere-lower-bound", j, sizes[j] - sizes[j - 1], r - 1 + bound_delta)
                for j in range(1, len(sizes))
            )
        reports.append(report)
    if "growth" in checks:
        report = VerificationReport(family, descriptor, params, r, caveats=caveats)
        for profile in profiles:
            report.checks.extend(
                CheckRecord("ball-lower-bound", j, b.bit_count(), 1 + (r - 1) * j)
                for j, b in enumerate(profile.balls)
            )
        reports.append(report)
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
            max_j = (profiles[0] if profiles else growth_profile(closure, 0)).max_j
            report.witnesses["window_max_j"] = max_j
            if certificate.certified and max_j != g - 2:
                side = "below" if max_j < g - 2 else "above"
                raise BugError(
                    f"{descriptor}: reflexive-closure window {max_j} {side} g-2={g - 2}"
                )
            report.checks.append(CheckRecord("girth-order-bound", g, rel.n, 1 + degree * (g - 1)))
        reports.append(report)
    return reports


def check_main_theorem(
    rel: Relation,
    certificate: TransitivityCertificate,
    all_vertices: bool = False,
    bound_delta: int = 0,
) -> VerificationReport:
    """Sphere sizes within the hypothesis window must be at least r - 1.

    bound_delta shifts the required bound and exists only so the test suite
    can demonstrate that r - 1 is the exact constant (fault injection).
    """
    if not rel.is_reflexive():
        raise ValueError("the sphere bound assumes a reflexive relation")
    _require_regular(rel)  # raise here; run_family records a caveat instead
    (report,) = _instance_reports(
        rel, certificate, "relation", "adhoc", {}, ("main",), all_vertices, bound_delta
    )
    return report


def check_ball_growth(
    rel: Relation, certificate: TransitivityCertificate, all_vertices: bool = False
) -> VerificationReport:
    """Ball sizes within the hypothesis window must be at least 1 + (r-1)j."""
    if not rel.is_reflexive():
        raise ValueError("the ball growth bound assumes a reflexive relation")
    _require_regular(rel)
    (report,) = _instance_reports(
        rel, certificate, "relation", "adhoc", {}, ("growth",), all_vertices, 0
    )
    return report


def check_girth_bound(rel: Relation, certificate: TransitivityCertificate) -> VerificationReport:
    """For a loopless point-transitive relation with finite girth g the
    order must be at least 1 + r(g-1)."""
    if rel.has_loop():
        raise ValueError("the girth bound assumes a loopless relation")
    _require_regular(rel)
    (report,) = _instance_reports(rel, certificate, "relation", "adhoc", {}, ("girth",), False, 0)
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
# Whole-group girth scan

# generator sets one family run, or one girth scan, may enumerate
MAX_ENUMERATED_INSTANCES = 200_000
# a girth-scan block holds the 3^_BLOCK_PAIRS = 729 inverse-free generator
# sets that differ only in the last _BLOCK_PAIRS inverse pairs, so the
# scan's arrays are O(729 n) words, however many sets the group has
_BLOCK_PAIRS = 6


@dataclass(slots=True)
class GirthScanResult:
    """Girth-bound verification over every nonempty generator subset of one
    group.

    Subsets containing an inverse pair (or an involution) have girth 2, where
    the bound 1 + r reduces to r <= n - 1 and holds for every subset; they
    are verified as one aggregate class.  The girths of the remaining,
    inverse-free subsets come from one batched breadth-first search per
    block of subsets (`_block_girths`).
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


def _block_girths(translates: np.ndarray) -> np.ndarray:
    """The girths of a block of loopless Cayley relations of one group, by
    one breadth-first search from the identity over all of them at once.

    Column b describes set S_b: translates[g, b] is the bitmask of the left
    translate g S_b.  A layer's image is the OR of the translates that its
    frontier's bits pick out; a set's girth is the first layer whose image
    holds the identity (bit 0), and finished sets drop out.  Each girth
    equals `len(_shortest_return(group, S_b))`.
    """
    n, count = translates.shape
    girths = np.zeros(count, dtype=np.int64)
    columns = np.arange(count)
    frontier = translates[0].copy()  # layer 1's image, S itself, lacks the identity
    reached = frontier | 1
    for layer in range(2, n + 1):  # a girth is at most any generator's order
        # only the elements of some frontier pick out a translate
        present = int(np.bitwise_or.reduce(frontier))
        rows = [g for g in range(n) if present >> g & 1]
        picked = frontier >> np.array(rows, dtype=np.uint64)[:, None]
        picked &= 1
        picked *= translates[rows]
        image = np.bitwise_or.reduce(picked, axis=0)
        done = (image & 1).astype(bool)
        finished = np.count_nonzero(done)
        if finished:
            girths[columns[done]] = layer
            if finished == len(columns):
                return girths
            keep = ~done
            columns, translates = columns[keep], translates[:, keep]
            image, reached = image[keep], reached[keep]
        frontier = image & ~reached
        reached |= image
    raise BugError(f"identity unreachable over {len(columns)} generator sets")


def scan_girth_bound(group: FiniteGroup) -> GirthScanResult:
    n = group.n
    total = (1 << (n - 1)) - 1 if n > 1 else 0
    pairs = _inverse_pairs(group)
    inverse_free = 3 ** len(pairs) - 1
    tight = 0
    failures: list[VerificationReport] = []
    # girth-2 class: r <= n - 1 always; tight only for the full subset,
    # which always contains an inverse pair when n > 1.
    if n > 1:
        tight += 1
    if not pairs:
        return GirthScanResult(group.name, n, total, total, 0, tight, failures)
    # The sets come in itertools.product((0, 1, 2), repeat=len(pairs))
    # order: pair (a, b)'s digit picks neither, a or b.  A block is the
    # 3^_BLOCK_PAIRS sets that share the digits of all but the last pairs;
    # their left translates are those of the last pairs' choices (built
    # once) ORed with those of the block's shared members.
    bits = np.left_shift(1, np.asarray(group.table, dtype=np.uint64))  # 1 << g*h
    split = max(0, len(pairs) - _BLOCK_PAIRS)
    width = len(pairs) - split
    low = np.arange(3**width)[:, None] // 3 ** np.arange(width - 1, -1, -1) % 3
    low_translates = np.zeros((n, len(low)), dtype=np.uint64)
    none = np.zeros(n, dtype=np.uint64)
    for (a, b), column in zip(pairs[split:], low.T):
        low_translates |= np.stack([none, bits[:, a], bits[:, b]], axis=1)[:, column]
    low_r = np.count_nonzero(low, axis=1)
    for high in itertools.product((0, 1, 2), repeat=split):
        members = [pair[d - 1] for pair, d in zip(pairs, high) if d]
        first = 0 if members else 1  # the first set of all is the empty set
        shared = np.bitwise_or.reduce(bits[:, members], axis=1)
        r = low_r[first:] + len(members)
        girths = _block_girths(low_translates[:, first:] | shared[:, None])
        rhs = 1 + r * (girths - 1)
        tight += int(np.count_nonzero(rhs == n))
        for i in np.flatnonzero(rhs > n).tolist():
            digits = high + tuple(low[first + i].tolist())
            gens = sorted(pair[d - 1] for pair, d in zip(pairs, digits) if d)
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
    family: str
    params: dict
    reports: list[VerificationReport]
    girth_scans: list[GirthScanResult]
    summary: dict

    @property
    def ok(self) -> bool:
        return self.summary["bugs"] == 0


def _summarize(
    instances: list[list[VerificationReport]], girth_scans: list[GirthScanResult]
) -> dict:
    """Totals over the reports, grouped by the instance they check."""
    reports = [r for instance in instances for r in instance]
    checks = sum(len(r.checks) for r in reports)
    failures = sum(len(r.failures) for r in reports)
    bugs = sum(len(r.failures) for r in reports if r.bug)
    caveated = sum(1 for instance in instances if any(r.caveats for r in instance))
    tight_instances = 0
    for r in reports:
        growth = [c for c in r.checks if c.claim == "ball-lower-bound" and c.index >= 1]
        if growth and all(c.tight for c in growth) and growth[-1].index >= 2:
            tight_instances += 1
    tight_checks = sum(1 for r in reports for c in r.checks if c.tight and c.passed)
    scan_subsets = sum(s.total_subsets for s in girth_scans)
    scan_failures = sum(len(s.failures) for s in girth_scans)
    return {
        "instances": sum(1 for instance in instances if instance),
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


def run_family(
    family: str,
    checks: Iterable[str] = ALL_CHECKS,
    all_vertices: bool = False,
    bound_delta: int = 0,
    files: Iterable[str] = (),
    **params,
) -> FamilyRun:
    """Run the selected checks over every instance of a family.

    An instance is a relation file or a generator subset of a group.  For
    built-in group families the girth bound is verified by the per-group
    scan (aggregate for the girth-2 class, explicit for the inverse-free
    subsets), and subsets are enumerated only for the other checks.
    """
    selected = tuple(checks)
    for c in selected:
        if c not in ALL_CHECKS:
            raise ValueError(f"unknown check: {c}")
    instances: list[list[VerificationReport]] = []
    girth_scans: list[GirthScanResult] = []
    if family == "from_files":
        from .fileio import read_relation

        for path in files:
            rel = read_relation(path)
            if rel.n <= BRUTE_LIMIT and is_point_transitive_brute(rel):
                certificate = TransitivityCertificate.brute()
            else:
                certificate = TransitivityCertificate.none()
            instances.append(
                _instance_reports(
                    rel, certificate, str(path), family, {}, selected,
                    all_vertices, bound_delta,
                )
            )
    else:
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
        for group in family_groups:
            if "girth" in selected:
                girth_scans.append(scan_girth_bound(group))
            if not per_subset:
                continue
            for gens in subsets_of(range(1, group.n)):
                descriptor = f"Cay({group.name},{list(gens)})"
                info = {"group": group.name, "gens": list(gens)}
                reports = []
                if "main" in per_subset or "growth" in per_subset:
                    rel, certificate = cayley_relation(group, gens)
                    reports = _instance_reports(
                        rel, certificate, descriptor, family, info, per_subset,
                        all_vertices, bound_delta,
                    )
                if "zerosum" in per_subset:
                    report = VerificationReport(family, descriptor, info, len(gens))
                    try:
                        witness = zero_product_witness(group, gens)
                        report.checks.append(
                            CheckRecord("zero-product-bound", witness.k, witness.bound, witness.k)
                        )
                        report.witnesses["sequence"] = list(witness.sequence)
                    except BugError as exc:
                        report.checks.append(CheckRecord("zero-product-bound", 0, -1, 0))
                        report.witnesses["error"] = str(exc)
                    reports.append(report)
                instances.append(reports)
    reports = [r for instance in instances for r in instance]
    return FamilyRun(family, dict(params), reports, girth_scans, _summarize(instances, girth_scans))
