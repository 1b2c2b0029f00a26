"""Checks of relgrowth outputs made apart from the program.

Nothing here calls relgrowth.  Group tables are rebuilt from the names the
program prints, distances come from breadth-first searches written here,
girths from numpy bitsets, connectivity from networkx flows and fragments
from a brute-force enumeration.  Every checker returns a list of error
strings; an empty list means the output is correct.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import re
from collections import deque

import numpy as np

# ---------------------------------------------------------------------------
# Groups, rebuilt from the names relgrowth gives them.  Element 0 is the
# identity and table[g][h] is "g then h", as in the program's file format.


def cyclic_table(n: int) -> list[list[int]]:
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def abelian_table(factors: list[int]) -> list[list[int]]:
    """Z_d1 x ... x Z_dk, the element (x1..xk) at its mixed-radix index with
    the first factor most significant."""
    elems = list(itertools.product(*(range(d) for d in factors)))
    index = {e: i for i, e in enumerate(elems)}
    return [
        [index[tuple((x + y) % d for x, y, d in zip(a, b, factors))] for b in elems]
        for a in elems
    ]


def dihedral_table(m: int) -> list[list[int]]:
    """Rotations k at index k, reflections at m + k."""
    def mul(a: int, b: int) -> int:
        (k1, f1), (k2, f2) = divmod(a, m)[::-1], divmod(b, m)[::-1]
        return (k1 + (k2 if f1 == 0 else -k2)) % m + m * (f1 ^ f2)

    return [[mul(a, b) for b in range(2 * m)] for a in range(2 * m)]


def symmetric_table(m: int) -> list[list[int]]:
    """Permutations in lexicographic order; (p*q)(i) = q[p[i]]."""
    perms = sorted(itertools.permutations(range(m)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(q[p[i]] for i in range(m))] for q in perms] for p in perms]


def table_for_name(name: str) -> list[list[int]]:
    if re.fullmatch(r"Z\d+(xZ\d+)*", name):
        factors = [int(f) for f in name[1:].split("xZ")]
        return cyclic_table(factors[0]) if len(factors) == 1 else abelian_table(factors)
    if re.fullmatch(r"D\d+", name):
        return dihedral_table(int(name[1:]))
    if re.fullmatch(r"S\d+", name):
        return symmetric_table(int(name[1:]))
    raise ValueError(f"unknown group name {name!r}")


def _partitions(e: int, largest: int | None = None) -> list[list[int]]:
    largest = e if largest is None else largest
    if e == 0:
        return [[]]
    return [
        [first] + rest
        for first in range(min(e, largest), 0, -1)
        for rest in _partitions(e - first, first)
    ]


def _prime_powers(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def abelian_names(order: int) -> list[str]:
    """One name per abelian group of this order (there are prod p(e_i) of
    them), written by invariant factors d1 | d2 | ... in ascending order."""
    if order == 1:
        return ["Z1"]
    primes = _prime_powers(order)
    names = []
    for choice in itertools.product(*(_partitions(e) for e in primes.values())):
        depth = max(len(lam) for lam in choice)
        factors = []
        for i in range(depth):
            d = 1
            for p, lam in zip(primes, choice):
                if i < len(lam):
                    d *= p ** lam[i]
            factors.append(d)
        names.append("x".join(f"Z{d}" for d in sorted(factors)))
    return names


def family_groups(family: str, params: dict) -> list[str]:
    """Names of the groups a relgrowth verify family walks, in any order."""
    if family == "circulants":
        return [f"Z{n}" for n in range(2, params["max_n"] + 1)]
    if family == "cayley_dihedral":
        return [f"D{m}" for m in range(1, params["max_m"] + 1)]
    if family == "cayley_symmetric":
        return [f"S{params['m']}"]
    if family == "cayley_abelian":
        return [name for k in range(1, params["max_order"] + 1) for name in abelian_names(k)]
    raise ValueError(f"unknown family {family!r}")


def group_order(name: str) -> int:
    if name.startswith("S"):
        return math.factorial(int(name[1:]))
    if name.startswith("D"):
        return 2 * int(name[1:])
    return math.prod(int(f) for f in name[1:].split("xZ"))


def generator_sets(orders: list[int]) -> int:
    """Nonempty subsets of the nonidentity elements, summed over groups."""
    return sum((1 << (n - 1)) - 1 for n in orders)


# ---------------------------------------------------------------------------
# Searches over group tables


def cayley_distances(table, gens) -> list[int]:
    """Walk lengths from the identity along g -> g*s; -1 if unreachable."""
    dist = [-1] * len(table)
    dist[0] = 0
    queue = deque([0])
    while queue:
        g = queue.popleft()
        for s in gens:
            h = table[g][s]
            if dist[h] < 0:
                dist[h] = dist[g] + 1
                queue.append(h)
    return dist


def shortest_return(table, gens) -> int:
    """Least k >= 1 with some k-term product over gens equal to the identity."""
    dist = cayley_distances(table, gens)
    return min(dist[g] + 1 for g in range(len(table)) for s in gens
               if table[g][s] == 0 and dist[g] >= 0)


def product(table, sequence) -> int:
    acc = 0
    for e in sequence:
        acc = table[acc][e]
    return acc


def check_zero_product(table, subset, k, bound, sequence) -> list[str]:
    errors = []
    n, subset = len(table), set(subset)
    if product(table, sequence) != 0:
        errors.append(f"witness {list(sequence)} does not multiply to the identity")
    if not set(sequence) <= subset:
        errors.append(f"witness {list(sequence)} leaves the subset {sorted(subset)}")
    if k != len(sequence):
        errors.append(f"k = {k} but the witness has {len(sequence)} terms")
    expected_bound = -(-n // len(subset))
    if bound != expected_bound:
        errors.append(f"bound {bound} != ceil({n}/{len(subset)}) = {expected_bound}")
    if k > expected_bound:
        errors.append(f"k = {k} exceeds ceil(n/|S|) = {expected_bound}")
    if k != shortest_return(table, subset):
        errors.append(f"k = {k} but the shortest return has {shortest_return(table, subset)} terms")
    return errors


def growth_profile(dist: list[int], n: int, pred_of_base: list[int]) -> tuple[list[int], int]:
    """Ball sizes |B_0| .. |B_{n}| of the reflexive closure, from walk
    distances, and the hypothesis window: the radius just below the nearest
    other predecessor of the base vertex (n if none is reachable)."""
    balls = [sum(1 for d in dist if 0 <= d <= j) for j in range(n + 1)]
    reached = [dist[u] for u in pred_of_base if dist[u] >= 0]
    window = min(reached) - 1 if reached else n
    return balls, window


def expected_growth_records(balls: list[int], window: int, r: int) -> tuple[list, list]:
    """(sphere records, ball records) as (index, lhs, rhs) triples."""
    spheres = [(j, balls[j] - balls[j - 1], r - 1) for j in range(1, window + 1)]
    ball_records = [(j, balls[j], 1 + (r - 1) * j) for j in range(window + 1)]
    return spheres, ball_records


def _records(checks: list[dict], claim: str) -> list[tuple[int, int, int]]:
    return [(c["index"], c["lhs"], c["rhs"]) for c in checks if c["claim"] == claim]


def check_flags(checks: list[dict]) -> list[str]:
    return [
        f"flags of {c} disagree with lhs/rhs"
        for c in checks
        if c["pass"] != (c["lhs"] >= c["rhs"]) or c["tight"] != (c["lhs"] == c["rhs"])
    ]


# ---------------------------------------------------------------------------
# Girth of every generator subset at once, as numpy bitsets


def girth_tight_count(table) -> int:
    """Generator subsets S of the nonidentity elements with
    n == 1 + |S| (g - 1), g the girth of Cay(G, S): the least k with the
    identity in the k-fold product set S^k."""
    n = len(table)
    if n < 2:
        return 0
    t = np.asarray(table, dtype=np.int64)
    subsets = np.arange(1, 1 << (n - 1), dtype=np.uint64) << np.uint64(1)
    sizes = np.bitwise_count(subsets).astype(np.int64)
    reach = subsets.copy()
    one = np.uint64(1)
    tight = 0
    for k in range(1, n + 1):
        back = (reach & one).astype(bool)
        tight += int(np.count_nonzero(sizes[back] * (k - 1) + 1 == n))
        subsets, sizes, reach = subsets[~back], sizes[~back], reach[~back]
        if not subsets.size:
            return tight
        nxt = np.zeros_like(reach)
        for s in range(1, n):
            has_s = (subsets >> np.uint64(s)) & one
            if not has_s.any():
                continue
            moved = np.zeros_like(reach)
            for g in range(n):
                moved |= ((reach >> np.uint64(g)) & one) << np.uint64(t[g, s])
            nxt |= moved * has_s
        reach = nxt
    raise AssertionError("a subset never returned to the identity")


# ---------------------------------------------------------------------------
# relgrowth verify output


def parse_summary(stdout: str) -> dict:
    summary = {}
    for line in stdout.splitlines():
        m = re.fullmatch(r"  (\w+): (-?\d+)", line)
        if m:
            summary[m.group(1)] = int(m.group(2))
    return summary


@functools.cache
def tight_count(name: str) -> int:
    """girth_tight_count of the named group, computed once per process."""
    return girth_tight_count(table_for_name(name))


def check_verify_summary(stdout: str, family: str, params: dict, checks: tuple) -> list[str]:
    """Totals of a `relgrowth verify` run over a built-in family."""
    summary = parse_summary(stdout)
    names = family_groups(family, params)
    sets = generator_sets([group_order(g) for g in names])
    errors = []
    if summary.get("bugs") != 0 or summary.get("failures") != 0:
        errors.append(f"bugs/failures reported: {summary}")
    per_subset = [c for c in checks if c != "girth"]
    if per_subset and summary.get("instances") not in (sets, sets * len(per_subset)):
        errors.append(f"instances {summary.get('instances')} fit neither {sets} generator "
                      f"sets nor {len(per_subset)} reports per set")
    if "girth" in checks:
        expected = {  # the order-1 group has no generator set, so no scan
            "girth_scan_groups": sum(1 for g in names if group_order(g) > 1),
            "girth_scan_subsets": sets,
            "girth_scan_tight_subsets": sum(tight_count(g) for g in names),
        }
        for key, value in expected.items():
            if summary.get(key) != value:
                errors.append(f"{key} = {summary.get(key)}, expected {value}")
    return errors


def check_cayley_report(report_text: str, family: str, params: dict,
                        stdout: str) -> list[str]:
    """Per-instance NDJSON records of a default-checks verify run."""
    names = family_groups(family, params)
    tables = {g: table_for_name(g) for g in names}
    instances: dict[tuple[str, tuple[int, ...]], list[dict]] = {}
    errors = []
    records = [json.loads(line) for line in report_text.splitlines() if line]
    for rec in records:
        group = rec["params"]["group"]
        if group not in tables:
            return [f"report names a group {group!r} outside the family"]
        instances.setdefault((group, tuple(rec["params"]["gens"])), []).extend(rec["checks"])
        if rec["checks"] and rec["checks"][0]["claim"] == "zero-product-bound":
            c = rec["checks"][0]
            seq = rec["witnesses"].get("sequence", [])
            errors += check_zero_product(tables[group], rec["params"]["gens"],
                                         c["index"], c["lhs"], seq)
            if c["rhs"] != c["index"]:
                errors.append(f"zero-product record {c} has rhs != k")
    for group, table in tables.items():
        n = len(table)
        seen = {gens for (g, gens) in instances if g == group}
        if len(seen) != (1 << (n - 1)) - 1 or any(
            not gens or 0 in gens or len(set(gens)) != len(gens) for gens in seen
        ):
            errors.append(f"{group}: {len(seen)} generator sets reported, "
                          f"expected {(1 << (n - 1)) - 1}")
    for (group, gens), checks in instances.items():
        table = tables[group]
        n = len(table)
        dist = cayley_distances(table, gens)
        preds = [u for u in range(1, n) if any(table[u][s] == 0 for s in gens)]
        balls, window = growth_profile(dist, n, preds)
        spheres, ball_records = expected_growth_records(balls, window, len(gens) + 1)
        if _records(checks, "sphere-lower-bound") != spheres:
            errors.append(f"Cay({group},{list(gens)}): sphere records disagree with BFS")
        if _records(checks, "ball-lower-bound") != ball_records:
            errors.append(f"Cay({group},{list(gens)}): ball records disagree with BFS")
        errors += check_flags(checks)
    summary = parse_summary(stdout)
    all_checks = [c for rec in records for c in rec["checks"]]
    if summary.get("checks") != len(all_checks):
        errors.append(f"summary checks {summary.get('checks')} != {len(all_checks)} records")
    tight = sum(1 for c in all_checks if c["tight"] and c["pass"])
    if summary.get("tight_checks") != tight:
        errors.append(f"summary tight_checks {summary.get('tight_checks')} != {tight}")
    return errors[:20]


# ---------------------------------------------------------------------------
# Relations given as successor lists


def digraph_distances(succ: list[list[int]], v: int) -> list[int]:
    dist = [-1] * len(succ)
    dist[v] = 0
    queue = deque([v])
    while queue:
        u = queue.popleft()
        for w in succ[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def girth(succ: list[list[int]]) -> float:
    """Shortest directed cycle of a relation, loops counting 1."""
    best = math.inf
    pred = [[] for _ in succ]
    for u, ws in enumerate(succ):
        for w in ws:
            pred[w].append(u)
    for a in range(len(succ)):
        dist = digraph_distances(succ, a)
        for u in pred[a]:
            if dist[u] >= 0:
                best = min(best, dist[u] + 1)
    return best


def walk_sets(succ: list[list[int]], v: int, j_max: int) -> list[np.ndarray]:
    """W_j = endpoints of walks of length exactly j from v, j = 0..j_max, by
    boolean matrix products."""
    n = len(succ)
    adj = np.zeros((n, n), dtype=np.int64)
    for u, ws in enumerate(succ):
        adj[u, ws] = 1
    w = np.zeros(n, dtype=np.int64)
    w[v] = 1
    out = [w.astype(bool)]
    for _ in range(j_max):
        w = (w @ adj > 0).astype(np.int64)
        out.append(w.astype(bool))
    return out


def check_spheres(stdout: str, succ: list[list[int]], v: int, j_max: int) -> list[str]:
    """`relgrowth spheres` prints |W_j| and |W_j minus W_{j-1}| per j."""
    walks = walk_sets(succ, v, j_max)
    expected = ["j\t|ball|\t|sphere|", f"0\t{int(walks[0].sum())}\t-"] + [
        f"{j}\t{int(walks[j].sum())}\t{int((walks[j] & ~walks[j - 1]).sum())}"
        for j in range(1, j_max + 1)
    ]
    got = stdout.splitlines()
    if got != expected:
        bad = next(i for i, (a, b) in enumerate(itertools.zip_longest(got, expected)) if a != b)
        return [f"spheres line {bad}: got {got[bad] if bad < len(got) else None!r}, "
                f"expected {expected[bad] if bad < len(expected) else None!r}"]
    return []


def kappa_networkx(succ: list[list[int]], sources=None) -> int:
    """min over non-adjacent ordered pairs (s, t) of the networkx local node
    connectivity, n - 1 if every pair is adjacent.  Passing sources limits s
    to them, which is exact when automorphisms carry every vertex to one of
    them (vertex 0 for a Cayley relation)."""
    import networkx as nx
    from networkx.algorithms.connectivity import (
        build_auxiliary_node_connectivity,
        local_node_connectivity,
    )
    from networkx.algorithms.flow import build_residual_network, edmonds_karp

    n = len(succ)
    graph = nx.DiGraph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from((u, w) for u, ws in enumerate(succ) for w in ws if u != w)
    aux = build_auxiliary_node_connectivity(graph)
    residual = build_residual_network(aux, "capacity")
    best = n - 1
    for s in range(n) if sources is None else sources:
        for t in range(n):
            if s != t and not graph.has_edge(s, t):
                best = min(best, local_node_connectivity(
                    graph, s, t, auxiliary=aux, residual=residual, flow_func=edmonds_karp))
    return best


def boundary(succ: list[list[int]], members) -> set[int]:
    x = set(members)
    return {w for u in x for w in succ[u]} - x


def check_fragment(succ, members, value: int, kappa: int) -> list[str]:
    """A fragment is nonempty, X + image(X) misses a vertex, and its boundary
    has kappa elements."""
    x = set(members)
    b = boundary(succ, x)
    errors = []
    if not x or len(x | b) == len(succ):
        errors.append(f"{sorted(x)} is not a feasible vertex set")
    if len(b) != kappa or value != kappa:
        errors.append(f"{sorted(x)} has boundary {len(b)} (reported {value}), kappa {kappa}")
    return errors


def brute_atoms(n: int, succ_bits: list[int]) -> tuple[int, list[int]]:
    """(kappa, atoms as bitmasks) by enumerating all 2^n subsets; atoms are
    empty for a relation with no feasible subset, whose kappa is n - 1."""
    images = np.zeros(1 << n, dtype=np.int64)
    for v in range(n):
        images[1 << v: 1 << (v + 1)] = images[: 1 << v] | succ_bits[v]
    masks = np.arange(1 << n, dtype=np.int64)
    full = (1 << n) - 1
    feasible = (masks != 0) & ((masks | images) != full)
    if not feasible.any():
        return n - 1, []
    sizes = np.bitwise_count(images & ~masks)
    value = int(sizes[feasible].min())
    fragments = masks[feasible & (sizes == value)]
    counts = np.bitwise_count(fragments)
    return value, [int(m) for m in fragments[counts == counts.min()]]


def members_of(bits: int) -> tuple[int, ...]:
    return tuple(i for i in range(bits.bit_length()) if bits >> i & 1)


def first_atom(atoms: list[int]) -> int:
    return min(atoms, key=lambda a: (a.bit_count(), members_of(a)))


def reverse_bits(n: int, succ_bits: list[int]) -> list[int]:
    rev = [0] * n
    for u in range(n):
        for w in members_of(succ_bits[u]):
            rev[w] |= 1 << u
    return rev


def check_oracle_instance(n: int, succ_bits: list[int], prop: dict, disjoint: dict) -> list[str]:
    """Proposition and atom-disjointness outputs against brute_atoms on the
    relation and on its reverse.  When applicable, the proposition's two
    properties hold (they are proven), and so does disjointness."""
    value, fwd = brute_atoms(n, succ_bits)
    rvalue, rev = brute_atoms(n, reverse_bits(n, succ_bits))
    errors = []
    if not fwd:
        expected = "complete relation: no fragments"
    elif value == 0:
        expected = "not connected"
    elif not rev:
        expected = "reverse is complete: no fragments"
    elif first_atom(fwd).bit_count() > first_atom(rev).bit_count():
        expected = "hypothesis a(rel) <= a(reverse) fails"
    else:
        expected = "applicable"
    if prop["reason"] != expected:
        errors.append(f"proposition reason {prop['reason']!r}, expected {expected!r}")
    elif expected == "applicable":
        if prop["kappa"] != value or prop["atom"] != first_atom(fwd):
            errors.append(f"proposition kappa/atom {prop['kappa']}/{prop['atom']}, "
                          f"expected {value}/{first_atom(fwd)}")
        if not (prop["size_within_kappa"] and prop["induced_transitive"]):
            errors.append(f"proven atom properties fail: {prop}")
    if sorted(disjoint["forward"]) != sorted(fwd) or sorted(disjoint["reverse"]) != sorted(rev):
        errors.append("atoms of the relation or its reverse disagree with brute force")

    def disjoint_masks(atoms):
        return sum(a.bit_count() for a in atoms) == sum(
            (1 << v) for v in set().union(*map(members_of, atoms))
        ).bit_count()

    if (disjoint["forward_disjoint"], disjoint["reverse_disjoint"]) != (
        disjoint_masks(fwd), disjoint_masks(rev)
    ) or not disjoint["holds"]:
        errors.append(f"disjointness flags {disjoint} are wrong")
    return errors


def check_flow_instance(table, gens, out: dict) -> list[str]:
    """kappa and atom_containing on Cay(G, S), n too large to enumerate.

    kappa against networkx from source 0; every atom a fragment of value
    kappa, all of one size, the set of atoms closed under the left
    translations x -> g x; the atom for v contains v and is the least such
    atom."""
    n = len(table)
    succ = [[table[g][s] for s in gens] for g in range(n)]
    errors = []
    kappa = kappa_networkx(succ, sources=[0])
    if out["kappa"] != kappa:
        return [f"kappa = {out['kappa']}, networkx gives {kappa}"]
    atoms = [frozenset(members_of(a)) for a in out["atoms"]]
    for atom, value in zip(atoms, out["values"]):
        errors += check_fragment(succ, atom, value, kappa)
    if {len(a) for a in atoms} != {out["atom_size"]}:
        errors.append(f"atoms of sizes {sorted({len(a) for a in atoms})}, "
                      f"atom size {out['atom_size']}")
    atom_set = set(atoms)
    for g in range(n):
        if any(frozenset(table[g][x] for x in a) not in atom_set for a in atoms):
            errors.append(f"atoms not closed under left translation by {g}")
            break
    containing = [a for a in out["atoms"] if a >> out["v"] & 1]
    if not containing or out["atom_of_v"] != first_atom(containing):
        errors.append(f"atom containing {out['v']} is {out['atom_of_v']}")
    return errors


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(", ") if x]


def parse_kappa_output(stdout: str) -> dict:
    lines = stdout.splitlines()
    m = re.fullmatch(r"complete: kappa = n-1 = (\d+)", lines[0])
    if m:
        return {"kappa": int(m.group(1)), "complete": True, "atoms": []}
    out = {"kappa": int(lines[0].split("= ")[1]), "complete": False,
           "atom_size": int(lines[1].split("= ")[1]), "atoms": []}
    for line in lines[2:]:
        m = re.fullmatch(r"atom \d+: set=\[(.*)\] boundary=\[(.*)\] value=(\d+)", line)
        out["atoms"].append((_int_list(m.group(1)), _int_list(m.group(2)), int(m.group(3))))
    return out


def check_kappa_output(stdout: str, succ: list[list[int]]) -> list[str]:
    """`relgrowth kappa` on an uncertified relation: kappa against networkx
    over all ordered pairs, each printed atom a fragment of that value with
    the printed boundary, all of the printed atom size."""
    out = parse_kappa_output(stdout)
    kappa = kappa_networkx(succ)
    if out["kappa"] != kappa:
        return [f"kappa = {out['kappa']}, networkx gives {kappa}"]
    errors = []
    if out["complete"]:
        return errors
    if not out["atoms"]:
        errors.append("no atoms printed")
    for members, bnd, value in out["atoms"]:
        errors += check_fragment(succ, members, value, kappa)
        if sorted(boundary(succ, members)) != bnd or len(members) != out["atom_size"]:
            errors.append(f"atom {members}: boundary or size misprinted")
    return errors


def check_files_report(report_text: str, stdout: str, relations: dict,
                       certified: set) -> list[str]:
    """`relgrowth verify from_files` records for loopless regular relations:
    sphere and ball sizes of the reflexive closure around vertex 0 within the
    hypothesis window, the girth-order record, and the caveat that marks an
    uncertified relation (certified: the paths of Cayley relations)."""
    errors = []
    seen: dict[str, list[dict]] = {}
    for line in report_text.splitlines():
        rec = json.loads(line)
        seen.setdefault(rec["instance"], []).append(rec)
    if set(seen) != set(relations):
        return [f"report covers {sorted(seen)}, expected {sorted(relations)}"]
    for path, succ in relations.items():
        n = len(succ)
        r = len(succ[0])
        dist = digraph_distances(succ, 0)
        preds = [u for u in range(1, n) if 0 in succ[u]]
        balls, window = growth_profile(dist, n, preds)
        spheres, ball_records = expected_growth_records(balls, window, r + 1)
        g = girth(succ)
        checks = [c for rec in seen[path] for c in rec["checks"]]
        caveats = {tuple(rec["caveats"]) for rec in seen[path]}
        want = () if path in certified else ("uncertified-transitivity",)
        if caveats != {want}:
            errors.append(f"{path}: caveats {caveats}, expected {want}")
        if _records(checks, "sphere-lower-bound") != spheres:
            errors.append(f"{path}: sphere records disagree with BFS")
        if _records(checks, "ball-lower-bound") != ball_records:
            errors.append(f"{path}: ball records disagree with BFS")
        if _records(checks, "girth-order-bound") != [(g, n, 1 + r * (g - 1))]:
            errors.append(f"{path}: girth record disagrees with girth {g}")
        errors += check_flags(checks)
    summary = parse_summary(stdout)
    if summary.get("bugs") != 0:
        errors.append(f"bugs reported: {summary}")
    return errors
