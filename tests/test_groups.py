import hashlib
import inspect
import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relgrowth import (
    GroupValidationError,
    Relation,
    TransitivityCertificate,
    VertexSet,
    abelian_groups,
    automorphisms_brute,
    catalog_up_to_order,
    cayley_relation,
    cyclic,
    dihedral,
    direct_product,
    group_from_table,
    is_point_transitive_brute,
    symmetric,
)
from relgrowth import groups
from relgrowth.groups import _light_generators, orbit_of_zero
from relgrowth.theorems import subsets_of

# order-5 Latin square with identity row/column that is not associative
NONASSOC = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]

# Latin squares with identity 0 that no partial Light's test may accept.
# SLOW7: the generators 1 and 2 reach only {0, 1, 2, 3}, so a third is
# needed, past floor(log2 7) = 2; no element but 0 is associative.
SLOW7 = [
    [0, 1, 2, 3, 4, 5, 6],
    [1, 0, 3, 4, 2, 6, 5],
    [2, 3, 0, 5, 6, 1, 4],
    [3, 2, 1, 6, 5, 4, 0],
    [4, 5, 6, 0, 1, 2, 3],
    [5, 6, 4, 1, 0, 3, 2],
    [6, 4, 5, 2, 3, 0, 1],
]
# HALF6: the generator 1 reaches the subsquare {0, 1, 2}, half the table,
# and passes Light's check; the generator 3 fails it.
HALF6 = [
    [0, 1, 2, 3, 4, 5],
    [1, 2, 0, 4, 5, 3],
    [2, 0, 1, 5, 3, 4],
    [3, 4, 5, 0, 2, 1],
    [4, 5, 3, 2, 1, 0],
    [5, 3, 4, 1, 0, 2],
]


def cube_witness(table):
    """First (g, h, k) in lexicographic order with (g*h)*k != g*(h*k), from
    the whole n^3 cube at once, or None."""
    t = np.asarray(table)
    bad = np.argwhere(t[t] != t[:, t])
    return tuple(int(v) for v in bad[0]) if bad.size else None


def loop_product(m, loop):
    """Table of Z_m x loop, element (a, b) at index b * m + a: the first m
    elements associate with everything, so no witness row is below m."""
    q = len(loop)
    return [
        [loop[b1][b2] * m + (a1 + a2) % m for b2 in range(q) for a2 in range(m)]
        for b1 in range(q)
        for a1 in range(m)
    ]


def relabel(table, perm):
    """The table with element a renamed perm[a] (perm[0] == 0)."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return out


def intercalates(table):
    """Every 2x2 subsquare (r1, r2, c1, c2) off row and column 0."""
    n = len(table)
    column = [{v: c for c, v in enumerate(row)} for row in table]
    found = []
    for r1 in range(1, n):
        for r2 in range(r1 + 1, n):
            for c1 in range(1, n):
                c2 = column[r1][table[r2][c1]]
                if c2 > c1 and table[r2][c2] == table[r1][c1]:
                    found.append((r1, r2, c1, c2))
    return found


def matches_cube(table):
    """group_from_table accepts the table iff cube_witness finds no failing
    triple, and otherwise raises NotAssociative at that triple.  Returns
    whether it was refused."""
    expected = cube_witness(table)
    if expected is None:
        assert group_from_table(table).table == tuple(map(tuple, table))
        return False
    with pytest.raises(GroupValidationError) as err:
        group_from_table(table)
    assert err.value.kind == "NotAssociative"
    assert err.value.witness == expected
    return True


def reference_light_generators(rows):
    """The two-loop search that `_light_generators` replaced: after each
    new generator a, everything reached so far times a, then each new
    element times every generator."""
    n = len(rows)
    limit = n.bit_length() - 1
    reached = bytearray(n)
    reached[0] = 1
    found = [0]
    gens = []
    while len(found) < n:
        if len(gens) == limit:
            return None
        a = reached.index(0)
        gens.append(a)
        start = len(found)
        for i in range(start):
            y = rows[found[i]][a]
            if not reached[y]:
                reached[y] = 1
                found.append(y)
        i = start
        while i < len(found):
            row = rows[found[i]]
            for g in gens:
                y = row[g]
                if not reached[y]:
                    reached[y] = 1
                    found.append(y)
            i += 1
    return gens


EVEN_CATALOG = [g for g in catalog_up_to_order(24) if g.n % 2 == 0 and g.n >= 4]


@st.composite
def switched_catalog_tables(draw):
    """A catalog table of even order, relabelled, with at most one
    intercalate switch off row and column 0."""
    group = draw(st.sampled_from(EVEN_CATALOG))
    perm = [0] + draw(st.permutations(range(1, group.n)))
    t = relabel(group.table, perm)
    if draw(st.booleans()):
        r1, r2, c1, c2 = draw(st.sampled_from(intercalates(t)))
        t[r1][c1], t[r1][c2] = t[r1][c2], t[r1][c1]
        t[r2][c1], t[r2][c2] = t[r2][c2], t[r2][c1]
    return t


class TestValidation:
    def test_cyclic_table_valid(self):
        g = group_from_table([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
        assert g.n == 3 and g.mul(1, 2) == 0

    def test_duplicate_row_entry(self):
        with pytest.raises(GroupValidationError) as err:
            group_from_table([[0, 1], [1, 1]])
        assert err.value.kind in ("NotLatinSquare", "NoIdentityAtZero")

    def test_identity_not_at_zero(self):
        with pytest.raises(GroupValidationError) as err:
            group_from_table([[1, 0], [0, 1]])
        assert err.value.kind == "NoIdentityAtZero"

    def test_nonassociative_latin_square(self):
        with pytest.raises(GroupValidationError) as err:
            group_from_table(NONASSOC)
        assert err.value.kind == "NotAssociative"
        g, h, k = err.value.witness
        t = NONASSOC
        assert t[t[g][h]][k] != t[g][t[h][k]]

    def test_slab_witness_matches_cube(self):
        # an intercalate switch keeps Z_n's table a Latin square with
        # identity 0, and usually breaks associativity
        rng = random.Random(5)
        tables = []
        for n in range(4, 65, 2):
            for _ in range(3):
                t = [[(a + b) % n for b in range(n)] for a in range(n)]
                for _ in range(rng.randint(1, 3)):
                    r, c = rng.randrange(1, n // 2), rng.randrange(1, n // 2)
                    r2, c2 = r + n // 2, c + n // 2
                    if t[r][c] == t[r2][c2] and t[r][c2] == t[r2][c]:
                        t[r][c], t[r][c2] = t[r][c2], t[r][c]
                        t[r2][c], t[r2][c2] = t[r2][c2], t[r2][c]
                tables.append(t)
        # witnesses past the first slab of rows (10 rows at n = 80, 6 at 100)
        tables += [loop_product(16, NONASSOC), loop_product(20, NONASSOC)]
        raised = sum(matches_cube(t) for t in tables)
        assert raised > len(tables) // 2
        assert cube_witness(tables[-1])[0] >= 20

    def test_light_matches_cube(self):
        # Z_m x NONASSOC: the first generator, 1, associates with everything
        tables = [NONASSOC, SLOW7, HALF6, loop_product(3, NONASSOC), loop_product(7, NONASSOC)]
        assert all(matches_cube(t) for t in tables)
        assert _light_generators(SLOW7) is None
        catalog = list(catalog_up_to_order(64))
        assert len(catalog) > 100
        assert not any(matches_cube(g.table) for g in catalog)

    @given(switched_catalog_tables())
    @settings(max_examples=150, deadline=None)
    def test_light_matches_cube_relabelled(self, table):
        matches_cube(table)

    def test_light_generators_within_log2(self):
        for group in catalog_up_to_order(64):
            gens = _light_generators([list(row) for row in group.table])
            assert len(gens) <= group.n.bit_length() - 1
            reached, frontier = {0}, [0]
            while frontier:
                frontier = [group.mul(x, a) for x in frontier for a in gens]
                frontier = [y for y in set(frontier) if y not in reached]
                reached.update(frontier)
            assert len(reached) == group.n

    def test_light_generators_match_reference(self):
        rng = random.Random(19)
        catalog = [[list(row) for row in g.table] for g in catalog_up_to_order(256)]
        tables = catalog + [
            relabel(t, [0] + rng.sample(range(1, len(t)), len(t) - 1))
            for t in catalog
            if len(t) <= 64
        ]
        # non-group loops: intercalate switches of Z_n, and Z2^k x loop
        # relabelled, which SLOW7 pushes past floor(log2 n) generators
        for n in range(4, 33, 2):
            t = [[(a + b) % n for b in range(n)] for a in range(n)]
            switches = intercalates(t)
            for r1, r2, c1, c2 in rng.sample(switches, min(3, len(switches))):
                u = [row[:] for row in t]
                u[r1][c1], u[r1][c2] = u[r1][c2], u[r1][c1]
                u[r2][c1], u[r2][c2] = u[r2][c2], u[r2][c1]
                tables.append(u)
        for loop in (NONASSOC, SLOW7, HALF6):
            for _ in range(4):
                tables.append(loop)
                tables += [
                    relabel(loop, [0] + rng.sample(range(1, len(loop)), len(loop) - 1))
                    for _ in range(5)
                ]
                loop = loop_product(2, loop)
        results = [reference_light_generators(t) for t in tables]
        assert [_light_generators(t) for t in tables] == results
        assert len(tables) > 900 and 0 < results.count(None) < len(tables) // 100

    def test_exact_check_only_on_refusal(self, monkeypatch):
        def exact_check(t):
            raise AssertionError("exact check ran on a group")

        monkeypatch.setattr(groups, "_raise_first_nonassociative", exact_check)
        assert len(list(catalog_up_to_order(32))) > 50
        with pytest.raises(AssertionError):
            group_from_table(NONASSOC)

    @pytest.mark.parametrize("entry", [10**23, -(10**23), 2**63, -(2**63) - 1])
    def test_entry_outside_int64(self, entry):
        with pytest.raises(GroupValidationError) as err:
            group_from_table([[0, 1], [1, entry]])
        assert err.value.kind == "MalformedTable"

    @pytest.mark.parametrize("entry", [2**64, -(2**63) - 1])
    def test_object_array_entry_outside_int64(self, entry):
        # a .grp row read token by token reaches the table as Python ints
        table = np.array([[0, 1], [1, entry]], dtype=object)
        with pytest.raises(GroupValidationError) as err:
            group_from_table(table)
        assert err.value.kind == "MalformedTable"

    def test_latin_square_refusals(self):
        for table in ([[0, 1, 2], [1, 2, 0], [2, 2, 1]], [[0, 1, 2], [1, 0, 2], [2, 1, 0]],
                      [[0, 1, 2], [1, 2, 0], [2, 1, 0]]):
            with pytest.raises(GroupValidationError) as err:
                group_from_table(table)
            assert err.value.kind == "NotLatinSquare"

    def test_associativity_memory_bounded(self):
        table = [[(a + b) % 256 for b in range(256)] for a in range(256)]
        tracemalloc.start()
        try:
            group_from_table(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_inverses_exist(self):
        g = dihedral(4)
        for x in range(g.n):
            inv = g.inverse(x)
            assert g.mul(x, inv) == 0 and g.mul(inv, x) == 0


class TestFamilies:
    def test_trivial_group(self):
        assert cyclic(1).n == 1

    def test_klein_four(self):
        klein = direct_product(cyclic(2), cyclic(2))
        assert all(klein.mul(x, x) == 0 for x in range(4))

    def test_dihedral3_isomorphic_symmetric3(self):
        d3, s3 = dihedral(3), symmetric(3)
        found = False
        for tail in itertools.permutations(range(1, 6)):
            p = (0,) + tail
            if all(
                p[d3.table[a][b]] == s3.table[p[a]][p[b]]
                for a in range(6)
                for b in range(6)
            ):
                found = True
                break
        assert found

    def test_symmetric_limit(self):
        with pytest.raises(ValueError):
            symmetric(6)

    def test_abelian_counts(self):
        # number of abelian groups of order n
        for order, count in [(1, 1), (4, 2), (8, 3), (12, 2), (16, 5)]:
            assert len(list(abelian_groups(order))) == count

    def test_catalog_orders_and_dedup(self):
        catalog = list(catalog_up_to_order(64))
        assert all(g.n <= 64 for g in catalog)
        assert len({g.table for g in catalog}) == len(catalog)
        assert any(g.name == "S3" for g in catalog)

    def test_catalog_tables_pinned(self):
        # any slip in how a constructor lays out its table changes the hash
        digest = hashlib.sha256()
        for g in catalog_up_to_order(64):
            digest.update(repr((g.name, g.table)).encode())
        assert digest.hexdigest() == (
            "3278e019eeb96fd366c274a4cff0d4a6cd36c9074b2085870745b5084f083c60"
        )

    def test_catalog_up_to_24(self):
        assert inspect.isgenerator(catalog_up_to_order(24))
        catalog = {g.name: g for g in catalog_up_to_order(24)}
        assert list(catalog) == [
            "Z1", "Z2", "Z3", "Z2xZ2", "Z4", "Z5", "Z6", "Z7", "Z2xZ2xZ2", "Z2xZ4",
            "Z8", "Z3xZ3", "Z9", "Z10", "Z11", "Z2xZ6", "Z12", "Z13", "Z14", "Z15",
            "Z2xZ2xZ2xZ2", "Z2xZ2xZ4", "Z2xZ8", "Z4xZ4", "Z16", "Z17", "Z3xZ6",
            "Z18", "Z19", "Z2xZ10", "Z20", "Z21", "Z22", "Z23", "Z2xZ2xZ6",
            "Z2xZ12", "Z24",
            "D3", "D4", "D5", "D6", "D7", "D8", "D9", "D10", "D11", "D12",
            "S3", "S4",
        ]
        assert catalog["D8"].n == 16 and catalog["D8"].table == dihedral(8).table
        assert catalog["S4"].n == 24 and catalog["S4"].table == symmetric(4).table

    def test_catalog_leaves_out_abelian_dihedral(self):
        # D1 and D2 are left out of the catalog because these tables repeat
        assert dihedral(1).table == cyclic(2).table
        assert dihedral(2).table == direct_product(cyclic(2), cyclic(2)).table


class TestCayley:
    def test_z5_single_generator_is_cycle(self):
        rel, cert = cayley_relation(cyclic(5), [1])
        assert rel == Relation.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        assert cert.certified

    def test_outdegree_matches_subset(self):
        rel, _ = cayley_relation(cyclic(5), [1, 2])
        assert rel.regular_degree() == 2

    def test_klein_girth_two(self):
        rel, _ = cayley_relation(direct_product(cyclic(2), cyclic(2)), [1, 2])
        assert rel.girth() == 2

    def test_identity_in_subset_is_reflexive_closure(self):
        rel, _ = cayley_relation(cyclic(5), [0, 1])
        assert rel.is_reflexive()
        # Cay(G, S + {e}) is the reflexive closure of Cay(G, S), certificate
        # included, on every set of the catalog up to order 12
        sets = 0
        for group in catalog_up_to_order(12):
            for gens in subsets_of(range(1, group.n)):
                expected = (
                    cayley_relation(group, gens)[0].reflexive_closure(),
                    TransitivityCertificate.cayley(),
                )
                assert cayley_relation(group, [0, *gens]) == expected, (group.name, gens)
                sets += 1
        assert sets == 9393

    def test_subset_range_check(self):
        for element in (5, -1):
            with pytest.raises(ValueError, match=f"^element {element} out of range for order 3$"):
                cayley_relation(cyclic(3), [1, element])

    def test_left_translations_preserve_arcs(self):
        group = dihedral(4)
        rel, _ = cayley_relation(group, [1, 4])
        for h in range(group.n):
            translate = [group.mul(h, x) for x in range(group.n)]
            for u, v in rel.edges():
                assert rel.succ[translate[u]] >> translate[v] & 1


class TestAutomorphisms:
    def test_directed_four_cycle(self):
        rel = Relation.from_edges(4, [(i, (i + 1) % 4) for i in range(4)])
        autos = automorphisms_brute(rel)
        assert len(autos) == 4
        assert orbit_of_zero(autos, 4) == {0, 1, 2, 3}
        assert is_point_transitive_brute(rel)

    def test_path_rigid(self):
        path = Relation.from_edges(3, [(0, 1), (1, 2)])
        assert automorphisms_brute(path) == [(0, 1, 2)]
        assert not is_point_transitive_brute(path)

    def test_threshold_refused(self):
        with pytest.raises(ValueError, match="refused"):
            automorphisms_brute(Relation.identity(11))
        with pytest.raises(ValueError, match="refused"):
            is_point_transitive_brute(Relation.identity(11))

    def test_refusal_before_iteration(self):
        with pytest.raises(ValueError, match="^brute automorphism search refused: n=11 > 10$"):
            groups._automorphisms(Relation.identity(11), 1)

    def test_stream_in_lexicographic_order(self):
        rel, _ = cayley_relation(dihedral(3), [1, 3])
        autos = automorphisms_brute(rel)
        assert autos == sorted(autos) and len(set(autos)) == len(autos)
        assert autos == sorted(
            p for p in itertools.permutations(range(6))
            if all(rel.succ[p[u]] >> p[v] & 1 for u, v in rel.edges())
        )
        assert list(groups._automorphisms(rel, 4)) == [p for p in autos if p[0] == 4]

    def test_transitivity_matches_search_per_vertex(self):
        # the answer of one independent search per vertex 1..n-1
        def per_vertex(rel):
            return all(
                next(groups._automorphisms(rel, v), None) is not None
                for v in range(1, rel.n)
            )

        for group in catalog_up_to_order(10):
            for gens in subsets_of(range(1, group.n)):
                for reflexive in (False, True):
                    rel, _ = cayley_relation(group, [0, *gens] if reflexive else gens)
                    assert is_point_transitive_brute(rel), (group.name, gens)
        rng = random.Random(20261018)
        answers = set()
        for i in range(1000):
            n = rng.randrange(1, 9)
            p = (0.15, 0.3, 0.5, 0.7)[i % 4]
            rel = Relation.from_edges(
                n, [(u, v) for u in range(n) for v in range(n) if rng.random() < p]
            )
            answer = is_point_transitive_brute(rel)
            assert answer == per_vertex(rel), rel
            answers.add((n > 1, answer))
        assert {(True, False), (True, True)} <= answers

    def test_one_search_when_first_automorphism_generates(self, monkeypatch):
        searches = []
        search = groups._automorphisms
        monkeypatch.setattr(
            groups, "_automorphisms",
            lambda rel, image_of_zero=None: searches.append(image_of_zero)
            or search(rel, image_of_zero),
        )
        rel, _ = cayley_relation(cyclic(10), [1, 3])
        assert is_point_transitive_brute(rel)
        assert searches == [1]
        searches.clear()
        path = Relation.from_edges(3, [(0, 1), (1, 2)])
        assert not is_point_transitive_brute(path) and searches == [1]

    def test_certificate_soundness_small_cayley(self):
        for group in catalog_up_to_order(10):
            if not 2 <= group.n <= 10:
                continue
            for gens in ([1], list(range(1, group.n))):
                rel, cert = cayley_relation(group, gens)
                assert cert.certified
                assert is_point_transitive_brute(rel)

    def test_transitive_girth_from_single_vertex(self):
        for gens in ([1, 2], [2, 3], [1, 4]):
            rel, _ = cayley_relation(cyclic(9), gens)
            from_zero = None
            reached = VertexSet.of(rel.n, [0])
            for k in range(1, rel.n + 1):
                reached = rel.image(reached)
                if 0 in reached:
                    from_zero = k
                    break
            assert from_zero == rel.girth()
