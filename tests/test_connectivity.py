import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relgrowth import (
    AtomsUndefinedError,
    ConnectivityResult,
    Fragment,
    Relation,
    atom_containing,
    atoms_oracle,
    catalog_up_to_order,
    cayley_relation,
    check_atom_disjointness,
    check_proposition_basic,
    cyclic,
    dihedral,
    direct_product,
    fragments_oracle,
    kappa,
    min_separating_set,
)
from relgrowth.relation import VertexSet
from relgrowth.theorems import subsets_of

from conftest import oracle_corpus, random_relation, relations


def reflexive_cycle(n):
    return Relation.from_edges(n, [(i, (i + 1) % n) for i in range(n)]).reflexive_closure()


def complete(n):
    return Relation(n, tuple([(1 << n) - 1] * n))


def sweep_kappa(rel):
    """Reference route: one min_separating_set per ordered (s, t) pair; the
    atoms are the least of the minimal optimal sides over all pairs."""
    best, sides = None, []
    for s in range(rel.n):
        for t in range(rel.n):
            result = None if s == t else min_separating_set(rel, s, t)
            if result is None:
                continue
            value, x_min = result
            if best is None or value < best:
                best, sides = value, [x_min]
            elif value == best:
                sides.append(x_min)
    if best is None:
        return ConnectivityResult(rel.n - 1, True, None, None, ())
    fragments = {x.bits: Fragment.of(rel, x) for x in sides}
    size = min(len(f.set) for f in fragments.values())
    atoms = tuple(
        sorted((f for f in fragments.values() if len(f.set) == size), key=Fragment.sort_key)
    )
    return ConnectivityResult(best, False, atoms[0], size, atoms)


def disjoint_union(a, b):
    return Relation(a.n + b.n, a.succ + tuple(s << a.n for s in b.succ))


DISCONNECTED = {
    "Cay(Z8,{2})": cayley_relation(cyclic(8), [2])[0],
    "Cay(Z9,{3,6}) reflexive": cayley_relation(cyclic(9), [3, 6], reflexive=True)[0],
    "Cay(Z12,{4,6})": cayley_relation(cyclic(12), [4, 6])[0],
    "C3 + C4": disjoint_union(
        cayley_relation(cyclic(3), [1])[0], cayley_relation(cyclic(4), [1])[0]
    ),
    "K3 + K3": disjoint_union(complete(3), complete(3)),
    "no arcs": Relation(5, (0,) * 5),
    "loops only": Relation.identity(4),
    "chain": Relation.from_edges(3, [(0, 1), (1, 2)]),
    "cycle with a sink": Relation.from_edges(
        5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (2, 4)]
    ),
}


class TestMinSeparatingSet:
    def test_reflexive_five_cycle(self):
        value, x_min = min_separating_set(reflexive_cycle(5), 0, 2)
        assert value == 1
        assert x_min.members() == (0,)

    def test_complete_inseparable(self):
        rel = complete(4)
        for s in range(4):
            for t in range(4):
                if s != t:
                    assert min_separating_set(rel, s, t) is None

    def test_circulant_value(self):
        rel, _ = cayley_relation(cyclic(6), [1, 2], reflexive=True)
        value, _ = min_separating_set(rel, 0, 4)
        assert value == 2

    def test_same_vertex_refused(self):
        with pytest.raises(ValueError):
            min_separating_set(reflexive_cycle(5), 1, 1)

    @settings(max_examples=40, deadline=None)
    @given(relations(min_n=2, max_n=7))
    def test_lattice_bottom(self, rel):
        # x_min must sit inside every optimal source side the oracle finds
        for s in range(rel.n):
            for t in range(rel.n):
                if s == t:
                    continue
                result = min_separating_set(rel, s, t)
                if result is None:
                    continue
                value, x_min = result
                for mask in range(1, 1 << rel.n):
                    x = VertexSet(rel.n, mask)
                    if s not in x or t in x or t in rel.image(x):
                        continue
                    boundary = rel.image(x).difference(x)
                    assert len(boundary) >= value
                    if len(boundary) == value:
                        assert x_min.is_subset(x)


class TestKappa:
    def test_complete_case(self):
        result = kappa(complete(4))
        assert result.complete and result.kappa == 3
        assert result.atoms == () and result.witness is None

    def test_reflexive_six_cycle(self):
        result = kappa(reflexive_cycle(6))
        assert result.kappa == 1 and result.atom_size == 1
        assert [a.set.members() for a in result.atoms] == [(v,) for v in range(6)]

    def test_circulant_z8(self):
        rel, _ = cayley_relation(cyclic(8), [1, 2], reflexive=True)
        result = kappa(rel)
        assert result.kappa == 2 and result.atom_size == 1

    def test_small_n_refused(self):
        with pytest.raises(ValueError):
            kappa(Relation.identity(1))

    def test_witness_invariants(self):
        rel, _ = cayley_relation(cyclic(7), [1, 2], reflexive=True)
        result = kappa(rel)
        frag = result.witness
        assert frag.value == result.kappa
        assert frag.boundary == rel.image(frag.set).difference(frag.set)
        assert frag.set and frag.set.union(rel.image(frag.set)) != VertexSet.full(7)


class TestKappaMatchesSweep:
    def test_catalog_cayley(self):
        for group in catalog_up_to_order(10):
            for gens in subsets_of(range(1, group.n)):
                for reflexive in (False, True):
                    rel, _ = cayley_relation(group, gens, reflexive=reflexive)
                    assert kappa(rel) == sweep_kappa(rel), (group.name, gens, reflexive)

    @pytest.mark.parametrize("name", sorted(DISCONNECTED))
    def test_disconnected(self, name):
        rel = DISCONNECTED[name]
        assert not rel.is_connected()
        result = kappa(rel)
        assert result.kappa == 0
        assert result == sweep_kappa(rel)

    def test_separator_found_only_in_reverse(self):
        # {4} is the only fragment, cut off by {0}; source 0 lies in that
        # separator and every forward flow from source 1 has value 2, so
        # only the reverse flow 1 -> 4 finds kappa = 1
        rel = Relation.from_edges(
            5,
            [(0, 1), (0, 2), (0, 3), (1, 0), (1, 2), (1, 3), (2, 0), (2, 1),
             (2, 3), (2, 4), (3, 0), (3, 1), (3, 2), (3, 4), (4, 0)],
        )
        assert [min_separating_set(rel, s, 4)[0] for s in (0, 1)] == [2, 2]
        result = kappa(rel)
        assert result.kappa == 1
        assert [a.set.members() for a in result.atoms] == [(4,)]
        assert result == sweep_kappa(rel)

    @settings(max_examples=150, deadline=None)
    @given(relations(min_n=2, max_n=9), st.booleans())
    def test_random_with_loops(self, rel, reflexive):
        if reflexive:
            rel = rel.reflexive_closure()
        assert kappa(rel) == sweep_kappa(rel)


def networkx_kappa_from_zero(rel):
    """min over the non-successors t of 0 of networkx's local node
    connectivity 0 -> t; exact for a Cayley relation, whose left
    translations carry every vertex to 0."""
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.connectivity import (
        build_auxiliary_node_connectivity,
        local_node_connectivity,
    )
    from networkx.algorithms.flow import build_residual_network

    graph = nx.DiGraph()
    graph.add_nodes_from(range(rel.n))
    graph.add_edges_from((u, v) for u, v in rel.edges() if u != v)
    aux = build_auxiliary_node_connectivity(graph)
    residual = build_residual_network(aux, "capacity")
    return min(
        (
            local_node_connectivity(graph, 0, t, auxiliary=aux, residual=residual)
            for t in range(1, rel.n)
            if not graph.has_edge(0, t)
        ),
        default=rel.n - 1,
    )


class TestKappaNetworkx:
    def test_cayley_n15_to_40(self):
        rng = random.Random(1540)
        for n in range(15, 41):
            groups = [cyclic(n)] + ([dihedral(n // 2)] if n % 2 == 0 else [])
            for group in groups:
                gens = rng.sample(range(1, n), rng.randrange(2, 5))
                rel, _ = cayley_relation(group, gens)
                assert kappa(rel).kappa == networkx_kappa_from_zero(rel), (group.name, gens)


class TestFragmentsOracle:
    def test_reflexive_four_cycle(self):
        value, fragments = fragments_oracle(reflexive_cycle(4))
        assert value == 1
        sets = {f.set.members() for f in fragments}
        # exactly the arcs of the cycle: singletons and adjacent pairs
        assert sets == {(0,), (1,), (2,), (3,),
                        (0, 1), (1, 2), (2, 3), (0, 3)}
        assert all(f.value == 1 for f in fragments)

    def test_complete_falls_back(self):
        assert fragments_oracle(complete(3)) == (2, [])

    def test_threshold_guard(self):
        with pytest.raises(ValueError, match="refused"):
            fragments_oracle(Relation.identity(15))

    @settings(max_examples=60, deadline=None)
    @given(relations(min_n=2, max_n=8))
    def test_matches_subset_loop(self, rel):
        full = VertexSet.full(rel.n)
        fragments = [Fragment.of(rel, VertexSet(rel.n, m)) for m in range(1, 1 << rel.n)]
        feasible = [f for f in fragments if f.set.union(rel.image(f.set)) != full]
        value = min((f.value for f in feasible), default=rel.n - 1)
        expected = sorted((f for f in feasible if f.value == value), key=Fragment.sort_key)
        assert fragments_oracle(rel) == (value, expected)

    def test_atoms_oracle_is_least_fragments(self):
        for rel in oracle_corpus():
            value, fragments = fragments_oracle(rel)
            size = min((len(f.set) for f in fragments), default=None)
            assert atoms_oracle(rel) == (value, [f for f in fragments if len(f.set) == size])

    def test_oracle_matches_flow_on_examples(self, cycle5):
        rel = cycle5.reflexive_closure()
        assert fragments_oracle(rel)[0] == kappa(rel).kappa


class TestFlowOracleAgreement:
    @settings(max_examples=60, deadline=None)
    @given(relations(min_n=2, max_n=8))
    def test_random_agreement(self, rel):
        flow = kappa(rel)
        value, atoms = atoms_oracle(rel)
        assert flow.kappa == value
        oracle_bits = {a.set.bits for a in atoms}
        assert {a.set.bits for a in flow.atoms} == oracle_bits

    def test_seeded_random_agreement(self):
        rng = random.Random(7)
        for _ in range(60):
            rel = random_relation(rng, rng.randrange(2, 9), 0.35)
            assert kappa(rel).kappa == atoms_oracle(rel)[0]


class TestDegreeCap:
    @settings(max_examples=40, deadline=None)
    @given(relations(min_n=2, max_n=8))
    def test_feasible_singleton_caps_kappa(self, rel):
        for v in range(rel.n):
            x = VertexSet.of(rel.n, [v])
            if x.union(rel.image(x)) != VertexSet.full(rel.n):
                boundary = rel.image(x).difference(x)
                assert kappa(rel).kappa <= len(boundary)
                break


class TestAtoms:
    def test_atom_containing_cycle_vertex(self):
        atom = atom_containing(reflexive_cycle(6), 3)
        assert atom.set.members() == (3,)

    def test_atom_containing_complete(self):
        with pytest.raises(AtomsUndefinedError):
            atom_containing(complete(3), 0)

    def test_transitive_relations_cover_all_vertices(self):
        for gens in ([1], [1, 2], [2, 3]):
            rel, _ = cayley_relation(cyclic(7), gens, reflexive=True)
            for v in range(7):
                assert atom_containing(rel, v) is not None

    def test_disjointness_cycle(self):
        report = check_atom_disjointness(reflexive_cycle(6))
        assert report.forward_disjoint and report.reverse_disjoint

    def test_disjointness_z2xz4(self):
        group = direct_product(cyclic(2), cyclic(4))
        rel, _ = cayley_relation(group, [1, 4])
        assert check_atom_disjointness(rel).holds

    @settings(max_examples=30, deadline=None)
    @given(relations(min_n=2, max_n=7))
    def test_never_fails_on_both_sides(self, rel):
        try:
            report = check_atom_disjointness(rel)
        except AtomsUndefinedError:
            return
        assert report.holds

    def test_engines_agree(self):
        rel, _ = cayley_relation(cyclic(8), [1, 3], reflexive=True)
        flow = check_atom_disjointness(rel, engine="flow")
        oracle = check_atom_disjointness(rel, engine="oracle")
        assert {a.set.bits for a in flow.forward_atoms} == {
            a.set.bits for a in oracle.forward_atoms
        }


class TestProposition:
    def test_reflexive_six_cycle(self):
        report = check_proposition_basic(reflexive_cycle(6))
        assert report.applicable and report.holds
        assert len(report.atom.set) == 1 and report.kappa == 1

    def test_z4xz2(self):
        group = direct_product(cyclic(4), cyclic(2))
        rel, _ = cayley_relation(group, [2, 1])
        report = check_proposition_basic(rel, certified=True)
        assert report.applicable and report.holds

    def test_disconnected_not_applicable(self):
        rel, _ = cayley_relation(cyclic(4), [2])
        report = check_proposition_basic(rel, certified=True)
        assert not report.applicable and "connected" in report.reason

    def test_non_transitive_not_applicable(self):
        chain = Relation.from_edges(3, [(0, 1), (1, 2)])
        assert not check_proposition_basic(chain).applicable

    def test_cayley_instances_hold(self):
        for gens in ([1], [1, 2], [1, 3], [2, 5]):
            rel, _ = cayley_relation(cyclic(9), gens)
            report = check_proposition_basic(rel, certified=True)
            if report.applicable:
                assert report.holds
