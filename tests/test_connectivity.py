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
from relgrowth import connectivity
from relgrowth.relation import VertexSet, _iter_bits
from relgrowth.theorems import subsets_of

from conftest import oracle_corpus, random_relation, relations


def reflexive_cycle(n):
    return Relation.from_edges(n, [(i, (i + 1) % n) for i in range(n)]).reflexive_closure()


def complete(n):
    return Relation(n, tuple([(1 << n) - 1] * n))


class FlowNet:
    """Reference cut: breadth-first augmenting paths over an edge list of
    the vertex-split network, where vertex v splits into 2v (in) and 2v+1
    (out).  Built once per relation; every cut starts from the saved
    initial capacities."""

    def __init__(self, rel):
        n = rel.n
        self.size = 2 * n
        # adj[node] lists (edge, head node); edge e ^ 1 is the reverse of e
        self.adj = [[] for _ in range(self.size)]
        self.to, self.cap = [], []
        for v in range(n):
            self._add(2 * v, 2 * v + 1, 1)
        for u, v in rel.edges():
            if u != v:  # loops never contribute to a boundary
                self._add(2 * u + 1, 2 * v, n + 1)
        self.cap0 = tuple(self.cap)

    def _add(self, a, b, c):
        self.adj[a].append((len(self.to), b))
        self.to.append(b)
        self.cap.append(c)
        self.adj[b].append((len(self.to), a))
        self.to.append(a)
        self.cap.append(0)

    def min_cut(self, s, t):
        """Minimum |image(X) \\ X| over X with s in X and t outside
        X + image(X), and the bits of the inclusion-minimal optimal X (the
        out-nodes left reachable)."""
        self.cap[:] = self.cap0
        source, sink = 2 * s + 1, 2 * t
        value = 0
        while True:
            parent_edge = [-1] * self.size
            parent_edge[source] = -2
            queue = [source]
            for u in queue:
                for e, w in self.adj[u]:
                    if self.cap[e] > 0 and parent_edge[w] == -1:
                        parent_edge[w] = e
                        queue.append(w)
                if parent_edge[sink] != -1:
                    break
            else:
                return value, sum(1 << (node >> 1) for node in queue if node & 1)
            v = sink
            while v != source:
                e = parent_edge[v]
                self.cap[e] -= 1
                self.cap[e ^ 1] += 1
                v = self.to[e ^ 1]
            value += 1


def separable_pairs(rel):
    for s in range(rel.n):
        for t in _iter_bits(((1 << rel.n) - 1) & ~(rel.succ[s] | 1 << s)):
            yield s, t


def sweep_kappa(rel):
    """Reference route: one reference cut per separable ordered (s, t)
    pair on one network; the atoms are the least of the minimal optimal
    sides over all pairs."""
    net = FlowNet(rel)
    cuts = [net.min_cut(s, t) for s, t in separable_pairs(rel)]
    if not cuts:
        return ConnectivityResult(rel.n - 1, True, None, ())
    best = min(value for value, _ in cuts)
    fragments = {x: Fragment.of(rel, VertexSet(rel.n, x)) for value, x in cuts if value == best}
    size = min(len(f.set) for f in fragments.values())
    atoms = tuple(
        sorted((f for f in fragments.values() if len(f.set) == size), key=Fragment.sort_key)
    )
    return ConnectivityResult(best, False, size, atoms)


def strongly_connected(rel):
    """Every vertex reaches every other: the (n-1)-balls around 0 in the
    reflexive closures of the relation and its reverse are all of V."""
    full = VertexSet(rel.n, (1 << rel.n) - 1)
    return all(r.reflexive_closure().ball(0, rel.n - 1) == full for r in (rel, rel.reverse()))


def disjoint_union(a, b):
    return Relation(a.n + b.n, a.succ + tuple(s << a.n for s in b.succ))


DISCONNECTED = {
    "Cay(Z8,{2})": cayley_relation(cyclic(8), [2])[0],
    "Cay(Z9,{3,6}) reflexive": cayley_relation(cyclic(9), [0, 3, 6])[0],
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
        rel, _ = cayley_relation(cyclic(6), [0, 1, 2])
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
                        assert x_min.bits & ~x.bits == 0


def super_reference(rel, sources, t):
    """Reference cut from one extra vertex x with arcs x -> sources, with x
    dropped from the side."""
    with_x = Relation(rel.n + 1, rel.succ + (sources,))
    value, side = FlowNet(with_x).min_cut(rel.n, t)
    return value, side & ~(1 << rel.n)


def count_cuts(monkeypatch):
    calls = []
    cut = connectivity._CutKernel.cut

    def counted(kernel, *args):
        calls.append(args)
        return cut(kernel, *args)

    monkeypatch.setattr(connectivity._CutKernel, "cut", counted)
    return calls


class TestCutKernel:
    def test_matches_reference_on_corpus(self):
        for rel in oracle_corpus():
            kernel, _ = connectivity._cut_kernels(rel)
            net = FlowNet(rel)
            for s, t in separable_pairs(rel):
                assert kernel.cut(kernel.succ[s], 1 << s, t) == net.min_cut(s, t), (rel, s, t)

    @settings(max_examples=80, deadline=None)
    @given(relations(min_n=2, max_n=9))
    def test_matches_reference_both_directions(self, rel):
        for kernel, direction in zip(connectivity._cut_kernels(rel), (rel, rel.reverse())):
            net = FlowNet(direction)
            for s, t in separable_pairs(direction):
                assert kernel.cut(kernel.succ[s], 1 << s, t) == net.min_cut(s, t)

    def test_path_back_through_a_used_vertex(self):
        # an augmenting path that enters a used vertex at its out-node and
        # leaves down its own arc frees it; rare, found by random search
        rel = Relation(15, (5389, 257, 547, 6148, 51, 1025, 4096, 160, 544, 8197,
                            80, 8868, 20, 160, 2313))
        kernel, _ = connectivity._cut_kernels(rel)
        assert kernel.cut(kernel.succ[4], 1 << 4, 13) == FlowNet(rel).min_cut(4, 13)

    def test_super_source_matches_extra_vertex_on_corpus(self):
        # the sources kappa uses: every vertex before the target
        for rel in oracle_corpus():
            kernel, _ = connectivity._cut_kernels(rel)
            for j in range(1, rel.n):
                sources = (1 << j) - 1
                assert kernel.cut(sources, 0, j) == super_reference(rel, sources, j), (rel, j)

    @settings(max_examples=80, deadline=None)
    @given(relations(min_n=2, max_n=9), st.data())
    def test_super_source_matches_extra_vertex(self, rel, data):
        t = data.draw(st.integers(0, rel.n - 1))
        sources = data.draw(st.integers(1, (1 << rel.n) - 1)) & ~(1 << t)
        if sources:
            kernel, _ = connectivity._cut_kernels(rel)
            assert kernel.cut(sources, 0, t) == super_reference(rel, sources, t)

    @pytest.mark.parametrize("group, gens", [(cyclic(48), [1, 5, 24]), (dihedral(24), [1, 24, 30])])
    def test_flow_budget_atom_size_one(self, monkeypatch, group, gens):
        rel, _ = cayley_relation(group, gens)
        calls = count_cuts(monkeypatch)
        result = kappa(rel)
        assert result.atom_size == 1
        n, delta = rel.n, len(gens)
        assert len(calls) <= delta * (delta + 1) + 2 * (n - delta - 1) + n


class TestKappa:
    def test_complete_case(self):
        result = kappa(complete(4))
        assert result.complete and result.kappa == 3
        assert result.atoms == ()

    def test_reflexive_six_cycle(self):
        result = kappa(reflexive_cycle(6))
        assert result.kappa == 1 and result.atom_size == 1
        assert [a.set.members() for a in result.atoms] == [(v,) for v in range(6)]

    def test_circulant_z8(self):
        rel, _ = cayley_relation(cyclic(8), [0, 1, 2])
        result = kappa(rel)
        assert result.kappa == 2 and result.atom_size == 1

    def test_small_n_refused(self):
        with pytest.raises(ValueError):
            kappa(Relation.identity(1))

    def test_witness_invariants(self):
        rel, _ = cayley_relation(cyclic(7), [0, 1, 2])
        result = kappa(rel)
        frag = result.atoms[0]
        assert frag.value == result.kappa
        assert frag.boundary == rel.image(frag.set).difference(frag.set)
        assert frag.set and frag.set.bits | rel.image(frag.set).bits != (1 << 7) - 1


class TestKappaMatchesSweep:
    def test_catalog_cayley(self):
        for group in catalog_up_to_order(10):
            for gens in subsets_of(range(1, group.n)):
                for reflexive in (False, True):
                    rel, _ = cayley_relation(group, [0, *gens] if reflexive else gens)
                    assert kappa(rel) == sweep_kappa(rel), (group.name, gens, reflexive)

    def test_reachability_helper(self):
        assert strongly_connected(reflexive_cycle(6))
        assert strongly_connected(cayley_relation(cyclic(7), [3])[0])
        assert not strongly_connected(Relation.from_edges(3, [(0, 1), (1, 2)]))
        assert not strongly_connected(disjoint_union(complete(2), complete(3)))

    @pytest.mark.parametrize("name", sorted(DISCONNECTED))
    def test_disconnected(self, name):
        rel = DISCONNECTED[name]
        assert not strongly_connected(rel)
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
        full = (1 << rel.n) - 1
        fragments = [Fragment.of(rel, VertexSet(rel.n, m)) for m in range(1, 1 << rel.n)]
        feasible = [f for f in fragments if f.set.bits | rel.image(f.set).bits != full]
        value = min((f.value for f in feasible), default=rel.n - 1)
        expected = sorted((f for f in feasible if f.value == value), key=Fragment.sort_key)
        assert fragments_oracle(rel) == (value, expected)

    def test_reverse_atoms_from_one_pass(self):
        for rel in oracle_corpus():
            value, _, reverse_atoms = connectivity._oracle_atoms(rel)
            assert (value, reverse_atoms) == atoms_oracle(rel.reverse())

    def test_one_oracle_pass_per_check(self, monkeypatch):
        passes = []
        minimizers = connectivity._oracle_minimizers
        monkeypatch.setattr(
            connectivity, "_oracle_minimizers", lambda rel: passes.append(rel) or minimizers(rel)
        )
        rel, _ = cayley_relation(cyclic(9), [1, 3])
        check_proposition_basic(rel, certified=True, engine="oracle")
        check_atom_disjointness(rel, engine="oracle")
        assert passes == [rel, rel]

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
            x = VertexSet(rel.n, 1 << v)
            if x.bits | rel.image(x).bits != (1 << rel.n) - 1:
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

    def test_atom_containing_matches_oracle_on_corpus(self):
        for rel in oracle_corpus():
            result = kappa(rel)
            _, atoms = atoms_oracle(rel)
            for v in range(rel.n):
                if not atoms:
                    with pytest.raises(AtomsUndefinedError):
                        result.atom_containing(v)
                    continue
                least = next((a for a in atoms if v in a.set), None)
                assert result.atom_containing(v) == least, (rel, v)

    def test_transitive_relations_cover_all_vertices(self):
        for gens in ([1], [1, 2], [2, 3]):
            rel, _ = cayley_relation(cyclic(7), [0, *gens])
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
        rel, _ = cayley_relation(cyclic(8), [0, 1, 3])
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
