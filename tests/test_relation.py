import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relgrowth import INFINITE, Relation, VertexSet, cayley_relation, cyclic, relation
from relgrowth.fileio import MAX_VERTICES

from conftest import relations


def cycle(n, reflexive=False):
    rel = Relation.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    return rel.reflexive_closure() if reflexive else rel


class TestConstruction:
    def test_from_edges_cycle(self):
        rel = cycle(3)
        assert sorted(rel.edges()) == [(0, 1), (1, 2), (2, 0)]

    def test_loops_and_duplicates_collapse(self):
        rel = Relation.from_edges(2, [(0, 0), (0, 1), (0, 1)])
        assert sorted(rel.edges()) == [(0, 0), (0, 1)]

    def test_out_of_range_edge(self):
        with pytest.raises(ValueError, match=r"\(0, 5\)"):
            Relation.from_edges(2, [(0, 5)])

    def test_table_check_is_linear_at_cap(self):
        # one shift per mask keeps the check linear; an (n + 1)-bit
        # complement per mask makes it quadratic
        empty = (0,) * MAX_VERTICES
        start = time.perf_counter()
        for _ in range(10):
            Relation(MAX_VERTICES, empty)
        assert time.perf_counter() - start < 1


class TestImage:
    def test_identity_fixes_sets(self):
        rel = Relation.identity(4)
        a = VertexSet(4, 0b1010)
        assert rel.image(a).members() == (1, 3)

    def test_cycle_shift(self):
        assert cycle(5).image(VertexSet(5, 0b11)).members() == (1, 2)

    def test_empty_set(self):
        assert not cycle(5).image(VertexSet(5, 0))

    def test_universe_mismatch(self):
        with pytest.raises(ValueError, match="universe"):
            cycle(5).image(VertexSet(4, 0))


class TestReverseAndClosure:
    def test_reverse_cycle(self):
        rev = cycle(5).reverse()
        assert sorted(rev.edges()) == [(i, (i - 1) % 5) for i in range(5)]

    def test_reverse_identity(self):
        assert Relation.identity(3).reverse() == Relation.identity(3)

    def test_reflexive_closure_adds_all_loops(self):
        rel = cycle(3).reflexive_closure()
        assert rel.is_reflexive()
        assert rel.reflexive_closure() == rel

    def test_closure_of_empty(self):
        assert Relation(2, (0, 0)).reflexive_closure() == Relation.identity(2)

    def test_remove_loops(self):
        assert cycle(4, reflexive=True).remove_loops() == cycle(4)
        assert cycle(4).remove_loops() == cycle(4)
        assert Relation.identity(3).remove_loops() == Relation(3, (0, 0, 0))


class TestComposeAndPower:
    def test_identity_is_neutral(self):
        rel = cycle(5)
        assert Relation.identity(5).compose(rel) == rel
        assert rel.compose(Relation.identity(5)) == rel

    def test_two_steps_on_cycle(self):
        sq = cycle(5).compose(cycle(5))
        assert sq.ball(0, 1).members() == (2,)

    def test_compose_with_reverse_on_cycle(self):
        rel = cycle(3)
        # enumerate intermediates by hand: 0 -> 1 -> 0 is the only route
        assert rel.compose(rel.reverse()).ball(0, 1).members() == (0,)

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            cycle(3).compose(cycle(4))

    def test_power_zero_and_negative(self):
        rel = cycle(5)
        assert rel.power(0) == Relation.identity(5)
        assert rel.power(3).ball(0, 1).members() == (3,)
        assert rel.power(-1) == rel.reverse()


class TestBallsAndSpheres:
    def test_reflexive_cycle_ball(self):
        assert cycle(7, reflexive=True).ball(0, 3).members() == (0, 1, 2, 3)

    def test_zero_radius(self):
        assert cycle(7).ball(2, 0).members() == (2,)

    def test_circulant_ball(self):
        rel, _ = cayley_relation(cyclic(12), [0, 1, 2])
        assert rel.ball(0, 4).members() == tuple(range(9))

    # the j-sphere is the j-ball less the (j - 1)-ball
    def test_reflexive_cycle_sphere(self):
        rel = cycle(7, reflexive=True)
        assert rel.ball(0, 3).difference(rel.ball(0, 2)).members() == (3,)

    def test_identity_sphere_empty(self):
        rel = Relation.identity(4)
        assert not rel.ball(1, 1).difference(rel.ball(1, 0))

    def test_circulant_sphere(self):
        rel, _ = cayley_relation(cyclic(12), [0, 1, 2])
        assert rel.ball(0, 2).difference(rel.ball(0, 1)).members() == (3, 4)

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError):
            cycle(5).ball(7, 1)


class TestDegree:
    def test_reflexive_cycle_degree(self):
        rel = cycle(5, reflexive=True)
        assert all(len(rel.ball(v, 1)) == 2 for v in range(5))
        assert rel.regular_degree() == 2

    def test_star_not_regular(self):
        star = Relation.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert len(star.ball(0, 1)) == 3
        assert star.regular_degree() is None

    def test_cayley_regularity(self):
        rel, _ = cayley_relation(cyclic(9), [1, 3, 5])
        assert rel.regular_degree() == 3


class TestGirth:
    def test_directed_cycle(self):
        for n in (2, 3, 5, 8):
            assert cycle(n).girth() == n

    def test_loops_give_one(self):
        assert Relation.identity(3).girth() == 1

    def test_acyclic_is_infinite(self):
        chain = Relation.from_edges(3, [(0, 1), (1, 2)])
        assert chain.girth() == INFINITE
        assert math.isinf(chain.girth())

    def test_circulant_girth(self):
        rel, _ = cayley_relation(cyclic(7), [1, 2])
        assert rel.girth() == 4

    @staticmethod
    def count_image_steps(monkeypatch, limit):
        """Count `relation._image_bits` calls in a one-element list, and
        stop the search once they pass `limit`."""
        calls = [0]
        image_bits = relation._image_bits

        def counted(succ, bits):
            calls[0] += 1
            if calls[0] > limit:
                raise AssertionError(f"more than {limit} image steps")
            return image_bits(succ, bits)

        monkeypatch.setattr(relation, "_image_bits", counted)
        return calls

    @pytest.mark.parametrize("arcs", ["none", "path", "reversed path"])
    def test_acyclic_at_file_cap_in_linear_steps(self, monkeypatch, arcs):
        # a search whose image empties drops every vertex it passed from
        # the later searches, so all searches together take at most 2n steps
        n = MAX_VERTICES
        steps = {"none": [], "path": [(v, v + 1) for v in range(n - 1)],
                 "reversed path": [(v + 1, v) for v in range(n - 1)]}[arcs]
        rel = Relation.from_edges(n, steps)
        calls = self.count_image_steps(monkeypatch, 2 * n)
        assert rel.girth() == INFINITE
        assert calls[0] <= 2 * n

    def test_long_cycle_at_file_cap_in_linear_steps(self, monkeypatch):
        # each searched vertex is dropped from the later searches: the
        # n-cycle takes 3n - 3 steps, where searching every vertex to the
        # best length found takes about n^2 / 2
        n = MAX_VERTICES
        rel = cycle(n)
        calls = self.count_image_steps(monkeypatch, 3 * n)
        assert rel.girth() == n
        assert calls[0] <= 3 * n


class TestRestriction:
    def test_full_restriction(self):
        rel = cycle(5)
        sub, mapping = rel.restriction(VertexSet(5, 0b11111))
        assert sub == rel and mapping == tuple(range(5))

    def test_cycle_to_arc(self):
        sub, mapping = cycle(5).restriction(VertexSet(5, 0b11))
        assert sorted(sub.edges()) == [(0, 1)]
        assert mapping == (0, 1)

    def test_reflexivity_survives(self):
        sub, _ = cycle(5, reflexive=True).restriction(VertexSet(5, 0b1010))
        assert sub.is_reflexive()

    def test_empty_refused(self):
        with pytest.raises(ValueError):
            cycle(5).restriction(VertexSet(5, 0))


class TestProperties:
    @given(relations(), st.data())
    def test_image_monotone(self, rel, data):
        full = (1 << rel.n) - 1
        a = data.draw(st.integers(min_value=0, max_value=full))
        b = data.draw(st.integers(min_value=0, max_value=full)) | a
        img_a = rel.image(VertexSet(rel.n, a))
        img_b = rel.image(VertexSet(rel.n, b))
        assert img_a.bits & ~img_b.bits == 0

    @given(relations())
    def test_reverse_involution(self, rel):
        assert rel.reverse().reverse() == rel

    @given(relations(), st.integers(min_value=0, max_value=6))
    def test_ball_recurrence(self, rel, j):
        for v in range(rel.n):
            assert rel.ball(v, j + 1) == rel.image(rel.ball(v, j))

    @given(relations(), st.integers(min_value=0, max_value=6))
    def test_reflexive_nesting(self, rel, j):
        rel = rel.reflexive_closure()
        for v in range(rel.n):
            assert rel.ball(v, j).bits & ~rel.ball(v, j + 1).bits == 0

    @settings(max_examples=40)
    @given(relations(max_n=6))
    def test_ball_matches_power(self, rel):
        for j in range(rel.n + 1):
            power = rel.power(j)
            for v in range(rel.n):
                assert rel.ball(v, j) == power.image(VertexSet(rel.n, 1 << v))

    @settings(max_examples=60)
    @given(relations(max_n=8))
    def test_girth_matches_ball_bruteforce(self, rel):
        best = INFINITE
        for v in range(rel.n):
            for k in range(1, rel.n + 1):
                if v in rel.ball(v, k):
                    best = min(best, k)
                    break
        assert rel.girth() == best

    @given(relations())
    def test_reverse_preserves_girth(self, rel):
        assert rel.girth() == rel.reverse().girth()
