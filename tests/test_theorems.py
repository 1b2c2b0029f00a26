import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relgrowth import (
    INFINITE,
    BugError,
    Relation,
    TransitivityCertificate,
    catalog_up_to_order,
    cayley_relation,
    check_ball_growth,
    check_girth_bound,
    check_lemma_powers,
    check_main_theorem,
    cyclic,
    dihedral,
    direct_product,
    growth_profile,
    is_point_transitive_brute,
    run_family,
    scan_girth_bound,
    shortest_zero_product_oracle,
    symmetric,
    zero_product_witness,
)
from relgrowth import groups, theorems
from relgrowth.cli import main
from relgrowth.fileio import write_relation
from relgrowth.theorems import GrowthProfile, subsets_of

from conftest import (
    SHARPNESS_CORPUS,
    oracle_corpus,
    random_relation,
    relations,
    sphere_bound_shifted,
)
from test_outputs import INPUTS

CAYLEY = TransitivityCertificate.cayley()


def reflexive_cycle(n):
    return Relation.from_edges(n, [(i, (i + 1) % n) for i in range(n)]).reflexive_closure()


class TestHypothesisWindow:
    def test_reflexive_seven_cycle(self):
        assert growth_profile(reflexive_cycle(7), 0).max_j == 5

    def test_circulant_z12(self):
        rel, _ = cayley_relation(cyclic(12), [0, 1, 2])
        assert growth_profile(rel, 0).max_j == 4

    def test_steps_image_only_the_newest_sphere(self, monkeypatch):
        # each step images the newest sphere, not the whole ball, so the
        # vertices imaged sum to about n, not about n^2 / 2
        n = 4000
        imaged = 0
        image_bits = theorems._image_bits

        def counted(succ, bits):
            nonlocal imaged
            imaged += bits.bit_count()
            if imaged > 2 * n:
                raise AssertionError(f"more than {2 * n} vertices imaged")
            return image_bits(succ, bits)

        monkeypatch.setattr(theorems, "_image_bits", counted)
        assert growth_profile(reflexive_cycle(n), 0).max_j == n - 2
        assert imaged <= 2 * n

    def test_identity_relation_caps_at_n(self):
        assert growth_profile(Relation.identity(6), 0).max_j == 6

    def test_involution_generators_close_window(self):
        group = direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(2))
        rel, _ = cayley_relation(group, [0, 1, 2, 4])
        # every generator is its own inverse, so the 1-ball already meets
        # the reverse image beyond the base vertex
        assert growth_profile(rel, 0).max_j == 0

    def test_requires_reflexive(self):
        with pytest.raises(ValueError, match="reflexive"):
            growth_profile(Relation.from_edges(3, [(0, 1), (1, 2), (2, 0)]), 0)

    def test_monotone_prefix(self):
        rel, _ = cayley_relation(cyclic(11), [0, 1, 3])
        window = growth_profile(rel, 0)
        rev = rel.reverse().ball(0, 1)
        for j in range(1, window.max_j + 1):
            assert rel.ball(0, j).bits & rev.bits == 1


@st.composite
def regular_reflexive(draw, max_n=9):
    """A reflexive relation with every out-degree r, each vertex's r - 1
    other successors drawn independently, so most are not transitive."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    r = draw(st.integers(min_value=1, max_value=n))
    edges = []
    for u in range(n):
        others = draw(st.permutations([v for v in range(n) if v != u]))
        edges += [(u, u)] + [(u, v) for v in others[: r - 1]]
    return Relation.from_edges(n, edges)


def naive_window(rel, v):
    rev = rel.reverse().ball(v, 1)
    max_j = 0
    for j in range(1, rel.n + 1):
        if rel.ball(v, j).bits & rev.bits != 1 << v:
            break
        max_j = j
    return max_j


class TestGrowthWalkOracle:
    """The one growth walk against balls recomputed radius by radius."""

    @settings(max_examples=150, deadline=None)
    @given(relations(min_n=1, max_n=9))
    def test_profile_matches_balls(self, rel):
        rel = rel.reflexive_closure()
        for v in range(rel.n):
            profile = growth_profile(rel, v)
            assert profile.max_j == naive_window(rel, v)
            assert list(profile.balls) == [
                rel.ball(v, j).bits for j in range(profile.max_j + 1)
            ]

    @settings(max_examples=150, deadline=None)
    @given(regular_reflexive())
    def test_records_match_naive(self, rel):
        r = rel.regular_degree()
        sizes = [len(rel.ball(0, j)) for j in range(naive_window(rel, 0) + 1)]
        main = [
            ("sphere-lower-bound", j, sizes[j] - sizes[j - 1], r - 1)
            for j in range(1, len(sizes))
        ]
        growth = [
            ("ball-lower-bound", j, size, 1 + (r - 1) * j)
            for j, size in enumerate(sizes)
        ]
        certificate = TransitivityCertificate.none()
        main_report = check_main_theorem(rel, certificate)
        growth_report = check_ball_growth(rel, certificate)
        assert [(c.claim, c.index, c.lhs, c.rhs) for c in main_report.checks] == main
        assert [(c.claim, c.index, c.lhs, c.rhs) for c in growth_report.checks] == growth

    def test_identity_stabilises_at_n(self):
        rel = Relation.identity(4)
        profile = growth_profile(rel, 2)
        # perfbench/tracing.py wraps the profile under this name
        assert theorems.hypothesis_window is growth_profile
        assert profile.max_j == 4 and profile.balls == (1 << 2,) * 5
        report = check_main_theorem(rel, CAYLEY)
        assert [(c.index, c.lhs, c.rhs) for c in report.checks] == [(j, 0, 0) for j in (1, 2, 3, 4)]


class TestMainTheorem:
    def test_reflexive_seven_cycle_tight(self):
        report = check_main_theorem(reflexive_cycle(7), CAYLEY)
        assert [c.index for c in report.checks] == [1, 2, 3, 4, 5]
        assert all(c.passed and c.tight for c in report.checks)

    def test_circulant_z12(self):
        rel, _ = cayley_relation(cyclic(12), [0, 1, 2])
        report = check_main_theorem(rel, CAYLEY)
        assert [(c.lhs, c.rhs) for c in report.checks] == [(2, 2)] * 4

    def test_sphere_ball_difference_consistent(self):
        rel, _ = cayley_relation(cyclic(13), [0, 1, 3])
        main = check_main_theorem(rel, CAYLEY)
        growth = check_ball_growth(rel, CAYLEY)
        balls = {c.index: c.lhs for c in growth.checks}
        for c in main.checks:
            assert c.lhs == balls[c.index] - balls[c.index - 1]

    def test_uncertified_flagged(self):
        report = check_main_theorem(
            reflexive_cycle(5), TransitivityCertificate.none()
        )
        assert "uncertified-transitivity" in report.caveats
        assert not (report.failures and not report.caveats)

    def test_fault_injection_bounds(self):
        rel = reflexive_cycle(7)
        with sphere_bound_shifted(-1):
            weak = check_main_theorem(rel, CAYLEY)
        with sphere_bound_shifted(1):
            strong = check_main_theorem(rel, CAYLEY)
        assert not weak.failures
        assert strong.failures  # r-1 is exact on the directed cycle


def ball_sizes_at_each_vertex(rel):
    """The ball sizes of each vertex's growth profile in the reflexive
    closure, as one set of tuples."""
    closure = rel.reflexive_closure()
    return {
        tuple(b.bit_count() for b in growth_profile(closure, v).balls) for v in range(rel.n)
    }


class TestVertexZeroSuffices:
    """Every check reads vertex 0 alone: an automorphism of a point-transitive
    relation takes vertex 0 to any vertex v, and vertex 0's balls to v's, so
    every vertex has vertex 0's ball sizes."""

    def test_reflexive_cayley_relations(self):
        count = 0
        for group in catalog_up_to_order(10):
            for gens in subsets_of(range(1, group.n)):
                rel, _ = cayley_relation(group, [0, *gens])
                assert len(ball_sizes_at_each_vertex(rel)) == 1, (group.name, gens)
                count += 1
        assert count == 2229

    def test_certified_oracle_corpus(self):
        certified = [rel for rel in oracle_corpus() if is_point_transitive_brute(rel)]
        assert len(certified) == 1051
        for rel in certified:
            assert len(ball_sizes_at_each_vertex(rel)) == 1, rel


class TestBallGrowth:
    def test_reflexive_seven_cycle(self):
        report = check_ball_growth(reflexive_cycle(7), CAYLEY)
        by_j = {c.index: c for c in report.checks}
        assert by_j[3].lhs == 4 and by_j[3].rhs == 4 and by_j[3].tight

    def test_circulant_z12_tight_at_window_end(self):
        rel, _ = cayley_relation(cyclic(12), [0, 1, 2])
        report = check_ball_growth(rel, CAYLEY)
        by_j = {c.index: c for c in report.checks}
        assert by_j[4].lhs == 9 and by_j[4].rhs == 9

    def test_radius_zero_always_tight(self):
        rel, _ = cayley_relation(cyclic(9), [0, 2, 3])
        report = check_ball_growth(rel, CAYLEY)
        assert report.checks[0].index == 0
        assert report.checks[0].lhs == 1 and report.checks[0].rhs == 1


PRIME_CIRCULANTS = [
    (p, gens) for p in (2, 3, 5, 7, 11, 13) for gens in subsets_of(range(1, p))
]


def is_progression(a, p):
    """Whether a subset of Z_p with 2 <= |a| < p is an arithmetic progression."""
    return any(
        {(x + i * d) % p for i in range(len(a))} == a for x in a for d in range(1, p)
    )


class TestAdditiveOracles:
    """Classical results on sumsets in Z_p as oracles for the reflexive
    circulants Cay(Z_p, S): with S0 = S + {0} and r = |S0|, the j-ball around
    0 is the j-fold sumset jS0."""

    def test_cauchy_davenport_all_radii(self):
        # |jS0| >= min(p, 1 + j(r - 1)) for every j, inside the hypothesis
        # window and past it, where the paper's theorem says nothing
        for p, gens in PRIME_CIRCULANTS:
            rel, _ = cayley_relation(cyclic(p), [0, *gens])
            s0 = {0, *gens}
            ball, sumset = rel.ball(0, 0), {0}
            for j in range(p + 1):
                assert set(ball) == sumset
                assert len(ball) >= min(p, 1 + j * (len(s0) - 1)), (p, gens, j)
                ball, sumset = rel.image(ball), {(x + s) % p for x in sumset for s in s0}

    def test_vosper_decides_tightness(self):
        # Vosper (1956): if |2S0| <= p - 2 then |2S0| = 2r - 1 exactly when
        # S0 is an arithmetic progression
        records = tight = 0
        for p, gens in PRIME_CIRCULANTS:
            rel, cert = cayley_relation(cyclic(p), [0, *gens])
            for c in check_ball_growth(rel, cert).checks:
                if c.claim == "ball-lower-bound" and c.index == 2 and c.lhs <= p - 2:
                    assert c.tight == is_progression({0, *gens}, p), (p, gens)
                    records += 1
                    tight += c.tight
        assert (records, tight) == (208, 94)


class TestGirthBound:
    def test_z7_tight(self):
        rel, _ = cayley_relation(cyclic(7), [1, 2])
        report = check_girth_bound(rel, CAYLEY)
        (check,) = report.checks
        assert report.witnesses["girth"] == 4
        assert check.lhs == 7 and check.rhs == 7 and check.tight

    def test_directed_cycles_tight(self):
        for n in (2, 3, 5, 9):
            rel = Relation.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
            report = check_girth_bound(rel, CAYLEY)
            (check,) = report.checks
            assert check.tight and report.witnesses["girth"] == n

    def test_z10_three_generators(self):
        rel, _ = cayley_relation(cyclic(10), [1, 2, 3])
        report = check_girth_bound(rel, CAYLEY)
        (check,) = report.checks
        g = report.witnesses["girth"]
        assert check.lhs == 10 and check.rhs == 1 + 3 * (g - 1) and check.passed

    def test_window_is_girth_minus_two_on_catalog(self):
        # point-transitivity puts vertex 0 on a shortest cycle, so the
        # two-sided window check holds on every certified instance
        checked = 0
        for group in catalog_up_to_order(10):
            for gens in subsets_of(range(1, group.n)):
                rel, cert = cayley_relation(group, gens)
                witnesses = check_girth_bound(rel, cert).witnesses
                assert witnesses["window_max_j"] == witnesses["girth"] - 2, (group.name, gens)
                checked += 1
        assert checked == 2229

    @staticmethod
    def assert_girth_is_least_window_plus_two(rel):
        # the paper's reduction needs no transitivity: a shortest cycle
        # through v closes the window around v at g - 2, and no window
        # closes earlier; with no cycle every window runs to n
        closure = rel.reflexive_closure()
        least = min(growth_profile(closure, v).max_j for v in range(rel.n))
        g = rel.girth()
        if g == INFINITE:
            assert least == rel.n
        else:
            assert least == g - 2 < rel.n

    @settings(max_examples=300, deadline=None)
    @given(relations(min_n=1, max_n=10))
    def test_girth_is_least_window_plus_two(self, rel):
        self.assert_girth_is_least_window_plus_two(rel.remove_loops())

    def test_girth_is_least_window_plus_two_on_sharpness_corpus(self):
        for rel in SHARPNESS_CORPUS:
            self.assert_girth_is_least_window_plus_two(rel)

    def test_loops_refused(self):
        with pytest.raises(ValueError, match="loopless"):
            check_girth_bound(reflexive_cycle(5), CAYLEY)

    def test_acyclic_skipped(self):
        empty = Relation(3, (0, 0, 0))
        report = check_girth_bound(empty, TransitivityCertificate.none())
        assert "acyclic" in report.caveats and not report.checks


class TestZeroProduct:
    def test_z10_pair(self):
        witness = zero_product_witness(cyclic(10), [3, 4])
        assert witness.k == 3 and witness.bound == 5
        assert sum(witness.sequence) % 10 == 0

    def test_single_generator_tight(self):
        witness = zero_product_witness(cyclic(6), [1])
        assert witness.sequence == (1,) * 6
        assert witness.k == witness.bound == 6

    def test_full_subset_inverse_pair(self):
        for group in (cyclic(5), dihedral(3), symmetric(3)):
            witness = zero_product_witness(group, range(1, group.n))
            assert witness.k == 2 and witness.bound == 2

    def test_identity_in_subset_refused(self):
        with pytest.raises(ValueError, match="identity"):
            zero_product_witness(cyclic(5), [0, 1])

    def test_empty_subset_refused(self):
        with pytest.raises(ValueError, match="nonempty"):
            zero_product_witness(cyclic(5), [])

    def test_witness_remultiplies_and_is_minimal(self):
        for group in (cyclic(12), dihedral(5), direct_product(cyclic(2), cyclic(4))):
            for gens in ([1], [1, 3], list(range(1, group.n, 2))):
                witness = zero_product_witness(group, gens)
                assert group.product(witness.sequence) == 0
                assert shortest_zero_product_oracle(group, gens, witness.k) == witness.k

    def test_one_search_for_girth_and_witness(self):
        # girth of loopless Cay(G, S) = shortest zero product, and the girth
        # bound n >= 1 + r(g - 1) is the bound k <= ceil(n / r)
        for group in catalog_up_to_order(10):
            for gens in subsets_of(range(1, group.n)):
                k = len(theorems._shortest_return(group, gens))
                assert zero_product_witness(group, gens).k == k
                assert cayley_relation(group, gens)[0].girth() == k
                n, r = group.n, len(gens)
                assert -(-n // r) == 1 + (n - 1) // r

    def test_noncommutative_order_matters(self):
        witness = zero_product_witness(symmetric(3), [1, 2, 3])
        assert witness.k <= witness.bound
        assert symmetric(3).product(witness.sequence) == 0


class TestLemmaPowers:
    def test_five_cycle_square(self):
        rel = Relation.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        report = check_lemma_powers(rel, 2)
        assert report.holds and report.automorphism_count == 5

    def test_circulant_cube(self):
        rel, _ = cayley_relation(cyclic(6), [1, 2])
        assert check_lemma_powers(rel, 3).holds

    def test_power_zero(self):
        rel = Relation.from_edges(4, [(i, (i + 1) % 4) for i in range(4)])
        assert check_lemma_powers(rel, 0).holds

    def test_matches_stored_automorphisms(self):
        # the reference stores every automorphism; the check streams them
        cases = [
            (cayley_relation(dihedral(3), [1, 3])[0], 2),
            (cayley_relation(cyclic(8), [1, 4])[0], 3),
            (Relation.from_edges(5, [(0, 1), (1, 2), (2, 0), (3, 4)]), 2),
            (Relation.from_edges(6, [(0, 1), (1, 0), (2, 3)]), 2),
            (Relation.identity(4), 5),
            (Relation(4, (0, 0, 0, 0)), 1),
        ]
        expected = []
        for rel, i in cases:
            autos = list(groups._automorphisms(rel))
            power = rel.power(i)
            preserve = all(
                power.succ[p[u]] >> p[v] & 1 for p in autos for u, v in power.edges()
            )
            orbit = groups.orbit_of_zero(autos, rel.n) == set(range(rel.n))
            expected.append((len(autos), preserve, orbit))
        for (rel, i), want in zip(cases, expected):
            report = check_lemma_powers(rel, i)
            assert (report.automorphism_count, report.all_preserve_power,
                    report.power_transitive) == want, rel
        assert expected[4] == (24, True, True) and not expected[2][2]
        # the empty relation has one automorphism, the empty permutation
        empty = check_lemma_powers(Relation(0, ()), 1)
        assert (empty.automorphism_count, empty.holds) == (1, True)


def reference_scan_girth_bound(group):
    """The per-set girth scan that the batched search replaced, kept as its
    reference: one `_shortest_return` search per inverse-free set."""
    n = group.n
    total = (1 << (n - 1)) - 1 if n > 1 else 0
    pairs = theorems._inverse_pairs(group)
    inverse_free = 3 ** len(pairs) - 1
    tight = 1 if n > 1 else 0
    failures = []
    choices = itertools.product((0, 1, 2), repeat=len(pairs))
    for choice in itertools.islice(choices, 1, None):  # the first is the empty set
        gens = tuple(sorted(p[c - 1] for p, c in zip(pairs, choice) if c))
        r = len(gens)
        g = len(theorems._shortest_return(group, gens))
        lhs, rhs = n, 1 + r * (g - 1)
        if lhs < rhs:
            failures.append(theorems.VerificationReport(
                "girth-scan",
                f"Cay({group.name},{list(gens)})",
                {"group": group.name, "gens": list(gens)},
                r,
                [theorems.CheckRecord("girth-order-bound", g, lhs, rhs)],
            ))
        elif lhs == rhs:
            tight += 1
    return theorems.GirthScanResult(
        group.name, n, total, total - inverse_free, inverse_free, tight, failures
    )


def members(mask):
    return tuple(g for g in range(mask.bit_length()) if mask >> g & 1)


# criterion 3's groups, one of order 64 (its masks use bit 63), and Z24,
# whose 177 146 inverse-free sets fill many blocks
Z2_CUBED = direct_product(cyclic(2), direct_product(cyclic(2), cyclic(2)))
ORDER_64 = direct_product(dihedral(4), Z2_CUBED)
SCAN_CORPUS = [
    g for g in [*catalog_up_to_order(16), symmetric(4), ORDER_64, cyclic(24)] if g.n >= 2
]


class TestGirthScan:
    def test_matches_per_instance_checker_small_groups(self):
        for group in (cyclic(6), cyclic(7), dihedral(3),
                      direct_product(cyclic(2), cyclic(4))):
            scan = scan_girth_bound(group)
            assert scan.ok
            brute_tight = 0
            for gens in subsets_of(range(1, group.n)):
                rel, cert = cayley_relation(group, gens)
                report = check_girth_bound(rel, cert)
                assert not report.failures
                if report.checks and report.checks[0].tight:
                    brute_tight += 1
            assert scan.total_subsets == (1 << (group.n - 1)) - 1
            assert scan.tight_subsets == brute_tight

    @pytest.mark.parametrize("group", SCAN_CORPUS, ids=lambda g: g.name)
    def test_batched_matches_reference(self, group, monkeypatch):
        # every field equals the per-set reference's, and every set's window
        # end plus 2 is its shortest return, whose sequence the witness
        # rebuild reads off the same balls; the kernel sees each set once
        seen = []
        kernel = theorems._block_windows
        mul = np.array(group.table)

        def recorded(translates):
            ends, layers = kernel(translates)
            masks = translates[0] ^ 1  # the translate of the identity is S + {e}
            witnesses = theorems._block_witnesses(
                mul, masks, ends, theorems._ball_matrix(ends, layers))
            seen.extend(zip(masks.tolist(), (ends + 2).tolist(), witnesses.tolist()))
            return ends, layers

        monkeypatch.setattr(theorems, "_block_windows", recorded)
        assert scan_girth_bound(group) == reference_scan_girth_bound(group)
        assert len({mask for mask, _, _ in seen}) == len(seen) == 3 ** len(
            theorems._inverse_pairs(group)) - 1
        for mask, girth, witness in seen:
            shortest = theorems._shortest_return(group, members(mask))
            assert girth == len(shortest), mask
            assert witness[:girth] == shortest, mask

    def test_corpus_reaches_bit_63_and_block_boundaries(self, monkeypatch):
        calls = []
        kernel = theorems._block_windows
        monkeypatch.setattr(theorems, "_block_windows",
                            lambda translates: calls.append(translates) or kernel(translates))
        scan_girth_bound(ORDER_64)
        assert ORDER_64.n == 64 and len(theorems._inverse_pairs(ORDER_64)) == 8
        assert any(int(t[:-1].max()) >> 63 for t in calls)
        calls.clear()
        # a block holds the 3^6 choices of the last six of Z24's 11 pairs
        assert 3 ** 6 <= theorems._BLOCK_SETS < 3 ** 7
        scan = scan_girth_bound(cyclic(24))
        assert scan.scanned_subsets == 3 ** 11 - 1 > 3 ** 6
        assert len(calls) == 3 ** 5
        assert [t.shape for t in calls[:2]] == [(25, 3 ** 6 - 1), (25, 3 ** 6)]

    def test_counts_partition(self):
        scan = scan_girth_bound(symmetric(3))
        assert scan.girth_two_subsets + scan.scanned_subsets == scan.total_subsets

    def test_refused_above_instance_bound(self, monkeypatch):
        # Z12 has five inverse pairs, so 3^5 - 1 = 242 inverse-free sets
        monkeypatch.setattr(theorems, "MAX_ENUMERATED_INSTANCES", 100)
        with pytest.raises(ValueError, match="Z12 refused: 242 generator sets"):
            scan_girth_bound(cyclic(12))

    def test_refused_above_order_64_with_inverse_pair(self, monkeypatch, capsys):
        # the masks hold 64 elements; D33 (order 66, 16 pairs) is refused
        # before any array is built, here even with the set bound lifted
        monkeypatch.setattr(theorems, "MAX_ENUMERATED_INSTANCES", 10**9)
        monkeypatch.setattr(theorems, "np", None)
        with pytest.raises(ValueError, match="^girth scan of D33 refused: order 66 exceeds 64$"):
            scan_girth_bound(dihedral(33))
        assert main(["verify", "cayley_dihedral", "--max-m", "33", "--checks", "girth"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: girth scan of D33 refused: order 66 exceeds 64\n"

    def test_no_pairs_above_order_64_still_scans(self):
        group = cyclic(2)
        for _ in range(6):
            group = direct_product(group, cyclic(2))
        scan = scan_girth_bound(group)
        assert (scan.order, scan.scanned_subsets, scan.tight_subsets, scan.failures) == (
            128, 0, 1, [])
        assert scan.girth_two_subsets == scan.total_subsets == 2**127 - 1


def lengthened(kernel):
    """The kernel with 5 added to the window end, so to the girth, of every
    set holding element 1."""
    def windows(translates):
        ends, layers = kernel(translates)
        return ends + 5 * (translates[0] >> 1 & 1).astype(np.int64), layers
    return windows


class TestGirthScanFailures:
    """No valid scan fails, so these inject longer girths into the kernel."""

    def test_records_match_reference(self, monkeypatch):
        shortest = theorems._shortest_return
        monkeypatch.setattr(theorems, "_block_windows", lengthened(theorems._block_windows))
        scan = scan_girth_bound(cyclic(7))
        monkeypatch.setattr(theorems, "_shortest_return", lambda group, gens: shortest(
            group, gens) + [0] * (5 if 1 in gens else 0))
        assert scan == reference_scan_girth_bound(cyclic(7))
        # the 9 sets holding 1, in product order, all fail
        assert [f.params["gens"] for f in scan.failures] == [
            [1], [1, 3], [1, 4], [1, 2], [1, 2, 3], [1, 2, 4], [1, 5], [1, 3, 5], [1, 4, 5]]
        (record,) = [f for f in scan.failures if f.descriptor == "Cay(Z7,[1, 2])"]
        assert record.to_dict() == {
            "family": "girth-scan", "instance": "Cay(Z7,[1, 2])",
            "params": {"group": "Z7", "gens": [1, 2]}, "r": 2,
            "checks": [{"claim": "girth-order-bound", "index": 9, "lhs": 7, "rhs": 17,
                        "pass": False, "tight": False}],
            "witnesses": {}, "caveats": [],
        }
        (check,) = record.checks
        values = [record.r, check.index, check.lhs, check.rhs, *record.params["gens"]]
        assert all(type(v) is int for v in values)

    def test_cli_exits_one_with_readable_report(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(theorems, "_block_windows", lengthened(theorems._block_windows))
        path = tmp_path / "girth.ndjson"
        code = main(["verify", "circulants", "--max-n", "7", "--checks", "girth",
                     "--report", str(path)])
        assert code == 1 and capsys.readouterr().err == ""
        records = [json.loads(line) for line in path.read_text().splitlines()]
        expected = [f.to_dict() for n in range(2, 8) for f in scan_girth_bound(cyclic(n)).failures]
        assert records == expected and len(records) == 1 + 1 + 3 + 3 + 9

    def test_window_that_never_closes_is_a_bug(self, monkeypatch):
        # a column whose T^-1 is only the identity never closes, as a set
        # whose girth exceeds n would not: that is a fault, not a record
        kernel = theorems._block_windows

        def opened(translates):
            translates = translates.copy()
            translates[-1, 0] = 1
            ends, layers = kernel(translates)
            assert ends[0] == len(translates) - 1 and (ends[1:] < ends[0]).all()
            return ends, layers

        monkeypatch.setattr(theorems, "_block_windows", opened)
        with pytest.raises(BugError, match="^identity unreachable over 1 generator sets$"):
            scan_girth_bound(cyclic(7))


def reference_summarize(instances):
    """The multi-pass summary that the one-pass `_summarize` replaced, kept
    as its reference (for runs without a girth scan)."""
    reports = [r for instance in instances for r in instance]
    tight_instances = 0
    for r in reports:
        growth = [c for c in r.checks if c.claim == "ball-lower-bound" and c.index >= 1]
        if growth and all(c.tight for c in growth) and growth[-1].index >= 2:
            tight_instances += 1
    return {
        "instances": sum(1 for instance in instances if instance),
        "checks": sum(len(r.checks) for r in reports),
        "failures": sum(len(r.failures) for r in reports),
        "bugs": sum(len(r.failures) for r in reports if r.failures and not r.caveats),
        "caveated_instances": sum(1 for i in instances if any(r.caveats for r in i)),
        "tight_checks": sum(1 for r in reports for c in r.checks if c.tight and c.passed),
        "tight_growth_instances": tight_instances,
        "girth_scan_groups": 0,
        "girth_scan_subsets": 0,
        "girth_scan_tight_subsets": 0,
    }


def ball_sizes(ends, balls):
    """Each column's ball sizes |B_0|, ..., |B_end| from `_ball_matrix`."""
    sizes = np.bitwise_count(balls).T.tolist()
    return [tuple(s[: end + 1]) for s, end in zip(sizes, ends.tolist())]


# every group of order 2..12; the order-12 groups fill two walk blocks
BALL_CORPUS = [g for g in catalog_up_to_order(12) if g.n >= 2]


def reference_zero_product_report(group, gens, family):
    """The per-set zero-product report that the walk's witnesses replaced,
    kept as their reference: one `zero_product_witness` search
    (`_shortest_return`) per set."""
    witness = zero_product_witness(group, gens)
    return theorems.VerificationReport(
        family, f"Cay({group.name},{list(gens)})", {"group": group.name, "gens": list(gens)},
        len(gens),
        [theorems.CheckRecord("zero-product-bound", witness.k, witness.bound, witness.k)],
        {"sequence": list(witness.sequence)},
    )


class TestBallWalk:
    """The batched walk of the built-in families against the route it
    replaced: one Cayley relation per generator set through
    `_instance_reports`, with one growth profile at vertex 0, and one
    `_shortest_return` search per set for its zero-product witness."""

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_reports_match_per_set_route(self, monkeypatch, delta):
        monkeypatch.setattr(theorems, "_family_groups", lambda family, params: BALL_CORPUS)
        with sphere_bound_shifted(delta):
            run = run_family("circulants", checks=("main", "growth", "zerosum"))
            expected = [
                [
                    *theorems._instance_reports(
                        *cayley_relation(group, gens),
                        f"Cay({group.name},{list(gens)})", "circulants",
                        {"group": group.name, "gens": list(gens)}, ("main", "growth"),
                    ),
                    reference_zero_product_report(group, gens, "circulants"),
                ]
                for group in BALL_CORPUS
                for gens in subsets_of(range(1, group.n))
            ]
        assert run.reports == [r for instance in expected for r in instance]
        assert run.summary == reference_summarize(expected)
        assert (run.summary["failures"] > 0) == (delta == 1)

    def test_window_ends_at_girth_minus_two(self):
        # the walk ends each window by the hypothesis, not from the girth;
        # the reduction to the ball bound says where that must be; the
        # members read off the walk's masks come in `subsets_of` order
        for group in BALL_CORPUS:
            windows = [
                window
                for masks, ends, balls in theorems._subset_windows(group)
                for window in zip(theorems._members(masks, group.n), ball_sizes(ends, balls))
            ]
            assert [tuple(gens) for gens, _ in windows] == list(subsets_of(range(1, group.n)))
            for gens, sizes in windows:
                girth = len(theorems._shortest_return(group, gens))
                assert len(sizes) - 1 == girth - 2, (group.name, gens)

    def test_kernel_is_growth_profile_at_vertex_zero(self):
        # the kernel reads any reflexive relations, given as each vertex's
        # successor mask and the reverse image of 0; sparse random ones
        # reach the stable ball that no Cayley set with S nonempty reaches
        rng = random.Random(14)
        rels = [random_relation(rng, 7, (0.1, 0.2, 0.4)[i % 3]).reflexive_closure()
                for i in range(300)]
        rels.append(Relation.identity(7))
        translates = np.array([rel.succ for rel in rels], dtype=np.uint64).T
        inverses = np.array([rel.reverse().succ[0] for rel in rels], dtype=np.uint64)
        expected = [tuple(b.bit_count() for b in growth_profile(rel, 0).balls) for rel in rels]
        table = np.vstack([translates, inverses])
        ends, layers = theorems._block_windows(table)
        assert ball_sizes(ends, theorems._ball_matrix(ends, layers)) == expected
        assert expected[-1] == (1,) * 8
        assert any(len(sizes) == 8 and sizes[-1] > 1 for sizes in expected)

    def test_blocks_bound_the_arrays(self, monkeypatch):
        shapes = []
        kernel = theorems._block_windows
        monkeypatch.setattr(theorems, "_block_windows",
                            lambda t: shapes.append(t.shape) or kernel(t))
        assert sum(len(masks) for masks, _, _ in theorems._subset_windows(cyclic(14))) == 2**13 - 1
        # 14 translate rows and the row of T^-1, 2^10 sets to a block
        assert shapes == [(15, 2**10 - 1)] + [(15, 2**10)] * 7


def test_summary_matches_reference_on_crafted_reports():
    # records no valid instance gives: a loose ball then a tight one, and
    # failures with and without a caveat
    ball, sphere = "ball-lower-bound", "sphere-lower-bound"

    def report(records, caveats=()):
        checks = [theorems.CheckRecord(*c) for c in records]
        return theorems.VerificationReport("f", "x", {}, 2, checks, caveats=caveats)

    instances = [
        [report([(ball, 0, 1, 1), (ball, 1, 3, 3), (ball, 2, 6, 5), (ball, 3, 7, 7)])],
        [report([(ball, 0, 1, 1), (ball, 1, 3, 3), (ball, 2, 5, 5)]),
         report([(sphere, 1, 1, 2), (sphere, 2, 2, 2)])],
        [report([(ball, 1, 3, 3)]),
         report([(sphere, 1, 0, 1)], caveats=("uncertified-transitivity",))],
        [],
    ]
    summary = theorems._summarize(
        [(1, [(r.checks, r.caveats) for r in instance]) for instance in instances], [])
    assert summary == reference_summarize(instances)
    assert (summary["bugs"], summary["failures"], summary["tight_growth_instances"]) == (1, 2, 1)


class TestRunFamily:
    def test_circulants_clean(self):
        run = run_family("circulants", max_n=6)
        assert run.ok
        assert run.summary["failures"] == 0
        # one instance per generator set, not one per report
        assert run.summary["instances"] == 57 and run.summary["girth_scan_groups"] == 5

    def test_cayley_abelian_clean(self):
        run = run_family("cayley_abelian", max_order=8, checks=("main", "zerosum"))
        assert run.ok

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            run_family("octonions")

    def test_instance_cap(self, monkeypatch):
        # 2047 generator sets up to Z_12
        monkeypatch.setattr(theorems, "MAX_ENUMERATED_INSTANCES", 1000)
        with pytest.raises(ValueError, match="exceeds 1000 enumerated"):
            run_family("circulants", max_n=12, checks=("main",))

    def test_oversized_family_refused_before_any_scan(self, monkeypatch):
        # Z11 is the first circulant with more than 100 inverse-free sets
        monkeypatch.setattr(theorems, "MAX_ENUMERATED_INSTANCES", 100)
        scanned = []
        scan = theorems.scan_girth_bound
        monkeypatch.setattr(
            theorems, "scan_girth_bound", lambda group: scanned.append(group.name) or scan(group)
        )
        with pytest.raises(ValueError, match="girth scan of Z11 refused"):
            run_family("circulants", max_n=12, checks=("girth",))
        assert scanned == []

    @pytest.mark.parametrize(
        "family, option, builder, checks, built, error",
        [
            # D10 (2^19 - 1 sets) takes the per-subset count past 200 000,
            # D25 is the first with more than 200 000 inverse-free sets
            ("cayley_dihedral", "--max-m", "dihedral", "all", 10,
             "family cayley_dihedral exceeds 200000 enumerated instances"),
            ("cayley_dihedral", "--max-m", "dihedral", "girth", 25,
             "girth scan of D25 refused: 531440 generator sets exceed 200000"),
            ("cayley_abelian", "--max-order", "abelian_groups", "all", 17,
             "family cayley_abelian exceeds 200000 enumerated instances"),
            ("cayley_abelian", "--max-order", "abelian_groups", "girth", 25,
             "girth scan of Z5xZ5 refused: 531440 generator sets exceed 200000"),
        ],
    )
    def test_oversized_family_built_only_to_first_group_over(
        self, monkeypatch, capsys, family, option, builder, checks, built, error
    ):
        calls = []
        build = getattr(theorems, builder)
        monkeypatch.setattr(theorems, builder, lambda k: calls.append(k) or build(k))
        assert main(["verify", family, option, "240", "--checks", checks]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")
        assert calls[-1] == built and calls == sorted(set(calls))

    def test_builders_match_catalog(self):
        build = theorems.FAMILIES["cayley_abelian"][1]
        for k in (8, 16, 30):
            # the commutative catalog tables: those equal to their transpose
            expected = [
                g for g in catalog_up_to_order(k) if g.n > 1 and g.table == tuple(zip(*g.table))
            ]
            assert [(g.name, g.table) for g in build(k)] == [
                (g.name, g.table) for g in expected
            ]
        dihedral_groups = [dihedral(m) for m in range(1, 7)]
        assert list(theorems.FAMILIES["cayley_dihedral"][1](6)) == dihedral_groups

    def test_unknown_check(self):
        with pytest.raises(ValueError, match="unknown check"):
            run_family("circulants", max_n=4, checks=("mane",))

    def test_from_files_nontransitive_caveated(self, tmp_path):
        from relgrowth.fileio import write_relation

        path = tmp_path / "chain.rel"
        write_relation(path, Relation.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]))
        run = run_family("from_files", files=[str(path)], checks=("main", "growth"))
        assert run.ok  # violations on uncertified instances are not bugs
        assert run.summary["caveated_instances"] == 1  # one file

    def test_girth_only_walks_no_subsets(self, monkeypatch):
        def refuse(elements):
            raise AssertionError("a girth-only run walked generator subsets")

        monkeypatch.setattr(theorems, "subsets_of", refuse)
        monkeypatch.setattr(theorems, "_subset_windows", refuse)
        run = run_family("circulants", max_n=8, checks=("girth",))
        assert run.ok and run.summary["instances"] == 0
        assert run.summary["girth_scan_subsets"] == 247

    def test_family_run_builds_no_relation_per_set(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a family run built a relation for a generator set")

        monkeypatch.setattr(theorems, "cayley_relation", refuse)
        monkeypatch.setattr(theorems, "growth_profile", refuse)
        run = run_family("circulants", max_n=8)
        assert run.ok and run.summary["instances"] == 247
        assert run.summary["girth_scan_subsets"] == 247

    def test_determinism(self):
        first = run_family("circulants", max_n=5)
        second = run_family("circulants", max_n=5)
        assert [r.to_dict() for r in first.reports] == [
            r.to_dict() for r in second.reports
        ]

    def test_from_files_one_profile_per_file(self, tmp_path, monkeypatch):
        # the girth window is read from the profile the sphere checks walked
        paths = []
        for gens in subsets_of(range(1, 5)):
            paths.append(str(tmp_path / f"z5_{len(paths)}.rel"))
            write_relation(paths[-1], cayley_relation(cyclic(5), gens)[0])
        calls = []
        monkeypatch.setattr(
            theorems, "growth_profile", lambda rel, v: calls.append(v) or growth_profile(rel, v)
        )
        assert main(["verify", "from_files", "--files", *paths]) == 0
        assert calls == [0] * len(paths)
        # a girth-only run walks vertex 0 once per cyclic file, and never
        # on an acyclic one; a regular acyclic relation has no arcs
        calls.clear()
        assert main(["verify", "from_files", "--files", *paths, "--checks", "girth"]) == 0
        assert calls == [0] * len(paths)
        calls.clear()
        acyclic = str(tmp_path / "arcfree.rel")
        write_relation(acyclic, Relation.from_edges(3, []))
        assert main(["verify", "from_files", "--files", acyclic, "--checks", "girth"]) == 0
        assert calls == []


def last_term_identity(mul, masks, ends, balls, rebuild=theorems._block_witnesses):
    """The witness rebuild with each witness's last term replaced by the
    identity, so that no witness multiplies to the identity."""
    witnesses = rebuild(mul, masks, ends, balls)
    witnesses[np.arange(len(ends)), ends + 1] = 0
    return witnesses


class TestBugRoutes:
    """The two inconsistencies a run reports as bugs rather than as
    failed checks of a bound."""

    def test_witness_not_identity(self, monkeypatch):
        monkeypatch.setattr(theorems, "_block_witnesses", last_term_identity)
        run = run_family("circulants", max_n=5, checks=("zerosum",))
        record = run.reports[0].to_dict()
        assert record["checks"] == [
            {"claim": "zero-product-bound", "index": 0, "lhs": -1, "rhs": 0,
             "pass": False, "tight": False}
        ]
        assert "does not multiply to the identity" in record["witnesses"]["error"]
        assert run.summary["bugs"] >= 1 and not run.ok
        assert main(["verify", "circulants", "--max-n", "5", "--checks", "zerosum"]) == 1

    def test_girth_window_below_reduction(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "c5.rel"
        cycle = Relation.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        write_relation(path, cycle)
        monkeypatch.setattr(theorems, "growth_profile", lambda rel, v: GrowthProfile((1 << v,)))
        assert main(["verify", "from_files", "--files", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"BUG: {path}: reflexive-closure window 0 below g-2=3\n"
        with pytest.raises(BugError, match="^relation: reflexive-closure window 0"):
            check_girth_bound(cycle, CAYLEY)

    def test_girth_window_above_reduction(self, tmp_path, monkeypatch, capsys):
        # a g-cycle through vertex 0 ends the window at g - 2; one step
        # more is as much a bug as one step less
        path = tmp_path / "c5.rel"
        cycle = Relation.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        write_relation(path, cycle)
        monkeypatch.setattr(
            theorems, "growth_profile",
            lambda rel, v: GrowthProfile(tuple(rel.ball(v, j).bits for j in range(5))),
        )
        assert main(["verify", "from_files", "--files", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"BUG: {path}: reflexive-closure window 4 above g-2=3\n"


def report_lines(run):
    """One `json.dumps(report.to_dict(), sort_keys=True)` per report, the
    per-set reports first, then the girth-scan failures: what `verify
    --report` wrote before its writer encoded each class's checks once."""
    reports = [*run.reports, *(f for scan in run.girth_scans for f in scan.failures)]
    return [json.dumps(r.to_dict(), sort_keys=True) for r in reports]


# the relation files of the `from_files` output digests
REPORT_FILES = {
    **INPUTS,
    **{f"circ_n7_S{'_'.join(map(str, gens))}.rel": cayley_relation(cyclic(7), gens)[0]
       for gens in [(1,), (1, 6), (1, 2, 4)]},
}


class TestReportLines:
    """The NDJSON writer splices each line from encoded parts; every line
    must still read as its report's `to_dict`, byte for byte."""

    @pytest.mark.parametrize("family, option, size", [
        ("circulants", "--max-n", 11), ("circulants", "--max-n", 9),
        ("cayley_dihedral", "--max-m", 5), ("cayley_abelian", "--max-order", 10),
        ("cayley_symmetric", "--m", 3),
    ])
    def test_built_in_families(self, tmp_path, family, option, size):
        path = tmp_path / "report.ndjson"
        assert main(["verify", family, option, str(size), "--report", str(path)]) == 0
        run = run_family(family, **{theorems.FAMILIES[family][0]: size})
        assert path.read_text().splitlines() == report_lines(run)

    @pytest.mark.parametrize("files", [
        ["circ_n7_S1.rel", "circ_n7_S1_6.rel", "circ_n7_S1_2_4.rel"],
        ["sharp6.rel"], ["nonregular.rel"], ["arcfree.rel"],
    ])
    def test_from_files(self, tmp_path, monkeypatch, files):
        monkeypatch.chdir(tmp_path)
        for name in files:
            write_relation(name, REPORT_FILES[name])
        assert main(["verify", "from_files", "--files", *files, "--report", "r.ndjson"]) == 0
        run = run_family("from_files", files=files)
        lines = (tmp_path / "r.ndjson").read_text().splitlines()
        assert lines == report_lines(run) and len(lines) == 3 * len(files)

    def test_girth_scan_failures_and_witness_errors(self, tmp_path, monkeypatch):
        # longer girths fail the girth scan, and no witness multiplies to
        # the identity
        monkeypatch.setattr(theorems, "_block_windows", lengthened(theorems._block_windows))
        monkeypatch.setattr(theorems, "_block_witnesses", last_term_identity)
        path = tmp_path / "report.ndjson"
        assert main(["verify", "circulants", "--max-n", "7", "--checks", "girth,zerosum",
                     "--report", str(path)]) == 1
        run = run_family("circulants", max_n=7, checks=("girth", "zerosum"))
        lines = path.read_text().splitlines()
        assert lines == report_lines(run)
        assert sum('"family": "girth-scan"' in line for line in lines) == 17
        assert sum('"witnesses": {"error": ' in line for line in lines) == 120

    def test_failed_sphere_records(self, tmp_path):
        path = tmp_path / "report.ndjson"
        with sphere_bound_shifted(1):
            assert main(["verify", "circulants", "--max-n", "7", "--report", str(path)]) == 1
            run = run_family("circulants", max_n=7)
        lines = path.read_text().splitlines()
        assert lines == report_lines(run)
        assert run.summary["failures"] > 0 and any('"pass": false' in line for line in lines)
