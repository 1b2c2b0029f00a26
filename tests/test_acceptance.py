"""Acceptance criteria, one test per criterion, exact tolerances.

Each test prints a single PASS line on success; a failed assertion is the
FAIL signal.  Criteria 1-4 and 7 exercise the theorem-as-oracle harness,
5-6 the connectivity machinery, 8 the fault-injection sensitivity of the
sphere bound: it shifts the bound through `conftest.sphere_bound_shifted`.
"""

import pytest

from relgrowth import (
    Relation,
    cayley_relation,
    catalog_up_to_order,
    check_atom_disjointness,
    check_girth_bound,
    check_proposition_basic,
    cyclic,
    kappa,
    run_family,
    scan_girth_bound,
    shortest_zero_product_oracle,
    symmetric,
    zero_product_witness,
)
from relgrowth.connectivity import atoms_oracle
from relgrowth.groups import TransitivityCertificate
from relgrowth.theorems import subsets_of

from conftest import oracle_corpus, sphere_bound_shifted


def report(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


@pytest.fixture(scope="module")
def circulants_14():
    # all Cay(Z_n, S), 2 <= n <= 14, every nonempty S, reflexive closure
    return run_family("circulants", max_n=14, checks=("main", "growth"))


def test_criterion_1_sphere_bound_suite(circulants_14):
    run = circulants_14
    main_checks = [
        c
        for r in run.reports
        for c in r.checks
        if c.claim == "sphere-lower-bound"
    ]
    assert main_checks, "no sphere checks ran"
    assert all(c.passed for c in main_checks)
    assert run.summary["bugs"] == 0
    report("1 (sphere lower bound, circulants n<=14)")


def test_criterion_2_ball_growth_suite(circulants_14):
    run = circulants_14
    growth_checks = [
        c for r in run.reports for c in r.checks if c.claim == "ball-lower-bound"
    ]
    assert growth_checks and all(c.passed for c in growth_checks)
    assert run.summary["tight_growth_instances"] >= 50
    report("2 (ball growth bound + >=50 tight instances)")


def test_criterion_3_girth_bound_catalog():
    groups = [*catalog_up_to_order(16), symmetric(4)]
    scans = [scan_girth_bound(g) for g in groups if g.n >= 2]
    assert all(s.ok for s in scans), [s.failures for s in scans if not s.ok]
    total = sum(s.total_subsets for s in scans)
    assert total == sum((1 << (g.n - 1)) - 1 for g in groups if g.n >= 2)
    report(f"3 (girth bound, {len(scans)} groups, {total} subsets)")


def test_criterion_4_zero_product_suite():
    confirmed = instances = 0
    for group in catalog_up_to_order(12):
        if group.n < 2:
            continue
        for gens in subsets_of(range(1, group.n)):
            witness = zero_product_witness(group, gens)
            instances += 1
            assert witness.k <= witness.bound
            assert group.product(witness.sequence) == group.identity
            if len(gens) ** witness.k <= 10**6:
                assert shortest_zero_product_oracle(group, gens, witness.k) == witness.k
                confirmed += 1
    report(f"4 (zero-product witnesses, {instances} instances, {confirmed} oracle-confirmed)")


def test_criterion_5_connectivity_oracle_equivalence():
    def agree(rel):
        flow = kappa(rel)
        value, atoms = atoms_oracle(rel)
        assert flow.kappa == value, rel
        assert {a.set.bits for a in flow.atoms} == {a.set.bits for a in atoms}, rel

    checked = 0
    for rel in oracle_corpus():
        agree(rel)
        checked += 1
    report(f"5 (flow/oracle kappa and atom equivalence, {checked} relations)")


def test_criterion_6_proposition_properties():
    pool = []
    seen = set()
    for n in range(2, 13):
        pool.append((cyclic(n), None))
    for group in catalog_up_to_order(12):
        if group.n >= 2:
            pool.append((group, None))
    applicable = 0
    for group, _ in pool:
        if group.table in seen:
            continue
        seen.add(group.table)
        for gens in subsets_of(range(1, group.n)):
            rel, _ = cayley_relation(group, gens)
            prop = check_proposition_basic(rel, certified=True, engine="oracle")
            if not prop.applicable:
                continue
            applicable += 1
            assert prop.size_within_kappa, (group.name, gens)
            assert prop.induced_transitive, (group.name, gens)
            assert check_atom_disjointness(rel, engine="oracle").holds, (group.name, gens)
    assert applicable > 0
    report(f"6 (atom-size and disjointness properties, {applicable} applicable instances)")


def test_criterion_7_tightness_z7():
    rel, cert = cayley_relation(cyclic(7), [1, 2])
    assert rel.girth() == 4
    assert rel.regular_degree() == 2
    result = check_girth_bound(rel, cert)
    (check,) = result.checks
    assert result.witnesses["girth"] == 4
    assert check.lhs == 7 and check.rhs == 1 + 2 * (4 - 1) == 7 and check.tight
    report("7 (Cay(Z7,{1,2}) equality case g=4, r=2, n=7)")


def test_criterion_8_fault_injection_sensitivity():
    with sphere_bound_shifted(-1):
        weakened = run_family("circulants", max_n=10, checks=("main",))
    assert weakened.summary["bugs"] == 0 and weakened.summary["failures"] == 0
    with sphere_bound_shifted(1):
        strengthened = run_family("circulants", max_n=10, checks=("main",))
    assert strengthened.summary["failures"] >= 1
    # the failing instances must include a tight one at the true bound
    exact = run_family("circulants", max_n=10, checks=("main",))
    assert exact.summary["bugs"] == 0
    assert any(
        c.tight for r in exact.reports for c in r.checks if c.claim == "sphere-lower-bound"
    )
    report("8 (bound r-2 passes, bound r fails: constant r-1 is exact)")
