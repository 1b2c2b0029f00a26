"""Each checker accepts the program's real output and rejects it corrupted.

    python3 -m pytest perfbench/tests -q
"""

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE.parent)]

import checks  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def random_rel(tmp_path):
    succ = workloads.random_relation(random.Random(7), 20, 3)
    path = tmp_path / "r.rel"
    workloads.write_lines(path, [20] + [f"{u} {w}" for u, ws in enumerate(succ) for w in ws])
    return str(path), succ


def test_kappa_off_by_one_rejected(random_rel):
    path, succ = random_rel
    code, out = workloads.run_cli(["kappa", path])
    assert code == 0 and checks.check_kappa_output(out, succ) == []
    k = checks.parse_kappa_output(out)["kappa"]
    for wrong in (k - 1, k + 1):
        bad = out.replace(f"kappa = {k}\n", f"kappa = {wrong}\n", 1)
        assert checks.check_kappa_output(bad, succ)


def test_flow_kappa_off_by_one_rejected():
    table = checks.cyclic_table(20)
    group = workloads.groups.group_from_table(table, "Z20")
    out = workloads.flow_instance(group, (1, 5, 10), 3)
    assert checks.check_flow_instance(table, (1, 5, 10), out) == []
    assert checks.check_flow_instance(table, (1, 5, 10), {**out, "kappa": out["kappa"] + 1})
    assert checks.check_flow_instance(table, (1, 5, 10), {**out, "kappa": out["kappa"] - 1})


def test_sphere_size_off_by_one_rejected(random_rel):
    path, succ = random_rel
    code, out = workloads.run_cli(["spheres", path, "-v", "2", "--j-max", "5"])
    assert code == 0 and checks.check_spheres(out, succ, 2, 5) == []
    lines = out.splitlines()
    j, ball, sphere = lines[3].split("\t")
    lines[3] = "\t".join((j, ball, str(int(sphere) + 1)))
    assert checks.check_spheres("\n".join(lines) + "\n", succ, 2, 5)


def _report(tmp_path, family, flag, size):
    report = tmp_path / "out.ndjson"
    code, out = workloads.run_cli(["verify", family, flag, str(size), "--report", str(report)])
    assert code == 0
    return out, report.read_text()


def test_report_sphere_size_off_by_one_rejected(tmp_path):
    out, text = _report(tmp_path, "cayley_dihedral", "--max-m", 4)
    params = {"max_m": 4}
    assert checks.check_cayley_report(text, "cayley_dihedral", params, out) == []
    records = [json.loads(line) for line in text.splitlines()]
    target = next(r for r in records if any(c["claim"] == "sphere-lower-bound" for c in r["checks"]))
    target["checks"][0]["lhs"] += 1
    bad = "".join(json.dumps(r) + "\n" for r in records)
    assert checks.check_cayley_report(bad, "cayley_dihedral", params, out)


def test_witness_off_identity_rejected(tmp_path):
    out, text = _report(tmp_path, "circulants", "--max-n", 7)
    params = {"max_n": 7}
    assert checks.check_cayley_report(text, "circulants", params, out) == []
    records = [json.loads(line) for line in text.splitlines()]
    target = next(r for r in records if len(r["witnesses"].get("sequence", [])) >= 2)
    seq = target["witnesses"]["sequence"]
    table = checks.table_for_name(target["params"]["group"])
    assert checks.product(table, seq) == 0
    target["witnesses"]["sequence"] = seq[:-1] + [seq[0]] if seq[-1] != seq[0] else seq[1:]
    assert checks.product(table, target["witnesses"]["sequence"]) != 0
    bad = "".join(json.dumps(r) + "\n" for r in records)
    assert any("does not multiply" in e for e in checks.check_cayley_report(
        bad, "circulants", params, out))


def test_zerosum_witness_off_identity_rejected():
    table = checks.cyclic_table(12)
    assert checks.check_zero_product(table, [5, 7], 2, 6, [5, 7]) == []
    assert checks.check_zero_product(table, [5, 7], 2, 6, [5, 5])
    assert checks.check_zero_product(table, [5, 7], 3, 6, [5, 7])


def test_girth_tight_count_matches_closed_form():
    # In Z_p every one-element subset {s} has girth p and is tight, so the
    # tight count is at least p - 1; in Z_2^k every subset has girth 2.
    assert checks.girth_tight_count(checks.cyclic_table(2)) == 1
    assert checks.girth_tight_count(checks.abelian_table([2, 2, 2])) == 1
    assert checks.girth_tight_count(checks.cyclic_table(7)) >= 6


def test_abelian_counts():
    # the number of abelian groups of order n is the product of p(e) over
    # the prime powers p^e exactly dividing n
    assert [len(checks.abelian_names(n)) for n in (1, 8, 12, 16, 32, 36, 72)] == [
        1, 3, 2, 5, 7, 4, 6]
