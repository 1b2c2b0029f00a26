import contextlib
import dataclasses
import io
import json
import resource
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relgrowth import (
    Relation,
    cayley_relation,
    connectivity,
    cyclic,
    dihedral,
    direct_product,
    fileio,
    group_from_table,
    is_point_transitive_brute,
    theorems,
)
from relgrowth.cli import main
from relgrowth.fileio import write_group, write_relation, write_subset

from conftest import SHARPNESS_CORPUS


@pytest.fixture
def reflexive_cycle7(tmp_path):
    rel = Relation.from_edges(7, [(i, (i + 1) % 7) for i in range(7)])
    path = tmp_path / "c7.rel"
    write_relation(path, rel.reflexive_closure())
    return str(path)


class TestSpheres:
    def test_table(self, reflexive_cycle7, capsys):
        assert main(["spheres", reflexive_cycle7, "-v", "0", "--j-max", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1:] == ["0\t1\t-", "1\t2\t1", "2\t3\t1", "3\t4\t1"]

    def test_j_max_zero(self, reflexive_cycle7, capsys):
        assert main(["spheres", reflexive_cycle7, "--j-max", "0"]) == 0
        assert capsys.readouterr().out.strip().splitlines()[-1] == "0\t1\t-"

    def test_malformed_file_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.rel"
        path.write_text("3\n0\n")
        assert main(["spheres", str(path)]) == 2
        assert ":2:" in capsys.readouterr().err


class TestKappaCommand:
    def test_reflexive_six_cycle(self, tmp_path, capsys):
        rel = Relation.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        path = tmp_path / "c6.rel"
        write_relation(path, rel.reflexive_closure())
        assert main(["kappa", str(path), "--oracle"]) == 0
        out = capsys.readouterr().out
        assert "kappa = 1" in out and out.count(": set=") == 6 and "agree" in out

    def test_complete(self, tmp_path, capsys):
        path = tmp_path / "k4.rel"
        write_relation(path, Relation(4, (15, 15, 15, 15)))
        assert main(["kappa", str(path)]) == 0
        assert "complete: kappa = n-1 = 3" in capsys.readouterr().out

    def test_oracle_threshold(self, tmp_path, capsys):
        # one vertex above the oracle's fixed bound of 14
        rel, _ = cayley_relation(cyclic(15), [0, 1])
        path = tmp_path / "c.rel"
        write_relation(path, rel)
        assert main(["kappa", str(path), "--oracle"]) == 2
        assert "refused" in capsys.readouterr().err

    def test_oracle_refusal_before_output(self, tmp_path, capsys):
        # the refusal depends only on n, so no flow result is printed first
        rel, _ = cayley_relation(cyclic(15), [0, 1])
        path = tmp_path / "c.rel"
        write_relation(path, rel)
        assert main(["kappa", str(path), "--oracle"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "refused" in captured.err

    def test_oracle_rejects_missing_atoms(self, tmp_path, capsys, monkeypatch):
        # the reflexive 6-cycle has six atoms; a flow result that reports
        # only the first of them must not pass the cross-check
        rel = Relation.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        path = tmp_path / "c6.rel"
        write_relation(path, rel.reflexive_closure())
        real_kappa = connectivity.kappa

        def first_atom_only(r):
            result = real_kappa(r)
            return dataclasses.replace(result, atoms=result.atoms[:1])

        monkeypatch.setattr(connectivity, "kappa", first_atom_only)
        assert main(["kappa", str(path), "--oracle"]) == 1
        assert "DISAGREE" in capsys.readouterr().out

    def test_atom_containing(self, tmp_path, capsys):
        rel = Relation.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        path = tmp_path / "c6.rel"
        write_relation(path, rel.reflexive_closure())
        assert main(["atoms", str(path), "-v", "3"]) == 0
        assert "set=[3]" in capsys.readouterr().out

    def test_atom_containing_with_oracle(self, tmp_path, capsys, monkeypatch):
        files = {
            "c6": Relation.from_edges(6, [(i, (i + 1) % 6) for i in range(6)]).reflexive_closure(),
            "chain": Relation.from_edges(3, [(0, 1), (1, 2)]),
            "k3": Relation(3, (7, 7, 7)),
        }
        for name, rel in files.items():
            write_relation(tmp_path / f"{name}.rel", rel)
        runs = []
        real_kappa = connectivity.kappa
        monkeypatch.setattr(connectivity, "kappa", lambda r: runs.append(r) or real_kappa(r))
        cases = [
            ("c6", "3", 0, "atom containing 3: set=[3] boundary=[4] value=1\n",
             "oracle kappa = 1: agree\n", ""),
            ("chain", "0", 0, "no atom contains vertex 0\n", "oracle kappa = 0: agree\n", ""),
            ("k3", "0", 2, "", "", "error: atoms are undefined for a complete relation\n"),
            ("c6", "6", 2, "", "", "error: vertex 6 out of range for n=6\n"),
        ]
        for name, vertex, code, out, oracle_line, err in cases:
            path = str(tmp_path / f"{name}.rel")
            for extra, line in (([], ""), (["--oracle"], oracle_line)):
                runs.clear()
                assert main(["atoms", path, "-v", vertex, *extra]) == code
                assert capsys.readouterr() == (out + line, err), (name, extra)
                assert len(runs) == (vertex != "6")  # kappa runs once, after the range check

    def test_atom_containing_oracle_refusal_before_output(self, tmp_path, capsys):
        rel, _ = cayley_relation(cyclic(15), [0, 1])
        path = tmp_path / "c.rel"
        write_relation(path, rel)
        assert main(["atoms", str(path), "-v", "0"]) == 0
        capsys.readouterr()
        assert main(["atoms", str(path), "-v", "0", "--oracle"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: oracle refused: n=15 exceeds limit 14\n"

    def test_atom_containing_oracle_rejects_missing_atoms(self, tmp_path, capsys, monkeypatch):
        rel = Relation.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        path = tmp_path / "c6.rel"
        write_relation(path, rel.reflexive_closure())
        real_kappa = connectivity.kappa

        def first_atom_only(r):
            result = real_kappa(r)
            return dataclasses.replace(result, atoms=result.atoms[:1])

        monkeypatch.setattr(connectivity, "kappa", first_atom_only)
        assert main(["atoms", str(path), "-v", "0", "--oracle"]) == 1
        assert capsys.readouterr().out == (
            "atom containing 0: set=[0] boundary=[1] value=1\n"
            "oracle kappa = 1: DISAGREE\n"
        )


class TestGirthCommand:
    def test_loopless_cycle(self, tmp_path, capsys):
        path = tmp_path / "c5.rel"
        write_relation(path, Relation.from_edges(5, [(i, (i + 1) % 5) for i in range(5)]))
        assert main(["girth", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "5"

    def test_loops_give_one_unless_stripped(self, reflexive_cycle7, capsys):
        assert main(["girth", reflexive_cycle7]) == 0
        assert capsys.readouterr().out.strip() == "1"
        assert main(["girth", reflexive_cycle7, "--strip-loops"]) == 0
        assert capsys.readouterr().out.strip() == "7"

    def test_acyclic(self, tmp_path, capsys):
        path = tmp_path / "chain.rel"
        write_relation(path, Relation.from_edges(3, [(0, 1), (1, 2)]))
        assert main(["girth", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "infinite"


class TestVerifyCommand:
    def test_circulants_clean(self, tmp_path, capsys):
        report = tmp_path / "out.ndjson"
        code = main(
            ["verify", "circulants", "--max-n", "6", "--report", str(report)]
        )
        assert code == 0
        records = [json.loads(line) for line in report.read_text().splitlines()]
        assert records and all(
            c["pass"] for r in records for c in r["checks"]
        )

    def test_report_determinism(self, tmp_path):
        a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        main(["verify", "circulants", "--max-n", "5", "--report", str(a)])
        main(["verify", "circulants", "--max-n", "5", "--report", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_fault_injection_exit_codes(self):
        assert main(["verify", "circulants", "--max-n", "6", "--checks", "main",
                     "--bound-delta", "-1"]) == 0
        assert main(["verify", "circulants", "--max-n", "6", "--checks", "main",
                     "--bound-delta", "1"]) == 1

    def test_girth_scan_bound_exit_two(self, capsys, monkeypatch):
        # Z11 is the first circulant with more than 100 inverse-free sets
        monkeypatch.setattr(theorems, "MAX_ENUMERATED_INSTANCES", 100)
        assert main(["verify", "circulants", "--max-n", "12", "--checks", "girth"]) == 2
        assert capsys.readouterr().err.startswith("error: girth scan of Z11 refused")

    def test_unknown_family_exit_two(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "quaternions"])

    def test_from_files_nontransitive_warns_not_fails(self, tmp_path, capsys):
        # not regular, so each of main, growth and girth is an empty
        # caveated report, and each prints one caveat line
        path = tmp_path / "nt.rel"
        write_relation(
            path,
            Relation.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
        )
        code = main(["verify", "from_files", "--files", str(path)])
        assert code == 0
        assert capsys.readouterr().out == verify_summary(
            "from_files {}", instances=1, checks=0, failures=0, caveated_instances=1,
            tight_checks=0,
        ) + 3 * f"  caveated: {path} (not-regular)\n"

    def test_from_files_acyclic_caveated(self, tmp_path, capsys):
        # no arcs: brute-certified with degree 0, so main and growth pass,
        # and the girth report has no check and one caveat line
        path = tmp_path / "empty3.rel"
        write_relation(path, Relation.from_edges(3, []))
        code = main(["verify", "from_files", "--files", str(path)])
        assert code == 0
        assert capsys.readouterr().out == verify_summary(
            "from_files {}", instances=1, checks=7, caveated_instances=1, tight_checks=7,
            tight_growth_instances=1,
        ) + f"  caveated: {path} (acyclic)\n"

    def test_from_files_sharpness_counterexample_caveated(self, tmp_path, capsys):
        # regular but not point-transitive: the sphere and the ball bound
        # both fail at radius 2, and each failed report prints one caveat
        (rel,) = SHARPNESS_CORPUS
        closure = rel.reflexive_closure()
        assert rel.regular_degree() == rel.reverse().regular_degree() == 2
        assert all(len(closure.ball(v, rel.n)) == rel.n for v in range(rel.n))
        assert not is_point_transitive_brute(rel)
        path = tmp_path / "sharp6.rel"
        write_relation(path, rel)
        code = main(["verify", "from_files", "--files", str(path)])
        assert code == 0
        caveat = f"  caveated: {path} (uncertified-transitivity)\n"
        assert capsys.readouterr().out == verify_summary(
            "from_files {}", instances=1, checks=6, failures=2, caveated_instances=1,
            tight_checks=3,
        ) + 2 * caveat

    @pytest.mark.parametrize("mode", [[], ["--all-vertices"], ["--checks", "girth"]])
    def test_from_files_zero_vertices(self, tmp_path, capsys, mode):
        path, report = tmp_path / "empty.rel", tmp_path / "out.ndjson"
        path.write_text("0\n")
        code = main(["verify", "from_files", "--files", str(path), "--report", str(report), *mode])
        assert code == 0, capsys.readouterr().err
        records = [json.loads(line) for line in report.read_text().splitlines()]
        assert len(records) == (1 if mode == ["--checks", "girth"] else 3)
        assert all(r["r"] == 0 and r["checks"] == [] for r in records)
        assert records[-1]["caveats"] == ["acyclic"]
        assert all(r["caveats"] == [] for r in records[:-1])


def verify_summary(family: str, **counts: int) -> str:
    """The stdout of a `verify` run up to its caveat lines; summary keys
    not given are 0."""
    keys = ("instances", "checks", "failures", "bugs", "caveated_instances", "tight_checks",
            "tight_growth_instances", "girth_scan_groups", "girth_scan_subsets",
            "girth_scan_tight_subsets")
    return f"family: {family}\n" + "".join(f"  {k}: {counts.get(k, 0)}\n" for k in keys)


def run_quietly(argv: list[str]) -> tuple[int, str, str]:
    """main(argv) with its stdout and stderr captured: (code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# the four commands that read one .rel file, as argv without the path
RELATION_COMMANDS = (["spheres"], ["kappa"], ["girth"], ["verify", "from_files", "--files"])


class TestRelationFileLimits:
    # headers far beyond the cap only: a missing cap must fail at once,
    # never allocate a table of that size
    @pytest.mark.parametrize("count", [fileio.MAX_VERTICES + 1, 10**20])
    @pytest.mark.parametrize("command", RELATION_COMMANDS, ids=lambda c: c[0])
    def test_vertex_count_above_cap_exit_two(self, tmp_path, command, count):
        path = tmp_path / "huge.rel"
        path.write_text(f"{count}\n0 1\n")
        code, out, err = run_quietly([*command, str(path)])
        assert code == 2 and out == ""
        assert err == f"error: {path}:1: vertex count {count} exceeds {fileio.MAX_VERTICES}\n"


class TestRefusalsBeforeOutput:
    """Each refusal exits 2 with one error line and prints nothing first;
    `spheres` checks its vertex before the table header, where
    `Relation.ball` would refuse only after it."""

    @pytest.mark.parametrize("vertex", [7, -1])
    def test_spheres_vertex_out_of_range(self, tmp_path, cycle5, vertex):
        path = tmp_path / "c5.rel"
        write_relation(path, cycle5)
        assert run_quietly(["spheres", str(path), "-v", str(vertex)]) == (
            2, "", f"error: vertex {vertex} out of range for n=5\n"
        )

    def test_spheres_zero_vertices(self, tmp_path):
        path = tmp_path / "zero.rel"
        path.write_text("0\n")
        assert run_quietly(["spheres", str(path)]) == (
            2, "", "error: vertex 0 out of range for n=0\n"
        )

    @pytest.mark.parametrize("command", ["spheres", "kappa", "girth"])
    def test_comment_only_relation(self, tmp_path, command):
        path = tmp_path / "comment.rel"
        path.write_text("# no header\n")
        assert run_quietly([command, str(path)]) == (
            2, "", f"error: {path}:1: missing vertex count\n"
        )

    @pytest.mark.parametrize(
        "text, error",
        [
            ("# no header\n", "{path}:1: missing group order"),
            pytest.param("0\n", "{path}:1: non-positive group order: 0", id="order-0"),
            pytest.param("-3\n", "{path}:1: non-positive group order: -3", id="order-minus-3"),
        ],
    )
    def test_zerosum_group_without_elements(self, tmp_path, text, error):
        path, subset = tmp_path / "g.grp", tmp_path / "s.sub"
        path.write_text(text)
        subset.write_text("1\n")
        assert run_quietly(["zerosum", str(path), str(subset)]) == (
            2, "", f"error: {error.format(path=path)}\n"
        )


class TestZerosumCommand:
    def test_z10(self, tmp_path, capsys):
        grp, sub = tmp_path / "z10.grp", tmp_path / "s.txt"
        write_group(grp, cyclic(10))
        write_subset(sub, [3, 4])
        assert main(["zerosum", str(grp), str(sub)]) == 0
        out = capsys.readouterr().out
        assert "k = 3" in out and "bound = 5" in out

    def test_single_generator(self, tmp_path, capsys):
        grp, sub = tmp_path / "z6.grp", tmp_path / "s.txt"
        write_group(grp, cyclic(6))
        write_subset(sub, [1])
        assert main(["zerosum", str(grp), str(sub)]) == 0
        out = capsys.readouterr().out
        assert "k = 6" in out and "sequence = 1 1 1 1 1 1" in out

    @pytest.mark.parametrize("exc", [MemoryError, RecursionError])
    def test_resource_exhaustion_exit_two(self, tmp_path, capsys, monkeypatch, exc):
        grp, sub = tmp_path / "z6.grp", tmp_path / "s.txt"
        write_group(grp, cyclic(6))
        write_subset(sub, [1])

        def exhausted(path):
            raise exc()

        monkeypatch.setattr(fileio, "read_group", exhausted)
        assert main(["zerosum", str(grp), str(sub)]) == 2
        assert capsys.readouterr().err.startswith(f"error: input too large ({exc.__name__})")

    def test_identity_in_subset_exit_two(self, tmp_path):
        grp, sub = tmp_path / "z6.grp", tmp_path / "s.txt"
        write_group(grp, cyclic(6))
        write_subset(sub, [0, 2])
        assert main(["zerosum", str(grp), str(sub)]) == 2

    @pytest.mark.parametrize(
        "entry",
        [
            "99999999999999999999999",
            "-99999999999999999999999",
            "18446744073709551617",  # 2^64 + 1: a parser that wraps reads 1
            "9223372036854775808",  # 2^63
            "-9223372036854775809",  # -2^63 - 1
        ],
    )
    def test_entry_outside_int64_exit_two(self, tmp_path, capsys, entry):
        """The entry is the table's only fault, in place of the 0 that ends
        row 1 of Z11: once in a row of plain tokens, once beside `1_0`
        (int() reads it as 10, numpy does not), which sends the row
        token by token."""
        rows = [" ".join(map(str, row)) for row in cyclic(11).table]
        sub = tmp_path / "s.txt"
        sub.write_text("1\n")
        for i, row in enumerate([f"1 2 3 4 5 6 7 8 9 10 {entry}", f"1 2 3 4 5 6 7 8 9 1_0 {entry}"]):
            grp = tmp_path / f"big{i}.grp"
            grp.write_text("".join(f"{line}\n" for line in ["11", rows[0], row, *rows[2:]]))
            assert main(["zerosum", str(grp), str(sub)]) == 2, row
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", "error: MalformedTable\n"), row

    def test_order_1024_time_and_memory(self, tmp_path, capsys):
        # a relabelled D512: rotation k at k, reflection at 512 + k, then
        # element a renamed perm[a]
        n, m = 1024, 512
        a, b = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        (f1, k1), (f2, k2) = np.divmod(a, m), np.divmod(b, m)
        base = (k1 + np.where(f1 == 0, k2, -k2)) % m + m * (f1 ^ f2)
        rng = np.random.default_rng(1024)
        perm = np.concatenate([[0], 1 + rng.permutation(n - 1)])
        table = np.empty_like(base)
        table[np.ix_(perm, perm)] = perm[base]
        rows = table.tolist()
        grp, sub = tmp_path / "d512.grp", tmp_path / "s.txt"
        grp.write_text(f"{n}\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows))
        subset = sorted(int(perm[x]) for x in (3, 700, 901))  # two reflections
        write_subset(sub, subset)
        start = time.perf_counter()
        code = main(["zerosum", str(grp), str(sub)])
        elapsed = time.perf_counter() - start
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        assert code == 0
        lines = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
        sequence = [int(x) for x in lines["sequence"].split()]
        assert sequence and set(sequence) <= set(subset)
        acc = 0
        for x in sequence:
            acc = rows[acc][x]
        assert acc == 0
        assert int(lines["k"]) == len(sequence) <= int(lines["bound"]) == 342
        # 0.3-0.5 s on a 2-core box; the n^3 check took 6-7 s
        assert elapsed < 3.0
        # the whole test process, so the peak of earlier tests counts too
        assert peak_mb < 400


FUZZ_GROUPS = [cyclic(4), dihedral(3), direct_product(cyclic(2), cyclic(2)), cyclic(7)]
FUZZ_KINDS = ("entry", "short_row", "long_row", "drop_line", "extra_line", "header", "subset")
FUZZ_VALUES = st.one_of(
    st.integers(min_value=-(10**30), max_value=10**30),
    st.sampled_from([2**63, -(2**63) - 1, 2**64, 10**23, -(10**23), -1, 0]),
    st.text(alphabet="0123456789-+_.xe# \u0661", min_size=0, max_size=6),
)


class TestZerosumFuzz:
    @given(
        group=st.sampled_from(FUZZ_GROUPS),
        kind=st.sampled_from(FUZZ_KINDS),
        where=st.integers(min_value=0, max_value=10**6),
        value=FUZZ_VALUES,
    )
    @example(group=FUZZ_GROUPS[0], kind="entry", where=5, value=10**23)
    @example(group=FUZZ_GROUPS[1], kind="entry", where=7, value=-(10**23))
    @settings(max_examples=300, deadline=None)
    def test_hostile_files_exit_zero_or_two(self, group, kind, where, value):
        """Mutated .grp and subset files give exit 0 or 2 with an error
        line, and no exception escapes."""
        n = group.n
        rows = [[str(v) for v in row] for row in group.table]
        subset = ["1", str(n - 1)]
        header = str(n)
        r, c = where % n, where // n % n
        if kind == "entry":
            rows[r][c] = str(value)
        elif kind == "short_row":
            del rows[r][c]
        elif kind == "long_row":
            rows[r].insert(c, str(value))
        elif kind == "drop_line":
            del rows[r]
        elif kind == "extra_line":
            rows.insert(r, [str(value)])
        elif kind == "header":
            header = str(value)
        else:
            subset[where % 2] = str(value)
        with tempfile.TemporaryDirectory() as tmp:
            grp, sub = Path(tmp) / "g.grp", Path(tmp) / "s.txt"
            grp.write_text("".join(f"{line}\n" for line in [header] + [" ".join(row) for row in rows]))
            sub.write_text("".join(f"{line}\n" for line in subset))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["zerosum", str(grp), str(sub)])
        assert code in (0, 2)
        assert (code == 2) == err.getvalue().startswith("error: ")
        assert (code == 0) == out.getvalue().startswith("k = ")


# valid .rel files as data lines: a directed 5-cycle, Cay(Z6, {1, 2}), a
# reflexive 4-cycle and a non-regular relation
REL_BASES = [
    ["5", *(f"{i} {(i + 1) % 5}" for i in range(5))],
    ["6", *(f"{u} {v}" for u, v in cayley_relation(cyclic(6), [1, 2])[0].edges())],
    ["4", *(f"{i} {j}" for i in range(4) for j in (i, (i + 1) % 4))],
    ["4", "0 1", "1 2", "2 3", "3 0", "0 2"],
]
REL_KINDS = ("header", "drop_header", "token", "one_token", "three_tokens", "arc")
REL_VALUES = st.one_of(
    # small counts keep kappa cheap; huge ones lie far beyond any table
    st.integers(min_value=-(10**30), max_value=40),
    st.integers(min_value=2**63, max_value=10**30),
    st.sampled_from([10**20, -(10**20), -1, 0, fileio.MAX_VERTICES + 1]),
    st.text(alphabet="0123456789-+_.xe# \u0661", min_size=0, max_size=2),
)


class TestRelationFuzz:
    @given(
        base=st.sampled_from(REL_BASES),
        kind=st.sampled_from(REL_KINDS),
        where=st.integers(min_value=0, max_value=10**6),
        value=REL_VALUES,
    )
    @example(base=REL_BASES[0], kind="header", where=0, value=10**20)
    @example(base=REL_BASES[1], kind="drop_header", where=0, value=0)
    @settings(max_examples=150, deadline=None)
    def test_hostile_files_exit_zero_or_two(self, base, kind, where, value):
        """Mutated .rel files give exit 0, or exit 2 with one error line and
        no output, through every command that reads one."""
        header, arcs = base[0], [line.split() for line in base[1:]]
        i, t = where % len(arcs), where // len(arcs) % 2
        if kind == "header":
            header = str(value)
        elif kind == "drop_header":
            header = None
        elif kind == "token":
            arcs[i][t] = str(value)
        elif kind == "one_token":
            del arcs[i][t]
        elif kind == "three_tokens":
            arcs[i].insert(t, str(value))
        else:
            arcs.append(["0", str(value)] if t else [str(value), "0"])
        lines = ([] if header is None else [header]) + [" ".join(arc) for arc in arcs]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.rel"
            path.write_text("".join(f"{line}\n" for line in lines))
            for command in RELATION_COMMANDS:
                code, out, err = run_quietly([*command, str(path)])
                assert code in (0, 2), (command, lines)
                if code == 2:
                    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
                else:
                    assert err == "" and out


def reference_read_group(path):
    """`fileio.read_group` as it read tables before numpy: every entry
    through int() token by token, the table handed on as lists.  Kept to
    cross-check the numpy row parse."""
    lines = fileio._data_lines(path)
    if not lines:
        raise fileio.ParseError(path, 1, "missing group order")
    number, text = lines[0]
    n = fileio._parse_int(path, number, text, "group order")
    if n < 1:
        raise fileio.ParseError(path, number, f"non-positive group order: {n}")
    if len(lines) - 1 != n:
        raise fileio.ParseError(path, number, f"expected {n} table rows, got {len(lines) - 1}")
    table = []
    for number, text in lines[1:]:
        row = [fileio._parse_int(path, number, tok, "table entry") for tok in text.split()]
        if len(row) != n:
            raise fileio.ParseError(path, number, f"expected {n} entries, got {len(row)}")
        table.append(row)
    name = Path(path).stem
    return group_from_table(table, name)


def outcome(read, path):
    """read(path), or the type and message of what it raised."""
    try:
        return read(path)
    except ValueError as exc:
        return type(exc), str(exc)


GROUP_BASES = [cyclic(6), dihedral(3), direct_product(cyclic(2), cyclic(4))]
GROUP_KINDS = ("header", "token", "no_break_space", "drop_token", "add_token", "drop_row")
# tokens int() and numpy read apart: outside int64 (numpy saturates),
# out of range, forms only int() reads (`1_0`, Arabic-Indic three, a lone
# or leading sign, more digits than int() takes) and forms neither reads
GROUP_VALUES = st.sampled_from(
    [str(2**64 + 1), str(2**63), "-1", "n", "1_0", "\u0663", "1.5", "0x1",
     "-", "+", "+1", "0" * 4300 + "1"]
)


class TestGroupFuzz:
    @given(
        base=st.sampled_from(GROUP_BASES),
        kind=st.sampled_from(GROUP_KINDS),
        where=st.integers(min_value=0, max_value=10**6),
        value=GROUP_VALUES,
    )
    @example(base=GROUP_BASES[0], kind="token", where=7, value=str(2**64 + 1))
    @example(base=GROUP_BASES[1], kind="token", where=0, value="-")
    @example(base=GROUP_BASES[2], kind="header", where=0, value="-1")
    @example(base=GROUP_BASES[0], kind="token", where=1, value="0" * 4300 + "1")
    @settings(max_examples=200, deadline=None)
    def test_numpy_rows_match_int_rows(self, base, kind, where, value):
        """Mutated .grp files read to the same group or the same error by
        `read_group` and `reference_read_group`, and `zerosum` on them
        exits 0, or exits 2 with one error line and no output."""
        n = base.n
        header, rows = str(n), [[str(v) for v in row] for row in base.table]
        value = str(n) if value == "n" else value
        r, c = where % n, where // n % n
        if kind == "header":
            header = value
        elif kind == "token":
            rows[r][c] = value
        elif kind == "drop_token":
            del rows[r][c]
        elif kind == "add_token":
            rows[r].insert(c, value)
        elif kind == "drop_row":
            del rows[r]
        lines = [header] + [" ".join(row) for row in rows]
        if kind == "no_break_space":  # in place of the c-th space of row r
            i = [i for i, ch in enumerate(lines[1 + r]) if ch == " "][c % (n - 1)]
            lines[1 + r] = lines[1 + r][:i] + "\u00a0" + lines[1 + r][i + 1:]
        with tempfile.TemporaryDirectory() as tmp:
            grp, sub = Path(tmp) / "g.grp", Path(tmp) / "s.txt"
            grp.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
            sub.write_text(f"1\n{n - 1}\n")
            assert outcome(fileio.read_group, grp) == outcome(reference_read_group, grp), lines
            code, out, err = run_quietly(["zerosum", str(grp), str(sub)])
        assert code in (0, 2), lines
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        else:
            assert err == "" and out.startswith("k = ")


class TestGenCommand:
    def test_circulants_count_and_round_trip(self, tmp_path):
        out = tmp_path / "gen"
        assert main(["gen", "circulants", "--n", "7", "--out-dir", str(out)]) == 0
        files = sorted(out.glob("*.rel"))
        assert len(files) == 63
        from relgrowth.fileio import read_relation

        rel = read_relation(out / "circ_n7_S1.rel")
        expected, _ = cayley_relation(cyclic(7), [1])
        assert rel == expected

    def test_groups(self, tmp_path):
        out = tmp_path / "grps"
        assert main(["gen", "groups", "--max-order", "8", "--out-dir", str(out)]) == 0
        assert (out / "Z8.grp").exists() and (out / "D4.grp").exists()

    @pytest.mark.parametrize("n", ["19", "64", "65", str(10**20)])
    def test_circulants_over_bound_exit_two(self, tmp_path, capsys, n):
        # 2^18 - 1 = 262 143 generator sets at n = 19 exceed 200 000
        out = tmp_path / "gen"
        assert main(["gen", "circulants", "--n", n, "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: gen circulants refused: 2^{int(n) - 1} - 1 generator sets exceed 200000\n"
        )
        assert not out.exists()

    def test_missing_param_exit_two(self, tmp_path, capsys):
        out = tmp_path / "x"
        for params in (["circulants"], ["circulants", "--n", "0"],
                       ["circulants", "--n", "-3"], ["groups"],
                       ["groups", "--max-order", "0"], ["groups", "--max-order", "-3"]):
            assert main(["gen", *params, "--out-dir", str(out)]) == 2
            assert not out.exists()
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("\n") == 1
            assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("order", ["257", str(10**20)])
    def test_groups_over_bound_exit_two(self, tmp_path, capsys, order):
        out = tmp_path / "grps"
        assert main(["gen", "groups", "--max-order", order, "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: gen groups refused: max order {order} exceeds 256\n"
        assert not out.exists()
