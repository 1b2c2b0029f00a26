"""The four workloads: what one round of operations is, how the seed makes
its inputs, the untimed warm-up, and how each output is checked.

Each workload builds one round of operations from the seed; a run repeats
that round whole until its time is up.  Every operation reports the units
of work it covers, counted here in closed form, never read from the
program's output.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from relgrowth import cli, connectivity, groups


@dataclass
class Op:
    key: str
    units: int
    run: Callable[[], object]
    info: dict = field(default_factory=dict)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process `relgrowth` command: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


class Workload:
    name = ""
    # op_ms_tail: the highest percentile with at least ten samples beyond it
    # at the fewest samples a 20 s run gave in the steadiness runs
    tail_pct = 0

    def prepare(self, rng: random.Random, workdir: Path) -> list[Op]:
        raise NotImplementedError

    def warm_up(self, workdir: Path) -> None:
        raise NotImplementedError

    def collect(self, op: Op, raw: object) -> object:
        """The output to check, gathered after the timed call."""
        return raw

    def check(self, op: Op, output: object) -> list[str]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# relgrowth verify over built-in families

FAMILY_FLAG = {"circulants": ("--max-n", "max_n"), "cayley_abelian": ("--max-order", "max_order"),
               "cayley_dihedral": ("--max-m", "max_m"), "cayley_symmetric": ("--m", "m")}


class VerifyWorkload(Workload):
    """Requests are (family, size, with --report); checks=None is the default
    set of checks."""

    requests: list[tuple[str, int, bool]] = []
    checks: tuple[str, ...] | None = None

    def _op(self, family: str, size: int, report: Path | None) -> Op:
        flag, param = FAMILY_FLAG[family]
        argv = ["verify", family, flag, str(size)]
        if self.checks is not None:
            argv += ["--checks", ",".join(self.checks)]
        if report is not None:
            argv += ["--report", str(report)]
        params = {param: size}
        units = checks.generator_sets(
            [checks.group_order(g) for g in checks.family_groups(family, params)])
        return Op(" ".join(argv[:4]) + (" --report" if report else ""), units,
                  lambda: run_cli(argv),
                  {"family": family, "params": params, "report": report})

    def prepare(self, rng, workdir):
        ops = [
            self._op(family, size, workdir / f"{family}-{size}.ndjson" if report else None)
            for family, size, report in self.requests
        ]
        rng.shuffle(ops)
        return ops

    def collect(self, op, raw):
        report = op.info["report"]
        text = report.read_text(encoding="utf-8") if report is not None else None
        return raw + (text,)

    def check(self, op, output):
        code, stdout, report_text = output
        if code != 0:
            return [f"exit code {code}"]
        family, params = op.info["family"], op.info["params"]
        errors = checks.check_verify_summary(
            stdout, family, params, self.checks or ("main", "growth", "girth", "zerosum"))
        if report_text is not None:
            errors += checks.check_cayley_report(report_text, family, params, stdout)
        return errors


class CayleyVerify(VerifyWorkload):
    name = "cayley-verify"
    tail_pct = 89  # 91 samples (7 rounds); inside the cayley_abelian 12 block
    requests = [
        ("circulants", 13, False), ("circulants", 12, False), ("circulants", 11, True),
        ("circulants", 10, False), ("circulants", 9, True), ("circulants", 8, False),
        ("cayley_dihedral", 6, False), ("cayley_dihedral", 5, True),
        ("cayley_abelian", 12, False), ("cayley_abelian", 10, True),
        ("cayley_abelian", 8, False), ("cayley_symmetric", 3, False),
        ("cayley_symmetric", 3, True),
    ]

    def warm_up(self, workdir):
        for family, size, report in (("circulants", 12, False), ("cayley_abelian", 10, True),
                                     ("cayley_dihedral", 6, False), ("cayley_symmetric", 3, True)):
            self._op(family, size, workdir / "warm.ndjson" if report else None).run()


class GirthScan(VerifyWorkload):
    name = "girth-scan"
    tail_pct = 91  # 105 samples (7 rounds)
    checks = ("girth",)
    # Fifteen requests whose latencies climb in clear steps, so the median
    # is the circulants 14 request and p91 is inside the four circulants 16
    # requests: a percentile that falls between two requests of nearly equal
    # cost jumps with the machine's speed.
    requests = (
        [("circulants", n, False) for n in (10, 12, 13, 14, 15)]
        + [("cayley_abelian", n, False) for n in (12, 13, 15)]
        + [("cayley_dihedral", m, False) for m in (6, 7, 8)]
        + [("circulants", 16, False)] * 4
    )

    def warm_up(self, workdir):
        for family, size in (("circulants", 16), ("cayley_abelian", 14), ("cayley_dihedral", 8)):
            self._op(family, size, None).run()


# ---------------------------------------------------------------------------
# The connectivity API on Cayley relations


def oracle_instance(group, gens) -> dict:
    rel, _ = groups.cayley_relation(group, gens)
    prop = connectivity.check_proposition_basic(rel, certified=True, engine="oracle")
    disjoint = connectivity.check_atom_disjointness(rel, engine="oracle")
    return {
        "prop": {"reason": prop.reason, "kappa": prop.kappa,
                 "atom": prop.atom.set.bits if prop.atom else None,
                 "size_within_kappa": prop.size_within_kappa,
                 "induced_transitive": prop.induced_transitive},
        "disjoint": {"forward": [a.set.bits for a in disjoint.forward_atoms],
                     "reverse": [a.set.bits for a in disjoint.reverse_atoms],
                     "forward_disjoint": disjoint.forward_disjoint,
                     "reverse_disjoint": disjoint.reverse_disjoint,
                     "holds": disjoint.holds},
    }


def flow_instance(group, gens, v: int) -> dict:
    rel, _ = groups.cayley_relation(group, gens)
    result = connectivity.kappa(rel)
    atom = connectivity.atom_containing(rel, v)
    return {"kappa": result.kappa, "atoms": [a.set.bits for a in result.atoms],
            "values": [a.value for a in result.atoms], "atom_size": result.atom_size,
            "v": v, "atom_of_v": atom.set.bits if atom else None}


def relabelling(rng: random.Random, n: int) -> list[int]:
    """A random permutation of [0, n) that keeps 0 (the identity) in place."""
    return [0] + [g + 1 for g in rng.sample(range(n - 1), n - 1)]


def relabelled(table, perm) -> list[list[int]]:
    """The same group with element g renamed perm[g] (perm fixes 0)."""
    t = np.asarray(table)
    out = np.empty_like(t)
    out[np.ix_(perm, perm)] = np.asarray(perm)[t]
    return out.tolist()


# A fixed design picks the structures (generator sets, relations, group
# kinds), so every seed costs about the same; the seed picks how elements and
# vertices are labelled, which changes every input the program sees but not
# its isomorphism type.
DESIGN_SEED = 0


class AtomsCayley(Workload):
    """Six oracle instances on each group of order 10-12 (generator sets of
    sizes 2..7, at most n - 2 so the relation and its reverse are not
    complete), and one flow instance per n = 16, 20, .., 48 on Z_n or
    D_{n/2}, generated by 1 and (in D) a reflection, so kappa > 0."""

    name = "atoms-cayley"
    tail_pct = 95  # 225 samples (5 rounds); inside the third-largest flow instance
    oracle_groups = ("Z10", "D5", "Z11", "Z12", "Z2xZ6", "D6")
    flow_sizes = range(16, 49, 4)

    def _instances(self):
        design = random.Random(DESIGN_SEED)
        for name in self.oracle_groups:
            n = checks.group_order(name)
            for size in range(2, 8):
                yield "oracle", name, design.sample(range(1, n), size)
        for n in self.flow_sizes:
            m = n // 2
            if design.random() < 0.5:
                name, gens = f"Z{n}", {1}
            else:
                name, gens = f"D{m}", {1, m + design.randrange(m)}
            while len(gens) < 3:
                gens.add(design.randrange(2, n))
            yield "flow", name, sorted(gens)

    def prepare(self, rng, workdir):
        self.groups = {}
        ops = []
        for kind, name, base in self._instances():
            if name not in self.groups:
                table = checks.table_for_name(name)
                perm = relabelling(rng, len(table))
                table = relabelled(table, perm)
                self.groups[name] = (groups.group_from_table(table, name), table, perm)
            group, table, perm = self.groups[name]
            gens = tuple(sorted(perm[s] for s in base))
            info = {"table": table, "gens": gens}
            if kind == "oracle":
                ops.append(Op(f"oracle Cay({name},{list(gens)})", 1,
                              lambda g=group, s=gens: oracle_instance(g, s), info))
            else:
                v = rng.randrange(group.n)
                ops.append(Op(f"flow Cay({name},{list(gens)}) v={v}", 1,
                              lambda g=group, s=gens, v=v: flow_instance(g, s, v), info))
        rng.shuffle(ops)
        return ops

    def warm_up(self, workdir):
        for name in self.oracle_groups:
            oracle_instance(self.groups[name][0], (1, 2, 5))
        flow_instance(groups.dihedral(12), (1, 12, 13), 0)
        flow_instance(groups.cyclic(36), (1, 5, 18), 0)

    def check(self, op, output):
        table, gens = op.info["table"], op.info["gens"]
        if op.key.startswith("oracle"):
            succ = [sum(1 << table[g][s] for s in gens) for g in range(len(table))]
            return checks.check_oracle_instance(len(table), succ, output["prop"],
                                                output["disjoint"])
        return checks.check_flow_instance(table, gens, output)


# ---------------------------------------------------------------------------
# Relation, group and subset files through the CLI


def random_relation(rng: random.Random, n: int, r: int) -> list[list[int]]:
    """Loopless, out-regular of degree r, strongly connected through a
    Hamiltonian cycle in random order; uncertified, as n > 10."""
    order = rng.sample(range(n), n)
    succ = [set() for _ in range(n)]
    for i, u in enumerate(order):
        succ[u].add(order[(i + 1) % n])
    for u in range(n):
        while len(succ[u]) < r:
            w = rng.randrange(n)
            if w != u:
                succ[u].add(w)
    return [sorted(s) for s in succ]


def big_group_table(kind: int, n: int) -> np.ndarray:
    """Z_n (kind 0), D_{n/2} (kind 1) or Z_2 x Z_{n/2} (kind 2)."""
    a, b = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    if kind == 0:
        return (a + b) % n
    h = n // 2
    if kind == 1:  # rotation k at k, reflection at h + k
        (f1, k1), (f2, k2) = np.divmod(a, h), np.divmod(b, h)
        return (k1 + np.where(f1 == 0, k2, -k2)) % h + h * (f1 ^ f2)
    (x1, y1), (x2, y2) = np.divmod(a, h), np.divmod(b, h)
    return (x1 + x2) % 2 * h + (y1 + y2) % h


def write_lines(path: Path, lines) -> None:
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")


class UncertifiedFiles(Workload):
    """Random uncertified relations of n = 20..36, brute-certifiable Cayley
    relations of n <= 10, group tables of order 128..256 (cyclic, dihedral
    or Z_2 x Z_{n/2}), and subsets of 3..8 elements drawn by the seed."""

    name = "uncertified-files"
    tail_pct = 94  # 171 samples (9 rounds)
    random_sizes = (20, 24, 28, 32, 36)
    cayley_groups = ("Z7", "Z8", "D4", "Z9", "D5", "Z10")
    # zerosum on an order-256 table runs three times per round, so p94
    # falls inside their block and not between it and a command of equal cost
    group_orders = (128, 160, 192, 224, 256, 256, 256)

    def prepare(self, rng, workdir):
        self.relations: dict[str, list[list[int]]] = {}
        self.tables: dict[str, list[list[int]]] = {}
        self.certified: set[str] = set()
        design = random.Random(DESIGN_SEED)
        random_paths, cayley_paths = [], []
        for n in self.random_sizes:
            path = str(workdir / f"random-{n}.rel")
            self._write_relation(path, random_relation(design, n, 3), rng.sample(range(n), n))
            random_paths.append(path)
        for name in self.cayley_groups:
            table = checks.table_for_name(name)
            n = len(table)
            gens = design.sample(range(1, n), design.choice((2, 3)))
            path = str(workdir / f"cayley-{name}.rel")
            self._write_relation(path, [[table[g][s] for s in gens] for g in range(n)],
                                 rng.sample(range(n), n))
            cayley_paths.append(path)
            self.certified.add(path)
        ops = []
        for i, n in enumerate(self.group_orders):
            table = relabelled(big_group_table(design.randrange(3), n), relabelling(rng, n))
            grp, sub = str(workdir / f"group-{i}-{n}.grp"), str(workdir / f"subset-{i}-{n}.txt")
            write_lines(Path(grp), [n] + [" ".join(map(str, row)) for row in table])
            subset = sorted(rng.sample(range(1, n), rng.randint(3, 8)))
            write_lines(Path(sub), subset)
            self.tables[grp] = table
            ops.append(self._op(["zerosum", grp, sub], {"table": grp, "subset": subset}))
        for path in random_paths:
            ops.append(self._op(["kappa", path], {"relation": path}))
            v = rng.randrange(len(self.relations[path]))
            ops.append(self._op(["spheres", path, "-v", str(v), "--j-max", "8"],
                                {"relation": path, "v": v, "j_max": 8}))
        for i, batch in enumerate((random_paths[:3] + cayley_paths[:3],
                                   random_paths[3:] + cayley_paths[3:])):
            report = workdir / f"files-{i}.ndjson"
            ops.append(self._op(["verify", "from_files", "--report", str(report), "--files", *batch],
                                {"files": batch, "report": report}))
        # a fixed order, unlike the other workloads: the heap left by the
        # previous command moves the peak RSS of a group_from_table by ~5 %
        return ops

    def _write_relation(self, path: str, succ: list[list[int]], perm: list[int]) -> None:
        """Write succ with vertex u renamed perm[u]."""
        renamed = [[] for _ in succ]
        for u, ws in enumerate(succ):
            renamed[perm[u]] = sorted(perm[w] for w in ws)
        self.relations[path] = succ = renamed
        write_lines(Path(path), [len(succ)] + [f"{u} {w}" for u, ws in enumerate(succ) for w in ws])

    def _op(self, argv: list[str], info: dict) -> Op:
        key = " ".join(os.path.basename(a) for a in argv if not a.endswith(".ndjson"))
        return Op(key, 1, lambda: run_cli(argv), info)

    def warm_up(self, workdir):
        """One command of each kind, on the largest group and relation."""
        grp = max(self.tables, key=lambda p: len(self.tables[p]))
        sub = grp.replace("group-", "subset-").replace(".grp", ".txt")
        rel = max((p for p in self.relations if p not in self.certified),
                  key=lambda p: len(self.relations[p]))
        for argv in (["zerosum", grp, sub], ["kappa", rel], ["spheres", rel],
                     ["verify", "from_files", "--files", *self.relations]):
            run_cli(argv)

    def collect(self, op, raw):
        report = op.info.get("report")
        return raw + (report.read_text(encoding="utf-8") if report else None,)

    def check(self, op, output):
        code, stdout, report_text = output
        if code != 0:
            return [f"exit code {code}"]
        info = op.info
        command = op.key.split()[0]
        if command == "zerosum":
            lines = dict(line.split(" = ") for line in stdout.splitlines())
            sequence = [int(x) for x in lines["sequence"].split()]
            return checks.check_zero_product(self.tables[info["table"]], info["subset"],
                                             int(lines["k"]), int(lines["bound"]), sequence)
        if command == "kappa":
            return checks.check_kappa_output(stdout, self.relations[info["relation"]])
        if command == "spheres":
            return checks.check_spheres(stdout, self.relations[info["relation"]],
                                        info["v"], info["j_max"])
        return checks.check_files_report(
            report_text, stdout, {p: self.relations[p] for p in info["files"]},
            self.certified & set(info["files"]))


WORKLOADS = {w.name: w for w in (CayleyVerify, GirthScan, AtomsCayley, UncertifiedFiles)}
