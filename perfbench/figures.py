"""Reference figures for the README, each timed in a fresh process.

    python3 perfbench/figures.py            # every figure
    python3 perfbench/figures.py kappa-z64  # one figure

Each figure runs in its own child process, so its peak RSS is its own.
The zerosum-512-rlimit figure reproduces a fault: under a 1.5 GB address
space limit on its own process, `relgrowth zerosum` on a group of order
512 exits 1, the code reserved for a violated proven bound.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def _cli(argv):
    import workloads

    return workloads.run_cli(argv)


def circulants_12():
    return _cli(["verify", "circulants", "--max-n", "12"])[0]


def circulants_12_report():
    path = HERE / "out" / "figure.ndjson"
    path.parent.mkdir(exist_ok=True)
    try:
        return _cli(["verify", "circulants", "--max-n", "12", "--report", str(path)])[0]
    finally:
        path.unlink(missing_ok=True)


def circulants_13_instances():
    code, out = _cli(["verify", "circulants", "--max-n", "13"])
    return [line.strip() for line in out.splitlines() if "instances" in line][0]


def _scan(n):
    from relgrowth import groups, theorems

    group = groups.cyclic(n)
    t = time.perf_counter()
    theorems.scan_girth_bound(group)
    return f"scan_girth_bound only: {time.perf_counter() - t:.3f} s"


def run_family_girth_20():
    from relgrowth import theorems

    scans = []
    original = theorems.scan_girth_bound

    def timed(group):
        t = time.perf_counter()
        result = original(group)
        scans.append(time.perf_counter() - t)
        return result

    theorems.scan_girth_bound = timed
    theorems.run_family("circulants", max_n=20, checks=("girth",))
    return f"{len(scans)} scan_girth_bound calls took {sum(scans):.2f} s"


def _kappa(n):
    from relgrowth import connectivity, groups

    rel, _ = groups.cayley_relation(groups.cyclic(n), [1, 3, n // 2 + 1])
    return f"kappa = {connectivity.kappa(rel).kappa}"


def oracle_instances():
    from relgrowth import connectivity, groups, theorems

    pool = [(group, gens) for group in groups.catalog_up_to_order(12) if 10 <= group.n <= 12
            for gens in theorems.subsets_of(range(1, 9)) if len(gens) <= 7]
    t = time.perf_counter()
    for group, gens in pool:
        rel, _ = groups.cayley_relation(group, gens)
        connectivity.check_proposition_basic(rel, certified=True, engine="oracle")
        connectivity.check_atom_disjointness(rel, engine="oracle")
    return f"{len(pool)} instances, {(time.perf_counter() - t) / len(pool) * 1e3:.2f} ms each"


def group_from_table_256():
    from relgrowth import groups
    import checks

    table = checks.cyclic_table(256)
    t = time.perf_counter()
    groups.group_from_table(table)
    return f"group_from_table only: {time.perf_counter() - t:.3f} s"


def zerosum_512_rlimit():
    import checks

    out = HERE / "out" / "figure-512"
    out.mkdir(parents=True, exist_ok=True)
    grp, sub = out / "z512.grp", out / "s.txt"
    grp.write_text("512\n" + "".join(" ".join(map(str, row)) + "\n"
                                     for row in checks.cyclic_table(512)))
    sub.write_text("1\n")
    limit = 1536 * 2**20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    done = subprocess.run(
        [sys.executable, "-c", "import sys; from relgrowth.cli import main; sys.exit(main())",
         "zerosum", str(grp), str(sub)],
        capture_output=True, text=True, preexec_fn=cap, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"})
    last = (done.stderr.strip().splitlines() or [""])[-1]
    return f"exit {done.returncode}: {last}"


FIGURES = {
    "circulants-12": circulants_12,
    "circulants-12-report": circulants_12_report,
    "circulants-13-instances": circulants_13_instances,
    "scan-z20": lambda: _scan(20),
    "scan-z22": lambda: _scan(22),
    "run-family-girth-20": run_family_girth_20,
    "kappa-z32": lambda: _kappa(32),
    "kappa-z48": lambda: _kappa(48),
    "kappa-z64": lambda: _kappa(64),
    "oracle-instances": oracle_instances,
    "group-from-table-256": group_from_table_256,
    "zerosum-512-rlimit": zerosum_512_rlimit,
}


def child(name: str) -> None:
    import workloads  # noqa: F401  (imports relgrowth and numpy before the clock starts)

    t = time.perf_counter()
    note = FIGURES[name]()
    seconds = time.perf_counter() - t
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"figure": name, "seconds": seconds, "peak_rss_mb": rss, "note": note}))


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        child(argv[1])
        return 0
    for name in argv or FIGURES:
        done = subprocess.run([sys.executable, __file__, "--child", name],
                              capture_output=True, text=True, timeout=300, check=True)
        fig = json.loads(done.stdout.splitlines()[-1])
        print(f"{name:26s} {fig['seconds']:8.3f} s  peak RSS {fig['peak_rss_mb']:7.1f} MB  "
              f"{fig['note']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
