"""Steadiness of the benchmark: two sets of runs of every workload.

    python3 perfbench/steady.py

Runs two sets of every workload in BENCHMARK.json, each set one run of
run_seconds per seed 1..10, one run at a time.  For every end-to-end metric
it prints, per set, the median and the spread (distance between the first
and third quartile of the runs, as a share of their median), and how far the
second set's median moved from the first's, against the metric's bound in
BENCHMARK.json.  A spread within a third of the bound reads "steady"; the
sets agree when every spread and the shift are within the bound and both
sets fail the same share of operations.  The figures are saved to
perfbench/out/steady.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    results: dict = {}
    worst = "steady"
    for w in (w["name"] for w in bench["workloads"]):
        sets = []
        for k in range(SETS):
            runs = []
            for seed in SEEDS:
                runs.append(run_once(w, seed, bench["run_seconds"]))
                print(f"{w} set {k + 1} seed {seed}: " + " ".join(
                    f"{n}={m['value']:.5g}" for n, m in runs[-1]["metrics"].items()),
                    flush=True)
            sets.append(runs)
        results[w] = sets
        print(f"\n{w}: {SETS} sets of {len(SEEDS)} runs")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs)
        print(f"  failed share per set {shares}; all outputs correct: {correct}")
        if len(set(shares)) > 1 or not correct:
            worst = "UNSTEADY"
        for name, spec in metrics.items():
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            bound = spec["bound"]
            line = f"  {name:12s} bound {bound:.2f}  " + "  ".join(
                f"median {m:.5g} spread {s:.3f}" for m, s in zip(medians, spreads))
            verdict = "steady"
            if max(spreads) > bound:
                verdict = "UNSTEADY"
            elif max(spreads) > bound / 3:
                verdict = "within bound"
            worse = medians[1] / medians[0] - 1
            worse = worse if spec["better"] == "lower" else -worse
            line += f"  second set worse by {worse:+.3f}"
            if worse > bound:
                verdict = "UNSTEADY"
            print(f"{line}  {verdict}")
            if verdict == "UNSTEADY" or (verdict == "within bound" and worst == "steady"):
                worst = verdict
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(results, indent=1))
    print(f"\noverall: {worst}")
    return 0 if worst != "UNSTEADY" else 1


if __name__ == "__main__":
    sys.exit(main())
