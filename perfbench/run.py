"""Run one relgrowth benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cayley-verify --seed 1 --seconds 15 --trace 0

Run from the root of a checkout: relgrowth is imported from its src/
directory.  The run sets up (imports, inputs made from the seed, warm-up),
then repeats whole rounds of the workload's operations, one at a time in
this single process, until --seconds have passed, then checks every
distinct output apart from the program.  With --trace 0 it prints the
end-to-end metrics; with --trace 1 it runs the first half of the time
untraced and the second half with spans around relgrowth's public
functions, and prints the per-layer metrics and the tracing overhead.
The last line of stdout is one JSON object.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # set-up time counts from here, before the imports

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 3  # fresh processes that time set-up again; setup_s is the median


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print the set-up time and exit (used by the run itself)")
    return p.parse_args(argv)


@dataclass
class Phase:
    """Outcome of repeating whole rounds for a while."""

    rounds: int = 0
    latencies: list[float] = field(default_factory=list)
    op_seconds: float = 0.0
    round_seconds: list[float] = field(default_factory=list)
    units: int = 0


class Outputs:
    """Distinct outputs per operation, kept once each with a count, so each
    is checked once however many rounds produced it."""

    def __init__(self) -> None:
        self.by_key: dict[str, dict[str, list]] = {}
        self.raised: dict[str, list[str]] = {}

    def add(self, op, output) -> None:
        digest = hashlib.blake2b(repr(output).encode(), digest_size=16).hexdigest()
        seen = self.by_key.setdefault(op.key, {})
        if digest in seen:
            seen[digest][0] += 1
        else:
            seen[digest] = [1, op, output]

    def add_failure(self, op, message: str) -> None:
        self.raised.setdefault(op.key, []).append(message)


def run_rounds(ops, workload, seconds: float, outputs: Outputs) -> Phase:
    phase = Phase()
    clock = time.perf_counter
    started = clock()
    while True:
        round_start = phase.op_seconds
        for op in ops:
            # each request starts on a collected heap, so garbage one
            # operation leaves is not collected on the next one's clock
            gc.collect()
            t = clock()
            try:
                raw = op.run()
            except Exception:  # an operation that raises is a failed operation
                dt = clock() - t
                outputs.add_failure(op, traceback.format_exc(limit=3))
            else:
                dt = clock() - t
                phase.units += op.units
                outputs.add(op, workload.collect(op, raw))
            phase.latencies.append(dt)
            phase.op_seconds += dt
        phase.rounds += 1
        phase.round_seconds.append(phase.op_seconds - round_start)
        if clock() - started >= seconds:
            return phase


def check_outputs(workload, outputs: Outputs) -> tuple[int, int, dict[str, int]]:
    """(wrong, failed, failed per key): wrong counts operations whose output
    a check rejected; failed adds those that raised."""
    wrong = 0
    failed_by_key: dict[str, int] = {}
    for key, messages in outputs.raised.items():
        failed_by_key[key] = len(messages)
        print(f"FAILED {key}: raised\n{messages[0]}", file=sys.stderr)
    for key, seen in outputs.by_key.items():
        for count, op, output in seen.values():
            errors = workload.check(op, output)
            if errors:
                wrong += count
                failed_by_key[key] = failed_by_key.get(key, 0) + count
                print(f"WRONG {key}: " + "; ".join(errors[:5]), file=sys.stderr)
    return wrong, sum(failed_by_key.values()), failed_by_key


def probe_setup(args) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
            capture_output=True, text=True, timeout=150, check=True, cwd=ROOT)
        times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "relgrowth" / "__init__.py").is_file():
        print(f"error: no relgrowth sources under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # one thread: nproc is 2 and workloads run alone
    sys.path.insert(0, str(src))

    import workloads  # imports relgrowth; counted in set-up

    import relgrowth
    if Path(relgrowth.__file__).resolve().parent != (src / "relgrowth").resolve():
        print(f"error: relgrowth imported from {relgrowth.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    workdir = OUT / f"tmp-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workload.prepare(random.Random(args.seed), workdir)
        workload.warm_up(workdir)
        own_setup = time.perf_counter() - START
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        return measure(args, workload, ops, own_setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, ops, own_setup: float) -> int:
    gc.collect()
    gc.freeze()  # set-up objects are never garbage; keep them out of the collections
    outputs = Outputs()
    if args.trace:
        import tracing

        untraced = run_rounds(ops, workload, args.seconds / 2, outputs)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            phase = run_rounds(ops, workload, args.seconds / 2, outputs)
        finally:
            tracer.uninstall()
        attempted = len(untraced.latencies) + len(phase.latencies)
    else:
        phase = run_rounds(ops, workload, args.seconds, outputs)
        attempted = len(phase.latencies)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    wrong, failed, failed_by_key = check_outputs(workload, outputs)
    setup_samples = [own_setup] + ([] if args.trace else probe_setup(args))

    samples = len(phase.latencies)
    beyond = samples - 1 - int((samples - 1) * workload.tail_pct / 100)
    lat_ms = [x * 1e3 for x in phase.latencies]
    if args.trace:
        per_round = phase.op_seconds / phase.rounds
        overhead = 100 * (per_round / (untraced.op_seconds / untraced.rounds) - 1)
        reports = [output[-1] for seen in outputs.by_key.values()
                   for _, op, output in seen.values() if op.info.get("report")]
        report_mb = statistics.fmean(len(t.encode()) / 2**20 for t in reports) if reports else 0.0
        metrics = tracing.layer_metrics(tracer, samples, phase.units, report_mb, overhead)
        OUT.mkdir(exist_ok=True)
        tracer.write(str(OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"))
    else:
        metrics = {
            # units per round over the median round: one slow stretch of
            # the machine moves it less than a mean over the whole run
            "throughput": (phase.units / phase.rounds / statistics.median(phase.round_seconds),
                           "1/s"),
            "op_ms_p50": (statistics.median(lat_ms), "ms"),
            "op_ms_tail": (statistics.quantiles(lat_ms, n=100, method="inclusive")
                           [int(workload.tail_pct) - 1], "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setup_samples), "s"),
        }

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {phase.rounds} of {len(ops)} operations")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if not args.trace:
        print(f"  op_ms_tail is p{workload.tail_pct:g} of {samples} samples, "
              f"{beyond} beyond it; setup_s is the median of {len(setup_samples)} set-ups")
    print(f"  attempted {attempted}  failed {failed}  wrong outputs {wrong}")
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "rounds": phase.rounds, "ops_per_round": len(ops),
        "tail_pct": workload.tail_pct, "samples": samples, "setup_samples": setup_samples,
        "failed_by_key": failed_by_key,
        "latency_ms_by_key": {
            op.key: statistics.median(lat_ms[i::len(ops)]) for i, op in enumerate(ops)
        },
    }
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "detail": detail}, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
