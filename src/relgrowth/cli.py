"""Command-line interface.

Exit codes: 0 all checks pass, 1 a proven statement was violated
(implementation bug), 2 input or precondition error, including running out
of memory or recursion depth on an oversized input.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import connectivity, fileio, theorems
from .groups import CATALOG_LIMIT, catalog_up_to_order, cayley_relation, cyclic
from .relation import INFINITE
from .theorems import ALL_CHECKS, BugError


def _cmd_spheres(args) -> int:
    rel = fileio.read_relation(args.relation)
    # both refusals come before the header
    ball = rel.ball(args.vertex, 0)
    if args.j_max < 0:
        raise ValueError(f"--j-max {args.j_max} is below 0")
    print("j\t|ball|\t|sphere|")
    print(f"0\t{len(ball)}\t-")
    for j in range(1, args.j_max + 1):
        nxt = rel.image(ball)
        sphere = len(nxt.difference(ball))
        print(f"{j}\t{len(nxt)}\t{sphere}")
        ball = nxt
    return 0


def _print_fragment(label: str, fragment: connectivity.Fragment) -> None:
    print(
        f"{label}: set={list(fragment.set.members())} "
        f"boundary={list(fragment.boundary.members())} value={fragment.value}"
    )


def _cmd_kappa(args) -> int:
    """kappa and the atoms, or with `-v V` the least atom containing V;
    --oracle then checks kappa and the whole atom set against the
    brute-force oracle."""
    rel = fileio.read_relation(args.relation)
    v = args.vertex
    if v is not None and not 0 <= v < rel.n:
        raise ValueError(f"vertex {v} out of range for n={rel.n}")
    # the oracle runs first, so its refusal of a large n comes before any output
    oracle = connectivity.atoms_oracle(rel) if args.oracle else None
    result = connectivity.kappa(rel)
    if v is not None:
        atom = result.atom_containing(v)
        if atom is None:
            print(f"no atom contains vertex {v}")
        else:
            _print_fragment(f"atom containing {v}", atom)
    elif result.complete:
        print(f"complete: kappa = n-1 = {result.kappa}")
    else:
        print(f"kappa = {result.kappa}")
        print(f"atom size = {result.atom_size}")
        for i, atom in enumerate(result.atoms):
            _print_fragment(f"atom {i}", atom)
    if oracle is not None:
        value, atoms = oracle
        agree = value == result.kappa and {a.set.bits for a in result.atoms} == {
            a.set.bits for a in atoms
        }
        print(f"oracle kappa = {value}: {'agree' if agree else 'DISAGREE'}")
        if not agree:
            return 1
    return 0


def _cmd_girth(args) -> int:
    rel = fileio.read_relation(args.relation)
    if args.strip_loops:
        rel = rel.remove_loops()
    g = rel.girth()
    print("infinite" if g == INFINITE else int(g))
    return 0


def _cmd_verify(args) -> int:
    checks = ALL_CHECKS if args.checks == "all" else tuple(args.checks.split(","))
    params: dict = {}
    if args.family in theorems.FAMILIES:
        key = theorems.FAMILIES[args.family][0]
        params[key] = getattr(args, key)
    run = theorems.run_family(args.family, checks=checks, files=args.files, **params)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.writelines(run.report_lines())
    print(f"family: {run.family} {run.params}")
    for key, value in run.summary.items():
        print(f"  {key}: {value}")
    if run.summary["caveated_instances"]:
        for report in run.reports:
            if report.caveats and (report.failures or not report.checks):
                print(f"  caveated: {report.descriptor} ({','.join(report.caveats)})")
    return 0 if run.ok else 1


def _cmd_zerosum(args) -> int:
    group = fileio.read_group(args.group)
    witness = theorems.zero_product_witness(group, fileio.read_subset(args.subset))
    print(f"k = {witness.k}")
    print(f"bound = {witness.bound}")
    print("sequence = " + " ".join(str(s) for s in witness.sequence))
    return 0


def _cmd_gen(args) -> int:
    """Check every parameter and bound, then create the output directory
    and write each file as the lazy stream yields it, one at a time."""
    if args.family == "circulants":
        n = args.n
        if n is None:
            raise ValueError("gen circulants requires --n")
        # one file per generator set; the shift is capped, as every n past
        # the cap is refused anyway
        limit = theorems.MAX_ENUMERATED_INSTANCES
        if n > 1 and (1 << min(n - 1, 64)) - 1 > limit:
            raise ValueError(
                f"gen circulants refused: 2^{n - 1} - 1 generator sets exceed {limit}"
            )
        group = cyclic(n)
        write = fileio.write_relation
        files = (
            (f"circ_n{n}_S{'_'.join(map(str, gens))}.rel", cayley_relation(group, gens)[0])
            for gens in theorems.subsets_of(range(1, n))
        )
    else:
        if args.max_order is None:
            raise ValueError("gen groups requires --max-order")
        if args.max_order < 1:
            raise ValueError(f"gen groups refused: max order {args.max_order} is below 1")
        if args.max_order > CATALOG_LIMIT:
            raise ValueError(
                f"gen groups refused: max order {args.max_order} exceeds {CATALOG_LIMIT}"
            )
        write = fileio.write_group
        files = ((f"{g.name}.grp", g) for g in catalog_up_to_order(args.max_order))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = 0
    for name, item in files:
        write(out / name, item)
        written += 1
    print(f"wrote {written} files to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relgrowth",
        description="Sphere growth, connectivity atoms, girth bounds and "
        "zero-product witnesses for finite relations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spheres", help="ball and sphere sizes around a vertex")
    p.add_argument("relation", help=".rel file")
    p.add_argument("-v", "--vertex", type=int, default=0)
    p.add_argument("--j-max", type=int, default=10)
    p.set_defaults(func=_cmd_spheres)

    p = sub.add_parser("kappa", help="connectivity and atoms")
    p.add_argument("relation", help=".rel file")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the brute-force oracle")
    p.add_argument("-v", "--vertex", type=int, default=None,
                   help="print the atom containing this vertex")
    p.set_defaults(func=_cmd_kappa)

    p = sub.add_parser("girth", help="shortest directed cycle length")
    p.add_argument("relation", help=".rel file")
    p.add_argument("--strip-loops", action="store_true",
                   help="remove loops before measuring")
    p.set_defaults(func=_cmd_girth)

    p = sub.add_parser("verify", help="run the theorem verification harness")
    p.add_argument("family", choices=[*theorems.FAMILIES, "from_files"])
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--max-order", type=int, default=8)
    p.add_argument("--max-m", type=int, default=4)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--checks", default="all",
                   help=f"comma-separated subset of {','.join(ALL_CHECKS)}")
    p.add_argument("--files", nargs="*", default=[], help="for from_files")
    p.add_argument("--report", help="write a newline-delimited JSON report here")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("zerosum", help="zero-product witness for a group subset")
    p.add_argument("group", help=".grp file")
    p.add_argument("subset", help="subset file, one element index per line")
    p.set_defaults(func=_cmd_zerosum)

    p = sub.add_parser("gen", help="write instance files for a family")
    p.add_argument("family", choices=["circulants", "groups"])
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--max-order", type=int, default=None)
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BugError as exc:
        print(f"BUG: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, RecursionError) as exc:
        # input too large for this machine or too deep for the search
        print(f"error: input too large ({type(exc).__name__})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
