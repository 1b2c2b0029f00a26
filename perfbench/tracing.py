"""Spans around the public functions of relgrowth's layers.

The tracer replaces each function at every name its callers look it up by
(a module attribute or a class attribute) with a wrapper that records a
span: name, start, end and the span that was open when it was called.
Spans stay in memory, in flat arrays, until the run writes them out.
The one-step image `_image_bits`, which Relation.image, Relation.ball,
Relation.girth and theorems.hypothesis_window all take, runs millions of
times per run, so it is counted, not spanned.  Nothing here runs unless a
traced run installs it.
"""

from __future__ import annotations

import functools
import gzip
import os
import time
import tracemalloc
from array import array
from collections import Counter

from relgrowth import cli, connectivity, fileio, groups, relation, theorems

Relation = relation.Relation

# span name -> the (owner, attribute) pairs callers resolve it through
SPANNED = {
    "relation.girth": [(Relation, "girth")],
    "theorems.hypothesis_window": [(theorems, "hypothesis_window")],
    "theorems.check_main_theorem": [(theorems, "check_main_theorem")],
    "theorems.check_ball_growth": [(theorems, "check_ball_growth")],
    "theorems.zero_product_witness": [(theorems, "zero_product_witness")],
    "theorems.scan_girth_bound": [(theorems, "scan_girth_bound")],
    "theorems.run_family": [(theorems, "run_family")],
    "theorems.check_girth_bound": [(theorems, "check_girth_bound")],
    "groups.cayley_relation": [(groups, "cayley_relation"), (theorems, "cayley_relation"),
                               (cli, "cayley_relation")],
    "groups.group_from_table": [(groups, "group_from_table"), (fileio, "group_from_table")],
    "groups.is_point_transitive_brute": [(groups, "is_point_transitive_brute"),
                                         (theorems, "is_point_transitive_brute")],
    "connectivity.kappa": [(connectivity, "kappa")],
    "connectivity.min_separating_set": [(connectivity, "min_separating_set")],
    "connectivity.fragments_oracle": [(connectivity, "fragments_oracle")],
    "connectivity.check_proposition_basic": [(connectivity, "check_proposition_basic")],
    "connectivity.check_atom_disjointness": [(connectivity, "check_atom_disjointness")],
    "fileio.read_relation": [(fileio, "read_relation")],
    "fileio.read_group": [(fileio, "read_group")],
    "cli.main": [(cli, "main")],
}
# Relation's methods look _image_bits up in relation, hypothesis_window in theorems
COUNTED = {"relation.image": [(relation, "_image_bits"), (theorems, "_image_bits")]}


class Tracer:
    def __init__(self) -> None:
        self.names = list(SPANNED)
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.counts: Counter = Counter()
        self.scan_subsets = 0
        self.read_bytes = 0
        self.largest_table = None
        self._saved: list[tuple[object, str, object]] = []

    def _spanned(self, name: str, fn):
        nid = self.names.index(name)
        name_id, parent, start, end, opened = (
            self.name_id, self.parent, self.start, self.end, self._open)
        clock = time.perf_counter
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(opened[-1])
            end.append(0.0)
            opened.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                opened.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe_theorems_scan_girth_bound(self, args, result) -> None:
        self.scan_subsets += result.total_subsets

    def _observe_fileio_read_relation(self, args, result) -> None:
        self.read_bytes += os.path.getsize(args[0])

    def _observe_groups_group_from_table(self, args, result) -> None:
        if self.largest_table is None or len(args[0]) > len(self.largest_table):
            self.largest_table = args[0]

    def install(self) -> None:
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for name, places in table.items():
                original = getattr(*places[0])
                wrapper = make(name, original)
                for owner, attr in places:
                    self._saved.append((owner, attr, getattr(owner, attr)))
                    setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def self_seconds(self) -> dict[str, float]:
        """Per span name: summed span time minus the time of direct children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(own)
        for idx, p in enumerate(self.parent):
            if p >= 0:
                child[p] += own[idx]
        total: Counter = Counter()
        for nid, d, c in zip(self.name_id, own, child):
            total[self.names[nid]] += d - c
        return total

    def calls(self) -> Counter:
        out = Counter(self.names[nid] for nid in self.name_id)
        out.update(self.counts)
        return out

    def span_seconds(self, name: str) -> float:
        nid = self.names.index(name)
        return sum(e - s for i, s, e in zip(self.name_id, self.start, self.end) if i == nid)

    def alloc_peak_mb(self) -> float:
        """Peak traced allocation of group_from_table on the largest table it
        saw, measured again after the traced phase with tracemalloc on, so
        the allocation tracking does not slow the spans."""
        if self.largest_table is None:
            return 0.0
        tracemalloc.start()
        try:
            groups.group_from_table(self.largest_table)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def write(self, path: str) -> None:
        """One line per span: name, start and end in ms, parent index."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("name\tstart_ms\tend_ms\tparent\n")
            t0 = self.start[0] if self.start else 0.0
            for nid, s, e, p in zip(self.name_id, self.start, self.end, self.parent):
                out.write(f"{self.names[nid]}\t{(s - t0) * 1e3:.4f}\t{(e - t0) * 1e3:.4f}\t{p}\n")


def layer_metrics(tracer: Tracer, ops: int, units: int, report_mb: float,
                  overhead_pct: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced phase of `ops` operations that
    completed `units` units of work."""
    own = tracer.self_seconds()
    calls = tracer.calls()
    metrics: dict[str, tuple[float, str]] = {}
    for name in SPANNED:
        metrics[f"{name}.self_ms"] = (own[name] * 1e3 / ops, "ms")

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    scan_s = tracer.span_seconds("theorems.scan_girth_bound")
    read_s = tracer.span_seconds("fileio.read_relation")
    metrics.update({
        "relation.image.calls_per_instance": (ratio(calls["relation.image"], units), "count"),
        "theorems.scan_girth_bound.subsets_per_s": (ratio(tracer.scan_subsets, scan_s), "1/s"),
        "groups.group_from_table.alloc_peak_mb": (tracer.alloc_peak_mb(), "MB"),
        "groups.is_point_transitive_brute.calls": (
            ratio(calls["groups.is_point_transitive_brute"], ops), "count"),
        "connectivity.min_separating_set.calls_per_kappa": (
            ratio(calls["connectivity.min_separating_set"], calls["connectivity.kappa"]), "count"),
        "connectivity.fragments_oracle.calls_per_instance": (
            ratio(calls["connectivity.fragments_oracle"],
                  calls["connectivity.check_proposition_basic"]), "count"),
        "fileio.read_relation.mb_per_s": (ratio(tracer.read_bytes / 2**20, read_s), "MB/s"),
        "cli.report_mb_per_op": (report_mb, "MB"),
        "trace.overhead_pct": (overhead_pct, "%"),
    })
    return metrics
