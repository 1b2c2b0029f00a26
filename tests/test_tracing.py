"""The benchmark's tracer must find every name it wraps.

perfbench/tracing.py replaces public functions by name with span-recording
wrappers, so an API change that drops or renames one of them breaks traced
benchmark runs.  The module is executed from its source here and never
written to.
"""

import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing() -> types.ModuleType:
    module = types.ModuleType("tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_tracer_wraps_and_restores_every_name(capsys, tmp_path):
    tracing = load_tracing()
    # built-in families walk no Relation, so the one-step image is counted
    # through a command that reads a relation file
    path = tmp_path / "c5.rel"
    path.write_text("5\n" + "".join(f"{v} {(v + 1) % 5}\n" for v in range(5)))
    places = [
        place
        for table in (tracing.SPANNED, tracing.COUNTED)
        for owner_attrs in table.values()
        for place in owner_attrs
    ]
    originals = [getattr(owner, attr) for owner, attr in places]  # every name resolves
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(o, a) is not f for (o, a), f in zip(places, originals))
        assert tracing.cli.main(["verify", "circulants", "--max-n", "4"]) == 0
        assert tracing.cli.main(["spheres", str(path), "--j-max", "3"]) == 0
        # module-level lookups: theorems reads through fileio, connectivity
        # certifies through groups
        assert tracing.cli.main(["verify", "from_files", "--files", str(path)]) == 0
        tracing.connectivity.check_proposition_basic(tracing.fileio.read_relation(path))
    finally:
        tracer.uninstall()
    assert all(getattr(o, a) is f for (o, a), f in zip(places, originals))
    calls = tracer.calls()
    assert calls["cli.main"] == 3 and calls["theorems.run_family"] == 2
    assert calls["theorems.scan_girth_bound"] == 3 and calls["relation.image"] > 0
    assert calls["fileio.read_relation"] == 3
    assert calls["connectivity.check_proposition_basic"] == 1
    assert calls["groups.is_point_transitive_brute"] == 3
