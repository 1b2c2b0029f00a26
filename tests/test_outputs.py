"""Byte-identical CLI outputs: a fixed list of commands, each pinned by one
digest of its exit code, stdout, stderr and every file it writes.

The commands run in order, in-process, inside one scratch directory and
with relative file names, so no absolute path reaches an output; the
first two write the instance files that later ones read.  A refactor that
must not change any output leaves `output_digests.json` as it is; a change
that moves an output on purpose regenerates it with

    PYTHONPATH=src python tests/test_outputs.py

which prints on stderr each command removed, renamed, added or moved
against the file it replaces, to be named where the change is described.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from relgrowth import Relation
from relgrowth.cli import main
from relgrowth.fileio import write_relation

from conftest import SHARPNESS_CORPUS

DIGESTS = Path(__file__).resolve().with_name("output_digests.json")

# relation and subset files that no command writes
INPUTS = {
    "sharp6.rel": SHARPNESS_CORPUS[0],
    # out-degrees 2, 1, 1: not regular
    "nonregular.rel": Relation.from_edges(3, [(0, 1), (0, 2), (1, 2)]),
    "arcfree.rel": Relation.from_edges(3, []),
    "zero.rel": Relation.from_edges(0, []),
}
SUBSETS = {"z12.sub": [5, 7], "d5.sub": [1, 5], "s3.sub": [1, 2], "z16.sub": [3]}

C = "circ/circ_n7_S"
COMMANDS = [
    "gen circulants --n 7 --out-dir circ",
    "gen groups --max-order 16 --out-dir groups",
    "verify circulants --max-n 7 --report circ.ndjson",
    "verify circulants --max-n 9 --checks girth --report girth.ndjson",
    "verify cayley_abelian --max-order 8 --report abelian.ndjson",
    "verify cayley_abelian --max-order 12 --checks girth --report abelian_girth.ndjson",
    "verify cayley_dihedral --max-m 4 --report dihedral.ndjson",
    "verify cayley_dihedral --max-m 6 --checks girth,main",
    "verify cayley_symmetric --m 3 --report symmetric.ndjson",
    "zerosum groups/Z12.grp z12.sub",
    "zerosum groups/D5.grp d5.sub",
    "zerosum groups/S3.grp s3.sub",
    "zerosum groups/Z16.grp z16.sub",
    f"kappa {C}1.rel --oracle",
    f"kappa {C}1_2.rel --oracle",
    f"kappa {C}1_2_3_4_5_6.rel",
    f"kappa {C}1_3.rel -v 0 --oracle",
    f"kappa {C}2_5.rel -v 4",
    f"spheres {C}1_2.rel",
    f"spheres {C}3.rel -v 4 --j-max 3",
    f"spheres {C}1.rel --j-max 0",
    f"spheres {C}1.rel -v 7",
    f"spheres {C}1.rel -v -1",
    "spheres zero.rel",
    f"girth {C}1.rel",
    f"girth {C}2_5.rel",
    "girth arcfree.rel",
    "girth sharp6.rel --strip-loops",
    f"verify from_files --files {C}1.rel {C}1_6.rel {C}1_2_4.rel --report files.ndjson",
    "verify from_files --files sharp6.rel --report sharp.ndjson",
    "verify from_files --files nonregular.rel --report nonregular.ndjson",
    "verify from_files --files arcfree.rel --report arcfree.ndjson",
]


def _snapshot() -> dict[str, str]:
    """The sha256 of every file under the working directory, by relative path."""
    return {
        path.as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in Path(".").rglob("*")
        if path.is_file()
    }


def output_digests() -> dict[str, str]:
    """Run COMMANDS in the working directory; per command, the sha256 of its
    exit code, stdout, stderr and the files it created or changed."""
    for name, rel in INPUTS.items():
        write_relation(name, rel)
    for name, members in SUBSETS.items():
        Path(name).write_text("".join(f"{v}\n" for v in members))
    digests = {}
    for command in COMMANDS:
        before = _snapshot()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(command.split())
        written = sorted(item for item in _snapshot().items() if item not in before.items())
        record = json.dumps([code, out.getvalue(), err.getvalue(), written])
        digests[command] = hashlib.sha256(record.encode()).hexdigest()
    return digests


def changed_commands(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """One line per command removed, renamed, added or moved from the digests
    `old` to `new`.  An added command whose digest equals a removed one's is
    that command renamed."""
    removed = [command for command in old if command not in new]
    lines = []
    for command, digest in new.items():
        if command in old:
            if old[command] != digest:
                lines.append(f"moved: {command}")
            continue
        renamed = next((gone for gone in removed if old[gone] == digest), None)
        if renamed is None:
            lines.append(f"added: {command}")
        else:
            removed.remove(renamed)
            lines.append(f"renamed: {renamed} -> {command}")
    return [f"removed: {command}" for command in removed] + lines


def test_changed_commands():
    old = {"a": "1", "b": "2", "c": "3", "d": "4"}
    new = {"a": "1", "b": "5", "e": "3", "f": "6"}
    assert changed_commands(old, new) == [
        "removed: d", "moved: b", "renamed: c -> e", "added: f",
    ]
    assert changed_commands(old, old) == []


def test_outputs_unchanged(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    expected = json.loads(DIGESTS.read_text())
    actual = output_digests()
    assert list(actual) == list(expected), "the command list and the digest file differ"
    moved = [command for command in actual if actual[command] != expected[command]]
    assert not moved, f"outputs moved: {moved}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        digests = output_digests()
    committed = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    changes = changed_commands(committed, digests)
    for line in changes:
        print(line, file=sys.stderr)
    counts = {kind: sum(line.startswith(kind + ":") for line in changes)
              for kind in ("removed", "renamed", "added", "moved")}
    print(", ".join(f"{n} {kind}" for kind, n in counts.items()), file=sys.stderr)
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
