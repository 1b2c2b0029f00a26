import numpy as np
import pytest

from relgrowth import FiniteGroup, Relation, catalog_up_to_order, group_from_table
from relgrowth.fileio import (
    ParseError,
    read_group,
    read_relation,
    read_subset,
    write_group,
    write_relation,
)


class TestRelationFormat:
    def test_round_trip(self, tmp_path, cycle5):
        path = tmp_path / "c5.rel"
        write_relation(path, cycle5)
        assert read_relation(path) == cycle5

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "r.rel"
        path.write_text("# a cycle\n3\n\n0 1  # arc\n1 2\n2 0\n")
        rel = read_relation(path)
        assert sorted(rel.edges()) == [(0, 1), (1, 2), (2, 0)]

    def test_duplicates_allowed(self, tmp_path):
        path = tmp_path / "r.rel"
        path.write_text("2\n0 1\n0 1\n")
        assert len(list(read_relation(path).edges())) == 1

    def test_out_of_range_with_line_number(self, tmp_path):
        path = tmp_path / "r.rel"
        path.write_text("2\n0 1\n0 9\n")
        with pytest.raises(ParseError) as err:
            read_relation(path)
        assert err.value.line == 3

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "r.rel"
        path.write_text("2\n0 1 2\n")
        with pytest.raises(ParseError):
            read_relation(path)

    def test_writer_sorted(self, tmp_path):
        rel = Relation.from_edges(3, [(2, 0), (0, 2), (0, 1)])
        path = tmp_path / "r.rel"
        write_relation(path, rel)
        assert path.read_text() == "3\n0 1\n0 2\n2 0\n"


def assert_python_table(group, expected):
    """group.table is a tuple of tuples of Python ints equal to expected."""
    assert type(group.table) is tuple
    assert all(type(row) is tuple for row in group.table)
    assert all(type(v) is int for row in group.table for v in row)
    assert group.table == tuple(map(tuple, expected))


class TestGroupFormat:
    def test_round_trip(self, tmp_path):
        for group in catalog_up_to_order(16):
            path = tmp_path / f"{group.name}.grp"
            write_group(path, group)
            loaded = read_group(path)
            assert_python_table(loaded, group.table)
            assert loaded == group

    def test_relabelled_order_256(self, tmp_path):
        # D128 with element a renamed perm[a], as the benchmark's tables are
        n, m = 256, 128
        a, b = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        (f1, k1), (f2, k2) = np.divmod(a, m), np.divmod(b, m)
        base = (k1 + np.where(f1 == 0, k2, -k2)) % m + m * (f1 ^ f2)
        perm = np.concatenate([[0], 1 + np.random.default_rng(256).permutation(n - 1)])
        table = np.empty_like(base)
        table[np.ix_(perm, perm)] = perm[base]
        source = group_from_table(table.tolist(), "d128")
        path = tmp_path / "d128.grp"
        write_group(path, source)
        loaded = read_group(path)
        assert isinstance(loaded, FiniteGroup)
        assert_python_table(loaded, table.tolist())
        assert loaded == source
        assert group_from_table(table, "d128") == source

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "g.grp"
        path.write_text("3\n0 1 2\n1 2 0\n")
        with pytest.raises(ParseError, match="rows"):
            read_group(path)

    def test_invalid_group_rejected(self, tmp_path):
        path = tmp_path / "g.grp"
        path.write_text("2\n1 0\n0 1\n")
        with pytest.raises(ValueError):
            read_group(path)


class TestSubsetFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "s.txt"
        members = [4, 1, 3]
        path.write_text("".join(f"{v}\n" for v in members))
        assert read_subset(path) == members

    def test_bad_entry(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("1\nx\n")
        with pytest.raises(ParseError):
            read_subset(path)
