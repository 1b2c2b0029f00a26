import pytest

from relgrowth import Relation, cyclic, dihedral
from relgrowth.fileio import (
    ParseError,
    read_group,
    read_relation,
    read_subset,
    write_group,
    write_relation,
    write_subset,
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


class TestGroupFormat:
    def test_round_trip(self, tmp_path):
        group = dihedral(3)
        path = tmp_path / "d3.grp"
        write_group(path, group)
        loaded = read_group(path)
        assert loaded.table == group.table

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
        write_subset(path, [4, 1, 3])
        assert read_subset(path) == [1, 3, 4]

    def test_bad_entry(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("1\nx\n")
        with pytest.raises(ParseError):
            read_subset(path)
