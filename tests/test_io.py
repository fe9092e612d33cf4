"""Loading, validation and round-tripping of the CSV formats."""

import pytest

from fuzzyrel import (
    AttributeSpec,
    CrispIdentity,
    DomainError,
    ExplicitMatrix,
    FormatError,
    FuzzyTuple,
    LevelMap,
    Linear,
    ValidationError,
    load_database,
    load_locations,
    load_matrix,
    load_relation,
    merge_relation,
    relation_to_csv,
)
from fuzzyrel.tables import format_grouping, format_table

from pathlib import Path

DATA = Path(__file__).resolve().parent.parent / "data"


class CountingCrisp(CrispIdentity):
    """Crisp identity that records each text it parses."""

    __slots__ = ("texts",)

    def __init__(self):
        super().__init__()
        self._set([])

    def parse(self, text):
        self.texts.append(text)
        return text


def linear_pair(tmp_path, text):
    path = tmp_path / "r.csv"
    path.write_text(text)
    return path, [AttributeSpec("A", Linear(10)), AttributeSpec("B", Linear(10))]


class TestLoadRelation:
    def test_suppliers_row_count(self, suppliers_db):
        assert len(suppliers_db.relation("SUPPLIERS")) == 18

    def test_set_valued_cell(self, tmp_path, hair_matrix):
        path = tmp_path / "r.csv"
        path.write_text("Hair\nBlond|Bleached\n")
        rel = load_relation(path, [AttributeSpec("Hair", hair_matrix)])
        assert rel.tuples[0].get("Hair") == frozenset({"Blond", "Bleached"})

    def test_numeric_cells_become_numbers(self, suppliers_db):
        statuses = {
            v for t in suppliers_db.relation("SUPPLIERS").tuples
            for v in t.get("STATUS")
        }
        assert all(isinstance(v, int) for v in statuses)

    def test_header_must_match_schema(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("Wrong\nx\n")
        with pytest.raises(FormatError):
            load_relation(path, [AttributeSpec("Right")])

    def test_cell_count_error_names_line(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("A,B\nx,y\nonly-one\n")
        with pytest.raises(FormatError, match=r":3:"):
            load_relation(path, [AttributeSpec("A"), AttributeSpec("B")])

    def test_out_of_range_numeric(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("S\n120\n")
        with pytest.raises(DomainError):
            load_relation(path, [AttributeSpec("S", Linear(100))])

    def test_unknown_label_rejected(self, tmp_path, effect_matrix):
        path = tmp_path / "r.csv"
        path.write_text("E\nMild\n")
        with pytest.raises(DomainError):
            load_relation(path, [AttributeSpec("E", effect_matrix)])

    def test_empty_set_member_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("A\nx||y\n")
        with pytest.raises(FormatError):
            load_relation(path, [AttributeSpec("A")])

    def test_an_error_after_a_blank_line_names_its_line(self, tmp_path):
        path, schema = linear_pair(tmp_path, "A,B\n1,2\n\n3,x\n")
        with pytest.raises(FormatError) as info:
            load_relation(path, schema)
        assert str(info.value) == f"{path}:4: 'x' is not a number in column 'B'"

    def test_digit_grouping_is_not_a_number(self, tmp_path):
        path, schema = linear_pair(tmp_path, "A,B\n1,2\n3,1_0\n")
        with pytest.raises(FormatError) as info:
            load_relation(path, schema)
        assert str(info.value) == f"{path}:3: '1_0' is not a number in column 'B'"

    def test_an_error_names_the_line_its_row_starts_on(self, tmp_path):
        # the quoted cell "1\n" spans lines 2 and 3
        path, schema = linear_pair(tmp_path, 'A,B\n"1\n",2\n3,x\n')
        with pytest.raises(FormatError, match=r"r\.csv:4: 'x'"):
            load_relation(path, schema)
        path.write_text('A,B\n \t, \n"x\n",2\n')
        with pytest.raises(FormatError, match=r"r\.csv:3: 'x' is not a number"):
            load_relation(path, schema)

    def test_blank_rows_are_skipped_and_duplicates_keep_the_first(self, tmp_path):
        path, schema = linear_pair(tmp_path, "\n A , B \n ,\n,\n1,2\n1.0, 2 \n\n3|1,2\n")
        rel = load_relation(path, schema)
        assert [t.components for t in rel.tuples] == [({1}, {2}), ({1, 3}, {2})]
        assert [type(v) for v in rel.tuples[0].get("A")] == [int]

    def test_duplicate_attribute_names_are_refused_after_every_cell(self, tmp_path):
        path = tmp_path / "r.csv"
        schema = [AttributeSpec("A"), AttributeSpec("A")]
        path.write_text("A,A\nx,y\nx,\n")
        with pytest.raises(FormatError, match=r":3: empty value in column 'A'"):
            load_relation(path, schema)
        path.write_text("A,B\nx,y\n")
        with pytest.raises(FormatError, match="does not match schema"):
            load_relation(path, schema)
        path.write_text("A,A\nx,y\n")
        with pytest.raises(ValidationError) as info:
            load_relation(path, schema)
        assert str(info.value) == "duplicate attribute names in schema: ('A', 'A')"

    def test_each_cell_text_is_parsed_once_per_load(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("A,B\nx,p\ny,p\nx,q\nx,p\ny, p\n")
        a, b = CountingCrisp(), CountingCrisp()
        schema = [AttributeSpec("A", a), AttributeSpec("B", b)]
        load_relation(path, schema)
        assert (a.texts, b.texts) == (["x", "y"], ["p", "q", "p"])
        load_relation(path, schema)
        assert (a.texts, b.texts) == (["x", "y"] * 2, ["p", "q", "p"] * 2)

    def test_equal_cell_texts_share_one_set(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("A,B\nx,p|q\ny,p|q\nz,q|p\n")
        rel = load_relation(path, [AttributeSpec("A"), AttributeSpec("B")])
        first, second, third = (t.get("B") for t in rel.tuples)
        assert first is second and first == third and first is not third

    def test_one_tuple_is_built_per_distinct_row(self, tmp_path, monkeypatch):
        path = tmp_path / "r.csv"
        path.write_text("A,B\nx,p\ny,p\nx,p\nx,p|p\nx,q\n")
        built = []
        trusted = FuzzyTuple._trusted

        def counted(names, components):
            built.append(components)
            return trusted(names, components)

        monkeypatch.setattr(FuzzyTuple, "_trusted", staticmethod(counted))
        rel = load_relation(path, [AttributeSpec("A"), AttributeSpec("B")])
        assert len(rel) == 3
        assert built == [t.components for t in rel.tuples]


class TestLoadMatrix:
    def test_effect_matrix(self, effect_matrix):
        assert len(effect_matrix.labels) == 8
        assert effect_matrix.degree("Minimal", "Irreversible") == 0.0

    def test_a_loaded_table_is_an_unordered_spec(self, effect_matrix):
        assert type(effect_matrix) is ExplicitMatrix
        assert effect_matrix.order is None and effect_matrix.embedding() is None

    def test_an_invalid_table_names_its_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("s,a,b\na,1.0,2.0\nb,2.0,1.0\n")
        with pytest.raises(ValidationError) as info:
            load_matrix(path)
        assert str(info.value) == f"{path}: degree 2.0 for (a, b) outside [0, 1]"

    def test_asymmetric_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("s,a,b\na,1.0,0.5\nb,0.4,1.0\n")
        with pytest.raises(ValidationError):
            load_matrix(path)

    def test_bad_diagonal_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("s,a,b\na,0.9,0.5\nb,0.5,1.0\n")
        with pytest.raises(ValidationError):
            load_matrix(path)

    def test_label_mismatch_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("s,a,b\nb,1.0,0.5\na,0.5,1.0\n")
        with pytest.raises(FormatError):
            load_matrix(path)

    @pytest.mark.parametrize("text", ["s,a,b\n\na,1.0,0.5\nb,0.5,x\n",
                                      's,a,b\na,1.0,"0.5\n"\nb,0.5,x\n'])
    def test_an_error_names_the_line_its_row_starts_on(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(FormatError) as info:
            load_matrix(path)
        assert str(info.value) == f"{path}:4: could not convert string to float: 'x'"


class TestLoadDatabase:
    def test_a_directory_without_a_schema_is_refused(self, tmp_path):
        with pytest.raises(FormatError, match="no schema.cfg in"):
            load_database(tmp_path)

    def test_an_ordinal_matrix_attribute_is_ordered_by_its_labels(self, arson_db,
                                                                  build_matrix):
        spec = arson_db.attribute("BUILD")
        assert type(spec) is AttributeSpec
        assert spec.proximity == ExplicitMatrix(build_matrix.labels, build_matrix.entries,
                                                build_matrix.labels)

    def test_configured_alphas_win(self, suppliers_db):
        assert suppliers_db.alphas == {"SNAME": 0.0}
        assert suppliers_db.levels() == LevelMap({"SNAME": 0.0})
        assert suppliers_db.levels(0.6) == LevelMap({"SNAME": 0.0, "STATUS": 0.6,
                                                     "CITY": 0.6})


class TestLoadLocations:
    def test_gb_coordinates(self):
        locs = load_locations(DATA / "gb" / "gb_locations.csv")
        assert locs["Peterborough"] == (1.7492, 1.5739)
        assert len(locs) == 23

    def test_header_required(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("name,x,y\nA,1,1\n")
        with pytest.raises(FormatError):
            load_locations(path)

    @pytest.mark.parametrize("text", ["label,x,y\nA,1,1\n\nA,2,2\n",
                                      'label,x,y\n"A\n",1,1\nA,2,2\n'])
    def test_an_error_names_the_line_its_row_starts_on(self, tmp_path, text):
        path = tmp_path / "l.csv"
        path.write_text(text)
        with pytest.raises(FormatError) as info:
            load_locations(path)
        assert str(info.value) == f"{path}:4: duplicate label 'A'"


class TestRoundTrip:
    def test_plain_relation(self, tmp_path, suppliers_db):
        rel = suppliers_db.relation("SUPPLIERS")
        path = tmp_path / "out.csv"
        path.write_text(relation_to_csv(rel))
        assert load_relation(path, rel.schema) == rel

    def test_merged_relation_with_set_cells(self, tmp_path, suppliers_db):
        rel = merge_relation(
            suppliers_db.relation("SUPPLIERS"), suppliers_db.levels(0.6)
        )
        path = tmp_path / "out.csv"
        path.write_text(relation_to_csv(rel))
        assert load_relation(path, rel.schema) == rel


class TestRendering:
    def test_deterministic(self, suppliers_db):
        rel = merge_relation(
            suppliers_db.relation("SUPPLIERS"), suppliers_db.levels(0.6)
        )
        assert format_table(rel) == format_table(rel)
        assert relation_to_csv(rel) == relation_to_csv(rel)

    def test_braces_only_for_multivalue_cells(self, suppliers_db):
        text = format_table(suppliers_db.relation("SUPPLIERS"))
        assert "{" not in text  # all input cells are singletons

    def test_grouping_format(self, suppliers_db):
        from fuzzyrel import classes_over, partition_line

        g = classes_over(
            suppliers_db.temporal_domain("STATUS"), partition_line(100, 0.8)
        )
        lines = format_grouping(g).splitlines()
        assert lines[0] == "1: {10}"
        assert lines[-1] == "5: {80, 90}"
