"""Tuple interpretations, thresholds, redundancy, merging and the operators."""

import collections
import gc
import itertools
import pickle
import random
import types

import pytest
from hypothesis import given, settings, strategies as st

from fuzzyrel import (
    AttributeSpec,
    DomainError,
    ExplicitMatrix,
    FuzzyRelation,
    FuzzyTuple,
    LevelMap,
    Linear,
    Planar,
    SchemaMismatchError,
    UnknownAttributeError,
    UnknownValueError,
    ValidationError,
    build_ordinal_matrix,
    class_grouping,
    interpretations,
    join,
    merge_relation,
    merge_tuples,
    project,
    redundant,
    select,
    thres,
    valid_tuple,
)
from fuzzyrel import algebra
from fuzzyrel.partition import cell_key, partition_line


def tup(mapping):
    return FuzzyTuple.of(mapping)


def tuple_sets(relation):
    return {t: None for t in relation.tuples}.keys()


@pytest.fixture(scope="module")
def experts_projected(survey_db):
    rel = select(survey_db.relation("SURVEY"), [("Type", "Expert")])
    return project(rel, ["Pollutant", "Name", "Effect"],
                   LevelMap({"Effect": 0.85, "Name": 0.0}))


class TestFromRows:
    """Every value is checked against its column's spec when rows are built."""

    SCHEMA = (AttributeSpec("X", Linear(10)), AttributeSpec("K"))

    def test_true_is_checked_beside_an_equal_one(self):
        with pytest.raises(UnknownValueError, match="cannot interpret True"):
            FuzzyRelation.from_rows(self.SCHEMA, [(1, "a"), (True, "b")])

    def test_value_outside_the_domain(self):
        with pytest.raises(DomainError, match="value 500.0 outside"):
            FuzzyRelation.from_rows(self.SCHEMA, [(1, "a"), ({2, 500}, "b")])

    def test_unknown_planar_label_and_matrix_label(self, effect_matrix):
        planar = (AttributeSpec("P", Planar(10, {"A": (1, 1)})),)
        with pytest.raises(UnknownValueError, match="no location known for 'B'"):
            FuzzyRelation.from_rows(planar, [("A",), ("B",)])
        matrix = (AttributeSpec("E", ExplicitMatrix(effect_matrix)),)
        with pytest.raises(UnknownValueError, match="'Mild' not in matrix domain"):
            FuzzyRelation.from_rows(matrix, [("Severe",), ("Mild",)])


class TestInterpretations:
    def test_product(self):
        t = tup({"X": {"a", "b"}, "Y": {"c"}})
        assert interpretations(t) == {("a", "c"), ("b", "c")}

    def test_singletons_have_one_interpretation(self):
        t = tup({"X": "a", "Y": "c"})
        assert interpretations(t) == {("a", "c")}

    def test_count_of_wide_tuple(self):
        t = tup({
            "Name": {"A", "D", "G", "H"},
            "Effect": {"Limited", "Moderate", "Tolerable"},
        })
        assert len(interpretations(t)) == 12


class TestThres:
    def test_singleton_components_score_one(self, effect_matrix):
        schema = (AttributeSpec("Effect", ExplicitMatrix(effect_matrix)),)
        rel = FuzzyRelation.from_rows(schema, [{"Effect": "Severe"}])
        assert thres(rel, "Effect") == 1.0

    def test_empty_relation_scores_one(self, effect_matrix):
        schema = (AttributeSpec("Effect", ExplicitMatrix(effect_matrix)),)
        assert thres(FuzzyRelation(schema, ()), "Effect") == 1.0

    def test_merged_experts(self, experts_projected):
        assert thres(experts_projected, "Effect") == pytest.approx(0.85)

    def test_unknown_attribute(self, experts_projected):
        with pytest.raises(UnknownAttributeError):
            thres(experts_projected, "Smell")


class TestValidTuple:
    def test_singletons_always_valid(self, effect_matrix):
        schema = (AttributeSpec("Effect", ExplicitMatrix(effect_matrix)),)
        t = tup({"Effect": "Severe"})
        assert valid_tuple(schema, t, LevelMap({"Effect": 1.0}))

    def test_spread_component_fails(self, effect_matrix):
        schema = (AttributeSpec("Effect", ExplicitMatrix(effect_matrix)),)
        t = tup({"Effect": {"Minimal", "Irreversible"}})
        assert not valid_tuple(schema, t, LevelMap({"Effect": 0.5}))

    def test_close_component_passes(self, hair_matrix):
        schema = (AttributeSpec("Hair", ExplicitMatrix(hair_matrix)),)
        t = tup({"Hair": {"Blond", "Bleached"}})
        assert valid_tuple(schema, t, LevelMap({"Hair": 0.7}))

    def test_tuple_named_otherwise_is_a_schema_mismatch(self, effect_matrix):
        schema = (AttributeSpec("Effect", ExplicitMatrix(effect_matrix)),)
        with pytest.raises(SchemaMismatchError):
            valid_tuple(schema, tup({"Smell": "Severe"}), LevelMap({"Smell": 0.5}))


class TestRedundant:
    def test_identical_singleton_tuples(self, effect_matrix):
        schema = (
            AttributeSpec("Name"),
            AttributeSpec("Effect", ExplicitMatrix(effect_matrix)),
        )
        rel = FuzzyRelation(schema, ())
        t = tup({"Name": "A", "Effect": "Severe"})
        assert redundant(rel, t, t, LevelMap())

    def test_arson_suspects_merge(self, hair_matrix, build_matrix):
        schema = (
            AttributeSpec("NAME"),
            AttributeSpec("HAIR", ExplicitMatrix(hair_matrix)),
            AttributeSpec("BUILD", ExplicitMatrix(build_matrix)),
        )
        rel = FuzzyRelation(schema, ())
        gary = tup({"NAME": "Gary", "HAIR": "Bleached", "BUILD": "Very large"})
        james = tup({"NAME": "James", "HAIR": "Blond", "BUILD": "Large"})
        levels = LevelMap({"NAME": 0.0, "HAIR": 0.7, "BUILD": 0.7})
        assert redundant(rel, gary, james, levels)

    def test_class_mode_shares_cells(self, suppliers_db):
        rel = suppliers_db.relation("SUPPLIERS")
        bagins = tup({"SNAME": "Bagins", "STATUS": 20, "CITY": "Shire"})
        proudfoot = tup({"SNAME": "Proudfoot", "STATUS": 30, "CITY": "Shire"})
        assert redundant(rel, bagins, proudfoot, suppliers_db.levels(0.6))

    def test_schema_mismatch(self, effect_matrix):
        schema = (AttributeSpec("Effect", ExplicitMatrix(effect_matrix)),)
        rel = FuzzyRelation(schema, ())
        with pytest.raises(SchemaMismatchError):
            redundant(rel, tup({"Other": "x"}), tup({"Other": "y"}), LevelMap())

    def test_closure_class_of_a_value_the_relation_lacks(self):
        # closure classes come from r's content, which holds no 5
        rel = FuzzyRelation.from_rows((AttributeSpec("X", Linear(10)),), [(1,), (2,)])
        with pytest.raises(UnknownValueError, match="^value 5 is in no class$"):
            redundant(rel, rel.tuples[0], tup({"X": 5}), LevelMap({"X": 0.5}), "closure")


class TestMergeTuples:
    def test_idempotent(self):
        t = tup({"X": {"a", "b"}})
        assert merge_tuples(t, t) == t

    def test_componentwise_union(self):
        t1 = tup({"X": "A", "Y": "Limited"})
        t2 = tup({"X": "D", "Y": "Moderate"})
        assert merge_tuples(t1, t2) == tup(
            {"X": {"A", "D"}, "Y": {"Limited", "Moderate"}}
        )

    def test_mismatch(self):
        with pytest.raises(SchemaMismatchError):
            merge_tuples(tup({"X": "a"}), tup({"Y": "a"}))


class TestMergeRelation:
    def test_fixpoint_already(self, effect_matrix):
        schema = (AttributeSpec("Effect", ExplicitMatrix(effect_matrix)),)
        rel = FuzzyRelation.from_rows(
            schema, [{"Effect": "Severe"}, {"Effect": "Minimal"}]
        )
        assert merge_relation(rel, LevelMap({"Effect": 0.85})) == rel

    def test_experts_pipeline(self, experts_projected):
        expected = {
            tup({"Pollutant": "Oil", "Name": {"A", "D", "G", "H"},
                 "Effect": {"Limited", "Moderate", "Tolerable"}}),
            tup({"Pollutant": "Dioxin", "Name": {"A", "G"}, "Effect": "Severe"}),
            tup({"Pollutant": "Dioxin", "Name": "D", "Effect": "Major"}),
            tup({"Pollutant": "Dioxin", "Name": "H", "Effect": "Moderate"}),
            tup({"Pollutant": "Wastewater", "Name": {"A", "D", "G", "H"},
                 "Effect": {"Minimal", "Limited", "Tolerable"}}),
        }
        assert set(experts_projected.tuples) == expected

    def test_merging_is_idempotent(self, suppliers_db):
        levels = suppliers_db.levels(0.6)
        once = merge_relation(suppliers_db.relation("SUPPLIERS"), levels)
        twice = merge_relation(once, levels)
        assert set(once.tuples) == set(twice.tuples)


class CountingMatrix(ExplicitMatrix):
    """A matrix spec that counts degree evaluations, compilations and cuts."""

    def __init__(self, matrix):
        super().__init__(matrix)
        object.__setattr__(self, "calls", collections.Counter())

    def degree(self, x, y):
        self.calls["degree"] += 1
        return super().degree(x, y)

    def compile(self, values):
        self.calls["compile"] += 1
        return CountingCut(super().compile(values), self.calls)


class CountingCut:
    def __init__(self, cut, calls):
        self.cut, self.calls = cut, calls

    def near(self, x, level):
        self.calls["near"] += 1
        return self.cut.near(x, level)


def keyed_rows(effect_matrix, count):
    """``count`` distinct rows over three Effect labels, told apart by KEY."""
    spec = CountingMatrix(effect_matrix)
    schema = (AttributeSpec("KEY"), AttributeSpec("E", spec))
    labels = ("Minimal", "Tolerable", "Irreversible")
    rel = FuzzyRelation.from_rows(schema, [(k, labels[k % 3]) for k in range(count)])
    spec.calls.clear()  # from_rows compiles each column once to check it
    return rel, spec


def linear_rows(count):
    """``count`` distinct rows over two interval-class columns, told apart by KEY."""
    schema = (AttributeSpec("KEY"), AttributeSpec("X", Linear(10), "interval"),
              AttributeSpec("Y", Linear(10), "interval"))
    return FuzzyRelation.from_rows(schema, [(k, k % 11, k % 7) for k in range(count)])


@pytest.fixture
def groupings_formed(monkeypatch):
    """Counts ``class_grouping`` calls by attribute name and method."""
    calls = collections.Counter()

    def counted(attr, method, level, values):
        calls[attr.name, method] += 1
        return class_grouping(attr, method, level, values)

    monkeypatch.setattr(algebra, "class_grouping", counted)
    return calls


@pytest.fixture
def cells_computed(monkeypatch):
    """Counts the algebra's cell computations by (partitioner, value)."""
    calls = collections.Counter()

    def counted(partitioner, resolve=None):
        key = cell_key(partitioner, resolve)

        def counting(v):
            calls[partitioner, v] += 1
            return key(v)
        return counting

    monkeypatch.setattr(algebra, "cell_key", counted)
    return calls


def cells(alpha, values, mode="standard"):
    """Each value's cell on [0, 10] at ``alpha``, computed once."""
    return {(partition_line(10, alpha, mode), v): 1 for v in values}


class TestEvaluationCounts:
    """No degree is evaluated: select and merge look up alpha-cut neighbourhoods.

    A value's cell is computed once per attribute spec, method and level,
    for every relation with that spec; closure classes and threshold cuts
    are formed per call, over the values the call sees.  Each test builds
    its own specs, so no other test's memo changes a count.
    """

    def test_select_one_lookup_per_condition(self, effect_matrix):
        rel, spec = keyed_rows(effect_matrix, 60)
        got = select(rel, [("E", "Tolerable")], LevelMap({"E": 0.8}))
        assert spec.calls == {"compile": 1, "near": 1}
        assert [t.get("KEY") for t in got.tuples] == [
            frozenset({k}) for k in range(60) if k % 3 != 2]
        # the compiled column is kept: a second select only looks up
        select(rel, [("E", "Minimal"), ("E", "Tolerable")], LevelMap({"E": 0.8}))
        assert spec.calls == {"compile": 1, "near": 3}

    def test_merge_one_neighbourhood_per_value(self, effect_matrix):
        rel, spec = keyed_rows(effect_matrix, 60)
        merged = merge_relation(rel, LevelMap({"KEY": 0.0, "E": 0.8}))
        assert spec.calls["degree"] == 0
        assert spec.calls["compile"] == 1
        assert spec.calls["near"] <= 3
        assert [t.get("E") for t in merged.tuples] == [
            frozenset({"Minimal", "Tolerable"}), frozenset({"Irreversible"})]

    def test_index_is_built_on_first_use_and_hidden(self, suppliers_db):
        rel = suppliers_db.relation("SUPPLIERS")
        assert rel._indexes == {}
        before = repr(rel)
        select(rel, [("STATUS", 20)], LevelMap({"STATUS": 0.9}))
        assert rel._indexes
        assert repr(rel) == before
        assert rel == FuzzyRelation(rel.schema, rel.tuples)

    def test_cells_are_computed_once_per_spec_method_and_level(self, cells_computed):
        rel = linear_rows(40)
        levels = LevelMap({"X": 0.8})
        first = project(rel, ["X"], levels)
        assert project(rel, ["X"], levels) == first
        assert cells_computed == cells(0.8, range(11))
        # every relation over X's spec keys by its memo: a select, a project
        # of the project, a join of two of its projections
        project(select(rel, [("Y", 3)], LevelMap({"Y": 0.9})), ["X"], levels)
        project(first, ["X"], levels)
        join(project(rel, ["KEY", "X"], levels), first, ["X"], levels)
        assert cells_computed == cells(0.8, range(11))
        # another method or level computes each cell once more
        project(rel, ["X"], levels, "equalized")
        project(rel, ["X"], LevelMap({"X": 0.9}))
        assert cells_computed == (cells(0.8, range(11)) | cells(0.9, range(11))
                                  | cells(0.8, range(11), "equalized"))

    def test_two_stored_relations_with_one_spec_compute_each_cell_once(self, cells_computed):
        x = AttributeSpec("X", Linear(10), "interval")
        left = FuzzyRelation.from_rows((AttributeSpec("K"), x),
                                       [(k, k % 11) for k in range(30)])
        right = FuzzyRelation.from_rows((AttributeSpec("L"), x),
                                        [(k, k % 7 + 4) for k in range(30)])
        levels = LevelMap({"X": 0.8, "K": 0.0, "L": 0.0})
        assert len(join(left, right, ["X"], levels)) > 0
        assert cells_computed == cells(0.8, range(11))
        project(left, ["X"], levels)
        project(right, ["X"], levels)
        assert cells_computed == cells(0.8, range(11))

    def test_renamed_join_column_shares_its_source_cells(self, cells_computed):
        x = AttributeSpec("X", Linear(10), "interval")
        left = FuzzyRelation.from_rows((AttributeSpec("K"), x),
                                       [(k % 5, k % 11) for k in range(30)])
        right = FuzzyRelation.from_rows((AttributeSpec("K"), x),
                                        [(k % 5, k % 7 + 4) for k in range(30)])
        levels = LevelMap({"X": 0.8})
        first = join(left, right, ["K"], levels)
        assert first.names == ("K", "X", "X_2")
        assert cells_computed == cells(0.8, range(11))
        # a repeated join's X_2 keys by X's memo: no cell is computed again
        cells_computed.clear()
        for _ in range(2):
            assert join(left, right, ["K"], levels) == first
        assert sum(cells_computed.values()) == 0

    def test_closure_and_threshold_checks_are_built_on_every_call(
            self, effect_matrix, groupings_formed):
        rel, spec = keyed_rows(effect_matrix, 30)
        levels = LevelMap({"E": 0.8})
        for _ in range(2):
            project(rel, ["E"], levels)
        assert spec.calls["compile"] == 2
        for _ in range(2):
            project(rel, ["E"], levels, "closure")
        assert groupings_formed == {("E", "closure"): 2}
        assert spec.calls["compile"] == 4  # each closure walks a new cut

    def test_cell_memos_kept_per_spec_are_bounded(self, cells_computed):
        rel = linear_rows(40)
        alphas = [0.5 + k / 100 for k in range(40)]
        first = [project(rel, ["X"], LevelMap({"X": a})) for a in alphas]
        kept = algebra._MAX_CELL_MEMOS
        assert list(rel.schema[1]._cells) == [("interval", a) for a in alphas[-kept:]]
        # the newest are kept; the oldest were dropped and are computed again
        assert [project(rel, ["X"], LevelMap({"X": a}))
                for a in alphas[-kept:]] == first[-kept:]
        assert sum(cells_computed.values()) == 40 * 11
        assert project(rel, ["X"], LevelMap({"X": alphas[0]})) == first[0]
        assert sum(cells_computed.values()) == 41 * 11

    def test_cell_memo_starts_afresh_at_its_bound(self):
        # fresh values through one spec, as from relation after relation
        x = AttributeSpec("X", Linear(100), "interval")
        rng = random.Random(1)
        bound = algebra._MAX_MEMO_CELLS
        for _ in range(3):
            rel = FuzzyRelation.from_rows(
                (x,), [(rng.uniform(0, 100),) for _ in range(bound // 2 + 1)])
            merge_relation(rel, LevelMap({"X": 0.9}))
            memo = x._cells["interval", 0.9]
            assert 0 < len(memo) <= bound
        key = cell_key(partition_line(100, 0.9), x.proximity.embedding()[2])
        assert all(cell == key(v) for v, cell in memo.items())

    def test_repeated_join_computes_no_cell(self, cells_computed):
        k = AttributeSpec("K")
        left = FuzzyRelation.from_rows((k, AttributeSpec("X", Linear(10), "interval")),
                                       [(i, i % 11) for i in range(30)])
        right = FuzzyRelation.from_rows((k, AttributeSpec("Y", Linear(10), "interval")),
                                        [(i, i % 7) for i in range(30)])
        levels = LevelMap({"X": 0.8, "Y": 0.8})
        first = join(left, right, ["K"], levels)
        computed = dict(cells_computed)
        assert computed
        assert join(left, right, ["K"], levels) == first
        assert cells_computed == computed

    def test_cell_memos_are_hidden(self):
        rel = linear_rows(40)
        project(rel, ["X"], LevelMap({"X": 0.8}))
        x = rel.schema[1]
        assert x._cells
        fresh = AttributeSpec("X", Linear(10), "interval")
        assert x == fresh and repr(x) == repr(fresh)
        assert pickle.loads(pickle.dumps(x))._cells == {}

    def test_no_cell_is_computed_for_a_column_no_check_reaches(self, cells_computed):
        rel = linear_rows(40)
        select(rel, [("X", 5)], LevelMap({"X": 0.8}))
        assert cells_computed == {}
        project(rel, ["X", "Y"], LevelMap({"X": 0.8, "Y": 0.0}))
        project(rel, ["X"], LevelMap({"X": 0.8}), "threshold")
        assert cells_computed == cells(0.8, range(11))
        assert [list(a._cells) for a in rel.schema] == [[], [("interval", 0.8)], []]


class TestSelect:
    def test_crisp_condition(self, survey_db):
        experts = select(survey_db.relation("SURVEY"), [("Type", "Expert")])
        assert len(experts) == 12

    def test_tolerant_conditions(self, arson_db):
        rel = arson_db.relation("PHYSICAL CHARACTERISTICS")
        levels = LevelMap({"HAIR COLOR": 0.7, "BUILD": 0.7})
        got = select(
            rel, [("HAIR COLOR", "Blond"), ("BUILD", "Large")], levels
        )
        names = {v for t in got.tuples for v in t.get("NAME")}
        assert names == {"Gary", "James"}

    def test_level_zero_keeps_everything(self, survey_db):
        rel = survey_db.relation("SURVEY")
        got = select(rel, [("Type", "Expert")], LevelMap({"Type": 0.0}))
        assert len(got) == len(rel)

    def test_linear_text_constant_reads_as_its_number(self):
        rel = FuzzyRelation.from_rows((AttributeSpec("X", Linear(100)),),
                                      [(v,) for v in (60, 64.4, 70, 90)])
        levels = LevelMap({"X": 0.95})
        got = select(rel, [("X", "64.4")], levels)
        assert got == select(rel, [("X", 64.4)], levels)
        assert [t.get("X") for t in got.tuples] == [{60}, {64.4}]


class TestProject:
    def test_all_attributes_is_duplicate_elimination(self, survey_db):
        rel = survey_db.relation("SURVEY")
        assert project(rel, list(rel.names)) == rel

    def test_residents(self, survey_db):
        residents = select(survey_db.relation("SURVEY"), [("Type", "Resident")])
        got = project(residents, ["Pollutant", "Name", "Effect"],
                      LevelMap({"Effect": 0.85, "Name": 0.0}))
        assert len(got) == 8

    def test_unknown_attribute(self, survey_db):
        with pytest.raises(UnknownAttributeError):
            project(survey_db.relation("SURVEY"), ["Pollutant", "Smell"])

    def test_attribute_named_twice(self, survey_db):
        with pytest.raises(ValidationError, match="duplicate attribute names"):
            project(survey_db.relation("SURVEY"), ["Pollutant", "Pollutant"])

    def test_cell_check_places_the_values_of_the_rows_it_keys(self):
        # a relation built without from_rows holds 500, outside [0, 10]
        schema = (AttributeSpec("X", Linear(10), "interval"), AttributeSpec("K"))
        rel = FuzzyRelation(schema, (tup({"X": 1, "K": "a"}), tup({"X": 500, "K": "b"})))
        levels = LevelMap({"X": 0.8})
        kept = select(rel, [("K", "a")])
        assert kept.tuples == (tup({"X": 1, "K": "a"}),)
        # no check keys the row the select dropped
        for mode in (None, "threshold", "closure"):
            assert len(project(kept, ["X"], levels, mode)) == 1
        # in a kept row, 500 raises when the merge keys it, each time, as it
        # does in a fresh copy
        dropped = select(rel, [("K", "b")])
        for r in (dropped, dropped, FuzzyRelation(dropped.schema, dropped.tuples)):
            with pytest.raises(DomainError, match="value 500.0 outside"):
                project(r, ["X"], levels)


def _reachable(root) -> set[int]:
    """Ids of the objects ``root`` reaches, not through classes or code."""
    seen, todo = {id(root)}, [root]
    while todo:
        for obj in gc.get_referents(todo.pop()):
            if id(obj) not in seen and not isinstance(
                    obj, (type, types.ModuleType, types.FunctionType)):
                seen.add(id(obj))
                todo.append(obj)
    return seen


class TestJoin:
    def test_output_keeps_no_input_row_alive(self):
        # the join attribute's two columns come from two stored relations:
        # whichever checks ran, neither a spec's cell memos nor a closure
        # check's grouping holds the projected rows
        schema = (AttributeSpec("X", Linear(10), "interval"), AttributeSpec("K"))
        stored = [FuzzyRelation.from_rows(schema, rows)
                  for rows in ([(1, "a"), (2, "b")], [(2, "c"), (9, "d")])]
        left, right = (project(r, ["X", "K"]) for r in stored)
        rows = {id(t) for t in left.tuples + right.tuples}
        for mode, level in (("threshold", 0.8), ("closure", 0.8), (None, 0.0), (None, 0.8)):
            got = join(left, right, ["X"], LevelMap({"X": level}), mode)
            assert got.tuples and not rows & _reachable(got)

    def test_right_columns_keep_their_specs_unless_renamed(self):
        x, y = AttributeSpec("X", Linear(10), "interval"), AttributeSpec("Y", Linear(10))
        left = FuzzyRelation.from_rows((AttributeSpec("K"), x), [("a", 1)])
        right = FuzzyRelation.from_rows((AttributeSpec("K"), x, y), [("a", 2, 3)])
        got = join(left, right, ["K"])
        assert got.names == ("K", "X", "X_2", "Y")
        assert got.attribute("X") is x and got.attribute("Y") is y
        assert got.attribute("X_2") is not x
        assert got.attribute("X_2") == AttributeSpec("X_2", Linear(10), "interval")

    def test_crisp_key_is_natural_join(self):
        left = FuzzyRelation.from_rows(
            (AttributeSpec("K"), AttributeSpec("L")),
            [("k1", "a"), ("k2", "b")],
        )
        right = FuzzyRelation.from_rows(
            (AttributeSpec("K"), AttributeSpec("R")),
            [("k1", "x"), ("k3", "y")],
        )
        got = join(left, right, ["K"])
        assert set(got.tuples) == {tup({"K": "k1", "L": "a", "R": "x"})}

    def test_empty_right_side(self):
        left = FuzzyRelation.from_rows(
            (AttributeSpec("K"), AttributeSpec("L")), [("k1", "a")]
        )
        right = FuzzyRelation((AttributeSpec("K"), AttributeSpec("R")), ())
        assert len(join(left, right, ["K"])) == 0

    def test_colliding_column_gets_suffix(self):
        left = FuzzyRelation.from_rows(
            (AttributeSpec("K"), AttributeSpec("Name")), [("k1", "a")]
        )
        right = FuzzyRelation.from_rows(
            (AttributeSpec("K"), AttributeSpec("Name")), [("k1", "x")]
        )
        got = join(left, right, ["K"])
        assert got.names == ("K", "Name", "Name_2")

    def test_incompatible_join_attribute(self, effect_matrix):
        left = FuzzyRelation((AttributeSpec("K"),), ())
        right = FuzzyRelation(
            (AttributeSpec("K", ExplicitMatrix(effect_matrix)),), ()
        )
        with pytest.raises(SchemaMismatchError):
            join(left, right, ["K"])

    def test_missing_join_attribute(self):
        left = FuzzyRelation((AttributeSpec("K"),), ())
        right = FuzzyRelation((AttributeSpec("J"),), ())
        with pytest.raises(SchemaMismatchError):
            join(left, right, ["K"])

    def test_join_attribute_named_twice(self):
        rel = FuzzyRelation.from_rows((AttributeSpec("X", Linear(10)),), [(1,), (2,)])
        with pytest.raises(ValidationError, match="duplicate join attributes"):
            join(rel, rel, ["X", "X"])


class TestLevelMap:
    def test_default_is_one(self):
        assert LevelMap().level("anything") == 1.0

    def test_suffix_falls_back(self):
        levels = LevelMap({"Name": 0.0})
        assert levels.level("Name_2") == 0.0
        assert levels.level("Name_2_2") == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            LevelMap({"X": 1.5})


class TestRedundancyIsEquivalence:
    """Brute-force reflexivity, symmetry and transitivity on small relations."""

    @given(st.lists(st.integers(0, 100), min_size=3, max_size=5),
           st.sampled_from([0.3, 0.6, 0.8]))
    def test_class_mode(self, statuses, alpha):
        schema = (AttributeSpec("S", Linear(100), "interval"),)
        rel = FuzzyRelation.from_rows(schema, [(s,) for s in statuses])
        levels = LevelMap({"S": alpha})
        ts = rel.tuples
        for a in ts:
            assert redundant(rel, a, a, levels)
        for a in ts:
            for b in ts:
                assert redundant(rel, a, b, levels) == redundant(rel, b, a, levels)
                for c in ts:
                    if redundant(rel, a, b, levels) and redundant(rel, b, c, levels):
                        assert redundant(rel, a, c, levels)

    @given(effects=st.lists(st.sampled_from(
        ["Minimal", "Limited", "Tolerable", "Moderate", "Severe"]),
        min_size=3, max_size=5),
        alpha=st.sampled_from([0.75, 0.85, 0.9]))
    def test_threshold_mode_with_similarity_matrix(self, effect_matrix, effects, alpha):
        schema = (AttributeSpec("E", ExplicitMatrix(effect_matrix)),)
        rel = FuzzyRelation.from_rows(schema, [(e,) for e in effects])
        levels = LevelMap({"E": alpha})
        ts = rel.tuples
        for a in ts:
            for b in ts:
                assert redundant(rel, a, b, levels) == redundant(rel, b, a, levels)
                for c in ts:
                    if redundant(rel, a, b, levels) and redundant(rel, b, c, levels):
                        assert redundant(rel, a, c, levels)


RANKS = ("R0", "R1", "R2", "R3", "R4", "R5", "R6")
SITES = {"A": (0.0, 0.0), "B": (1.5, 2.0), "C": (5.0, 5.0), "D": (9.9, 0.2),
         "E": (10.0, 10.0), "F": (4.9, 5.1), "G": (2.5, 7.5), "H": (3.3, 3.4)}
CLASS_PATH_DOMAINS = {
    "linear": (AttributeSpec("X", Linear(10)),
               st.one_of(st.integers(0, 10), st.floats(0, 10))),
    "ordinal": (AttributeSpec("X", ExplicitMatrix(build_ordinal_matrix(RANKS), RANKS)),
                st.sampled_from(RANKS)),
    "planar": (AttributeSpec("X", Planar(10, SITES)), st.sampled_from(sorted(SITES))),
}


@st.composite
def attribute_and_values(draw):
    attr, values = CLASS_PATH_DOMAINS[draw(st.sampled_from(sorted(CLASS_PATH_DOMAINS)))]
    return attr, draw(st.lists(values, min_size=2, max_size=8, unique=True))


class TestOneClassPath:
    """``class_grouping`` and merging decide classes by the same rule."""

    @settings(max_examples=300)
    @given(case=attribute_and_values(),
           method=st.sampled_from(["interval", "equalized", "grid", "closure"]),
           level=st.sampled_from([0.0, 0.3, 0.45, 0.6, 2 / 3, 0.7, 0.8, 0.95, 1.0]))
    def test_shared_class_iff_singletons_merge(self, case, method, level):
        attr, values = case
        rel = FuzzyRelation.from_rows((attr,), [(v,) for v in values])
        grouping = class_grouping(attr, method, level, values)
        levels = LevelMap({"X": level})
        for t1, t2 in itertools.combinations(rel.tuples, 2):
            (x,), (y,) = t1.components[0], t2.components[0]
            same = grouping.class_index(x) == grouping.class_index(y)
            assert same == redundant(rel, t1, t2, levels, method)

    @settings(max_examples=300)
    @given(case=attribute_and_values(),
           method=st.sampled_from(["interval", "equalized", "grid", "closure"]),
           level=st.sampled_from([0.0, 0.3, 0.45, 0.6, 2 / 3, 0.7, 0.8, 0.95, 1.0]))
    def test_shared_class_iff_singletons_join(self, case, method, level):
        attr, values = case
        levels = LevelMap({"X": level})
        for x, y in itertools.combinations(values, 2):
            left = FuzzyRelation.from_rows((attr,), [(x,)])
            right = FuzzyRelation.from_rows((attr,), [(y,)])
            # a join forms its classes over the values of both sides
            grouping = class_grouping(attr, method, level, {x, y})
            same = grouping.class_index(x) == grouping.class_index(y)
            assert same == (len(join(left, right, ["X"], levels, method)) > 0)
