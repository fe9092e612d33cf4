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
    CrispIdentity,
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
    load_relation,
    merge_relation,
    project,
    redundant,
    select,
    thres,
    valid_tuple,
)
from fuzzyrel import algebra, proximity
from fuzzyrel.partition import Grouping, cell_key, partition_line


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
        matrix = (AttributeSpec("E", effect_matrix),)
        with pytest.raises(UnknownValueError, match="'Mild' not in matrix domain"):
            FuzzyRelation.from_rows(matrix, [("Severe",), ("Mild",)])

    def test_tuple_value_is_one_planar_point(self):
        schema = (AttributeSpec("P", Planar(10, {"C": (5.0, 5.0)})),)
        r = FuzzyRelation.from_rows(schema, [((2.0, 3.0),), ((5.0, 5.1),),
                                             ({(5.0, 4.9), "C"},)])
        assert [t.components for t in r.tuples] == [
            (frozenset({(2.0, 3.0)}),), (frozenset({(5.0, 5.1)}),),
            (frozenset({(5.0, 4.9), "C"}),)]
        assert merge_relation(r, LevelMap({"P": 0.9})).tuples == (
            tup({"P": (2.0, 3.0)}), tup({"P": {(5.0, 5.1), (5.0, 4.9), "C"}}))


    def test_kept_cut_holds_the_values_distinct_by_equality(self):
        # 1 and 1.0 are checked apart and kept as one value, "1" is another
        r = FuzzyRelation.from_rows(self.SCHEMA, [(1, "a"), (1.0, "b"), ("1", "c"), (5, "d")])
        assert r._sources[0].cut().positions() == {1: 0, "1": 1, 5: 2}
        merged = merge_relation(r, LevelMap({"X": 0.9, "K": 0.0}))
        assert [t.get("X") for t in merged.tuples] == [{1, "1"}, {5}]

    @pytest.mark.parametrize("rows", [[(1, "a"), (True, "a")], [(True, "a"), (1, "a")]])
    def test_a_row_equal_to_an_earlier_one_is_checked(self, rows):
        with pytest.raises(UnknownValueError, match="cannot interpret True"):
            FuzzyRelation.from_rows(self.SCHEMA, rows)

    @pytest.mark.parametrize("rows", [[("b", (1, True)), ("a", (1, 1))],
                                      [("a", (1, 1)), ("b", (1, True))]])
    def test_every_planar_point_is_checked(self, rows):
        # (1, True) equals (1, 1), and each is checked in either order
        schema = (AttributeSpec("K"), AttributeSpec("P", Planar(10, {})))
        with pytest.raises(DomainError, match="must be a number, got True"):
            FuzzyRelation.from_rows(schema, rows)


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
        schema = (AttributeSpec("Effect", effect_matrix),)
        rel = FuzzyRelation.from_rows(schema, [{"Effect": "Severe"}])
        assert thres(rel, "Effect") == 1.0

    def test_empty_relation_scores_one(self, effect_matrix):
        schema = (AttributeSpec("Effect", effect_matrix),)
        assert thres(FuzzyRelation(schema, ()), "Effect") == 1.0

    def test_merged_experts(self, experts_projected):
        assert thres(experts_projected, "Effect") == pytest.approx(0.85)

    def test_unknown_attribute(self, experts_projected):
        with pytest.raises(UnknownAttributeError):
            thres(experts_projected, "Smell")


class TestValidTuple:
    def test_singletons_always_valid(self, effect_matrix):
        schema = (AttributeSpec("Effect", effect_matrix),)
        t = tup({"Effect": "Severe"})
        assert valid_tuple(schema, t, LevelMap({"Effect": 1.0}))

    def test_spread_component_fails(self, effect_matrix):
        schema = (AttributeSpec("Effect", effect_matrix),)
        t = tup({"Effect": {"Minimal", "Irreversible"}})
        assert not valid_tuple(schema, t, LevelMap({"Effect": 0.5}))

    def test_close_component_passes(self, hair_matrix):
        schema = (AttributeSpec("Hair", hair_matrix),)
        t = tup({"Hair": {"Blond", "Bleached"}})
        assert valid_tuple(schema, t, LevelMap({"Hair": 0.7}))

    def test_tuple_named_otherwise_is_a_schema_mismatch(self, effect_matrix):
        schema = (AttributeSpec("Effect", effect_matrix),)
        with pytest.raises(SchemaMismatchError):
            valid_tuple(schema, tup({"Smell": "Severe"}), LevelMap({"Smell": 0.5}))


class TestRedundant:
    def test_identical_singleton_tuples(self, effect_matrix):
        schema = (
            AttributeSpec("Name"),
            AttributeSpec("Effect", effect_matrix),
        )
        rel = FuzzyRelation(schema, ())
        t = tup({"Name": "A", "Effect": "Severe"})
        assert redundant(rel, t, t, LevelMap())

    def test_arson_suspects_merge(self, hair_matrix, build_matrix):
        schema = (
            AttributeSpec("NAME"),
            AttributeSpec("HAIR", hair_matrix),
            AttributeSpec("BUILD", build_matrix),
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
        schema = (AttributeSpec("Effect", effect_matrix),)
        rel = FuzzyRelation(schema, ())
        with pytest.raises(SchemaMismatchError):
            redundant(rel, tup({"Other": "x"}), tup({"Other": "y"}), LevelMap())

    def test_closure_class_of_a_value_the_relation_lacks(self):
        # closure classes come from r's content, which holds no 5
        rel = FuzzyRelation.from_rows((AttributeSpec("X", Linear(10)),), [(1,), (2,)])
        with pytest.raises(UnknownValueError, match="^value 5 is in no class$"):
            redundant(rel, rel.tuples[0], tup({"X": 5}), LevelMap({"X": 0.5}), "closure")

    @pytest.mark.parametrize("order", ["XY", "YX"])
    def test_rejected_class_value_raises_in_either_column_order(self, order):
        # the X pair fails its threshold at 0.9; t1 holds 50 on the interval Y
        specs = {"X": AttributeSpec("X", Linear(10)),
                 "Y": AttributeSpec("Y", Linear(10), "interval")}
        rel = FuzzyRelation(tuple(specs[n] for n in order), ())
        t1 = tup({n: {"X": 1, "Y": 50}[n] for n in order})
        t2 = tup({n: {"X": 5, "Y": 1}[n] for n in order})
        with pytest.raises(DomainError, match=r"^value 50\.0 outside \[0, 10\.0\]$"):
            redundant(rel, t1, t2, LevelMap({"X": 0.9, "Y": 0.9}))


class TestMergeRelation:
    def test_fixpoint_already(self, effect_matrix):
        schema = (AttributeSpec("Effect", effect_matrix),)
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

    def test_cell_method_on_an_unordered_matrix(self, effect_matrix, hair_matrix):
        # a max-min transitive table serves a merge's cell method by its
        # keys; a table without an order has no classes to list
        rel = FuzzyRelation.from_rows((AttributeSpec("E", effect_matrix, "grid"),),
                                      [(e,) for e in EFFECTS])
        levels = LevelMap({"E": 0.8})
        for mode in (None, "interval", "equalized"):
            assert merge_relation(rel, levels, mode) == merge_relation(rel, levels, "threshold")
        with pytest.raises(ValidationError, match="'E' does not support 'grid' classes"):
            class_grouping(rel.schema[0], "grid", 0.8, EFFECTS)
        # a non-transitive one has neither
        hair = FuzzyRelation.from_rows((AttributeSpec("H", hair_matrix),), [(h,) for h in HAIRS])
        with pytest.raises(ValidationError, match="'H' does not support 'interval' classes"):
            merge_relation(hair, LevelMap({"H": 0.8}), "interval")
        with pytest.raises(ValidationError, match="'H' does not support 'grid' classes"):
            AttributeSpec("H", hair_matrix, "grid")


class Counting:
    """Counts a spec's degree evaluations, compilations and cuts."""

    def degree(self, x, y):
        self.calls["degree"] += 1
        return super().degree(x, y)

    def compile(self, values):
        self.calls["compile"] += 1
        return CountingCut(super().compile(values), self.calls)


class CountingMatrix(Counting, ExplicitMatrix):
    def __init__(self, matrix):
        super().__init__(matrix.labels, matrix.entries)
        object.__setattr__(self, "calls", collections.Counter())


class CountingCrisp(Counting, CrispIdentity):
    def __init__(self):
        super().__init__()
        object.__setattr__(self, "calls", collections.Counter())


class CountingLinear(Counting, Linear):
    def __init__(self, length):
        super().__init__(length)
        object.__setattr__(self, "calls", collections.Counter())


class CountingPlanar(Counting, Planar):
    def __init__(self, side, locations):
        super().__init__(side, locations)
        object.__setattr__(self, "calls", collections.Counter())


class CountingCut:
    def __init__(self, cut, calls):
        self.cut, self.calls = cut, calls

    def __getattr__(self, name):
        return getattr(self.cut, name)

    def near(self, x, level):
        self.calls["near"] += 1
        return self.cut.near(x, level)

    def classes(self, level):
        # the wrapped cut's own classes, through the counted ``near``
        return type(self.cut).classes(self, level)


EFFECTS = ("Minimal", "Tolerable", "Irreversible")
HAIRS = ("Black", "Dark brown", "Bleached")


def keyed_rows(spec, values, count):
    """``count`` distinct rows over three values of ``spec``, told apart by KEY."""
    schema = (AttributeSpec("KEY"), AttributeSpec("E", spec))
    rel = FuzzyRelation.from_rows(schema, [(k, values[k % 3]) for k in range(count)])
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


@pytest.fixture
def masks_computed(monkeypatch):
    """Counts ``near_mask`` computations by (cut, value, level); each key
    holds its cut, so no two cuts share one."""
    calls = collections.Counter()
    for kind in (proximity._Cut, proximity._LineCut):
        near_mask = kind.near_mask

        def counted(cut, x, level, near_mask=near_mask):
            calls[cut, x, level] += 1
            return near_mask(cut, x, level)
        monkeypatch.setattr(kind, "near_mask", counted)
    return calls


def cells(alpha, values, mode="standard"):
    """Each value's cell on [0, 10] at ``alpha``, computed once."""
    return {(partition_line(10, alpha, mode), v): 1 for v in values}


class TestEvaluationCounts:
    """No degree is evaluated: select and merge look up alpha-cut neighbourhoods.

    A component's class key under cells or a spec's keys is found once per
    proximity spec, method and level, for every relation with that spec,
    and each value's cell once.  Closure classes are formed per call, over
    the values the call sees, and a closure check's keys last one call.  A
    threshold check reads the cut of its column's stored relation, which
    ``from_rows`` kept from checking the values, and the cut's memo of
    neighbourhood masks: each (cut, value, level) mask is computed once
    while the memo's bound holds it, and at most once per call.
    Linear closure classes come from sorted gaps, with no neighbourhood.
    Each test builds its own specs, so no other test's memo changes a count.
    """

    def test_select_one_lookup_per_condition(self, effect_matrix):
        rel, spec = keyed_rows(CountingMatrix(effect_matrix), EFFECTS, 60)
        got = select(rel, [("E", "Tolerable")], LevelMap({"E": 0.8}))
        # the cut from_rows checked the column with serves: nothing compiles
        assert spec.calls == {"near": 1}
        assert [t.get("KEY") for t in got.tuples] == [
            frozenset({k}) for k in range(60) if k % 3 != 2]
        # the column is kept: a second select only looks up
        select(rel, [("E", "Minimal"), ("E", "Tolerable")], LevelMap({"E": 0.8}))
        assert spec.calls == {"near": 3}

    def test_merge_one_neighbourhood_per_value(self, hair_matrix, masks_computed):
        # the hair table is not max-min transitive, so its check is pairwise
        rel, spec = keyed_rows(CountingMatrix(hair_matrix), HAIRS, 60)
        merged = merge_relation(rel, LevelMap({"KEY": 0.0, "E": 0.8}))
        assert spec.calls["degree"] == 0
        assert spec.calls["compile"] == 0  # from_rows' cut serves
        cut = rel._sources[1].cut().cut  # inside its counting wrapper
        assert masks_computed == {(cut, h, 0.8): 1 for h in HAIRS}
        assert [t.get("E") for t in merged.tuples] == [
            frozenset({"Black", "Dark brown"}), frozenset({"Bleached"})]

    @pytest.mark.parametrize("kind", ["transitive matrix", "crisp"])
    def test_keyed_column_is_never_compiled(self, effect_matrix, kind):
        # a max-min transitive table and crisp equality key their values
        if kind == "crisp":
            rel, spec = keyed_rows(CountingCrisp(), ("a", "b", "c"), 60)
            classes = [{"a"}, {"b"}, {"c"}]
        else:
            rel, spec = keyed_rows(CountingMatrix(effect_matrix), EFFECTS, 60)
            classes = [{"Minimal", "Tolerable"}, {"Irreversible"}]
        levels = LevelMap({"KEY": 0.0, "E": 0.8})
        for mode in (None, "threshold", "closure", "interval"):
            merged = merge_relation(rel, levels, mode)
            assert [t.get("E") for t in merged.tuples] == classes
            assert project(rel, ["E"], levels, mode) == project(merged, ["E"], levels, mode)
            assert len(join(rel, merged, ["E"], levels, mode)) == len(classes)
        assert spec.calls == {}

    def test_index_is_built_on_first_use_and_hidden(self, suppliers_db):
        rel = suppliers_db.relation("SUPPLIERS")
        assert rel._columns == {}
        before = repr(rel)
        select(rel, [("STATUS", 20)], LevelMap({"STATUS": 0.9}))
        assert rel._columns
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
            self, hair_matrix, groupings_formed):
        spec = CountingMatrix(hair_matrix)
        rel = FuzzyRelation.from_rows((AttributeSpec("E", spec),), [(h,) for h in HAIRS])
        assert spec.calls["compile"] == 1  # from_rows checks with it, and keeps it
        levels = LevelMap({"E": 0.8})
        for _ in range(2):
            project(rel, ["E"], levels)
        assert spec.calls["compile"] == 1
        for _ in range(2):
            project(rel, ["E"], levels, "closure")
        assert groupings_formed == {("E", "closure"): 2}
        assert spec.calls["compile"] == 3  # each closure walks a new cut

    def test_threshold_merges_compute_each_stored_mask_once(self, hair_matrix,
                                                            masks_computed):
        # X on a line, E a non-transitive table: both are threshold checks
        schema = (AttributeSpec("K"), AttributeSpec("X", Linear(10)),
                  AttributeSpec("E", hair_matrix))
        rel = FuzzyRelation.from_rows(schema, [(k, k % 11, HAIRS[k % 3]) for k in range(60)])
        levels = LevelMap({"K": 0.0, "X": 0.8, "E": 0.8})
        near = select(rel, [("X", 5)], LevelMap({"X": 0.7}))
        for _ in range(2):
            for r in (rel, near):
                project(r, ["X", "E"], levels)
                project(r, ["E"], levels)
                merge_relation(r, levels)
            # the join's output merge reads the stored cuts of X and E
            keyed = LevelMap({"X": 0.8, "E": 0.8})
            out = join(project(rel, ["K", "X"], keyed), project(near, ["K", "E"], keyed),
                       ["K"], keyed)
            assert len(out) == len(near) and out._sources == rel._sources
        xs, es = (rel._sources[i].cut() for i in (1, 2))
        stored = {key for key in masks_computed if key[0] in (xs, es)}
        assert stored == ({(xs, v, 0.8) for v in range(11)}
                          | {(es, h, 0.8) for h in HAIRS})
        assert set(masks_computed.values()) == {1}
        # a select's output reads the stored cut, never one of its own
        assert near._column_cut(1)[1] is xs and near._sources == rel._sources

    def test_join_output_merge_reads_the_cut_both_sides_share(self):
        spec = CountingLinear(10)
        schema = (AttributeSpec("K"), AttributeSpec("X", spec))
        rel = FuzzyRelation.from_rows(schema, [(k, k % 11) for k in range(40)])
        other = FuzzyRelation.from_rows(schema, [(k, 10 - k % 11) for k in range(40)])
        levels = LevelMap({"X": 0.9})
        left = project(select(rel, [("K", 3)]), ["X"], levels)
        xs, others = project(rel, ["X"], levels), project(other, ["X"], levels)
        spec.calls.clear()
        # the pair test and the output merge read the stored cut both sides
        # share, and compile nothing
        shared = join(left, xs, ["X"], levels)
        assert [t.get("X") for t in shared.tuples] == [{2, 3}]
        assert shared._sources == xs._sources == (rel._sources[1],)
        assert spec.calls["compile"] == 0
        # over two stored relations the pair test compiles both sides'
        # values, and the output merge the join column's own
        assert len(join(left, others, ["X"], levels)) == 1
        assert spec.calls["compile"] == 2

    def test_level_memos_kept_per_cut_are_bounded(self, masks_computed):
        rel = FuzzyRelation.from_rows((AttributeSpec("X", Linear(10)),), [(v,) for v in range(11)])
        alphas = [0.5 + k / 100 for k in range(40)]
        first = [project(rel, ["X"], LevelMap({"X": a})) for a in alphas]
        cut, kept = rel._sources[0].cut(), proximity._MAX_LEVEL_MEMOS
        assert list(cut._masks) == alphas[-kept:]
        # the newest are kept; the oldest were dropped and are computed again
        assert [project(rel, ["X"], LevelMap({"X": a})) for a in alphas[-kept:]] == first[-kept:]
        assert sum(masks_computed.values()) == 40 * 11
        assert project(rel, ["X"], LevelMap({"X": alphas[0]})) == first[0]
        assert sum(masks_computed.values()) == 41 * 11
        assert list(cut._masks) == [*alphas[-kept + 1:], alphas[0]]
        assert all(set(memo) == set(range(11)) for memo in cut._masks.values())

    def test_mask_memos_start_afresh_at_their_bit_bound(self, monkeypatch):
        monkeypatch.setattr(proximity, "_MAX_MEMO_BITS", 64)
        rel = FuzzyRelation.from_rows((AttributeSpec("X", Linear(100)), AttributeSpec("K")),
                                      [(v, v // 5) for v in range(40)])
        cut, held = rel._sources[0].cut(), set()
        for k in range(8):
            # fresh values through one cut, as from select after select,
            # at two levels whose memos share the bound
            for level in (0.9, 0.95):
                got = project(select(rel, [("K", k)]), ["X"], LevelMap({"X": level, "K": 0.0}))
                assert [t.get("X") for t in got.tuples] == [set(range(5 * k, 5 * k + 5))]
                memos = cut._masks.values()
                bits = sum(mask.bit_length() for memo in memos for mask in memo.values())
                assert bits == cut._memo_bits == sum(m.bits for m in memos) <= 64
                assert all(mask == cut.near_mask(v, memo.level)
                           for memo in memos for v, mask in memo.items())
                held.add(bits)
        assert len(held) > 2  # the memos were filled, and emptied

    def test_a_call_computes_each_mask_once_past_the_bound(self, monkeypatch,
                                                          masks_computed):
        # the bound empties a cut's memos between lookups; a call keeps its
        # own masks, on a stored cut, a hand-built relation's and a join's
        # pair test alike
        monkeypatch.setattr(proximity, "_MAX_MEMO_BITS", 1)
        schema = (AttributeSpec("K"), AttributeSpec("X", Linear(100)))
        stored = FuzzyRelation.from_rows(schema, [(k, k % 40) for k in range(80)])
        hand = FuzzyRelation(schema, stored.tuples)
        levels = LevelMap({"K": 0.0, "X": 0.9})
        for rel in (stored, hand):
            for _ in range(2):
                for op in (lambda: merge_relation(rel, levels),
                           lambda: project(rel, ["X"], levels),
                           lambda: join(rel, rel, ["X"], levels)):
                    assert len(op()) > 1
                    assert len(masks_computed) >= 40 and set(masks_computed.values()) == {1}
                    masks_computed.clear()

    def test_cell_memos_kept_per_spec_are_bounded(self, cells_computed):
        rel = linear_rows(40)
        alphas = [0.5 + k / 100 for k in range(40)]
        first = [project(rel, ["X"], LevelMap({"X": a})) for a in alphas]
        kept = algebra._MAX_CELL_MEMOS
        assert list(rel.schema[1].proximity._cells) == [("interval", a) for a in alphas[-kept:]]
        # the newest are kept; the oldest were dropped and are computed again
        assert [project(rel, ["X"], LevelMap({"X": a}))
                for a in alphas[-kept:]] == first[-kept:]
        assert sum(cells_computed.values()) == 40 * 11
        assert project(rel, ["X"], LevelMap({"X": alphas[0]})) == first[0]
        assert sum(cells_computed.values()) == 41 * 11
        # each memo keys the components it met: X's 11 singletons
        singletons = {frozenset({v}) for v in range(11)}
        assert all(set(memo) == singletons for memo in rel.schema[1].proximity._cells.values())

    def test_cell_memo_starts_afresh_at_its_bound(self):
        # fresh values through one spec, as from relation after relation
        x = AttributeSpec("X", Linear(100), "interval")
        rng = random.Random(1)
        bound = algebra._MAX_MEMO_CELLS
        for _ in range(3):
            rel = FuzzyRelation.from_rows(
                (x,), [(rng.uniform(0, 100),) for _ in range(bound // 2 + 1)])
            merge_relation(rel, LevelMap({"X": 0.9}))
            memo = x.proximity._cells["interval", 0.9]
            assert 0 < len(memo) <= bound
        # each kept component is a singleton keyed by its value's cell
        key = cell_key(partition_line(100, 0.9), x.proximity.embedding()[2])
        assert all(len(values) == 1 and cell == key(*values) for values, cell in memo.items())

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
        assert x.proximity._cells
        fresh = AttributeSpec("X", Linear(10), "interval")
        assert x == fresh and repr(x) == repr(fresh)
        assert pickle.loads(pickle.dumps(x)).proximity._cells == {}

    @pytest.mark.parametrize("mode, pairs", [(None, 0), ("closure", 0), ("threshold", 180)])
    def test_join_tests_pairs_inside_equal_key_vectors(self, monkeypatch, mode, pairs):
        # K is keyed under every method; X is a cell, closure or threshold
        # check.  Each K has 6 rows a side: 5 * 36 pairs share a key, of 900.
        # A pair test ORs the left tuple's part with the right one's.
        tested = collections.Counter()
        masks = algebra._masks

        class Part(int):
            def __or__(self, other):
                tested["or"] += 1
                return int(self) | other

        def counted(fields, rows):
            return [(Part(part), common) for part, common in masks(fields, rows)]

        monkeypatch.setattr(algebra, "_masks", counted)
        x = AttributeSpec("X", Linear(10), "interval")
        left = FuzzyRelation.from_rows((AttributeSpec("K"), x, AttributeSpec("L")),
                                       [(k % 5, k % 11, k) for k in range(30)])
        right = FuzzyRelation.from_rows((AttributeSpec("K"), x, AttributeSpec("R")),
                                        [(k % 5, k % 7 + 4, k) for k in range(30)])
        got = join(left, right, ["K", "X"], LevelMap({"X": 0.8}), mode)
        assert len(got) > 0
        # the check of X, the second join attribute, alone is tested by pairs
        assert tested["or"] == pairs

    @pytest.mark.parametrize("operator", ["project", "merge_relation", "join"])
    def test_one_tuple_is_built_per_output_row(self, monkeypatch, operator):
        # 5 rows, 4 distinct on X; 10 and 12 share a cell at 0.8
        rel = FuzzyRelation.from_rows(
            (AttributeSpec("K"), AttributeSpec("X", Linear(100), "interval")),
            [("a", 10), ("b", 10), ("c", 12), ("d", 50), ("e", 90)])
        levels = LevelMap({"K": 0.0, "X": 0.8})
        xs = project(rel, ["X"], levels)
        assert [t.get("X") for t in xs.tuples] == [{10, 12}, {50}, {90}]
        built = []
        trusted = FuzzyTuple._trusted

        def counted(names, components):
            built.append(components)
            return trusted(names, components)

        monkeypatch.setattr(FuzzyTuple, "_trusted", staticmethod(counted))
        out = {"project": lambda: project(rel, ["X"], levels),
               "merge_relation": lambda: merge_relation(rel, levels),
               "join": lambda: join(rel, xs, ["X"], levels)}[operator]()
        assert len(out) == 3
        assert built == [t.components for t in out.tuples]

    def test_no_cell_is_computed_for_a_column_no_check_reaches(self, cells_computed):
        rel = linear_rows(40)
        # KEY's spec is the shared crisp default, whose memos other tests fill
        key_memos = dict(rel.schema[0].proximity._cells)
        select(rel, [("X", 5)], LevelMap({"X": 0.8}))
        assert cells_computed == {}
        project(rel, ["X", "Y"], LevelMap({"X": 0.8, "Y": 0.0}))
        project(rel, ["X"], LevelMap({"X": 0.8}), "threshold")
        assert cells_computed == cells(0.8, range(11))
        assert [list(a.proximity._cells) for a in rel.schema[1:]] == [[("interval", 0.8)], []]
        assert rel.schema[0].proximity._cells == key_memos
        assert all(a is b for a, b in zip(rel.schema[0].proximity._cells.values(),
                                          key_memos.values()))

    @pytest.mark.parametrize("kind", ["linear", "planar", "matrix"])
    def test_linear_closure_classes_take_no_neighbourhood(self, hair_matrix, kind):
        # the first two values are within 0.8 of each other, the third of neither
        spec, values = {
            "linear": (CountingLinear(10), (1, 2, 5)),
            "planar": (CountingPlanar(10, {"a": (1, 1), "b": (1, 2), "c": (8, 8)}),
                       ("a", "b", "c")),
            "matrix": (CountingMatrix(hair_matrix), HAIRS)}[kind]
        rel, spec = keyed_rows(spec, values, 30)
        got = project(rel, ["E"], LevelMap({"E": 0.8}), "closure")
        assert [t.get("E") for t in got.tuples] == [set(values[:2]), {values[2]}]
        assert spec.calls["compile"] == 1 and spec.calls["degree"] == 0
        # a line's classes are runs of its sorted values; other cuts walk
        assert (spec.calls["near"] == 0) == (kind == "linear")

    def test_a_second_merge_keys_only_components_it_has_not_seen(self, monkeypatch):
        keyed = []
        missing = algebra._ClassKeys.__missing__

        def counted(memo, values):
            keyed.append(values)
            return missing(memo, values)

        monkeypatch.setattr(algebra._ClassKeys, "__missing__", counted)
        x = AttributeSpec("X", Linear(10), "interval")
        first = FuzzyRelation.from_rows((x,), [({1, 2},), (3,), (5,)])
        second = FuzzyRelation.from_rows((x,), [({1, 2},), (3,), (7,), ({5, 9},)])
        levels = LevelMap({"X": 0.8})
        merge_relation(first, levels)
        # a component of two values keys them as singleton components
        assert set(keyed) == {frozenset({1, 2}), frozenset({1}), frozenset({2}),
                              frozenset({3}), frozenset({5})}
        keyed.clear()
        merge_relation(second, levels)
        assert sorted(keyed, key=sorted) == [frozenset({5, 9}), frozenset({7}), frozenset({9})]

    def test_a_closure_checks_keys_last_one_call(self, monkeypatch):
        looked_up = collections.Counter()
        class_index = Grouping.class_index

        def counted(grouping, value):
            looked_up[value] += 1
            return class_index(grouping, value)

        monkeypatch.setattr(Grouping, "class_index", counted)
        x = AttributeSpec("X", Linear(10), "closure")
        rel = FuzzyRelation.from_rows((AttributeSpec("K"), x), [(k, k % 5) for k in range(30)])
        levels = LevelMap({"K": 0.0, "X": 0.95})
        for calls in (1, 2):
            assert len(merge_relation(rel, levels)) == 5
            assert looked_up == {v: calls for v in range(5)}
        assert x.proximity._cells == {}


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


    def test_nested_select_reaches_values_only_the_stored_relation_holds(self):
        rel = FuzzyRelation.from_rows((AttributeSpec("X", Linear(10)), AttributeSpec("K")),
                                      [(x, "a" if x < 3 else "b") for x in range(11)])
        inner = select(rel, [("K", "a")])
        levels = LevelMap({"X": 0.7})
        # near(3) over rel's cut is 0..6, and the inner relation lacks 3..6
        assert inner._column_cut(0)[1] is rel._column_cut(0)[1]
        assert rel._column_cut(0)[1].near(3, 0.7) == set(range(7))
        got = select(inner, [("X", 3)], levels)
        assert [t.get("X") for t in got.tuples] == [{0}, {1}, {2}]
        assert got == select(FuzzyRelation(inner.schema, inner.tuples), [("X", 3)], levels)
        assert select(inner, [("X", 6)], levels).tuples == ()


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


    def test_threshold_check_never_reaches_a_row_a_select_dropped(self):
        # a relation built without from_rows holds 500, outside [0, 10], in a
        # row the select drops: threshold checks of the output compile its
        # own values, never the relation's
        schema = (AttributeSpec("X", Linear(10)), AttributeSpec("K"))
        rel = FuzzyRelation(schema, (tup({"X": 1, "K": "a"}), tup({"X": 2, "K": "a"}),
                                     tup({"X": 500, "K": "b"})))
        kept = select(rel, [("K", "a")])
        levels = LevelMap({"X": 0.8, "K": 0.0})
        stored = FuzzyRelation.from_rows(schema, [(2, "c"), (9, "d")])
        for _ in range(2):
            assert [t.get("X") for t in project(kept, ["X"], levels).tuples] == [{1, 2}]
            assert [t.get("X") for t in merge_relation(kept, levels).tuples] == [{1, 2}]
            assert [t.get("X") for t in join(kept, stored, ["X"], levels).tuples] == [{1, 2}]
            assert len(join(kept, kept, ["X"], levels)) == 1
        # where the row is kept, 500 raises each time, as in a fresh copy
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

    def test_output_of_a_loaded_relation_keeps_no_stored_row_alive(self, tmp_path):
        # a loaded relation's columns are their own sources: until a
        # threshold check compiles one, it holds the column's components,
        # never the stored rows
        path = tmp_path / "r.csv"
        path.write_text("X,K\n" + "".join(f"{v % 7},k{v}\n" for v in range(20)))
        schema = (AttributeSpec("X", Linear(10)), AttributeSpec("K"))
        stored = load_relation(path, schema)
        rows = {id(t) for t in stored.tuples}
        got = select(stored, [("K", "k3")])
        assert not rows - {id(t) for t in got.tuples} & _reachable(got)
        merged = project(stored, ["K", "X"], LevelMap({"X": 0.0}))
        assert merged.tuples and not rows & _reachable(merged)
        # the same after a threshold project compiled X's cut
        project(got, ["X"], LevelMap({"X": 0.8}))
        assert not rows - {id(t) for t in got.tuples} & _reachable(got)

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
            (AttributeSpec("K", effect_matrix),), ()
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


class TestEmptyInputs:
    """An operator over empty input returns an empty relation over its schema."""

    X = AttributeSpec("X", Linear(10), "interval")
    LEFT = FuzzyRelation.from_rows((AttributeSpec("K"), X), [("a", 1), ("b", 2)])
    RIGHT = FuzzyRelation.from_rows((AttributeSpec("J"), X), [("c", 1)])
    LEVELS = LevelMap({"X": 0.8})

    @pytest.mark.parametrize("mode", (None,) + algebra.METHODS)
    def test_merge_relation(self, mode):
        empty = FuzzyRelation(self.LEFT.schema, ())
        got = merge_relation(empty, self.LEVELS, mode)
        assert got.schema == empty.schema and got.tuples == ()

    @pytest.mark.parametrize("mode", (None,) + algebra.METHODS)
    def test_project(self, mode):
        got = project(FuzzyRelation(self.LEFT.schema, ()), ["X"], self.LEVELS, mode)
        assert got.names == ("X",) and got.tuples == ()

    @pytest.mark.parametrize("mode", (None,) + algebra.METHODS)
    @pytest.mark.parametrize("side", ["left", "right", "both"])
    def test_join(self, mode, side):
        left, right = self.LEFT, self.RIGHT
        if side != "right":
            left = FuzzyRelation(left.schema, ())
        if side != "left":
            right = FuzzyRelation(right.schema, ())
        got = join(left, right, ["X"], self.LEVELS, mode)
        assert got.names == ("K", "X", "J") and got.tuples == ()

    def test_join_keys_a_side_the_other_cannot_pair(self):
        # join keys every class-checked join value on both sides, so a value
        # its spec rejects raises even when no pair would test it
        schema = (AttributeSpec("K"),)
        nan = FuzzyRelation(schema, (FuzzyTuple(("K",), ({float("nan")},)),))
        for left, right in [(nan, FuzzyRelation(schema, ())),
                            (FuzzyRelation(schema, ()), nan)]:
            with pytest.raises(UnknownValueError, match="not equal to itself"):
                join(left, right, ["K"])


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


ONE_ROW = FuzzyRelation.from_rows((AttributeSpec("X", Linear(10)),), [(1,)])


@pytest.mark.parametrize("call, error, message", [
    (lambda: AttributeSpec(""), ValidationError, "attribute name must be non-empty"),
    (lambda: AttributeSpec("X", default_method="bogus"), ValidationError,
     "method must be one of .*, got 'bogus'"),
    (lambda: ONE_ROW.tuples[0].get("Z"), UnknownAttributeError, "no attribute 'Z' in tuple"),
    (lambda: merge_relation(ONE_ROW, mode="bogus"), ValidationError,
     "unknown method 'bogus'"),
    (lambda: join(ONE_ROW, ONE_ROW, []), SchemaMismatchError,
     "join needs at least one attribute"),
], ids=["empty-name", "unknown-default-method", "tuple-lacks-attribute",
        "unknown-merge-method", "join-on-nothing"])
def test_refusal(call, error, message):
    with pytest.raises(error, match=message):
        call()


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
        schema = (AttributeSpec("E", effect_matrix),)
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
    "ordinal": (AttributeSpec("X", build_ordinal_matrix(RANKS)),
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


# one spec kind per threshold column: a line, a plane, a table that is not
# max-min transitive (a-c is below a-b and b-c)
PAIR_SCHEMA = (AttributeSpec("X", Linear(10)), AttributeSpec("P", Planar(10, SITES)),
               AttributeSpec("M", ExplicitMatrix(("a", "b", "c"), ((1.0, 0.8, 0.5),
                                                                   (0.8, 1.0, 0.8),
                                                                   (0.5, 0.8, 1.0)))))
PAIR_VALUES = (st.one_of(st.integers(0, 10), st.floats(0, 10)),
               st.sampled_from(sorted(SITES)), st.sampled_from("abc"))


class TestPairTest:
    """A join tests a pair on each tuple's packed ints, as the union's own test."""

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(*(st.frozensets(v, min_size=1, max_size=3)
                                     for v in PAIR_VALUES)), min_size=1, max_size=6),
           levels=st.tuples(*[st.sampled_from([0.0, 0.5, 0.8, 0.9, 1.0])] * 3),
           stored=st.booleans())
    def test_per_tuple_ints_decide_as_the_union(self, rows, levels, stored):
        names = tuple(a.name for a in PAIR_SCHEMA)
        rel = (FuzzyRelation.from_rows(PAIR_SCHEMA, rows) if stored else
               FuzzyRelation(PAIR_SCHEMA, [FuzzyTuple(names, row) for row in rows]))
        levels = LevelMap(dict(zip(names, levels)))
        comps = [t.components for t in rel.tuples]
        keyed, fields = algebra._build_checks(
            PAIR_SCHEMA, levels, "threshold",
            lambda idx, _: frozenset().union(*(c[idx] for c in comps)), rel._sources)
        assert keyed == []
        masks = list(algebra._masks(fields, comps))
        for (a, (lp, lc)), (b, (rp, rc)) in itertools.product(zip(comps, masks), repeat=2):
            union = [x | y for x, y in zip(a, b)]
            close = all(attr.proximity.degree(x, y) >= levels.level(attr.name)
                        for attr, u in zip(PAIR_SCHEMA, union) for x in u for y in u)
            part = lp | rp
            assert (lc & rc & part == part) == algebra._passes((), fields, union) == close

    @pytest.mark.parametrize("stored", [True, False])
    def test_a_pair_joins_only_when_each_side_is_mutually_close(self, stored):
        # 5 is within 0.75 of 3 and of 7, which are not within it of each other
        schema = (AttributeSpec("X", Linear(10)),)
        rel = FuzzyRelation.from_rows(schema, [({5},), ({3, 7},)])
        if not stored:
            rel = FuzzyRelation(schema, rel.tuples)
        got = join(rel, rel, ["X"], LevelMap({"X": 0.75}))
        assert [t.get("X") for t in got.tuples] == [{5}]
