"""Tuple interpretations, thresholds, redundancy, merging and the operators."""

import itertools

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


def tup(mapping):
    return FuzzyTuple.of(mapping)


def tuple_sets(relation):
    return {t: None for t in relation.tuples}.keys()


@pytest.fixture(scope="module")
def experts_projected(survey_db):
    rel = select(survey_db.relation("SURVEY"), [("Type", "Expert")])
    return project(rel, ["Pollutant", "Name", "Effect"],
                   LevelMap({"Effect": 0.85, "Name": 0.0}))


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


class TestJoin:
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
    "ordinal": (AttributeSpec("X", ExplicitMatrix(build_ordinal_matrix(RANKS)),
                              order=RANKS),
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
