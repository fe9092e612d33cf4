"""Closure classes of alpha cuts, and temporal domains."""

import pytest

from fuzzyrel import (
    AttributeSpec,
    ExplicitMatrix,
    FuzzyRelation,
    closure_classes,
    temporal_domain,
)

EFFECT_LABELS = (
    "Minimal", "Limited", "Tolerable", "Moderate",
    "Severe", "Major", "Extreme", "Irreversible",
)


def class_sets(grouping):
    return set(map(frozenset, grouping.classes))


class TestClosureClasses:
    def test_effect_components_at_085(self, effect_matrix):
        g = closure_classes(EFFECT_LABELS, ExplicitMatrix(effect_matrix), 0.85)
        assert class_sets(g) == {
            frozenset({"Minimal", "Limited", "Tolerable", "Moderate"}),
            frozenset({"Severe"}),
            frozenset({"Major", "Extreme"}),
            frozenset({"Irreversible"}),
        }

    def test_single_value(self, effect_matrix):
        g = closure_classes({"Severe"}, ExplicitMatrix(effect_matrix), 0.99)
        assert class_sets(g) == {frozenset({"Severe"})}

    def test_alpha_zero_is_one_class(self, hair_matrix):
        g = closure_classes(hair_matrix.labels, ExplicitMatrix(hair_matrix), 0.0)
        assert len(g.classes) == 1

    def test_chaining_beats_direct_similarity(self, hair_matrix):
        # Black-Auburn is only 0.6 but Dark brown links them at 0.7.
        spec = ExplicitMatrix(hair_matrix)
        g = closure_classes(("Black", "Dark brown", "Auburn"), spec, 0.7)
        assert class_sets(g) == {frozenset({"Black", "Dark brown", "Auburn"})}

    def test_gb_cities_fuse_at_080(self, gb_db):
        spec = gb_db.attribute("CITY").spec.proximity
        cities = gb_db.temporal_domain("CITY")
        for alpha in (0.4, 0.6, 0.8):
            assert len(closure_classes(cities, spec, alpha).classes) == 1

    def test_gb_pairs_at_095(self, gb_db):
        spec = gb_db.attribute("CITY").spec.proximity
        cities = gb_db.temporal_domain("CITY")
        g = closure_classes(cities, spec, 0.95)
        pairs = {c for c in class_sets(g) if len(c) > 1}
        assert pairs == {
            frozenset({"Rugby", "Frankton"}),
            frozenset({"Esher", "Epsom"}),
            frozenset({"Solihull", "Meriden"}),
        }
        assert len(g.classes) == 20

    def test_removing_a_link_splits_a_class(self, gb_db):
        spec = gb_db.attribute("CITY").spec.proximity
        cities = gb_db.temporal_domain("CITY") - {"Frankton"}
        g = closure_classes(cities, spec, 0.95)
        assert frozenset({"Rugby"}) in class_sets(g)

    def test_monotone_coarsening(self, hair_matrix):
        spec = ExplicitMatrix(hair_matrix)
        coarse = closure_classes(hair_matrix.labels, spec, 0.5)
        fine = closure_classes(hair_matrix.labels, spec, 0.7)
        for cls in fine.classes:
            assert any(cls <= other for other in coarse.classes)

    def test_agreement_with_direct_cut_for_similarity(self, effect_matrix):
        # a max-min transitive relation makes the direct cut an equivalence
        spec = ExplicitMatrix(effect_matrix)
        for alpha in (0.75, 0.8, 0.85, 0.9, 0.95):
            direct = {
                frozenset(
                    y for y in effect_matrix.labels
                    if effect_matrix.degree(x, y) >= alpha
                )
                for x in effect_matrix.labels
            }
            assert direct == class_sets(
                closure_classes(effect_matrix.labels, spec, alpha)
            )


class TestAlphaCut:
    def test_edges_are_non_strict(self, effect_matrix):
        spec = ExplicitMatrix(effect_matrix)
        assert spec.degree("Major", "Extreme") == 0.85
        assert spec.degree("Major", "Severe") == 0.80
        assert spec.degree("Severe", "Extreme") == 0.80
        g = closure_classes(EFFECT_LABELS, spec, 0.85)
        # a degree of exactly 0.85 links; 0.80 does not, and no chain does
        assert g.class_index("Major") == g.class_index("Extreme")
        assert g.class_index("Major") != g.class_index("Severe")


class TestTemporalDomain:
    def test_suppliers_statuses(self, suppliers_db):
        rel = suppliers_db.relation("SUPPLIERS")
        assert temporal_domain(rel, "STATUS") == frozenset(
            {10, 20, 25, 30, 35, 40, 45, 50, 55, 60, 65, 75, 80, 90}
        )

    def test_survey_types(self, survey_db):
        rel = survey_db.relation("SURVEY")
        assert temporal_domain(rel, "Type") == frozenset({"Expert", "Resident"})

    def test_empty_relation(self):
        rel = FuzzyRelation((AttributeSpec("X"),), ())
        assert temporal_domain(rel, "X") == frozenset()

    def test_unions_set_valued_components(self, suppliers_db):
        rel = suppliers_db.relation("SUPPLIERS")
        from fuzzyrel import LevelMap, merge_relation

        merged = merge_relation(rel, suppliers_db.levels(0.6))
        assert temporal_domain(merged, "STATUS") == temporal_domain(rel, "STATUS")
