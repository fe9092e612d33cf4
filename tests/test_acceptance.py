"""Acceptance suite: end-to-end checks of the worked examples and the
randomized law suite.  Run with ``pytest tests/test_acceptance.py -v`` to
get one pass/fail line per check.
"""

import random

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import fuzzyrel.query as querylang
from fuzzyrel import (
    AttributeSpec,
    DomainError,
    ExplicitMatrix,
    FuzzyRelation,
    FuzzyTuple,
    LevelMap,
    Linear,
    ParseError,
    Planar,
    build_ordinal_matrix,
    cell_of,
    class_of,
    classes_over,
    closure_classes,
    degree_of,
    evaluate,
    interpretations,
    join,
    merge_relation,
    parse,
    partition_line,
    partition_plane,
    project,
    relation_properties,
    select,
)
from fuzzyrel.partition import _MAX_CELLS

LAWS = settings(max_examples=1000, deadline=None,
                suppress_health_check=[HealthCheck.filter_too_much])


def tup(mapping):
    return FuzzyTuple.of(mapping)


def class_sets(grouping):
    return set(map(frozenset, grouping.classes))


def nested(expected):
    return set(map(frozenset, expected))


# ---------------------------------------------------------------------------
# 1. status classes, interval method


STATUS_CLASSES = {
    0.6: [{10, 20, 25, 30, 35}, {40, 45, 50, 55, 60, 65, 75}, {80, 90}],
    0.8: [{10}, {20, 25, 30, 35}, {40, 45, 50, 55}, {60, 65, 75}, {80, 90}],
    0.85: [{10}, {20, 25}, {30, 35, 40}, {45, 50, 55}, {60, 65}, {75, 80}, {90}],
    0.92: [{10}, {20}, {25, 30}, {35}, {40, 45}, {50, 55}, {60}, {65}, {75},
           {80}, {90}],
}


@pytest.mark.parametrize("alpha", sorted(STATUS_CLASSES))
def test_status_interval_classes(suppliers_db, alpha):
    statuses = suppliers_db.temporal_domain("STATUS")
    grouping = classes_over(statuses, partition_line(100, alpha))
    assert [set(c) for c in grouping.classes] == STATUS_CLASSES[alpha]


# ---------------------------------------------------------------------------
# 2. ordinal auto-construction


BUILD_LABELS = ("VL", "L", "A", "S", "VS")
BUILD_TABLE = (
    (1.00, 0.75, 0.50, 0.25, 0.00),
    (0.75, 1.00, 0.75, 0.50, 0.25),
    (0.50, 0.75, 1.00, 0.75, 0.50),
    (0.25, 0.50, 0.75, 1.00, 0.75),
    (0.00, 0.25, 0.50, 0.75, 1.00),
)

HAIR_LABELS = ("Bk", "DB", "A", "R", "LB", "Bd", "Bc")
HAIR_TABLE = (
    (1.00, 0.83, 0.67, 0.50, 0.33, 0.16, 0.00),
    (0.83, 1.00, 0.83, 0.67, 0.50, 0.33, 0.16),
    (0.67, 0.83, 1.00, 0.83, 0.67, 0.50, 0.33),
    (0.50, 0.67, 0.83, 1.00, 0.83, 0.67, 0.50),
    (0.33, 0.50, 0.67, 0.83, 1.00, 0.83, 0.67),
    (0.16, 0.33, 0.50, 0.67, 0.83, 1.00, 0.83),
    (0.00, 0.16, 0.33, 0.50, 0.67, 0.83, 1.00),
)


def test_ordinal_build_matrix_is_exact():
    m = build_ordinal_matrix(BUILD_LABELS)
    for i in range(5):
        for j in range(5):
            assert m.entries[i][j] == BUILD_TABLE[i][j]


def test_ordinal_hair_matrix_within_rounding():
    m = build_ordinal_matrix(HAIR_LABELS)
    for i in range(7):
        for j in range(7):
            assert m.entries[i][j] == pytest.approx(HAIR_TABLE[i][j], abs=0.01)


# ---------------------------------------------------------------------------
# 3. hair classes, interval method


HAIR_POS = {label: i for i, label in enumerate(HAIR_LABELS)}
# Ranks Bk..Bc = 0..6 on [0, 6], standard width m = (1 - alpha) * 6; cells
# are half-open, the last closed at 6, and classes come in cell order.
#   alpha 0.8: m = 1.2, [0,1.2) [1.2,2.4) [2.4,3.6) [3.6,4.8) [4.8,6]
#   alpha 0.6: m = 2.4, [0,2.4) [2.4,4.8) [4.8,6]
#   alpha 0.5: m = 3.0, [0,3) [3,6]
#   alpha 0.3: m = 4.2, [0,4.2) [4.2,6]
HAIR_CLASSES = {
    0.8: [{"Bk", "DB"}, {"A"}, {"R"}, {"LB"}, {"Bd", "Bc"}],
    0.6: [{"Bk", "DB", "A"}, {"R", "LB"}, {"Bd", "Bc"}],
    0.5: [{"Bk", "DB", "A"}, {"R", "LB", "Bd", "Bc"}],
    0.3: [{"Bk", "DB", "A", "R", "LB"}, {"Bd", "Bc"}],
}


@pytest.mark.parametrize("alpha", sorted(HAIR_CLASSES, reverse=True))
def test_hair_interval_classes(alpha):
    grouping = classes_over(HAIR_LABELS, partition_line(6, alpha), HAIR_POS.__getitem__)
    assert [set(c) for c in grouping.classes] == HAIR_CLASSES[alpha]


# ---------------------------------------------------------------------------
# 4. two-dimensional city grid


def test_city_grid_at_080(suppliers_db):
    spec = suppliers_db.attribute("CITY").proximity
    cities = suppliers_db.temporal_domain("CITY")
    grouping = classes_over(cities, partition_plane(100, 0.8), spec.resolve)
    assert class_sets(grouping) == nested(
        [{"Shire"}, {"Bree"}, {"Rivendell"}, {"Isengard"}, {"Moria"},
         {"Gondor", "Rohan"}, {"Lothlorien"}, {"Mordor"}]
    )


def test_city_grid_at_060(suppliers_db):
    spec = suppliers_db.attribute("CITY").proximity
    cities = suppliers_db.temporal_domain("CITY")
    grouping = classes_over(cities, partition_plane(100, 0.6), spec.resolve)
    assert class_sets(grouping) == nested(
        [{"Shire", "Bree", "Rivendell"}, {"Isengard", "Moria"},
         {"Gondor", "Rohan"}, {"Lothlorien"}, {"Mordor"}]
    )


# ---------------------------------------------------------------------------
# 5. survey pipeline


R1_EXPECTED = {
    tup({"Pollutant": "Oil", "Name": {"A", "D", "G", "H"},
         "Effect": {"Limited", "Moderate", "Tolerable"}}),
    tup({"Pollutant": "Dioxin", "Name": {"A", "G"}, "Effect": "Severe"}),
    tup({"Pollutant": "Dioxin", "Name": "D", "Effect": "Major"}),
    tup({"Pollutant": "Dioxin", "Name": "H", "Effect": "Moderate"}),
    tup({"Pollutant": "Wastewater", "Name": {"A", "D", "G", "H"},
         "Effect": {"Minimal", "Limited", "Tolerable"}}),
}

R2_EXPECTED = {
    tup({"Pollutant": "Oil", "Name": "B", "Effect": "Extreme"}),
    tup({"Pollutant": "Oil", "Name": {"C", "E"},
         "Effect": {"Moderate", "Tolerable"}}),
    tup({"Pollutant": "Oil", "Name": "F", "Effect": "Severe"}),
    tup({"Pollutant": "Dioxin", "Name": "B", "Effect": "Irreversible"}),
    tup({"Pollutant": "Dioxin", "Name": {"C", "F"},
         "Effect": {"Major", "Extreme"}}),
    tup({"Pollutant": "Dioxin", "Name": "E", "Effect": "Severe"}),
    tup({"Pollutant": "Wastewater", "Name": "B", "Effect": "Severe"}),
    tup({"Pollutant": "Wastewater", "Name": {"C", "E", "F"},
         "Effect": {"Limited", "Tolerable", "Moderate"}}),
}

# Row two's partner is E: the {C, F} tuple carries Major, whose degree to
# Severe is 0.80, below the 0.85 level.
R3_EXPECTED = {
    tup({"Pollutant": "Oil", "Name": {"A", "D", "G", "H"},
         "Effect": {"Limited", "Moderate", "Tolerable"}, "Name_2": {"C", "E"}}),
    tup({"Pollutant": "Dioxin", "Name": {"A", "G"}, "Effect": "Severe",
         "Name_2": "E"}),
    tup({"Pollutant": "Dioxin", "Name": "D", "Effect": {"Major", "Extreme"},
         "Name_2": {"C", "F"}}),
    tup({"Pollutant": "Wastewater", "Name": {"A", "D", "G", "H"},
         "Effect": {"Minimal", "Limited", "Tolerable", "Moderate"},
         "Name_2": {"C", "E", "F"}}),
}

SURVEY_LEVELS = LevelMap({"Effect": 0.85, "Name": 0.0})


def _survey_side(db, type_value):
    kept = select(db.relation("SURVEY"), [("Type", type_value)])
    return project(kept, ["Pollutant", "Name", "Effect"], SURVEY_LEVELS)


def test_survey_r1(survey_db):
    assert set(_survey_side(survey_db, "Expert").tuples) == R1_EXPECTED


def test_survey_r2(survey_db):
    assert set(_survey_side(survey_db, "Resident").tuples) == R2_EXPECTED


def test_survey_r3(survey_db):
    r3 = join(_survey_side(survey_db, "Expert"),
              _survey_side(survey_db, "Resident"),
              ["Pollutant", "Effect"], SURVEY_LEVELS)
    assert set(r3.tuples) == R3_EXPECTED


# ---------------------------------------------------------------------------
# 6. arson query


def test_arson_query(arson_db):
    text = (
        'project (select ("PHYSICAL CHARACTERISTICS") '
        'where "HAIR COLOR" = "Blond", BUILD = "Large" '
        'with level("HAIR COLOR") = 0.7, level(BUILD) = 0.7) '
        'over NAME, "HAIR COLOR", BUILD '
        'with level(NAME) = 0.0, level("HAIR COLOR") = 0.7, level(BUILD) = 0.7 '
        'giving "LIKELY ARSONISTS"'
    )
    result = evaluate(parse(text), arson_db.relations)
    assert set(result.tuples) == {
        tup({"NAME": {"Gary", "James"},
             "HAIR COLOR": {"Blond", "Bleached"},
             "BUILD": {"Very large", "Large"}})
    }


# ---------------------------------------------------------------------------
# 7. suppliers class-mode merge


SUPPLIERS_MERGED = {
    tup({"SNAME": {"Bagins", "Proudfoot"}, "STATUS": {20, 30}, "CITY": "Shire"}),
    tup({"SNAME": {"Took", "Arwen", "Glorfindel", "Gamgee", "Barliman", "Elrond"},
         "STATUS": {45, 55, 60, 65, 75}, "CITY": {"Shire", "Rivendell", "Bree"}}),
    tup({"SNAME": "Sauron", "STATUS": 80, "CITY": "Mordor"}),
    tup({"SNAME": {"Eomer", "Eowyn"}, "STATUS": {40, 50}, "CITY": "Rohan"}),
    tup({"SNAME": {"Denethor", "Theoden", "Grima"}, "STATUS": {10, 25, 35},
         "CITY": {"Rohan", "Gondor"}}),
    tup({"SNAME": "Galadriel", "STATUS": 75, "CITY": "Lothlorien"}),
    tup({"SNAME": {"Gimli", "Saruman"}, "STATUS": {80, 90},
         "CITY": {"Moria", "Isengard"}}),
    tup({"SNAME": "Balrog", "STATUS": 55, "CITY": "Moria"}),
}

PROJECTION_EXPECTED = {
    tup({"SNAME": {"Bagins", "Proudfoot", "Took", "Arwen", "Glorfindel",
                   "Gamgee", "Barliman", "Elrond"},
         "CITY": {"Shire", "Rivendell", "Bree"}}),
    tup({"SNAME": "Sauron", "CITY": "Mordor"}),
    tup({"SNAME": {"Denethor", "Theoden", "Grima", "Eomer", "Eowyn"},
         "CITY": {"Rohan", "Gondor"}}),
    tup({"SNAME": "Galadriel", "CITY": "Lothlorien"}),
    tup({"SNAME": {"Gimli", "Saruman", "Balrog"}, "CITY": {"Moria", "Isengard"}}),
}


def _oracle_cells(suppliers_db):
    """Cell keys recomputed with plain arithmetic, independent of the engine."""
    locations = suppliers_db.attribute("CITY").proximity.locations

    def key(t):
        status = next(iter(t.get("STATUS")))
        city = next(iter(t.get("CITY")))
        x, y = locations[city]
        cell = (min(int(x // 40), 2), min(int(y // 40), 2))
        return (min(int(status // 40), 2), cell)

    return key


def test_suppliers_merge_at_060(suppliers_db):
    rel = suppliers_db.relation("SUPPLIERS")
    merged = merge_relation(rel, suppliers_db.levels(0.6))
    assert set(merged.tuples) == SUPPLIERS_MERGED

    # oracle: group the input rows by hand-computed (status cell, city cell)
    key = _oracle_cells(suppliers_db)
    groups = {}
    for t in rel.tuples:
        groups.setdefault(key(t), []).append(t)
    oracle = {
        frozenset(name for t in group for name in t.get("SNAME"))
        for group in groups.values()
    }
    assert {frozenset(t.get("SNAME")) for t in merged.tuples} == oracle

    # Elrond sits in the same status cell ([40, 80)) and city cell as the
    # Took group, so the pairwise test must mark the pair redundant.
    by_name = {next(iter(t.get("SNAME"))): t for t in rel.tuples}
    assert key(by_name["Elrond"]) == key(by_name["Took"])


def test_suppliers_projection_over_sname_city(suppliers_db):
    merged = merge_relation(
        suppliers_db.relation("SUPPLIERS"), suppliers_db.levels(0.6)
    )
    projected = project(merged, ["SNAME", "CITY"], suppliers_db.levels(0.6))
    assert set(projected.tuples) == PROJECTION_EXPECTED


# ---------------------------------------------------------------------------
# 8. city comparison


GB_SPOTS = [
    ("Peterborough", "Solihull", 0.457),
    ("London", "Borehamwood", 0.924),
    ("Esher", "Epsom", 0.963),
]

GB_GRID_04 = [
    {"Oxford", "Swindon", "Salisbury", "Reading", "Berkshire"},
    {"Solihull", "Northampton", "Rugby", "Sutton Coldfield", "Frankton",
     "Coventry", "Meriden", "Nottingham", "Derby"},
    {"London", "Bedford", "Slough", "Esher", "Epsom", "Borehamwood", "Crawley"},
    {"Peterborough", "St. Neots"},
]

GB_GRID_08 = [
    {"Derby"}, {"Nottingham"}, {"Solihull", "Sutton Coldfield", "Meriden"},
    {"Rugby", "Frankton", "Coventry"}, {"Northampton"},
    {"Peterborough", "St. Neots"}, {"Bedford"}, {"Swindon"}, {"Oxford"},
    {"Reading", "Berkshire"}, {"Slough"}, {"London", "Borehamwood"},
    {"Salisbury"}, {"Esher", "Epsom", "Crawley"},
]


def test_gb_planar_spot_degrees(gb_db):
    spec = gb_db.attribute("CITY").proximity
    for a, b, expected in GB_SPOTS:
        assert degree_of(spec, a, b) == pytest.approx(expected, abs=0.001)


def test_gb_grid_classes_at_04(gb_db):
    spec = gb_db.attribute("CITY").proximity
    cities = gb_db.temporal_domain("CITY")
    grouping = classes_over(cities, partition_plane(2, 0.4), spec.resolve)
    assert class_sets(grouping) == nested(GB_GRID_04)


def test_gb_grid_classes_at_08(gb_db):
    spec = gb_db.attribute("CITY").proximity
    cities = gb_db.temporal_domain("CITY")
    grouping = classes_over(cities, partition_plane(2, 0.8), spec.resolve)
    assert class_sets(grouping) == nested(GB_GRID_08)


@pytest.mark.parametrize("alpha", [0.4, 0.6, 0.8])
def test_gb_closure_is_one_class(gb_db, alpha):
    spec = gb_db.attribute("CITY").proximity
    cities = gb_db.temporal_domain("CITY")
    assert len(closure_classes(cities, spec, alpha).classes) == 1


def test_gb_closure_pairs_at_095(gb_db):
    spec = gb_db.attribute("CITY").proximity
    cities = gb_db.temporal_domain("CITY")
    grouping = closure_classes(cities, spec, 0.95)
    non_singletons = {c for c in class_sets(grouping) if len(c) > 1}
    # Degrees 1 - d / (2 * sqrt(2)) from the coordinates in data/gb:
    # Esher-Epsom 0.96322, Rugby-Frankton 0.95745 and Solihull-Meriden
    # 0.95300 reach 0.95; the next link, Coventry-Meriden at 0.94989, does
    # not, so the three pairs stay apart.
    assert non_singletons == nested(
        [{"Rugby", "Frankton"}, {"Esher", "Epsom"}, {"Solihull", "Meriden"}]
    )


# ---------------------------------------------------------------------------
# 9. randomized law suite


@LAWS
@given(
    length=st.floats(0.5, 1000),
    alpha=st.floats(0, 0.999),
    mode=st.sampled_from(["standard", "equalized"]),
    u=st.floats(0, 1),
    v=st.floats(0, 1),
)
def test_same_interval_class_implies_degree(length, alpha, mode, u, v):
    part = partition_line(length, alpha, mode)
    x = u * length
    j = class_of(x, part)
    lo, hi = (j - 1) * part.width, min(j * part.width, length)
    y = lo + v * (hi - lo)
    if class_of(y, part) == j:
        assert Linear(length).degree(x, y) >= alpha - 1e-9


@LAWS
@given(
    length=st.floats(0.5, 1000),
    alpha=st.floats(0, 0.999),
    us=st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)),
)
def test_same_grid_cell_implies_degree(length, alpha, us):
    grid = partition_plane(length, alpha)
    p = (us[0] * length, us[1] * length)
    cell = cell_of(p, grid)
    width = grid.axis.width
    (lo_x, hi_x), (lo_y, hi_y) = (((k - 1) * width, min(k * width, length)) for k in cell)
    q = (lo_x + us[2] * (hi_x - lo_x), lo_y + us[3] * (hi_y - lo_y))
    if cell_of(q, grid) == cell:
        assert Planar(length, {}).degree(p, q) >= alpha - 1e-9


def _maxmin_closure(entries):
    """Smallest max-min transitive matrix above a symmetric reflexive one."""
    n = len(entries)
    current = [list(row) for row in entries]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                best = max(
                    min(current[i][k], current[k][j]) for k in range(n)
                )
                if best > current[i][j]:
                    current[i][j] = best
                    changed = True
    return tuple(tuple(row) for row in current)


@st.composite
def similarity_matrices(draw):
    n = draw(st.integers(3, 5))
    degrees = st.sampled_from([0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0])
    entries = [[1.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            entries[i][j] = entries[j][i] = draw(degrees)
    labels = tuple(f"v{i}" for i in range(n))
    return ExplicitMatrix(labels, _maxmin_closure(entries))


@st.composite
def similarity_relations(draw):
    """Random relation over one similarity-matrix attribute and one crisp key."""
    matrix = draw(similarity_matrices())
    schema = (
        AttributeSpec("K"),
        AttributeSpec("V", matrix),
    )
    alpha = draw(st.sampled_from([0.0, 0.2, 0.4, 0.6, 0.8, 1.0]))
    classes = closure_classes(matrix.labels, matrix, alpha)
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        key = draw(st.sampled_from(["k1", "k2"]))
        cls = sorted(draw(st.sampled_from(classes.classes)))
        size = draw(st.integers(1, min(3, len(cls))))
        start = draw(st.integers(0, len(cls) - size))
        rows.append({"K": key, "V": set(cls[start:start + size])})
    rel = FuzzyRelation.from_rows(schema, rows)
    levels = LevelMap({"V": alpha, "K": draw(st.sampled_from([0.0, 1.0]))})
    return rel, levels


@LAWS
@given(data=similarity_relations(), seed=st.integers(0, 2 ** 16))
def test_merge_is_order_independent_threshold(data, seed):
    rel, levels = data
    merged = merge_relation(rel, levels)
    shuffled = list(rel.tuples)
    random.Random(seed).shuffle(shuffled)
    merged_shuffled = merge_relation(FuzzyRelation(rel.schema, tuple(shuffled)), levels)
    assert set(merged.tuples) == set(merged_shuffled.tuples)
    assert set(merge_relation(merged, levels).tuples) == set(merged.tuples)


@LAWS
@given(
    statuses=st.lists(st.integers(0, 100), min_size=1, max_size=6),
    alpha=st.floats(0, 1),
    mode=st.sampled_from(["interval", "equalized"]),
    seed=st.integers(0, 2 ** 16),
)
def test_merge_is_order_independent_class_mode(statuses, alpha, mode, seed):
    schema = (AttributeSpec("K"), AttributeSpec("S", Linear(100), "interval"))
    rows = [{"K": f"k{i % 2}", "S": s} for i, s in enumerate(statuses)]
    rel = FuzzyRelation.from_rows(schema, rows)
    levels = LevelMap({"S": alpha, "K": 0.0})
    if alpha < 1.0 and 1.0 / (1.0 - alpha) > _MAX_CELLS:
        with pytest.raises(DomainError):  # cells past the partition bound
            merge_relation(rel, levels, mode)
        return
    merged = merge_relation(rel, levels, mode)
    shuffled = list(rel.tuples)
    random.Random(seed).shuffle(shuffled)
    merged_shuffled = merge_relation(
        FuzzyRelation(rel.schema, tuple(shuffled)), levels, mode
    )
    assert set(merged.tuples) == set(merged_shuffled.tuples)


@st.composite
def proximity_matrices(draw):
    n = draw(st.integers(2, 6))
    degrees = st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
    entries = [[1.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            entries[i][j] = entries[j][i] = draw(degrees)
    labels = tuple(f"v{i}" for i in range(n))
    return ExplicitMatrix(labels, tuple(tuple(row) for row in entries))


@LAWS
@given(
    matrix=proximity_matrices(),
    alphas=st.tuples(st.floats(0, 1), st.floats(0, 1)),
)
def test_closure_classes_coarsen_monotonically(matrix, alphas):
    low, high = sorted(alphas)
    spec = matrix
    coarse = closure_classes(matrix.labels, spec, low)
    fine = closure_classes(matrix.labels, spec, high)
    for cls in fine.classes:
        assert any(cls <= other for other in coarse.classes)


@LAWS
@given(matrix=similarity_matrices(), alpha=st.floats(0, 1))
def test_direct_cut_equals_closure_for_similarity(matrix, alpha):
    spec = matrix
    direct = {
        frozenset(y for y in matrix.labels if matrix.degree(x, y) >= alpha)
        for x in matrix.labels
    }
    assert direct == class_sets(closure_classes(matrix.labels, spec, alpha))


@LAWS
@given(matrix=st.one_of(similarity_matrices(), proximity_matrices()),
       alpha=st.floats(0, 1, exclude_min=True))
def test_keys_are_the_cut_of_a_similarity(matrix, alpha):
    # keys at every level or at none; at each degree as a level, and
    # between them, two labels share a key exactly when their degree reaches it
    transitive = relation_properties(matrix).max_min_transitive
    for level in {alpha} | {d for row in matrix.entries for d in row if d > 0}:
        key = matrix.keys(level)
        assert (key is not None) == transitive
        if key is not None:
            for x in matrix.labels:
                for y in matrix.labels:
                    assert (key(x) == key(y)) == (matrix.degree(x, y) >= level)


@LAWS
@given(data=similarity_relations())
def test_merged_outputs_share_no_interpretation(data):
    rel, levels = data
    merged = merge_relation(rel, levels)
    seen = [interpretations(t) for t in merged.tuples]
    for i in range(len(seen)):
        for j in range(i + 1, len(seen)):
            assert not (seen[i] & seen[j])


_QUERY_SOUP = st.lists(
    st.sampled_from(
        ["select", "project", "join", "where", "over", "on", "with", "level",
         "thres", "giving", "(", ")", ",", "=", ">=", ">", "0.7", "1", "2",
         "R", "SURVEY", '"two words"', '"', "Type", "Expert"]
    ),
    max_size=30,
).map(" ".join)


@LAWS
@given(text=st.one_of(st.text(max_size=120), _QUERY_SOUP))
@example(text="select (R) where X = " + "9" * 400 + ".0")  # a float reads inf
def test_parser_is_total(text):
    try:
        query = querylang.parse(text)
    except ParseError as err:
        assert 1 <= err.line <= text.count("\n") + 1
        assert 1 <= err.column <= len(text.split("\n")[err.line - 1]) + 1
    else:
        assert querylang.parse(querylang.render(query)) == query
