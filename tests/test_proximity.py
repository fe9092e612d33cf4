"""Degree computations, matrix construction and property reporting."""

import ast
import math
import pickle
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from fuzzyrel import (
    AttributeSpec,
    CrispIdentity,
    DomainError,
    ExplicitMatrix,
    FormatError,
    FuzzyRelError,
    Linear,
    Planar,
    UnknownValueError,
    ValidationError,
    build_ordinal_matrix,
    degree_of,
    relation_properties,
)
from fuzzyrel import proximity
from fuzzyrel.proximity import PropertyReport


class TestLinear:
    def test_reflexive(self):
        assert Linear(40.0).degree(17.0, 17.0) == 1.0

    def test_maximal_distance_is_zero(self):
        assert Linear(100.0).degree(0.0, 100.0) == 0.0

    def test_hand_value(self):
        assert Linear(100).degree(20, 30) == pytest.approx(0.9)

    def test_symmetric(self):
        assert Linear(50).degree(3, 11) == Linear(50).degree(11, 3)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            Linear(10).degree(-1, 5)
        with pytest.raises(DomainError):
            Linear(10).degree(5, 11)

    def test_rejects_bad_length(self):
        with pytest.raises(DomainError):
            Linear(0).degree(0, 0)

    @pytest.mark.parametrize("text, value", [
        ("12", 12), ("+7", 7), ("-0", 0), ("007", 7), ("2.5", 2.5), (".5", 0.5),
        ("5.", 5.0), ("1e1", 10.0), ("25E-1", 2.5), ("100", 100)])
    def test_parse_reads_ascii_decimal_text(self, text, value):
        got = Linear(100).parse(text)
        assert got == value and type(got) is type(value)

    @pytest.mark.parametrize("text", [
        "1_0", "1_0.5", "1e1_0", "\u0661\u0662", "\uff11\uff12", "1\u0662", " 12", "12 ",
        "0x10", "nan", "inf", "Infinity", "", "+", ".", "e5", "1e", "1.2.3", "--1"])
    def test_parse_refuses_any_other_number_text(self, text):
        with pytest.raises(FormatError, match="is not a number"):
            Linear(100).parse(text)

    def test_parse_refuses_a_number_outside_the_domain(self):
        with pytest.raises(DomainError, match="outside"):
            Linear(100).parse("100.5")

    @given(st.floats(0, 100), st.floats(0, 100), st.floats(0.01, 1.0))
    def test_alpha_cut_is_distance_bound(self, a, b, alpha):
        # degree >= alpha exactly when |a - b| <= (1 - alpha) * L
        L = 100.0
        close = abs(a - b) <= (1 - alpha) * L
        degree = Linear(L).degree(a, b)
        if degree > alpha + 1e-9:
            assert close
        if degree < alpha - 1e-9:
            assert not close


@pytest.mark.parametrize("size", [0, -1, math.inf, -math.inf, math.nan])
def test_spec_rejects_a_size_that_is_not_positive_and_finite(size):
    with pytest.raises(DomainError):
        Linear(size)
    with pytest.raises(DomainError):
        Planar(size, {})


class TestPlanar:
    def test_identical_points(self):
        assert Planar(10.0, {}).degree((3.0, 4.0), (3.0, 4.0)) == 1.0

    def test_opposite_corners(self):
        assert Planar(5, {}).degree((0, 0), (5, 5)) == pytest.approx(0.0)

    def test_city_pair(self):
        got = Planar(2, {}).degree((1.7492, 1.5739), (0.2218, 1.4128))
        assert got == pytest.approx(0.457, abs=0.001)

    def test_rejects_point_outside_square(self):
        with pytest.raises(DomainError):
            Planar(2, {}).degree((0, 0), (3, 1))


class TestOrdinalMatrix:
    def test_five_labels(self):
        m = build_ordinal_matrix(["VL", "L", "A", "S", "VS"])
        assert m.degree("VL", "L") == 0.75
        assert m.degree("VL", "A") == 0.5
        assert m.degree("VL", "S") == 0.25
        assert m.degree("VL", "VS") == 0.0

    def test_seven_labels(self):
        m = build_ordinal_matrix(["Bk", "DB", "A", "R", "LB", "Bd", "Bc"])
        assert m.degree("Bk", "DB") == pytest.approx(5 / 6)
        assert m.degree("Bk", "Bc") == 0.0

    def test_diagonal_is_one(self):
        m = build_ordinal_matrix(["x", "y", "z"])
        assert all(m.degree(lab, lab) == 1.0 for lab in m.labels)

    def test_ordered_by_its_labels(self):
        m = build_ordinal_matrix(["x", "y", "z"])
        assert m.order == m.labels == ("x", "y", "z")
        dims, length, rank = m.embedding()
        assert (dims, length, [rank(v) for v in "xyz"]) == (1, 2.0, [0, 1, 2])

    def test_rejects_bad_domains(self):
        with pytest.raises(DomainError):
            build_ordinal_matrix(["only"])
        with pytest.raises(DomainError):
            build_ordinal_matrix(["a", "b", "a"])

    @given(st.integers(2, 8))
    def test_always_reflexive_and_symmetric(self, n):
        m = build_ordinal_matrix([f"v{i}" for i in range(n)])
        e = m.entries
        assert all(e[i][i] == 1.0 and e[i][j] == e[j][i] for i in range(n) for j in range(n))
        # rank distances chain: d(v0, v2) < min(d(v0, v1), d(v1, v2)) from 3 labels on
        assert relation_properties(m).max_min_transitive == (n == 2)


class TestMatrixValidation:
    def test_rejects_asymmetry(self):
        with pytest.raises(ValidationError):
            ExplicitMatrix(("a", "b"), ((1.0, 0.5), (0.4, 1.0)))

    def test_rejects_bad_diagonal(self):
        with pytest.raises(ValidationError):
            ExplicitMatrix(("a", "b"), ((0.9, 0.5), (0.5, 1.0)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            ExplicitMatrix(("a", "b"), ((1.0, 1.5), (1.5, 1.0)))

    def test_rejects_no_labels(self):
        with pytest.raises(ValidationError, match="at least one label"):
            ExplicitMatrix((), ())

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValidationError, match="labels must be distinct"):
            ExplicitMatrix(("a", "a"), ((1.0, 1.0), (1.0, 1.0)))

    def test_rejects_a_table_that_is_not_square(self):
        with pytest.raises(ValidationError, match="must be 2x2"):
            ExplicitMatrix(("a", "b"), ((1.0, 0.5),))
        with pytest.raises(ValidationError, match="must be 2x2"):
            ExplicitMatrix(("a", "b"), ((1.0, 0.5), (0.5,)))


class TestProperties:
    def test_identity_matrix_is_similarity(self):
        m = ExplicitMatrix(
            ("a", "b", "c"),
            ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
        )
        report = relation_properties(m)
        assert report == PropertyReport(True, None)

    def test_effect_matrix_transitivity_matches_exhaustive_oracle(self, effect_matrix):
        n = len(effect_matrix.labels)
        e = effect_matrix.entries
        oracle = all(
            e[i][k] >= min(e[i][j], e[j][k])
            for i in range(n) for j in range(n) for k in range(n)
        )
        report = relation_properties(effect_matrix)
        assert report.max_min_transitive == oracle
        assert oracle is True

    def test_hair_matrix_is_not_transitive(self, hair_matrix):
        report = relation_properties(hair_matrix)
        assert not report.max_min_transitive
        assert report.first_violation == ("Black", "Dark brown", "Auburn")
        x, y, z = report.first_violation
        assert hair_matrix.degree(x, z) < min(
            hair_matrix.degree(x, y), hair_matrix.degree(y, z)
        )


class TestKeys:
    """``keys(level)``: a key per class of the cut, where the cut is an equivalence."""

    def test_key_is_the_first_column_that_reaches_the_level(self, effect_matrix):
        # test_acceptance's law checks keys against the cut on random tables
        key = effect_matrix.keys(0.85)
        assert [key(v) for v in effect_matrix.labels] == [0, 0, 0, 0, 4, 5, 5, 7]

    def test_crisp_keys_are_the_values(self):
        key = CrispIdentity().keys(0.5)
        assert (key("a"), key(2)) == ("a", 2)
        with pytest.raises(UnknownValueError, match="not equal to itself"):
            key(math.nan)

    def test_keys_check_a_value_as_degree_does(self, effect_matrix):
        with pytest.raises(UnknownValueError, match="'Mild' not in matrix domain"):
            effect_matrix.keys(0.8)("Mild")

    @pytest.mark.parametrize("level", [0.01, 0.5, 1.0])
    def test_kinds_without_keys(self, hair_matrix, level):
        for spec in (Linear(10), Planar(10, {}), hair_matrix, build_ordinal_matrix("abc")):
            assert spec.keys(level) is None

    def test_transitivity_is_decided_on_first_need_and_hidden(self, effect_matrix):
        m = ExplicitMatrix(effect_matrix.labels, effect_matrix.entries)
        assert m._violation is proximity._UNDECIDED
        before = repr(m)
        assert m.keys(0.8) is not None
        assert m._violation is None
        assert repr(m) == before and m == effect_matrix and hash(m) == hash(effect_matrix)
        assert pickle.loads(pickle.dumps(m))._violation is proximity._UNDECIDED


class TestMatrixOrder:
    MATRIX = build_ordinal_matrix(["a", "b", "c"])

    @pytest.mark.parametrize("order, message", [
        (("a", "b", "a"), "at least 2 distinct labels"),
        (("a",), "at least 2 distinct labels"),
        (("a", "b", "d"), "does not match the matrix labels"),
        (("a", "b"), "does not match the matrix labels"),
    ])
    def test_rejects_an_order_that_is_not_the_labels(self, order, message):
        with pytest.raises(ValidationError, match=message):
            ExplicitMatrix(self.MATRIX.labels, self.MATRIX.entries, order)

    def test_cells_are_ranks_in_the_order(self):
        spec = ExplicitMatrix(self.MATRIX.labels, self.MATRIX.entries, ("c", "a", "b"))
        dims, length, rank = spec.embedding()
        assert (dims, length) == (1, 2.0)
        assert [rank(v) for v in "abc"] == [1, 2, 0]
        with pytest.raises(UnknownValueError):
            rank("d")

    def test_no_order_no_cells(self):
        assert ExplicitMatrix(self.MATRIX.labels, self.MATRIX.entries).embedding() is None
        assert CrispIdentity().embedding() is None


class TestDegreeOf:
    def test_crisp(self):
        assert degree_of(CrispIdentity(), "Expert", "Expert") == 1.0
        assert degree_of(CrispIdentity(), "Expert", "Resident") == 0.0

    def test_crisp_rejects_a_value_unequal_to_itself(self):
        with pytest.raises(UnknownValueError, match="not equal to itself"):
            degree_of(CrispIdentity(), math.nan, math.nan)

    def test_matrix_lookup(self, effect_matrix):
        assert degree_of(effect_matrix, "Severe", "Major") == 0.80

    def test_matrix_unknown_label(self, effect_matrix):
        with pytest.raises(UnknownValueError):
            degree_of(effect_matrix, "Severe", "Mild")

    def test_linear_dispatch(self):
        assert degree_of(Linear(100), 20, 30) == pytest.approx(0.9)

    def test_planar_resolves_labels(self):
        spec = Planar(2.0, {"a": (0.0, 0.0), "b": (2.0, 2.0)})
        assert degree_of(spec, "a", "b") == pytest.approx(0.0)
        with pytest.raises(UnknownValueError):
            degree_of(spec, "a", "missing")

    @given(i=st.integers(0, 7), j=st.integers(0, 7))
    def test_symmetry_and_reflexivity(self, i, j, effect_matrix):
        spec = effect_matrix
        x, y = effect_matrix.labels[i], effect_matrix.labels[j]
        assert degree_of(spec, x, y) == degree_of(spec, y, x)
        assert degree_of(spec, x, x) == 1.0

    def test_planar_distance_bound(self):
        spec = Planar(100.0, {})
        p, q = (12.0, 7.0), (14.0, 23.0)
        degree = degree_of(spec, p, q)
        assert degree == pytest.approx(1 - math.dist(p, q) / (math.sqrt(2) * 100))


# --- alpha-cut neighbourhoods: compile(values).near(x, level) ---------------

CUT_LEVELS = (0.0, 0.3, 2 / 3, 0.7, 0.9, 1.0)
SITES = {"A": (0.0, 0.0), "B": (1.5, 2.0), "C": (5.0, 5.0), "D": (9.9, 0.2),
         "E": (10.0, 10.0), "F": (4.9, 5.1), "G": (2.5, 7.5), "H": (3.3, 3.4)}
LINEAR_POINTS = (0, 1, 2, 2.5, 3, 4, 5, 5.5, 6, 7, 7.5, 8, 9, 10, "6.5")
PLANAR_POINTS = tuple(SITES) + ((0, 0), (1.5, 2.0), (3.0, 4.0), (10, 0), (6.2, 4.9))
CRISP_POINTS = ("a", "b", "c", 1, 2.5)


def assert_near_law(spec, domain, probes, levels=CUT_LEVELS):
    """near(x, level) is the set of domain values y with degree(x, y) >= level.

    Besides ``levels``, every degree between a probe and a domain value is
    tried as a level, so each value that sits exactly on the band or radius
    edge is in the cut.
    """
    cut = spec.compile(domain)
    for x in probes:
        edges = {spec.degree(x, y) for y in domain}
        for level in (*levels, *edges):
            got = cut.near(x, level)
            assert isinstance(got, frozenset)
            assert got == {y for y in domain if spec.degree(x, y) >= level}, (x, level)


def raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # noqa: BLE001 -- the exception is the outcome
        return type(exc), str(exc)
    return None


class TestNear:
    def test_linear(self):
        spec = Linear(10)
        assert_near_law(spec, LINEAR_POINTS, LINEAR_POINTS + (0.25, 9.999, "3"))

    def test_linear_band_edge_is_in_the_cut(self):
        # 1 - 3/10 is exactly 0.7, so points 3 apart are 0.7-similar
        cut = Linear(10).compile((0, 3, 3.5, 4, 7))
        assert Linear(10).degree(4, 7) == 0.7
        assert cut.near(4, 0.7) == {3, 3.5, 4, 7}
        assert cut.near(0, 0.7) == {0, 3}

    @pytest.mark.parametrize("x, values, dropped", [
        (64.4, (64.1, 64.4, 64.7), 64.1),
        (65.1, (64.8, 65.1, 65.4), 65.4),
    ])
    def test_linear_band_ends_are_trimmed_to_the_degree(self, x, values, dropped):
        # Both ends are 0.3 away, inside the band's slack, but on one side
        # degree rounds to 0.9969999999999999: that end is trimmed.
        spec = Linear(100)
        got = spec.compile(values).near(x, 0.997)
        assert dropped not in got and spec.degree(x, dropped) < 0.997
        assert got == {y for y in values if spec.degree(x, y) >= 0.997}

    def test_planar(self):
        spec = Planar(10, SITES)
        assert_near_law(spec, PLANAR_POINTS, PLANAR_POINTS + ((7.0, 7.0),))

    def test_planar_radius_edge_is_in_the_cut(self):
        spec = Planar(10, SITES)
        level = spec.degree("A", "B")  # 1 - 2.5 / (10 * sqrt(2))
        cut = spec.compile(SITES)
        assert "B" in cut.near("A", level)
        assert "B" not in cut.near("A", math.nextafter(level, 1.0))

    def test_matrix(self, hair_matrix, effect_matrix):
        for matrix in (hair_matrix, effect_matrix):
            labels = matrix.labels
            assert_near_law(matrix, labels[1:], labels)

    def test_crisp(self):
        assert_near_law(CrispIdentity(), CRISP_POINTS, CRISP_POINTS + ("z", 1.0))

    @given(points=st.lists(st.floats(0, 50), max_size=12), x=st.floats(0, 50),
           level=st.sampled_from(CUT_LEVELS) | st.floats(0, 1))
    def test_linear_law_on_any_reals(self, points, x, level):
        assert_near_law(Linear(50), points, [x, *points], (level,))

    @given(points=st.lists(st.tuples(st.floats(0, 3), st.floats(0, 3)), max_size=12),
           x=st.tuples(st.floats(0, 3), st.floats(0, 3)),
           level=st.sampled_from(CUT_LEVELS) | st.floats(0, 1))
    def test_planar_law_on_any_points(self, points, x, level):
        assert_near_law(Planar(3, {}), points, [x, *points], (level,))

    @pytest.mark.parametrize("spec, good, bad", [
        (Linear(10), 5, ["abc", True, None, 500, -1, math.nan]),
        (Planar(10, SITES), "C", ["Nowhere", 5, (1, 2, 3), (11, 0), (True, 1),
                                  ("a", 1)]),
        (ExplicitMatrix(("p", "q"), ((1, 0.5), (0.5, 1))), "p",
         ["r", 3, ["p"]]),
        (CrispIdentity(), "a", [math.nan]),
    ])
    def test_bad_values_raise_what_degree_raises(self, spec, good, bad):
        cut = spec.compile([good])
        for value in bad:
            expected = raised(spec.degree, value, good)
            assert expected is not None and issubclass(expected[0], FuzzyRelError)
            assert raised(cut.near, value, 0.5) == expected
            assert raised(spec.compile, [good, value]) == expected

    def test_planar_point_of_three_coordinates(self):
        spec = Planar(10, SITES)
        expected = (DomainError, "point (1, 2, 3) is not an (x, y) pair")
        assert raised(spec.resolve, (1, 2, 3)) == expected
        assert raised(spec.degree, "C", (1, 2, 3)) == expected


# --- neighbourhood masks: compile(values).near_mask(x, level) ----------------

MASK_DOMAINS = {
    # numeric text at the position of a number, and 1 beside 1.0
    "linear": (Linear(10), st.one_of(
        st.integers(0, 10), st.floats(0, 10), st.sampled_from((1, 1.0, "1", "2.5", 2.5)),
        st.integers(0, 10).map(str))),
    "planar": (Planar(10, SITES), st.one_of(
        st.sampled_from(sorted(SITES)), st.sampled_from(PLANAR_POINTS),
        st.tuples(st.floats(0, 10), st.floats(0, 10)))),
    "matrix": (ExplicitMatrix(("p", "q", "r", "s"), ((1, 0.5, 0.2, 0.7), (0.5, 1, 0.9, 0.3),
                                                   (0.2, 0.9, 1, 0.6), (0.7, 0.3, 0.6, 1))),
               st.sampled_from("pqrs")),
    "crisp": (CrispIdentity(), st.one_of(
        st.sampled_from((1, 1.0, "1", True, 0, 0.0, False, "a")), st.integers(-3, 3),
        st.text(max_size=2))),
}


@st.composite
def masked_cuts(draw):
    """(spec, values, probe, level): a level from the fixed ones, any float,
    or a degree between two of the values and the probe."""
    spec, value = MASK_DOMAINS[draw(st.sampled_from(sorted(MASK_DOMAINS)))]
    # distinct by Python equality, as a kept cut holds them
    values = draw(st.lists(value, min_size=1, max_size=12, unique=True))
    x = draw(value | st.sampled_from(values))
    y = draw(st.sampled_from(values))
    level = draw(st.sampled_from(CUT_LEVELS) | st.floats(0, 1)
                 | st.just(spec.degree(x, y)) | st.just(spec.degree(values[0], y)))
    return spec, values, x, level


class TestNearMask:
    @given(masked_cuts())
    def test_mask_decodes_to_the_neighbourhood(self, case):
        spec, values, x, level = case
        cut = spec.compile(values)
        positions = cut.positions()
        # one bit per value
        assert len(positions) == len(values) and set(positions) == set(values)
        assert sorted(positions.values()) == list(range(len(values)))
        mask = cut.near_mask(x, level)
        assert 0 <= mask < 1 << len(values)
        assert {v for v, i in positions.items() if mask >> i & 1} == cut.near(x, level)
        assert cut.masks(level)[x] == mask

    def test_a_line_mask_is_the_run_of_its_band(self):
        cut = Linear(10).compile((7, 0, 3, "3", 3.5, 4))
        assert cut.positions() == {0: 0, 3: 1, "3": 2, 3.5: 3, 4: 4, 7: 5}
        assert cut.near_mask(4, 0.7) == 0b111110  # 3, "3", 3.5, 4 and 7
        assert cut.near_mask(0, 0.7) == 0b000111


# --- spec kinds own their decisions ----------------------------------------

SPEC_KINDS = {"Linear", "Planar", "ExplicitMatrix", "CrispIdentity"}
SRC = Path(__file__).resolve().parent.parent / "src" / "fuzzyrel"


def spec_type_tests(source: str) -> set:
    """(line, kind) of each ``isinstance`` call that names a spec kind."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                and len(node.args) == 2):
            for sub in ast.walk(node.args[1]):
                kind = getattr(sub, "id", None) or getattr(sub, "attr", None)
                if kind in SPEC_KINDS:
                    found.add((node.lineno, kind))
    return found


def test_guard_sees_every_form_of_a_spec_type_test():
    source = "isinstance(s, Linear)\nisinstance(s, (Planar, proximity.CrispIdentity))"
    assert spec_type_tests(source) == {(1, "Linear"), (2, "Planar"), (2, "CrispIdentity")}


def test_no_spec_type_test_outside_proximity():
    switches = {path.name: spec_type_tests(path.read_text(encoding="utf-8"))
                for path in sorted(SRC.glob("*.py")) if path.name != "proximity.py"}
    assert {name: found for name, found in switches.items() if found} == {}


CLASS_FORMERS = {"closure_classes", "classes_over", "cell_key"}


def calls_by_function(source: str, callees: set) -> set:
    """(enclosing function, callee) of each call of one of ``callees``."""
    found = set()

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                callee = getattr(child.func, "id", None) or getattr(child.func, "attr", None)
                if callee in callees:
                    found.add((function, callee))
            inner = child.name if isinstance(child, ast.FunctionDef) else function
            visit(child, inner)

    visit(ast.parse(source), None)
    return found


def test_class_guard_sees_every_form_of_a_call():
    source = ("x = closure_classes(v)\n"
              "def f():\n    def g():\n        partition.classes_over(v)\n"
              "    return closure_classes, cell_key(p)(v)")
    assert calls_by_function(source, CLASS_FORMERS) == {
        (None, "closure_classes"), ("g", "classes_over"), ("f", "cell_key")}


def test_classes_are_formed_only_in_class_grouping():
    calls = {(path.name, function, callee)
             for path in sorted(SRC.glob("*.py"))
             for function, callee in calls_by_function(path.read_text(encoding="utf-8"),
                                                       CLASS_FORMERS)}
    # one function keys values by cell: for classes_over, and behind the
    # memo that cell checks look values up in
    assert calls == {("algebra.py", "class_grouping", "closure_classes"),
                     ("algebra.py", "class_grouping", "classes_over"),
                     ("algebra.py", "_cell_keys", "cell_key"),
                     ("partition.py", "classes_over", "cell_key")}


MERGE_CORE = {"_merge", "_trusted"}


def test_merge_core_guard_sees_every_form_of_a_call():
    source = ("class T:\n    def m(self):\n        return T._trusted(n, c)\n"
              "def f():\n    return [_merge(s, r) for r in rows]")
    assert calls_by_function(source, MERGE_CORE) == {("m", "_trusted"), ("f", "_merge")}


def test_output_tuples_are_built_only_in_the_merge_core():
    calls = calls_by_function((SRC / "algebra.py").read_text(encoding="utf-8"), MERGE_CORE)
    # every operator hands _merge distinct component rows
    assert calls == {("_merge", "_trusted"),
                     ("merge_relation", "_merge"), ("project", "_merge"), ("join", "_merge")}


def spec_kind_names(source: str) -> set:
    """Each spec kind ``source`` names: as a name, an attribute or an import."""
    return {name for node in ast.walk(ast.parse(source))
            for name in (getattr(node, key, None) for key in ("id", "attr", "name"))
            if name in SPEC_KINDS}


def test_kind_guard_sees_every_form_of_a_name():
    source = ("from .proximity import Linear as L\nx = proximity.Planar\n"
              "isinstance(s, ExplicitMatrix)\nCrispIdentity()\n'Linear'")
    assert spec_kind_names(source) == SPEC_KINDS
    assert spec_kind_names("'Linear'\nLinearCut = 1") == set()


def test_closure_names_no_spec_kind():
    # each compiled cut answers its classes: the engine switches on no kind
    assert spec_kind_names((SRC / "closure.py").read_text(encoding="utf-8")) == set()


def test_algebra_imports_no_spec_kind_but_the_crisp_default():
    tree = ast.parse((SRC / "algebra.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert imported & SPEC_KINDS == {"CrispIdentity"}


CELL_MEMO = "_cells"


def cell_memo_mentions(source: str) -> set:
    """Qualified name of the class or function around each mention of
    ``_cells`` (None at module level): as an attribute, a name, an
    argument, a keyword or a string."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            names = {getattr(child, key, None) for key in ("attr", "id", "arg", "name")}
            if isinstance(child, ast.Constant):
                names.add(child.value)
            if CELL_MEMO in names:
                found.add(scope)
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            visit(child, inner)

    visit(ast.parse(source), None)
    return found


def test_memo_guard_sees_every_form_of_a_mention():
    source = ("class K:\n    __slots__ = ('_cells',)\n"
              "    def __init__(self):\n        self._set(_cells={})\n"
              "def f(a):\n    return a.proximity._cells\n"
              "def g(_cells):\n    pass\n"
              "_cells = getattr(a, 'x')\n")
    assert cell_memo_mentions(source) == {"K", "K.__init__", "f", "g", None}
    assert cell_memo_mentions('"""a _cells memo"""\nx._cellsx = y') == set()


def test_cell_memos_live_on_the_proximity_spec():
    mentions = {(path.name, scope) for path in sorted(SRC.glob("*.py"))
                for scope in cell_memo_mentions(path.read_text(encoding="utf-8"))}
    # the slot, the constructors that start it empty, and its one reader
    assert mentions == {("proximity.py", "_Kind"), ("proximity.py", "_Kind.__init__"),
                        ("proximity.py", "Linear.__init__"),
                        ("proximity.py", "Planar.__init__"),
                        ("proximity.py", "ExplicitMatrix.__init__"),
                        ("algebra.py", "_cell_keys")}
    assert AttributeSpec.__slots__ == AttributeSpec._fields
