"""Query parsing, rendering and evaluation."""

import math
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from fuzzyrel import FuzzyTuple, ParseError, UnknownRelationError, evaluate, parse, render
from fuzzyrel.query import Cond, Join, LevelClause, Project, Query, RelationRef, Select

ARSON_QUERY = """
project (select ("PHYSICAL CHARACTERISTICS")
         where "HAIR COLOR" = "Blond", BUILD = "Large"
         with level("HAIR COLOR") = 0.7, level(BUILD) = 0.7)
over NAME, "HAIR COLOR", BUILD
with level(NAME) = 0.0, level("HAIR COLOR") = 0.7, level(BUILD) = 0.7
giving "LIKELY ARSONISTS"
"""


# Names and literals of any value: a name or string that holds '"' or a
# newline, a literal that is negative, non-finite, a bool or too large for
# a float, and a level outside [0, 1] make a tree no text spells.
NAMES = st.text(max_size=6)
LITERALS = st.one_of(NAMES, st.integers(), st.floats(), st.booleans())
LEVEL_CLAUSES = st.lists(st.builds(LevelClause, NAMES, st.floats(0.0, 1.0) | st.floats()),
                         max_size=2).map(tuple)


def _items(items):
    return st.lists(items, min_size=1, max_size=3).map(tuple)


def _spelt_name(name):
    return '"' not in name and "\n" not in name


def _spelt_number(value):
    # an unsigned decimal that a float holds; -0.0 has a sign
    return (type(value) in (int, float) and value >= 0
            and float(str(value)) < math.inf and math.copysign(1, value) > 0)


def _spellable(node):
    # In "join (project (R) over A, S) on B" the list over A takes S too,
    # so no text parses to a join whose left operand ends in a name list
    # and whose right operand is a bare name.
    if isinstance(node, Query):
        return (_spellable(node.root)
                and (node.giving is None or _spelt_name(node.giving)))
    if isinstance(node, RelationRef):
        return _spelt_name(node.name)
    if not all(_spelt_name(c.attr) and _spelt_number(c.value) and c.value <= 1
               for c in node.levels):
        return False
    if isinstance(node, Join):
        return (not (isinstance(node.left, (Project, Join)) and not node.left.levels
                     and isinstance(node.right, RelationRef))
                and all(map(_spelt_name, node.on))
                and _spellable(node.left) and _spellable(node.right))
    if isinstance(node, Project):
        return all(map(_spelt_name, node.attrs)) and _spellable(node.child)
    return (all(_spelt_name(c.attr) and (_spelt_name(c.value) if isinstance(c.value, str)
                                         else _spelt_number(c.value)) for c in node.conds)
            and _spellable(node.child))


QUERIES = st.builds(Query, st.recursive(
    st.builds(RelationRef, NAMES),
    lambda children: st.one_of(
        st.builds(Select, children, _items(st.builds(Cond, NAMES, LITERALS)),
                  LEVEL_CLAUSES),
        st.builds(Project, children, _items(NAMES), LEVEL_CLAUSES),
        st.builds(Join, children, children, _items(NAMES), LEVEL_CLAUSES)),
    max_leaves=5), st.none() | NAMES)



class TestParse:
    def test_arson_query_structure(self):
        q = parse(ARSON_QUERY)
        assert q.giving == "LIKELY ARSONISTS"
        proj = q.root
        assert isinstance(proj, Project)
        assert proj.attrs == ("NAME", "HAIR COLOR", "BUILD")
        assert proj.levels == (
            LevelClause("NAME", 0.0),
            LevelClause("HAIR COLOR", 0.7),
            LevelClause("BUILD", 0.7),
        )
        sel = proj.child
        assert isinstance(sel, Select)
        assert sel.conds == (
            Cond("HAIR COLOR", "Blond"),
            Cond("BUILD", "Large"),
        )
        assert sel.levels == (
            LevelClause("HAIR COLOR", 0.7),
            LevelClause("BUILD", 0.7),
        )
        assert sel.child == RelationRef("PHYSICAL CHARACTERISTICS")

    def test_omitted_levels_default_to_one(self):
        q = parse('select (SURVEY) where Type = "Expert"')
        assert isinstance(q.root, Select)
        assert q.root.levels == ()

    def test_keywords_case_insensitive(self):
        q = parse('SELECT (SURVEY) WHERE Type = Expert WITH LEVEL(Type) = 1')
        assert isinstance(q.root, Select)
        assert q.root.conds == (Cond("Type", "Expert"),)

    def test_thres_keyword_accepted(self):
        q = parse("project (R) over X with thres(X) >= 0.85")
        assert q.root.levels == (LevelClause("X", 0.85),)

    def test_join_form(self):
        q = parse("join (R1, R2) on Pollutant, Effect with level(Effect) > 0.85")
        assert isinstance(q.root, Join)
        assert q.root.on == ("Pollutant", "Effect")

    def test_numeric_condition_literal(self):
        q = parse("select (SUPPLIERS) where STATUS = 20")
        assert q.root.conds == (Cond("STATUS", 20),)

    def test_missing_attribute_list(self):
        with pytest.raises(ParseError) as err:
            parse("project (R) over")
        assert err.value.line == 1
        assert err.value.column == 17

    def test_unterminated_string(self):
        with pytest.raises(ParseError) as err:
            parse('select (R) where X = "boom')
        assert (err.value.line, err.value.column) == (1, 22)

    @pytest.mark.parametrize("text, column", [
        ("select (R) where X = " + "9" * 400 + ".0", 22),
        ("select (R) where X = " + "9" * 400, 22),
        ("project (R) over X with level(X) = " + "9" * 400, 36),
    ], ids=["float-literal", "int-literal", "int-level"])
    def test_number_no_float_holds_is_refused(self, text, column):
        # a float would read inf, which renders as the name "inf"
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.line, err.value.column, err.value.expected) == \
            (1, column, "a finite number")

    def test_leading_zeros_do_not_count_as_digits(self):
        # int() refuses a text of more than 4300 digits
        q = parse("select (R) where X = " + "0" * 5000 + "1")
        assert q.root.conds == (Cond("X", 1),)

    @pytest.mark.parametrize("text, column", [
        ("select (R) where X = ٣٣", 22),
        ("select (R) where X = 3 with level(X) = ٠.9", 40),
    ], ids=["literal", "level"])
    def test_numbers_are_ascii_digits(self, text, column):
        # as in a data file, which Linear.parse reads in ASCII digits only
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.column, err.value.expected) == \
            (column, "a name, number or punctuation")

    def test_level_outside_unit_interval(self):
        with pytest.raises(ParseError):
            parse("project (R) over X with level(X) = 2")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("R extra")

    def test_error_message_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("select (R) where")
        assert "line 1, column 17" in str(err.value)

    def test_spaces_at_the_end_are_one_match(self):
        # retrying the match at each trailing space would take minutes here
        spaces = " \t" * 50_000
        assert parse("R" + spaces) == parse("R")
        with pytest.raises(ParseError) as err:
            parse("select (R) where" + spaces)
        assert "line 1, column 100017" in str(err.value)

    @pytest.mark.parametrize("space", ["\r", "\t", "\xa0"],
                             ids=["carriage-return", "tab", "no-break-space"])
    def test_each_space_but_a_newline_is_one_column(self, space):
        with pytest.raises(ParseError) as err:
            parse(f"project (R){space}over X # y")
        assert (err.value.line, err.value.column, err.value.found) == (1, 20, "'#'")

    def test_error_on_the_third_line(self):
        with pytest.raises(ParseError) as err:
            parse("project (R)\nover X\n  with level(X) >= 1.5")
        assert (err.value.line, err.value.column) == (3, 20)
        assert (err.value.expected, err.value.found) == ("a number in [0, 1]", "1.5")

    def test_keyword_is_found_as_spelt(self):
        with pytest.raises(ParseError) as err:
            parse("select (R) where X = 1 WHERE")
        assert str(err.value) == "line 1, column 24: expected end of input, found 'WHERE'"

    def test_unclosed_quote_wins_over_an_earlier_grammar_error(self):
        # the whole text is lexed before the grammar is checked
        with pytest.raises(ParseError) as err:
            parse('select R where X = "a')
        assert (err.value.column, err.value.expected) == (20, "a closing quote")

    def test_positions_are_worked_out_only_for_an_error(self, monkeypatch):
        import fuzzyrel.query as querylang

        def refuse(text, offset):
            raise AssertionError("a position was worked out")

        monkeypatch.setattr(querylang, "_position", refuse)
        assert parse(ARSON_QUERY) == parse(render(parse(ARSON_QUERY)))
        calls = []
        monkeypatch.setattr(querylang, "_position",
                            lambda text, offset: calls.append(offset) or (1, offset + 1))
        with pytest.raises(ParseError) as err:
            parse("project (R) over X with")
        assert calls == [23] and err.value.column == 24


class TestRender:
    def test_round_trip_of_arson_query(self):
        q = parse(ARSON_QUERY)
        assert parse(render(q)) == q

    def test_round_trip_quotes_awkward_names(self):
        q = Query(
            Project(RelationRef("my table"), ("select",), (LevelClause("x y", 0.5),)),
            giving="with",
        )
        assert parse(render(q)) == q

    def test_round_trip_literals(self):
        q = parse('select (R) where A = 20, B = 0.5, C = "two words", D = bare')
        assert parse(render(q)) == q

    @pytest.mark.parametrize("text, rendered", [
        ("select (R) where X = 0.00001", "select (R) where X = 0.00001"),
        ("project (R) over X with level(X) = 0.00001",
         "project (R) over X with level(X) = 0.00001"),
        ("select (R) where X = 10000000000000000.0",
         "select (R) where X = 10000000000000000.0"),
        ("select (R) where X = 0.000012345", "select (R) where X = 0.000012345"),
    ])
    def test_floats_render_without_exponent(self, text, rendered):
        # repr writes these with an exponent, which the tokenizer does not read
        q = parse(text)
        assert render(q) == rendered
        assert parse(render(q)) == q

    @pytest.mark.parametrize("text, left", [
        ("join (project (R) over A, S) on B", Project(RelationRef("R"), ("A",))),
        ("join (join (R, T) on A, S) on B",
         Join(RelationRef("R"), RelationRef("T"), ("A",))),
    ])
    def test_join_that_no_text_spells_is_refused(self, text, left):
        # the only text for the tree does not parse: the list takes S
        with pytest.raises(ParseError, match="expected ','"):
            parse(text)
        with pytest.raises(ValueError, match="no query text spells"):
            render(Query(Join(left, RelationRef("S"), ("B",))))
        # a with clause ends the left operand's list, and then S is spelt
        fields = [getattr(left, f) for f in left._fields[:-1]]
        spelt = Query(Join(type(left)(*fields, (LevelClause("A", 0.5),)),
                           RelationRef("S"), ("B",)))
        assert parse(render(spelt)) == spelt

    @settings(max_examples=500, deadline=None)
    @given(q=QUERIES)
    @example(q=Query(Select(RelationRef("R"), (Cond("X", -0.0),))))
    @example(q=Query(Project(RelationRef("R"), ("X",), (LevelClause("X", -0.0),))))
    @example(q=Query(Select(RelationRef("R"), (Cond("X", 2 ** 1024),))))
    # a float reads this int's digits as the largest float, not inf
    @example(q=Query(Select(RelationRef("R"), (Cond("X", int(sys.float_info.max) + 1),))))
    def test_round_trip_keeps_trees_and_value_types(self, q):
        if not _spellable(q):
            with pytest.raises(ValueError, match="no query text spells"):
                render(q)
            return
        back = parse(render(q))
        assert back == q
        assert repr(back) == repr(q)  # an int stays an int, a float a float



class TestEvaluate:
    @pytest.mark.parametrize("call", [lambda: evaluate(object(), {}), lambda: render(object())],
                             ids=["evaluate", "render"])
    def test_an_object_that_is_no_query_node_is_refused(self, call):
        with pytest.raises(TypeError, match="not a query node: <object object"):
            call()

    def test_expert_pipeline(self, survey_db):
        q = parse(
            'project (select (SURVEY) where Type = "Expert") '
            "over Pollutant, Name, Effect "
            "with level(Effect) = 0.85, level(Name) = 0 giving R1"
        )
        r1 = evaluate(q, survey_db.relations)
        assert len(r1) == 5

    def test_arson_query(self, arson_db):
        result = evaluate(parse(ARSON_QUERY), arson_db.relations)
        assert set(result.tuples) == {
            FuzzyTuple.of({
                "NAME": {"Gary", "James"},
                "HAIR COLOR": {"Blond", "Bleached"},
                "BUILD": {"Very large", "Large"},
            })
        }

    def test_unknown_relation(self, survey_db):
        with pytest.raises(UnknownRelationError):
            evaluate(parse("select (NOWHERE) where X = 1"), survey_db.relations)

    def test_evaluation_never_mutates_the_database(self, survey_db):
        before = {name: rel.tuples for name, rel in survey_db.relations.items()}
        evaluate(
            parse('select (SURVEY) where Type = "Expert"'), survey_db.relations
        )
        after = {name: rel.tuples for name, rel in survey_db.relations.items()}
        assert before == after
