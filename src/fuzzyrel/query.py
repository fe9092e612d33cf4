"""Parser and evaluator for the textual query language.

Grammar (keywords are case-insensitive, names may be double-quoted):

    query   := expr [ "giving" name ]
    expr    := "select" "(" expr ")" "where" cond { "," cond } [ with ]
             | "project" "(" expr ")" "over" name { "," name } [ with ]
             | "join" "(" expr "," expr ")" "on" name { "," name } [ with ]
             | name
    cond    := name "=" literal
    with    := "with" level { "," level }
    level   := ("level" | "thres") "(" name ")" ("=" | ">=" | ">") number

A number is unsigned ASCII digits with at most one point, no larger
than a float holds.  An omitted level defaults to 1.  The three
comparators after a level all bind the same threshold, compared
non-strictly during evaluation.
"""

from __future__ import annotations

import math
import re
from typing import Mapping, Union

from . import algebra
from .algebra import FuzzyRelation, LevelMap
from .errors import FuzzyRelError, UnknownRelationError
from .proximity import Value, _Record

_KEYWORDS = {
    "select", "project", "join", "where", "over", "on", "with",
    "level", "thres", "giving",
}

_MAX_DEPTH = 150


class ParseError(FuzzyRelError):
    """Malformed query text, with the offending position.

    ``line`` counts from 1 and only a newline starts the next one;
    ``column`` counts code points from 1 within the line, so a tab, a
    carriage return or any other space is one column.
    """

    def __init__(self, line: int, column: int, expected: str, found: str = ""):
        self.line = line
        self.column = column
        self.expected = expected
        self.found = found
        detail = f", found {found}" if found else ""
        super().__init__(f"line {line}, column {column}: expected {expected}{detail}")


class Cond(_Record):
    __slots__ = _fields = ("attr", "value")

    def __init__(self, attr: str, value: Value):
        self._set(attr, value)


class LevelClause(_Record):
    __slots__ = _fields = ("attr", "value")

    def __init__(self, attr: str, value: float):
        self._set(attr, value)


class RelationRef(_Record):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        self._set(name)


# Distinct classes, not named tuples: a Select never equals a Project.
class Select(_Record):
    __slots__ = _fields = ("child", "conds", "levels")

    def __init__(self, child: Node, conds: tuple[Cond, ...],
                 levels: tuple[LevelClause, ...] = ()):
        self._set(child, conds, levels)


class Project(_Record):
    __slots__ = _fields = ("child", "attrs", "levels")

    def __init__(self, child: Node, attrs: tuple[str, ...],
                 levels: tuple[LevelClause, ...] = ()):
        self._set(child, attrs, levels)


class Join(_Record):
    __slots__ = _fields = ("left", "right", "on", "levels")

    def __init__(self, left: Node, right: Node, on: tuple[str, ...],
                 levels: tuple[LevelClause, ...] = ()):
        self._set(left, right, on, levels)


Node = Union[RelationRef, Select, Project, Join]


class Query(_Record):
    __slots__ = _fields = ("root", "giving")

    def __init__(self, root: Node, giving: str | None = None):
        self._set(root, giving)


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# One alternative per token kind, tried in this order at each position,
# each after the run of spaces before it, so that a run is no match of its
# own; END takes the spaces at the end of the text in one match, where a
# retry at each of them would cost time quadratic in their number.
# ``\s`` is exactly ``str.isspace``.
_TOKEN_RE = re.compile(r"""
  \s*
  (?:
    (?P<STRING>"[^"\n]*")
  | (?P<QUOTE>")
  | (?P<IDENT>""" + _IDENT_RE.pattern + r""")
  | (?P<NUMBER>[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)
  | (?P<SYMBOL>>=|[(),=>])
  | (?P<OTHER>\S)
  | (?P<END>\Z)
  )
""", re.VERBOSE)


# Tokens keep offsets; a position is worked out only for an error.
def _position(text: str, offset: int) -> tuple[int, int]:
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, line_start) + 1, offset - line_start + 1


def _error(text: str, offset: int, expected: str, found: str = "") -> ParseError:
    return ParseError(*_position(text, offset), expected, found)


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    """(kind, value, offset) per token, then ("EOF", None, len(text)).

    A symbol's kind is its text, and a keyword's is its lowercase
    spelling, its value the spelling as written; other kinds are IDENT,
    STRING and NUMBER.
    """
    tokens = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        raw = m[kind]
        if kind == "SYMBOL":
            append((raw, raw, m.start(kind)))
        elif kind == "IDENT":
            word = raw.lower()
            append((word if word in _KEYWORDS else kind, raw, m.start(kind)))
        elif kind == "STRING":
            append((kind, raw[1:-1], m.start(kind)))
        elif kind == "NUMBER":
            number = float(raw)
            if number == math.inf:
                raise _error(text, m.start(kind), "a finite number", repr(raw))
            # past that test an int has at most 309 digits, leading zeros aside
            append((kind, number if "." in raw else int(raw.lstrip("0") or "0"),
                    m.start(kind)))
        elif kind == "END":  # a second, empty END would follow one that took spaces
            break
        elif kind == "QUOTE":
            raise _error(text, m.start(kind), "a closing quote")
        else:
            raise _error(text, m.start(kind), "a name, number or punctuation", repr(raw))
    append(("EOF", None, len(text)))
    return tokens


_NAME_KINDS = ("IDENT", "STRING")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def error(self, expected: str) -> ParseError:
        kind, value, offset = self.tokens[self.pos]
        return _error(self.text, offset, expected,
                      "end of input" if kind == "EOF" else repr(str(value)))

    def expect(self, kind: str):
        """Step past a symbol or keyword token of ``kind``."""
        if self.tokens[self.pos][0] != kind:
            raise self.error(f"keyword {kind!r}" if kind.isalpha() else repr(kind))
        self.pos += 1  # only past a token already matched, never past EOF

    def parse_query(self) -> Query:
        root = self.parse_expr()
        giving = None
        if self.tokens[self.pos][0] == "giving":
            self.pos += 1
            giving = self.parse_name()
        if self.tokens[self.pos][0] != "EOF":
            raise self.error("end of input")
        return Query(root, giving)

    def parse_expr(self) -> Node:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise _error(self.text, self.tokens[self.pos][2],
                         "a shallower query (nesting too deep)")
        try:
            op = _OPERATORS.get(self.tokens[self.pos][0])
            if op is None:
                return RelationRef(self.parse_name())
            cls, operands, list_word, item = op
            self.pos += 1
            self.expect("(")
            children = [self.parse_expr()]
            for _ in range(1, operands):
                self.expect(",")
                children.append(self.parse_expr())
            self.expect(")")
            self.expect(list_word)
            items = self.parse_list(item)
            levels = ()
            if self.tokens[self.pos][0] == "with":
                self.pos += 1
                levels = self.parse_list("level")
            return cls(*children, items, levels)
        finally:
            self.depth -= 1

    # Commas both separate list items and the arguments of join, so a
    # list continues past a comma only when the following tokens can
    # actually start another item of that list.
    def parse_list(self, item: str) -> tuple:
        parse_item, starts_item, _ = _ITEMS[item]
        items = [parse_item(self)]
        tokens = self.tokens
        while tokens[self.pos][0] == "," and starts_item(tokens, self.pos + 1):
            self.pos += 1
            items.append(parse_item(self))
        return tuple(items)

    def parse_level(self) -> LevelClause:
        if self.tokens[self.pos][0] not in ("level", "thres"):
            raise self.error("'level' or 'thres'")
        self.pos += 1
        self.expect("(")
        attr = self.parse_name()
        self.expect(")")
        if self.tokens[self.pos][0] not in (">=", "=", ">"):
            raise self.error("'=', '>=' or '>'")
        self.pos += 1
        kind, value, offset = self.tokens[self.pos]
        if kind != "NUMBER":
            raise self.error("a number in [0, 1]")
        if not 0.0 <= value <= 1.0:
            raise _error(self.text, offset, "a number in [0, 1]", str(value))
        self.pos += 1
        return LevelClause(attr, float(value))

    def parse_name(self) -> str:
        kind, value, _ = self.tokens[self.pos]
        if kind not in _NAME_KINDS:
            raise self.error("a name")
        self.pos += 1
        return value

    def parse_cond(self) -> Cond:
        attr = self.parse_name()
        self.expect("=")
        kind, value, _ = self.tokens[self.pos]
        if kind != "NUMBER" and kind not in _NAME_KINDS:
            raise self.error("a literal")
        self.pos += 1
        return Cond(attr, value)


def _quoted(text: str) -> str:
    if '"' in text or "\n" in text:
        raise ValueError(f"no query text spells the name or string {text!r}")
    return f'"{text}"'


def _render_name(name: str) -> str:
    if _IDENT_RE.fullmatch(name) and name.lower() not in _KEYWORDS:
        return name
    return _quoted(name)


def _render_literal(value: Value) -> str:
    if isinstance(value, str):
        return _quoted(value)
    # parse reads an unsigned decimal that a float holds: no bool, no sign
    try:
        spelt = (type(value) in (int, float) and 0.0 <= float(value) < math.inf
                 and math.copysign(1.0, value) > 0)
    except OverflowError:  # an int too large for a float
        spelt = False
    if not spelt:
        raise ValueError(f"no query text spells the number {value!r}")
    text = repr(value)
    if not isinstance(value, float) or "e" not in text:
        return text
    # The tokenizer reads no exponent, so move repr's point instead: the
    # same digits read back as the same float.
    mantissa, exponent = text.split("e")
    digits = mantissa.replace(".", "")
    point = int(exponent) + 1  # repr writes one digit before its point
    if point <= 0:
        return f"0.{'0' * -point}{digits}"
    return f"{digits.ljust(point, '0')}.0"


def _render_level(c: LevelClause) -> str:
    if not 0.0 <= c.value <= 1.0:
        raise ValueError(f"no query text spells the level {c.value!r}")
    return f"level({_render_name(c.attr)}) = {_render_literal(c.value)}"


# The operators of the grammar in the module docstring, which is the
# grammar of record: keyword -> (node class, operand count, list keyword,
# list item).  A node's fields are (operands..., items, levels).
_OPERATORS = {
    "select": (Select, 1, "where", "cond"),
    "project": (Project, 1, "over", "name"),
    "join": (Join, 2, "on", "name"),
}

# list item -> (parse, whether tokens[i:] start another item after a
# comma, render); tokens[i] follows a comma, so it is not EOF
_ITEMS = {
    "cond": (_Parser.parse_cond,
             lambda tokens, i: tokens[i][0] in _NAME_KINDS and tokens[i + 1][0] == "=",
             lambda c: f"{_render_name(c.attr)} = {_render_literal(c.value)}"),
    "name": (_Parser.parse_name, lambda tokens, i: tokens[i][0] in _NAME_KINDS, _render_name),
    "level": (_Parser.parse_level, lambda tokens, i: tokens[i][0] in ("level", "thres"),
              _render_level),
}


def parse(text: str) -> Query:
    """Parse query text; raises ParseError with a position on bad input."""
    return _Parser(text).parse_query()


def _levels_of(clauses: tuple[LevelClause, ...]) -> LevelMap:
    return LevelMap({c.attr: c.value for c in clauses})


def evaluate(query: Query | Node, relations: Mapping[str, FuzzyRelation],
             method: str | None = None) -> FuzzyRelation:
    """Evaluate a parsed query bottom-up against named relations.

    ``method`` optionally forces one class-formation method on every
    merge; None follows each attribute's configured default.  The stored
    relations are never mutated.
    """
    node = query.root if isinstance(query, Query) else query
    if isinstance(node, RelationRef):
        try:
            return relations[node.name]
        except KeyError:
            raise UnknownRelationError(f"no relation named {node.name!r}") from None
    if isinstance(node, Select):
        child = evaluate(node.child, relations, method)
        conds = [(c.attr, c.value) for c in node.conds]
        return algebra.select(child, conds, _levels_of(node.levels))
    if isinstance(node, Project):
        child = evaluate(node.child, relations, method)
        return algebra.project(child, node.attrs, _levels_of(node.levels), method)
    if isinstance(node, Join):
        left = evaluate(node.left, relations, method)
        right = evaluate(node.right, relations, method)
        return algebra.join(left, right, node.on, _levels_of(node.levels), method)
    raise TypeError(f"not a query node: {node!r}")


def render(query: Query | Node) -> str:
    """Canonical text for a query; parsing it back yields an equal tree.

    Raises ValueError on a tree that no text spells: a join whose right
    operand is a bare name and whose left one ends in a name list (a
    project or join without ``with``), since the list would take the
    name; a name or string holding '"' or a newline; a literal that is
    not an int or float, or is negative (-0.0 included), non-finite or
    too large for a float; a level outside [0, 1].
    """
    if isinstance(query, Query):
        text = render(query.root)
        if query.giving is not None:
            text += f" giving {_render_name(query.giving)}"
        return text
    if isinstance(query, RelationRef):
        return _render_name(query.name)
    if (isinstance(query, Join) and isinstance(query.right, RelationRef)
            and isinstance(query.left, (Project, Join)) and not query.left.levels):
        raise ValueError(f"no query text spells {query!r}")
    for word, (cls, _, list_word, item) in _OPERATORS.items():
        if isinstance(query, cls):
            *operands, items, levels = (getattr(query, f) for f in cls._fields)
            text = (f"{word} ({', '.join(map(render, operands))}) {list_word} "
                    + ", ".join(map(_ITEMS[item][2], items)))
            if levels:
                text += " with " + ", ".join(map(_ITEMS["level"][2], levels))
            return text
    raise TypeError(f"not a query node: {query!r}")
