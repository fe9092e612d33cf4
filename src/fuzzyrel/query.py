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

An omitted level defaults to 1.  The three comparators after a level all
bind the same threshold, compared non-strictly during evaluation.
"""

from __future__ import annotations

import re
from typing import Mapping, NamedTuple, Union

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
    """Malformed query text, with the offending position."""

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
        self._set(attr=attr, value=value)


class LevelClause(_Record):
    __slots__ = _fields = ("attr", "value")

    def __init__(self, attr: str, value: float):
        self._set(attr=attr, value=value)


class RelationRef(_Record):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        self._set(name=name)


# Distinct classes, not named tuples: a Select never equals a Project.
class Select(_Record):
    __slots__ = _fields = ("child", "conds", "levels")

    def __init__(self, child: Node, conds: tuple[Cond, ...],
                 levels: tuple[LevelClause, ...] = ()):
        self._set(child=child, conds=conds, levels=levels)


class Project(_Record):
    __slots__ = _fields = ("child", "attrs", "levels")

    def __init__(self, child: Node, attrs: tuple[str, ...],
                 levels: tuple[LevelClause, ...] = ()):
        self._set(child=child, attrs=attrs, levels=levels)


class Join(_Record):
    __slots__ = _fields = ("left", "right", "on", "levels")

    def __init__(self, left: Node, right: Node, on: tuple[str, ...],
                 levels: tuple[LevelClause, ...] = ()):
        self._set(left=left, right=right, on=on, levels=levels)


Node = Union[RelationRef, Select, Project, Join]


class Query(_Record):
    __slots__ = _fields = ("root", "giving")

    def __init__(self, root: Node, giving: str | None = None):
        self._set(root=root, giving=giving)


class _Token(NamedTuple):
    # a tuple, not a frozen class: a query makes ~50 and building them
    # dominated the tokenizer
    kind: str  # IDENT | STRING | NUMBER | SYMBOL | EOF
    value: object
    line: int
    column: int

    def describe(self) -> str:
        if self.kind == "EOF":
            return "end of input"
        return repr(str(self.value))


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# One alternative per token kind, tried in this order at each position.
# ``\s`` is exactly ``str.isspace``; only a newline starts a new line.
_TOKEN_RE = re.compile(r"""
    (?P<NEWLINE>\n)
  | (?P<SPACE>[^\S\n]+)
  | (?P<STRING>"[^"\n]*")
  | (?P<QUOTE>")
  | (?P<IDENT>""" + _IDENT_RE.pattern + r""")
  | (?P<NUMBER>\d+\.\d*|\.\d+|\d+)
  | (?P<SYMBOL>>=|[(),=>])
  | (?P<OTHER>.)
""", re.VERBOSE)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "SPACE":
            continue
        if kind == "NEWLINE":
            line += 1
            line_start = m.end()
            continue
        col = m.start() - line_start + 1
        raw = m.group()
        if kind == "IDENT" or kind == "SYMBOL":
            tokens.append(_Token(kind, raw, line, col))
        elif kind == "NUMBER":
            tokens.append(_Token(kind, float(raw) if "." in raw else int(raw), line, col))
        elif kind == "STRING":
            tokens.append(_Token(kind, raw[1:-1], line, col))
        elif kind == "QUOTE":
            raise ParseError(line, col, "a closing quote")
        else:
            raise ParseError(line, col, "a name, number or punctuation", repr(raw))
    tokens.append(_Token("EOF", None, line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def lookahead(self, offset: int = 1) -> _Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    @staticmethod
    def _starts_name(tok: _Token) -> bool:
        if tok.kind == "STRING":
            return True
        return tok.kind == "IDENT" and tok.value.lower() not in _KEYWORDS

    @staticmethod
    def _starts_level(tok: _Token) -> bool:
        return tok.kind == "IDENT" and tok.value.lower() in ("level", "thres")

    def error(self, expected: str) -> ParseError:
        tok = self.peek()
        return ParseError(tok.line, tok.column, expected, tok.describe())

    def keyword(self) -> str | None:
        tok = self.peek()
        if tok.kind == "IDENT" and tok.value.lower() in _KEYWORDS:
            return tok.value.lower()
        return None

    def expect_keyword(self, word: str):
        if self.keyword() != word:
            raise self.error(f"keyword {word!r}")
        self.advance()

    def expect_symbol(self, sym: str):
        tok = self.peek()
        if tok.kind != "SYMBOL" or tok.value != sym:
            raise self.error(repr(sym))
        self.advance()

    def at_symbol(self, sym: str) -> bool:
        tok = self.peek()
        return tok.kind == "SYMBOL" and tok.value == sym

    def parse_query(self) -> Query:
        root = self.parse_expr()
        giving = None
        if self.keyword() == "giving":
            self.advance()
            giving = self.parse_name()
        if self.peek().kind != "EOF":
            raise self.error("end of input")
        return Query(root, giving)

    def parse_expr(self) -> Node:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            tok = self.peek()
            raise ParseError(tok.line, tok.column, "a shallower query (nesting too deep)")
        try:
            word = self.keyword()
            if word == "select":
                return self.parse_select()
            if word == "project":
                return self.parse_project()
            if word == "join":
                return self.parse_join()
            return RelationRef(self.parse_name())
        finally:
            self.depth -= 1

    # Commas both separate list items and the arguments of join, so a
    # list continues past a comma only when the following tokens can
    # actually start another item of that list.

    def _more_conds(self) -> bool:
        nxt = self.lookahead(1)
        eq = self.lookahead(2)
        return (self.at_symbol(",") and self._starts_name(nxt)
                and eq.kind == "SYMBOL" and eq.value == "=")

    def _more_names(self) -> bool:
        return self.at_symbol(",") and self._starts_name(self.lookahead(1))

    def _more_levels(self) -> bool:
        return self.at_symbol(",") and self._starts_level(self.lookahead(1))

    def parse_select(self) -> Select:
        self.advance()
        self.expect_symbol("(")
        child = self.parse_expr()
        self.expect_symbol(")")
        self.expect_keyword("where")
        conds = [self.parse_cond()]
        while self._more_conds():
            self.advance()
            conds.append(self.parse_cond())
        return Select(child, tuple(conds), self.parse_with())

    def parse_project(self) -> Project:
        self.advance()
        self.expect_symbol("(")
        child = self.parse_expr()
        self.expect_symbol(")")
        self.expect_keyword("over")
        attrs = [self.parse_name()]
        while self._more_names():
            self.advance()
            attrs.append(self.parse_name())
        return Project(child, tuple(attrs), self.parse_with())

    def parse_join(self) -> Join:
        self.advance()
        self.expect_symbol("(")
        left = self.parse_expr()
        self.expect_symbol(",")
        right = self.parse_expr()
        self.expect_symbol(")")
        self.expect_keyword("on")
        on = [self.parse_name()]
        while self._more_names():
            self.advance()
            on.append(self.parse_name())
        return Join(left, right, tuple(on), self.parse_with())

    def parse_with(self) -> tuple[LevelClause, ...]:
        if self.keyword() != "with":
            return ()
        self.advance()
        clauses = [self.parse_level()]
        while self._more_levels():
            self.advance()
            clauses.append(self.parse_level())
        return tuple(clauses)

    def parse_level(self) -> LevelClause:
        word = self.keyword()
        if word not in ("level", "thres"):
            raise self.error("'level' or 'thres'")
        self.advance()
        self.expect_symbol("(")
        attr = self.parse_name()
        self.expect_symbol(")")
        if self.at_symbol(">=") or self.at_symbol("=") or self.at_symbol(">"):
            self.advance()
        else:
            raise self.error("'=', '>=' or '>'")
        tok = self.peek()
        if tok.kind != "NUMBER":
            raise self.error("a number in [0, 1]")
        value = float(tok.value)
        if not 0.0 <= value <= 1.0:
            raise ParseError(tok.line, tok.column, "a number in [0, 1]", str(tok.value))
        self.advance()
        return LevelClause(attr, value)

    def parse_name(self) -> str:
        tok = self.peek()
        if tok.kind == "STRING":
            self.advance()
            return tok.value
        if tok.kind == "IDENT" and tok.value.lower() not in _KEYWORDS:
            self.advance()
            return tok.value
        raise self.error("a name")

    def parse_cond(self) -> Cond:
        attr = self.parse_name()
        self.expect_symbol("=")
        tok = self.peek()
        if tok.kind in ("STRING", "NUMBER"):
            self.advance()
            return Cond(attr, tok.value)
        if tok.kind == "IDENT" and tok.value.lower() not in _KEYWORDS:
            self.advance()
            return Cond(attr, tok.value)
        raise self.error("a literal")


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


def _render_name(name: str) -> str:
    if _IDENT_RE.fullmatch(name) and name.lower() not in _KEYWORDS:
        return name
    return f'"{name}"'


def _render_literal(value: Value) -> str:
    if isinstance(value, str):
        return f'"{value}"'
    return repr(value)


def _render_with(levels: tuple[LevelClause, ...]) -> str:
    if not levels:
        return ""
    parts = ", ".join(
        f"level({_render_name(c.attr)}) = {c.value!r}" for c in levels
    )
    return f" with {parts}"


def render(query: Query | Node) -> str:
    """Canonical text for a query; parsing it back yields an equal tree."""
    if isinstance(query, Query):
        text = render(query.root)
        if query.giving is not None:
            text += f" giving {_render_name(query.giving)}"
        return text
    node = query
    if isinstance(node, RelationRef):
        return _render_name(node.name)
    if isinstance(node, Select):
        conds = ", ".join(
            f"{_render_name(c.attr)} = {_render_literal(c.value)}" for c in node.conds
        )
        return (f"select ({render(node.child)}) where {conds}"
                f"{_render_with(node.levels)}")
    if isinstance(node, Project):
        attrs = ", ".join(_render_name(a) for a in node.attrs)
        return (f"project ({render(node.child)}) over {attrs}"
                f"{_render_with(node.levels)}")
    if isinstance(node, Join):
        on = ", ".join(_render_name(a) for a in node.on)
        return (f"join ({render(node.left)}, {render(node.right)}) on {on}"
                f"{_render_with(node.levels)}")
    raise TypeError(f"not a query node: {node!r}")
