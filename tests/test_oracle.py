"""The algebra against the algorithms it replaced, kept here as oracles.

``select`` once evaluated every condition on every cell, and
``merge_relation`` merged the first redundant pair and restarted the scan
from the first pair, with unmemoised redundancy checks.  Later the
threshold check memoised ``degree(x, y) >= level`` per value pair,
``closure_classes`` tested every pair of values, the query tokenizer
stepped through the text one character at a time, and the query parser
and ``render`` spelled out each operator by hand.  Those versions are
copied below unchanged, with ``project`` and ``join`` rebuilt on them,
and Hypothesis requires the engine to return the same tuples, classes,
tokens or query trees in the same order, or to raise the same exception
with the same message.

Relations over one attribute spec share its memo of each value's cell.
Laws below require each operator to treat a derived relation exactly as
a fresh copy of its schema and tuples, and a relation whose specs another
relation's values warmed exactly as one over fresh specs.
"""

import itertools
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import pytest
from hypothesis import assume, given, settings, strategies as st

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
    ProximityMatrix,
    UnknownValueError,
    closure_classes,
    join,
    merge_relation,
    merge_tuples,
    project,
    select,
    valid_tuple,
)
from fuzzyrel import algebra, query
from fuzzyrel.algebra import (
    _MIXED,
    METHODS,
    _joined_schema,
    _min_pairwise,
    _resolve_method,
)
from fuzzyrel.closure import temporal_domain
from fuzzyrel.errors import SchemaMismatchError, UnknownAttributeError
from fuzzyrel.partition import (
    Grouping,
    Partition2D,
    _make_resolver,
    _unit_interval,
    cell_of,
    class_of,
    partition_line,
    partition_plane,
    value_sort_key,
)
from fuzzyrel.proximity import ProximitySpec, Value, _Record, degree_of
from fuzzyrel.query import (
    _KEYWORDS,
    _MAX_DEPTH,
    Cond,
    Join,
    LevelClause,
    Node,
    ParseError,
    Project,
    Query,
    RelationRef,
    Select,
    _Token,
    _tokenize,
)


# --- oracles ---------------------------------------------------------------


def _classifier(attr: AttributeSpec, method: str, level: float,
                domain: frozenset | None) -> Callable[[Value], object]:
    """Function mapping a value to the key of its equivalence class.

    A closure key is the value's class ordinal in ``domain``; a cell key
    is the cell it falls in, by ``class_of`` or ``cell_of``, or the value
    itself on the singleton partition.
    """
    if method == "closure":
        return closure_classes(domain or frozenset(), attr.proximity, level).class_index
    dims, length, resolve = attr.proximity.embedding()
    if dims == 2:
        partitioner = partition_plane(length, level)
    else:
        mode = "equalized" if method == "equalized" else "standard"
        partitioner = partition_line(length, level, mode)
    if partitioner.singleton:
        return lambda v: v
    resolver = _make_resolver(resolve)
    if isinstance(partitioner, Partition2D):
        return lambda v: cell_of(resolver(v), partitioner)
    return lambda v: class_of(resolver(v), partitioner)


@dataclass(frozen=True)
class _Check:
    """Redundancy test for one attribute position."""

    index: int
    name: str
    level: float
    spec: ProximitySpec | None = None          # threshold test
    classify: Callable | None = None           # class test

    def component_ok(self, values: frozenset) -> bool:
        if self.classify is not None:
            keys = {self.classify(v) for v in values}
            return len(keys) == 1
        return _min_pairwise(self.spec, values) >= self.level

    __hash__ = None


def _build_checks(r: FuzzyRelation, levels: LevelMap, mode: str | None,
                  domains: Mapping[str, frozenset] | None = None) -> list[_Check]:
    checks = []
    for idx, attr in enumerate(r.schema):
        level = levels.level(attr.name)
        if level == 0.0:
            continue
        effective = _resolve_method(attr, mode or attr.default_method)
        if effective == "threshold":
            checks.append(_Check(idx, attr.name, level, spec=attr.proximity))
        else:
            if domains is not None and attr.name in domains:
                domain = domains[attr.name]
            else:
                domain = temporal_domain(r, attr.name) if effective == "closure" else None
            checks.append(
                _Check(idx, attr.name, level,
                       classify=_classifier(attr, effective, level, domain))
            )
    return checks


def _pair_redundant(checks: Sequence[_Check], t1: FuzzyTuple, t2: FuzzyTuple) -> bool:
    return all(c.component_ok(t1.components[c.index] | t2.components[c.index])
               for c in checks)


def oracle_merge_relation(r: FuzzyRelation, levels: LevelMap | None = None,
                          mode: str | None = None) -> FuzzyRelation:
    """Merge redundant tuples until none remain.

    Scans pairs in stable order, merges the first redundant pair and
    restarts; each merge shrinks the relation, so the loop terminates.
    """
    levels = levels or LevelMap()
    checks = _build_checks(r, levels, mode)
    tuples = list(dict.fromkeys(r.tuples))
    merged_some = True
    while merged_some:
        merged_some = False
        for i in range(len(tuples)):
            for j in range(i + 1, len(tuples)):
                if _pair_redundant(checks, tuples[i], tuples[j]):
                    tuples[i] = merge_tuples(tuples[i], tuples[j])
                    del tuples[j]
                    tuples = list(dict.fromkeys(tuples))
                    merged_some = True
                    break
            if merged_some:
                break
    return FuzzyRelation(r.schema, tuple(tuples))


def oracle_select(r: FuzzyRelation, conds: Iterable[tuple[str, Value]],
                  levels: LevelMap | None = None) -> FuzzyRelation:
    """Keep tuples whose components are close enough to the condition constants.

    A tuple passes a condition (attr, c) when every element of its attr
    component has degree >= level(attr) to c.  Conditions conjoin.  No
    merging happens here.
    """
    levels = levels or LevelMap()
    prepared = []
    for attr, constant in conds:
        idx = r.attribute_index(attr)
        spec = r.schema[idx].proximity
        level = levels.level(attr)
        if level == 0.0:
            continue  # degree >= 0 always holds
        prepared.append((idx, spec, constant, level))
    kept = tuple(
        t for t in r.tuples
        if all(
            all(degree_of(spec, v, constant) >= level for v in t.components[idx])
            for idx, spec, constant, level in prepared
        )
    )
    return FuzzyRelation(r.schema, kept)


def oracle_project(r: FuzzyRelation, attrs: Sequence[str],
                   levels: LevelMap | None = None, mode: str | None = None) -> FuzzyRelation:
    """Drop all other columns, then merge redundant tuples."""
    indices = [r.attribute_index(a) for a in attrs]
    schema = tuple(r.schema[i] for i in indices)
    names = tuple(a.name for a in schema)
    rows = tuple(
        FuzzyTuple(names, tuple(t.components[i] for i in indices)) for t in r.tuples
    )
    return oracle_merge_relation(FuzzyRelation(schema, rows), levels, mode)


def oracle_join(r1: FuzzyRelation, r2: FuzzyRelation, on: Sequence[str],
                levels: LevelMap | None = None, mode: str | None = None) -> FuzzyRelation:
    """Join two relations on shared attributes, then merge the result."""
    levels = levels or LevelMap()
    on = tuple(on)
    if not on:
        raise SchemaMismatchError("join needs at least one attribute")
    for a in on:
        try:
            left_spec = r1.attribute(a)
            right_spec = r2.attribute(a)
        except UnknownAttributeError as exc:
            raise SchemaMismatchError(str(exc)) from None
        if left_spec != right_spec:
            raise SchemaMismatchError(f"join attribute {a!r} differs between schemas")

    domains = {a: temporal_domain(r1, a) | temporal_domain(r2, a) for a in on}
    on_checks = _build_checks(
        FuzzyRelation(tuple(r1.attribute(a) for a in on), ()),
        levels, mode, domains=domains,
    )
    schema, right_rest = _joined_schema(r1, r2, on)
    names = tuple(a.name for a in schema)
    on_left = {a: r1.attribute_index(a) for a in on}
    on_right = {a: r2.attribute_index(a) for a in on}

    out_rows = []
    for t1 in r1.tuples:
        for t2 in r2.tuples:
            unions = {a: t1.components[on_left[a]] | t2.components[on_right[a]]
                      for a in on}
            if not all(c.component_ok(unions[c.name]) for c in on_checks):
                continue
            comps = [
                unions[a.name] if a.name in on else t1.components[i]
                for i, a in enumerate(r1.schema)
            ]
            comps.extend(t2.components[i] for i in right_rest)
            out_rows.append(FuzzyTuple(names, tuple(comps)))
    return oracle_merge_relation(FuzzyRelation(schema, tuple(out_rows)), levels, mode)


def oracle_valid_tuple(schema: Sequence[AttributeSpec], t: FuzzyTuple,
                       levels: LevelMap) -> bool:
    """True when each component's values are mutually proximate to its level."""
    specs = {a.name: a.proximity for a in schema}
    for name, comp in zip(t.names, t.components):
        level = levels.level(name)
        if level == 0.0:
            continue
        if _min_pairwise(specs[name], comp) < level:
            return False
    return True


@dataclass(frozen=True)
class _MemoCheck:
    """Redundancy test for one attribute position, memoised for one call.

    A class test caches each value's class key; a threshold test caches
    ``degree(x, y) >= level`` for each value pair.  Both are pure
    functions of the values, keyed by Python equality, so a check is built
    once per operator call and its cache dies with it.
    """

    index: int
    name: str
    level: float
    spec: ProximitySpec | None = None          # threshold test
    classify: Callable | None = None           # class test
    memo: dict = field(default_factory=dict, compare=False, repr=False)

    def class_key(self, values: frozenset):
        """The one class key all ``values`` share, or ``_MIXED``."""
        memo = self.memo
        keys = set()
        for v in values:
            if v not in memo:
                memo[v] = self.classify(v)
            keys.add(memo[v])
        return keys.pop() if len(keys) == 1 else _MIXED

    def close(self, x: Value, y: Value) -> bool:
        memo = self.memo
        try:
            return memo[x, y]
        except KeyError:
            ok = memo[x, y] = memo[y, x] = self.spec.degree(x, y) >= self.level
            return ok

    def component_ok(self, values: frozenset) -> bool:
        if self.classify is not None:
            return self.class_key(values) is not _MIXED
        return all(self.close(x, y) for x, y in itertools.combinations(values, 2))

    __hash__ = None


def oracle_closure_classes(values, spec: ProximitySpec, alpha) -> Grouping:
    """Connected components of the alpha-cut graph over ``values``.

    Unions every pair of values whose degree is >= alpha, which equals the
    reflexive-symmetric-transitive closure of alpha-similarity restricted
    to the value set.  Classes are ordered by their smallest member.
    Every value must be one ``spec.degree`` can interpret.
    """
    a = _unit_interval(alpha)
    nodes = sorted(set(values), key=value_sort_key)
    parent = {v: v for v in nodes}  # union-find forest

    def find(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for i, x in enumerate(nodes):
        for y in nodes[i + 1:]:
            if spec.degree(x, y) >= a:
                parent[find(y)] = find(x)
    components: dict = {}
    for v in nodes:
        components.setdefault(find(v), set()).add(v)
    return Grouping.from_classes(components.values())


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER_RE = re.compile(r"\d+\.\d*|\.\d+|\d+")


def oracle_tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch == '"':
            j = text.find('"', i + 1)
            if j == -1 or "\n" in text[i + 1 : j]:
                raise ParseError(line, col, "a closing quote")
            tokens.append(_Token("STRING", text[i + 1 : j], line, col))
            col += j - i + 1
            i = j + 1
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            tokens.append(_Token("IDENT", m.group(0), line, col))
            col += len(m.group(0))
            i = m.end()
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            raw = m.group(0)
            value = float(raw) if "." in raw else int(raw)
            tokens.append(_Token("NUMBER", value, line, col))
            col += len(raw)
            i = m.end()
            continue
        if text.startswith(">=", i):
            tokens.append(_Token("SYMBOL", ">=", line, col))
            col += 2
            i += 2
            continue
        if ch in "(),=>":
            tokens.append(_Token("SYMBOL", ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(line, col, "a name, number or punctuation", repr(ch))
    tokens.append(_Token("EOF", None, line, col))
    return tokens


# The query parser and ``render`` with one method or branch per operator.
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


def oracle_parse(text: str) -> Query:
    """Parse query text; raises ParseError with a position on bad input."""
    return _Parser(text).parse_query()


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


def oracle_render(query: Query | Node) -> str:
    """Canonical text for a query; parsing it back yields an equal tree."""
    if isinstance(query, Query):
        text = oracle_render(query.root)
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
        return (f"select ({oracle_render(node.child)}) where {conds}"
                f"{_render_with(node.levels)}")
    if isinstance(node, Project):
        attrs = ", ".join(_render_name(a) for a in node.attrs)
        return (f"project ({oracle_render(node.child)}) over {attrs}"
                f"{_render_with(node.levels)}")
    if isinstance(node, Join):
        on = ", ".join(_render_name(a) for a in node.on)
        return (f"join ({oracle_render(node.left)}, {oracle_render(node.right)}) on {on}"
                f"{_render_with(node.levels)}")
    raise TypeError(f"not a query node: {node!r}")


# --- comparison ------------------------------------------------------------


def outcome(fn, *args):
    """The tuples in order, or the exception's type and message."""
    try:
        r = fn(*args)
    except Exception as exc:  # noqa: BLE001 -- the exception is the outcome
        return ("raised", type(exc), str(exc))
    return ("returned", r.schema, r.tuples)


def assert_same(new, old, *args):
    got, expected = outcome(new, *args), outcome(old, *args)
    assert got == expected


def tree_or_error(parse, text):
    """The query tree with its repr, which shows value types, or the
    ParseError's position."""
    try:
        tree = parse(text)
    except ParseError as exc:
        return ("raised", exc.line, exc.column, exc.expected, exc.found)
    return ("parsed", tree, repr(tree))


def leaves(node):
    """The field values of a query tree that are not records or tuples."""
    if isinstance(node, tuple):
        for child in node:
            yield from leaves(child)
    elif isinstance(node, _Record):
        for name in node._fields:
            yield from leaves(getattr(node, name))
    else:
        yield node


def tokens_or_error(tokenize, text):
    """Each token with its value's type, or the ParseError's position."""
    try:
        tokens = tokenize(text)
    except ParseError as exc:
        return ("raised", str(exc), exc.line, exc.column, exc.expected, exc.found)
    return [(t.kind, t.value, type(t.value), t.line, t.column) for t in tokens]


# Single characters of each token class, odd whitespace and digits, and
# whole tokens, joined at random into query texts.
TOKEN_PIECES = tuple('aZ_09.5"()=,><# \n\t\r\x0c\xa0\u0663\xe9') + (
    "select", ">=", "level", '"a b"', "0.25", ".5", "7.", "\n\n")


# --- generated relations ---------------------------------------------------


LEVELS = (0.0, 0.3, 0.5, 0.6, 2 / 3, 0.7, 0.8, 0.9, 1.0)
LABELS = ("L0", "L1", "L2", "L3", "L4")
SITES = {"A": (0.0, 0.0), "B": (1.5, 2.0), "C": (5.0, 5.0), "D": (9.9, 0.2),
         "E": (10.0, 10.0), "F": (4.9, 5.1), "G": (2.5, 7.5), "H": (3.3, 3.4)}
CRISP_VALUES = ("a", "b", "c", "d")
LINEAR_VALUES = (0, 1, 2, 2.5, 3, 4, 5, 6, 7.5, 8, 9, 10)
# Constants no value of the kind can be compared with, each raising in
# select: at coercion, or at the first degree evaluated.
BAD_CONSTANTS = {
    "linear": ("abc", 500, -1),
    "matrix": ("Awful", 3),
    "planar": ("Nowhere",),
    "crisp": (),
}


@st.composite
def matrices(draw):
    """Reflexive, symmetric degree tables; most are not max-min transitive."""
    n = len(LABELS)
    entries = [[1.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            entries[i][j] = entries[j][i] = draw(st.sampled_from(LEVELS))
    return ProximityMatrix(LABELS, tuple(map(tuple, entries)))


@st.composite
def attributes(draw, name):
    """(spec, the values its domain holds, its kind) of one attribute."""
    kind = draw(st.sampled_from(("crisp", "linear", "matrix", "planar")))
    if kind == "crisp":
        method = draw(st.sampled_from(METHODS))  # every method resolves to threshold
        return AttributeSpec(name, CrispIdentity(), method), CRISP_VALUES, kind
    if kind == "linear":
        method = draw(st.sampled_from(METHODS))
        return AttributeSpec(name, Linear(10), method), LINEAR_VALUES, kind
    if kind == "planar":
        method = draw(st.sampled_from(METHODS))
        return AttributeSpec(name, Planar(10, SITES), method), tuple(SITES), kind
    ordered = draw(st.booleans())
    method = draw(st.sampled_from(METHODS if ordered else ("threshold", "closure")))
    spec = AttributeSpec(name, ExplicitMatrix(draw(matrices()),
                                              LABELS if ordered else None), method)
    return spec, LABELS, kind


@st.composite
def relations(draw, max_rows=10, attrs=None):
    """A relation with set-valued components and repeated rows.

    Returns (relation, {name: (values, kind)}).  ``attrs`` reuses the
    attributes of an earlier draw.
    """
    if attrs is None:
        count = draw(st.integers(1, 3))
        attrs = [draw(attributes(f"A{i}")) for i in range(count)]
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        rows.append(tuple(
            frozenset(draw(st.lists(st.sampled_from(values), min_size=1, max_size=3)))
            for _, values, _ in attrs
        ))
    if rows:  # duplicates, which the relation drops
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    schema = tuple(spec for spec, _, _ in attrs)
    domains = {spec.name: (values, kind) for spec, values, kind in attrs}
    return FuzzyRelation.from_rows(schema, rows), domains, attrs


@st.composite
def level_maps(draw, names):
    return LevelMap({n: draw(st.sampled_from(LEVELS)) for n in names})


modes = st.sampled_from((None,) + METHODS)


# --- generated queries -----------------------------------------------------


# Bare and quoted names, keyword-like ones among them, and literals and
# levels that read as ints, as floats, in exponent range, or out of [0, 1].
QUERY_NAMES = ("R", "S", "x_1", "Level_2", "selects", "WITHIN", '"my table"',
               '"select"', '"With"', '"level"', '""', '"a, b"')
QUERY_LITERALS = QUERY_NAMES + ("20", "0", "0.5", ".25", "7.", "0.00001",
                                "10000000000000000.0", '"two words"')
QUERY_LEVELS = ("0", "1", "0.85", ".5", "1.", "0.00001", "2")


@st.composite
def query_pieces(draw, max_depth=3):
    """The tokens of a query the grammar allows, as pieces of text.

    The parser still rejects some: a level above 1, and a join whose left
    operand's last list takes its right operand as one more name.
    """
    def word(w):
        return draw(st.sampled_from((w, w.upper(), w.capitalize())))

    def listed(item):
        pieces = item()
        for _ in range(draw(st.integers(0, 2))):
            pieces += [","] + item()
        return pieces

    def name():
        return [draw(st.sampled_from(QUERY_NAMES))]

    def cond():
        return name() + ["=", draw(st.sampled_from(QUERY_LITERALS))]

    def level():
        return ([word(draw(st.sampled_from(("level", "thres")))), "("] + name()
                + [")", draw(st.sampled_from(("=", ">=", ">"))),
                   draw(st.sampled_from(QUERY_LEVELS))])

    def expr(depth):
        op = draw(st.sampled_from(("relation",) + (("select", "project", "join")
                                                   if depth else ())))
        if op == "relation":
            return name()
        pieces = [word(op), "("] + expr(depth - 1)
        if op == "join":
            pieces += [","] + expr(depth - 1)
        list_word, item = {"select": ("where", cond), "project": ("over", name),
                           "join": ("on", name)}[op]
        pieces += [")", word(list_word)] + listed(item)
        if draw(st.booleans()):
            pieces += [word("with")] + listed(level)
        return pieces

    pieces = expr(max_depth)
    if draw(st.booleans()):
        pieces += [word("giving")] + name()
    return pieces


@st.composite
def mutated(draw, pieces):
    """``pieces`` with one piece dropped, duplicated or swapped with another."""
    i = draw(st.integers(0, len(pieces) - 1))
    how = draw(st.sampled_from(("drop", "duplicate", "swap")))
    pieces = list(pieces)
    if how == "drop":
        del pieces[i]
    elif how == "duplicate":
        pieces.insert(i, pieces[i])
    else:
        j = draw(st.integers(0, len(pieces) - 1))
        pieces[i], pieces[j] = pieces[j], pieces[i]
    return pieces


@st.composite
def joined(draw, pieces):
    """The pieces as one text, with spaces or line breaks between them."""
    text = pieces[0] if pieces else ""
    for piece in pieces[1:]:
        text += draw(st.sampled_from((" ", "  ", "\n"))) + piece
    return text


# --- differential tests ----------------------------------------------------


class TestAgainstOracles:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), mode=modes)
    def test_merge_relation(self, data, mode):
        r, _, _ = data.draw(relations())
        levels = data.draw(level_maps(r.names))
        assert_same(merge_relation, oracle_merge_relation, r, levels, mode)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), mode=modes)
    def test_project(self, data, mode):
        r, _, _ = data.draw(relations())
        attrs = data.draw(st.lists(st.sampled_from(r.names), min_size=1, unique=True))
        levels = data.draw(level_maps(r.names))
        assert_same(project, oracle_project, r, attrs, levels, mode)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), mode=modes)
    def test_join(self, data, mode):
        left, _, attrs = data.draw(relations(max_rows=6))
        right, _, _ = data.draw(relations(max_rows=6, attrs=attrs))
        on = data.draw(st.lists(st.sampled_from(left.names), min_size=1, unique=True))
        levels = data.draw(level_maps(left.names))
        assert_same(join, oracle_join, left, right, on, levels, mode)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_valid_tuple(self, data):
        r, _, _ = data.draw(relations())
        levels = data.draw(level_maps(r.names))
        for t in r.tuples:
            assert valid_tuple(r.schema, t, levels) == oracle_valid_tuple(r.schema, t, levels)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_threshold_check(self, data):
        attr, values, _ = data.draw(attributes("X"))
        level = data.draw(st.sampled_from(LEVELS[1:]))
        comps = data.draw(st.lists(
            st.frozensets(st.sampled_from(values), min_size=1, max_size=4),
            min_size=1, max_size=6))
        r = FuzzyRelation((attr,), tuple(FuzzyTuple(("X",), (c,)) for c in comps))
        check, = algebra._build_checks(r.schema, LevelMap({"X": level}), "threshold",
                                       lambda idx, _: temporal_domain(r, "X"))
        old = _MemoCheck(0, "X", level, spec=attr.proximity)
        for a in comps:
            for b in comps:
                assert check.component_ok(a | b) == old.component_ok(a | b)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_closure_classes(self, data):
        attr, values, kind = data.draw(attributes("X"))
        spec = attr.proximity
        pool = st.sampled_from(values)
        if kind == "linear":
            pool |= st.floats(0, 10)
        elif kind == "planar":
            pool |= st.tuples(st.floats(0, 10), st.floats(0, 10))
        chosen = data.draw(st.lists(pool, max_size=12))
        # a level equal to a degree in the set puts that pair on the cut's edge
        edges = tuple(spec.degree(x, y) for x in chosen[:3] for y in chosen)
        alpha = data.draw(st.sampled_from(LEVELS + edges))
        got = closure_classes(chosen, spec, alpha)
        assert got == oracle_closure_classes(chosen, spec, alpha)
        assert got.classes == oracle_closure_classes(chosen, spec, alpha).classes

    @settings(max_examples=500, deadline=None)
    @given(pieces=st.lists(st.sampled_from(TOKEN_PIECES), max_size=30))
    def test_tokenize(self, pieces):
        text = "".join(pieces)
        assert tokens_or_error(query._tokenize, text) == \
            tokens_or_error(oracle_tokenize, text)

    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_parse_well_formed(self, data):
        self.check_parse(data.draw(joined(data.draw(query_pieces()))))

    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_parse_mutated(self, data):
        pieces = data.draw(mutated(data.draw(query_pieces())))
        self.check_parse(data.draw(joined(pieces)))

    @staticmethod
    def check_parse(text):
        got = tree_or_error(query.parse, text)
        assert got == tree_or_error(oracle_parse, text)
        if got[0] == "parsed":
            tree = got[1]
            if any(isinstance(v, float) and "e" in repr(v) for v in leaves(tree)):
                # the oracle wrote an exponent, which does not parse back
                assert query.parse(query.render(tree)) == tree
            else:
                assert query.render(tree) == oracle_render(tree)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_select(self, data):
        r, domains, _ = data.draw(relations(max_rows=12))
        conds = []
        for _ in range(data.draw(st.integers(1, 3))):
            name = data.draw(st.sampled_from(r.names))
            values, kind = domains[name]
            constant = data.draw(st.sampled_from(values + BAD_CONSTANTS[kind]))
            conds.append((name, constant))
        levels = LevelMap({n: data.draw(st.sampled_from(LEVELS)) for n in r.names})
        assert_same(select, oracle_select, r, conds, levels)


@st.composite
def derived(draw, r, domains, min_steps=1, max_steps=3):
    """``r`` put through selects, projects and merges, at levels from 0 to 1
    and each attribute's default method or a forced one every attribute
    supports."""
    for _ in range(draw(st.integers(min_steps, max_steps))):
        levels = draw(level_maps(r.names))
        op = draw(st.sampled_from(("select", "project", "merge")))
        if op == "select":
            r = select(r, draw(conditions(r.names, domains)), levels)
            continue
        mode = draw(st.sampled_from((None, "threshold", "closure")))
        if op == "project":
            attrs = draw(st.lists(st.sampled_from(r.names), min_size=1, unique=True))
            r = project(r, attrs, levels, mode)
        else:
            r = merge_relation(r, levels, mode)
    return r


@st.composite
def conditions(draw, names, domains):
    return [(name, draw(st.sampled_from(domains[name][0])))
            for name in draw(st.lists(st.sampled_from(names), min_size=1, max_size=3))]


def fresh(r: FuzzyRelation) -> FuzzyRelation:
    return FuzzyRelation(r.schema, r.tuples)


class TestDerivedRelations:
    """An operator on a derived relation equals it on a fresh copy."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), mode=modes)
    def test_unary_operators(self, data, mode):
        r, domains, _ = data.draw(relations())
        d = data.draw(derived(r, domains))
        levels = data.draw(level_maps(d.names))
        op = data.draw(st.sampled_from(("select", "project", "merge")))
        if op == "select":
            fn, args = select, (data.draw(conditions(d.names, domains)), levels)
        elif op == "project":
            attrs = data.draw(st.lists(st.sampled_from(d.names), min_size=1, unique=True))
            fn, args = project, (attrs, levels, mode)
        else:
            fn, args = merge_relation, (levels, mode)
        assert outcome(fn, d, *args) == outcome(fn, fresh(d), *args)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), mode=modes)
    def test_nested_selects_at_low_levels(self, data, mode):
        # the stored column's neighbourhoods hold values the selected
        # relation lacks
        r, domains, _ = data.draw(relations(max_rows=12))
        d = r
        for _ in range(data.draw(st.integers(2, 3))):
            low = LevelMap({n: data.draw(st.sampled_from(LEVELS[:5])) for n in r.names})
            d = select(d, data.draw(conditions(r.names, domains)), low)
        conds = data.draw(conditions(r.names, domains))
        levels = data.draw(level_maps(r.names))
        assert outcome(select, d, conds, levels) == outcome(select, fresh(d), conds, levels)
        assert outcome(merge_relation, d, levels, mode) == \
            outcome(merge_relation, fresh(d), levels, mode)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), mode=modes, one_stored=st.booleans())
    def test_join_of_two_projections(self, data, mode, one_stored):
        r, domains, attrs = data.draw(relations(max_rows=6))
        s = r if one_stored else data.draw(relations(max_rows=6, attrs=attrs))[0]
        projections = []
        for stored in (r, s):
            d = data.draw(derived(stored, domains, 0, 2))
            attrs = data.draw(st.lists(st.sampled_from(d.names), min_size=1, unique=True))
            projections.append(project(d, attrs, data.draw(level_maps(d.names))))
        left, right = projections
        shared = [n for n in left.names if n in right.names]
        assume(shared)
        on = data.draw(st.lists(st.sampled_from(shared), min_size=1, unique=True))
        levels = data.draw(level_maps(r.names))
        assert outcome(join, left, right, on, levels, mode) == \
            outcome(join, fresh(left), fresh(right), on, levels, mode)


def fresh_specs(*relations: FuzzyRelation) -> tuple[FuzzyRelation, ...]:
    """Each relation over new attribute specs, equal to its own and shared
    between them, whose cell memos are empty."""
    specs = {}
    for r in relations:
        for a in r.schema:
            specs.setdefault(id(a), AttributeSpec(a.name, a.proximity, a.default_method))
    return tuple(FuzzyRelation(tuple(specs[id(a)] for a in r.schema), r.tuples)
                 for r in relations)


class TestWarmCellMemos:
    """Specs whose cell memos another relation warmed act as fresh ones."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), mode=modes)
    def test_operators_on_a_second_relation(self, data, mode):
        warm, _, attrs = data.draw(relations())
        r, _, _ = data.draw(relations(max_rows=6, attrs=attrs))
        levels = data.draw(level_maps(r.names))
        # warm at the levels and mode asked below, and at others
        outcome(merge_relation, warm, levels, mode)
        for _ in range(data.draw(st.integers(0, 2))):
            outcome(merge_relation, warm, data.draw(level_maps(warm.names)), data.draw(modes))
        op = data.draw(st.sampled_from(("merge", "project", "join")))
        if op == "merge":
            fn, args, operands = merge_relation, (levels, mode), (r,)
        elif op == "project":
            names = data.draw(st.lists(st.sampled_from(r.names), min_size=1, unique=True))
            fn, args, operands = project, (names, levels, mode), (r,)
        else:
            right, _, _ = data.draw(relations(max_rows=6, attrs=attrs))
            on = data.draw(st.lists(st.sampled_from(r.names), min_size=1, unique=True))
            fn, args, operands = join, (on, levels, mode), (r, right)
        assert outcome(fn, *operands, *args) == outcome(fn, *fresh_specs(*operands), *args)
        for attr in r.schema:
            for (method, level), memo in attr._cells.items():
                classify = _classifier(attr, method, level, None)
                assert all(key == classify(value) for value, key in memo.items())


# --- the cases the generators must not miss --------------------------------


def linear_crisp(rows):
    schema = (AttributeSpec("X", Linear(10)), AttributeSpec("Y"))
    return FuzzyRelation.from_rows(schema, rows)


class TestNamedCases:
    def test_merge_order_on_a_non_transitive_matrix(self, hair_matrix):
        # Blond~Light brown and Light brown~Red at 0.7, Blond~Red only 0.5:
        # which pair merges first decides the result
        schema = (AttributeSpec("H", ExplicitMatrix(hair_matrix)),)
        r = FuzzyRelation.from_rows(schema, [("Blond",), ("Light brown",), ("Red",)])
        levels = LevelMap({"H": 0.7})
        assert_same(merge_relation, oracle_merge_relation, r, levels, None)
        assert merge_relation(r, levels).tuples == (
            FuzzyTuple(("H",), (frozenset({"Blond", "Light brown"}),)),
            FuzzyTuple(("H",), (frozenset({"Red"}),)),
        )

    def test_merged_tuple_equal_to_a_later_tuple(self):
        # merging rows 0 and 1 gives row 2, which the old merge dropped as
        # a duplicate
        r = linear_crisp([(1, "a"), (2, "b"), ({1, 2}, {"a", "b"}), (9, "c")])
        levels = LevelMap({"X": 0.8, "Y": 0.0})
        assert_same(merge_relation, oracle_merge_relation, r, levels, None)
        assert len(merge_relation(r, levels)) == 2

    def test_value_unequal_to_itself(self):
        # a crisp NaN would have degree 0 to itself, so the spec rejects it
        with pytest.raises(UnknownValueError, match="not equal to itself"):
            linear_crisp([(1, "a"), (2, float("nan"))])

    def test_component_failing_its_own_level_stays(self):
        r = linear_crisp([({0, 10}, "a"), (0, "a"), (10, "a")])
        levels = LevelMap({"X": 0.8})
        assert_same(merge_relation, oracle_merge_relation, r, levels, None)
        assert merge_relation(r, levels).tuples == r.tuples

    @pytest.mark.parametrize("mode", ["interval", "equalized", "grid", "closure"])
    def test_crisp_column_under_a_class_mode(self, mode):
        r = linear_crisp([(1, "a"), (2, "a"), (2, "b"), (8, "a")])
        levels = LevelMap({"X": 0.6, "Y": 1.0})
        assert_same(merge_relation, oracle_merge_relation, r, levels, mode)

    def test_mixed_defaults(self):
        schema = (AttributeSpec("X", Linear(10), "interval"),
                  AttributeSpec("P", Planar(10, SITES), "threshold"),
                  AttributeSpec("Y", Linear(10), "closure"))
        r = FuzzyRelation.from_rows(schema, [
            (1, "C", 5), (2, "F", 6), ({1, 3}, "H", 4), (9, "C", 5), (8, "E", 0),
        ])
        levels = LevelMap({"X": 0.6, "P": 0.8, "Y": 0.7})
        assert_same(merge_relation, oracle_merge_relation, r, levels, None)

    @pytest.mark.parametrize("spec, constant, error", [
        (Linear(10), "abc", UnknownValueError),
        (Linear(10), 500, DomainError),
        (Planar(10, SITES), "Nowhere", UnknownValueError),
        (ExplicitMatrix(ProximityMatrix(("p", "q"), ((1, 0.5), (0.5, 1)))), "r",
         UnknownValueError),
    ])
    def test_bad_constant(self, spec, constant, error):
        value = {"Linear": 5, "Planar": "C", "ExplicitMatrix": "p"}[type(spec).__name__]
        r = FuzzyRelation.from_rows((AttributeSpec("X", spec),), [(value,)])
        with pytest.raises(error):
            select(r, [("X", constant)], LevelMap({"X": 0.5}))
        assert_same(select, oracle_select, r, [("X", constant)], LevelMap({"X": 0.5}))
        # at level 0 the condition is skipped, constant and all
        assert_same(select, oracle_select, r, [("X", constant)], LevelMap({"X": 0.0}))

    @pytest.mark.parametrize("text", [
        "",
        "select (" * (_MAX_DEPTH + 1) + "R",
        "select (" * (_MAX_DEPTH - 1) + "R" + ") where A = 1" * (_MAX_DEPTH - 1),
        "join (R, S) on A, B, with level(A) = 1",
        "join (R, S) on A, with = 1",
        "select (R) where A = 1, B = with level(A) = 1, thres(B) > .5, giving",
        "project (R) over A with level(A) >= 1.5",
        "project (R) over A with level(A) ) 1",
        "project (R) over A with thres A",
        "R giving",
        "select (R) where select = 1",
    ])
    def test_parse_edge(self, text):
        assert tree_or_error(query.parse, text) == tree_or_error(oracle_parse, text)

    def test_first_condition_removes_every_tuple(self):
        r = linear_crisp([(1, "a"), (2, "b")])
        conds = [("Y", "zz"), ("X", 500)]
        assert_same(select, oracle_select, r, conds, None)
        assert len(select(r, conds)) == 0
        with pytest.raises(DomainError):
            select(r, [("Y", "a"), ("X", 500)])

    def test_bad_text_constant_after_an_emptying_condition(self):
        # a text constant is read when some tuple reaches its condition
        r = linear_crisp([(1, "a"), (2, "b")])
        conds = [("Y", "zz"), ("X", "abc")]
        assert_same(select, oracle_select, r, conds, None)
        assert len(select(r, conds)) == 0
        with pytest.raises(UnknownValueError, match="cannot interpret 'abc'"):
            select(r, [("Y", "a"), ("X", "abc")])

    def test_bad_text_constant_on_an_empty_relation(self):
        r = linear_crisp([])
        assert_same(select, oracle_select, r, [("X", "abc")], None)
        assert len(select(r, [("X", "abc")])) == 0
