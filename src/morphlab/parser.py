"""Text format for morphism files.

Grammar::

    file      := (morphism | directive)*
    morphism  := NAME "{" rule* "}"
    rule      := NAME "->" NAME* ";"
    directive := "start" "=" NAME ";"  |  "pair" "=" NAME "," NAME ";"

An empty right-hand side denotes the empty word.  When every left-hand
letter of a morphism is a single character, the block is in compact
mode: right-hand tokens are split into individual characters, so
``a->abe;`` means a maps to the three letters a, b, e.  Otherwise every
whitespace-separated token is one (multi-character) letter.

Names may use any characters except whitespace and the punctuation
``{ } ; = ,``; a ``-`` must start an arrow.

The text is read by one regular-expression scan into ``(kind, text,
offset)`` tokens.  A ParseError carries the 1-based line and column of
its offset, computed only when it is raised: only a newline starts a
line, and every other character, a tab or a carriage return too, is one
column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError
from .words import Morphism

# kinds as the error messages name them; a "-" outside "->" is a stray dash
_TOKEN = re.compile(r"(?P<punct>[{};=,])|(?P<arrow>->)|(?P<name>[^\s{};=,-]+)|(?P<dash>-)")


@dataclass(frozen=True)
class MorphismFile:
    """Named morphisms plus the optional start/pair designations."""

    morphisms: dict
    start: str | None = None
    pair: tuple | None = None

    def morphism(self, name):
        try:
            return self.morphisms[name]
        except KeyError:
            raise ParseError(f"no morphism named {name!r}") from None


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = [(m.lastgroup, m.group(), m.start()) for m in _TOKEN.finditer(text)]
        for kind, _, at in self.tokens:  # a stray dash is reported before any other fault
            if kind == "dash":
                raise self.error("'-' must begin an arrow '->'", at)
        # end of input sits at the last token, and its empty text matches no name or punctuation
        self.tokens.append(("end", "", self.tokens[-1][2] if self.tokens else 0))
        self.pos = 0

    def error(self, message, at):
        line = self.text.count("\n", 0, at) + 1
        return ParseError(message, line, at - self.text.rfind("\n", 0, at))

    def peek(self):
        return self.tokens[self.pos]

    def next(self, expect_kind=None, expect_text=None):
        kind, text, at = tok = self.tokens[self.pos]
        if kind == "end":
            raise self.error("unexpected end of input", at)
        if expect_kind and kind != expect_kind:
            raise self.error(f"expected {expect_kind}, got {text!r}", at)
        if expect_text and text != expect_text:
            raise self.error(f"expected {expect_text!r}, got {text!r}", at)
        self.pos += 1
        return tok

    def parse(self):
        """{name: Morphism}, and start and pair as (name, offset) tokens or None."""
        morphisms = {}
        start = None
        pair = None
        while self.peek()[0] != "end":
            _, head, at = self.next("name")
            if self.peek()[1] == "=":
                if head == "start":
                    self.next()
                    start = self.next("name")[1:]
                    self.next("punct", ";")
                elif head == "pair":
                    self.next()
                    f = self.next("name")[1:]
                    self.next("punct", ",")
                    g = self.next("name")[1:]
                    self.next("punct", ";")
                    pair = (f, g)
                else:
                    raise self.error(f"unknown directive {head!r}", at)
                continue
            if head in morphisms:
                raise self.error(f"duplicate morphism {head!r}", at)
            morphisms[head] = self._rules(head, at)
        return morphisms, start, pair

    def _rules(self, head, head_at):
        self.next("punct", "{")
        rules = {}
        while self.peek()[1] != "}":
            if self.peek()[0] == "end":
                raise self.error(f"unterminated morphism {head!r}", head_at)
            _, lhs, at = self.next("name")
            if lhs in rules:
                raise self.error(f"duplicate rule for {lhs!r}", at)
            self.next("arrow")
            rhs = []
            while self.peek()[1] != ";":
                if self.peek()[0] == "end":
                    raise self.error("unterminated rule", at)
                rhs.append(self.next("name")[1])
            self.next()
            rules[lhs] = rhs
        self.next()
        if not rules:
            raise self.error(f"morphism {head!r} has no rules", head_at)
        if all(len(lhs) == 1 for lhs in rules):  # compact mode: one letter per character
            rules = {lhs: "".join(rhs) for lhs, rhs in rules.items()}
        return Morphism.from_rules(rules)


def parse_file(text):
    """Parse morphism-file text into a MorphismFile."""
    parser = _Parser(text)
    morphisms, start, pair = parser.parse()
    if pair is not None:
        (f_name, f_at), (g_name, g_at) = pair
        for name, at in pair:
            if name not in morphisms:
                raise parser.error(f"pair references unknown morphism {name!r}", at)
        f = morphisms[f_name]
        if not f.is_endomorphism:
            raise parser.error(f"pair generator {f_name!r} must be an endomorphism", f_at)
        if set(morphisms[g_name].domain.letters) != set(f.domain.letters):
            raise parser.error(f"pair morphisms {f_name!r} and {g_name!r} use different alphabets", g_at)
        pair = (f_name, g_name)
    if start is not None:
        start, at = start
        if pair is not None:
            if start not in morphisms[pair[0]].domain:
                raise parser.error(f"start letter {start!r} is not in the pair's alphabet", at)
        elif not any(start in m.domain for m in morphisms.values()):
            raise parser.error(f"start letter {start!r} is not declared by any morphism", at)
    return MorphismFile(morphisms=morphisms, start=start, pair=pair)


def format_morphism(name, morphism):
    lines = [f"{name} {{"]
    for letter in morphism.domain:
        image_letters = morphism.image(letter).letters()
        if image_letters:
            lines.append(f"  {letter} -> {' '.join(image_letters)} ;")
        else:
            lines.append(f"  {letter} -> ;")
    lines.append("}")
    return "\n".join(lines)


def format_file(mf):
    """Render a MorphismFile back to parseable text."""
    parts = [format_morphism(name, m) for name, m in mf.morphisms.items()]
    if mf.start is not None:
        parts.append(f"start = {mf.start} ;")
    if mf.pair is not None:
        parts.append(f"pair = {mf.pair[0]} , {mf.pair[1]} ;")
    return "\n".join(parts) + "\n"
