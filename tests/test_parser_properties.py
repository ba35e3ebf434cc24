"""The morphism-file grammar: random files, written in random layouts,
parse back to themselves; a file that would not is never written."""

import pytest

from morphlab import DomainMismatchError, parse_file
from morphlab.parser import MorphismFile, format_file
from morphlab.words import Morphism

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SEPARATORS = ["", " ", "\t", "\r\n", "\n\n", " \t\n "]
short_letters = st.sampled_from("abxyz01'>")
long_letters = st.text("abxyz01'>", min_size=2, max_size=4)
morphism_names = st.text("fghst'", min_size=1, max_size=3)


def is_name(text):
    """One name token: no whitespace, no punctuation { } ; = , and no dash."""
    return bool(text) and not any(c.isspace() or c in "{};=,-" for c in text)


no_names = st.text("ab {};=,-\t\n", min_size=1, max_size=3).filter(lambda x: not is_name(x))


def rarely(odd, usual):
    """`usual`, and one time in 32 `odd`: a file draws a dozen names and
    letters or so, and about two in three stay writable."""
    return st.integers(0, 31).flatmap(lambda k: odd if k == 13 else usual)  # not an end, which hypothesis favours


@st.composite
def morphisms(draw, domain=None, endo=False):
    """One morphism; its letters may be no name token, and over
    single-character domain letters an image may hold a longer letter,
    which compact mode would split."""
    if domain is None:
        compact = draw(st.booleans())
        letters = short_letters if compact else st.one_of(short_letters, long_letters)
        domain = draw(st.lists(rarely(no_names, letters), min_size=1, max_size=4, unique=True))
        if not compact and all(len(x) == 1 for x in domain):
            domain.append(draw(long_letters.filter(lambda x: x not in domain)))
    compact = all(len(x) == 1 for x in domain)
    letters = st.sampled_from(domain) if endo else rarely(
        no_names, rarely(long_letters, short_letters) if compact
        else st.one_of(short_letters, long_letters))
    return Morphism.from_rules({x: draw(st.lists(letters, max_size=4)) for x in domain})


def writable(mf):
    """Whether parse_file reads format_file(mf) back: every name and written
    letter is one name token, and no morphism over single-character domain
    letters writes a longer image letter."""
    names = [*mf.morphisms, *([mf.start] if mf.start is not None else []), *(mf.pair or ())]
    for m in mf.morphisms.values():
        written = [x for letter in m.domain for x in (letter, *m.image(letter).letters())]
        names += written
        if all(len(x) == 1 for x in m.domain) and any(len(x) > 1 for x in written):
            return False
    return all(map(is_name, names))


@st.composite
def morphism_files(draw):
    names = draw(st.lists(rarely(no_names, morphism_names), min_size=1, max_size=3, unique=True))
    found = {}
    pair = None
    if draw(st.booleans()):  # f, and g over f's letters (g is f in a one-morphism file)
        pair = (names[0], names[1 % len(names)])
        f = found[names[0]] = draw(morphisms(endo=True))
        found[pair[1]] = draw(morphisms(domain=list(f.domain.letters))) if len(names) > 1 else f
    for name in names[len(found):]:
        found[name] = draw(morphisms())
    start = None
    if draw(st.booleans()):
        domain = found[pair[0]].domain if pair else draw(st.sampled_from(list(found.values()))).domain
        start = draw(st.sampled_from(domain.letters))
    return MorphismFile(morphisms=found, start=start, pair=pair)


def write(draw, mf):
    """mf as text, with random whitespace wherever the grammar allows it."""

    def sep(required=False):
        return draw(st.sampled_from(SEPARATORS[1:] if required else SEPARATORS))

    parts = []
    for name, m in mf.morphisms.items():
        compact = all(len(x) == 1 for x in m.domain)
        rules = []
        for letter in m.domain:
            image = m.image(letter).letters()
            tokens = image
            if compact and len(image) > 1:  # the run of characters, cut anywhere
                cuts = sorted(draw(st.sets(st.integers(1, len(image) - 1), max_size=3)))
                tokens = ["".join(image[i:j]) for i, j in zip([0, *cuts], [*cuts, len(image)])]
            rhs = "".join(t + sep(True) for t in tokens[:-1]) + (tokens[-1] if tokens else "")
            rules.append(f"{sep()}{letter}{sep()}->{sep()}{rhs}{sep()};")
        parts.append(f"{name}{sep()}{{{''.join(rules)}{sep()}}}")
    if mf.start is not None:
        parts.append(f"start{sep()}={sep()}{mf.start}{sep()};")
    if mf.pair is not None:
        parts.append(f"pair{sep()}={sep()}{mf.pair[0]}{sep()},{sep()}{mf.pair[1]}{sep()};")
    parts = draw(st.permutations(parts))
    return sep() + "".join(p + sep(True) for p in parts)


@settings(max_examples=200, deadline=None)
@given(morphism_files(), st.data())
def test_random_layouts_parse_back(mf, data):
    """format_file refuses exactly the files that would not parse back; the
    others parse back, from its text and from any layout."""
    if not writable(mf):
        with pytest.raises(DomainMismatchError):
            format_file(mf)
        return
    text = write(data.draw, mf)
    assert parse_file(text) == mf, text
    assert parse_file(format_file(mf)) == mf
