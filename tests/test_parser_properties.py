"""The morphism-file grammar: random files, written in random layouts,
parse back to themselves."""

import pytest

from morphlab import parse_file
from morphlab.parser import MorphismFile, format_file
from morphlab.words import Morphism

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SEPARATORS = ["", " ", "\t", "\r\n", "\n\n", " \t\n "]
short_letters = st.sampled_from("abxyz01'>")
long_letters = st.text("abxyz01'>", min_size=2, max_size=4)
morphism_names = st.text("fghst'", min_size=1, max_size=3)


@st.composite
def morphisms(draw, domain=None, endo=False):
    """One morphism; over single-character domain letters its images use
    single characters too, since compact mode splits them."""
    if domain is None:
        compact = draw(st.booleans())
        letters = short_letters if compact else st.one_of(short_letters, long_letters)
        domain = draw(st.lists(letters, min_size=1, max_size=4, unique=True))
        if not compact and all(len(x) == 1 for x in domain):
            domain.append(draw(long_letters.filter(lambda x: x not in domain)))
    compact = all(len(x) == 1 for x in domain)
    letters = st.sampled_from(domain) if endo else (
        short_letters if compact else st.one_of(short_letters, long_letters))
    return Morphism.from_rules({x: draw(st.lists(letters, max_size=4)) for x in domain})


@st.composite
def morphism_files(draw):
    names = draw(st.lists(morphism_names, min_size=1, max_size=3, unique=True))
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
    text = write(data.draw, mf)
    assert parse_file(text) == mf, text
    assert parse_file(format_file(mf)) == mf
