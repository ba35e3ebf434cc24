"""Letter facts read from the letter graph: mortal, erasable, prolongable,
growing and finite-image letters against the fixpoints and spectral
growth types they replace."""

import random

from morphlab import Alphabet, MorphicPresentation, Morphism, is_prolongable, mortal_letters
from morphlab import ImageStream, intmat, spectral, words
from morphlab.fixtures import baum_sweet_erasing, thue_morse_projection
from morphlab.normalize import _growing_letters, eliminate_effacement, largest_erasable, monotone_powers
from morphlab.streams import FixedPointStream

from util import (
    LETTERS,
    finite_by_orbit,
    reference_growing_letters,
    reference_is_prolongable,
    reference_largest_erasable,
    reference_mortal_letters,
    stream_says_finite,
)


def _random_pair(rng):
    """f on 1..7 letters with erasing images, half of them with f(a) = a u,
    and g erasing some letters."""
    letters = LETTERS[: rng.randint(1, 7)]
    dom = Alphabet(letters)
    erase = rng.choice((0.0, 0.2, 0.5))
    rules = {
        b: () if rng.random() < erase else tuple(rng.choice(letters) for _ in range(rng.randint(1, 3)))
        for b in letters
    }
    if rng.random() < 0.5:
        rules["a"] = ("a",) + tuple(rng.choice(letters) for _ in range(rng.randint(1, 2)))
    g_rules = {b: () if rng.random() < 0.5 else ("x",) for b in letters}
    f = Morphism.from_rules(rules, domain=dom, codomain=dom)
    return f, Morphism.from_rules(g_rules, domain=dom)


def test_letter_facts_match_the_fixpoint_and_spectral_references():
    rng = random.Random(9107)
    seen = {"prolongable": set(), "finite": set(), "growing": set()}
    for _ in range(2000):
        f, g = _random_pair(rng)
        assert mortal_letters(f) == reference_mortal_letters(f), f
        assert largest_erasable(f, g) == reference_largest_erasable(f, g), (f, g)
        for b in f.domain:
            verdict = is_prolongable(f, b)
            assert verdict == reference_is_prolongable(f, b), (f, b)
            seen["prolongable"].add(verdict)
        if f.image("a").letters()[:1] == ("a",):  # the stream starts only then
            finite = stream_says_finite(f, g, "a")
            assert finite == finite_by_orbit(f, g, "a"), (f, g)
            seen["finite"].add(finite)
        if f.is_non_erasing:  # the growing set is defined for non-erasing f only
            growing = _growing_letters(f)
            assert growing == reference_growing_letters(f), f
            seen["growing"].add(0 < len(growing) < len(f.domain))
    assert all(values == {True, False} for values in seen.values()), seen


def test_letter_facts_need_no_spectral_decomposition(monkeypatch):
    """Prolongability, the presentation and stream checks, and the growing
    set of the monotone step are reachability facts: none of them decomposes
    the incidence matrix."""
    f, g, a = baum_sweet_erasing()
    eff = eliminate_effacement(MorphicPresentation(*thue_morse_projection()))
    calls = []
    monkeypatch.setattr(spectral, "decompose", lambda *args: calls.append(args))
    assert is_prolongable(f, a)
    MorphicPresentation(f, g, a)
    FixedPointStream(f, a)
    assert monotone_powers(eff.f_prime, eff.g_prime, "a")[1] >= 1
    assert calls == []


def test_stream_set_up_closes_the_letter_graph_once(monkeypatch):
    """An image stream over 300 letters reads prolongability (the mortal
    letters) and the letters erased forever from one closure of the letter
    graph: about 3,600 row products for the closure and 300 for the cycle
    test, against 7,200 with a second power of the graph."""
    rng = random.Random(4101)
    wide = ["a"] + [f"x{i}" for i in range(299)]
    rules = {"a": ("a", "x0", rng.choice(wide))}
    for i in range(299):
        rules[f"x{i}"] = (f"x{(i + 1) % 299}",) + tuple(rng.choice(wide) for _ in range(rng.randint(0, 1)))
    f = Morphism.from_rules(rules)
    g = Morphism.from_rules({b: rng.choice(((), ("y",))) for b in wide}, domain=f.domain)
    calls = [0]
    inner = intmat.support_row_mul

    def counted(row, b):
        calls[0] += 1
        return inner(row, b)

    monkeypatch.setattr(intmat, "support_row_mul", counted)
    monkeypatch.setattr(words, "support_row_mul", counted)
    stream = ImageStream(g, f, "a")
    assert 0 < calls[0] <= 4000
    assert len(stream.prefix(1000)) == 1000
