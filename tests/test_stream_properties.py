"""Property tests: the block pumps against one-symbol-at-a-time and
level-by-level references."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from morphlab import (
    Alphabet,
    BudgetExceededError,
    FixedPointStream,
    ImageStream,
    Morphism,
    NotProlongableError,
    is_prolongable,
    largest_erasable,
    morphism_from_chars,
)

from util import finite_by_orbit, reference_largest_erasable, reference_mortal_letters

SETTINGS = settings(derandomize=True, deadline=None, max_examples=200)


def budget_message(budget, served, n):
    return f"the pump budget of {budget} kept letters served {served} of {n} output symbols; raise it"


def finite_message(length, n):
    return f"the image word is finite: its length is {length}, short of {n}"


class ReferencePump:
    """g(f^w(start)) one letter of f^w(start) per step, as a per-letter loop
    reads it.  The letters g erases forever (util.reference_largest_erasable)
    are skipped and not charged to the budget: f maps them to words over
    them alone, so the expansion drops them where it writes them, and a run
    of them costs nothing.  The letters left are the kept letters."""

    def __init__(self, f, g, start, budget):
        fm = Morphism.from_rules(f)
        self.gm = Morphism.from_rules(g, domain=fm.domain)
        self.fm, self.start = fm, start
        erased = set(reference_largest_erasable(fm, self.gm))
        self.images = {b: [c for c in w if c not in erased] for b, w in f.items()}
        self.g = g
        self.budget = budget
        self.source = list(self.images[start])  # f(start) = start u without the erased letters
        self.read = 1
        self.out = []
        self.consumed = 0
        # f^w(start) is finite when every letter of u is mortal
        self.fixed_point_finite = set(f[start][1:]) <= set(reference_mortal_letters(fm))

    def kept(self, i):
        """The kept letter i, or None when there are at most i of them."""
        while len(self.source) <= i:
            if self.read >= len(self.source):
                return None
            self.source.extend(self.images[self.source[self.read]])
            self.read += 1
        return self.source[i]

    def prefix(self, n):
        while len(self.out) < n:
            letter = self.kept(self.consumed)
            if letter is None:
                if self.fixed_point_finite:
                    raise NotProlongableError("expansion stalled")
                # the kept letters end exactly when the image word is finite
                assert finite_by_orbit(self.fm, self.gm, self.start)
                raise BudgetExceededError(finite_message(len(self.out), n))
            if self.consumed >= self.budget:
                raise BudgetExceededError(budget_message(self.budget, len(self.out), n))
            self.consumed += 1
            self.out.extend(self.g[letter])
        return self.out[:n]


@st.composite
def presentations(draw, prolongable=True, g_sizes=(0, 4)):
    """(f, g) over a..d with f(a) = a u; erasing letters allowed in f, and
    in g unless the image sizes `g_sizes` (least, most) forbid them."""
    letters = "abcd"[: draw(st.integers(1, 4))]
    word = lambda lo, hi, alphabet: st.text(alphabet, min_size=lo, max_size=hi)
    f = {letter: draw(word(0, 3, letters)) for letter in letters}
    f["a"] = "a" + draw(word(1 if prolongable else 0, 3, letters))
    g = {letter: draw(word(*g_sizes, "xy")) for letter in letters}
    return f, g


@st.composite
def decorated(draw, prolongable=True):
    """presentations() with a letter e that g erases and f grows, e -> e^2 or
    e^3, inserted into images: the letters g erases forever are never empty."""
    f, g = draw(presentations(prolongable))
    f["e"] = "e" * draw(st.integers(2, 3))
    g["e"] = ""
    for letter in draw(st.lists(st.sampled_from(sorted(f)), max_size=4)):
        word = f[letter]
        at = draw(st.integers(int(letter == "a"), len(word)))
        f[letter] = word[:at] + "e" + word[at:]
    return f, g


@st.composite
def triangular(draw):
    """a -> a u, and each later letter maps to itself (or to nothing) then
    letters after it: |f^k(a)| grows polynomially, of degree up to 3."""
    letters = "abcd"[: draw(st.integers(2, 4))]
    f = {}
    for i, letter in enumerate(letters):
        f[letter] = draw(st.sampled_from(["", letter])) + draw(st.text(letters[i + 1 :], max_size=2))
    f["a"] = "a" + draw(st.text(letters[1:], min_size=1, max_size=2))
    return f


# exponential, polynomial and erasing generators f with f(a) = a u
generators = st.one_of(
    presentations().map(lambda fg: fg[0]),
    decorated().map(lambda fg: fg[0]),
    triangular(),
)


def level_by_level(f, start, n):
    """The first n symbols of f^w(start) from whole words f^k(start); f(start)
    starts with start, so f^k(start) is a prefix of f^(k+1)(start), and one of
    the same length is the whole fixed point."""
    word = start
    while len(word) < n:
        longer = "".join(map(f.__getitem__, word))
        if len(longer) == len(word):
            raise NotProlongableError("the fixed point is finite")
        word = longer
    return word[:n]


def compare_fixed_point(f, stream, n):
    try:
        expected = level_by_level(f, "a", n)
    except NotProlongableError:
        with pytest.raises(NotProlongableError):
            stream.prefix(n)
    else:
        assert stream.prefix(n).text() == expected


fixed_point_requests = st.lists(st.integers(0, 400), min_size=1, max_size=6)


@SETTINGS
@given(generators, fixed_point_requests)
def test_fixed_point_stream_matches_level_by_level_expansion(f, ns):
    fm = morphism_from_chars(f)
    assume(is_prolongable(fm, "a"))
    stream = FixedPointStream(fm, "a")
    for n in ns:
        compare_fixed_point(f, stream, n)


@SETTINGS
@given(st.one_of(presentations(prolongable=False).map(lambda fg: fg[0]), triangular()),
       fixed_point_requests)
def test_unchecked_finite_fixed_point_stalls_where_the_levels_stop(f, ns):
    fm = morphism_from_chars(f)
    assume(not is_prolongable(fm, "a"))
    stream = FixedPointStream(fm, "a", check=False)
    for n in ns:
        compare_fixed_point(f, stream, n)


requests = st.lists(st.integers(0, 80), min_size=1, max_size=6)
budgets = st.integers(1, 300)


def compare(stream, reference, n):
    """Serve n from both; the outcome and the pump state must agree."""
    try:
        expected = reference.prefix(n)
    except (BudgetExceededError, NotProlongableError) as error:
        with pytest.raises(type(error)) as caught:
            stream.prefix(n)
        if isinstance(error, BudgetExceededError):
            assert str(caught.value) == str(error)
    else:
        assert list(stream.prefix(n)) == expected
    assert stream.consumed == reference.consumed
    assert len(stream._buffer) == len(reference.out)


@SETTINGS
@given(presentations(), requests, budgets)
def test_block_pump_matches_per_symbol_pump(fg, ns, budget):
    f, g = fg
    fm, gm = morphism_from_chars(f), morphism_from_chars(g)
    assume(is_prolongable(fm, "a"))
    stream = ImageStream(gm, fm, "a", budget=budget)
    reference = ReferencePump(f, g, "a", budget)
    for n in ns:
        compare(stream, reference, n)


@SETTINGS
@given(presentations(prolongable=False), requests, budgets)
def test_block_pump_matches_per_symbol_pump_on_finite_sources(fg, ns, budget):
    f, g = fg
    stream = ImageStream(morphism_from_chars(g), morphism_from_chars(f), "a", budget=budget, check=False)
    reference = ReferencePump(f, g, "a", budget)
    for n in ns:
        compare(stream, reference, n)


def kept_word(f, erased, start, n):
    """The first n letters of D(f^w(start)), D the erasure of the letters in
    `erased` (all of it when it is shorter), level by level: f maps those
    letters to words over them alone, so D(f^(k+1)(start)) = D(f(w)) for w
    = D(f^k(start)), and each level is a prefix of the next."""
    word = "" if start in erased else start
    while len(word) < n:
        longer = "".join(c for b in word for c in f[b] if c not in erased)
        if len(longer) == len(word):
            break
        word = longer
    return word[:n]


def check_consumed_is_least(fg, ns, budget):
    """After each request `consumed` is the least number of letters of
    D(f^w(a)) whose image holds the longest prefix served; a budget error
    leaves it at the budget while D(f^w(a)) goes on, and at its end, with a
    message that says the word is finite, when it does not."""
    f, g = fg
    fm, gm = morphism_from_chars(f), morphism_from_chars(g)
    assume(is_prolongable(fm, "a"))
    erased = set(reference_largest_erasable(fm, gm))
    stream = ImageStream(gm, fm, "a", budget=budget)
    served = 0
    for n in ns:
        try:
            stream.prefix(n)
        except BudgetExceededError as error:
            word = kept_word(f, erased, "a", budget + 1)
            if "finite" in str(error):
                assert stream.consumed == len(word) <= budget
            else:
                assert stream.consumed == budget < len(word)
            break
        served = max(served, n)
        word = kept_word(f, erased, "a", stream.consumed)
        assert len(word) == stream.consumed
        image = [len(g[c]) for c in word]
        if word:
            # one kept letter fewer would not have served the longest request so far
            assert sum(image[:-1]) < served
        assert sum(image) >= served


@SETTINGS
@given(presentations(), requests, budgets)
def test_consumed_is_least(fg, ns, budget):
    check_consumed_is_least(fg, ns, budget)


@SETTINGS
@given(decorated(), requests, budgets)
def test_consumed_is_least_with_erased_letters(fg, ns, budget):
    check_consumed_is_least(fg, ns, budget)


@SETTINGS
@given(presentations(), requests, budgets)
def test_consumed_counts_positions_when_nothing_is_erased_forever(fg, ns, budget):
    """With no letter erased forever the kept letters are all of f^w(a):
    prefixes and `consumed` are those of a pump that charges every symbol of
    f^w(a), read level by level with no erasure at all."""
    f, g = fg
    fm, gm = morphism_from_chars(f), morphism_from_chars(g)
    assume(is_prolongable(fm, "a") and not largest_erasable(fm, gm))
    stream = ImageStream(gm, fm, "a", budget=budget)
    served = 0
    for n in ns:
        try:
            stream.prefix(n)
        except BudgetExceededError as error:
            assert str(error) == budget_message(budget, len(stream._buffer), n)
            assert stream.consumed == budget
            break
        served = max(served, n)
        consumed = stream.consumed
        source = level_by_level(f, "a", consumed)
        image = "".join(g[c] for c in source)
        assert "".join(stream.prefix(served).letters()) == image[:served]
        if consumed:
            assert len("".join(g[c] for c in source[:-1])) < served
        assert len(image) >= served


@SETTINGS
@given(decorated(), requests, budgets)
def test_block_pump_matches_per_symbol_pump_with_erased_letters(fg, ns, budget):
    f, g = fg
    fm, gm = morphism_from_chars(f), morphism_from_chars(g)
    assume(is_prolongable(fm, "a"))
    assert "e" in largest_erasable(fm, gm)
    stream = ImageStream(gm, fm, "a", budget=budget)
    reference = ReferencePump(f, g, "a", budget)
    for n in ns:
        compare(stream, reference, n)


@SETTINGS
@given(decorated(prolongable=False), requests, budgets)
def test_block_pump_matches_per_symbol_pump_with_erased_letters_on_finite_sources(fg, ns, budget):
    f, g = fg
    stream = ImageStream(morphism_from_chars(g), morphism_from_chars(f), "a", budget=budget, check=False)
    reference = ReferencePump(f, g, "a", budget)
    for n in ns:
        compare(stream, reference, n)


# requests long enough to span many blocks g(f_K(b)) of one parent each, so
# that both ends of a request may cut a block
long_requests = st.lists(st.integers(0, 5000), min_size=1, max_size=4)
long_budgets = st.integers(1, 20000)
LONG_SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)


def serve_long_requests(fg, ns, budget):
    f, g = fg
    fm, gm = morphism_from_chars(f), morphism_from_chars(g)
    assume(is_prolongable(fm, "a"))
    stream = ImageStream(gm, fm, "a", budget=budget)
    reference = ReferencePump(f, g, "a", budget)
    for n in ns:
        compare(stream, reference, n)


@LONG_SETTINGS
@given(presentations(g_sizes=(1, 1)), long_requests, long_budgets)
def test_block_output_matches_per_symbol_pump_with_a_coding(fg, ns, budget):
    serve_long_requests(fg, ns, budget)


@LONG_SETTINGS
@given(presentations(g_sizes=(2, 4)), long_requests, long_budgets)
def test_block_output_matches_per_symbol_pump_with_long_images(fg, ns, budget):
    serve_long_requests(fg, ns, budget)


@LONG_SETTINGS
@given(decorated(), long_requests, long_budgets)
def test_block_output_matches_per_symbol_pump_with_erased_letters(fg, ns, budget):
    serve_long_requests(fg, ns, budget)


def test_thue_morse_projection_pumps_only_kept_letters():
    # g erases c, and c -> ccc: the n kept letters sit among about n^1.58 source symbols
    f = {"a": "abc", "b": "bac", "c": "ccc"}
    g = {"a": "a", "b": "b", "c": ""}
    n = 10**4
    stream = ImageStream(morphism_from_chars(g), morphism_from_chars(f), "a", budget=n)
    compare(stream, ReferencePump(f, g, "a", n), n)
    assert stream.consumed == n
    # f_K is built from f with c deleted: K = 6, and each parent carries 64 kept letters
    assert stream._lengths == [64, 64, 0]
    assert len(stream.source._buffer) <= n // 32


WIDE = ("a",) + tuple(f"x{i}" for i in range(299))  # 300 letters: codes are tuples


@st.composite
def wide_presentations(draw):
    """f over 300 letters, a -> a x0 u and x_i -> x_(i+1 mod 299) v, u and v
    short random words; g into 300 letters y0..y299 (tuple codes) or into
    0, 1 (bytes codes), erasing allowed."""
    word = lambda lo, hi, pool: st.lists(st.sampled_from(pool), min_size=lo, max_size=hi).map(tuple)
    f = {"a": ("a", "x0") + draw(word(0, 2, WIDE))}
    for i, letter in enumerate(WIDE[1:]):
        f[letter] = (f"x{(i + 1) % 299}",) + draw(word(0, 1, WIDE))
    narrow = draw(st.booleans())
    out = ("0", "1") if narrow else tuple(f"y{i}" for i in range(300))
    g = {letter: draw(word(0, 2, out)) for letter in WIDE}
    return f, g, Alphabet(out)


# each stream's set-up closes a 300-letter graph, about 0.1 s: few examples
@settings(derandomize=True, deadline=None, max_examples=10)
@given(wide_presentations(), requests, budgets)
def test_block_pump_matches_per_symbol_pump_over_300_letters(fgo, ns, budget):
    f, g, out = fgo
    fm, gm = Morphism.from_rules(f), Morphism.from_rules(g, codomain=out)
    stream = ImageStream(gm, fm, "a", budget=budget)
    assert type(stream.source._buffer) is list  # the tuple path
    reference = ReferencePump(f, g, "a", budget)
    for n in ns:
        compare(stream, reference, n)
    assert type(stream.prefix(0).codes) is (bytes if len(out) <= 256 else tuple)
