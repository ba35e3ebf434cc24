"""Alphabets, words, morphisms, and their elementary operations."""

import random
from array import array

import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the hypothesis properties below are left out without it
    st = None

from morphlab import (
    Alphabet,
    DomainMismatchError,
    Morphism,
    NotASubMorphismError,
    Word,
    apply,
    compose,
    erase_and_restrict,
    erasure,
    first_mismatch,
    identity_morphism,
    incidence_matrix,
    is_prolongable,
    morphism_from_chars,
    mortal_letters,
    parikh,
    power,
    restrict,
)
from morphlab.fixtures import baum_sweet_erasing, baum_sweet_uniform, thue_morse_projection
from morphlab.intmat import mat_pow, mat_vec, support_pow
from morphlab.words import _letter_graph

from util import random_endomorphism


def test_alphabet_rejects_duplicates_and_empty_letters():
    with pytest.raises(DomainMismatchError):
        Alphabet(["a", "a"])
    with pytest.raises(DomainMismatchError):
        Alphabet(["a", ""])


def test_word_membership_checked():
    ab = Alphabet("ab")
    with pytest.raises(DomainMismatchError):
        Word.from_letters(ab, "abc")
    assert Word(ab, ()).text() == ""
    for bad in ((0, -1), (2,), (1, 0, 2)):
        with pytest.raises(DomainMismatchError, match="letter code out of range"):
            Word(ab, bad)
    with pytest.raises(DomainMismatchError):
        Word(Alphabet(()), (0,))


POOL = tuple(f"x{i}" for i in range(300))


def test_word_codes_rejected_on_both_sides_of_256_letters():
    """Words over at most 256 letters store bytes and others tuples; both
    refuse a code outside the alphabet, a str and a bare int (bytes(5)
    would be five zero bytes)."""
    for n in (1, 2, 255, 256, 257, 300):
        alphabet = Alphabet(POOL[:n])
        assert type(Word(alphabet, (0,)).codes) is (bytes if n <= 256 else tuple)
        bad = [(c,) for c in (-1, n, 256, 300) if not 0 <= c < n]
        for codes in (*bad, [n], (0, 1.5), "ab", "\x00", 0, 1, 5):
            with pytest.raises(DomainMismatchError, match="letter code out of range"):
                Word(alphabet, codes)
    # a buffer of wider ints is read code by code, not byte by byte
    assert Word(Alphabet("ab"), array("q", [1, 0, 1])).codes == b"\x01\x00\x01"


def test_apply_baum_sweet_prefix():
    sigma, _, _ = baum_sweet_uniform()
    w = Word.from_letters(sigma.domain, "ab")
    assert apply(sigma, w).text() == "abcb"


def test_apply_empty_word():
    sigma, _, _ = baum_sweet_uniform()
    assert len(apply(sigma, Word(sigma.domain))) == 0


def test_apply_erasing_coding():
    _, tau, _ = baum_sweet_erasing()
    w = Word.from_letters(tau.domain, "abecefb")
    assert apply(tau, w).text() == "1101"


def test_apply_rejects_foreign_symbols():
    sigma, _, _ = baum_sweet_uniform()
    other = Alphabet("xy")
    with pytest.raises(DomainMismatchError):
        apply(sigma, Word.from_letters(other, "x"))


def test_compose_identity_law():
    sigma, _, _ = baum_sweet_uniform()
    assert compose(sigma, identity_morphism(sigma.domain)) == sigma
    assert compose(identity_morphism(sigma.domain), sigma) == sigma


def test_compose_square():
    sigma, _, _ = baum_sweet_uniform()
    assert compose(sigma, sigma).image("a").text() == "abcb"


def test_compose_with_erasure_drops_letters():
    sp, _, _ = baum_sweet_erasing()
    kappa = erasure(sp.domain, {"f"})
    assert compose(kappa, sp).image("b").text() == "ceb"


def test_power_basics():
    sigma, _, _ = baum_sweet_uniform()
    assert power(sigma, 1) == sigma
    assert power(sigma, 2).image("a").text() == "abcb"
    assert power(sigma, 0) == identity_morphism(sigma.domain)


def test_power_of_erasing_morphism():
    sp, _, _ = baum_sweet_erasing()
    assert power(sp, 2).image("e").text() == "ef"


def test_erasure_identity_and_total():
    sigma, _, _ = baum_sweet_uniform()
    assert erasure(sigma.domain, ()) == identity_morphism(sigma.domain)
    total = erasure(sigma.domain, sigma.domain.letters)
    w = Word.from_letters(sigma.domain, "abba")
    assert len(apply(total, w)) == 0
    with pytest.raises(DomainMismatchError):
        erasure(sigma.domain, {"z"})


def test_restrict_sub_morphism():
    f, _, _ = thue_morse_projection()
    sub = restrict(f, {"c"})
    assert sub.image("c").text() == "ccc"
    assert restrict(f, f.domain.letters) == f
    with pytest.raises(NotASubMorphismError) as err:
        restrict(f, {"a", "b"})
    assert err.value.letter == "a"


def test_incidence_matrix_columns():
    sigma, _, _ = baum_sweet_uniform()
    m = incidence_matrix(sigma)
    cols = {
        label: tuple(m.rows[i][m.index_of(label)] for i in range(4))
        for label in "abcd"
    }
    assert cols == {
        "a": (1, 1, 0, 0),
        "b": (0, 1, 1, 0),
        "c": (0, 1, 0, 1),
        "d": (0, 0, 0, 2),
    }


def test_incidence_matrix_thue_morse_shape():
    f, _, _ = thue_morse_projection()
    m = incidence_matrix(f)
    assert m.rows == ((1, 1, 0), (1, 1, 0), (1, 1, 3))


def test_incidence_matrix_identity():
    ident = identity_morphism(Alphabet("abc"))
    assert incidence_matrix(ident).rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_mortal_letters():
    sigma, _, _ = baum_sweet_uniform()
    assert mortal_letters(sigma) == ()
    sp, _, _ = baum_sweet_erasing()
    assert mortal_letters(sp) == ("f",)
    chain = morphism_from_chars({"x": "y", "y": ""})
    assert mortal_letters(chain) == ("x", "y")


def test_mortal_letters_match_word_iteration():
    rng = random.Random(4001)
    for _ in range(60):
        f = random_endomorphism(rng, rng.randint(2, 5), erase_chance=0.3)
        k = len(f.domain)
        fk = power(f, k)
        mortals = set(mortal_letters(f))
        for b in f.domain:
            assert (len(fk.image(b)) == 0) == (b in mortals)


def test_is_prolongable():
    sigma, _, _ = baum_sweet_uniform()
    assert is_prolongable(sigma, "a")
    bounded = morphism_from_chars({"a": "ab", "b": ""})
    assert not is_prolongable(bounded, "a")
    shifted = morphism_from_chars({"a": "ba", "b": "b"})
    assert not is_prolongable(shifted, "a")


def test_is_prolongable_polynomial_growth():
    f = morphism_from_chars({"a": "ab", "b": "b"})
    assert is_prolongable(f, "a")


def test_parikh_counts():
    sigma, _, _ = baum_sweet_uniform()
    assert parikh(Word(sigma.domain)).counts == (0, 0, 0, 0)
    assert parikh(Word.from_letters(sigma.domain, "abcb")).counts == (1, 2, 1, 0)


def test_parikh_functoriality_on_fixture():
    sigma, _, _ = baum_sweet_uniform()
    m = incidence_matrix(sigma)
    w = Word.from_letters(sigma.domain, "a")
    assert parikh(apply(sigma, w)).counts == mat_vec(m.rows, parikh(w).counts)


def test_parikh_functoriality_random():
    rng = random.Random(4002)
    for _ in range(80):
        f = random_endomorphism(rng, rng.randint(2, 5), erase_chance=0.2)
        m = incidence_matrix(f)
        w = Word(
            f.domain,
            tuple(rng.randrange(len(f.domain)) for _ in range(rng.randint(0, 12))),
        )
        assert parikh(apply(f, w)).counts == mat_vec(m.rows, parikh(w).counts)


def test_incidence_matrix_of_powers_random():
    rng = random.Random(4003)
    for _ in range(25):
        f = random_endomorphism(rng, rng.randint(2, 4), erase_chance=0.2)
        m = incidence_matrix(f).rows
        for n in range(9):
            assert incidence_matrix(power(f, n)).rows == mat_pow(m, n)


def test_compose_associativity_random():
    rng = random.Random(4004)
    for _ in range(30):
        size = rng.randint(2, 4)
        f = random_endomorphism(rng, size)
        g = random_endomorphism(rng, size)
        h = random_endomorphism(rng, size)
        assert compose(compose(h, g), f) == compose(h, compose(g, f))


def test_power_addition_law_random():
    rng = random.Random(4006)
    for _ in range(15):
        f = random_endomorphism(rng, rng.randint(2, 4), max_len=3)
        for m in range(3):
            for n in range(3):
                assert power(f, m + n) == compose(power(f, m), power(f, n))


def test_power_equals_repeated_composition_random():
    """Square and multiply builds the same morphism as n compositions in a
    row; powers stop once their total image length passes 4000 symbols."""
    rng = random.Random(4007)
    checked = 0
    for _ in range(40):
        f = random_endomorphism(rng, rng.randint(2, 4), max_len=2, erase_chance=0.3)
        ones = (1,) * len(f.domain)
        m = incidence_matrix(f).rows
        folded = identity_morphism(f.domain)
        for n in range(41):
            if sum(mat_vec(mat_pow(m, n), ones)) > 4000:
                break
            assert power(f, n) == folded
            folded = compose(f, folded)
            checked += n > 8
    assert checked > 100


def test_restricted_incidence_is_sub_matrix():
    rng = random.Random(4005)
    found = 0
    while found < 15:
        f = random_endomorphism(rng, rng.randint(2, 5), erase_chance=0.2)
        letters = list(f.domain.letters)
        keep = [l for l in letters if rng.random() < 0.6]
        if not keep:
            continue
        stable = all(all(x in keep for x in f.image(l)) for l in keep)
        if not stable:
            with pytest.raises(NotASubMorphismError):
                restrict(f, keep)
            continue
        sub = restrict(f, keep)
        m = incidence_matrix(f)
        idx = [m.index_of(l) for l in m.labels if l in keep]
        expected = tuple(tuple(m.rows[i][j] for j in idx) for i in idx)
        assert incidence_matrix(sub).rows == expected
        found += 1


def test_morphism_equality_is_syntactic():
    a = morphism_from_chars({"a": "ab", "b": "a"})
    b = morphism_from_chars({"a": "ab", "b": "a"})
    c = morphism_from_chars({"b": "a", "a": "ab"})
    assert a == b
    assert a != c  # different domain order


if st is not None:
    WORD_SETTINGS = settings(derandomize=True, deadline=None, max_examples=150)

    @st.composite
    def words_over_alphabets(draw):
        """(alphabet size n in 1..300, codes in range(n)), both sides of 256."""
        n = draw(st.one_of(st.integers(1, 300), st.sampled_from((255, 256, 257))))
        return n, draw(st.lists(st.integers(0, n - 1), max_size=40))

    @WORD_SETTINGS
    @given(words_over_alphabets(), st.data())
    def test_word_operations_agree_on_both_representations(drawn, data):
        n, codes = drawn
        alphabet = Alphabet(POOL[:n])
        letters = tuple(POOL[c] for c in codes)
        forms = [tuple(codes), list(codes), (c for c in codes), Word.from_letters(alphabet, letters).codes]
        if n <= 256:
            forms.append(bytes(codes))
        words = [Word(alphabet, form) for form in forms]
        w = words[0]
        assert type(w.codes) is (bytes if n <= 256 else tuple)
        assert all(v == w and hash(v) == hash(w) and v.codes == w.codes for v in words)
        assert w.letters() == letters and tuple(w) == letters and len(w) == len(codes)
        i = data.draw(st.integers(-len(codes) - 2, len(codes) + 2))
        j = data.draw(st.integers(-len(codes) - 2, len(codes) + 2))
        assert w[i:j].letters() == letters[i:j] and type(w[i:j].codes) is type(w.codes)
        if codes:
            k = data.draw(st.integers(-len(codes), len(codes) - 1))
            assert w[k] == letters[k]
            letter = data.draw(st.sampled_from(letters))
            assert w.count(letter) == letters.count(letter)
        assert (w[:i] + w[i:]) == w and (w + w).letters() == letters + letters
        assert w.count(POOL[n - 1]) == codes.count(n - 1)
        assert parikh(w).counts == tuple(map(codes.count, range(n)))

    @WORD_SETTINGS
    @given(st.integers(1, 256), st.integers(257, 300), st.booleans(), st.data())
    def test_first_mismatch_across_the_256_letter_boundary(small, large, swap, data):
        """One letter sequence over a bytes alphabet and over a tuple one (in
        reverse order, so the codes differ) matches; a letter the bytes
        alphabet lacks is the first mismatch."""
        narrow, wide = Alphabet(POOL[:small]), Alphabet(reversed(POOL[:large]))
        letters = data.draw(st.lists(st.sampled_from(POOL[:small]), min_size=1, max_size=30))
        k = data.draw(st.integers(0, len(letters) - 1))
        changed = letters[:k] + [data.draw(st.sampled_from(POOL[small:large]))] + letters[k + 1 :]
        pairs = [
            (Word.from_letters(narrow, letters), Word.from_letters(wide, letters)),
            (Word.from_letters(narrow, letters), Word.from_letters(wide, changed)),
        ]
        if swap:
            pairs = [(b, a) for a, b in pairs]
        n = len(letters)
        assert pairs[0][0] == pairs[0][1] and hash(pairs[0][0]) == hash(pairs[0][1])
        assert first_mismatch(*pairs[0], n) is None
        assert first_mismatch(*pairs[1], n) == k and pairs[1][0] != pairs[1][1]

    @st.composite
    def erasing_morphisms(draw):
        """(f, E): an endomorphism over n letters, on both sides of 256, with
        images of up to 12 letters, and a set E of its letters to erase."""
        n = draw(st.one_of(st.integers(1, 12), st.integers(250, 300)))
        alphabet = Alphabet(POOL[:n])
        rng = random.Random(draw(st.integers(0, 2**32)))
        images = [Word(alphabet, [rng.randrange(n) for _ in range(rng.randint(0, 12))]) for _ in range(n)]
        erased = set(rng.sample(POOL[:n], draw(st.sampled_from((0, 1, n // 2, n - 1, n)))))
        return Morphism(alphabet, alphabet, images), erased

    @WORD_SETTINGS
    @given(erasing_morphisms())
    def test_erase_and_restrict_equals_the_erasure_applied_letter_by_letter(drawn):
        f, erased = drawn
        kappa = erasure(f.domain, erased)
        keep = kappa.codomain
        if not keep:  # no morphism has an empty domain
            with pytest.raises(DomainMismatchError, match="domain must be non-empty"):
                erase_and_restrict(f, erased)
            return
        expected = Morphism(keep, keep, [apply(kappa, f.image(l)) for l in keep])
        got = erase_and_restrict(f, erased)
        assert got == expected
        assert all(type(w.codes) is type(v.codes) for w, v in zip(got.images, expected.images))

    def fresh_facts(f):
        """f's count matrix and letter graph, counted letter by letter."""
        images = [w.letters() for w in f.images]
        rows = tuple(tuple(image.count(a) for image in images) for a in f.domain)
        graph = tuple(sum(1 << f.domain.index(c) for c in set(image)) for image in images)
        return rows, graph

    @WORD_SETTINGS
    @given(erasing_morphisms(), st.data())
    def test_kept_facts_equal_fresh_counts_along_chains(drawn, data):
        """Chains of compose, power, erase_and_restrict and restrict_domain,
        with the count matrix and letter graphs asked for at random points:
        every morphism's kept facts equal fresh counts of its images.  The
        closed graph, 3,600 row products over 300 letters, is checked on
        the small alphabets only."""
        f, erased = drawn
        closed = len(f.domain) <= 12
        assert power(f, 1) is f
        assert power(f, 0) == identity_morphism(f.domain)
        chain = [f]
        for _ in range(data.draw(st.integers(1, 4))):
            if data.draw(st.booleans()):  # keep facts now, before f is built on
                incidence_matrix(f), _letter_graph(f), closed and _letter_graph(f, closed=True)
            removed = erased & set(f.domain.letters)
            small = sum(map(len, f.images)) <= 300
            step = data.draw(st.sampled_from(("compose", "power", "erase", "restrict_domain")))
            if step == "erase" and len(removed) < len(f.domain):
                f = erase_and_restrict(f, removed)
            elif step == "restrict_domain" and len(removed) < len(f.domain):
                # kappa o f on the kept letters, which erase_and_restrict also gives
                kept = f.domain.without(removed)
                f = compose(erasure(f.domain, removed), f.restrict_domain(kept.letters))
            elif step == "compose" and small:
                f = compose(f, data.draw(st.sampled_from([h for h in chain if h.domain == f.domain])))
            else:
                e = data.draw(st.integers(0, 3 if small else 1))
                g = power(f, e)
                assert (g is f) == (e == 1)
                f = g
            chain.append(f)
        for g in chain:
            rows, graph = fresh_facts(g)
            assert incidence_matrix(g).rows == rows and incidence_matrix(g).labels == g.domain.letters
            assert _letter_graph(g) == graph
            if closed:
                fresh = Morphism(g.domain, g.codomain, g.images)
                assert _letter_graph(g, closed=True) == _letter_graph(fresh, closed=True)
                assert _letter_graph(fresh, closed=True) == support_pow(
                    tuple(row | 1 << b for b, row in enumerate(graph)), len(graph)
                )
            assert power(g, 1) is g
