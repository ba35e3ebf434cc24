"""Lazy prefixes of fixed points and their morphic images."""

import random
import time
from bisect import bisect_left

import pytest

from morphlab import (
    Alphabet,
    BudgetExceededError,
    DomainMismatchError,
    FixedPointStream,
    ImageStream,
    InsufficientLengthError,
    NotProlongableError,
    Word,
    apply,
    first_mismatch,
    fixed_point_prefix,
    image_prefix,
    largest_erasable,
    morphism_from_chars,
    prefix_equal,
)
from morphlab.fixtures import baum_sweet_erasing, baum_sweet_uniform

from util import random_presentations


def test_fixed_point_prefix_examples():
    sigma, _, _ = baum_sweet_uniform()
    assert fixed_point_prefix(sigma, "a", 8).text() == "abcbbdcb"
    sp, _, _ = baum_sweet_erasing()
    assert fixed_point_prefix(sp, "a", 7).text() == "abecefb"
    assert fixed_point_prefix(sigma, "a", 1).text() == "a"
    assert fixed_point_prefix(sigma, "a", 0).text() == ""


def test_fixed_point_requires_prolongability():
    bad = morphism_from_chars({"a": "ba", "b": "b"})
    with pytest.raises(NotProlongableError):
        fixed_point_prefix(bad, "a", 5)


def test_unchecked_fixed_point_still_starts_with_its_letter():
    # f(a) = ba: the one-pass expansion would give bababbba, which is no f^n(a)
    bad = morphism_from_chars({"a": "ba", "b": "bb"})
    with pytest.raises(NotProlongableError):
        FixedPointStream(bad, "a", check=False)
    with pytest.raises(NotProlongableError):
        ImageStream(bad, bad, "a", check=False)
    with pytest.raises(NotProlongableError):
        FixedPointStream(morphism_from_chars({"a": "", "b": "b"}), "a", check=False)


def test_image_prefix_examples():
    sp, tp, _ = baum_sweet_erasing()
    assert image_prefix(tp, sp, "a", 16).text() == "1101100101001001"
    sigma, tau, _ = baum_sweet_uniform()
    assert image_prefix(tau, sigma, "a", 16).text() == "1101100101001001"


def test_image_prefix_budget_exceeded_on_all_erasing():
    sigma, _, _ = baum_sweet_uniform()
    dead = morphism_from_chars({"a": "", "b": "", "c": "", "d": ""})
    with pytest.raises(BudgetExceededError):
        image_prefix(dead, sigma, "a", 1, max_pump=1000)
    stream = ImageStream(dead, sigma, "a", budget=1000)
    # the start letter is erased forever: the kept letters form the empty word
    assert len(stream.source._buffer) == 0
    for _ in range(2):
        with pytest.raises(BudgetExceededError) as caught:
            stream.prefix(1)
        assert str(caught.value) == "the image word is finite: its length is 0, short of 1"
        assert stream.consumed == 0
    assert stream.prefix(0).text() == ""


def test_erased_start_letter_gives_an_empty_kept_word():
    # g erases b forever and f(b) = b c b, c -> c: from b the kept word is empty
    f = morphism_from_chars({"a": "ab", "b": "bcb", "c": "c"})
    g = morphism_from_chars({"a": "x", "b": "", "c": ""})
    stream = FixedPointStream(f, "b", erased=("b", "c"))
    assert stream.prefix(0).text() == ""
    with pytest.raises(NotProlongableError):
        stream.prefix(1)
    image = ImageStream(g, f, "b", budget=10)
    with pytest.raises(BudgetExceededError, match="finite"):
        image.prefix(1)
    assert image.consumed == 0
    # from a, the one kept letter is a itself: g(f^w(a)) = x
    with pytest.raises(BudgetExceededError, match="its length is 1, short of 2"):
        image_prefix(g, f, "a", 2, max_pump=10)
    # the erased letters must be closed under f
    with pytest.raises(DomainMismatchError):
        FixedPointStream(f, "a", erased=("b",))


def test_fixed_point_with_one_symbol_lead():
    # the write head leads the read head by one symbol all the way
    lead = morphism_from_chars({"a": "ab", "b": "b"})
    n = 10**5
    stream = FixedPointStream(lead, "a")
    assert stream.prefix(n).text() == "a" + "b" * (n - 1)
    image = ImageStream(morphism_from_chars({"a": "x", "b": "yy"}), lead, "a")
    assert image.prefix(n).text() == "x" + "y" * (n - 1)
    assert image.consumed == n // 2 + 1


def test_stalled_fixed_point_raises_on_every_call():
    # a -> acb, b -> c, c -> (empty): the fixed point is the finite word acbc
    finite = morphism_from_chars({"a": "acb", "b": "c", "c": ""})
    stream = FixedPointStream(finite, "a", check=False)
    assert stream.prefix(3).text() == "acb"
    for n in (10, 5, 10, 6):
        with pytest.raises(NotProlongableError):
            stream.prefix(n)
    assert stream.prefix(4).text() == "acbc"
    image = ImageStream(morphism_from_chars({"a": "x", "b": "", "c": "yy"}), finite, "a", check=False)
    assert image.prefix(5).text() == "xyyyy"
    for n in (6, 100):
        with pytest.raises(NotProlongableError):
            image.prefix(n)
        # the symbols before the stall count, as they do one at a time
        assert image.consumed == 4
        assert image.prefix(5).text() == "xyyyy"


def test_deep_chain_reads_one_parent_per_request():
    # y is erased for good; the kept word is a b b b ..., each b past the
    # first block of f_K(a) the parent of one b, so requests one symbol apart
    # read one parent each
    f = morphism_from_chars({"a": "aby", "b": "b", "y": "y"})
    g = morphism_from_chars({"a": "x", "b": "z", "y": ""})
    stream = ImageStream(g, f, "a", budget=10**6)
    n = 3000
    for k in range(1, n + 1):
        stream.prefix(k)
        # the parents needed for k kept letters, and at most one image of f_K more
        assert len(stream._sums) - 1 <= bisect_left(stream._sums, k) + stream._widest
    assert stream.prefix(n).text() == "x" + "z" * (n - 1)
    # each output symbol is one kept letter; the y between them are not charged
    assert stream.consumed == n


def test_deep_chain_reads_no_parent_past_the_request():
    # the stream pumps f_K with K = 64: f_K(a) = a b^64 and f_K(b) = b
    f = morphism_from_chars({"a": "aby", "b": "b", "y": "y"})
    g = morphism_from_chars({"a": "x", "b": "z", "y": ""})
    stream = ImageStream(g, f, "a", budget=10**5)
    n = 10**5
    assert stream.prefix(n).text() == "x" + "z" * (n - 1)
    assert stream.consumed == n
    assert stream._lengths == [65, 1, 0]
    # n - 64 parents cover n kept letters; the source reads at most one image of f_K more
    assert bisect_left(stream._sums, n) == n - 64
    assert len(stream._sums) - 1 <= n - 64 + 65
    with pytest.raises(BudgetExceededError, match="pump budget of 100000 kept letters"):
        stream.prefix(n + 1)


class CountingImages(list):
    """Image lists that count how often the pump looks one up."""

    reads = 0

    def __getitem__(self, code):
        self.reads += 1
        return super().__getitem__(code)


def test_thue_morse_reads_one_source_letter_per_32_symbols():
    stream = FixedPointStream(morphism_from_chars({"a": "ab", "b": "ba"}), "a")
    stream._images = images = CountingImages(stream._images)
    n = 10**5
    assert stream.prefix(n).text() == "".join("ab"[bin(i).count("1") % 2] for i in range(n))
    # pumping f itself reads n/2 source letters
    assert images.reads <= n // 32


def test_image_stream_source_holds_only_the_parents():
    # tau(sigma^w): each kept letter's block g(f_K(b)) holds dozens of symbols,
    # so the source needs about one letter per block, not one per output symbol
    sigma, tau, _ = baum_sweet_uniform()
    n = 10**5
    stream = ImageStream(tau, sigma, "a", budget=n)
    assert stream.prefix(n).codes == apply(tau, fixed_point_prefix(sigma, "a", n)).codes
    assert stream.consumed == n
    assert len(stream.source._buffer) <= n // 16


def test_prefix_equal_and_mismatch():
    sigma, tau, _ = baum_sweet_uniform()
    w1 = image_prefix(tau, sigma, "a", 16)
    w2 = Word.from_letters(w1.alphabet, "1100")
    assert prefix_equal(w1, w1, 16)
    assert first_mismatch(w1, w2, 4) == 3
    with pytest.raises(InsufficientLengthError):
        prefix_equal(w1, w2, 10)
    # alphabets in another order, or with a letter the first one lacks
    ab = Word.from_letters(Alphabet("ab"), "abbab")
    ba = Word.from_letters(Alphabet("ba"), "abbab")
    assert ab.codes != ba.codes
    assert first_mismatch(ab, ba, 5) is None
    assert prefix_equal(ba, ab, 5)
    other = Word.from_letters(Alphabet("ba"), "abbba")
    assert first_mismatch(ab, other, 5) == 3
    assert first_mismatch(other, ab, 5) == 3
    # a letter the first alphabet lacks matches nothing
    wider = Word.from_letters(Alphabet("cba"), "abcab")
    assert first_mismatch(ab, wider, 5) == 2
    assert first_mismatch(wider, ab, 2) is None
    assert first_mismatch(wider, ab, 5) == 2
    assert first_mismatch(ab, wider, 0) is None


def test_prefix_consistency_and_idempotence():
    sp, _, _ = baum_sweet_erasing()
    stream = FixedPointStream(sp, "a")
    previous = stream.prefix(0)
    for n in range(1, 120):
        current = stream.prefix(n)
        assert current.letters()[: n - 1] == previous.letters()
        previous = current
    # applying the morphism to a prefix reproduces the prefix
    n = 80
    w = fixed_point_prefix(sp, "a", n)
    expanded = apply(sp, w)
    assert expanded.letters()[:n] == w.letters()


def test_image_stream_cross_check_against_apply():
    sp, tp, _ = baum_sweet_erasing()
    stream = ImageStream(tp, sp, "a")
    out = stream.prefix(200)
    # `consumed` counts the letters of f^w(a) that tp does not erase forever
    erased = largest_erasable(sp, tp)
    assert erased == ("e", "f")
    source = fixed_point_prefix(sp, "a", 10 * stream.consumed).letters()
    kept = [letter for letter in source if letter not in erased][: stream.consumed]
    assert len(kept) == stream.consumed
    direct = apply(tp, Word.from_letters(sp.domain, kept))
    assert direct.letters() == out.letters()


def test_stage_streams_on_random_presentations():
    rng = random.Random(95)
    for pres in random_presentations(rng, 10):
        reference = image_prefix(pres.g, pres.f, pres.start, 300)
        # the fixed point of f^2 is the same word
        from morphlab import power

        squared = power(pres.f, 2)
        again = image_prefix(pres.g, squared, pres.start, 300)
        assert prefix_equal(reference, again, 300)


def test_throughput_million_symbols():
    sigma, _, _ = baum_sweet_uniform()
    start = time.perf_counter()
    w = fixed_point_prefix(sigma, "a", 10**6)
    elapsed = time.perf_counter() - start
    assert len(w) == 10**6
    assert elapsed < 1.0, f"generation took {elapsed:.3f}s"
