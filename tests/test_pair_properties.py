"""Property tests: the length walk and the pair construction by offsets."""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from morphlab import compose, incidence_matrix, morphism_from_chars, power
from morphlab.normalize import _length_walk, build_sigma_tau, eliminate_effacement, make_monotone

from util import random_presentations, reference_sigma_tau

SETTINGS = settings(derandomize=True, deadline=None, max_examples=100)


def assert_same_construction(f, g, start):
    built = build_sigma_tau(f, g, start)
    want = reference_sigma_tau(f, g, start)
    assert built.sigma == want.sigma
    assert built.tau == want.tau
    assert built.pairing == want.pairing
    assert repr(built.pairing) == repr(want.pairing)
    assert built.start == want.start
    assert built.dilatation_vector == want.dilatation_vector
    return built


@SETTINGS
@given(st.integers(0, 10**9))
def test_pair_construction_equals_the_name_lookup_on_pipeline_inputs(seed):
    (pres,) = random_presentations(random.Random(seed), 1)
    eff = eliminate_effacement(pres)
    mono = make_monotone(eff.f_prime, eff.g_prime, pres.start)
    assert_same_construction(mono.f, mono.g, pres.start)


@st.composite
def wide_pairs(draw):
    """(f, g) over a..c, every f(b) holding b and one more letter, so that
    |g(f(b))| > |g(b)| everywhere, and g with more than 256 symbols in all:
    the pair alphabet stores its codes as tuples, not bytes."""
    letters = "abc"[: draw(st.integers(2, 3))]
    word = st.text(letters, min_size=1, max_size=3)
    f = {"a": "a" + draw(word)}
    for b in letters[1:]:
        rest = draw(word)
        cut = draw(st.integers(0, len(rest)))
        f[b] = rest[:cut] + b + rest[cut:]
    lengths = [draw(st.integers(1, 200)) for _ in letters]
    lengths[-1] += max(0, 257 - sum(lengths))
    g = {b: "".join(draw(st.sampled_from("01")) for _ in range(n)) for b, n in zip(letters, lengths)}
    return f, g


@settings(derandomize=True, deadline=None, max_examples=30)
@given(wide_pairs())
def test_pair_construction_equals_the_name_lookup_past_256_letters(fg):
    f, g = fg
    built = assert_same_construction(morphism_from_chars(f), morphism_from_chars(g), "a")
    assert len(built.sigma.domain) > 256
    assert type(built.sigma.images[0].codes) is tuple


@st.composite
def endomorphism_pairs(draw):
    """(f, g) over a..d, both possibly erasing; g's rules are listed in a
    drawn order, which need not be f's."""
    letters = "abcd"[: draw(st.integers(1, 4))]
    f = {b: draw(st.text(letters, max_size=3)) for b in letters}
    order = draw(st.permutations(letters))
    g = {b: draw(st.text("xy", max_size=2)) for b in order}
    return f, g


@SETTINGS
@given(endomorphism_pairs())
def test_length_walk_counts_the_built_images(fg):
    f, g = morphism_from_chars(fg[0]), morphism_from_chars(fg[1])
    walk = _length_walk(incidence_matrix(f), g)
    for k in range(5):
        gk = compose(g, power(f, k))
        assert next(walk) == tuple(len(gk.image(b)) for b in f.domain)
