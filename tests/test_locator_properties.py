"""Property: refining the radius locator never loses the largest root or
loosens its bracket, whether Newton's bracket is accepted or bisection runs;
a registry locator starts from its radius key alone."""

from collections import OrderedDict
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from morphlab import spectral
from morphlab.intmat import charpoly
from morphlab.polytools import LargestRootLocator, _ceil_root, count_roots_halfopen, sturm_chain

SETTINGS = settings(derandomize=True, deadline=None, max_examples=200)

entries = st.one_of(st.just(0), st.integers(0, 5))
matrices = st.integers(1, 8).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
)


@SETTINGS
@given(matrices)
def test_refinement_keeps_the_perron_root_and_never_loosens(rows):
    poly = charpoly(rows)
    bound = Fraction(max(1, max(sum(row) for row in rows)))
    loc = LargestRootLocator(poly, Fraction(-1), bound)
    chain = sturm_chain(poly)
    lo, hi = loc.lo, loc.hi
    for width in (Fraction(1, 16), Fraction(1, 10**9), Fraction(1, 10**30)):
        new_lo, new_hi = loc.refine(width)
        assert lo <= new_lo < new_hi <= hi and new_hi - new_lo <= width, (rows, width)
        lo, hi = new_lo, new_hi
        # the largest root lies in (lo, hi] and none above hi
        assert count_roots_halfopen(chain, lo, hi) >= 1 and count_roots_halfopen(chain, hi, bound) == 0


near_powers = st.tuples(st.integers(1, 2**40), st.integers(-1, 1))  # m^n - 1, m^n, m^n + 1


@SETTINGS
@given(st.integers(1, 64), st.one_of(st.integers(1, 2**2000), near_powers))
def test_ceil_root_is_the_least_integer_root_above(n, drawn):
    value = drawn if isinstance(drawn, int) else max(1, drawn[0] ** n + drawn[1])
    m = _ceil_root(value, n)
    assert (m - 1) ** n < value <= m**n


@st.composite
def key_sharing_blocks(draw):
    """(A, P): a non-negative block A, n <= 4, that is not nilpotent, and P, A
    padded with a zero column and a random row, so that its polynomial is x
    times A's and the two share a radius key; the row may sum far above A's."""
    n = draw(st.integers(1, 4))
    row = st.lists(st.integers(0, 5), min_size=n, max_size=n).map(tuple)
    block = draw(st.lists(row, min_size=n, max_size=n).map(tuple).filter(lambda a: any(charpoly(a)[:-1])))
    extra = draw(st.lists(st.integers(0, 20), min_size=n, max_size=n).map(tuple))
    return block, tuple(r + (0,) for r in block) + (extra + (0,),)


@SETTINGS
@given(key_sharing_blocks())
def test_a_registry_locator_does_not_depend_on_which_block_asked_first(blocks):
    width = Fraction(1, 10**9)
    seen = []
    for order in (blocks, blocks[::-1]):
        with pytest.MonkeyPatch.context() as patch:  # a fresh registry per order
            patch.setattr(spectral, "_RADIUS_REGISTRY", OrderedDict())
            radii = [spectral.AlgebraicRadius(block) for block in order]
            assert radii[0]._own_key()[0] == radii[1]._own_key()[0]
            seen.append([radius.root_enclosure(width) for radius in radii])
    assert seen[0] == seen[1][::-1], blocks
