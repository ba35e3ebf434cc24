"""Property: refining the radius locator never loses the largest root or
loosens its bracket, whether Newton's bracket is accepted or bisection runs."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

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
