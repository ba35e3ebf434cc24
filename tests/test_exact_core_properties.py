"""Properties of the exact core against references kept in tests/util.py:
characteristic polynomials from power traces against Faddeev-LeVerrier,
Sturm chains from one remainder sequence against the squarefree part
taken first, and rows and columns of zero-pattern powers walked through
a squaring ladder against whole-pattern squaring."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from morphlab.intmat import charpoly, ladder_column, ladder_row, support_ladder, support_pow
from morphlab.polytools import sturm_chain

from util import reference_charpoly, reference_sturm_chain, reference_support_pow

SETTINGS = settings(derandomize=True, deadline=None, max_examples=200)


def square(entries, max_n):
    return st.integers(0, max_n).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )


@SETTINGS
@given(square(st.integers(-9, 9), 10))
def test_charpoly_equals_faddeev_leverrier_on_integer_matrices(rows):
    poly = charpoly(rows)
    assert poly == reference_charpoly(rows)
    assert all(type(c) is int for c in poly)


@SETTINGS
@given(square(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)), 6))
def test_charpoly_equals_faddeev_leverrier_on_rational_matrices(rows):
    assert charpoly(rows) == reference_charpoly(rows)


@st.composite
def signed_cycles(draw):
    """A permutation matrix of n <= 14 with every entry negated, kept or
    zeroed: R = 1 (or 0), so each power has entries in {-1, 0, 1} and the
    power traces pack them into slots of bitlen(1^n) + 2 = 3 bits."""
    n = draw(st.integers(1, 14))
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((-1, 1, 1, 0)), min_size=n, max_size=n))
    return tuple(tuple(signs[i] if j == perm[i] else 0 for j in range(n)) for i in range(n))


# sparse signed matrices with entries up to 2^20 in size: the slot width
# bitlen(R^n) + 2 follows the largest sum R, with R^k <= R^n for k <= n
wide_signed = square(st.one_of(st.just(0), st.just(0), st.integers(-(2**20), 2**20)), 8)


@SETTINGS
@given(st.one_of(signed_cycles(), wide_signed))
def test_charpoly_equals_faddeev_leverrier_at_the_trace_slot_width(rows):
    poly = charpoly(rows)
    assert poly == reference_charpoly(rows)
    assert all(type(c) is int for c in poly)


# zero patterns as bitset rows: dense rows, or sparse ones with at most two
# successors per vertex, whose cycles give powers a long period
patterns = st.integers(0, 9).flatmap(
    lambda n: st.lists(
        st.one_of(
            st.integers(0, (1 << n) - 1),
            st.lists(st.integers(0, n - 1), max_size=2).map(lambda js: sum({1 << j for j in js})),
        )
        if n
        else st.nothing(),
        min_size=n,
        max_size=n,
    ).map(tuple)
)


@SETTINGS
@given(patterns, st.integers(0, (1 << 12) - 1), st.data())
def test_ladder_walks_equal_rows_and_columns_of_support_pow(s, e, data):
    """Row i and column j of the pattern of A^r, for r <= e, walked through
    the ladder built for e, are those of support_pow and of whole-pattern
    squaring; the ladder has one level per bit of e."""
    ladder = support_ladder(s, e)
    assert len(ladder) == max(e, 1).bit_length() and ladder[0] == s
    n = len(s)
    for r in (e, data.draw(st.integers(0, e))):
        want = support_pow(s, r)
        assert want == reference_support_pow(s, r)
        assert tuple(ladder_row(1 << i, ladder, r) for i in range(n)) == want
        for j in range(n):
            assert ladder_column(1 << j, ladder, r) == sum(1 << k for k in range(n) if want[k] >> j & 1)


factors = st.lists(st.integers(-6, 6), min_size=1, max_size=3).map(lambda low: [*low, 1])  # monic, degree 1..3


def product(parts, scale):
    out = [scale]
    for factor, power in parts:
        for _ in range(power):
            new = [0] * (len(out) + len(factor) - 1)
            for i, c in enumerate(out):
                for j, d in enumerate(factor):
                    new[i + j] += c * d
            out = new
    return out


polynomials = st.one_of(
    st.builds(
        product,
        st.lists(st.tuples(factors, st.integers(1, 3)), min_size=1, max_size=4),
        st.one_of(st.integers(-5, 5).filter(bool), st.fractions(-3, 3).filter(bool)),
    ),
    st.just([]),  # the zero polynomial
    st.integers(-7, 7).map(lambda c: [c]),  # constants, zero among them
)


@SETTINGS
@given(polynomials)
def test_sturm_chain_equals_the_squarefree_part_first(poly):
    chain = sturm_chain(poly)
    assert chain == reference_sturm_chain(poly)
    assert all(type(c) is int for term in chain for c in term)


def test_charpoly_reference_cases():
    # the references themselves, on values known in closed form
    assert reference_charpoly(((1, 1), (1, 0))) == [-1, -1, 1]
    assert reference_charpoly(((Fraction(1, 2), 1), (0, Fraction(1, 3)))) == [Fraction(1, 6), Fraction(-5, 6), 1]
    assert reference_sturm_chain([4, -4, 1]) == [[-2, 1], [1]]  # (x - 2)^2
