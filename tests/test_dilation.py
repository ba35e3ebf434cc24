"""Dilated matrices: membership, vector dilation, radius preservation."""

import random
from fractions import Fraction

import pytest

from morphlab import (
    DomainMismatchError,
    check_radius_preserved,
    dilate_vector,
    is_dilated,
    rational_eigenvalues,
    rational_radius_enclosure,
    shares_rational_spectrum,
)
from morphlab.intmat import mat_vec

from util import random_dilation, random_matrix

BASE = ((1, 1, 1), (2, 1, 1), (1, 1, 0))
KVEC = (1, 2, 2)
# a rational dilated version of BASE (the definition allows negative entries)
DILATED = (
    (1, 1, 0, 0, 1),
    (2, 0, 1, 1, 0),
    (2, 1, 0, Fraction(1, 2), Fraction(1, 2)),
    (1, 1, 0, 1, -1),
    (1, 0, 1, 0, 0),
)


def test_identity_dilatation():
    assert is_dilated(BASE, BASE, (1, 1, 1))


def test_rational_example_membership():
    assert is_dilated(DILATED, BASE, KVEC)


def test_perturbed_entry_breaks_membership():
    rows = [list(r) for r in DILATED]
    rows[2][3] += 1
    assert not is_dilated(tuple(map(tuple, rows)), BASE, KVEC)


def test_size_mismatch_raises():
    with pytest.raises(DomainMismatchError):
        is_dilated(DILATED, BASE, (1, 2, 1))


def test_dilate_vector_examples():
    assert dilate_vector((1, 0, 2), KVEC) == (1, 0, 0, 2, 2)
    assert dilate_vector((1, 0, 2), (1, 1, 1)) == (1, 0, 2)


def test_dilated_product_is_dilated_vector_of_product():
    x = (1, 0, 2)
    dd = mat_vec(DILATED, dilate_vector(x, KVEC))
    assert tuple(dd) == dilate_vector(mat_vec(BASE, x), KVEC)


def test_dilated_product_identity_random_rational():
    rng = random.Random(91)
    for _ in range(40):
        m = rng.randint(1, 5)
        base = random_matrix(rng, m)
        kvec = tuple(rng.randint(1, 3) for _ in range(m))
        d = random_dilation(rng, base, kvec)
        assert is_dilated(d, base, kvec)
        x = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(m))
        assert tuple(mat_vec(d, dilate_vector(x, kvec))) == dilate_vector(
            mat_vec(base, x), kvec
        )


def test_check_radius_preserved_trivial_and_random():
    assert check_radius_preserved(BASE, BASE, (1, 1, 1))
    rng = random.Random(92)
    for _ in range(25):
        m = rng.randint(1, 5)
        base = random_matrix(rng, m)
        kvec = tuple(rng.randint(1, 3) for _ in range(m))
        d = random_dilation(rng, base, kvec)
        assert check_radius_preserved(d, base, kvec, Fraction(1, 10**9))


def test_check_radius_preserved_validates_membership():
    with pytest.raises(DomainMismatchError):
        check_radius_preserved(((1, 1), (1, 1)), ((3,),), (2,))


def test_rational_eigenvalues():
    assert rational_eigenvalues(((2, 0), (0, 3))) == [2, 3]
    assert rational_eigenvalues(((0, 1), (3, 0))) == []
    assert rational_eigenvalues(((0, 1), (0, 0))) == [0]
    e = 10**12  # p(0) = e^2 - 1 has about 10^12 divisor candidates below its square root
    assert rational_eigenvalues(((e, 1), (1, e))) == [e - 1, e + 1]
    dilated = ((e, 1, 0), (1, e, 0), (1, 0, e))
    assert is_dilated(dilated, ((e, 1), (1, e)), (1, 2))
    assert shares_rational_spectrum(((e, 1), (1, e)), dilated)


def test_rational_spectrum_divides_into_dilation():
    rng = random.Random(93)
    for _ in range(40):
        m = rng.randint(1, 5)
        base = random_matrix(rng, m)
        kvec = tuple(rng.randint(1, 3) for _ in range(m))
        d = random_dilation(rng, base, kvec)
        assert shares_rational_spectrum(base, d)


def test_rational_radius_enclosure_scales():
    rows = ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)))
    lo, hi = rational_radius_enclosure(rows, Fraction(1, 10**9))
    assert lo <= 1 <= hi
    with pytest.raises(DomainMismatchError):
        rational_radius_enclosure(((-1,),))
