"""The exact core against sympy, an implementation that shares no code with it."""

import itertools
import random
from fractions import Fraction
from math import lcm
from unittest import mock

import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the hypothesis property below is left out without it
    st = None

from morphlab import spectral
from morphlab.intmat import charpoly, mat_pow
from morphlab.polytools import count_roots_halfopen, rational_roots_of_monic_int, sturm_chain
from morphlab.spectral import AlgebraicRadius, decompose

from util import random_matrix

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")


def _poly(coeffs):
    """sympy Poly from ascending coefficients (ints or Fractions)."""
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], X)


def _fraction(r):
    return Fraction(int(r.p), int(r.q))


def _ascending(poly):
    return [_fraction(c) for c in reversed(poly.all_coeffs())]


def _random_rational_matrix(rng, n):
    return tuple(
        tuple(Fraction(rng.randint(0, 9), rng.randint(1, 6)) if rng.random() < 0.6 else 0 for _ in range(n))
        for _ in range(n)
    )


def _roots_in_halfopen(poly, lo, hi):
    """Distinct real roots in (lo, hi], from sympy's closed-interval count."""
    lo, hi = (sympy.Rational(t.numerator, t.denominator) for t in (lo, hi))
    return poly.count_roots(lo, hi) - (1 if poly.eval(lo) == 0 else 0)


def test_charpoly_matches_sympy():
    rng = random.Random(1409)
    matrices = [random_matrix(rng, rng.randint(1, 10), max_entry=rng.choice([1, 3, 9]),
                              zero_chance=rng.choice([0.3, 0.6, 0.85])) for _ in range(40)]
    matrices += [_random_rational_matrix(rng, rng.randint(1, 5)) for _ in range(10)]
    for rows in matrices:
        expected = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])
        assert charpoly(rows) == _ascending(expected.charpoly(X))


def test_sturm_chain_is_a_positive_rescaling_of_sympys():
    # sympy.sturm runs Euclid over the rationals on the monic squarefree
    # part; every term of ours must be a positive multiple of its term
    rng = random.Random(1410)
    for _ in range(150):
        coeffs = [rng.choice([0, 0, -5, -3, -2, -1, 1, 2, 3, 5]) for _ in range(rng.randint(1, 8))]
        coeffs.append(rng.choice([-3, -1, 1, 2]))
        ours = sturm_chain(coeffs)
        theirs = [_ascending(sympy.Poly(p, X)) for p in sympy.sturm(_poly(coeffs))]
        assert len(ours) == len(theirs)
        for p, q in zip(ours, theirs):
            assert len(p) == len(q)
            ratio = Fraction(p[-1]) / q[-1]
            assert ratio > 0 and all(a == ratio * b for a, b in zip(p, q))


def test_halfopen_root_counts_match_sympy():
    rng = random.Random(1411)
    for _ in range(60):
        coeffs = [rng.randint(-6, 6) for _ in range(rng.randint(1, 7))]
        coeffs.append(rng.choice([-2, -1, 1, 3]))
        if rng.random() < 0.3:
            coeffs = [Fraction(c, rng.randint(1, 4)) for c in coeffs]
        if rng.random() < 0.4:  # a repeated rational root, which an endpoint may hit
            r = rng.randint(-3, 3)
            for _ in range(2):
                coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
        chain = sturm_chain(coeffs)
        poly = _poly([Fraction(c) for c in coeffs])
        points = [Fraction(rng.randint(-30, 30), rng.randint(1, 4)) for _ in range(5)] + [Fraction(-100), Fraction(100)]
        for lo in points:
            for hi in points:
                if lo < hi:
                    assert count_roots_halfopen(chain, lo, hi) == _roots_in_halfopen(poly, lo, hi)


def test_root_enclosures_contain_sympys_largest_root():
    rng = random.Random(1412)
    width = Fraction(1, 10**9)
    eps = width / 1000
    radii = []
    for _ in range(25):
        rows = random_matrix(rng, rng.randint(1, 10), max_entry=3, zero_chance=rng.choice([0.4, 0.7, 0.85]))
        radii += [r for r in decompose(rows).radii if not r.is_zero]
    radii += [decompose(rows).spectral_radius() for rows in (((2,),), ((1, 1), (1, 0)), ((0, 1), (3, 0)))]
    radii += [AlgebraicRadius.from_rational(q, step) for q in (Fraction(7, 3), Fraction(1, 2)) for step in (1, 2)]
    for radius in radii:
        lo, hi = radius.root_enclosure(width)
        assert hi - lo <= width
        a, b = map(_fraction, _poly(list(radius.poly)).intervals(eps=eps)[-1][0])
        assert lo - eps <= a and b <= hi + eps  # the largest real root lies in [a, b]


def test_rational_roots_of_monic_int_match_sympy():
    rng = random.Random(1413)
    small = lambda: rng.randint(-6, 6)
    # roots of 12 to 30 digits too, far past any search of the divisors of p(0)
    large = lambda: rng.choice((-1, 1)) * 10 ** rng.randint(12, 30) + rng.randint(-5, 5)
    for count, root in ((40, small), (12, large)):
        for _ in range(count):
            coeffs = [1]
            for _ in range(rng.randint(0, 4)):  # integer roots, some repeated
                r = root()
                coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
            other = [rng.randint(-5, 5) for _ in range(rng.randint(0, 3))] + [1]
            poly = [sum(coeffs[i] * other[k - i] for i in range(len(coeffs)) if 0 <= k - i < len(other))
                    for k in range(len(coeffs) + len(other) - 1)]
            expected = sorted({int(r) for r in sympy.roots(_poly(poly), filter="Q")})
            assert rational_roots_of_monic_int(poly) == expected


def _sign_against_largest_root(rows, c):
    """sign(r - c) for r the largest real root of det(xI - rows), from
    sympy's exact root counts: the roots in [c, oo) less a root at c."""
    poly = sympy.Matrix(rows).charpoly(X)
    c = sympy.Rational(c.numerator, c.denominator)
    at_c = poly.eval(c) == 0
    above = poly.count_roots(c, None) - at_c
    return 1 if above else (0 if at_c else -1)


if st is not None:

    square_rows = st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(st.sampled_from((0, 0, 0, 1, 1, 2, 3)), min_size=n, max_size=n), min_size=n, max_size=n)
    )
    # (radius, q, s) with a linear radius key and the value q^(1/s): a rational at a
    # step, a 1x1 block, and c J_n, whose only non-zero eigenvalue is c n
    linear_radii = st.one_of(
        st.tuples(st.fractions(0, 6, max_denominator=8), st.integers(1, 3)).map(
            lambda qs: (AlgebraicRadius.from_rational(*qs), qs[0], qs[1])
        ),
        st.tuples(st.integers(0, 6), st.integers(1, 3)).map(
            lambda ks: (AlgebraicRadius.from_block(((ks[0],),), ks[1]), Fraction(ks[0]), ks[1])
        ),
        st.tuples(st.integers(1, 3), st.integers(2, 4), st.integers(1, 2)).map(
            lambda cns: (AlgebraicRadius.from_block(((cns[0],) * cns[1],) * cns[1], cns[2]), Fraction(cns[0] * cns[1]), cns[2])
        ),
    )

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(square_rows, st.integers(1, 3), linear_radii, linear_radii)
    def test_compare_against_a_linear_key_matches_sympys_largest_root(rows, step, linear, other):
        """A radius against one whose key is linear, in both orders, agrees
        with sympy's exact count of the roots above the rational, and with
        nroots' float radius where the two lie far apart; two linear ones
        compare as their rational values at a common step."""
        radius = AlgebraicRadius.from_block(rows, step)
        for lin, q, s in (linear, other):
            common = lcm(step, s)
            c = q ** (common // s)  # r^(common/step) against q^(common/s)
            powered = sympy.Matrix(rows) ** (common // step)
            want = _sign_against_largest_root(powered, c)
            assert radius.compare(lin) == want and lin.compare(radius) == -want, (rows, step, q, s)
            roots = [complex(z) for z in powered.charpoly(X).sqf_part().nroots()]
            largest = max(z.real for z in roots if abs(z.imag) < 1e-9)
            if abs(largest - float(c)) > 1e-6 * max(1.0, float(c)):
                assert want == (1 if largest > c else -1)
        (a, qa, sa), (b, qb, sb) = linear, other
        common = lcm(sa, sb)
        va, vb = qa ** (common // sa), qb ** (common // sb)
        assert a.compare(b) == (va > vb) - (va < vb) == -b.compare(a)


def _primitive(entries):
    """The drawn entries with the cycle 0 -> 1 -> ... -> n-1 -> 0 and a loop
    at 0 made positive: irreducible and aperiodic, so primitive."""
    n = len(entries)
    rows = [list(row) for row in entries]
    for i in range(n):
        rows[i][(i + 1) % n] = rows[i][(i + 1) % n] or 1
    rows[0][0] = rows[0][0] or 1
    return tuple(map(tuple, rows))


def _diagonal(a, b):
    n, m = len(a), len(b)
    return tuple(tuple(row) + (0,) * m for row in a) + tuple((0,) * n + tuple(row) for row in b)


def _largest_real_root(block, digits=60):
    """The largest real root of det(xI - block), to `digits` digits, from sympy."""
    return sympy.Poly(sympy.Matrix(block).charpoly(X), X).real_roots()[-1].evalf(digits)


def _sympy_sign(a, b):
    """sign(u_a - u_b) for the values u = r^(1/step) of two radii, from
    sympy's real roots: far apart, by 60-digit values; otherwise equal only
    if the characteristic polynomials at the common step L share a real
    root at u^L, found by sympy's gcd."""
    ua, ub = (_largest_real_root(r.block) ** (sympy.Integer(1) / r.step) for r in (a, b))
    if abs(ua - ub) > sympy.Float(10) ** -30:
        return 1 if ua > ub else -1
    common = lcm(a.step, b.step)
    polys = [sympy.Matrix(r.block).pow(common // r.step).charpoly(X) for r in (a, b)]
    shared = sympy.Poly(sympy.gcd(polys[0].as_expr(), polys[1].as_expr()), X)
    assert any(abs(z.evalf(60) - ua**common) < sympy.Float(10) ** -25 for z in shared.real_roots()), (a.block, b.block)
    return 0


if st is not None:

    primitive_rows = st.integers(2, 4).flatmap(
        lambda n: st.lists(st.lists(st.sampled_from((0, 0, 1, 1, 2, 3)), min_size=n, max_size=n), min_size=n, max_size=n)
    ).map(_primitive)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(primitive_rows, st.integers(1, 3), st.integers(2, 3), square_rows, st.integers(1, 6))
    def test_compare_across_steps_is_an_exact_total_preorder(rows, s, k, other, t):
        """A primitive B at step s equals B^k at step ks and diag(B^k, 1) at
        step ks, whose key differs from B^k's; B^k + E_00 at step ks lies
        just above them, and a drawn matrix at step t anywhere.  compare
        is 0 on equal values, antisymmetric, transitive and agrees with
        sympy's real roots.  An equal-value compare at different steps takes
        one polynomial gcd, none when the keys at the common step are
        equal, and a compare at equal steps forms no matrix power."""
        power = mat_pow(rows, k)
        bumped = tuple(tuple(x + (i == j == 0) for j, x in enumerate(row)) for i, row in enumerate(power))
        base = AlgebraicRadius(rows, s)
        same, padded = AlgebraicRadius(power, k * s), AlgebraicRadius(_diagonal(power, ((1,),)), k * s)
        radii = [base, same, padded, AlgebraicRadius(bumped, k * s), AlgebraicRadius(other, t)]
        key = lambda r: spectral._radius_key(r.poly)[0]
        for a, b, gcds in ((base, same, 0), (base, padded, int(key(same) != key(padded)))):
            with mock.patch.object(spectral, "poly_gcd", wraps=spectral.poly_gcd) as counted:
                assert a.compare(b) == 0 == b.compare(a)
            if len(key(base)) > 2:  # a linear key is decided by one sign count, with no gcd
                assert counted.call_count == 2 * gcds, (rows, s, k)
        unrelated = AlgebraicRadius(other, k * s)
        with mock.patch.object(spectral, "mat_pow", wraps=spectral.mat_pow) as counted:
            assert same.compare(padded) == 0 and radii[3].compare(padded) == 1
            assert unrelated.compare(padded) == -padded.compare(unrelated)
        assert counted.call_count == 0
        signs = {(i, j): a.compare(b) for (i, a), (j, b) in itertools.product(enumerate(radii), repeat=2)}
        for (i, j), sign in signs.items():
            assert sign == -signs[j, i]
            if i < j:
                assert sign == _sympy_sign(radii[i], radii[j]), (i, j, rows, s, k, other, t)
        for i, j, m in itertools.product(range(len(radii)), repeat=3):
            first, second = signs[i, j], signs[j, m]
            if first >= 0 and second >= 0:
                assert signs[i, m] == max(first, second)
            if first <= 0 and second <= 0:
                assert signs[i, m] == min(first, second)
