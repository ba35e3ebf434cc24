"""Polynomial utilities over exact rationals.

Polynomials are lists of coefficients in ascending order of the power of
x (so p[i] is the coefficient of x^i).  Sign-variation counts follow the
convention that zero values are skipped, which makes Sturm counts valid
at rational points that happen to be roots: V(t) then equals the right
limit V(t+), so V(a) - V(b) counts the distinct real roots in (a, b].
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy

from .errors import DomainMismatchError, InvariantError


def trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def degree(p):
    return len(trim(p)) - 1


def evaluate(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def derivative(p):
    return [i * c for i, c in enumerate(p)][1:]


def negate(p):
    return [-c for c in p]


def poly_divmod(a, b):
    """Quotient and remainder of a by b over the rationals."""
    a = [Fraction(c) for c in trim(a)]
    b = [Fraction(c) for c in trim(b)]
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = a[:]
    lead = b[-1]
    while len(r) >= len(b) and trim(r):
        shift = len(r) - len(b)
        coeff = r[-1] / lead
        q[shift] = coeff
        for i, c in enumerate(b):
            r[shift + i] -= coeff * c
        r = trim(r)
        r = r if r else []
    return trim(q), trim(r)


def poly_gcd(a, b):
    """Monic gcd over the rationals."""
    a = trim([Fraction(c) for c in a])
    b = trim([Fraction(c) for c in b])
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if not a:
        return []
    lead = a[-1]
    return [c / lead for c in a]


def squarefree(p):
    """The squarefree part p / gcd(p, p')."""
    p = trim([Fraction(c) for c in p])
    if degree(p) < 1:
        return p
    g = poly_gcd(p, derivative(p))
    if degree(g) < 1:
        return p
    q, r = poly_divmod(p, g)
    if r:
        raise InvariantError("gcd(p, p') does not divide p")
    return q


def sturm_chain(p):
    """Sturm chain of the squarefree part of p."""
    p0 = squarefree(p)
    chain = [p0, trim(derivative(p0))]
    while trim(chain[-1]):
        _, r = poly_divmod(chain[-2], chain[-1])
        chain.append(negate(r))
    chain.pop()
    return chain


def sign_variations(chain, x):
    signs = []
    for poly in chain:
        v = evaluate(poly, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def count_roots_halfopen(chain, lo, hi):
    """Distinct real roots in (lo, hi] for a precomputed Sturm chain."""
    if lo >= hi:
        return 0
    return sign_variations(chain, lo) - sign_variations(chain, hi)


def count_roots_closed(p, chain, lo, hi):
    """Distinct real roots in [lo, hi]."""
    if lo > hi:
        return 0
    at_lo = 1 if evaluate(p, lo) == 0 else 0
    if lo == hi:
        return at_lo
    return at_lo + count_roots_halfopen(chain, lo, hi)


def rational_roots_of_monic_int(p):
    """All rational roots of a monic integer polynomial (they are integers).

    Roots are returned without multiplicity, in increasing order.
    """
    p = trim(list(p))
    if not p:
        return []
    if p[-1] != 1 or not all(isinstance(c, int) for c in p):
        raise DomainMismatchError("expected a monic polynomial with integer coefficients")
    shift = 0
    while p and p[0] == 0:
        shift += 1
        p = p[1:]
    roots = set([0] if shift else [])
    const = p[0] if p else 0
    if const:
        limit = abs(const)
        d = 1
        while d * d <= limit:
            if limit % d == 0:
                for cand in (d, -d, limit // d, -(limit // d)):
                    if evaluate(p, cand) == 0:
                        roots.add(cand)
            d += 1
    return sorted(roots)


def _float_root_hint(p):
    """Largest real root estimate via numpy; None if it cannot be formed."""
    coeffs = [float(c) for c in reversed(trim(p))]
    if len(coeffs) < 2:
        return None
    try:
        roots = numpy.roots(coeffs)
    except Exception:
        return None
    best = None
    for z in roots:
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            continue
        if abs(z.imag) <= 1e-9 * (1.0 + abs(z.real)):
            if best is None or z.real > best:
                best = z.real
    return best


class LargestRootLocator:
    """Tracks a shrinking rational bracket (lo, hi] around the largest real root.

    The caller guarantees the polynomial has a real root in (lo, hi] and
    none above hi.  refine() halves the bracket with Sturm counts, trying
    one float-guided jump first so that tight widths do not need dozens of
    exact bisection steps.
    """

    def __init__(self, poly, lo, hi):
        self.poly = trim([Fraction(c) for c in poly])
        self.chain = sturm_chain(self.poly)
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)
        self._tried_hint = False
        if count_roots_halfopen(self.chain, self.lo, self.hi) < 1:
            raise ValueError("bracket does not contain a root")

    def _try_hint(self, width):
        est = _float_root_hint(self.poly)
        if est is None:
            return
        pad = max(Fraction(width) / 4, Fraction(1, 10**15))
        lo = Fraction(est).limit_denominator(10**15) - pad
        hi = Fraction(est).limit_denominator(10**15) + pad
        lo = max(lo, self.lo)
        hi = min(hi, self.hi)
        if lo >= hi:
            return
        # Accept only when the candidate provably brackets the largest root.
        if (
            count_roots_halfopen(self.chain, lo, hi) >= 1
            and count_roots_halfopen(self.chain, hi, self.hi) == 0
        ):
            self.lo, self.hi = lo, hi

    def refine(self, width):
        width = Fraction(width)
        if not self._tried_hint and self.hi - self.lo > width:
            self._tried_hint = True
            self._try_hint(width)
        while self.hi - self.lo > width:
            mid = (self.lo + self.hi) / 2
            if count_roots_halfopen(self.chain, mid, self.hi) >= 1:
                self.lo = mid
            else:
                self.hi = mid
        return self.lo, self.hi

    def isolated(self):
        """True when [lo, hi] contains exactly one distinct root of poly."""
        return count_roots_closed(self.poly, self.chain, self.lo, self.hi) == 1


def nth_root_bounds(x, n, width):
    """Rational enclosure of x**(1/n) for x >= 0, to the requested width."""
    x = Fraction(x)
    width = Fraction(width)
    if x < 0:
        raise ValueError("negative radicand")
    if n == 1 or x == 0:
        return x, x
    lo, hi = Fraction(0), max(x, Fraction(1))
    while hi - lo > width:
        mid = (lo + hi) / 2
        if mid**n < x:
            lo = mid
        else:
            hi = mid
    return lo, hi


def integer_nth_root_exact(value, n):
    """The exact integer n-th root of value, or None."""
    if value < 0:
        return None
    lo, hi = 0, max(1, value)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**n < value:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**n == value else None


def rational_nth_root_exact(q, n):
    """The exact rational n-th root of a non-negative Fraction, or None."""
    q = Fraction(q)
    num = integer_nth_root_exact(q.numerator, n)
    if num is None:
        return None
    den = integer_nth_root_exact(q.denominator, n)
    if den is None:
        return None
    return Fraction(num, den)
