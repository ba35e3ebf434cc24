"""Polynomial utilities in exact integer arithmetic.

Polynomials are lists of coefficients in ascending order of the power of
x (so p[i] is the coefficient of x^i).  Coefficients may be ints or
Fractions; gcds, squarefree parts and Sturm chains are computed on a
positive integer multiple of the input, which has the same roots, so
their own coefficients are always ints.  The sign of p at a rational
point a/b (b > 0) is the sign of the integer sum of c_i a^i b^(d-i).

Roots are located only by Sturm counts and integer n-th roots.  Sign
variations skip zero values, so Sturm counts hold at rational points
that are roots: V(t) then equals the right limit V(t+), and V(a) - V(b)
counts the distinct real roots in (a, b].
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

from .errors import DomainMismatchError, InvariantError
from .intmat import clear_denominators


def trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def evaluate(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def derivative(p):
    return [i * c for i, c in enumerate(p)][1:]


def _integral(p):
    """A positive integer multiple of p with the same degree."""
    (row,), _ = clear_denominators((tuple(trim(p)),))
    return list(row)


def _divide_content(p):
    """p divided by the gcd of its coefficients (a positive constant)."""
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _primitive(p):
    """The primitive integer polynomial with positive leading coefficient
    and the roots of p; [] for the zero polynomial."""
    p = _divide_content(_integral(p))
    return [-c for c in p] if p and p[-1] < 0 else p


def _pseudo_remainder(a, b):
    """lc(b)^(deg a - deg b + 1) * a mod b, over the integers; b is non-zero."""
    lead = b[-1]
    db = len(b) - 1
    r = list(a)
    for top in range(len(a) - 1, db - 1, -1):
        c = r[top]
        shift = top - db
        r = [lead * x for x in r[:top]]
        if c:
            for i in range(db):
                r[shift + i] -= c * b[i]
    return trim(r)


def _exact_quotient(a, b):
    """a / b for integer polynomials when b divides a in Z[x]."""
    lead = b[-1]
    db = len(b) - 1
    r = list(a)
    q = [0] * (len(a) - db)
    for top in range(len(a) - 1, db - 1, -1):
        c, rest = divmod(r[top], lead)
        if rest:
            raise InvariantError("gcd(p, p') does not divide p")
        q[top - db] = c
        if c:
            for i, x in enumerate(b):
                r[top - db + i] -= c * x
    if any(r[:db]):
        raise InvariantError("gcd(p, p') does not divide p")
    return q


def poly_gcd(a, b):
    """gcd of a and b as a primitive integer polynomial with positive
    leading coefficient: it has exactly the common roots of a and b, each
    with the smaller of its two multiplicities.  [] when both are zero."""
    a = _primitive(a)
    b = _primitive(b)
    while b:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    return a


def squarefree(p):
    """The squarefree part p / gcd(p, p'), primitive with positive
    leading coefficient: the distinct roots of p, each once."""
    p = _primitive(p)
    if len(p) < 3:  # constants and linear polynomials are squarefree
        return p
    g = poly_gcd(p, derivative(p))
    if len(g) < 2:
        return p
    return _exact_quotient(p, g)


def sturm_chain(p):
    """Sturm chain of the squarefree part of p, as a primitive
    pseudo-remainder sequence.

    The sequence of the primitive p and p' ends in gcd(p, p') up to a
    constant, so it is the chain itself when that term is a constant (p
    is squarefree); otherwise the chain is that of p / gcd(p, p').  Each
    term is -rem(previous two) times a positive constant: the
    pseudo-remainder is lc^(delta+1) times the remainder, so its sign is
    corrected by that of lc^(delta+1), and the content it shares is
    divided out.  Positive factors leave every sign, hence every count,
    unchanged.
    """
    a = _primitive(p)
    chain = _sturm_sequence(a)
    if len(chain[-1]) > 1:  # p has a repeated root
        chain = _sturm_sequence(_exact_quotient(a, _primitive(chain[-1])))
    return chain


def _sturm_sequence(a):
    """The signed primitive remainder sequence of a and a', ending in
    gcd(a, a') up to a constant; [a] when a' = 0."""
    chain = [a]
    b = _divide_content(derivative(a))
    while b:
        chain.append(b)
        r = _pseudo_remainder(a, b)
        flip = -1 if b[-1] > 0 or (len(a) - len(b)) % 2 else 1
        a, b = b, [flip * c for c in _divide_content(r)] if r else []
    return chain


def _powers(b, d):
    out = [1]
    for _ in range(d):
        out.append(out[-1] * b)
    return out


def _scaled_value(p, a, bpow):
    """The integer sum of c_i a^i b^(d-i) for p of degree d >= 0 and
    bpow = [1, b, b^2, ...]: b^d p(a/b), of the sign of p(a/b) when b > 0."""
    acc = p[-1]
    for c, w in zip(reversed(p[:-1]), bpow[1:]):
        acc = acc * a + c * w
    return acc


def sign_of(p, x):
    """The sign of the integer polynomial p (degree >= 0) at the rational x."""
    v = _scaled_value(p, x.numerator, _powers(x.denominator, len(p)))
    return (v > 0) - (v < 0)


def sign_variations(chain, x):
    a, b = x.numerator, x.denominator
    bpow = _powers(b, len(chain[0]))  # degrees fall along the chain
    variations = 0
    last = 0
    for poly in chain:
        if not poly:
            continue
        v = _scaled_value(poly, a, bpow)
        if v:
            s = 1 if v > 0 else -1
            if last and s != last:
                variations += 1
            last = s
    return variations


def count_roots_halfopen(chain, lo, hi):
    """Distinct real roots in (lo, hi] for a precomputed Sturm chain."""
    if lo >= hi:
        return 0
    return sign_variations(chain, lo) - sign_variations(chain, hi)


def count_roots_closed(p, chain, lo, hi):
    """Distinct real roots in [lo, hi]."""
    if lo > hi:
        return 0
    p = _integral(p)
    at_lo = 0 if p and _scaled_value(p, lo.numerator, _powers(lo.denominator, len(p))) else 1
    if lo == hi:
        return at_lo
    return at_lo + count_roots_halfopen(chain, lo, hi)


def rational_roots_of_monic_int(p):
    """The rational roots of a monic integer polynomial, distinct and in
    increasing order: the integer roots of its squarefree part h, the monic
    Sturm chain head.  Sturm counts halve each integer interval (lo, hi]
    within Fujiwara's bound that holds a root of h until it is one wide;
    then hi is a root exactly when h(hi) = 0."""
    p = trim(list(p))
    if p and (p[-1] != 1 or not all(isinstance(c, int) for c in p)):
        raise DomainMismatchError("expected a monic polynomial with integer coefficients")
    if len(p) < 2:
        return []
    chain = sturm_chain(p)
    hi = _root_bound(chain[0])
    lo = -hi - 1
    roots, stack = [], [(lo, sign_variations(chain, lo), hi, sign_variations(chain, hi))]
    while stack:
        lo, v_lo, hi, v_hi = stack.pop()
        if v_lo > v_hi and hi - lo == 1 and evaluate(chain[0], hi) == 0:
            roots.append(hi)
        elif v_lo > v_hi and hi - lo > 1:
            mid = (lo + hi) // 2
            v_mid = sign_variations(chain, mid)
            stack += [(mid, v_mid, hi, v_hi), (lo, v_lo, mid, v_mid)]  # the left half pops first
    return roots


def _root_bound(h):
    """A bound on the moduli of the roots of h (degree d >= 1, positive
    leading coefficient), after Fujiwara: 2 max_k ceil((|h_(d-k)|/h_d)^(1/k))."""
    lead = h[-1]
    return 2 * max(_ceil_root(-(-abs(c) // lead), k) for k, c in enumerate(reversed(h[:-1]), 1))


class LargestRootLocator:
    """Tracks a shrinking rational bracket (lo, hi] around the largest real root.

    The caller guarantees the polynomial has a real root in (lo, hi] and
    none above hi.  refine() proposes a bracket by exact Newton on the
    squarefree chain head h (degree d), accepts it only by Sturm counts,
    and otherwise halves the bracket with Sturm counts.

    For the Perron root r of a non-negative matrix, h has no root of
    modulus above r (Perron-Frobenius), so for x >= r every root z has
    0 <= Re 1/(x - z) <= 1/(x - r).  Their sum h'/h shows that the step
    s = h(x)/h'(x) keeps x - d s <= r <= x - s: Newton falls monotonically
    to r, by at least the factor 1 - 1/d per step, and every step brackets
    r.  Off the Perron case the counts catch a wrong bracket.

    One locator may be shared by threads: refine, isolated and sign_at
    hold its own lock, which takes no other, so the bracket and the sign
    count at hi change together; the chain never changes."""

    def __init__(self, poly, lo, hi):
        self._start(sturm_chain(poly), lo, hi)

    @classmethod
    def from_chain(cls, chain):
        """The locator of the polynomials whose Sturm chain, as made by
        `sturm_chain`, is `chain`, so no remainder sequence runs again.  It
        brackets their largest real root, which must lie above -1 (a Perron
        root does), in (-1, B] for B Fujiwara's bound of the chain head: its
        start is a function of the chain alone."""
        locator = cls.__new__(cls)
        locator._start(chain, -1, _root_bound(chain[0]))
        return locator

    def _start(self, chain, lo, hi):
        self.chain = chain
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)
        self._v_hi = sign_variations(self.chain, self.hi)
        if self.lo >= self.hi or sign_variations(self.chain, self.lo) <= self._v_hi:
            raise DomainMismatchError("bracket does not contain a root")
        self._bound = Fraction(_root_bound(self.chain[0]))
        self._isolated = False
        self._lock = threading.Lock()

    def _newton(self, width):
        """A bracket (lo, hi) narrower than `width` from exact Newton on the
        chain head, started at min(hi, Fujiwara's root bound); None on a stall.

        Iterates a / 2^k are rounded up to a grid of spacing about s^2 and
        below width / (16 d), so every step that the stop test (d - 1) s <=
        width / 2 lets through moves x down.  [x - d s, x - s] is rounded
        outward, lo strictly below.  The step cap is what the contraction
        by 1 - 1/d needs for a Perron root, rounding aside.
        """
        h = self.chain[0]
        d = len(h) - 1
        wn, wd = width.numerator, width.denominator
        kw = (16 * d * wd // wn).bit_length()
        x = min(self.hi, self._bound)
        k = kw
        a = -((-x.numerator << k) // x.denominator)
        lo_num, lo_den = self.lo.numerator, self.lo.denominator
        steps = d * math.ceil(2 * d * (x - self.lo) / width).bit_length() + d
        for _ in range(steps):
            value, slope = h[-1], 0  # 2^(kd) h(a / 2^k) and its derivative in a
            for shift, c in enumerate(reversed(h[:-1]), 1):
                slope = slope * a + value
                value = value * a + (c << k * shift)
            if value < 0 or slope <= 0:
                return None
            top = a * slope - value  # x - s = top / (slope 2^k)
            if 2 * (d - 1) * value * wd <= wn * (slope << k):
                den = slope << k
                hi = -((-top << kw) // den)
                lo = ((top - (d - 1) * value) << kw) // den - 1
                return Fraction(lo, 1 << kw), Fraction(hi, 1 << kw)
            grid = max(kw, 2 * (slope.bit_length() + k - value.bit_length()))
            a_next = -((-top << grid) // (slope << k))
            if a_next << k >= a << grid or a_next * lo_den <= lo_num << grid:
                return None  # no progress, or at or below lo
            a, k = a_next, grid
        return None

    def refine(self, width):
        width = positive_width(width)
        with self._lock:
            if self.hi - self.lo > width:
                bracket = self._newton(width)
                if bracket is not None:
                    lo, hi = max(bracket[0], self.lo), min(bracket[1], self.hi)
                    v_hi = self._v_hi if hi == self.hi else sign_variations(self.chain, hi)
                    # accept only a provable bracket of the largest root
                    if lo < hi and v_hi == self._v_hi and sign_variations(self.chain, lo) > v_hi:
                        self.lo, self.hi = lo, hi
            while self.hi - self.lo > width:
                mid = (self.lo + self.hi) / 2
                v_mid = sign_variations(self.chain, mid)
                if v_mid > self._v_hi:  # a root in (mid, hi]
                    self.lo = mid
                else:
                    self.hi, self._v_hi = mid, v_mid
            return self.lo, self.hi

    def isolated(self):
        """True when [lo, hi] contains exactly one distinct root of poly.
        A True answer is kept: the bracket only shrinks around that root."""
        with self._lock:
            if not self._isolated:
                self._isolated = count_roots_closed(self.chain[0], self.chain, self.lo, self.hi) == 1
            return self._isolated

    def sign_at(self, t):
        """Exact sign of r - t for the largest root r and a rational t: r > t
        exactly when a root lies in (t, hi], as none lies above hi, and
        otherwise r = t exactly when t is a root, read in integers as
        b^d head(a/b) for t = a/b."""
        with self._lock:
            if t <= self.lo:
                return 1
            if t > self.hi:
                return -1
            if sign_variations(self.chain, t) > self._v_hi:
                return 1
        return 0 if sign_of(self.chain[0], t) == 0 else -1


def positive_width(width):
    """An enclosure width as a Fraction; a width <= 0 raises DomainMismatchError.
    Every refinement passes here: a Fraction is kept, its sign read off the numerator."""
    if type(width) is not Fraction:
        width = Fraction(width)
    if width.numerator <= 0:
        raise DomainMismatchError("enclosure width must be positive")
    return width


def nth_root_bounds(x, n, width):
    """Rational enclosure (lo, hi) of x**(1/n) for x >= 0, hi - lo <= width:
    for 2^-k <= width / 2, the integer floor and ceiling of (x 2^(kn))^(1/n)
    over 2^k, from the integer n-th root of the floor of x 2^(kn)."""
    x, width = Fraction(x), positive_width(width)
    if x < 0:
        raise DomainMismatchError("negative radicand")
    if n == 1 or x == 0:
        return x, x
    k = (-(-2 * width.denominator // width.numerator) - 1).bit_length()
    scaled, rest = divmod(x.numerator << k * n, x.denominator)
    root = _ceil_root(scaled, n)
    exact = root**n == scaled
    lo = root if exact else root - 1
    return Fraction(lo, 1 << k), Fraction(lo + (rest > 0 or not exact), 1 << k)


def _ceil_root(value, n):
    """The least integer m >= 0 with m**n >= value, for an int value.

    Integer Newton from any x > 0 lands at or above the floor of the root
    (the arithmetic-geometric mean inequality) and from there falls to
    it.  It starts from the n-th root of the top 64 bits of value in
    floats, off by a relative error of about bits(value) 2^-53 / n, so it
    takes a few quadratic steps whatever n is; the last test is exact."""
    if value <= 0:
        return 0
    shift = max(0, value.bit_length() - 64)
    t = (math.log2(value >> shift) + shift) / n  # log2 of the root
    k = max(0, int(t) - 52)
    x = int(2.0 ** (t - k)) + 1 << k
    x = ((n - 1) * x + value // x ** (n - 1)) // n
    while True:
        y = ((n - 1) * x + value // x ** (n - 1)) // n
        if y >= x:
            return x if x**n >= value else x + 1
        x = y


def integer_nth_root_exact(value, n):
    """The exact integer n-th root of value, or None."""
    root = _ceil_root(value, n)
    return root if value >= 0 and root**n == value else None


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
