"""Exact asymptotics of powers of non-negative integer matrices.

The central object is the block decomposition: for any non-negative
square matrix M there is a least power p (the cyclicity) such that M^p
is permutation-similar to a block triangular matrix whose diagonal
blocks are primitive or the 1x1 zero block.  Entry (i, j) of M^{pn+r}
is then either ultimately zero or grows like Theta(n^d lambda^n) with
lambda the Perron root of some diagonal block of M^p: the largest block
radius seen along an admissible block path, with d + 1 the largest
number of blocks of that radius a single path can visit.

Growth rates are kept as exact algebraic numbers: a defining block, its
integer characteristic polynomial, and a refinable rational enclosure.
Comparisons are decided exactly, never by tolerance: equal radius keys
mean equal values; a linear key, a rational radius, is one sign count;
otherwise brackets are refined until they separate, and once both
isolate their roots one certificate decides equality (the gcd of the two
polynomials has a root where the brackets overlap).  The
enclosures come from locators shared per radius key, each started from
its key alone, on the key's Sturm chain in (-1, Fujiwara's bound of the
key], so their endpoints depend on the key and on the widths refined so
far, not on which block asked first.  A component of period h is
represented by one class block of its h-th power, at step h, so no
characteristic polynomial larger than a cyclic class is formed for it;
the class block is primitive, so a rate of M^p is rational exactly when
that block's Perron root is, and describing it forms no matrix power.
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from math import gcd, lcm

from . import words
from .errors import DomainMismatchError, InvariantError, NotPrimitiveError
from .graphs import _bits, component_period, period_depths, strongly_connected_components
from .intmat import (
    IncidenceMatrix,
    charpoly,
    clear_denominators,
    freeze,
    ladder_column,
    ladder_row,
    mat_mul,
    mat_pow,
    submatrix,
    support,
    support_ladder,
    support_row_mul,
)
from .polytools import (
    LargestRootLocator,
    _root_bound,
    nth_root_bounds,
    poly_gcd,
    positive_width,
    rational_nth_root_exact,
    sign_of,
    sturm_chain,
    trim,
)

DEFAULT_WIDTH = Fraction(1, 10**9)


def _cyclic_components(rows):
    """The non-trivial strongly connected components of the digraph G(rows),
    read from its successor rows (intmat.support), in topological order,
    and their periods; a trivial component, of period 0, is left out."""
    succ = support(rows)
    components = strongly_connected_components(succ)
    periods = [component_period(c, succ) for c in components]
    return [c for c, h in zip(components, periods) if h], [h for h in periods if h]


def cyclicity(matrix):
    """Least p such that M^p is permutation-similar to block triangular form
    with primitive or zero diagonal blocks.

    Equals the lcm over non-trivial strongly connected components of the
    gcd of their cycle lengths; 1 when the digraph has no cycles at all.
    """
    return lcm(1, *scc_periods(matrix))


def scc_periods(rows):
    """Periods of the non-trivial strongly connected components of G(rows),
    for a non-negative square matrix (`_nonnegative`)."""
    return _cyclic_components(_nonnegative(rows))[1]


# One checked pass of perfbench's spectra workload asks for locators of 92
# distinct radius keys (427 to 428 requests), a presentations pass for 23
# to 29 (129 to 133 requests) and a periodic pass for 6 to 10 (30 to 44
# requests, all from the oracle's is_root_of; an unchecked periodic pass
# asks for none; seeds 9101, 9301 and 1); rational radii, decided by sign
# counts, ask for none.  An LRU of 256 keys takes no more misses there
# than an unbounded registry, and bounds the Sturm chains it keeps on
# longer runs.
_RADIUS_REGISTRY_SIZE = 256


def _radius_key(poly):
    """(key, chain): the key is the primitive squarefree part of `poly` with
    the factor x divided out, kept when nothing else is left (a nilpotent
    block), as a tuple; the chain is its Sturm chain, which it heads.

    A non-negative matrix with Perron root r > 0 has r as the largest real
    root of its characteristic polynomial, so blocks whose polynomials
    share a key share r: the key names the radius."""
    return _key_of(tuple(poly))


# the Sturm chain of x, the chain of the key (0, 1) of a nilpotent block
_X_CHAIN = [[0, 1], [1]]


# the radii of f, its powers and sigma rebuild the same polynomials: one
# remainder sequence per polynomial, in an LRU as large as the registry's,
# serves both its key and, on a registry miss, its locator; the cached
# chain is shared with that locator, and nothing changes it
@lru_cache(maxsize=_RADIUS_REGISTRY_SIZE)
def _key_of(poly):
    poly = trim(list(poly))
    zeros = next((i for i, c in enumerate(poly) if c), 0)  # the power of x
    chain = sturm_chain(poly[zeros:])
    return (tuple(chain[0]), chain) if len(chain[0]) > 1 or not zeros else ((0, 1), _X_CHAIN)


def _lru(cache, lock, size, key, make):
    """cache[key] in the least-recently-used map `cache` of at most `size`
    entries, guarded by `lock`; on a miss make() runs outside the lock, so
    two threads may both make a value, and the first one stored wins."""
    with lock:
        value = cache.get(key)
        if value is not None:
            cache.move_to_end(key)
            return value
    made = make()
    with lock:
        value = cache.setdefault(key, made)
        cache.move_to_end(key)
        while len(cache) > size:
            cache.popitem(last=False)
    return value


class _Once:
    """A callable returning make(), which it calls on first use only, under
    its own lock; make may take only locks that never wait for this one."""

    __slots__ = ("_make", "_made", "_lock")

    def __init__(self, make):
        self._make, self._made, self._lock = make, None, threading.Lock()

    def __call__(self):
        with self._lock:
            if self._make is not None:  # then release what the build held, such as class products
                self._made, self._make = self._make(), None
            return self._made


_RADIUS_REGISTRY = OrderedDict()
_RADIUS_LOCK = threading.Lock()


def _linear_root(key):
    """The root -k0/k1 of a linear radius key (k0, k1), else None: a block
    with that key has the rational radius -k0/k1."""
    return Fraction(-key[0], key[1]) if len(key) == 2 else None


def _has_common_root(g, *locators):
    """Whether g, a divisor of the Sturm chain head of each locator, has a
    root in the overlap of their brackets once each isolates its root.

    The brackets are refined together, from width 1/16 down, until every
    locator isolates its root.  As a divisor of a squarefree head, g then
    has at most one root in the closed overlap [lo, hi], a simple one, so
    it has one exactly when g(lo) g(hi) <= 0: no Sturm chain of g is built.
    """
    if len(g) <= 1:
        return False
    width = Fraction(1, 16)
    while True:
        for locator in locators:
            locator.refine(width)
        if all(locator.isolated() for locator in locators):
            break
        width /= 16
    # read again: another thread may have isolated narrower brackets
    brackets = [locator.refine(width) for locator in locators]
    lo, hi = max(lo for lo, _ in brackets), min(hi for _, hi in brackets)
    return lo <= hi and sign_of(g, lo) * sign_of(g, hi) <= 0


def _with_poly(block):
    block = _nonnegative(block)
    return block, tuple(charpoly(block))


class AlgebraicRadius:
    """Exact handle on a value r^(1/step), r the dominant real root of `poly`.

    `block` is the non-negative matrix whose characteristic polynomial
    defines r (its Perron root); `step` records that the matrix arose as a
    step-th power, so the per-step rate is the step-th root.  The zero
    radius (for ultimately vanishing quantities) is represented with
    block None; a nilpotent block gives the same radius.  A radius made by
    `on_demand` builds its block and polynomial once, on first use, under
    its `_Once` lock, which waits at most for the `_Once` lock of its
    component's class products.  Enclosures are refined on the
    locator of the radius key, which every radius with that key shares
    (`_own_locator`) and which locks itself; no registry or cache lock
    is held during a build or a locator call.
    """

    __slots__ = ("step", "_block", "_poly", "_build", "_base", "_key", "_text")

    def __init__(self, block, step=1):
        if step < 1:
            raise DomainMismatchError("step must be positive")
        block, poly = (None, (0, 1)) if block is None else _with_poly(block)
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "_block", block)
        object.__setattr__(self, "_poly", poly)
        object.__setattr__(self, "_build", None)
        object.__setattr__(self, "_base", None)
        object.__setattr__(self, "_key", None)
        object.__setattr__(self, "_text", None)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraicRadius is immutable")

    @classmethod
    def zero(cls):
        return cls(None)

    @classmethod
    def from_block(cls, block, step=1):
        return cls(block, step)

    @classmethod
    def on_demand(cls, build, step, base=None):
        """The radius of the non-negative block `build()`, called once, on
        first use, and taking no lock but the `_Once` lock of a component's
        class products.  `base`, when given, is a radius of an integer
        matrix with the same value at a step dividing `step` (a component
        radius at its period, on a primitive class block); the defining
        root is rational exactly when the base's is (`_rational_root`),
        and the base encloses the value and stands in for this radius in
        comparisons, so the block is built only for its own enclosure,
        polynomial or roots."""
        radius = cls(None, step)
        object.__setattr__(radius, "_build", _Once(lambda: _with_poly(build())))
        object.__setattr__(radius, "_base", base)
        return radius

    @classmethod
    def from_rational(cls, value, step=1):
        value = Fraction(value)
        if value < 0:
            raise DomainMismatchError("radii are non-negative")
        if value == 0:
            return cls.zero()
        return cls(((value,),), step)

    @property
    def block(self):
        return self._block if self._build is None else self._build()[0]

    @property
    def poly(self):
        return self._poly if self._build is None else self._build()[1]

    @property
    def is_zero(self):
        """Block None, or a nilpotent block: its polynomial x^n has the radius
        key (0, 1), which names the zero radius; never a radius built on demand."""
        return self._build is None and (self._block is None or not any(self._poly[:-1]))

    # -- refinement (on the registry's locator) --------------------------------

    def _own_key(self):
        """The radius key and its Sturm chain, (key, chain)."""
        if self._key is None:  # two threads may both compute it, alike
            object.__setattr__(self, "_key", _radius_key(self.poly))
        return self._key

    def _own_locator(self):
        """The registry's locator for the radius key; a new one is built on
        the key's Sturm chain alone and brackets the root in (-1, Fujiwara's
        bound of the key] (`LargestRootLocator.from_chain`), whichever
        radius asks first."""
        key, chain = self._own_key()
        make = partial(LargestRootLocator.from_chain, chain)
        return _lru(_RADIUS_REGISTRY, _RADIUS_LOCK, _RADIUS_REGISTRY_SIZE, key, make)

    def _raised(self, e):
        """The radius of block^e, whose defining root is r^e: self when e = 1."""
        return self if e == 1 else AlgebraicRadius(mat_pow(self.block, e))

    def root_enclosure(self, width=DEFAULT_WIDTH):
        """Rational interval around the defining root r (not the step-th root)."""
        width = positive_width(width)
        if self.is_zero:
            return Fraction(0), Fraction(0)
        return self._own_locator().refine(width)

    def value_enclosure(self, width=DEFAULT_WIDTH):
        """Rational interval of width <= `width` around r^(1/step).

        When the value is provably >= 1 (every non-zero block radius of a
        decomposition is) the lower bound is clamped to 1.
        """
        width = positive_width(width)
        if self.is_zero:
            return Fraction(0), Fraction(0)
        if self._base is not None:  # the same value, at the component's period
            return self._base.value_enclosure(width)
        vlo, vhi = self._value_bracket(width)
        if vlo < 1 <= vhi and self.compare(1) >= 0:
            vlo = Fraction(1)
        return vlo, vhi

    def _value_bracket(self, width):
        """A closed rational interval of width <= `width` around r^(1/step),
        from the locator's bracket of r: the step-th roots of its ends."""
        if self.step == 1:
            return self.root_enclosure(width)
        inner = width
        while True:
            lo, hi = self.root_enclosure(inner)
            vlo = nth_root_bounds(max(lo, Fraction(0)), self.step, width / 4)[0]
            vhi = nth_root_bounds(max(hi, Fraction(0)), self.step, width / 4)[1]
            if vhi - vlo <= width:
                return vlo, vhi
            inner /= 16

    def value_float(self):
        lo, hi = self.value_enclosure(Fraction(1, 10**12))
        mid = (lo + hi) / 2
        return mid.numerator / mid.denominator

    def _rational_root(self):
        """The defining root r as a Fraction when it is rational, else None.

        With a `_base`, r = rho^(step/h) for rho the Perron root of the
        base's primitive class block B at its period h.  Were d > 1 the
        least exponent with rho^d rational, x^d - rho^d would be the
        minimal polynomial of rho (Capelli), so its d roots, all of modulus
        rho, would be eigenvalues of B, which Perron forbids: r is rational
        exactly when rho is, and no power of B is formed."""
        if self.is_zero:
            return Fraction(0)
        base = self._base
        if base is not None:
            root = base._rational_root()
            return None if root is None else root ** (self.step // base.step)
        # the radius key is a primitive integer polynomial, so a rational root
        # is k / lead for an integer k (the rational root theorem), and r is
        # rational exactly when r = floor(lead r) / lead; floor(lead r) is
        # found by bisecting the integers up to lead times Fujiwara's bound of
        # the key with exact counts, which leaves the locator's bracket as it
        # was and never factors the constant term
        key = self._own_key()[0]
        lead = key[-1]
        lo, hi = 0, lead * _root_bound(key)
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._compare_root(Fraction(mid, lead)) >= 0:
                lo = mid
            else:
                hi = mid - 1
        return Fraction(lo, lead) if self._compare_root(Fraction(lo, lead)) == 0 else None

    def exact_rational_value(self):
        """r^(1/step) as a Fraction when that value is rational, else None."""
        root = self._rational_root()
        return None if root is None else rational_nth_root_exact(root, self.step)

    # -- exact comparison ------------------------------------------------------

    def compare(self, other):
        """Exact trichotomy: -1, 0 or 1 as self <, =, > other.

        A radius with a `_base` compares as its base, the same value at the
        component's period; a rational `other` is decided by Sturm counts
        on the radius's chain (_compare_rational); two non-zero radii by
        _compare_at, at their own steps.
        """
        a = self if self._base is None else self._base
        if not isinstance(other, AlgebraicRadius):
            return a._compare_rational(Fraction(other))
        if self.is_zero and other.is_zero:
            return 0
        if self.is_zero:
            return -1
        if other.is_zero:
            return 1
        b = other if other._base is None else other._base
        return a._compare_at(b, a.step, b.step)

    def _compare_at(self, other, step_a, step_b):
        """The sign of u_a - u_b for the values u_a = r_a^(1/step_a) and
        u_b = r_b^(1/step_b) of two non-zero radii, by the first rule that
        applies:

        1. equal steps and equal radius keys mean equal values;
        2. a linear key k0 + k1 x names the rational root -k0/k1: two such
           roots compare as Fractions at the common step L, and when
           u_a^(step_b) is rational it is one sign count on r_b (and the
           same with a and b swapped);
        3. brackets are refined until they separate: those of the roots
           (lo, hi] at equal steps.  At different steps the closed brackets
           of the values are refined until both locators isolate their
           roots; then the roots raised to step L, r^(L/step) from
           `_raised`, are compared, at step 1, by these same rules.  Once
           both locators isolate their roots at equal steps, equality is
           certified once: the gcd of the two chain heads has a root in
           the overlap of the brackets (_has_common_root).  Equal values
           pass that test, so a failure proves them unequal.
        """
        a, b = self, other
        key_a, key_b = a._own_key()[0], b._own_key()[0]
        if step_a == step_b and key_a == key_b:
            return 0
        common = lcm(step_a, step_b)
        ra, rb = _linear_root(key_a), _linear_root(key_b)
        if ra is not None and rb is not None:
            x, y = ra ** (common // step_a), rb ** (common // step_b)
            return (x > y) - (x < y)
        g = gcd(step_a, step_b)
        if ra is not None:  # u_a^(step_b) = (r_a^(step_b/g))^(g/step_a)
            t = rational_nth_root_exact(ra ** (step_b // g), step_a // g)
            if t is not None:
                return -b._compare_root(t)
        if rb is not None:
            t = rational_nth_root_exact(rb ** (step_a // g), step_b // g)
            if t is not None:
                return a._compare_root(t)
        la, lb = a._own_locator(), b._own_locator()
        certified = False
        width = Fraction(1, 16)
        while True:
            if step_a == step_b:  # brackets (lo, hi] of the roots: touching ends separate
                (alo, ahi), (blo, bhi) = la.refine(width), lb.refine(width)
                if ahi <= blo:
                    return -1
                if bhi <= alo:
                    return 1
            else:  # closed brackets of the values, at the radii's own steps: only a strict gap separates
                (alo, ahi), (blo, bhi) = a._value_bracket(width), b._value_bracket(width)
                if ahi < blo:
                    return -1
                if bhi < alo:
                    return 1
            if not certified and la.isolated() and lb.isolated():
                if step_a != step_b:
                    return a._raised(common // step_a)._compare_at(b._raised(common // step_b), 1, 1)
                if _has_common_root(poly_gcd(la.chain[0], lb.chain[0]), la, lb):
                    return 0
                certified = True
            width /= 16

    def _compare_root(self, t):
        """Exact sign of r - t for the defining root r and a rational t; a
        linear radius key names r itself, and no locator is needed."""
        r = _linear_root(self._own_key()[0])
        if r is not None:
            return (r > t) - (r < t)
        return self._own_locator().sign_at(t)

    def _compare_rational(self, c):
        """compare() against a rational c >= 0: r^(1/step) against c is r
        against c^step, decided on the radius's Sturm chain."""
        if c < 0:
            raise DomainMismatchError("radii are non-negative")
        if self.is_zero:
            return 0 if c == 0 else -1
        return self._compare_root(c**self.step)

    def is_root_of(self, poly):
        """Exactly decide whether the defining root r is a root of `poly`."""
        poly = trim(list(poly))
        if self.is_zero:
            return bool(poly) and Fraction(poly[0]) == 0
        if poly and _radius_key(poly)[0] == self._own_key()[0]:
            return True
        locator = self._own_locator()  # its chain head is the squarefree part of the key
        return _has_common_root(poly_gcd(locator.chain[0], poly), locator)

    def __eq__(self, other):
        if not isinstance(other, (AlgebraicRadius, int, Fraction)):
            return NotImplemented
        return self.compare(other) == 0

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    __hash__ = None

    def describe(self):
        """Exact rendering when possible, decimal approximation otherwise;
        the value is fixed, so the text is made once and kept."""
        if self._text is None:  # two threads may both make it, alike
            object.__setattr__(self, "_text", self._render())
        return self._text

    def _render(self):
        root = self._rational_root()
        if root is not None:
            exact = rational_nth_root_exact(root, self.step)
            return str(exact) if exact is not None else f"{root}^(1/{self.step})"
        # refine until both ends print alike: the printed digits are then
        # those of the value itself, not of whichever enclosure was at hand
        # (an irrational value never sits on a rounding boundary)
        width = Fraction(1, 10**12)
        while True:
            lo, hi = self.value_enclosure(width)
            text = f"{float(lo):.12g}"
            if text == f"{float(hi):.12g}":
                return f"~{text}"
            width /= 1024

    def __repr__(self):
        return f"AlgebraicRadius({self.describe()})"


@dataclass(frozen=True)
class GrowthType:
    """Exact asymptotic class Theta(n^degree * rate^n)."""

    rate: AlgebraicRadius
    degree: int

    @property
    def is_vanishing(self):
        return self.rate.is_zero

    @property
    def is_unbounded(self):
        if self.rate.is_zero:
            return False
        return self.degree >= 1 or self.rate.compare(1) > 0

    def rate_float(self):
        return self.rate.value_float()

    def as_dict(self):
        """The JSON form: the rate per step as `describe` prints it, and d."""
        return {"lambda_per_step": self.rate.describe(), "d": self.degree}

    def __eq__(self, other):
        if not isinstance(other, GrowthType):
            return NotImplemented
        return self.degree == other.degree and self.rate.compare(other.rate) == 0

    __hash__ = None

    def __repr__(self):
        return f"GrowthType(rate={self.rate.describe()}, degree={self.degree})"


PRIMITIVE = "primitive"
ZERO = "zero"


def _cyclic_classes(component, h, depth):
    """The cyclic classes K_0, ..., K_(h-1) of a component of period h >= 1,
    K_t the vertices at BFS depth t mod h (graphs.period_depths); the
    component is sorted, so each class is too, as a block of M^p is."""
    if h == 1:
        return (tuple(component),)
    classes = [[] for _ in range(h)]
    for v in component:
        classes[depth[v] % h].append(v)
    return tuple(map(tuple, classes))


def _class_products(rows, classes):
    """(left, right) for a component C with cyclic classes K_0, ..., K_(h-1)
    and steps S_t = M[K_t, K_(t+1 mod h)]: the prefix products left[t] =
    S_0 ... S_(t-1) (left[0], the identity, is None) and the suffix
    products right[t] = S_t ... S_(h-1).  Each is |K_t| wide or tall, so
    no |C| x |C| product is formed."""
    h = len(classes)
    steps = [submatrix(rows, classes[t], classes[(t + 1) % h]) for t in range(h)]
    right = steps[:]
    for t in reversed(range(h - 1)):
        right[t] = mat_mul(steps[t], right[t + 1])
    left = [None] * h
    for t in range(1, h):
        left[t] = steps[0] if t == 1 else mat_mul(left[t - 1], steps[t - 1])
    return left, right


def _class_block(products, t):
    """(C^h)[K_t, K_t] = S_t ... S_(h-1) S_0 ... S_(t-1), right[t] left[t],
    from `products()`, the class products of C (`_class_products`)."""
    left, right = products()
    return right[t] if t == 0 else mat_mul(right[t], left[t])


def _power_block(products, t, e):
    """(M^p)[K_t, K_t] for the cyclic class K_t of a component C of M of
    period h, with p = h e.  Walks from C back to C stay in C, and C^h is
    block diagonal over the cyclic classes, so the block is the e-th power
    of (C^h)[K_t, K_t], read from the class products; C^h is never formed."""
    return mat_pow(_class_block(products, t), e)


class BlockDecomposition:
    """Structure of M^p for p = cyclicity(M): blocks, radii, reachability.

    Blocks are the strongly connected components of the digraph of M^p in
    topological order (edges run from earlier blocks to later ones), so
    reordering vertices block by block puts M^p in upper block triangular
    form.  Each block is primitive or the 1x1 zero block.

    The matrix is scanned once, into its successor bitset rows `support`
    (intmat.support); Tarjan and the period BFS (graphs) read them, and
    for p > 1 the rows `power_support` of the pattern of M^p, where a
    period of 0 marks a zero block and one above 1 is an InvariantError.

    Only the zero pattern of M^p is formed.  A primitive block is a cyclic
    class K_t of one non-trivial component C of M, of period h, and has
    radius rho(C)^p (the Frobenius normal form), so radius classes come
    from comparing the components of M.  C^h is block diagonal over the
    classes, and its class blocks share their non-zero spectrum, so C's
    radius is rho(B)^(1/h) for B its block at the class K_0; B and a
    block's own matrix, ((C^h)[K_t, K_t])^(p/h), are read from the class
    products of C (`_class_products`), formed once, when first needed.
    A component of period 1 keeps M[C, C] as its radius's block.
    """

    def __init__(self, matrix):
        if not isinstance(matrix, IncidenceMatrix):
            matrix = IncidenceMatrix(matrix)
        self.matrix = matrix
        rows = matrix.rows
        n = matrix.size
        self.support = support(rows)
        blocks = strongly_connected_components(self.support)
        bfs = [period_depths(c, self.support) for c in blocks]
        block_periods = [h for h, _ in bfs]  # 0 marks a trivial component
        cyclic = [(c, h, depth) for c, (h, depth) in zip(blocks, bfs) if h]
        periods = [h for _, h, _ in cyclic]
        self.p = lcm(1, *periods)
        # the patterns of M, M^2, M^4, ..., M^(2^k) with 2^k <= p: row i and
        # column j of the pattern of M^r, r < p, are walks through them
        self.ladder = support_ladder(self.support, self.p)
        if self.p == 1:  # M^p is M: its blocks are the components just found
            self.power_support = self.support
        else:
            self.power_support = tuple(ladder_row(1 << v, self.ladder, self.p) for v in range(n))
            blocks = strongly_connected_components(self.power_support)
            block_periods = [component_period(c, self.power_support) for c in blocks]
        # the defining property of p: cyclic components of M^p are primitive
        if any(h > 1 for h in block_periods):
            raise InvariantError("a cyclic block of M^p is not primitive")
        self.blocks = tuple(blocks)
        self.kinds = tuple(PRIMITIVE if h else ZERO for h in block_periods)
        block_of = [None] * n
        for b, comp in enumerate(self.blocks):
            for v in comp:
                block_of[v] = b
        self.block_of = tuple(block_of)
        classes = [_cyclic_classes(*k) for k in cyclic]
        owners = self._block_owners(classes)
        # a component C of period h > 1 has radius rho(B)^(1/h), B = (C^h)[K_0,
        # K_0]; B and the blocks of M^p inside C are read from the class
        # products of C, formed once, on first use
        products = [_Once(partial(_class_products, rows, k)) for k in classes] if self.p > 1 else ()
        component_radii = [
            AlgebraicRadius(submatrix(rows, comp)) if h == 1
            else AlgebraicRadius.on_demand(partial(_class_block, products[c], 0), h)
            for c, (comp, h, _) in enumerate(cyclic)
        ]
        self.radii = tuple(
            AlgebraicRadius.zero() if owner is None
            else component_radii[owner[0]] if self.p == 1  # the block is its component
            else AlgebraicRadius.on_demand(
                partial(_power_block, products[owner[0]], owner[1], self.p // periods[owner[0]]),
                self.p,
                component_radii[owner[0]],
            )
            for owner in owners
        )
        self._assign_radius_classes(owners, component_radii)
        self._build_reachability()
        self._growths = {}  # _growth's memo, shared with relabelled views

    def _block_owners(self, classes):
        """For each block, (c, t) when it is the cyclic class K_t =
        `classes[c][t]` of the component c of M; None for a zero block.  A
        primitive block of M^p is always such a class."""
        class_at = {k: (c, t) for c, ks in enumerate(classes) for t, k in enumerate(ks)}
        owners = []
        for comp, kind in zip(self.blocks, self.kinds):
            if kind == ZERO:
                owners.append(None)
            elif comp in class_at:
                owners.append(class_at[comp])
            else:
                raise InvariantError("a primitive block of M^p is no cyclic class of a component of M")
        return owners

    def _assign_radius_classes(self, owners, component_radii):
        """Group blocks by exactly equal radius; class ids ascend with the radius.

        Blocks of one component share its radius, and zero blocks the zero
        class, so only the radii rho(C) of distinct components are
        compared, each at its period: each joins its class, or starts one,
        by binary search over the classes found so far.
        """
        ranked = []  # [(radius, [component ids])], strictly ascending
        for c, radius in enumerate(component_radii):
            lo, hi = 0, len(ranked)
            while lo < hi:
                mid = (lo + hi) // 2
                sign = radius.compare(ranked[mid][0])
                if sign == 0:
                    ranked[mid][1].append(c)
                    break
                if sign < 0:
                    hi = mid
                else:
                    lo = mid + 1
            else:
                ranked.insert(lo, (radius, [c]))
        offset = int(ZERO in self.kinds)  # the zero class comes first
        class_of_component = {c: offset + cid for cid, (_, members) in enumerate(ranked) for c in members}
        self.class_of_block = tuple(0 if o is None else class_of_component[o[0]] for o in owners)
        # each class is represented by its first block, as a step-p radius
        self.class_radii = tuple(
            self.radii[self.class_of_block.index(cid)] for cid in range(offset + len(ranked))
        )

    def _build_reachability(self):
        """Block reachability as bitsets over block indices: `below[b]` holds
        the blocks that b reaches, `above[b]` those that reach b (both hold
        b), and `preds[b]` the blocks with an edge into b."""
        nb = len(self.blocks)
        to_block = tuple(1 << b for b in self.block_of)
        succ = [0] * nb
        for u, row in enumerate(self.power_support):
            succ[self.block_of[u]] |= support_row_mul(row, to_block)
        below = [0] * nb
        for b in reversed(range(nb)):  # successors first; below[b] is still 0
            below[b] = 1 << b | support_row_mul(succ[b], below)
        preds = [0] * nb
        for u, targets in enumerate(succ):  # succ transposed, one step per edge
            for b in _bits(targets & ~(1 << u)):
                preds[b] |= 1 << u
        self.preds = tuple(preds)
        above = [0] * nb
        for b in range(nb):  # predecessors first
            above[b] = 1 << b | support_row_mul(self.preds[b], above)
        self.below, self.above = tuple(below), tuple(above)
        self._primitive = sum(1 << b for b, kind in enumerate(self.kinds) if kind == PRIMITIVE)

    # -- views ------------------------------------------------------------------

    @property
    def size(self):
        return self.matrix.size

    @property
    def block_matrices(self):
        """The diagonal blocks of M^p; a primitive block is built on first use."""
        return tuple(
            radius.block if kind == PRIMITIVE else ((0,),) for radius, kind in zip(self.radii, self.kinds)
        )

    def _relabelled(self, matrix):
        """This decomposition under the labels of `matrix`, which has the same
        entries: a shallow view sharing blocks, radii and their locators."""
        if matrix.labels == self.matrix.labels:
            return self
        view = copy.copy(self)
        view.matrix = matrix
        return view

    def block_letters(self, b):
        return tuple(self.matrix.labels[v] for v in self.blocks[b])

    def spectral_radius(self):
        return self.class_radii[-1] if self.class_radii else AlgebraicRadius.zero()

    def _resolve(self, index):
        if isinstance(index, str):
            return self.matrix.index_of(index)
        if not 0 <= index < self.size:
            raise DomainMismatchError(f"index {index} out of range")
        return index

    # -- growth ------------------------------------------------------------------

    def _growth(self, members):
        """Growth over the blocks in the bitset `members`, a union of block
        intervals: zero when none of them is primitive; else the rate is
        the largest class among them and d + 1 the most blocks of that
        class on one path inside `members`.  Memoised by `members`;
        GrowthType is immutable, and when two threads walk the same set
        the first value stored wins."""
        growth = self._growths.get(members)
        if growth is None:
            growth = self._growths.setdefault(members, self._growth_walk(members))
        return growth

    def _growth_walk(self, members):
        if not members & self._primitive:
            return GrowthType(AlgebraicRadius.zero(), 0)
        order = list(_bits(members))  # ascending: predecessors first
        best = max(self.class_of_block[b] for b in order)
        count = {}
        for b in order:
            before = max((count[u] for u in _bits(self.preds[b] & members)), default=0)
            count[b] = before + (self.class_of_block[b] == best)
        return GrowthType(self.class_radii[best], max(count.values()) - 1)

    def entry_growth(self, i, j, r=0):
        """Growth type of (M^{pn+r})_{i,j} as n grows.

        The admissible blocks lie below block(i) and above block(k) for
        some k with (M^r)_{k,j} > 0; a path through them lies between
        block(i) and one such block(k).  Column j of the pattern of M^r,
        and row i for the self-check, are walks through the squaring
        ladder; no n x n pattern is formed.  The rate is reported per
        single application of M: the defining block lives in M^p and
        carries the 1/p root marker.
        """
        i = self._resolve(i)
        j = self._resolve(j)
        if not 0 <= r < self.p:
            raise DomainMismatchError(f"residue must lie in [0, {self.p})")
        ends = 0
        for k in _bits(ladder_column(1 << j, self.ladder, r)):
            ends |= self.above[self.block_of[k]]
        result = self._growth(self.below[self.block_of[i]] & ends)
        self._check_vanishing(j, r, result.is_vanishing, ladder_row(1 << i, self.ladder, r))
        return result

    def column_growth(self, j):
        """Growth of the j-th column sum of M^n, valid for every n: the
        walk over the blocks that reach block(j)."""
        return self._growth(self.above[self.block_of[self._resolve(j)]])

    def row_growth(self, i):
        """Growth of the i-th row sum of M^n, valid for every n: the walk
        over the blocks that block(i) reaches."""
        return self._growth(self.below[self.block_of[self._resolve(i)]])

    def _check_vanishing(self, j, r, vanishing, row):
        """Cross-check the combinatorial verdict on entry (i, j) on zero
        patterns; `row` is row i of the pattern of M^r and m the size of M.

        An ultimately-zero entry must be zero at every exponent pn + r
        with pn + r >= m + 1 (checked up to n = m + 1); a non-vanishing
        entry must show a positive value at some pn + r with n <= m + 1.
        For non-negative M, (M^e)[i][j] > 0 exactly when bit j of row i of
        the pattern of M^e is set, so the check is exact; row i of the
        pattern of M^{pn+r} is `row` times the pattern of M^p, n times,
        and a non-vanishing entry stops at its first positive value.
        A violated condition raises InvariantError.
        """
        m = self.size
        lower = max(0, -(-(m + 1 - r) // self.p))
        for n in range(m + 2):
            if n:
                row = support_row_mul(row, self.power_support)
            if row >> j & 1:
                if not vanishing:
                    return
                if n >= lower:
                    raise InvariantError("vanishing entry has a late positive value")
        if not vanishing:
            raise InvariantError("growing entry lacks a short positive witness")

    def blocks_as_json(self, width=DEFAULT_WIDTH):
        out = []
        for b in range(len(self.blocks)):
            radius = self.radii[b]
            lo, hi = radius.root_enclosure(width)
            out.append(
                {
                    "letters": list(self.block_letters(b)),
                    "kind": self.kinds[b],
                    "radius": {
                        "poly": [c if isinstance(c, int) else str(c) for c in radius.poly],
                        "enclosure": [str(lo), str(hi)],
                    },
                }
            )
        return out


# One pass of perfbench's presentations workload makes 707 decompose
# calls and builds 186 distinct matrices (seeds 9101 and 9301; 191 at
# seed 1), a spectra pass 228 calls and 114 builds, and a periodic pass
# 100 calls and 12 builds, checked or not; an LRU of 256 entries takes no
# more misses there than an unbounded cache.
_DECOMP_CACHE_SIZE = 256
_DECOMP_CACHE = OrderedDict()
_DECOMP_LOCK = threading.Lock()


def decompose(matrix):
    """Block decomposition of a matrix, memoised per entries in a
    least-recently-used cache of _DECOMP_CACHE_SIZE entries; the labels
    only name the letters, so other labels get a view (`_relabelled`)."""
    if not isinstance(matrix, IncidenceMatrix):
        matrix = IncidenceMatrix(matrix)
    make = partial(BlockDecomposition, matrix)
    return _lru(_DECOMP_CACHE, _DECOMP_LOCK, _DECOMP_CACHE_SIZE, matrix.rows, make)._relabelled(matrix)


def is_primitive(rows):
    """Strongly connected with cycle-length gcd 1 (so some power is positive)."""
    rows = _nonnegative(rows)
    components, periods = _cyclic_components(rows)
    return periods == [1] and len(components[0]) == len(rows)


def _nonnegative(rows):
    """rows as a tuple of tuples; a matrix that is not square, or has an
    entry that is negative or does not compare with 0, raises
    DomainMismatchError.  An IncidenceMatrix has been checked already."""
    if isinstance(rows, IncidenceMatrix):
        return rows.rows
    rows = freeze(rows)
    if any(len(row) != len(rows) for row in rows):
        raise DomainMismatchError("matrix is not square")
    try:
        negative = any(min(row) < 0 for row in rows)  # each row's minimum in C
    except TypeError:
        raise DomainMismatchError("matrix entries must be numbers") from None
    if negative:
        raise DomainMismatchError("expected a non-negative matrix")
    return rows


def perron_enclosure(block, width=Fraction(1, 10**6)):
    """Certified rational interval around the Perron root of a primitive
    block, from spectral_radius_enclosure.  A positive 1x1 block gives an
    exact point interval; [[0]] is not primitive."""
    rows = _nonnegative(block)
    width = positive_width(width)
    if len(rows) == 1 and rows[0][0] > 0:
        return (Fraction(rows[0][0]),) * 2
    if not is_primitive(rows):
        raise NotPrimitiveError("the Perron root enclosure needs a primitive matrix")
    return spectral_radius_enclosure(rows, width)


def spectral_radius_enclosure(rows, width=DEFAULT_WIDTH):
    """Enclosure of rho(M), of width <= `width`, for a non-negative matrix
    with integer or rational entries.

    rho(M) is the largest radius of a strongly connected component of M
    (the Frobenius normal form), so it is read off `decompose` and its
    cache.  A rational M = B/d is enclosed as rho(B)/d, at width d *
    `width` for the integer B.  A nilpotent matrix gives (0, 0).
    """
    if isinstance(rows, IncidenceMatrix):  # checked and integral
        return decompose(rows).spectral_radius().value_enclosure(width)
    scaled, d = clear_denominators(_nonnegative(rows))
    lo, hi = decompose(scaled).spectral_radius().value_enclosure(Fraction(width) * d)
    return (lo, hi) if d == 1 else (lo / d, hi / d)


def radius_compare(a, b):
    """Exact trichotomy between two radii: -1, 0 or 1."""
    if not isinstance(a, AlgebraicRadius):
        if isinstance(b, AlgebraicRadius):
            return -b.compare(a)
        a = AlgebraicRadius.from_rational(a)
    return a.compare(b)


def entry_growth(matrix, i, j, r=0):
    return decompose(matrix).entry_growth(i, j, r)


def column_growth(matrix, j):
    return decompose(matrix).column_growth(j)


def row_growth(matrix, i):
    return decompose(matrix).row_growth(i)


def letter_growth(f, letter):
    """Growth type of |f^n(letter)|, i.e. the column growth at that letter."""
    matrix = words.incidence_matrix(f)
    return decompose(matrix).column_growth(matrix.index_of(letter))


def perron_eigenvalue(f):
    """rho(Mat_f) as an exact radius: the largest diagonal-block radius."""
    matrix = words.incidence_matrix(f)
    return decompose(matrix).spectral_radius()


def analyze_morphism(f, width=DEFAULT_WIDTH):
    """JSON-ready spectral report for an endomorphism."""
    matrix = words.incidence_matrix(f)
    dec = decompose(matrix)
    # the growth first: describing a rate may refine the locators that the
    # block report's enclosures are read from
    growth = {l: dec.column_growth(matrix.index_of(l)).as_dict() for l in f.domain}
    return {"p": dec.p, "blocks": dec.blocks_as_json(width), "letter_growth": growth}
