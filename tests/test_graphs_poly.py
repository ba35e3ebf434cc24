"""Digraph machinery and exact polynomial tools."""

import random
import sys
import threading
import time
from fractions import Fraction

import pytest

from morphlab import polytools
from morphlab.errors import DomainMismatchError
from morphlab.fixtures import demo_matrix
from morphlab.graphs import component_period, strongly_connected_components
from morphlab.intmat import charpoly, mat_mul, mat_pow, support, support_pow
from morphlab.polytools import (
    LargestRootLocator,
    _ceil_root,
    count_roots_closed,
    count_roots_halfopen,
    evaluate,
    integer_nth_root_exact,
    nth_root_bounds,
    poly_gcd,
    rational_roots_of_monic_int,
    squarefree,
    sturm_chain,
)
from morphlab.dilation import rational_eigenvalues, shares_rational_spectrum
from morphlab.spectral import AlgebraicRadius, decompose, is_primitive, perron_enclosure

from util import gcd_of, random_matrix, reference_charpoly, simple_cycle_lengths


def _adj(rows):
    """Adjacency lists, for the simple-cycle oracle only."""
    n = len(rows)
    return [[j for j in range(n) if rows[i][j] > 0] for i in range(n)]


def test_scc_topological_order():
    # 0 -> 1 <-> 2, 3 isolated
    succ = [0b10, 0b100, 0b10, 0]
    comps = strongly_connected_components(succ)
    assert set(map(frozenset, comps)) == {frozenset({0}), frozenset({1, 2}), frozenset({3})}
    pos = {frozenset(c): i for i, c in enumerate(map(frozenset, comps))}
    assert pos[frozenset({0})] < pos[frozenset({1, 2})]


def test_scc_matches_reachability_random():
    rng = random.Random(71)
    for _ in range(40):
        n = rng.randint(1, 8)
        rows = random_matrix(rng, n, zero_chance=0.7)
        succ = support(rows)
        comps = strongly_connected_components(succ)
        assert sorted(v for c in comps for v in c) == list(range(n))
        # same component iff mutually reachable
        reach = [[i == j or rows[i][j] > 0 for j in range(n)] for i in range(n)]
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
        comp_of = {}
        for ci, c in enumerate(comps):
            for v in c:
                comp_of[v] = ci
        for i in range(n):
            for j in range(n):
                same = reach[i][j] and reach[j][i]
                assert (comp_of[i] == comp_of[j]) == same
        # topological: edges never go to an earlier component
        for i in range(n):
            for j in range(n):
                if rows[i][j] > 0:
                    assert comp_of[i] <= comp_of[j]


def test_scc_deep_chain_no_recursion_limit():
    n = 5000
    succ = [1 << (i + 1) if i + 1 < n else 0 for i in range(n)]
    comps = strongly_connected_components(succ)
    assert len(comps) == n


def test_component_period_examples():
    # pure 2-cycle
    assert component_period((0, 1), [0b10, 0b01]) == 2
    # self loop
    assert component_period((0,), [0b1]) == 1
    # a single vertex without a self loop is trivial
    assert component_period((0,), (0,)) == 0
    # 2-cycle plus self loop has gcd 1
    assert component_period((0, 1), [0b11, 0b01]) == 1


def test_component_period_equals_simple_cycle_gcd():
    rng = random.Random(72)
    checked = 0
    while checked < 60:
        n = rng.randint(2, 6)
        rows = random_matrix(rng, n, zero_chance=0.6)
        adj = _adj(rows)
        succ = support(rows)
        for comp in strongly_connected_components(succ):
            lengths = simple_cycle_lengths(adj, comp)
            period = component_period(comp, succ)
            # a period of 0 marks exactly the components without a simple cycle
            assert (period == 0) == (not lengths)
            assert period == gcd_of(lengths)
            checked += bool(lengths)


def test_charpoly_known_values():
    assert charpoly(((2,),)) == [-2, 1]
    assert charpoly(((1, 1), (1, 1))) == [0, -2, 1]
    assert charpoly(((0, 1), (3, 0))) == [-3, 0, 1]
    # companion matrix of x^3 - x - 1
    comp = ((0, 0, 1), (1, 0, 1), (0, 1, 0))
    assert charpoly(comp) == [-1, -1, 0, 1]
    assert charpoly(()) == [1]
    assert charpoly(((Fraction(1, 2), 1), (0, Fraction(1, 3)))) == [Fraction(1, 6), Fraction(-5, 6), 1]
    integral = charpoly(((Fraction(4, 2), Fraction(1)), (Fraction(3), 0)))
    assert integral == [-3, -2, 1] and all(type(c) is int for c in integral)


def test_charpoly_of_rational_matrix_is_scaled_integer_charpoly():
    # A = B / d has coefficients c_k(B) / d^(n-k)
    rng = random.Random(29)
    for _ in range(20):
        n = rng.randint(1, 6)
        d = rng.randint(2, 7)
        b = random_matrix(rng, n, max_entry=9)
        a = tuple(tuple(Fraction(x, d) for x in row) for row in b)
        assert charpoly(a) == [Fraction(c, d ** (n - k)) for k, c in enumerate(charpoly(b))]


@pytest.mark.parametrize("n", range(1, 13))
def test_charpoly_where_the_slot_bound_is_tight(n):
    # (c J)^k = c^k n^(k-1) J reaches R^k / n with R = c n, the row and the
    # column sum; -c J alternates the sign of its powers with k
    for c in (1, 2, 3, 9, 255, 256, 2**20 + 1):
        for sign in (1, -1):
            rows = ((sign * c,) * n,) * n
            want = [0] * (n - 1) + [-sign * c * n, 1]  # x^(n-1) (x - sign c n)
            assert charpoly(rows) == want == reference_charpoly(rows)


def test_charpoly_of_wide_and_small_matrices():
    # M = [[1, 2], [1, 0]] has eigenvalues 2 and -1, so M^5544 has 2^5544 and 1:
    # entries of about 5,545 bits in slots wide enough for their squares
    power = mat_pow(((1, 2), (1, 0)), 5544)
    assert charpoly(power) == [2**5544, -(2**5544) - 1, 1] == reference_charpoly(power)
    for x in (0, 1, -1, 7, -(2**70)):
        assert charpoly(((x,),)) == [-x, 1] == reference_charpoly(((x,),))
    assert charpoly(((0, 0), (0, 0))) == [0, 0, 1]
    assert charpoly(()) == [1] == reference_charpoly(())


@pytest.mark.parametrize(
    "call",
    [
        lambda: perron_enclosure([[1, 2]]),
        lambda: rational_eigenvalues([[1, 2]]),
        lambda: shares_rational_spectrum([[2]], [[2, 0]]),
        lambda: charpoly(((1, 2),)),
        lambda: perron_enclosure([[]]),
        lambda: is_primitive([[1, 2]]),
    ],
    ids=["perron_enclosure", "rational_eigenvalues", "shares_rational_spectrum", "charpoly", "perron_empty_row",
         "is_primitive"],
)
def test_matrices_that_are_not_square_raise_a_domain_error(call):
    with pytest.raises(DomainMismatchError, match="not square"):
        call()


def test_charpoly_multiplicative_on_triangular_blocks():
    rng = random.Random(73)
    for _ in range(20):
        a = random_matrix(rng, 2)
        b = random_matrix(rng, 3)
        block = tuple(
            tuple(list(a[i]) + [0, 0, 0]) for i in range(2)
        ) + tuple(
            tuple([rng.randint(0, 2), rng.randint(0, 2)] + list(b[i])) for i in range(3)
        )
        prod = poly_mul(charpoly(a), charpoly(b))
        assert charpoly(block) == prod


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, c in enumerate(p):
        for j, d in enumerate(q):
            out[i + j] += c * d
    return out


def test_sturm_counts():
    # (x-1)(x-2)(x-3), also with a negative or rational leading coefficient
    for scale in (1, -1, Fraction(-2, 3)):
        poly = [scale * c for c in poly_mul(poly_mul([-1, 1], [-2, 1]), [-3, 1])]
        chain = sturm_chain(poly)
        assert all(type(c) is int for p in chain for c in p)
        assert count_roots_halfopen(chain, Fraction(0), Fraction(4)) == 3
        assert count_roots_halfopen(chain, Fraction(1), Fraction(4)) == 2  # (1, 4]
        assert count_roots_halfopen(chain, Fraction(5, 2), Fraction(4)) == 1
        assert count_roots_closed(poly, chain, Fraction(1), Fraction(1)) == 1
        assert count_roots_closed(poly, chain, Fraction(1), Fraction(3)) == 3


def test_sturm_counts_distinct_roots_of_non_squarefree():
    # (x-2)^2 (x-5)
    poly = poly_mul(poly_mul([-2, 1], [-2, 1]), [-5, 1])
    chain = sturm_chain(poly)
    assert count_roots_halfopen(chain, Fraction(0), Fraction(10)) == 2
    # -x^2 (x^3 + 1): the chain of x^4 + x divides by -x with a degree drop
    # of 2, where the pseudo-remainder's sign must be corrected
    chain = sturm_chain([0, 0, -1, 0, 0, -1])
    assert count_roots_halfopen(chain, Fraction(-10), Fraction(10)) == 2
    assert count_roots_halfopen(chain, Fraction(-1), Fraction(0)) == 1
    assert count_roots_halfopen(chain, Fraction(-2), Fraction(-1, 2)) == 1


def test_sturm_chain_of_a_squarefree_polynomial_is_one_sequence(monkeypatch):
    # the sequence of p and p' ends in a constant, so it is the chain: one
    # pseudo-remainder per term after the first, and no gcd run before it
    calls = []
    inner = polytools._pseudo_remainder
    monkeypatch.setattr(polytools, "_pseudo_remainder", lambda a, b: calls.append(1) or inner(a, b))
    rng = random.Random(41)
    for _ in range(30):
        roots = rng.sample(range(-20, 21), rng.randint(1, 7))
        poly = [rng.choice((1, -3, 5))]
        for r in roots:
            poly = poly_mul(poly, [-r, 1])
        calls.clear()
        chain = sturm_chain(poly)
        assert len(chain) == len(roots) + 1 and len(calls) == len(chain) - 1
    calls.clear()
    chain = sturm_chain(charpoly(((1, 1), (1, 0))))
    assert chain == [[-1, -1, 1], [-1, 2], [1]] and len(calls) == 2


def test_poly_gcd_and_squarefree():
    p = poly_mul([-2, 1], [-3, 1])
    q = poly_mul([-2, 1], [-7, 1])
    g = poly_gcd(p, q)
    assert g == [Fraction(-2), Fraction(1)]
    assert poly_gcd([-3 * c for c in p], [Fraction(c, 5) for c in q]) == [-2, 1]
    sq = squarefree(poly_mul(p, [-2, 1]))
    assert evaluate(sq, 2) == 0 and evaluate(sq, 3) == 0
    assert len(sq) == 3


def test_largest_root_locator():
    poly = poly_mul(poly_mul([-1, 1], [-2, 1]), [-3, 1])
    loc = LargestRootLocator(poly, Fraction(-1), Fraction(10))
    lo, hi = loc.refine(Fraction(1, 10**9))
    assert lo < 3 <= hi
    assert hi - lo <= Fraction(1, 10**9)
    assert loc.isolated()
    for width in (0, Fraction(-1, 10)):  # bisection would never stop
        with pytest.raises(DomainMismatchError):
            loc.refine(width)


def test_isolation_is_tested_once(sign_counts):
    """The bracket only shrinks around the root it holds, so a True
    isolated() stays true: the second answer makes no sign count."""
    loc = LargestRootLocator(poly_mul([-1, 1], [-4, 1]), Fraction(0), Fraction(100))
    loc.refine(Fraction(1, 16))
    sign_counts[0] = 0
    assert loc.isolated() and sign_counts[0] > 0
    sign_counts[0] = 0
    assert loc.isolated() and sign_counts[0] == 0
    loc.refine(Fraction(1, 10**9))
    assert loc.isolated()
    assert count_roots_closed(loc.chain[0], loc.chain, loc.lo, loc.hi) == 1


def test_ceil_root_steps_do_not_grow_with_n():
    """Newton starts within a small factor of the root, so a 34-bit root
    at n = 5544 takes milliseconds (12 s from 2^ceil(bits/n))."""
    r = 2**34 - 12345
    start = time.perf_counter()
    assert _ceil_root(r**5544, 5544) == r
    assert time.perf_counter() - start < 0.1
    assert _ceil_root(r**5544 + 1, 5544) == r + 1 and _ceil_root(r**5544 - 1, 5544) == r


def _sign(x):
    return (x > 0) - (x < 0)


@pytest.mark.parametrize("poly, sign", [
    (poly_mul([-5, 0, 1], [1, 1]), lambda t: 1 if t < 0 else _sign(5 - t * t)),  # r = sqrt(5)
    (poly_mul([-2, 1], [-3, 0, 1]), lambda t: _sign(2 - t)),  # r = 2, with sqrt(3) below it
])
def test_one_locator_serves_eight_threads_without_an_outside_lock(monkeypatch, poly, sign):
    """refine, isolated and sign_at from eight threads on one locator, each
    thread at its own widths: every bracket a thread reads holds the
    largest root r and lies inside the last one it read, and every
    sign_at(t) is the exact sign of r - t.  Each Sturm count yields to the
    other threads, between a read of the bracket and the write it leads to."""
    inner = polytools.sign_variations

    def yielding(chain, x):
        time.sleep(0)
        return inner(chain, x)

    monkeypatch.setattr(polytools, "sign_variations", yielding)
    errors = []

    def work(loc, barrier, k):
        try:
            barrier.wait()
            last = (loc.lo, loc.hi)
            for step in range(12):
                lo, hi = loc.refine(Fraction(1, 2 ** (3 * step + 7 * (k % 4))))
                if not (last[0] <= lo < hi <= last[1] and sign(lo) == 1 and sign(hi) <= 0):
                    errors.append(("bracket", k, last, (lo, hi)))
                last = (lo, hi)
                loc.isolated()
                for t in (lo, hi, (lo + hi) / 2, Fraction(2), Fraction(9, 4), Fraction(-1, 2)):
                    if loc.sign_at(t) != sign(t):
                        errors.append(("sign_at", k, t))
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):  # a fresh locator each round
            loc, barrier = LargestRootLocator(poly, Fraction(-1), Fraction(10)), threading.Barrier(8)
            threads = [threading.Thread(target=work, args=(loc, barrier, k)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert loc.isolated() and count_roots_closed(loc.chain[0], loc.chain, loc.lo, loc.hi) == 1
    finally:
        sys.setswitchinterval(interval)
    assert not errors


def test_locator_follows_largest_root_not_first_bracket():
    # roots at 1 and 4; a bracket straddling both must converge to 4
    poly = poly_mul([-1, 1], [-4, 1])
    loc = LargestRootLocator(poly, Fraction(0), Fraction(100))
    lo, hi = loc.refine(Fraction(1, 1000))
    assert lo < 4 <= hi


def test_rational_roots_of_monic_int():
    poly = poly_mul(poly_mul([-2, 1], [3, 1]), [0, 1])  # roots 2, -3, 0
    assert rational_roots_of_monic_int(poly) == [-3, 0, 2]
    assert rational_roots_of_monic_int([1, 0, 1]) == []  # x^2 + 1
    with pytest.raises(DomainMismatchError):
        rational_roots_of_monic_int([1, 2])  # 2x + 1 is not monic


def test_nth_root_bounds_and_exact_roots():
    lo, hi = nth_root_bounds(Fraction(27), 6, Fraction(1, 10**6))
    assert lo**6 <= 27 <= hi**6
    assert hi - lo <= Fraction(1, 10**6)
    assert integer_nth_root_exact(64, 6) == 2
    assert integer_nth_root_exact(27, 6) is None
    for width in (0, Fraction(-1, 10)):
        with pytest.raises(DomainMismatchError):
            nth_root_bounds(2, 2, width)
    rng = random.Random(219)
    for _ in range(60):
        n = rng.choice((1, 2, 3, rng.randint(1, 600)))
        x = Fraction(rng.getrandbits(rng.randint(0, 2000)), rng.getrandbits(rng.randint(0, 64)) + 1)
        width = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**12))
        lo, hi = nth_root_bounds(x, n, width)
        assert 0 <= lo and lo**n <= x <= hi**n and hi - lo <= width, (x, n, width)
        if n == 1 or x == 0:
            assert lo == hi == x
    # rho = 2 at step 600: the root of the step-600 block has 601 bits
    lo, hi = AlgebraicRadius(mat_pow(((1, 2), (1, 0)), 600), 600).value_enclosure(Fraction(1, 10**9))
    assert lo <= 2 <= hi and hi - lo <= Fraction(1, 10**9)


def test_mat_pow_agrees_with_repeated_multiplication():
    rng = random.Random(74)
    for _ in range(20):
        m = random_matrix(rng, rng.randint(1, 5))
        acc = tuple(tuple(int(i == j) for j in range(len(m))) for i in range(len(m)))
        for e in range(6):
            assert mat_pow(m, e) == acc
            acc = mat_mul(acc, m)


def test_support_pow_is_zero_pattern_of_mat_pow():
    rng = random.Random(75)
    cases = [random_matrix(rng, rng.randint(1, 8), zero_chance=rng.choice((0.55, 0.8)))
             for _ in range(12)]
    cases.append(demo_matrix().rows)
    for m in cases:
        s = support(m)
        power = tuple(tuple(int(i == j) for j in range(len(m))) for i in range(len(m)))
        for e in range(41):
            assert support_pow(s, e) == support(power), (m, e)
            power = mat_mul(power, m)


def test_locator_without_float_hint_for_huge_coefficients(sign_counts):
    """Coefficients and brackets past the float range: exact Newton from
    Fujiwara's root bound lands on the root, so refine(1e-9) takes the
    three counts of the Sturm acceptance test, where bisecting the 2^1000
    bracket took 1,031."""
    for poly, hi, root in (
        ([-(2**1100), 1], 2**1100, 2**1100),
        ([-(2**1000)] + [0] * 39 + [1], 2**1000, 2**25),  # x^40 - 2^1000
    ):
        loc = LargestRootLocator(poly, Fraction(-1), Fraction(hi))
        sign_counts[0] = 0
        lo, hi = loc.refine(Fraction(1, 10**9))
        assert sign_counts[0] <= 4, poly
        assert lo < root <= hi and hi - lo <= Fraction(1, 10**9)


def test_linear_head_hint_is_its_exact_root(sign_counts):
    """A degree-1 chain head, as for a 1x1 block of M^p, has its exact
    root -c0/c1 as the first Newton step, so refine(1e-9) takes only the
    acceptance counts even past the float range."""
    for poly, root in (
        ([-(3**5000), 1], Fraction(3**5000)),
        ([-(2**80 + 1), 1], Fraction(2**80 + 1)),  # floats round it to 2^80
        ([-7, 3], Fraction(7, 3)),
        ([-(5**300), 2**400], Fraction(5**300, 2**400)),
    ):
        loc = LargestRootLocator(poly, Fraction(-1), max(Fraction(1), 2 * root))
        sign_counts[0] = 0
        lo, hi = loc.refine(Fraction(1, 10**9))
        assert sign_counts[0] <= 4, poly
        assert lo <= root <= hi and hi - lo <= Fraction(1, 10**9)


def test_rejected_newton_bracket_falls_back_to_bisection():
    """Off the Perron case Newton's bracket is only a proposal.  Complex
    roots 5 +- i/1000 right of the largest real root 1 stall the
    iteration near 5, and the Sturm test rejects its bracket; complex
    roots +-10i, of real part below 1, still give a true bracket.  Either
    way refine returns a correct enclosure of the largest root."""
    near = poly_mul([-1, 1], [25 * 10**6 + 1, -(10**7), 10**6])  # (x - 1)(10^6 (x - 5)^2 + 1)
    loc = LargestRootLocator(near, Fraction(0), Fraction(10))
    lo, hi = loc._newton(Fraction(1, 16))
    assert 4 < lo < hi < 6  # the proposal misses the root 1
    for poly in (near, poly_mul([-1, 1], [100, 0, 1])):  # (x - 1)(x^2 + 100)
        loc = LargestRootLocator(poly, Fraction(0), Fraction(10))
        for width in (Fraction(1, 16), Fraction(1, 10**9)):
            lo, hi = loc.refine(width)
            assert lo < 1 <= hi and hi - lo <= width, (poly, width)
            assert count_roots_halfopen(loc.chain, hi, Fraction(10)) == 0


def test_newton_hint_is_accepted_on_perron_roots(sign_counts):
    """Exact Newton from the row-sum bound lands on the Perron root, so
    refine(1e-9) takes only the counts of the Sturm acceptance test and no
    bisection step, where bisection alone would take about 35."""
    rng = random.Random(76)
    cases = [random_matrix(rng, rng.randint(1, 12), zero_chance=rng.choice((0.3, 0.55, 0.8)))
             for _ in range(40)]
    dec = decompose(demo_matrix())
    cases += [dec.block_matrices[b] for b, kind in enumerate(dec.kinds) if kind == "primitive"]
    for rows in cases:
        hi = Fraction(max(1, max(sum(row) for row in rows)))
        loc = LargestRootLocator(charpoly(rows), Fraction(-1), hi)
        sign_counts[0] = 0
        lo, hi = loc.refine(Fraction(1, 10**9))
        assert sign_counts[0] <= 4, rows
        assert hi - lo <= Fraction(1, 10**9)
        assert count_roots_halfopen(loc.chain, lo, hi) >= 1
