"""Cyclicity, block decomposition, Perron enclosures, and growth types."""

import json
import os
import random
import subprocess
import sys
import threading
import time
from collections import OrderedDict
from fractions import Fraction
from pathlib import Path

import pytest

from morphlab import (
    AlgebraicRadius,
    DomainMismatchError,
    GrowthType,
    IncidenceMatrix,
    InvariantError,
    NotPrimitiveError,
    column_growth,
    cyclicity,
    decompose,
    entry_growth,
    incidence_matrix,
    is_primitive,
    letter_growth,
    morphism_from_chars,
    perron_eigenvalue,
    perron_enclosure,
    radius_compare,
    rational_radius_enclosure,
    row_growth,
    spectral_radius_enclosure,
)
from morphlab.fixtures import baum_sweet_erasing, baum_sweet_uniform, demo_matrix, thue_morse_projection
from morphlab import cli, intmat, spectral
from morphlab.intmat import charpoly, mat_pow, support_pow
from morphlab.polytools import (
    LargestRootLocator,
    count_roots_closed,
    count_roots_halfopen,
    evaluate,
    nth_root_bounds,
    sturm_chain,
)
from morphlab.spectral import _DECOMP_CACHE, _DECOMP_CACHE_SIZE, BlockDecomposition, scc_periods
from morphlab.dilation import is_dilated
from morphlab.normalize import MorphicPresentation, build_sigma_tau, make_monotone, normalize
from morphlab.parser import parse_file

from util import (
    ReferenceDecomposition,
    cycle_chain,
    encloses_radius,
    random_dilation,
    random_matrix,
    ratio_band_ok,
    reference_radius_enclosure,
)

SQRT3 = AlgebraicRadius.from_block(((3,),), 2)  # 3^(1/2)
TWO = AlgebraicRadius.from_rational(2)


def test_cyclicity_examples():
    assert cyclicity(demo_matrix()) == 6
    assert cyclicity(((1, 0), (0, 1))) == 1
    assert cyclicity(((0, 1), (3, 0))) == 2
    assert cyclicity(((0, 1), (0, 0))) == 1  # forest


def test_cyclicity_minimality():
    rng = random.Random(81)
    tested = 0
    while tested < 25:
        rows = random_matrix(rng, rng.randint(2, 6), zero_chance=0.7)
        p = cyclicity(rows)
        if p == 1:
            continue
        for q in range(1, p):
            periods = scc_periods(mat_pow(rows, q))
            assert any(period > 1 for period in periods), (rows, p, q)
        assert all(period == 1 for period in scc_periods(mat_pow(rows, p)))
        tested += 1


def test_block_decomposition_demo_matrix():
    dec = decompose(demo_matrix())
    assert dec.p == 6
    flat = sorted(
        (dec.kinds[b], dec.block_matrices[b]) for b in range(len(dec.blocks))
    )
    assert flat.count(("primitive", ((27,),))) == 4
    assert flat.count(("primitive", ((64,),))) == 3
    assert flat.count(("zero", ((0,),))) == 2
    assert len(dec.blocks) == 9


def test_block_decomposition_primitive_matrix_is_single_block():
    rows = ((1, 1), (1, 1))
    dec = decompose(IncidenceMatrix(rows))
    assert dec.p == 1
    assert len(dec.blocks) == 1
    assert dec.block_matrices[0] == rows


def test_block_decomposition_thue_morse_counterexample():
    f, _, _ = thue_morse_projection()
    dec = decompose(incidence_matrix(f))
    assert dec.p == 1
    mats = sorted(dec.block_matrices)
    assert mats == [((1, 1), (1, 1)), ((3,),)]


def test_block_triangular_form_and_primitivity_bound():
    rng = random.Random(82)
    for _ in range(25):
        rows = random_matrix(rng, rng.randint(1, 6), zero_chance=0.6)
        dec = decompose(IncidenceMatrix(rows))
        power = mat_pow(rows, dec.p)
        order = [v for block in dec.blocks for v in block]
        permuted = [[power[i][j] for j in order] for i in order]
        sizes = [len(b) for b in dec.blocks]
        offsets = [0]
        for s in sizes:
            offsets.append(offsets[-1] + s)
        # upper block triangular: nothing below the diagonal blocks
        for bi in range(len(sizes)):
            for bj in range(bi):
                for i in range(offsets[bi], offsets[bi + 1]):
                    for j in range(offsets[bj], offsets[bj + 1]):
                        assert permuted[i][j] == 0
        # each primitive block P has P^k > 0 with k <= s^2 - 2s + 2
        for b, kind in enumerate(dec.kinds):
            if kind != "primitive":
                assert dec.block_matrices[b] == ((0,),)
                continue
            block = dec.block_matrices[b]
            s = len(block)
            bound = s * s - 2 * s + 2
            power = mat_pow(block, bound)
            assert all(x > 0 for row in power for x in row)


def test_perron_enclosure_examples():
    assert perron_enclosure(((27,),)) == (27, 27)
    lo, hi = perron_enclosure(((1, 1), (1, 1)), Fraction(1, 10**6))
    assert lo <= 2 <= hi and hi - lo <= Fraction(1, 10**6)
    assert perron_enclosure(((3,),)) == (3, 3)
    with pytest.raises(NotPrimitiveError):
        perron_enclosure(((0, 1), (3, 0)))


def test_perron_enclosure_of_the_zero_1x1_block_is_refused():
    """[[0]] is not primitive: its 1x1 shortcut would claim the Perron root 0."""
    assert not is_primitive(((0,),))
    with pytest.raises(NotPrimitiveError):
        perron_enclosure(((0,),))


@pytest.mark.parametrize("width", [0, -1, Fraction(-1, 2)])
@pytest.mark.parametrize(
    "enclose",
    [
        lambda w: AlgebraicRadius.zero().root_enclosure(w),
        lambda w: AlgebraicRadius.from_block(((0, 1), (0, 0))).value_enclosure(w),
        lambda w: spectral_radius_enclosure(((0, 1), (0, 0)), w),
        lambda w: perron_enclosure(((3,),), w),
    ],
    ids=["zero-root", "nilpotent-value", "nilpotent-spectral-radius", "perron-1x1"],
)
def test_enclosure_width_must_be_positive_on_every_shortcut(enclose, width):
    """The zero radius and the 1x1 block take shortcuts; each refuses a width
    <= 0 as every other radius does."""
    with pytest.raises(DomainMismatchError, match="enclosure width must be positive"):
        enclose(width)


def test_perron_enclosure_brackets_and_shrinks():
    rng = random.Random(83)
    found = 0
    while found < 15:
        rows = random_matrix(rng, rng.randint(2, 5), zero_chance=0.35)
        if not is_primitive(rows):
            continue
        found += 1
        poly = charpoly(rows)
        chain = sturm_chain(poly)
        prev_width = None
        for width in (Fraction(1, 10), Fraction(1, 10**3), Fraction(1, 10**6)):
            lo, hi = perron_enclosure(rows, width)
            assert hi - lo <= width
            # the enclosure brackets exactly one root of the char poly
            assert evaluate(poly, lo) == 0 or count_roots_halfopen(chain, lo, hi) == 1
            if prev_width is not None:
                assert hi - lo <= prev_width
            prev_width = hi - lo


def test_radius_compare_examples():
    r27 = AlgebraicRadius.from_block(((27,),))
    assert radius_compare(r27, AlgebraicRadius.from_block(((27,),))) == 0
    two = AlgebraicRadius.from_block(((1, 1), (1, 1)))
    three = AlgebraicRadius.from_block(((3,),))
    assert radius_compare(two, three) == -1
    # per-step rates of the demo matrix: 27^(1/6) = sqrt(3) < 2 = 64^(1/6)
    a = AlgebraicRadius.from_block(((27,),), 6)
    b = AlgebraicRadius.from_block(((64,),), 6)
    assert radius_compare(a, b) == -1
    assert radius_compare(a, SQRT3) == 0
    assert radius_compare(b, TWO) == 0


def test_radius_compare_total_order_matches_midpoints():
    rng = random.Random(84)
    radii = [AlgebraicRadius.zero(), SQRT3, TWO, AlgebraicRadius.from_rational(1)]
    while len(radii) < 12:
        rows = random_matrix(rng, rng.randint(1, 4), zero_chance=0.4)
        if is_primitive(rows):
            radii.append(AlgebraicRadius.from_block(rows, rng.choice((1, 1, 2))))
    width = Fraction(1, 10**12)
    mids = [sum(r.value_enclosure(width)) / 2 for r in radii]
    for i, a in enumerate(radii):
        for j, b in enumerate(radii):
            cmp = radius_compare(a, b)
            assert cmp == -radius_compare(b, a)
            if mids[i] < mids[j] - 2 * width:
                assert cmp == -1
            if mids[i] > mids[j] + 2 * width:
                assert cmp == 1


def test_compare_with_a_rational_matches_the_two_radius_path():
    """compare(c) decides r^(1/step) against c on the radius's own chain;
    the answer equals the general path through a 1x1 from_rational radius."""
    rng = random.Random(85)
    cs = (0, 1, 2, Fraction(3, 2), Fraction(7, 3))
    seen = 0
    for _ in range(25):
        dec = decompose(random_matrix(rng, rng.randint(1, 7), zero_chance=0.5))
        for radius in dec.radii:
            for c in cs:
                expected = radius.compare(AlgebraicRadius.from_rational(c))
                assert radius.compare(c) == expected, (radius, c)
                assert radius_compare(c, radius) == -expected
                seen += 1
    assert seen > 200
    # equality with a rational is certified on the chain, at any step
    assert AlgebraicRadius.from_block(((4,),), 2).compare(2) == 0
    assert AlgebraicRadius.from_block(((1, 1), (1, 1))).compare(Fraction(2)) == 0
    assert SQRT3.compare(Fraction(7, 4)) == -1 and SQRT3.compare(Fraction(17, 10)) == 1
    with pytest.raises(DomainMismatchError):
        SQRT3.compare(-1)


def test_describe_prints_the_value_whatever_the_enclosure_route():
    """rho = 3.706808796565156... rounds to ...657 at 12 digits.  A midpoint
    of a 1e-12 enclosure could print ...656, depending on how the locator
    had been refined before."""
    block = ((3, 0, 2, 0), (0, 0, 0, 3), (0, 3, 0, 0), (2, 0, 0, 0))
    for k in (0, 1, 4, 20, 39):
        radius = AlgebraicRadius.from_block(block)
        if k:
            radius.root_enclosure(Fraction(1, 2**k))
        assert radius.describe() == "~3.70680879657", k
    assert AlgebraicRadius.from_block(((1, 1), (1, 0))).describe() == "~1.61803398875"
    assert AlgebraicRadius.from_block(((27,),), 6).describe() == "27^(1/6)"


def test_describe_rational_radii_of_large_powers():
    """A rational root is found by exact counts at integer points, not among
    the divisors of the constant term, and exact n-th roots search only up
    to 2^(bits/n + 1);
    the first two cases each took over 20 s with the divisor search and the
    unbounded root search."""
    two = AlgebraicRadius.from_block(mat_pow(((1, 2), (1, 0)), 60), 60)  # rho 2^60, det 2^60
    assert two.describe() == "2"
    assert AlgebraicRadius.from_block(((2**600,),), 600).describe() == "2"
    assert AlgebraicRadius.from_block(((3**600,),), 1200).describe() == f"{3**600}^(1/1200)"
    assert AlgebraicRadius.from_block(((1, 1), (1, 0))).exact_rational_value() is None


@pytest.mark.parametrize(
    "block, step, value",
    [
        (((Fraction(1, 2), 0), (0, Fraction(1, 2))), 1, Fraction(1, 2)),  # key 2x - 1, not monic
        (tuple((Fraction(1, 3),) * 3 for _ in range(3)), 1, Fraction(1)),
        (((Fraction(1, 4),),), 2, Fraction(1, 2)),
        (((Fraction(1, 2),),), 2, None),  # 2^(-1/2)
    ],
    ids=["diag-half", "J3-over-3", "quarter-step-2", "half-step-2"],
)
def test_rational_entry_radii_have_exact_values(block, step, value):
    """A rational root of a primitive integer key with leading coefficient l
    is k / l for an integer k, so rational-entry blocks get exact values."""
    radius = AlgebraicRadius.from_block(block, step)
    assert radius.exact_rational_value() == value
    if value is not None:
        assert radius.describe() == str(value)
        assert radius.compare(value) == 0


def test_radius_is_root_of_membership():
    golden = AlgebraicRadius.from_block(((1, 1), (1, 0)))  # root of x^2 - x - 1
    assert golden.is_root_of([-1, -1, 1])
    # membership survives extra factors: (x^2 - x - 1)(x + 2)
    assert golden.is_root_of([-2, -3, 1, 1])
    assert not golden.is_root_of([-3, 0, 1])  # x^2 - 3
    # nearby but distinct rational perturbation of the minimal polynomial
    assert not golden.is_root_of([-10001, -10000, 10000])


def test_radius_equality_across_different_defining_blocks():
    # dominant root 2 from three different matrices
    a = AlgebraicRadius.from_block(((2,),))
    b = AlgebraicRadius.from_block(((1, 1), (1, 1)))
    c = AlgebraicRadius.from_block(((4,),), 2)
    assert a == b == c
    golden = AlgebraicRadius.from_block(((1, 1), (1, 0)))
    assert golden != a
    assert golden < a
    # an irrational value equal across different step markers:
    # the square of the golden-ratio matrix, read with a 1/2 marker
    squared = AlgebraicRadius.from_block(((2, 1), (1, 1)), 2)
    assert squared == golden
    assert squared < AlgebraicRadius.from_rational(2)


def test_entry_growth_demo_matrix_spot_values():
    dec = decompose(demo_matrix())
    g = dec.entry_growth(0, 1, 0)  # (1,2) r=0
    assert g.rate == SQRT3 and g.degree == 0
    g = dec.entry_growth(0, 4, 1)  # (1,5) r=1
    assert g.rate == SQRT3 and g.degree == 1
    g = dec.entry_growth(0, 6, 2)  # (1,7) r=2
    assert g.rate == TWO and g.degree == 0
    g = dec.entry_growth(0, 8, 2)  # (1,9) r=2
    assert g.rate == SQRT3 and g.degree == 1
    assert dec.entry_growth(0, 2, 0).is_vanishing  # (1,3) r=0


def test_entry_growth_trivial_one_by_one():
    dec = decompose(IncidenceMatrix(((1,),)))
    g = dec.entry_growth(0, 0, 0)
    assert g.rate == AlgebraicRadius.from_rational(1) and g.degree == 0


def test_entry_growth_oracle_random():
    """(M^{pn+r})_{i,j} stays inside a stable ratio band around n^d root^n."""
    rng = random.Random(85)
    for _ in range(8):
        m = rng.randint(2, 5)
        rows = random_matrix(rng, m, zero_chance=0.55)
        dec = decompose(IncidenceMatrix(rows))
        root_mid = {}
        for cid, radius in enumerate(dec.class_radii):
            if radius.is_zero:
                continue
            lo, hi = radius.root_enclosure(Fraction(1, 10**6))
            root_mid[cid] = (lo + hi) / 2
        powers = {}
        for i in range(m):
            for j in range(m):
                for r in range(dec.p):
                    growth = dec.entry_growth(i, j, r)
                    if growth.is_vanishing:
                        for n in range(m + 1, 2 * m + 4):
                            e = dec.p * n + r
                            if e not in powers:
                                powers[e] = mat_pow(rows, e)
                            assert powers[e][i][j] == 0
                        continue
                    cid = next(
                        c for c, rad in enumerate(dec.class_radii)
                        if rad.compare(growth.rate) == 0
                    )
                    mid = root_mid[cid]
                    values = {}
                    for n in range(20, 41):
                        e = dec.p * n + r
                        if e not in powers:
                            powers[e] = mat_pow(rows, e)
                        values[n] = Fraction(powers[e][i][j])
                    model = lambda n, d=growth.degree, mid=mid: Fraction(n**d) * mid**n
                    assert ratio_band_ok(values, model, (20, 30), (31, 40)), (rows, i, j, r)


def test_vanishing_self_check_rejects_wrong_verdicts():
    dec = decompose(demo_matrix())
    for i, j, r in ((0, 2, 0), (0, 1, 0)):  # (1,3) vanishes, (1,2) grows
        verdict = dec.entry_growth(i, j, r).is_vanishing
        with pytest.raises(InvariantError):
            dec._check_vanishing(j, r, not verdict, support_pow(dec.support, r)[i])


def test_vanishing_self_check_survives_optimize_flag():
    """The self-check is an explicit raise, so `python -O` keeps it."""
    script = (
        "from morphlab import InvariantError, decompose\n"
        "from morphlab.fixtures import demo_matrix\n"
        "from morphlab.intmat import support_pow\n"
        "dec = decompose(demo_matrix())\n"
        "assert False, 'asserts are stripped under -O'\n"
        "try:\n"
        "    dec._check_vanishing(1, 0, True, support_pow(dec.support, 0)[0])\n"
        "except InvariantError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(3)\n"
    )
    env = os.environ.copy()
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr


def _cycle_chain(lengths):
    """Cycles of the given lengths, each linked to the next by one edge."""
    n = sum(lengths)
    rows = [[0] * n for _ in range(n)]
    cycles = []
    start = 0
    for length in lengths:
        cycle = list(range(start, start + length))
        for t in range(length):
            rows[cycle[t]][cycle[(t + 1) % length]] = 1
        cycles.append(cycle)
        start += length
    for a, b in zip(cycles, cycles[1:]):
        rows[a[-1]][b[0]] = 1
    return tuple(tuple(row) for row in rows), cycles


def test_entry_growth_vanishing_at_large_cyclicity():
    """p = 420 on a chain of 3-, 4-, 5- and 7-cycles, against walks counted
    by exact-step reachability.  An n-vertex boolean matrix has index at
    most (n - 1)^2 + 1 = 325 < p here, so (M^{pn+r})_{ij} is ultimately
    zero exactly when no walk of length p + r leads from i to j."""
    rows, cycles = _cycle_chain((3, 4, 5, 7))
    n = len(rows)
    succ = [[j for j in range(n) if rows[i][j]] for i in range(n)]
    dec = decompose(IncidenceMatrix(rows))
    assert dec.p == 420
    rng = random.Random(420)
    sample = [(rng.randrange(n), rng.randrange(n), rng.randrange(dec.p)) for _ in range(40)]
    # pairs inside one cycle vanish for most residues: include each cycle
    sample += [(c[0], c[-1], rng.randrange(dec.p)) for c in cycles for _ in range(3)]
    verdicts = set()
    for i in sorted({i for i, _, _ in sample}):
        reach = [{i}]
        for _ in range(3 * dec.p):
            reach.append({v for u in reach[-1] for v in succ[u]})
        for ii, j, r in sample:
            if ii != i:
                continue
            vanishes = j not in reach[dec.p + r]
            assert vanishes == (j not in reach[2 * dec.p + r])  # past the index
            assert dec.entry_growth(i, j, r).is_vanishing == vanishes, (i, j, r)
            verdicts.add(vanishes)
    assert verdicts == {True, False}


def test_residue_independence_of_column_growth():
    rng = random.Random(86)
    for _ in range(10):
        m = rng.randint(2, 5)
        rows = random_matrix(rng, m, zero_chance=0.6)
        dec = decompose(IncidenceMatrix(rows))
        for j in range(m):
            expected = dec.column_growth(j)
            for r in range(dec.p):
                per_residue = [dec.entry_growth(i, j, r) for i in range(m)]
                live = [g for g in per_residue if not g.is_vanishing]
                if not live:
                    assert expected.is_vanishing
                    continue
                best = live[0]
                for g in live[1:]:
                    c = g.rate.compare(best.rate)
                    if c > 0 or (c == 0 and g.degree > best.degree):
                        best = g
                assert best == expected


def test_column_growth_examples():
    f, _, _ = thue_morse_projection()
    m = incidence_matrix(f)
    g = column_growth(m, m.index_of("a"))
    assert g == GrowthType(AlgebraicRadius.from_rational(3), 0)
    zero = IncidenceMatrix(((0, 0), (0, 0)))
    assert column_growth(zero, 0).is_vanishing


def test_column_growth_unary_chain_polynomial():
    # a1 -> a1 a2, a2 -> a2 a3, a3 -> a3: |f^n(a1)| = Theta(n^2)
    f = morphism_from_chars({"a": "ab", "b": "bc", "c": "c"})
    m = incidence_matrix(f)
    g = column_growth(m, 0)
    assert g == GrowthType(AlgebraicRadius.from_rational(1), 2)
    # brute-force oracle: |f^n(a)| equals the exact column sum and is ~ n^2/2
    values = {}
    rows = m.rows
    for n in range(61):
        p = mat_pow(rows, n)
        values[n] = Fraction(sum(p[i][0] for i in range(3)))
    assert ratio_band_ok(values, lambda n: Fraction(n**2), (20, 40), (41, 60))


def test_row_growth_matches_transposed_column():
    rng = random.Random(87)
    for _ in range(12):
        m = rng.randint(2, 5)
        rows = random_matrix(rng, m, zero_chance=0.6)
        a = IncidenceMatrix(rows)
        b = a.transposed()
        for i in range(m):
            assert row_growth(a, i) == column_growth(b, i)


def _path_summaries(rows, ref):
    """{(s, t): (best class, most blocks of it on one path)} over every
    simple path s -> ... -> t of the condensation of the zero pattern of
    the bignum M^p; a block alone is the path from it to itself."""
    power = mat_pow(rows, ref.p)
    n, nb = len(rows), len(ref.blocks)
    succ = [set() for _ in range(nb)]
    for u in range(n):
        for v in range(n):
            if power[u][v] > 0 and ref.block_of[u] != ref.block_of[v]:
                succ[ref.block_of[u]].add(ref.block_of[v])
    out = {}

    def extend(s, path):
        classes = [ref.class_of_block[b] for b in path]
        top = max(classes)
        summary = (top, classes.count(top))
        out[s, path[-1]] = max(out.get((s, path[-1]), summary), summary)
        for c in succ[path[-1]]:
            assert c not in path  # the condensation has no cycle
            extend(s, path + [c])

    for s in range(nb):
        extend(s, [s])
    return out


def _oracle_growth(ref, summaries, sources, targets):
    """(vanishes, class, degree) over the paths from `sources` to `targets`."""
    found = [summaries[s, t] for s in sources for t in targets if (s, t) in summaries]
    if not found or ref.class_radii[max(found)[0]].is_zero:
        return True, None, 0
    top, count = max(found)
    return False, top, count - 1


def test_growth_matches_a_block_path_oracle():
    """Entry, row and column growth against the simple paths of the block
    graph of M^p: the rate is the largest class on an admissible path and
    d + 1 the most blocks of that class on one path."""
    rng = random.Random(8801)
    cases = [random_matrix(rng, rng.randint(1, 6), zero_chance=rng.choice((0.5, 0.65, 0.8))) for _ in range(40)]
    cases += [demo_matrix().rows, cycle_chain((3, 4, 5), (2, 3, 2), ((1, 2), (1, 0)))]
    for rows in cases:
        dec = BlockDecomposition(rows)
        ref = ReferenceDecomposition(rows)
        assert (dec.p, dec.block_of) == (ref.p, ref.block_of), rows
        summaries = _path_summaries(rows, ref)
        seen = {}

        def verdict(growth):
            if growth.is_vanishing:
                return True, None, growth.degree
            if id(growth.rate) not in seen:  # the rate object is kept alive in seen
                cid = next(c for c, x in enumerate(ref.class_radii) if x.compare(growth.rate) == 0)
                seen[id(growth.rate)] = (growth.rate, cid)
            return False, seen[id(growth.rate)][1], growth.degree

        n, every = len(rows), range(len(ref.blocks))
        for i in range(n):
            expected = _oracle_growth(ref, summaries, [ref.block_of[i]], every)
            assert verdict(dec.row_growth(i)) == expected, (rows, i)
            expected = _oracle_growth(ref, summaries, every, [ref.block_of[i]])
            assert verdict(dec.column_growth(i)) == expected, (rows, i)
        for r in range(dec.p):
            mr = mat_pow(rows, r)
            for j in range(n):
                targets = {ref.block_of[k] for k in range(n) if mr[k][j] > 0}
                for i in range(n):
                    expected = _oracle_growth(ref, summaries, [ref.block_of[i]], targets)
                    assert verdict(dec.entry_growth(i, j, r)) == expected, (rows, i, j, r)


def test_letter_growth_examples():
    f, _, _ = thue_morse_projection()
    assert letter_growth(f, "a") == GrowthType(AlgebraicRadius.from_rational(3), 0)
    tm = morphism_from_chars({"a": "ab", "b": "ba"})
    assert letter_growth(tm, "a") == GrowthType(TWO, 0)
    poly = morphism_from_chars({"a": "ab", "b": "b"})
    assert letter_growth(poly, "a") == GrowthType(AlgebraicRadius.from_rational(1), 1)


def test_perron_eigenvalue_examples():
    sigma, _, _ = baum_sweet_uniform()
    assert perron_eigenvalue(sigma) == TWO
    ident = morphism_from_chars({"a": "a", "b": "b"})
    assert perron_eigenvalue(ident) == AlgebraicRadius.from_rational(1)
    f, _, _ = thue_morse_projection()
    assert perron_eigenvalue(f) == AlgebraicRadius.from_rational(3)


def test_perron_eigenvalue_agrees_with_direct_enclosure():
    rng = random.Random(88)
    for _ in range(10):
        f_rows = random_matrix(rng, rng.randint(2, 5), zero_chance=0.5)
        dec = decompose(IncidenceMatrix(f_rows))
        radius = dec.spectral_radius()
        width = Fraction(1, 10**9)
        direct_lo, direct_hi = reference_radius_enclosure(f_rows, width)
        block_lo, block_hi = radius.value_enclosure(width)
        assert max(direct_lo, block_lo) <= min(direct_hi, block_hi)


@pytest.mark.parametrize("rows", [((-3,),), ((0, 1), (-1, 0)), ((Fraction(1, 2), 1), (1, Fraction(-1, 3)))])
def test_radius_enclosures_reject_negative_entries(rows):
    for enclose in (spectral_radius_enclosure, rational_radius_enclosure, perron_enclosure):
        with pytest.raises(DomainMismatchError):
            enclose(rows)


def test_radius_enclosure_of_nilpotent_empty_and_rational_matrices():
    assert spectral_radius_enclosure(((0, 1), (0, 0))) == (0, 0)  # exact, not (0, width/4)
    assert spectral_radius_enclosure(((0, 1, 2), (0, 0, 3), (0, 0, 0))) == (0, 0)
    assert spectral_radius_enclosure(()) == (0, 0)
    assert rational_radius_enclosure(((0,),)) == (0, 0)
    width = Fraction(1, 10**9)
    rows = ((Fraction(1, 2), Fraction(1, 3)), (Fraction(3, 4), 0))  # rho = (1 + sqrt 5) / 4
    text_rows = (("1/2", "1/3"), ("3/4", "0"))
    for lo, hi in (
        spectral_radius_enclosure(rows, width),
        rational_radius_enclosure(text_rows, width),
        perron_enclosure(rows, width),
    ):
        assert hi - lo <= width and (4 * lo - 1) ** 2 <= 5 <= (4 * hi - 1) ** 2
    lo, hi = spectral_radius_enclosure(((Fraction(2, 3), 0), (0, Fraction(1, 7))), width)
    assert lo <= Fraction(2, 3) <= hi and hi - lo <= width


def _radius_oracle_cases():
    rng = random.Random(9109)
    cases = [random_matrix(rng, rng.randint(1, 10), zero_chance=rng.choice((0.5, 0.7, 0.85))) for _ in range(60)]
    for _ in range(8):  # dilated pairs: the base and its dilation
        base = random_matrix(rng, rng.randint(2, 4), zero_chance=0.5)
        cases += [base, random_dilation(rng, base, [rng.randint(1, 3) for _ in base])]
    for _ in range(12):  # rational entries with mixed denominators
        size = rng.randint(1, 6)
        cases.append(tuple(
            tuple(Fraction(rng.randint(1, 9), rng.randint(1, 6)) if rng.random() < 0.45 else 0 for _ in range(size))
            for _ in range(size)
        ))
    cases.append(cycle_chain((7, 8, 9, 11), (2, 3, 2, 3), ((1, 2), (1, 0))))  # p = 5544, rho = 2
    return cases


@pytest.mark.parametrize("warm", [False, True])
def test_radius_enclosures_match_the_full_charpoly_reference(monkeypatch, warm):
    """rho(M) read off the components holds the exact radius, overlaps the
    enclosure of the whole n x n characteristic polynomial and keeps the
    width asked for, from a cold cache and after the analyze pattern
    (decompose, then its block report) has refined the locators."""
    monkeypatch.setattr(spectral, "_DECOMP_CACHE", OrderedDict())
    widths = (Fraction(1, 16), Fraction(1, 10**9))
    for rows in _radius_oracle_cases():
        integral = all(type(x) is int for row in rows for x in row)
        if warm and integral:
            decompose(rows).blocks_as_json(widths[0])
        for width in widths:
            if not warm:
                spectral._DECOMP_CACHE.clear()
            enclosures = [spectral_radius_enclosure(rows, width), rational_radius_enclosure(rows, width)]
            if is_primitive(rows):
                enclosures.append(perron_enclosure(rows, width))
            rlo, rhi = reference_radius_enclosure(rows, width)
            for lo, hi in enclosures:
                assert hi - lo <= width and encloses_radius(rows, lo, hi), (rows, width)
                assert max(lo, rlo) <= min(hi, rhi), (rows, width)


def test_radius_enclosure_forms_no_charpoly_larger_than_a_component(monkeypatch):
    """On the weighted 7/8/9/11-cycle chain with a 2x2 tail (37 vertices),
    rho(M) comes from the components: no 37 x 37 characteristic polynomial."""
    rows = cycle_chain((7, 8, 9, 11), (2, 3, 2, 3), ((1, 2), (1, 0)))
    sizes = []
    inner = spectral.charpoly
    monkeypatch.setattr(spectral, "charpoly", lambda a: sizes.append(len(a)) or inner(a))
    monkeypatch.setattr(spectral, "_DECOMP_CACHE", OrderedDict())
    lo, hi = spectral_radius_enclosure(rows)
    assert lo <= 2 <= hi and hi - lo <= spectral.DEFAULT_WIDTH
    assert sizes and max(sizes) <= 11


def _long_cycle(n, weight):
    """a -> a a c0 and the n-cycle c_i -> c_(i+1 mod n), with c0 -> c1^weight."""
    images = " ".join(f"c{i} -> " + " ".join([f"c{(i + 1) % n}"] * (weight if i == 0 else 1)) + " ;" for i in range(n))
    return parse_file(f"f {{ a -> a a c0 ; {images} }}").morphisms["f"]


@pytest.mark.parametrize("weight", [1, 2])
def test_letter_growth_on_a_long_cycle_reads_one_cyclic_class(monkeypatch, weight):
    """The 400-cycle behind a -> a a c0 has period 400 and 1x1 classes: its
    radius is rho(B)^(1/400) for the 1x1 class block B = (weight), so no
    charpoly larger than 1x1 is formed and the letter's growth takes well
    under half a second."""
    f = _long_cycle(400, weight)
    sizes = []
    inner = spectral.charpoly
    monkeypatch.setattr(spectral, "charpoly", lambda a: sizes.append(len(a)) or inner(a))
    monkeypatch.setattr(spectral, "_DECOMP_CACHE", OrderedDict())
    start = time.perf_counter()
    growth = letter_growth(f, "a")
    elapsed = time.perf_counter() - start
    assert growth.as_dict() == {"lambda_per_step": "2", "d": 0}
    assert sizes and max(sizes) == 1
    assert elapsed < 0.5, elapsed


def test_decompose_on_a_1600_cycle_reads_its_digraph_edge_by_edge(monkeypatch):
    """Tarjan and the period BFS walk the successor bits of the patterns of M
    and M^1600, one step per edge: no list of all n entries is built per
    row, so the 1,601 blocks take well under half a second."""
    matrix = incidence_matrix(_long_cycle(1600, 1))
    monkeypatch.setattr(spectral, "_DECOMP_CACHE", OrderedDict())
    start = time.perf_counter()
    dec = decompose(matrix)
    elapsed = time.perf_counter() - start
    assert dec.p == 1600
    assert len(dec.blocks) == 1601
    assert elapsed < 0.5, elapsed


def _pairwise_preds(dec):
    """preds[b] by its definition: the blocks u != b with an entry of the
    pattern of M^p from a vertex of u to a vertex of b."""
    nb, n = len(dec.blocks), len(dec.block_of)
    edge = {
        (dec.block_of[i], dec.block_of[j]) for i in range(n) for j in range(n) if dec.power_support[i] >> j & 1
    }
    return tuple(sum(1 << u for u in range(nb) if u != b and (u, b) in edge) for b in range(nb))


def test_block_predecessors_match_their_pairwise_definition():
    rng = random.Random(824)
    for trial in range(60):
        rows = random_matrix(rng, rng.randint(1, 9), zero_chance=rng.choice((0.6, 0.75, 0.9)))
        dec = decompose(IncidenceMatrix(rows))
        assert dec.preds == _pairwise_preds(dec), (trial, rows)
    dec = decompose(incidence_matrix(_long_cycle(800, 1)))
    assert len(dec.blocks) == 801
    assert dec.preds == _pairwise_preds(dec)


@pytest.mark.parametrize(
    "rows, message",
    [
        (((1, 2),), "not square"),
        (((1, 0), (2,)), "not square"),
        (((1, -1), (0, 1)), "non-negative integers"),
        (((1, 0), (0, 1.0)), "non-negative integers"),
        (((Fraction(1), 0), (0, 1)), "non-negative integers"),
        (((1, "2"), (0, 1)), "non-negative integers"),
        (((None,),), "non-negative integers"),
        (((-3,),), "non-negative integers"),
    ],
    ids=["wide", "ragged", "negative", "float", "fraction", "string", "none", "negative-1x1"],
)
def test_incidence_matrix_rejects_what_is_no_square_count_matrix(rows, message):
    with pytest.raises(DomainMismatchError, match=message):
        IncidenceMatrix(rows)


@pytest.mark.parametrize(
    "case",
    [
        lambda: AlgebraicRadius(((-1,),)).describe(),
        lambda: AlgebraicRadius(((-1,),)).value_enclosure(Fraction(1, 100)),
        lambda: AlgebraicRadius(((-1,),)).compare(1),
        lambda: AlgebraicRadius(((0, -2), (1, 0))).compare(1),
        lambda: AlgebraicRadius.on_demand(lambda: ((1, -1), (1, 0)), 2).describe(),
        lambda: mat_pow(((1,),), -1),
        lambda: support_pow((1,), -1),
        lambda: nth_root_bounds(-1, 2, Fraction(1, 100)),
        lambda: LargestRootLocator([-2, 0, 1], 2, 3),  # sqrt(2) lies below the bracket
        lambda: cyclicity([[0, 1]]),
        lambda: scc_periods([[0, 1]]),
        lambda: cyclicity([[0, 2], [1]]),
        lambda: cyclicity([[-1, 1], [1, 0]]),
        lambda: is_primitive([[1, -1], [1, 0]]),
        lambda: cyclicity([["1"]]),
        lambda: is_primitive([["1"]]),
        lambda: spectral_radius_enclosure([["1/2"]]),  # rational_radius_enclosure reads the text as 1/2
        ("--width", "abc"),
        ("--width", "1/0"),
        ("--width", "0"),
    ],
    ids=["describe", "value-enclosure", "compare", "compare-2x2", "on-demand", "mat-pow", "support-pow",
         "nth-root", "locator", "cyclicity-wide", "scc-periods-wide", "cyclicity-ragged", "cyclicity-negative",
         "is-primitive-negative", "cyclicity-text", "is-primitive-text", "enclosure-text",
         "width-text", "width-1/0", "width-0"],
)
def test_bad_input_is_a_domain_mismatch(case, tmp_path, capsys):
    """A negative radius block, a negative power or radicand, a bracket
    with no root, and a matrix that is not square or has a negative or
    non-numeric entry raise DomainMismatchError; a bad --width exits with
    code 2 and a JSON error, as a bad --budget does."""
    if callable(case):
        with pytest.raises(DomainMismatchError):
            case()
        return
    mat = tmp_path / "fib.mat"
    mat.write_text("1 1\n1 0\n")
    assert cli.main(["matrix", "--file", str(mat), "--json", *case]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "DomainMismatchError"


def test_incidence_matrix_accepts_ints_and_bools():
    assert IncidenceMatrix(((True, False), (0, 7))).rows == ((True, False), (0, 7))
    assert IncidenceMatrix(()).rows == ()
    assert IncidenceMatrix(((0,),)).labels == ("1",)


def test_blocks_of_one_component_share_its_power(monkeypatch):
    """Weighted 3-, 4- and 5-cycles (p = 60): the block report forms the
    class products once per component, no power of a whole component, and
    one e-th power per 1x1 block, 12 powers."""
    calls, products = [], []
    inner = spectral.mat_pow
    monkeypatch.setattr(spectral, "mat_pow", lambda a, e: calls.append((len(a), e)) or inner(a, e))
    inner_products = spectral._class_products
    monkeypatch.setattr(
        spectral, "_class_products", lambda rows, classes: products.append(classes) or inner_products(rows, classes)
    )
    rows = cycle_chain((3, 4, 5), (2, 3, 5))
    dec = BlockDecomposition(rows)
    dec.blocks_as_json()
    assert sorted(calls) == sorted([(1, 20)] * 3 + [(1, 15)] * 4 + [(1, 12)] * 5)
    assert sorted(products) == [((0,), (1,), (2,)), ((3,), (4,), (5,), (6,)), ((7,), (8,), (9,), (10,), (11,))]
    assert dec.block_matrices == ReferenceDecomposition(rows).block_matrices


def test_blocks_built_from_eight_threads_share_one_component_power(monkeypatch):
    calls, sizes = [], []
    inner = spectral._class_products

    def slow(rows, classes):  # let the other threads arrive while the products are formed
        calls.append(len(classes))
        time.sleep(0.05)
        return inner(rows, classes)

    monkeypatch.setattr(spectral, "_class_products", slow)
    inner_pow = spectral.mat_pow
    monkeypatch.setattr(spectral, "mat_pow", lambda a, e: sizes.append(len(a)) or inner_pow(a, e))
    rows = cycle_chain((8,), (3,))  # p = 8: eight 1x1 blocks of one component
    dec = BlockDecomposition(rows)
    barrier = threading.Barrier(8)
    results, errors = {}, []

    def work(b):
        try:
            barrier.wait()
            results[b] = dec.radii[b].block
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(b,)) for b in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert calls == [8]  # the class products of the 8-cycle, formed once for its eight blocks
    assert sizes == [1] * 8  # one power per block, and no power of the 8 x 8 component
    assert [results[b] for b in range(8)] == [((3,),)] * 8


def test_entry_growth_walks_the_ladder_without_support_pow(monkeypatch):
    """At cyclicity 5544 each residue of an entry reads row i and column j
    of the pattern of M^r from the squaring ladder: r.bit_count() row
    products for the row, at most m + 1 for the vanishing window, and no
    n x n pattern power."""
    rows = cycle_chain((7, 8, 9, 11), (2, 3, 2, 3), ((1, 2), (1, 0)))
    dec = decompose(rows)
    m = len(rows)

    def refuse(*args):
        raise AssertionError("support_pow called after decompose")

    calls = [0]
    inner = intmat.support_row_mul

    def counted(row, b):
        calls[0] += 1
        return inner(row, b)

    monkeypatch.setattr(intmat, "support_pow", refuse)
    monkeypatch.setattr(spectral, "support_pow", refuse, raising=False)
    monkeypatch.setattr(intmat, "support_row_mul", counted)
    monkeypatch.setattr(spectral, "support_row_mul", counted)
    assert dec.p == 5544
    for r in range(dec.p):
        calls[0] = 0
        growth = dec.entry_growth(0, 36, r)
        assert calls[0] <= r.bit_count() + m + 1, r
        assert growth.as_dict() == {"lambda_per_step": "2", "d": 0}, r


def test_geometric_sum_model():
    """sum_{i<=n} i^m q^i / (n^m q^n) stays in a bounded window (model check)."""
    for q in (2.0, 3.0):
        for m in (0, 1, 2):
            ratios = []
            for n in range(30, 61):
                total = sum((i**m) * (q**i) for i in range(n + 1))
                ratios.append(total / ((n**m if m else 1) * q**n))
            assert max(ratios) / min(ratios) < 3.0


def test_growths_from_eight_threads_equal_the_serial_ones():
    """Eight threads behind a barrier read entry, row and column growth of
    one fresh decomposition, each in its own order: every answer equals
    the serial one, and every thread gets the one memoised GrowthType."""
    rows = demo_matrix().rows
    serial = BlockDecomposition(rows)
    n, p = serial.size, serial.p
    queries = [("row", i) for i in range(n)] + [("col", j) for j in range(n)]
    queries += [("entry", i, j, r) for i in range(n) for j in range(n) for r in range(p)]

    def ask(dec, query):
        if query[0] == "row":
            return dec.row_growth(query[1])
        if query[0] == "col":
            return dec.column_growth(query[1])
        return dec.entry_growth(*query[1:])

    want = {q: ask(serial, q).as_dict() for q in queries}
    dec = BlockDecomposition(rows)
    barrier = threading.Barrier(8)
    results, errors = {}, []

    def work(k):
        try:
            order = queries[k * 61 % len(queries):] + queries[: k * 61 % len(queries)]
            barrier.wait()
            results[k] = {q: ask(dec, q) for q in order}
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors and len(results) == 8
    for got in results.values():
        assert {q: growth.as_dict() for q, growth in got.items()} == want
        assert all(growth is results[0][q] for q, growth in got.items())


def test_concurrent_radius_refinement():
    radius = AlgebraicRadius.from_block(((1, 1), (1, 0)))
    errors = []

    def work():
        try:
            for _ in range(5):
                assert radius.compare(TWO) == -1
                assert radius.compare(1) == 1
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors


PHI_BLOCKS = (((1, 1), (1, 0)), ((0, 1), (1, 1)))  # one characteristic polynomial


def test_two_radii_share_one_locator_from_eight_threads(monkeypatch):
    """Radii whose polynomials have one radius key refine one registry
    locator; compares, enclosures and compare(1) from eight threads agree."""
    monkeypatch.setattr(spectral, "_RADIUS_REGISTRY", OrderedDict())
    a, b = (AlgebraicRadius.from_block(block) for block in PHI_BLOCKS)
    assert a._own_locator() is b._own_locator()
    barrier = threading.Barrier(8)
    errors = []

    def work(k):
        try:
            barrier.wait()
            mine, theirs = (a, b) if k % 2 else (b, a)
            width = Fraction(1, 16)
            for _ in range(6):
                if mine.compare(theirs) != 0 or mine.compare(1) != 1 or mine.compare(TWO) != -1:
                    errors.append(("compare", k))
                lo, hi = mine.value_enclosure(width)
                if not (hi - lo <= width and (2 * lo - 1) ** 2 <= 5 <= (2 * hi - 1) ** 2):
                    errors.append(("enclosure", k, lo, hi))
                width /= 64
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    # phi's key alone: the radius 2 has the linear key (-2, 1), decided by
    # sign counts on phi's locator, so it needs no locator of its own
    assert len(spectral._RADIUS_REGISTRY) == 1
    assert (-2, 1) not in spectral._RADIUS_REGISTRY


def test_equal_radius_keys_compare_equal_without_sign_counts(monkeypatch, sign_counts):
    """Polynomials with one squarefree part, up to factors of x, name one
    radius: compare returns 0 with no Sturm count and no locator."""
    monkeypatch.setattr(spectral, "_RADIUS_REGISTRY", OrderedDict())
    padded = ((1, 1, 0), (1, 0, 0), (0, 0, 0))  # x (x^2 - x - 1)
    doubled = ((1, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 1))  # (x^2 - x - 1)^2
    radii = [AlgebraicRadius.from_block(block) for block in (*PHI_BLOCKS, padded, doubled)]
    sign_counts[0] = 0
    assert all(x.compare(y) == 0 for x in radii for y in radii)
    assert radius_compare(radii[0], radii[2]) == 0 and radii[0] == radii[3]
    assert sign_counts[0] == 0 and not spectral._RADIUS_REGISTRY
    assert radii[0].is_root_of(radii[3].poly) and sign_counts[0] == 0


def test_dilated_pair_compares_equal_through_the_key(monkeypatch, sign_counts):
    """Mat_sigma is a dilation of the monotone f's matrix: here their
    polynomials differ by a factor x, so the growth check's comparison is
    decided by the radius key."""
    monkeypatch.setattr(spectral, "_RADIUS_REGISTRY", OrderedDict())
    f, g = morphism_from_chars({"a": "ab", "b": "a"}), morphism_from_chars({"a": "aa", "b": "b"})
    mono = make_monotone(f, g, "a")
    built = build_sigma_tau(mono.f, mono.g, "a")
    assert is_dilated(incidence_matrix(built.sigma).rows, incidence_matrix(mono.f).rows, built.dilatation_vector)
    assert built.dilatation_vector != (1,) * len(mono.f.domain)
    rates = [letter_growth(mono.f, "a").rate, letter_growth(built.sigma, built.start).rate]
    assert [len(r.poly) for r in rates] == [3, 4]
    sign_counts[0] = 0
    assert rates[0].compare(rates[1]) == 0 and rates[1].compare(rates[0]) == 0
    assert letter_growth(built.sigma, built.start) == letter_growth(mono.f, "a")
    assert sign_counts[0] == 0 and not spectral._RADIUS_REGISTRY


def test_nilpotent_and_multi_step_radii_compare_exactly(monkeypatch):
    monkeypatch.setattr(spectral, "_RADIUS_REGISTRY", OrderedDict())
    nilpotent = AlgebraicRadius.from_block(((0, 1), (0, 0)))
    assert spectral._radius_key(nilpotent.poly)[0] == (0, 1)
    assert nilpotent.compare(AlgebraicRadius.from_block(((0,),))) == 0
    assert nilpotent.compare(0) == 0 and nilpotent.compare(1) == -1
    assert nilpotent.compare(AlgebraicRadius.from_block(((1,),))) == -1
    lo, hi = nilpotent.value_enclosure()
    assert lo <= 0 == hi and hi - lo <= spectral.DEFAULT_WIDTH
    phi = AlgebraicRadius.from_block(PHI_BLOCKS[0])
    assert phi.compare(nilpotent) == 1 and not phi.is_root_of([5])
    assert phi.compare(AlgebraicRadius.from_block(mat_pow(PHI_BLOCKS[1], 2), 2)) == 0  # (phi^2)^(1/2)
    assert phi.compare(AlgebraicRadius.from_block(PHI_BLOCKS[1], 2)) == 1  # phi^(1/2)
    assert AlgebraicRadius.from_block(((8,),), 2).compare(AlgebraicRadius.from_block(((3,),))) == -1
    assert AlgebraicRadius.from_block(((4,),), 2).compare(TWO) == 0
    assert SQRT3.compare(AlgebraicRadius.from_block(((3, 0), (0, 3)), 2)) == 0
    assert SQRT3.compare(AlgebraicRadius.from_block(((27,),), 6)) == 0  # 27^(1/6)


# The first, third and fifth pairs come from a seeded search: random.Random(seed)
# draws block_a, 2x2 or 3x3 with equal odds, then block_b, 3x3, entries uniform
# in 0..4, and the first pair is kept that, on fresh locators and in both
# orders, compares with the given sign and runs the certificate exactly once,
# which fails; seed 3101 at equal steps, 3102 with block_b at step 2, and 3103
# with both padded with C (pairs whose value brackets at width 1/8 lie more
# than 1/4 apart are skipped unchecked).
@pytest.mark.parametrize(
    "block_a, block_b, step_b, sign, shared",
    [
        (((3, 0, 3), (3, 0, 2), (2, 4, 1)), ((0, 3, 2), (3, 0, 4), (1, 4, 1)), 1, -1, None),  # 6.11841 < 6.12647
        (((4, 1, 0), (3, 1, 2), (2, 0, 3)), ((4, 2), (3, 0)), 1, 1, None),  # 5.16425 > 5.16228
        (((1, 4), (1, 0)), ((4, 0, 2), (3, 3, 0), (2, 3, 3)), 2, 1, None),  # 2.56155 > 2.55976
        # both padded with C: the polynomials share (x - 2)(x + 1), roots outside the brackets
        (((0, 4, 3), (1, 3, 0), (2, 0, 0)), ((1, 4, 1), (1, 2, 1), (2, 1, 0)), 1, -1, ((0, 2), (1, 1))),
        (((2, 3), (2, 0)), ((2, 3, 1), (0, 1, 3), (1, 0, 1)), 1, -1, ((0, 2), (1, 1))),  # 3.64575 < 3.65425
    ],
)
def test_unequal_radii_whose_isolated_brackets_overlap_are_certified_once(block_a, block_b, step_b, sign, shared):
    """Both locators isolate their roots before the brackets separate: the
    equality certificate runs once, fails, and refinement goes on until the
    brackets separate; at different steps it runs on the radii raised to
    the common step.  With a shared diagonal block C the gcd is C's
    polynomial, whose roots lie outside the overlap of the brackets."""
    if shared is not None:
        pad = lambda block: tuple(row + (0,) * len(shared) for row in block) + tuple((0,) * len(block) + row for row in shared)
        block_a, block_b = pad(block_a), pad(block_b)
    a, b = AlgebraicRadius.from_block(block_a), AlgebraicRadius.from_block(block_b, step_b)
    inner = spectral._has_common_root

    def certificate(g, *locators):
        answers.append((len(g) > 1, inner(g, *locators)))
        return answers[-1][1]

    for x, y, want in ((a, b, sign), (b, a, -sign)):
        answers = []
        with pytest.MonkeyPatch.context() as patch:  # fresh locators, so the brackets start wide
            patch.setattr(spectral, "_RADIUS_REGISTRY", OrderedDict())
            patch.setattr(spectral, "_has_common_root", certificate)
            assert x.compare(y) == want
        assert answers == [(shared is not None, False)]
    assert (a.value_float() > b.value_float()) == (sign > 0)


def test_a_shared_locator_does_not_depend_on_which_block_asked_first():
    """[[2,1],[1,2]] and its padding with a zero column and the row (9, 9, 0)
    share the radius key x^2 - 4x + 3, but their row sums are 3 and 18: the
    enclosure of the root 3 is the same whichever block asks first."""
    blocks = (((2, 1), (1, 2)), ((2, 1, 0), (1, 2, 0), (9, 9, 0)))
    seen = []
    for order in (blocks, blocks[::-1]):
        with pytest.MonkeyPatch.context() as patch:  # a fresh registry per order
            patch.setattr(spectral, "_RADIUS_REGISTRY", OrderedDict())
            seen.append({block: AlgebraicRadius(block).root_enclosure(Fraction(1, 10**9)) for block in order})
    assert seen[0] == seen[1]
    lo, hi = seen[0][blocks[0]]
    assert lo <= 3 <= hi and hi - lo <= Fraction(1, 10**9)


def test_is_root_of_refuses_a_shared_factor_without_the_root(monkeypatch):
    """diag(phi's block, (1)) has the key (x^2 - x - 1)(x - 1) and the root
    phi: x - 1 and (x - 1)^2 share a factor with the key but not phi."""
    monkeypatch.setattr(spectral, "_RADIUS_REGISTRY", OrderedDict())
    radius = AlgebraicRadius.from_block(((1, 1, 0), (1, 0, 0), (0, 0, 1)))
    assert not radius.is_root_of([-1, 1]) and not radius.is_root_of([1, -2, 1])
    assert radius.is_root_of([-1, -2, 0, 1])  # (x^2 - x - 1)(x + 1)


def test_nilpotent_block_radius_is_the_zero_radius():
    # the radius key (0, 1) names the zero radius, so the block form equals zero()
    zero = AlgebraicRadius.zero()
    for block in (((0,),), ((0, 1), (0, 0))):
        radius = AlgebraicRadius.from_block(block)
        assert radius.is_zero
        assert radius.compare(zero) == 0 and zero.compare(radius) == 0
        assert radius.value_enclosure() == (0, 0) == spectral_radius_enclosure(block)
        assert radius.describe() == "0"


def test_radius_registry_is_a_bounded_lru(monkeypatch):
    monkeypatch.setattr(spectral, "_RADIUS_REGISTRY", OrderedDict())
    kept = AlgebraicRadius.from_block(PHI_BLOCKS[0])
    kept.root_enclosure()
    entry = kept._own_locator()
    for k in range(spectral._RADIUS_REGISTRY_SIZE + 20):
        AlgebraicRadius.from_block(((10**6 + k,),)).root_enclosure()
        assert kept._own_locator() is entry  # recently used, so never evicted
        assert len(spectral._RADIUS_REGISTRY) <= spectral._RADIUS_REGISTRY_SIZE
    assert (-(10**6), 1) not in spectral._RADIUS_REGISTRY  # the oldest went


def test_radius_keys_take_one_squarefree_gcd_per_polynomial(monkeypatch):
    """The radii of f, its powers, the monotone f and sigma rebuild the same
    characteristic polynomials; each builds one Sturm chain, however many
    radii ask for its key, and that chain also serves the key's locator."""
    monkeypatch.setattr(spectral, "_RADIUS_REGISTRY", OrderedDict())
    monkeypatch.setattr(spectral, "_DECOMP_CACHE", OrderedDict())
    spectral._key_of.cache_clear()
    requests, chains = [], []
    radius_key, sturm_chain = spectral._radius_key, spectral.sturm_chain

    def counted_key(poly):
        requests.append(tuple(poly))
        return radius_key(poly)

    def counted_chain(poly):
        chains.append(sturm_chain(poly))
        return chains[-1]

    monkeypatch.setattr(spectral, "_radius_key", counted_key)
    monkeypatch.setattr(spectral, "sturm_chain", counted_chain)
    for f, g, start in (baum_sweet_erasing(), thue_morse_projection()):
        normalize(MorphicPresentation(f, g, start))
    assert len(requests) > 2 * len(set(requests))
    assert len(chains) == len(set(requests))
    # every locator runs on a chain built for a key, not on a sequence of its own
    assert spectral._RADIUS_REGISTRY
    assert all(any(loc.chain is chain for chain in chains) for loc in spectral._RADIUS_REGISTRY.values())


def test_entry_growth_module_function_and_errors():
    m = IncidenceMatrix(((1, 1), (0, 1)))
    g = entry_growth(m, 0, 1, 0)
    assert g == GrowthType(AlgebraicRadius.from_rational(1), 1)
    with pytest.raises(Exception):
        entry_growth(m, 0, 1, 5)


def test_decomposition_cache_is_a_bounded_lru(monkeypatch):
    monkeypatch.setattr(spectral, "_DECOMP_CACHE", OrderedDict())
    kept = ((2, 1), (1, 1))
    dropped = ((3, 1), (1, 2))
    first = decompose(kept)
    assert decompose(kept) is first  # a repeated decompose is a cache hit
    old = decompose(dropped)
    for k in range(_DECOMP_CACHE_SIZE + 20):
        decompose(((10**6 + k,),))
        assert decompose(kept) is first  # recently used, so never evicted
        assert len(spectral._DECOMP_CACHE) <= _DECOMP_CACHE_SIZE
    rebuilt = decompose(dropped)
    assert rebuilt is not old and rebuilt.p == old.p


def test_decomposition_cache_is_keyed_on_entries_alone(monkeypatch):
    """Labels only name the letters: after analyze_morphism(f), the same
    entries under the default labels are a view of the cached
    decomposition, with no second cache entry and no new locator, and its
    block report names the caller's labels."""
    monkeypatch.setattr(spectral, "_DECOMP_CACHE", OrderedDict())
    f = morphism_from_chars({"a": "ab", "b": "ba"})
    report = spectral.analyze_morphism(f)
    made = []
    inner = LargestRootLocator.from_chain
    monkeypatch.setattr(LargestRootLocator, "from_chain", lambda chain: made.append(chain) or inner(chain))
    rows = incidence_matrix(f).rows
    lo, hi = spectral_radius_enclosure(rows)
    assert lo <= 2 <= hi
    assert len(spectral._DECOMP_CACHE) == 1 and not made
    view = decompose(rows)
    assert view.radii is decompose(incidence_matrix(f)).radii
    assert [b["letters"] for b in report["blocks"]] == [["a", "b"]]
    assert [b["letters"] for b in view.blocks_as_json()] == [["1", "2"]]
    assert len(spectral._DECOMP_CACHE) == 1 and not made


def _reference_cases():
    rng = random.Random(7107)
    cases = [random_matrix(rng, rng.randint(1, 8), zero_chance=rng.choice((0.5, 0.7, 0.8))) for _ in range(40)]
    for _ in range(8):  # dilated pairs: the base and its dilation
        base = random_matrix(rng, rng.randint(2, 4), zero_chance=0.5)
        cases += [base, random_dilation(rng, base, [rng.randint(1, 3) for _ in base])]
    cases += [
        cycle_chain((2, 3, 5), (2, 3, 2)),
        cycle_chain((3, 4, 5), (2, 1, 3)),
        cycle_chain((2, 5, 7), (3, 3, 2)),
        cycle_chain((3, 4), (1, 1), ((1, 2), (1, 0))),
        cycle_chain((2, 3), (3, 2), ((0, 1), (1, 1))),
        cycle_chain((2, 4), (4, 16)),  # two components of radius 2
        cycle_chain((3, 3, 1), (2, 2, 1), ((1, 1), (1, 1))),
        demo_matrix().rows,
    ]
    return cases


def _holds_largest_root(radius, lo, hi):
    """[lo, hi] contains the largest real root of the radius's polynomial."""
    poly = list(radius.poly)
    chain = sturm_chain(poly)
    bound = Fraction(max(1, max(sum(row) for row in radius.block)))
    return count_roots_closed(poly, chain, lo, hi) >= 1 and count_roots_halfopen(chain, hi, bound) == 0


def test_decomposition_matches_the_direct_construction():
    """Blocks read from the pattern of M^p and classes from the components
    of M agree with the bignum M^p and block-by-block comparisons."""
    for rows in _reference_cases():
        dec = BlockDecomposition(rows)
        ref = ReferenceDecomposition(rows)
        assert (dec.p, dec.blocks, dec.kinds, dec.block_of) == (ref.p, ref.blocks, ref.kinds, ref.block_of), rows
        assert dec.class_of_block == ref.class_of_block, rows
        assert dec.block_matrices == ref.block_matrices
        assert [r.poly for r in dec.radii] == [r.poly for r in ref.radii]
        assert [r.poly for r in dec.class_radii] == [r.poly for r in ref.class_radii]
        assert [r.describe() for r in dec.radii] == [r.describe() for r in ref.radii]
        assert [r.describe() for r in dec.class_radii] == [r.describe() for r in ref.class_radii]
        for radius in dec.radii:
            if radius.is_zero:
                continue
            for width in (Fraction(1, 16), Fraction(1, 10**9)):
                lo, hi = radius.root_enclosure(width)
                assert hi - lo <= width and _holds_largest_root(radius, lo, hi), rows


def test_decompose_at_p_5544_compares_components_and_forms_no_full_power(monkeypatch):
    """Weighted 7-, 8-, 9- and 11-cycles and a primitive 2x2 block: the
    classes come from comparing the five components at their periods, and
    no power of the whole matrix or of a whole cycle is formed, not even
    for the block matrices."""
    tail = ((1, 2), (1, 0))
    rows = cycle_chain((7, 8, 9, 11), (2, 3, 2, 3), tail)
    n = len(rows)
    sizes = []
    inner_pow = spectral.mat_pow
    monkeypatch.setattr(spectral, "mat_pow", lambda a, e: sizes.append(len(a)) or inner_pow(a, e))
    steps = []
    inner_compare = AlgebraicRadius.compare

    def compare(self, other):
        if isinstance(other, AlgebraicRadius):
            steps.append((self.step, other.step))
        return inner_compare(self, other)

    monkeypatch.setattr(AlgebraicRadius, "compare", compare)
    dec = BlockDecomposition(rows)
    assert dec.p == 5544
    periods = {1, 7, 8, 9, 11}
    assert steps and {h for pair in steps for h in pair} <= periods and len(steps) <= 8
    assert not sizes  # nothing is built yet
    # 2^(1/9) < 2^(1/7) < 3^(1/11) < 3^(1/8) < 2, one class per component
    expected = [1] * 7 + [3] * 8 + [0] * 9 + [2] * 11 + [4] * 2
    assert [dec.class_of_block[dec.block_of[v]] for v in range(n)] == expected
    compared = list(steps)
    mats = dec.block_matrices
    assert set(sizes) == {1, 2}  # each cycle block is a 1x1 class block's power, the tail's its own
    assert mats[dec.block_of[n - 1]] == mat_pow(tail, 5544)
    assert mats[dec.block_of[0]] == ((2**792,),)  # (weight^(p/7)) for the 7-cycle
    assert steps == compared


@pytest.mark.parametrize("tail", [((1, 2), (1, 0)), ((1, 1), (1, 0))])
def test_block_report_at_p_5544_refines_by_exact_newton(sign_counts, tail):
    """The 2x2 tail's block of M^5544 has a root of about 5,545 bits, past
    the float range; bisecting it to 1e-9 took 5,718 sign counts for the
    whole report.  Exact Newton from the root bound needs at most 400, and
    every enclosure holds its block's largest root at the width asked."""
    rows = cycle_chain((7, 8, 9, 11), (2, 3, 2, 3), tail)
    dec = BlockDecomposition(rows)
    width = Fraction(1, 10**9)
    sign_counts[0] = 0
    report = dec.blocks_as_json(width)
    assert sign_counts[0] <= 400
    for radius, block in zip(dec.radii, report):
        lo, hi = map(Fraction, block["radius"]["enclosure"])
        assert hi - lo <= width and _holds_largest_root(radius, lo, hi), block["letters"]


@pytest.mark.parametrize("tail, text", [(((1, 2), (1, 0)), "2"), (((1, 1), (1, 0)), "~1.61803398875")])
def test_describe_at_p_5544_reads_the_value_off_the_components(monkeypatch, tail, text):
    """The class radii of the p = 5544 chain print as the small matrices
    say, and no Sturm count or refinement runs on a 5544-bit block
    polynomial: the defining root rho(B)^(p/h) is rational exactly when
    the Perron root of the primitive class block B of the component is,
    which is decided on B itself, and the value is enclosed as
    rho(B)^(1/h) at the component's period h."""
    rows = cycle_chain((7, 8, 9, 11), (2, 3, 2, 3), tail)
    dec = BlockDecomposition(rows)
    steps = []

    def component_steps_only(inner):
        def watched(self, *args):
            if self.step not in {1, 7, 8, 9, 11}:  # fail at once: a block-power step runs for minutes
                raise AssertionError(f"{inner.__name__} on a step-{self.step} radius")
            steps.append(self.step)
            return inner(self, *args)
        return watched

    for name in ("_compare_root", "root_enclosure"):
        monkeypatch.setattr(AlgebraicRadius, name, component_steps_only(getattr(AlgebraicRadius, name)))
    texts = [radius.describe() for radius in dec.class_radii]
    assert texts == [f"{w ** (5544 // h)}^(1/5544)" for w, h in ((2, 9), (2, 7), (3, 11), (3, 8))] + [text]
    assert steps


def _primitive_tail(rng, n):
    """A random n x n primitive block: a weighted Hamiltonian cycle, a
    self-loop, and random entries up to 3."""
    rows = [list(row) for row in random_matrix(rng, n, zero_chance=0.7)]
    for i in range(n):
        rows[i][(i + 1) % n] = rows[i][(i + 1) % n] or 1
    rows[0][0] = rows[0][0] or 1
    return tuple(map(tuple, rows))


def _bipartite_tail(a, b):
    """The block [[0, a], [b, 0]] of period 2, whose class blocks are a b and b a."""
    n = len(a)
    top = tuple(tuple([0] * n) + tuple(row) for row in a)
    return top + tuple(tuple(row) + tuple([0] * n) for row in b)


def test_rational_root_from_the_component_matches_the_block_bisection():
    """Weighted cycles and primitive blocks at small p: the defining root
    read off the component is the one found by bisecting the integers on
    the block's own polynomial.  The cases include class blocks B with
    |B| >= 2 where p / h has divisors d <= |B| (random 6 x 6 blocks behind
    a 60-cycle, 2 x 2 classes of a period-2 component behind a 4-cycle),
    rational and irrational, where no rho(B)^d with d > 1 is rational."""
    rng = random.Random(7311)
    cases = [cycle_chain((2, 3, 4), (4, 2, 9), ((1, 1), (1, 0))), cycle_chain((2, 6), (9, 64), ((2, 0), (0, 2)))]
    cases += [random_matrix(rng, rng.randint(2, 7), zero_chance=0.6) for _ in range(30)]
    cases += [cycle_chain((60,), (2,), _primitive_tail(rng, 6)) for _ in range(3)]
    cases += [cycle_chain((4, 3), (2, 1), ((1, 1), (1, 1))), cycle_chain((3, 4), (5, 1), ((2, 1), (2, 1)))]
    cases += [
        cycle_chain((4,), (3,), _bipartite_tail(((1, 1), (1, 0)), ((1, 0), (1, 1)))),
        cycle_chain((4,), (3,), _bipartite_tail(((1, 1), (1, 1)), ((1, 1), (1, 1)))),
        cycle_chain((4,), (3,), _bipartite_tail(((2, 1), (1, 1)), ((1, 0), (0, 1)))),
    ]
    for rows in cases:
        dec = BlockDecomposition(rows)
        for radius in dec.radii:
            if radius.is_zero or dec.p == 1:
                continue
            direct = AlgebraicRadius.from_block(radius.block, radius.step)
            assert radius._rational_root() == direct._rational_root(), rows
            assert radius.describe() == direct.describe(), rows


def test_describing_a_class_radius_forms_no_block_power(monkeypatch):
    """A 2-, 3-cycle chain with a golden-ratio tail (p = 6, |B| = 2, and
    p / h = 6 has the divisor 2 <= |B|): the class radii describe from
    their components, with no power of a class block and no radius key
    but the tail's own in the registry."""
    monkeypatch.setattr(spectral, "_RADIUS_REGISTRY", OrderedDict())
    tail = ((1, 1), (1, 0))
    dec = BlockDecomposition(cycle_chain((2, 3), (3, 2), tail))
    before = set(spectral._RADIUS_REGISTRY)
    powers = []
    for module in (spectral, intmat):
        inner = module.mat_pow
        monkeypatch.setattr(module, "mat_pow", lambda a, e, inner=inner: powers.append(e) or inner(a, e))
    raised = spectral.AlgebraicRadius._raised
    monkeypatch.setattr(AlgebraicRadius, "_raised", lambda self, e: powers.append(e) or raised(self, e))
    texts = [radius.describe() for radius in dec.class_radii]
    assert texts == ["4^(1/6)", "~1.61803398875", "27^(1/6)"]
    assert not powers
    key = spectral._radius_key(charpoly(tail))[0]
    assert set(spectral._RADIUS_REGISTRY) - before <= {key} and key in spectral._RADIUS_REGISTRY


def test_one_lazy_radius_is_built_once_from_eight_threads(monkeypatch):
    built = []
    inner = spectral._power_block

    def slow(*args):
        built.append(args)
        time.sleep(0.05)  # let the other threads arrive while the block is built
        return inner(*args)

    monkeypatch.setattr(spectral, "_power_block", slow)
    tail = ((1, 1), (1, 0))
    rows = cycle_chain((2, 3), (3, 2), tail)  # p = 6
    dec = BlockDecomposition(rows)
    assert not built
    radius = dec.radii[dec.block_of[len(rows) - 1]]
    barrier = threading.Barrier(8)
    results, errors = [], []

    def work(polls):
        try:
            barrier.wait()
            # a zero verdict read while another thread builds the block
            # would send the radius below every other
            if any(radius.is_zero for _ in range(polls)):
                errors.append("is_zero")
            results.append((radius.root_enclosure(Fraction(1, 10**9)), radius.poly, radius.describe()))
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(2000 * (k % 2),)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(built) == 1
    assert len(results) == 8
    for (lo, hi), poly, text in results:  # another thread may have refined further
        assert hi - lo <= Fraction(1, 10**9) and _holds_largest_root(radius, lo, hi)
        assert (poly, text) == results[0][1:]
    assert radius.block == mat_pow(tail, 6)
    assert radius.poly == tuple(charpoly(mat_pow(tail, 6)))


def test_lazy_block_and_poly_are_built_once_and_never_read_as_zero(monkeypatch):
    """Eight threads read block and poly of one on-demand radius of a p = 6
    decomposition, polling is_zero before and after: one _power_block
    call, one shared (block, poly) pair, and never a zero verdict."""
    built = []
    inner = spectral._power_block

    def slow(*args):
        built.append(args)
        time.sleep(0.05)  # let the other threads arrive while the block is built
        return inner(*args)

    monkeypatch.setattr(spectral, "_power_block", slow)
    tail = ((1, 1), (1, 0))
    dec = BlockDecomposition(cycle_chain((2, 3), (3, 2), tail))
    radius = dec.radii[dec.block_of[len(dec.matrix.rows) - 1]]
    barrier = threading.Barrier(8)
    results, errors = [], []

    def work(k):
        try:
            barrier.wait()
            zero = radius.is_zero
            if k % 2:
                block, poly = radius.block, radius.poly
            else:
                poly, block = radius.poly, radius.block
            if zero or any(radius.is_zero for _ in range(500)):
                errors.append(("is_zero", k))
            results.append((block, poly))
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(built) == 1 and len(results) == 8
    assert all(block is results[0][0] and poly is results[0][1] for block, poly in results)
    assert results[0] == (mat_pow(tail, 6), tuple(charpoly(mat_pow(tail, 6))))
