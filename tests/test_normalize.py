"""The erasure-removal pipeline and its invariants."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from morphlab import (
    Alphabet,
    DomainMismatchError,
    FiniteWordError,
    GrowthType,
    InvariantError,
    AlgebraicRadius,
    MorphicPresentation,
    Morphism,
    apply,
    compose,
    erase_and_restrict,
    image_prefix,
    incidence_matrix,
    is_dilated,
    largest_erasable,
    letter_growth,
    morphism_from_chars,
    mortal_letters,
    normalize,
    power,
    prefix_equal,
    Word,
)
from morphlab import words
from morphlab.fixtures import baum_sweet_erasing, baum_sweet_uniform, thue_morse_projection
from morphlab.normalize import (
    _assert_monotone,
    _settle_power,
    build_sigma_tau,
    eliminate_effacement,
    growth_trichotomy,
    make_monotone,
    monotone_powers,
)
from morphlab.intmat import charpoly, mat_pow, submatrix
from morphlab.spectral import cyclicity

from util import meets_length_condition, random_presentations


def test_remove_mortal_non_erasing_is_identity():
    sigma, _, _ = baum_sweet_uniform()
    f_i, k = erase_and_restrict(sigma, mortal_letters(sigma)), len(mortal_letters(sigma))
    assert k == 0 and f_i == sigma


def test_remove_mortal_baum_sweet_erasing():
    sp, _, _ = baum_sweet_erasing()
    f_i, k = erase_and_restrict(sp, mortal_letters(sp)), len(mortal_letters(sp))
    assert k == 1
    assert f_i.domain.letters == ("a", "b", "c", "d", "e")
    expected = {"a": "abe", "b": "ceb", "c": "bd", "d": "ded", "e": "e"}
    for letter, image in expected.items():
        assert f_i.image(letter).text() == image


def test_remove_mortal_composition_identity():
    # f^l o f_I^n agrees with f^(n+l) on immortal letters, for l >= k
    sp, _, a = baum_sweet_erasing()
    f_i, k = erase_and_restrict(sp, mortal_letters(sp)), len(mortal_letters(sp))
    for l in range(k, k + 2):
        for n in range(0, 3):
            fl = power(sp, l)
            fin = power(f_i, n)
            rhs = power(sp, n + l)
            for b in f_i.domain:
                assert apply(fl, fin.image(b)) == rhs.image(b)
    # and the incidence matrix is the immortal sub-matrix
    full = incidence_matrix(sp)
    idx = [full.index_of(l) for l in f_i.domain.letters]
    sub = tuple(tuple(full.rows[i][j] for j in idx) for i in idx)
    assert incidence_matrix(f_i).rows == sub


def test_degenerate_presentation_is_a_finite_word():
    f = morphism_from_chars({"a": "ax", "x": ""})
    g = morphism_from_chars({"a": "a", "x": "x"})
    # |f^n(a)| stays bounded, so prolongability already fails
    with pytest.raises(Exception):
        MorphicPresentation(f, g, "a")


def test_largest_erasable_examples():
    sp, tp, _ = baum_sweet_erasing()
    assert largest_erasable(sp, tp) == ("e", "f")
    sigma, tau, _ = baum_sweet_uniform()
    assert largest_erasable(sigma, tau) == ()
    f = morphism_from_chars({"a": "ab", "b": "a"})
    g = morphism_from_chars({"a": "a", "b": ""})
    assert largest_erasable(f, g) == ()


def test_eliminate_effacement_baum_sweet():
    sp, tp, a = baum_sweet_erasing()
    eff = eliminate_effacement(MorphicPresentation(sp, tp, a))
    assert eff.p == 1
    assert eff.kept.letters == ("a", "b", "c", "d")
    sigma, _, _ = baum_sweet_uniform()
    assert eff.f_prime == sigma
    assert eff.f_prime.is_non_erasing and eff.g_prime.is_non_erasing
    # one merged round removes the mortal letter f together with {e, f}
    assert eff.removed == ("e", "f")
    assert eff.k_seq == (1,)
    assert eff.visibility_power == 0


def test_eliminate_effacement_thue_morse():
    f, g, a = thue_morse_projection()
    eff = eliminate_effacement(MorphicPresentation(f, g, a))
    assert eff.kept.letters == ("a", "b")
    assert eff.f_prime == morphism_from_chars({"a": "ab", "b": "ba"})
    assert eff.g_prime.image("a").text() == "a"
    assert eff.g_prime.image("b").text() == "b"


def test_eliminate_effacement_non_erasing_unchanged():
    sigma, tau, a = baum_sweet_uniform()
    eff = eliminate_effacement(MorphicPresentation(sigma, tau, a))
    assert eff.f_prime == power(sigma, eff.p)
    assert eff.g_prime == tau
    assert eff.k_seq == () and eff.visibility_power == 0


def test_eliminate_effacement_finite_word_error():
    f = morphism_from_chars({"a": "ab", "b": "bb"})
    g = morphism_from_chars({"a": "a", "b": ""})
    # g kills the whole growing part; only a single 'a' remains visible
    with pytest.raises(FiniteWordError):
        eliminate_effacement(MorphicPresentation(f, g, "a"))


def test_growth_trichotomy_cases():
    f, g, a = thue_morse_projection()
    eff = eliminate_effacement(MorphicPresentation(f, g, a))
    case, new_growth = growth_trichotomy(f, a, eff.f_prime, eff.kept, eff.p)
    assert case == 2
    assert new_growth == GrowthType(AlgebraicRadius.from_rational(2), 0)

    sigma, tau, a2 = baum_sweet_uniform()
    eff2 = eliminate_effacement(MorphicPresentation(sigma, tau, a2))
    case2, growth2 = growth_trichotomy(sigma, a2, eff2.f_prime, eff2.kept, eff2.p)
    assert case2 == 1  # nothing was discarded
    assert growth2 == GrowthType(AlgebraicRadius.from_rational(2), 0)

    poly = morphism_from_chars({"a": "ab", "b": "b"})
    ident = morphism_from_chars({"a": "a", "b": "b"})
    eff3 = eliminate_effacement(MorphicPresentation(poly, ident, "a"))
    case3, growth3 = growth_trichotomy(poly, "a", eff3.f_prime, eff3.kept, eff3.p)
    assert case3 == 1
    assert growth3 == GrowthType(AlgebraicRadius.from_rational(1), 1)


def test_growth_trichotomy_case_three():
    # two independent rate-2 components; the erased one is spectrally visible
    f = morphism_from_chars({"a": "abb", "b": "bb", "c": "cc"})
    g = morphism_from_chars({"a": "a", "b": "b", "c": ""})
    eff = eliminate_effacement(MorphicPresentation(f, g, "a"))
    assert eff.kept.letters == ("a", "b")
    case, growth = growth_trichotomy(f, "a", eff.f_prime, eff.kept, eff.p)
    assert case == 3
    assert growth == GrowthType(AlgebraicRadius.from_rational(2), 0)


def test_growth_trichotomy_matches_the_spectrum_of_the_full_power():
    """S read off the blocks of Mat_f^p inside the discarded letters decides
    as the characteristic polynomial of the discarded sub-block of the
    bignum Mat_f^p does."""
    presentations = random_presentations(random.Random(2718), 60) + [
        MorphicPresentation(*thue_morse_projection()),  # case 2
        MorphicPresentation(morphism_from_chars({"a": "abb", "b": "bb", "c": "cc"}),
                            morphism_from_chars({"a": "a", "b": "b", "c": ""}), "a"),  # case 3
    ]
    cases = []
    for pres in presentations:
        eff = eliminate_effacement(pres)
        case, new_growth = growth_trichotomy(pres.f, pres.start, eff.f_prime, eff.kept, eff.p)
        power = mat_pow(incidence_matrix(pres.f).rows, eff.p)
        idx = [k for k, b in enumerate(pres.f.domain) if b not in eff.kept]
        rate = letter_growth(pres.f, pres.start).rate
        in_s = bool(idx) and AlgebraicRadius.from_block(rate.block, 1).is_root_of(charpoly(submatrix(power, idx)))
        assert case == (3 if in_s and new_growth.rate.compare(rate) == 0 else 2 if in_s else 1), pres
        cases.append(case)
    assert set(cases) == {1, 2, 3}


def test_growth_trichotomy_rejects_a_discarded_set_that_splits_a_block():
    f, _, a = thue_morse_projection()  # the blocks of Mat_f are {a, b} and {c}
    with pytest.raises(InvariantError):
        growth_trichotomy(f, a, f, Alphabet("a"), 1)


def test_make_monotone_uniform_case():
    sigma, tau, a = baum_sweet_uniform()
    mono = make_monotone(sigma, tau, a)
    assert mono.settle_power == 0
    assert mono.stretch_power == 1
    assert mono.f == sigma and mono.g == tau


def test_make_monotone_stretch_guard():
    f = morphism_from_chars({"a": "ab", "b": "b"})
    g = morphism_from_chars({"a": "a", "b": "b"})
    mono = make_monotone(f, g, "a")
    assert mono.settle_power == 0
    assert mono.stretch_power == 1  # the search starts at q = 1
    _assert_length_condition(mono.f, mono.g, "a")


@pytest.mark.parametrize("long_image", [8, 16, 30])
def test_make_monotone_stretch_family_takes_the_least_power(long_image):
    # a witness-cost bound would give q = |g(b)| - 1; q = 1 already qualifies
    f = morphism_from_chars({"a": "ab", "b": "bb"})
    g = morphism_from_chars({"a": "0", "b": "1" * long_image})
    assert monotone_powers(f, g, "a")[1] == 1  # before anything is built
    report = normalize(MorphicPresentation(f, g, "a"))
    assert report.stretch_power == 1
    # sigma(a.0) = a.0 b.0 ... b.(L-1); the L letters b.i share alpha(bb)
    assert sum(len(report.sigma.image(b)) for b in report.sigma.domain) == 3 * long_image + 1
    out = image_prefix(report.tau, report.sigma, report.start, 300)
    assert prefix_equal(image_prefix(g, f, "a", 300), out, 300)


def test_stretch_power_is_the_least_that_meets_the_condition():
    fixtures = (baum_sweet_erasing, baum_sweet_uniform, thue_morse_projection)
    presentations = [MorphicPresentation(*fx()) for fx in fixtures]
    for pres in presentations + random_presentations(random.Random(101), 12):
        eff = eliminate_effacement(pres)
        _, q, lengths2 = monotone_powers(eff.f_prime, eff.g_prime, pres.start)
        rows = incidence_matrix(eff.f_prime).rows
        si = eff.f_prime.domain.index(pres.start)
        assert 1 <= q <= len(rows) * max(lengths2)
        assert meets_length_condition(rows, lengths2, q, si)
        for smaller in range(1, q):
            assert not meets_length_condition(rows, lengths2, smaller, si), (pres, smaller)


def test_make_monotone_settling_letters():
    # c relabels through d to a fixed letter; settling takes two steps
    f = morphism_from_chars({"a": "ac", "c": "d", "d": "e", "e": "e"})
    g = morphism_from_chars({"a": "0", "c": "10", "d": "1", "e": "01"})
    mono = make_monotone(f, g, "a")
    assert mono.settle_power == 2
    _assert_length_condition(mono.f, mono.g, "a")


def test_make_monotone_requires_cyclicity_one():
    f = morphism_from_chars({"a": "ab", "b": "c", "c": "b"})
    g = morphism_from_chars({"a": "0", "b": "1", "c": "1"})
    assert cyclicity(incidence_matrix(f)) == 2
    with pytest.raises(DomainMismatchError):
        make_monotone(f, g, "a")


def test_growing_letter_witnesses_exist_within_alphabet_bound():
    rng = random.Random(101)
    for pres in random_presentations(rng, 12):
        eff = eliminate_effacement(pres)
        f = eff.f_prime
        rows = incidence_matrix(f).rows
        m = len(f.domain)
        powers = [mat_pow(rows, n) for n in range(m + 1)]
        for b in f.domain:
            growth = letter_growth(f, b)
            growing = growth.degree >= 1 or growth.rate.compare(1) > 0
            if not growing:
                continue
            bi = f.domain.index(b)
            witnesses = []
            for c in f.domain:
                if len(f.image(c)) < 2:
                    continue
                ci = f.domain.index(c)
                loop = next((l for l in range(1, m + 1) if powers[l][ci][ci] > 0), None)
                hit = next((k for k in range(m + 1) if powers[k][ci][bi] > 0), None)
                if loop is not None and hit is not None:
                    witnesses.append((c, hit, loop))
            assert witnesses, (f, b)


def _assert_length_condition(f, g, start):
    for b in f.domain:
        before = len(g.image(b))
        after = sum(len(g.image(x)) for x in f.image(b))
        assert after >= before
        if b == start:
            assert after > before


def test_build_sigma_tau_coding_input_is_renaming():
    sigma, tau, a = baum_sweet_uniform()
    mono = make_monotone(sigma, tau, a)
    built = build_sigma_tau(mono.f, mono.g, a)
    assert built.start == "a.0"
    assert built.dilatation_vector == (1, 1, 1, 1)
    rename = {b: f"{b}.0" for b in sigma.domain}
    for b in sigma.domain:
        expected = [rename[x] for x in sigma.image(b)]
        assert list(built.sigma.image(rename[b]).letters()) == expected
        assert built.tau.image(rename[b]).text() == tau.image(b).text()


def test_build_sigma_tau_requires_length_condition():
    f = morphism_from_chars({"a": "ab", "b": "c", "c": "c"})
    g = morphism_from_chars({"a": "0", "b": "11", "c": "1"})
    # |g(f(b))| = |g(c)| = 1 < 2 = |g(b)|
    with pytest.raises(DomainMismatchError):
        build_sigma_tau(f, g, "a")


def test_build_sigma_tau_start_piece_has_two_symbols():
    rng = random.Random(102)
    for pres in random_presentations(rng, 8):
        eff = eliminate_effacement(pres)
        mono = make_monotone(eff.f_prime, eff.g_prime, pres.start)
        built = build_sigma_tau(mono.f, mono.g, pres.start)
        first = built.sigma.image(built.start)
        assert len(first) >= 2
        assert first.letters()[0] == built.start


def test_normalize_baum_sweet_word():
    sp, tp, a = baum_sweet_erasing()
    report = normalize(MorphicPresentation(sp, tp, a))
    assert report.sigma.is_non_erasing
    assert report.tau.is_coding
    out = image_prefix(report.tau, report.sigma, report.start, 16)
    assert out.text() == "1101100101001001"


def test_normalize_thue_morse_matches_direct_morphism():
    f, g, a = thue_morse_projection()
    report = normalize(MorphicPresentation(f, g, a))
    assert report.trichotomy_case == 2
    assert report.output_growth == GrowthType(AlgebraicRadius.from_rational(2), 0)
    tm = morphism_from_chars({"a": "ab", "b": "ba"})
    expected = tm, "a"
    w1 = image_prefix(report.tau, report.sigma, report.start, 2000)
    from morphlab import fixed_point_prefix

    w2 = fixed_point_prefix(*expected, 2000)
    assert prefix_equal(w1, w2, 2000)


def test_normalize_already_normalized_is_isomorphic():
    sigma, tau, a = baum_sweet_uniform()
    report = normalize(MorphicPresentation(sigma, tau, a))
    rename = {b: f"{b}.0" for b in sigma.domain}
    for b in sigma.domain:
        assert list(report.sigma.image(rename[b]).letters()) == [
            rename[x] for x in sigma.image(b)
        ]
    assert report.dilatation_vector == (1, 1, 1, 1)


def test_pipeline_invariants_random():
    rng = random.Random(103)
    for pres in random_presentations(rng, 20):
        report = normalize(pres)
        f, g = pres.f, pres.g
        # every stage generates the same word
        reference = image_prefix(g, f, pres.start, 500)
        for stage in report.stages:
            stage_start = report.start if stage.name == "paired" else pres.start
            stage_word = image_prefix(stage.g, stage.f, stage_start, 500, max_pump=10**6)
            assert prefix_equal(reference, stage_word, 500), stage.name
        final = image_prefix(report.tau, report.sigma, report.start, 500)
        assert prefix_equal(reference, final, 500)
        # structural invariants
        assert report.sigma.is_non_erasing
        assert report.tau.is_coding
        mono_f, mono_g = report.stages[-2].f, report.stages[-2].g
        _assert_length_condition(mono_f, mono_g, pres.start)
        pairing = report.pairing
        for b in mono_f.domain:
            assert apply(report.sigma, apply(pairing, Word.from_letters(mono_f.domain, (b,)))) == apply(
                pairing, mono_f.image(b)
            )
        assert is_dilated(
            incidence_matrix(report.sigma).rows,
            incidence_matrix(mono_f).rows,
            report.dilatation_vector,
        )
        assert report.dilatation_vector == tuple(len(mono_g.image(b)) for b in mono_f.domain)
        assert letter_growth(report.sigma, report.start) == letter_growth(mono_f, pres.start)


def test_effacement_fixpoint_property():
    rng = random.Random(104)
    for pres in random_presentations(rng, 15):
        eff = eliminate_effacement(pres)
        assert mortal_letters(eff.f_prime) == ()
        assert largest_erasable(eff.f_prime, eff.g_before_visibility) == ()


def test_effacement_matrix_is_submatrix_of_power():
    rng = random.Random(106)

    for pres in random_presentations(rng, 10):
        eff = eliminate_effacement(pres)
        full = incidence_matrix(pres.f)
        powered = mat_pow(full.rows, eff.p)
        idx = [full.index_of(l) for l in eff.kept.letters]
        sub = tuple(tuple(powered[i][j] for j in idx) for i in idx)
        assert incidence_matrix(eff.f_prime).rows == sub


def test_non_growing_letters_match_word_stabilization():
    rng = random.Random(107)
    from morphlab.normalize import _growing_letters

    for pres in random_presentations(rng, 10):
        eff = eliminate_effacement(pres)
        f = eff.f_prime
        m = len(f.domain)
        matrix = incidence_matrix(f)
        if sum(x for row in mat_pow(matrix.rows, m) for x in row) > 10**5:
            continue  # f^m would be large; covered by other seeds
        fm1, fm = power(f, m - 1), power(f, m)
        growing = _growing_letters(f)
        for b in f.domain:
            bounded = b not in growing
            word_stable = fm1.image(b) == fm.image(b)
            assert bounded == word_stable, (f, b)


def _lemma_order_swapped(pres):
    """Strip erased letters before mortals in each round; same word comes out."""
    f = power(pres.f, cyclicity(incidence_matrix(pres.f)))
    g = pres.g
    a = pres.start
    while True:
        erasable = largest_erasable(f, g)
        if erasable:
            if a in erasable:
                raise FiniteWordError("finite")
            f = erase_and_restrict(f, erasable)
            g = g.restrict_domain(f.domain.letters)
            continue
        mortals = mortal_letters(f)
        if mortals:
            if a in mortals:
                raise FiniteWordError("finite")
            k = len(mortals)
            gk = compose(g, power(f, k))
            f = erase_and_restrict(f, mortals)
            g = gk.restrict_domain(f.domain.letters)
            continue
        break
    return f, g


def test_effacement_order_swap_gives_same_word_and_alphabet():
    rng = random.Random(105)
    for pres in random_presentations(rng, 12):
        eff = eliminate_effacement(pres)
        f2, g2 = _lemma_order_swapped(pres)
        assert set(f2.domain.letters) == set(eff.kept.letters)
        w1 = image_prefix(eff.g_prime, eff.f_prime, pres.start, 400)
        w2 = image_prefix(g2, f2, pres.start, 400, max_pump=10**6)
        assert prefix_equal(w1, w2, 400)


def test_growth_trichotomy_rejects_a_wrong_cyclicity_power():
    f, g, a = thue_morse_projection()
    eff = eliminate_effacement(MorphicPresentation(f, g, a))
    with pytest.raises(DomainMismatchError):
        growth_trichotomy(f, a, eff.f_prime, eff.kept, eff.p + 1)


def test_failed_internal_checks_raise_invariant_error():
    with pytest.raises(InvariantError):
        _assert_monotone(((1, 0), (0, 1)), (1, 1), 1, 0)  # not strict at the start letter
    with pytest.raises(InvariantError):
        _settle_power(morphism_from_chars({"a": "ab", "b": "b"}), "a", 2)  # a grows


# cycles of lengths 4 and 5 behind a -> a a c0_0 c1_0: the cyclicity is 20,
# and g keeps a and each cycle's first letter
CYCLES_P20 = """
import resource, sys
from morphlab import Morphism, MorphicPresentation, normalize
cycles = [[f"c{i}_{t}" for t in range(n)] for i, n in enumerate((4, 5))]
f = {"a": ("a", "a", "c0_0", "c1_0")}
g = {"a": ("a",)}
for cycle in cycles:
    for t, letter in enumerate(cycle):
        f[letter] = (cycle[(t + 1) % len(cycle)],)
        g[letter] = (letter,) if t == 0 else ()
report = normalize(MorphicPresentation(Morphism.from_rules(f), Morphism.from_rules(g), "a"))
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(sum(map(len, report.sigma.images)), rss if sys.platform == "darwin" else rss * 1024)
"""


def test_p20_cliff_normalizes_in_little_memory():
    """sigma holds 2,149,018 symbols; as one byte each (codes over at most
    256 letters are bytes), the whole normalization peaks below 64 MiB."""
    env = os.environ.copy()
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH", "")]))
    # a child's ru_maxrss starts at the RSS of the process that forked it, so
    # the child is started by a fresh interpreter, not by this test process
    launcher = "import subprocess, sys; sys.exit(subprocess.run([sys.executable, '-c', sys.argv[1]]).returncode)"
    result = subprocess.run(
        [sys.executable, "-c", launcher, CYCLES_P20], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    symbols, peak = map(int, result.stdout.split())
    assert symbols == 2_149_018
    assert peak < 64 * 2**20, f"peak RSS {peak / 2**20:.1f} MiB"


def test_p20_normalize_counts_each_morphism_once(monkeypatch):
    """The stages share the facts they derive from a morphism: on the p = 20
    presentation every morphism's letters are counted (words._counts, one
    call per image) at most once, where 8 of 12 count matrices were
    recounts when each stage counted for itself."""
    counted = {}  # id -> [morphism, _counts calls]; the morphism is kept so no id is reused
    plain = words._counts

    def counts(codes, n):
        frame = sys._getframe(1)
        while frame.f_code.co_filename == words.__file__ and not isinstance(frame.f_locals.get("f"), Morphism):
            frame = frame.f_back
        f = frame.f_locals.get("f")
        assert isinstance(f, Morphism), "letters counted outside a morphism's count matrix"
        counted.setdefault(id(f), [f, 0])[1] += 1
        return plain(codes, n)

    monkeypatch.setattr(words, "_counts", counts)
    f, g = {"a": ("a", "a", "p0", "q0")}, {"a": ("a",)}
    for name, n in (("p", 4), ("q", 5)):
        for t in range(n):
            f[f"{name}{t}"] = (f"{name}{(t + 1) % n}",)
            g[f"{name}{t}"] = (f"{name}{t}",) if t == 0 else ()
    pres = MorphicPresentation(Morphism.from_rules(f), Morphism.from_rules(g), "a")
    report = normalize(pres)
    assert report.cyclicity_power == 20
    assert counted and all(calls <= len(m.domain) for m, calls in counted.values())
    assert counted[id(pres.f)][1] == len(pres.f.domain) and counted[id(report.sigma)][1] == len(report.sigma.domain)
