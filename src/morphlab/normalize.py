"""Rewriting an erasing morphic-word presentation into a non-erasing one.

Given f prolongable on a and g with g(f^w(a)) infinite, the pipeline
produces a non-erasing morphism sigma prolongable on a fresh letter and
a coding tau with tau(sigma^w(start)) equal to the original word:

1. eliminate_effacement: replace f by f^p (p the cyclicity of its
   incidence matrix), then repeatedly strip the largest sub-alphabet
   that the accumulated image morphism erases, and finally compose with
   a power f^N that makes the image morphism non-erasing.
2. make_monotone: pass to powers so that |g(f(b))| >= |g(b)| for every
   letter, strictly at the start letter.
3. build_sigma_tau: split each g(b) into single letters over the paired
   alphabet {(b, i)}, numbered by offset, and cut alpha(f(b)) into
   matching non-empty pieces; the resulting sigma has an incidence
   matrix that is a dilated version of Mat_f and keeps the growth type.

The image lengths |g(f^k(b))| of every stage come from one walk.

Every stage is recorded in a NormalizationReport.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, islice

from . import dilation, spectral
from .errors import (
    DomainMismatchError,
    FiniteWordError,
    InvariantError,
    NotProlongableError,
)
from .intmat import mat_pow, vec_mat
from .spectral import AlgebraicRadius, GrowthType
from .words import (
    Alphabet,
    Morphism,
    Word,
    _cyclic_letters,
    _letter_graph,
    apply,
    compose,
    erase_and_restrict,
    incidence_matrix,
    is_prolongable,
    largest_erasable,
    mortal_letters,
    power,
)


@dataclass(frozen=True)
class MorphicPresentation:
    """A word presented as g(f^w(start)); f must be prolongable on start."""

    f: Morphism
    g: Morphism
    start: str

    def __post_init__(self):
        if not self.f.is_endomorphism:
            raise DomainMismatchError("the generator must be an endomorphism")
        if set(self.g.domain.letters) != set(self.f.domain.letters):
            raise DomainMismatchError("the image morphism must be defined on the generator's alphabet")
        if self.start not in self.f.domain:
            raise DomainMismatchError(f"start letter {self.start!r} is not in the alphabet")
        if not is_prolongable(self.f, self.start):
            raise NotProlongableError(f"generator is not prolongable on {self.start!r}")


@dataclass(frozen=True)
class PipelineStage:
    name: str
    f: Morphism
    g: Morphism
    removed: tuple = ()


@dataclass(frozen=True)
class EffacementResult:
    f_prime: Morphism
    g_prime: Morphism
    g_before_visibility: Morphism
    kept: Alphabet
    p: int
    k_seq: tuple
    visibility_power: int
    removed: tuple
    stages: tuple


def _length_walk(matrix, g):
    """The length vectors |g(f^k(b))| over the letters b of f, k = 0, 1, 2, ...

    `matrix` is Mat_f.  The k-th vector is sum_c |g(c)| (Mat_f^k)_{c,b},
    one vector-matrix product per step, so no word is built.
    """
    lengths = tuple(len(g.image(b)) for b in matrix.labels)
    while True:
        yield lengths
        lengths = vec_mat(lengths, matrix.rows)


def _visibility_power(f, g):
    """Least N with g(f^N(b)) non-empty for every b, or None within the bound.

    The first all-positive vector of the length walk; the bound
    (#B)^2 - #B + 2 comes from the primitivity index of the diagonal blocks.
    """
    m = len(f.domain)
    walk = islice(_length_walk(incidence_matrix(f), g), m * m - m + 3)
    return next((n for n, lengths in enumerate(walk) if all(lengths)), None)


def eliminate_effacement(pres):
    """Make both morphisms non-erasing without changing the generated word.

    Returns f' = (kappa o f^p) restricted to the surviving letters, the
    composed non-erasing g', the kept sub-alphabet, the cyclicity power p,
    the per-round mortal counts, and the final visibility power N.
    """
    f0, g, a = pres.f, pres.g, pres.start
    p = spectral.decompose(incidence_matrix(f0)).p  # normalize has decomposed Mat_f for the input growth
    f = power(f0, p)
    stages = [PipelineStage("cyclicity-power", f, g)]
    k_seq = []
    removed_all = []
    while True:
        mortals = mortal_letters(f)
        k = len(mortals)
        gk = compose(g, power(f, k)) if k else g
        erasable = largest_erasable(f, gk)
        if not erasable:
            break
        if a in erasable:
            raise FiniteWordError(
                f"the word is finite: start letter {a!r} is erased by the pipeline"
            )
        f = erase_and_restrict(f, erasable)
        g = gk.restrict_domain(f.domain.letters)
        k_seq.append(k)
        removed_all.extend(erasable)
        stages.append(PipelineStage(f"strip-round-{len(k_seq)}", f, g, tuple(erasable)))
    img = f.image(a)
    if len(img) < 2 or img[0] != a:
        raise FiniteWordError(
            f"the word is finite: after erasure the generator no longer grows from {a!r}"
        )
    n_vis = _visibility_power(f, g)
    if n_vis is None:
        raise FiniteWordError("the word is finite: some letter is erased by every iterate")
    g_loop = g
    if n_vis:
        g = compose(g, power(f, n_vis))
    stages.append(PipelineStage("visibility-power", f, g))
    if not (f.is_non_erasing and g.is_non_erasing):
        raise InvariantError("effacement left an erasing morphism")
    if mortal_letters(f) or largest_erasable(f, g_loop):
        raise InvariantError("effacement left a mortal or erasable letter")
    return EffacementResult(
        f_prime=f,
        g_prime=g,
        g_before_visibility=g_loop,
        kept=f.domain,
        p=p,
        k_seq=tuple(k_seq),
        visibility_power=n_vis,
        removed=tuple(removed_all),
        stages=tuple(stages),
    )


def growth_trichotomy(f, start, f_prime, kept, p):
    """Classify how the growth type survives the erasure step.

    With (lambda, d) the growth type of f at `start` and S the spectrum of
    the discarded sub-morphism of f^p, exactly one of:

    1. lambda^p is not in S; f' keeps growth (lambda^p, d).
    2. lambda^p is in S and the new rate drops strictly below lambda^p.
    3. lambda^p is in S and the rate is kept, with degree d' <= d.

    Returns (case, growth type of f' at start).  A `p` other than the
    cyclicity of f raises DomainMismatchError; disagreement with the
    classification contract raises InvariantError (it would be a bug).
    """
    input_growth = spectral.letter_growth(f, start)
    if input_growth.is_vanishing:
        raise NotProlongableError(f"{start!r} has vanishing growth")
    if input_growth.rate.step != p:
        raise DomainMismatchError("cyclicity power does not match the growth analysis")
    target = AlgebraicRadius.from_block(input_growth.rate.block, 1)  # lambda^p exactly
    # f^p maps the discarded letters into themselves, so they are a union
    # of blocks of Mat_f^p and S is the union of the blocks' spectra; a
    # zero block adds only 0, which lambda^p is not
    discarded = set(f.domain.letters) - set(kept.letters)
    dec = spectral.decompose(incidence_matrix(f))
    polys = set()  # blocks from one component of Mat_f often share theirs
    for b, kind in enumerate(dec.kinds):
        inside = {x in discarded for x in dec.block_letters(b)}
        if len(inside) != 1:
            raise InvariantError("a block of Mat_f^p straddles the discarded letters; this is a bug")
        if inside == {True} and kind == spectral.PRIMITIVE:
            polys.add(dec.radii[b].poly)
    in_discarded = any(target.is_root_of(poly) for poly in polys)
    new_growth = spectral.letter_growth(f_prime, start)
    cmp_rate = new_growth.rate.compare(target)
    if cmp_rate > 0:
        raise InvariantError("growth increased after erasure; this is a bug")
    if not in_discarded:
        if cmp_rate != 0 or new_growth.degree != input_growth.degree:
            raise InvariantError("case 1 must preserve the growth type exactly")
        return 1, new_growth
    if cmp_rate < 0:
        return 2, new_growth
    if new_growth.degree > input_growth.degree:
        raise InvariantError("case 3 cannot raise the polynomial degree")
    return 3, new_growth


@dataclass(frozen=True)
class MonotoneResult:
    f: Morphism
    g: Morphism
    settle_power: int
    stretch_power: int


def _growing_letters(f):
    """The letters b of a non-erasing endomorphism with |f^n(b)| unbounded:
    those whose closure in the letter graph holds a pump, a letter c on a
    cycle with |f(c)| >= 2, each turn of which adds a symbol.  Without one,
    each cycle b reaches maps its letters to single letters, so a path of
    the derivation tree of b branches off cycles only, fewer than #B times."""
    closure = _letter_graph(f, closed=True)
    pumps = _cyclic_letters(_letter_graph(f), closure)
    pumps &= sum(1 << c for c, w in enumerate(f.images) if len(w) >= 2)
    return tuple(b for b, row in zip(f.domain, closure) if row & pumps)


def _settle_power(f, letter, limit):
    """Least n with f^n(letter) = f^{n+1}(letter), for a non-growing letter."""
    w = Word.from_letters(f.domain, (letter,))
    for n in range(limit + 1):
        nxt = apply(f, w)
        if nxt == w:
            return n
        w = nxt
    raise InvariantError(f"non-growing letter {letter!r} failed to settle")


def monotone_powers(f, g, start):
    """(settle, stretch, new image lengths) for the monotonicity step.

    Everything is read off the length walk: lengths2 = |g(f^settle(b))| is
    its vector at k = settle, so nothing large is materialised here.  The
    stretch power q is the least q >= 1 with lengths2 . Mat_f^q >= lengths2
    componentwise, strictly at `start`: the walk's vector at settle + q.

    The search stops at Q = m * max(lengths2), m = #B, which always
    qualifies.  A growing letter b reaches a pumpable letter c (|f(c)| >= 2,
    c on a cycle) within m steps, and c loops back to itself within m, each
    loop adding a symbol; so |f^q(b)| >= lengths2[b] for q >= m *
    lengths2[b], and |f^q(b)| never shrinks because f is non-erasing.  As
    g' = g o f^settle is non-erasing, |g'(f^q(b))| >= |f^q(b)|.  The start
    letter gains at least one symbol per step, so it is strict once
    q >= lengths2[start].  Settled letters meet the condition with equality
    for every q.  The q returned is at most every other qualifying power,
    the witness bound max_b (hit + loop * (lengths2[b] - 1)) among them.
    """
    if not (f.is_non_erasing and g.is_non_erasing):
        raise DomainMismatchError("monotonicity step needs non-erasing morphisms")
    matrix = incidence_matrix(f)
    if spectral.cyclicity(matrix) != 1:
        raise DomainMismatchError("the generator must have cyclicity 1 here")
    m = len(f.domain)
    growing = _growing_letters(f)
    settle = 0
    for b in f.domain:
        if b not in growing:
            settle = max(settle, _settle_power(f, b, m - 1))
    walk = _length_walk(matrix, g)
    lengths2 = next(islice(walk, settle, None))
    si = f.domain.index(start)
    for q, after in enumerate(islice(walk, m * max(lengths2)), 1):
        if after[si] > lengths2[si] and all(x >= y for x, y in zip(after, lengths2)):
            return settle, q, lengths2
    raise InvariantError(f"no stretch power up to {m * max(lengths2)} is monotone; this is a bug")


def make_monotone(f, g, start):
    """Power up so that |g'(f'(b))| >= |g'(b)| for all b, strictly at start.

    Requires non-erasing f and g with Mat_f already in block triangular
    form with primitive or zero diagonal (cyclicity 1), which is what
    eliminate_effacement produces.  Non-growing letters settle to a fixed
    word after at most #B - 1 steps; composing g with that power makes
    them harmless, and the least power f^q that meets the condition
    stretches every growing letter enough to cover its image length.
    """
    img = f.image(start)
    if len(img) < 2 or img[0] != start:
        raise NotProlongableError(f"generator is not prolongable on {start!r}")
    settle, stretch, lengths2 = monotone_powers(f, g, start)
    _assert_monotone(incidence_matrix(f).rows, lengths2, stretch, f.domain.index(start))
    g2 = compose(g, power(f, settle)) if settle else g
    f2 = power(f, stretch)
    if tuple(len(g2.image(b)) for b in f.domain) != lengths2:
        raise InvariantError("settled image lengths differ from the matrix prediction")
    return MonotoneResult(f2, g2, settle, stretch)


def _assert_monotone(rows, lengths, stretch, start_index):
    after = vec_mat(lengths, mat_pow(rows, stretch))
    for i, (x, y) in enumerate(zip(after, lengths)):
        if x < y:
            raise InvariantError("monotonicity violated; this is a bug")
        if i == start_index and x <= y:
            raise InvariantError("monotonicity must be strict at the start letter")


@dataclass(frozen=True)
class SigmaTauResult:
    sigma: Morphism
    tau: Morphism
    pairing: Morphism
    start: str
    dilatation_vector: tuple


def _pair_names(alphabet, counts):
    """The name b.i of each pair letter (b, i), i < k, in order; primed until new."""
    names = []
    used = set()
    for b, k in zip(alphabet, counts):
        for i in range(k):
            name = f"{b}.{i}"
            while name in used:
                name += "'"
            used.add(name)
            names.append(name)
    return names


def build_sigma_tau(f, g, start):
    """Split g over the paired alphabet {(b, i) : i < |g(b)|}.

    The pair letters of b are the codes offset[b] .. offset[b] + |g(b)| - 1;
    alpha sends b to them and tau reads off the letters of g(b).  Each
    alpha(f(b)) is cut into |g(b)| non-empty pieces, one per pair letter;
    feasibility is exactly the monotonicity condition.  The cut is
    canonical: every piece takes one symbol and the last piece the
    remainder, except that (start, 0) takes two symbols so that sigma is
    prolongable on it.
    """
    if not (f.is_non_erasing and g.is_non_erasing):
        raise DomainMismatchError("pair construction needs non-erasing morphisms")
    matrix = incidence_matrix(f)
    walk = _length_walk(matrix, g)
    counts, lengths = next(walk), next(walk)  # |g(b)| and |g(f(b))|
    for b, before, after in zip(f.domain, counts, lengths):
        if after < before or (b == start and after <= before):
            raise DomainMismatchError("monotonicity condition violated; run make_monotone first")
    pair_alphabet = Alphabet(_pair_names(f.domain, counts))
    offsets = tuple(accumulate(counts, initial=0))
    pairs = [Word(pair_alphabet, range(o, o + k)) for o, k in zip(offsets, counts)]
    pairing = Morphism(f.domain, pair_alphabet, pairs)
    codes = [c for b in f.domain for c in g.image(b).codes]  # the letters of g(b), b in order
    tau = Morphism(pair_alphabet, g.codomain, [Word(g.codomain, (c,)) for c in codes])
    sigma_images, expansions = [], []  # expansions: pairing(f(b)) for each letter b
    for b, k in zip(f.domain, counts):
        expanded = apply(pairing, f.image(b))
        expansions.append(expanded)
        first = 2 if b == start else 1
        cut = [0, *range(first, first + k - 1), len(expanded)]
        if cut[-2] >= cut[-1]:  # only the last piece can be empty
            raise InvariantError(f"empty piece in the cut of {b!r}")
        sigma_images.extend(expanded[i:j] for i, j in zip(cut, cut[1:]))
    sigma = Morphism(pair_alphabet, pair_alphabet, sigma_images)
    for b, image, expanded in zip(f.domain, pairing.images, expansions):  # pairing o f = sigma o pairing
        if apply(sigma, image) != expanded:
            raise InvariantError(f"sigma and the pairing do not commute at {b!r}")
    if not dilation.is_dilated(incidence_matrix(sigma).rows, matrix.rows, counts):
        raise InvariantError("Mat(sigma) is not a dilation of Mat(f)")
    new_start = pair_alphabet.letters[offsets[f.domain.index(start)]]
    head = sigma.image(new_start)
    if len(head) < 2 or head[0] != new_start:
        raise InvariantError(f"sigma is not prolongable on {new_start!r}")
    return SigmaTauResult(sigma, tau, pairing, new_start, counts)


@dataclass(frozen=True)
class NormalizationReport:
    """Full trace of the pipeline and its invariants."""

    presentation: MorphicPresentation
    sigma: Morphism
    tau: Morphism
    start: str
    pairing: Morphism
    cyclicity_power: int
    mortal_counts: tuple
    visibility_power: int
    settle_power: int
    stretch_power: int
    removed_letters: tuple
    dilatation_vector: tuple
    input_growth: GrowthType
    output_growth: GrowthType
    trichotomy_case: int
    stages: tuple = field(default=())

    def as_dict(self, include_stages=False):
        def rules(m):
            return {l: list(m.image(l).letters()) for l in m.domain}

        out = {
            "start": self.start,
            "sigma": rules(self.sigma),
            "tau": rules(self.tau),
            "p": self.cyclicity_power,
            "k_seq": list(self.mortal_counts),
            "N": self.visibility_power,
            "settle_power": self.settle_power,
            "q": self.stretch_power,
            "removed_letters": list(self.removed_letters),
            "dilatation_vector": list(self.dilatation_vector),
            "trichotomy_case": self.trichotomy_case,
            "input_growth": self.input_growth.as_dict(),
            "output_growth": self.output_growth.as_dict(),
        }
        if include_stages:
            out["stages"] = [
                {
                    "name": s.name,
                    "f": rules(s.f),
                    "g": rules(s.g),
                    "removed": list(s.removed),
                }
                for s in self.stages
            ]
        return out


def normalize(pres):
    """Run the full pipeline on a presentation and report every stage."""
    if not isinstance(pres, MorphicPresentation):
        raise DomainMismatchError("normalize expects a MorphicPresentation")
    input_growth = spectral.letter_growth(pres.f, pres.start)
    eff = eliminate_effacement(pres)
    case, _ = growth_trichotomy(pres.f, pres.start, eff.f_prime, eff.kept, eff.p)
    mono = make_monotone(eff.f_prime, eff.g_prime, pres.start)
    built = build_sigma_tau(mono.f, mono.g, pres.start)
    output_growth = spectral.letter_growth(built.sigma, built.start)
    monotone_growth = spectral.letter_growth(mono.f, pres.start)
    if output_growth != monotone_growth:
        raise InvariantError("pair construction changed the growth type; this is a bug")
    stages = eff.stages + (
        PipelineStage("monotone", mono.f, mono.g),
        PipelineStage("paired", built.sigma, built.tau),
    )
    return NormalizationReport(
        presentation=pres,
        sigma=built.sigma,
        tau=built.tau,
        start=built.start,
        pairing=built.pairing,
        cyclicity_power=eff.p,
        mortal_counts=eff.k_seq,
        visibility_power=eff.visibility_power,
        settle_power=mono.settle_power,
        stretch_power=mono.stretch_power,
        removed_letters=eff.removed,
        dilatation_vector=built.dilatation_vector,
        input_growth=input_growth,
        output_growth=output_growth,
        trichotomy_case=case,
        stages=stages,
    )
