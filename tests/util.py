"""Shared helpers for the test suite: seeded random objects and oracles."""

from fractions import Fraction
from functools import cmp_to_key
from math import gcd, lcm

from morphlab import Alphabet, ImageStream, MorphicPresentation, Morphism, Word, apply, incidence_matrix
from morphlab import dilation
from morphlab.errors import (
    BudgetExceededError,
    DomainMismatchError,
    FiniteWordError,
    InvariantError,
    MorphlabError,
    NotProlongableError,
)
from morphlab.graphs import component_period, strongly_connected_components
from morphlab.intmat import charpoly, mat_pow, submatrix, vec_mat
from morphlab.normalize import SigmaTauResult, eliminate_effacement, monotone_powers
from morphlab.polytools import (
    _divide_content,
    _pseudo_remainder,
    count_roots_closed,
    count_roots_halfopen,
    derivative,
    sign_variations,
    squarefree,
    sturm_chain,
)
from morphlab.spectral import AlgebraicRadius, cyclicity, decompose, letter_growth

LETTERS = "abcdefgh"


def random_endomorphism(rng, size, max_len=4, erase_chance=0.0):
    letters = LETTERS[:size]
    dom = Alphabet(letters)
    rules = {}
    for letter in letters:
        if erase_chance and rng.random() < erase_chance:
            rules[letter] = ()
        else:
            length = rng.randint(1, max_len)
            rules[letter] = tuple(rng.choice(letters) for _ in range(length))
    return Morphism.from_rules(rules, domain=dom, codomain=dom)


def random_matrix(rng, size, max_entry=3, zero_chance=0.55):
    return tuple(
        tuple(0 if rng.random() < zero_chance else rng.randint(1, max_entry) for _ in range(size))
        for _ in range(size)
    )


def random_dilation(rng, m_rows, kvec):
    """A random non-negative integer dilated version of m_rows."""
    offsets = [0]
    for k in kvec:
        offsets.append(offsets[-1] + k)
    n = offsets[-1]
    rows = [[0] * n for _ in range(n)]
    for i, ki in enumerate(kvec):
        for k in range(ki):
            for j, kj in enumerate(kvec):
                parts = [0] * kj
                for _ in range(m_rows[i][j]):
                    parts[rng.randrange(kj)] += 1
                for l in range(kj):
                    rows[offsets[i] + k][offsets[j] + l] = parts[l]
    return tuple(tuple(row) for row in rows)


def simple_cycle_lengths(adj, members):
    """All simple cycle lengths inside one component, by DFS enumeration."""
    members = set(members)
    lengths = set()

    def walk(start, current, visited, depth):
        for nxt in adj[current]:
            if nxt == start:
                lengths.add(depth + 1)
            elif nxt in members and nxt not in visited and nxt > start:
                walk(start, nxt, visited | {nxt}, depth + 1)

    for v in sorted(members):
        walk(v, v, {v}, 0)
    return sorted(lengths)


def gcd_of(values):
    g = 0
    for v in values:
        g = gcd(g, v)
    return g


def ratio_band_ok(values, model, fit_range, check_range, slack=(0.8, 1.25)):
    """Fit min/max of values[n]/model(n) on fit_range, re-check on check_range.

    fit_range and check_range are inclusive (lo, hi) pairs.
    """
    ratios = {n: values[n] / model(n) for n in range(fit_range[0], check_range[1] + 1)}
    lo = min(ratios[n] for n in range(fit_range[0], fit_range[1] + 1))
    hi = max(ratios[n] for n in range(fit_range[0], fit_range[1] + 1))
    if lo <= 0:
        return False
    return all(
        lo * slack[0] <= ratios[n] <= hi * slack[1]
        for n in range(check_range[0], check_range[1] + 1)
    )


def meets_length_condition(rows, lengths, q, start_index):
    """lengths . rows^q >= lengths componentwise, strictly at start_index."""
    after = vec_mat(lengths, mat_pow(rows, q))
    return after[start_index] > lengths[start_index] and all(
        x >= y for x, y in zip(after, lengths)
    )


def random_presentations(rng, count, max_size=5, max_len=4, pipeline_cap=400):
    """Deterministically draw `count` valid presentations.

    Validity means the presentation passes its own invariants and the
    pipeline completes; candidates whose intermediate morphisms blow up
    past `pipeline_cap` total image symbols are skipped so the suite
    stays fast.
    """
    out = []
    while len(out) < count:
        size = rng.randint(2, max_size)
        letters = LETTERS[:size]
        dom = Alphabet(letters)
        rules = {}
        for letter in letters:
            if rng.random() < 0.25:
                rules[letter] = ()
            else:
                length = rng.randint(1, max_len)
                rules[letter] = tuple(rng.choice(letters) for _ in range(length))
        tail_len = rng.randint(1, max_len - 1)
        rules[letters[0]] = (letters[0],) + tuple(rng.choice(letters) for _ in range(tail_len))
        g_rules = {}
        for letter in letters:
            if rng.random() < 0.35:
                g_rules[letter] = ()
            else:
                g_rules[letter] = tuple(rng.choice("01") for _ in range(rng.randint(1, 2)))
        try:
            f = Morphism.from_rules(rules, domain=dom, codomain=dom)
            g = Morphism.from_rules(g_rules, domain=dom)
            if cyclicity(incidence_matrix(f)) > 3:
                continue
            pres = MorphicPresentation(f, g, letters[0])
            eff = eliminate_effacement(pres)
            if sum(len(eff.g_prime.image(b)) for b in eff.g_prime.domain) > pipeline_cap:
                continue
            # predict the paired-output size via matrices before materialising
            settle, stretch, lengths2 = monotone_powers(eff.f_prime, eff.g_prime, pres.start)
            if sum(lengths2) > pipeline_cap:
                continue
            rows = incidence_matrix(eff.f_prime).rows
            sigma_total = sum(vec_mat(lengths2, mat_pow(rows, stretch)))
            if sigma_total > 4 * pipeline_cap:
                continue
        except (NotProlongableError, FiniteWordError):
            continue
        except MorphlabError:
            continue
        out.append(pres)
    return out


def cycle_chain(lengths, weights=None, tail=None):
    """Cycles of the given lengths, each linked to the next by one edge.

    Cycle c runs through consecutive vertices; its first edge carries
    weights[c] (default 1) and the rest weight 1.  `tail`, a square
    block, is appended after the last cycle and entered from it.
    """
    weights = weights or [1] * len(lengths)
    sizes = list(lengths) + ([len(tail)] if tail else [])
    n = sum(sizes)
    rows = [[0] * n for _ in range(n)]
    starts = []
    pos = 0
    for length, weight in zip(lengths, weights):
        for t in range(length):
            rows[pos + t][pos + (t + 1) % length] = weight if t == 0 else 1
        starts.append(pos)
        pos += length
    if tail:
        for i, row in enumerate(tail):
            rows[pos + i][pos : pos + len(tail)] = row
        starts.append(pos)
    for a, b in zip(starts, starts[1:]):
        rows[a][b] = 1
    return tuple(tuple(row) for row in rows)


class ReferenceDecomposition:
    """The direct construction that BlockDecomposition must agree with:
    the blocks of the bignum M^p, each block's radius from its own matrix,
    and radius classes by comparing every block with every class
    representative."""

    def __init__(self, rows):
        n = len(rows)
        self.p = cyclicity(rows)
        power = mat_pow(rows, self.p)
        succ = [sum(1 << j for j in range(n) if power[i][j] > 0) for i in range(n)]
        self.blocks = tuple(strongly_connected_components(succ))
        periods = [component_period(c, succ) for c in self.blocks]
        self.kinds = tuple("zero" if h == 0 else "primitive" for h in periods)
        assert all(h in (0, 1) for h in periods)
        self.block_of = tuple(next(b for b, c in enumerate(self.blocks) if v in c) for v in range(n))
        self.block_matrices = tuple(submatrix(power, c) for c in self.blocks)
        self.radii = tuple(
            AlgebraicRadius.from_block(m, self.p) if k == "primitive" else AlgebraicRadius.zero()
            for m, k in zip(self.block_matrices, self.kinds)
        )
        reps = []
        for b, radius in enumerate(self.radii):
            for rep in reps:
                if rep[0].compare(radius) == 0:
                    rep[1].append(b)
                    break
            else:
                reps.append((radius, [b]))
        reps.sort(key=cmp_to_key(lambda x, y: x[0].compare(y[0])))
        class_of = [None] * len(self.blocks)
        for cid, (_, members) in enumerate(reps):
            for b in members:
                class_of[b] = cid
        self.class_of_block = tuple(class_of)
        self.class_radii = tuple(r for r, _ in reps)



def reference_support_pow(s, e):
    """The pattern of A^e from the pattern `s` of A by plain repeated
    squaring of whole patterns, with no ladder kept: bit j of row i of a
    product is set when row i of the left factor meets column j of the
    right one."""
    n = len(s)

    def mul(a, b):
        return tuple(sum(1 << j for j in range(n) if any(a[i] >> t & 1 and b[t] >> j & 1 for t in range(n)))
                     for i in range(n))

    result = tuple(1 << i for i in range(n))
    base = s
    while e:
        if e & 1:
            result = mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return result


def reference_charpoly(a):
    """det(xI - A), coefficients ascending, by the Faddeev-LeVerrier
    recurrence in integers: M_1 = B, c_1 = -tr(B), and
    M_k = B (M_(k-1) + c_(k-1) I), c_k = -tr(M_k) / k for the coefficient
    c_k of x^(n-k), with B = dA for the least such integer matrix; the
    coefficient of x^(n-k) in det(xI - A) is c_k / d^k.  Integral
    coefficients come back as ints."""
    n = len(a)
    d = lcm(1, *(Fraction(x).denominator for row in a for x in row))
    b = [[int(Fraction(x) * d) for x in row] for row in a]
    coeffs = [1]  # descending: x^n ... x^0
    work = b
    for k in range(1, n + 1):
        if k > 1:
            shifted = [[x + coeffs[-1] if i == j else x for j, x in enumerate(row)] for i, row in enumerate(work)]
            work = [[sum(b[i][t] * shifted[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        c, rest = divmod(-sum(work[i][i] for i in range(n)), k)
        if rest:
            raise ArithmeticError("Faddeev-LeVerrier trace is not divisible by k")
        coeffs.append(c)
    scaled = [Fraction(c, d**k) for k, c in enumerate(coeffs)]
    return [int(c) if c.denominator == 1 else c for c in reversed(scaled)]


def reference_sturm_chain(p):
    """The Sturm chain as it was built before one sequence served a
    squarefree p: the squarefree part from a gcd of p and p' first, then
    the signed primitive remainder sequence of that part and its derivative."""
    a = squarefree(p)
    chain = [a]
    b = _divide_content(derivative(a))
    while b:
        chain.append(b)
        r = _pseudo_remainder(a, b)
        flip = -1 if b[-1] > 0 or (len(a) - len(b)) % 2 else 1
        a, b = b, [flip * c for c in _divide_content(r)] if r else []
    return chain


def reference_radius_enclosure(rows, width):
    """rho(M) the direct way, without the block structure or the radius
    engine: the largest real root of the characteristic polynomial of the
    whole n x n matrix (rho is an eigenvalue of a non-negative M), by
    plain Sturm bisection of (-1, max(1, largest row sum)]."""
    chain = sturm_chain(charpoly(rows))
    lo, hi = Fraction(-1), Fraction(max(1, max(sum(row) for row in rows)))
    v_hi = sign_variations(chain, hi)
    while hi - lo > width:
        mid = (lo + hi) / 2
        v_mid = sign_variations(chain, mid)
        if v_mid > v_hi:  # a root in (mid, hi]
            lo = mid
        else:
            hi, v_hi = mid, v_mid
    return max(lo, Fraction(0)), hi


def encloses_radius(rows, lo, hi):
    """[lo, hi] holds rho(M) exactly: the interval holds a root of the
    characteristic polynomial and none of its real roots lies above hi
    (none lies above the largest row sum either)."""
    poly = charpoly(rows)
    chain = sturm_chain(poly)
    bound = max(Fraction(hi), Fraction(max(sum(row) for row in rows)))
    return count_roots_closed(poly, chain, lo, hi) >= 1 and count_roots_halfopen(chain, hi, bound) == 0


# Letter facts the way the library decided them before the letter-graph
# closure: fixpoints, the spectral growth type, and a letter-set orbit.


def reference_mortal_letters(f):
    """Shrinking fixpoint: b is mortal after k + 1 steps iff its image uses
    only letters mortal after k steps."""
    n = len(f.domain)
    mortal = [len(w) == 0 for w in f.images]
    for _ in range(n):
        changed = False
        for b in range(n):
            if not mortal[b] and all(mortal[c] for c in f.images[b].codes):
                mortal[b] = True
                changed = True
        if not changed:
            break
    return tuple(l for b, l in enumerate(f.domain.letters) if mortal[b])


def reference_largest_erasable(f, g):
    """Greatest fixpoint: start from the letters g erases and drop those
    whose f-image leaves the current set."""
    current = {b for b in f.domain if len(g.image(b)) == 0}
    while True:
        stable = {b for b in current if all(x in current for x in f.image(b))}
        if stable == current:
            break
        current = stable
    return tuple(b for b in f.domain if b in current)


def reference_is_prolongable(f, letter):
    """f(letter) = letter u, u non-empty, and the spectral growth type of
    |f^n(letter)| unbounded."""
    img = f.image(letter).letters()
    return len(img) >= 2 and img[0] == letter and letter_growth(f, letter).is_unbounded


def reference_growing_letters(f):
    """Letters whose column growth is neither vanishing nor bounded (degree
    0 at rate exactly 1, decided by an exact compare)."""
    matrix = incidence_matrix(f)
    dec = decompose(matrix)

    def bounded(growth):
        return growth.is_vanishing or (growth.degree == 0 and growth.rate.compare(1) == 0)

    return tuple(b for b in f.domain if not bounded(dec.column_growth(matrix.index_of(b))))


def finite_by_orbit(f, g, start):
    """g(f^w(start)) is finite iff no letter set of f^k(u) on the cycle of
    the orbit S_(k+1) = letters of f(S_k), S_0 the letters of u (f(start) =
    start u), holds a letter g keeps: the sets on the cycle recur forever,
    those before it never again.  The orbit repeats within 2^m steps."""
    first_seen = {}
    current = frozenset(f.image(start).letters()[1:])
    while current not in first_seen:
        first_seen[current] = len(first_seen)
        current = frozenset(c for b in current for c in f.image(b).letters())
    cycle = [letters for letters, k in first_seen.items() if k >= first_seen[current]]
    return not any(len(g.image(b)) for letters in cycle for b in letters)


def stream_says_finite(f, g, start, n=50, budget=10**4):
    """The image stream's verdict on whether g(f^w(start)) is finite, for f
    with f(start) = start u: a request for n symbols either is served, or
    fails with a message that says the word is finite, or, when f^w(start)
    itself is finite, with NotProlongableError.  A budget error that does
    not say "finite" counts as infinite."""
    stream = ImageStream(g, f, start, budget=budget, check=False)
    try:
        stream.prefix(n)
    except NotProlongableError:
        return True
    except BudgetExceededError as error:
        return "finite" in str(error)
    return False


def _reference_pair_names(alphabet, counts):
    names = {}
    used = set()
    for b, k in zip(alphabet, counts):
        for i in range(k):
            name = f"{b}.{i}"
            while name in used:
                name += "'"
            used.add(name)
            names[(b, i)] = name
    return names


def reference_sigma_tau(f, g, start):
    """The pair construction with pair letters looked up by name: a
    (b, i) -> name dict, a name-keyed dict of sigma's images and a running
    position in each cut.  An oracle for normalize.build_sigma_tau, which
    numbers the pair letters by offset instead."""
    if not (f.is_non_erasing and g.is_non_erasing):
        raise DomainMismatchError("pair construction needs non-erasing morphisms")
    counts = tuple(len(g.image(b)) for b in f.domain)
    f_rows = incidence_matrix(f).rows
    # |g(f(b))| = sum_c |g(c)| (Mat_f)_{c,b}, read off the matrix, not the images
    for b, before, after in zip(f.domain, counts, vec_mat(counts, f_rows)):
        if after < before or (b == start and after <= before):
            raise DomainMismatchError("monotonicity condition violated; run make_monotone first")
    names = _reference_pair_names(f.domain, counts)
    pair_alphabet = Alphabet(names[(b, i)] for b, k in zip(f.domain, counts) for i in range(k))
    pairing = Morphism(
        f.domain,
        pair_alphabet,
        tuple(
            Word.from_letters(pair_alphabet, tuple(names[(b, i)] for i in range(k)))
            for b, k in zip(f.domain, counts)
        ),
    )
    tau = Morphism(
        pair_alphabet,
        g.codomain,
        tuple(
            Word(g.codomain, (g.image(b).codes[i],))
            for b, k in zip(f.domain, counts)
            for i in range(k)
        ),
    )
    sigma_images = {}
    expansions = []  # pairing(f(b)) for each letter b
    for b, k in zip(f.domain, counts):
        expanded = apply(pairing, f.image(b))
        expansions.append(expanded)
        cuts = [1] * k
        if b == start:
            cuts[0] = 2
        cuts[-1] = len(expanded) - sum(cuts[:-1])
        if not all(c >= 1 for c in cuts):
            raise InvariantError(f"empty piece in the cut of {b!r}")
        pos = 0
        for i in range(k):
            sigma_images[names[(b, i)]] = expanded[pos : pos + cuts[i]]
            pos += cuts[i]
        if pos != len(expanded):
            raise InvariantError(f"the cut of {b!r} does not cover its image")
    sigma = Morphism(
        pair_alphabet,
        pair_alphabet,
        tuple(sigma_images[letter] for letter in pair_alphabet),
    )
    for b, expanded in zip(f.domain, expansions):  # pairing o f = sigma o pairing, letter by letter
        if apply(sigma, apply(pairing, Word.from_letters(f.domain, (b,)))) != expanded:
            raise InvariantError(f"sigma and the pairing do not commute at {b!r}")
    kvec = tuple(counts)
    if not dilation.is_dilated(incidence_matrix(sigma).rows, f_rows, kvec):
        raise InvariantError("Mat(sigma) is not a dilation of Mat(f)")
    new_start = names[(start, 0)]
    first = sigma.image(new_start)
    if len(first) < 2 or first[0] != new_start:
        raise InvariantError(f"sigma is not prolongable on {new_start!r}")
    return SigmaTauResult(sigma, tau, pairing, new_start, kvec)
