"""Alphabets, finite words, and free-monoid morphisms.

Letters are arbitrary non-empty strings.  A word stores integer letter
codes against an alphabet table, which keeps Parikh vectors and incidence
matrices index-based.  Over an alphabet of at most 256 letters the codes
are `bytes`, one byte per symbol, so that concatenation, slicing, letter
counts and the code range check each run as one C-level pass; over a
larger alphabet they are a tuple of ints.  The alphabet's size alone
picks the representation, so equal alphabets always agree on it.  All
values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from collections import Counter

from .errors import DomainMismatchError, NotASubMorphismError
from .intmat import IncidenceMatrix, support_pow, support_row_mul

# alphabets of at most this many letters store word codes as bytes
_BYTE_LETTERS = 256


class Alphabet:
    """An ordered list of distinct letters.

    The order is canonical: it fixes the row/column order of incidence
    matrices.  An empty alphabet is permitted only as the codomain of an
    everything-erasing morphism; morphism domains must be non-empty.
    """

    __slots__ = ("letters", "_index", "_valid")

    def __init__(self, letters):
        letters = tuple(letters)
        index = {}
        for pos, letter in enumerate(letters):
            if not isinstance(letter, str) or not letter:
                raise DomainMismatchError("letters must be non-empty strings")
            if letter in index:
                raise DomainMismatchError(f"duplicate letter {letter!r}")
            index[letter] = pos
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "_index", index)
        # the valid letter codes, as a byte table for bytes codes and a set past
        # _BYTE_LETTERS letters: Word checks its codes against them in one C call
        valid = range(len(letters))
        valid = bytes(valid) if len(letters) <= _BYTE_LETTERS else frozenset(valid)
        object.__setattr__(self, "_valid", valid)

    def __setattr__(self, name, value):
        raise AttributeError("Alphabet is immutable")

    def index(self, letter):
        try:
            return self._index[letter]
        except KeyError:
            raise DomainMismatchError(f"letter {letter!r} is not in the alphabet") from None

    def __contains__(self, letter):
        return letter in self._index

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other):
        if not isinstance(other, Alphabet):
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return f"Alphabet({list(self.letters)!r})"

    def _code_buffer(self, codes=()):
        """A mutable copy of `codes` in this alphabet's word representation:
        a bytearray where words store bytes, a list where they store tuples."""
        return bytearray(codes) if type(self._valid) is bytes else list(codes)

    def restricted(self, keep):
        """Sub-alphabet of the given letters, in this alphabet's order."""
        keep = set(keep)
        missing = keep - set(self.letters)
        if missing:
            raise DomainMismatchError(f"letters {sorted(missing)!r} are not in the alphabet")
        return Alphabet(l for l in self.letters if l in keep)

    def without(self, removed):
        removed = set(removed)
        missing = removed - set(self.letters)
        if missing:
            raise DomainMismatchError(f"letters {sorted(missing)!r} are not in the alphabet")
        return Alphabet(l for l in self.letters if l not in removed)


class Word:
    """A finite word over an alphabet (possibly empty).

    `codes` is `bytes` over an alphabet of at most _BYTE_LETTERS letters and
    a tuple of ints over a larger one; either way every code is checked
    against the alphabet on construction."""

    __slots__ = ("alphabet", "codes")

    def __init__(self, alphabet, codes=()):
        valid = alphabet._valid
        try:
            if type(valid) is bytes:
                # bytes() reads any other buffer (an array of wider ints) byte by
                # byte and makes n zero bytes of an int n: iterate those instead
                if not isinstance(codes, (bytes, bytearray, list, tuple)):
                    codes = iter(codes)
                codes = bytes(codes)  # ValueError past 255, TypeError for a non-int
                bad = codes.translate(None, valid)  # the codes that name no letter
            else:
                codes = tuple(codes)
                bad = not valid.issuperset(codes)
        except (TypeError, ValueError):
            bad = True
        if bad:
            raise DomainMismatchError("letter code out of range")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "codes", codes)

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    @classmethod
    def from_letters(cls, alphabet, letters):
        return cls(alphabet, [alphabet.index(l) for l in letters])

    def letters(self):
        return tuple(map(self.alphabet.letters.__getitem__, self.codes))

    def text(self):
        """Letters joined; single-character alphabets concatenate seamlessly."""
        parts = self.letters()
        if all(len(p) == 1 for p in parts):
            return "".join(parts)
        return " ".join(parts)

    def count(self, letter):
        return self.codes.count(self.alphabet.index(letter))

    def __len__(self):
        return len(self.codes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Word(self.alphabet, self.codes[i])
        return self.alphabet.letters[self.codes[i]]

    def __iter__(self):
        return map(self.alphabet.letters.__getitem__, self.codes)

    def __add__(self, other):
        if self.alphabet != other.alphabet:
            raise DomainMismatchError("cannot concatenate words over different alphabets")
        return Word(self.alphabet, self.codes + other.codes)

    def __eq__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        if self.alphabet == other.alphabet:
            return self.codes == other.codes
        return self.letters() == other.letters()

    def __hash__(self):
        return hash(self.letters())

    def __repr__(self):
        return f"Word({self.text()!r})"


class ParikhVector:
    """Occurrence counts of each alphabet letter in a word."""

    __slots__ = ("alphabet", "counts")

    def __init__(self, alphabet, counts):
        counts = tuple(counts)
        if len(counts) != len(alphabet):
            raise DomainMismatchError("count vector does not match the alphabet")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "counts", counts)

    def __setattr__(self, name, value):
        raise AttributeError("ParikhVector is immutable")

    def count(self, letter):
        return self.counts[self.alphabet.index(letter)]

    def __eq__(self, other):
        if not isinstance(other, ParikhVector):
            return NotImplemented
        return self.alphabet == other.alphabet and self.counts == other.counts

    def __repr__(self):
        pairs = ", ".join(f"{l}: {c}" for l, c in zip(self.alphabet.letters, self.counts))
        return f"ParikhVector({{{pairs}}})"


class Morphism:
    """A free-monoid morphism, determined by the images of the letters."""

    # facts about an endomorphism, each set on first use from the immutable
    # images (two threads may both compute one, alike): _matrix its count
    # matrix, _graph and _closure its open and closed letter graphs
    __slots__ = ("domain", "codomain", "images", "_matrix", "_graph", "_closure")

    def __init__(self, domain, codomain, images):
        if len(domain) == 0:
            raise DomainMismatchError("morphism domain must be non-empty")
        images = tuple(images)
        if len(images) != len(domain):
            raise DomainMismatchError("every domain letter needs exactly one image")
        for w in images:
            if w.alphabet != codomain:
                raise DomainMismatchError("image word is not over the codomain")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("Morphism is immutable")

    @classmethod
    def from_rules(cls, rules, domain=None, codomain=None):
        """Build from {letter: iterable-of-letters}.

        The codomain defaults to the domain letters followed by any new
        letters appearing in images, in order of first appearance.
        """
        if domain is None:
            domain = Alphabet(rules.keys())
        if codomain is None:
            seen = list(domain.letters)
            seen_set = set(seen)
            for letter in domain:
                for x in rules[letter]:
                    if x not in seen_set:
                        seen.append(x)
                        seen_set.add(x)
            codomain = Alphabet(seen)
        images = tuple(Word.from_letters(codomain, rules[letter]) for letter in domain)
        return cls(domain, codomain, images)

    def image(self, letter):
        return self.images[self.domain.index(letter)]

    def rules(self):
        return {l: self.images[i].letters() for i, l in enumerate(self.domain.letters)}

    @property
    def is_endomorphism(self):
        return self.domain.letters == self.codomain.letters

    @property
    def is_non_erasing(self):
        return all(len(w) > 0 for w in self.images)

    @property
    def is_coding(self):
        return all(len(w) == 1 for w in self.images)

    def restrict_domain(self, keep):
        """Drop rules outside `keep`; the codomain is unchanged."""
        sub = self.domain.restricted(keep)
        images = tuple(self.image(l) for l in sub)
        return Morphism(sub, self.codomain, images)

    def __eq__(self, other):
        if not isinstance(other, Morphism):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.codomain == other.codomain
            and self.images == other.images
        )

    def __hash__(self):
        return hash((self.domain, self.codomain, self.images))

    def __repr__(self):
        rules = ", ".join(
            f"{l}->{self.images[i].text()}" for i, l in enumerate(self.domain.letters)
        )
        return f"Morphism({rules})"


def morphism_from_chars(rules):
    """Shorthand for single-character rules given as strings: {'a': 'ab', ...}."""
    return Morphism.from_rules({k: tuple(v) for k, v in rules.items()})


def identity_morphism(alphabet):
    return Morphism(alphabet, alphabet, tuple(Word(alphabet, (i,)) for i in range(len(alphabet))))


def apply(f, w):
    """Image of the word w under f, letter by letter."""
    if w.alphabet == f.domain:
        codes = w.codes
    else:
        codes = tuple(f.domain.index(l) for l in w.letters())
    images = [image.codes for image in f.images]
    return Word(f.codomain, _concat(f.codomain._code_buffer(), images, codes))


def _concat(out, images, codes):
    """Append images[c] for c in codes to the buffer `out`, and return it."""
    for c in codes:
        out += images[c]
    return out


def compose(g, f):
    """The composition g o f (apply f first)."""
    if set(f.codomain.letters) != set(g.domain.letters):
        raise DomainMismatchError("codomain of the inner morphism must equal the outer domain")
    images = tuple(apply(g, w) for w in f.images)
    return Morphism(f.domain, g.codomain, images)


def power(f, n):
    """n-fold composition of an endomorphism; power(f, 0) is the identity
    and power(f, 1) is f itself, with the facts it has kept.

    Square and multiply from f: composition is associative, so the powers
    of f combine in any grouping to the same morphism, and no step
    composes with the identity.
    """
    if not f.is_endomorphism:
        raise DomainMismatchError("powers need an endomorphism")
    if n < 0:
        raise DomainMismatchError("negative morphism power")
    if n == 0:
        return identity_morphism(f.domain)
    result, base = None, f
    while True:
        if n & 1:
            result = base if result is None else compose(base, result)
        n >>= 1
        if not n:
            return result
        base = compose(base, base)


def _survivors(domain, erased):
    """`domain` without the letters `erased`, which must lie in it."""
    missing = set(erased) - set(domain.letters)
    if missing:
        raise DomainMismatchError(f"cannot erase letters outside the alphabet: {sorted(missing)!r}")
    return domain.without(erased)


def erasure(domain, erased):
    """The morphism that deletes `erased` letters and keeps the rest."""
    codomain = _survivors(domain, erased)
    images = [Word.from_letters(codomain, (l,) if l in codomain else ()) for l in domain]
    return Morphism(domain, codomain, images)


def restrict(f, keep):
    """Sub-morphism on `keep`; requires every image of a kept letter to stay inside."""
    if not f.is_endomorphism:
        raise DomainMismatchError("sub-morphisms need an endomorphism")
    sub = f.domain.restricted(keep)
    keep_set = set(sub.letters)
    for letter in sub:
        for x in f.image(letter):
            if x not in keep_set:
                raise NotASubMorphismError(letter)
    images = tuple(Word.from_letters(sub, f.image(l).letters()) for l in sub)
    return Morphism(sub, sub, images)


def erase_and_restrict(f, removed):
    """(kappa_removed o f) restricted to the surviving letters, for an
    endomorphism f.  Each image is renumbered and cut in one pass: one
    bytes.translate over byte codes, one comprehension over tuples."""
    keep = _survivors(f.domain, removed)
    if not f.is_endomorphism:
        raise DomainMismatchError("erase_and_restrict needs an endomorphism")
    new = [keep._index.get(l) for l in f.domain.letters]  # a kept letter's code, or None
    images = [image.codes for image, code in zip(f.images, new) if code is not None]
    if type(f.domain._valid) is bytes:
        table = bytes(code or 0 for code in new).ljust(256, b"\0")
        cut = bytes(c for c, code in enumerate(new) if code is None)
        images = [codes.translate(table, cut) for codes in images]
    else:
        images = [[new[c] for c in codes if new[c] is not None] for codes in images]
    return Morphism(keep, keep, [Word(keep, codes) for codes in images])


def _counts(codes, n):
    """Occurrences of each of the codes 0..n-1 in `codes`.  Bytes take one
    C `count` pass per letter present: twice as fast as a Counter on the
    long images of the p = 20 input, whose images hold at most 3 letters.
    Tuples, past 256 letters, take one Counter pass, since a pass per
    letter grows with the alphabet (277 ms against 3.5 ms for 10^5 codes
    over 300 letters)."""
    counts = [0] * n
    if type(codes) is bytes:
        for c in set(codes):
            counts[c] = codes.count(c)
    else:
        for c, k in Counter(codes).items():
            counts[c] = k
    return counts


def parikh(w):
    return ParikhVector(w.alphabet, _counts(w.codes, len(w.alphabet)))


def incidence_matrix(f):
    """Matrix whose (a, b) entry counts occurrences of a in f(b); the letters
    of f are counted once, and the matrix is kept for later calls."""
    try:
        return f._matrix
    except AttributeError:
        pass
    if not f.is_endomorphism:
        raise DomainMismatchError("incidence matrices need an endomorphism")
    n = len(f.domain)
    columns = [_counts(w.codes, n) for w in f.images]
    matrix = IncidenceMatrix(zip(*columns), f.domain.letters)
    object.__setattr__(f, "_matrix", matrix)
    return matrix


def _letter_graph(f, closed=False):
    """f's letter graph as bitset rows: bit c of row b is set when c occurs
    in f(b).  Row b of its k-th power (intmat.support_pow) holds the letters
    of f^k(b).  With `closed`, return support_pow(graph | I, #A) instead,
    whose row b holds every letter of every f^k(b), k >= 0: a shortest
    walk between two letters has fewer than #A steps.  Each graph is
    computed once per morphism."""
    slot = "_closure" if closed else "_graph"
    try:
        return getattr(f, slot)
    except AttributeError:
        pass
    if not f.is_endomorphism:
        raise DomainMismatchError("letter graphs need an endomorphism")
    if closed:
        rows = _letter_graph(f)
        graph = support_pow(tuple(row | 1 << b for b, row in enumerate(rows)), len(rows))
    else:
        graph = tuple(sum(1 << c for c in set(w.codes)) for w in f.images)
    object.__setattr__(f, slot, graph)
    return graph


def _cyclic_letters(graph, closure):
    """The letters on a cycle of the letter graph, as a bitset: c is on one
    when c occurs in some f^k(c), k >= 1, that is when bit c of row c of
    graph . closure is set."""
    return sum(1 << c for c, row in enumerate(graph) if support_row_mul(row, closure) >> c & 1)


def largest_erasable(f, g):
    """The largest C inside g^-1(empty) with f(C) stable, as a letter tuple:
    the letters whose closure in f's letter graph g erases."""
    if set(f.domain.letters) != set(g.domain.letters):
        raise DomainMismatchError("morphisms must share an alphabet")
    erased = sum(1 << i for i, b in enumerate(f.domain) if len(g.image(b)) == 0)
    if not erased:
        return ()
    closure = _letter_graph(f, closed=True)
    return tuple(b for b, row in zip(f.domain, closure) if not row & ~erased)


def mortal_letters(f):
    """Letters b with f^n(b) empty for some n: those whose closure holds no
    letter on a cycle, as a walk that meets no cycle has fewer than #A
    steps, and one that meets a cycle extends to walks of every length."""
    closure = _letter_graph(f, closed=True)
    cyclic = _cyclic_letters(_letter_graph(f), closure)
    return tuple(l for l, row in zip(f.domain.letters, closure) if not row & cyclic)


def is_prolongable(f, letter):
    """True iff f(letter) = letter u with u non-empty and |f^n(letter)| unbounded,
    i.e. u holds a letter that is not mortal: f^n(letter) = letter u f(u) ... f^(n-1)(u)."""
    if not f.is_endomorphism:
        raise DomainMismatchError("prolongability needs an endomorphism")
    code = f.domain.index(letter)
    img = f.images[code]
    if len(img) < 2 or img.codes[0] != code:
        return False
    return not set(mortal_letters(f)).issuperset(img.letters()[1:])
