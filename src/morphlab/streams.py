"""Lazy prefixes of f^w(a) and of morphic images g(f^w(a)).

f^w(a) is also the fixed point of every power f^K, since f^K(a) starts
with a.  A stream pumps f^K, with K chosen from image lengths alone: the
images of f^K hold at most 64 symbols per letter of the alphabet in all
(K = 1 when those of f already hold more), K is at most 64, and K stops
where one more power would leave every image length as it is.  By the
Perron asymptotics |f^k(b)| ~ c k^d lambda^k a small K gives long images,
so the expansion loop makes one Python step per image of f^K, not per
image of f.

The fixed point is produced by the standard one-pass expansion: the
buffer always holds f^K applied to the prefix it has already read, so
replacing the next unread letter by its image extends the buffer without
ever recomputing a power of a whole word.  For a prolongable morphism the
read head can never catch up with the write head: if it did, f^K would
fix (or shrink) that prefix and |f^n(a)| would stay bounded.  Whether f
is prolongable, and so whether the stream may start, is decided on f
itself.

An image stream skips the letters g erases forever.  The largest set E
of letters whose closure in f's letter graph g erases is closed under
f, so with D the erasure of E, D(f^K(w)) = f_K(D(w)) for f_K = D o f^K,
and g(f^w(a)) = g(f_K^w(a)).  The stream pumps P = f_K^w(a) only, and
its budget counts the letters of P it reads, the kept letters.  P ends
exactly when g(f^w(a)) is finite: a kept letter that occurs infinitely
often has a descendant g keeps, which occurs infinitely often too.

P = f_K(P) gives g(P) = (g o f_K)(P) too, so the stream outputs g one
parent at a time: with sums[r] = |f_K(P[:r])|, the block
P[sums[r]:sums[r+1]] is f_K(P[r]), and its image is B(P[r]) for B(b) =
g(f_K(b)), built once per stream.  Only the two blocks at the ends of a
request put a slice of f_K(P[r]) through g letter by letter.  The source
therefore holds the parents P[r] alone, about one kept letter in |f_K|
of those the stream outputs, and reads only as many as the sums need.

Images, blocks and buffers hold codes as the alphabet's words do:
bytearrays over alphabets of at most 256 letters, lists over larger ones
(Alphabet._code_buffer).  A prefix is then one slice copy, and Word's
range check one C call.

Streams are single-consumer stateful objects; distinct streams are
independent.
"""

from __future__ import annotations

import os
from array import array
from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import accumulate, chain, compress, count
from operator import ne

from .errors import (
    BudgetExceededError,
    DomainMismatchError,
    InsufficientLengthError,
    NotProlongableError,
)
from .words import Word, _concat, is_prolongable, largest_erasable

DEFAULT_PUMP_BUDGET = 10**6
BUDGET_ENV_VAR = "MORPHLAB_BUDGET"
# a stream pumps f^K, K at most _MAX_POWER, whose images hold at most
# _POWER_SYMBOLS symbols per letter of the alphabet in all (see _pump_power)
_POWER_SYMBOLS = 64
_MAX_POWER = 64


def parse_budget(raw, name=BUDGET_ENV_VAR):
    """A pump budget from text: a positive integer, else DomainMismatchError."""
    try:
        value = int(raw)
    except ValueError:
        raise DomainMismatchError(f"{name} must be an integer, got {raw!r}") from None
    if value <= 0:
        raise DomainMismatchError(f"{name} must be positive")
    return value


def default_budget():
    raw = os.environ.get(BUDGET_ENV_VAR)
    return DEFAULT_PUMP_BUDGET if raw is None else parse_budget(raw)


def _pump_power(images):
    """The power K of f that a stream pumps, f given by its image code
    lists: K steps the length vector |f^k(b)| by Mat_f until the next step
    would hold more than _POWER_SYMBOLS * #A symbols in all, until the
    lengths stop changing, or until K = _MAX_POWER.  No word is built."""
    lengths = list(map(len, images))
    k = 1
    while k < _MAX_POWER:
        ahead = [sum(map(lengths.__getitem__, image)) for image in images]
        if ahead == lengths or sum(ahead) > _POWER_SYMBOLS * len(images):
            break
        lengths, k = ahead, k + 1
    return k


class FixedPointStream:
    """Grows a prefix of f^w(start) on demand, pumping f^K (see the module
    docstring).

    f(start) must start with start; `check=False` skips only the test
    that |f^n(start)| grows, so a finite fixed point stalls on demand.
    The letters in `erased`, which f must map to words over them alone,
    are deleted from f's images before any power is taken: the stream
    then grows D(f^w(start)) = f_K^w(start), empty when start is erased.
    """

    def __init__(self, f, start, check=True, erased=()):
        image = f.image(start).codes
        if (check and not is_prolongable(f, start)) or not image or image[0] != f.domain.index(start):
            raise NotProlongableError(f"morphism is not prolongable on {start!r}")
        drop = set(map(f.domain.index, erased))
        if not all(drop.issuperset(f.images[c].codes) for c in drop):
            raise DomainMismatchError("f must map the erased letters to erased letters")
        self.morphism = f
        self.start = start
        code_buffer = f.domain._code_buffer  # a bytearray, or a list past 256 letters
        base = [code_buffer([c for c in w.codes if c not in drop] if drop else w.codes) for w in f.images]
        images = base
        # (D o f)^K = D o f^K, as f maps the erased letters among themselves
        for _ in range(_pump_power(base) - 1):
            images = [_concat(code_buffer(), images, w) for w in base]  # f^(k+1)(b) = f^k(f(b))
        # the images of f_K (f^K when nothing is erased); buffer = f_K(buffer[:read]),
        # read the reader's position
        self._images = images
        self._buffer = code_buffer(images[image[0]])
        # the read head: an iterator over a bytearray or list sees what is appended to it
        self._reader = iter(self._buffer)
        next(self._reader, None)

    def _ensure(self, n):
        buffer = self._buffer
        if len(buffer) >= n:
            return
        images = self._images
        for code in self._reader:
            buffer += images[code]
            if len(buffer) >= n:
                return
        raise NotProlongableError(
            f"expansion stalled; the fixed point of {self.morphism!r} is finite"
        )

    def prefix(self, n):
        """The first n symbols of the fixed point."""
        if n < 0:
            raise DomainMismatchError("prefix length must be non-negative")
        self._ensure(n)
        return Word(self.morphism.domain, self._buffer[:n])


class ImageStream:
    """Applies a morphism to a fixed-point stream, one parent at a time.

    The letters g erases forever are never pumped at all, and the source
    holds only the parents of the letters the stream outputs (see the
    module docstring).  `budget` caps how many kept letters, those of
    f^w(start) outside that set, may be read in total, turning a very
    dilute image into a diagnosable error instead of a hang.  A finite
    image word raises BudgetExceededError once it is read to its end,
    whatever the budget, and the error says that it is finite.  After
    each served request, `consumed` is the least number of kept letters
    whose image holds the longest prefix requested so far, as a
    letter-by-letter pump leaves it: a round that still needs d output
    symbols reads ceil(d/L) kept letters, L the longest image, no fewer
    of which could have produced d.
    """

    def __init__(self, g, f, start, budget=None, check=True):
        if not set(f.domain.letters) <= set(g.domain.letters):
            raise DomainMismatchError("the image morphism must cover the generator's alphabet")
        erased = largest_erasable(f, g.restrict_domain(f.domain.letters))
        self.source = FixedPointStream(f, start, check=check, erased=erased)
        self.morphism = g
        self.budget = default_budget() if budget is None else budget
        self._images = [g.image(letter).codes for letter in f.domain.letters]
        self._longest = max(map(len, self._images))
        # |f_K(b)| for each letter b, and the longest (1 when all are empty)
        self._lengths = list(map(len, self.source._images))
        self._widest = max(self._lengths) or 1
        self._buffer = g.codomain._code_buffer()
        self.consumed = 0  # kept letters read
        # sums[r] = |f_K(P[:r])| for the kept letters P
        self._sums = array("q", [0])

    @cached_property
    def _blocks(self):
        """B(b) = g(f_K(b)) for each letter b."""
        code_buffer = self.morphism.codomain._code_buffer
        return [_concat(code_buffer(), self._images, w) for w in self.source._images]

    def _cover(self, j):
        """Read parents P[r] into the source and sum their images until
        sums[-1] > j, so that P[j] lies in the block of a known parent.

        Each parent's block holds at most _widest kept letters, so the
        source never reads more parents than j needs, but for the rest of
        one image of f_K.  On a finite P the source raises
        NotProlongableError once every parent is summed, and sums[-1] =
        |f_K(P)| = |P| <= j then."""
        sums, kept, lengths = self._sums, self.source._buffer, self._lengths
        while sums[-1] <= j:
            r = len(sums) - 1
            try:
                # r + ceil((j + 1 - sums[-1]) / _widest) parents: no fewer can reach j
                self.source._ensure(r - (sums[-1] - j - 1) // self._widest)
            finally:
                sums.extend(accumulate(map(lengths.__getitem__, kept[r:]), initial=sums.pop()))

    def _emit(self, read, end):
        """Append g(P[read:end]) to the output: B(P[r]) for every parent r
        whose whole block lies in the range, and the slices of the blocks
        at the two ends through g letter by letter."""
        sums, kept, powers, images = self._sums, self.source._buffer, self.source._images, self._images

        def letters(r, lo, hi):  # g(P[lo:hi]), inside the block of parent r
            return chain.from_iterable(map(images.__getitem__, powers[kept[r]][lo - sums[r] : hi - sums[r]]))

        buffer = self._buffer
        first, last = bisect_left(sums, read), bisect_right(sums, end) - 1
        if first > last:  # read and end inside the block of parent `last`
            buffer.extend(letters(last, read, end))
            return
        if read < sums[first]:
            buffer.extend(letters(first - 1, read, sums[first]))
        blocks = self._blocks
        for b in kept[first:last]:  # one list copy per block, no step per symbol
            buffer += blocks[b]
        if end > sums[last]:
            buffer.extend(letters(last, sums[last], end))

    def _pump(self, n):
        buffer, sums, longest = self._buffer, self._sums, self._longest
        while len(buffer) < n:
            read = self.consumed
            k = self.budget - read
            if longest:  # no fewer kept letters than ceil(d / L) give the d symbols still needed
                k = min(-(-(n - len(buffer)) // longest), k)
            try:
                # with the budget spent, whether P[read] exists decides the error
                self._cover(read + max(k, 1) - 1)
            except NotProlongableError:
                # P ends before read + k, so the image word ends short of n
                self._emit(read, sums[-1])
                self.consumed = sums[-1]
                if not is_prolongable(self.source.morphism, self.source.start):
                    raise  # f^w(start) itself is finite
                raise BudgetExceededError(
                    f"the image word is finite: its length is {len(buffer)}, short of {n}"
                ) from None
            if k <= 0:
                raise BudgetExceededError(
                    f"the pump budget of {self.budget} kept letters served {len(buffer)} "
                    f"of {n} output symbols; raise it"
                )
            self._emit(read, read + k)
            self.consumed = read + k

    def prefix(self, n):
        """The first n symbols of g(f^w(start))."""
        if n < 0:
            raise DomainMismatchError("prefix length must be non-negative")
        self._pump(n)
        return Word(self.morphism.codomain, self._buffer[:n])


def fixed_point_prefix(f, start, n):
    """First n symbols of f^w(start); requires prolongability on start."""
    return FixedPointStream(f, start).prefix(n)


def image_prefix(g, f, start, n, max_pump=None):
    """First n symbols of g(f^w(start)), reading at most `max_pump` kept
    letters (those g does not erase forever; see ImageStream)."""
    return ImageStream(g, f, start, budget=max_pump).prefix(n)


def first_mismatch(w1, w2, n):
    """Index of the first difference within the first n symbols, or None."""
    if len(w1) < n or len(w2) < n:
        raise InsufficientLengthError(
            f"prefix comparison needs {n} symbols, got {len(w1)} and {len(w2)}"
        )
    a = w1.codes[:n]
    b = w2.codes[:n]
    if w1.alphabet != w2.alphabet:
        # w2's codes in w1's alphabet, both as tuples (the alphabets may store
        # words differently); a letter w1 lacks matches nothing
        target = w1.alphabet
        table = [target.index(letter) if letter in target else -1 for letter in w2.alphabet]
        a, b = tuple(a), tuple(map(table.__getitem__, b))
    if a == b:
        return None
    return next(compress(count(), map(ne, a, b)))


def prefix_equal(w1, w2, n):
    """True when the length-n prefixes agree."""
    return first_mismatch(w1, w2, n) is None
