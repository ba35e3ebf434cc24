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
recovers the position in f^w(a) of each kept letter it needs from Parikh
vectors: a kept letter v at offset o of f^K(w), w its parent, sits at
|pi(v)|, where pi(v) = Mat_(f^K) pi(w) + Parikh(f^K(w)[:o]) counts the
letters of f^w(a) before v, and pi(a) = 0.

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

import math
import os
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from functools import cached_property
from itertools import accumulate, chain, compress, count
from operator import ne

from .errors import (
    BudgetExceededError,
    DomainMismatchError,
    InsufficientLengthError,
    NotProlongableError,
)
from .words import Word, is_prolongable, largest_erasable

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


def _concat(out, images, codes):
    """Append images[c] for c in codes to the buffer `out`, and return it."""
    for c in codes:
        out += images[c]
    return out


class FixedPointStream:
    """Grows a prefix of f^w(start) on demand, pumping f^K (see the module
    docstring).

    f(start) must start with start; `check=False` skips only the test
    that |f^n(start)| grows, so a finite fixed point stalls on demand.
    """

    def __init__(self, f, start, check=True):
        image = f.image(start).codes
        if (check and not is_prolongable(f, start)) or not image or image[0] != f.domain.index(start):
            raise NotProlongableError(f"morphism is not prolongable on {start!r}")
        self.morphism = f
        self.start = start
        code_buffer = f.domain._code_buffer  # a bytearray, or a list past 256 letters
        base = [code_buffer(w.codes) for w in f.images]
        images = base
        for _ in range(_pump_power(base) - 1):
            images = [_concat(code_buffer(), images, w) for w in base]  # f^(k+1)(b) = f^k(f(b))
        # the images of f^K; buffer = f^K(buffer[:read]), read the reader's position
        self._images = images
        self._buffer = code_buffer(images[image[0]])
        # the read head: an iterator over a bytearray or list sees what is appended to it
        self._reader = iter(self._buffer)
        next(self._reader, None)

    def _delete(self, erased):
        """Grow D(f^w(start)) = f_K^w(start) from now on, f_K = D o f^K and
        D the erasure of the letters in the bitset `erased`, a set closed
        under f.  Call it before the first read."""
        def kept(codes):
            out = codes[:0]
            out.extend(c for c in codes if not erased >> c & 1)
            return out

        self._images = list(map(kept, self._images))
        # the reader has passed position 0, where start is: gone with start erased
        self._buffer[:] = kept(self._buffer)

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


def _descend(parikh, steps, head):
    """Mat_f parikh + head, with steps[b] the (letter, count) pairs of f(b):
    the letter counts of f(u) v for u, v with Parikh vectors parikh, head."""
    out = list(head)
    for x, step in zip(parikh, steps):
        if x:
            for c, k in step:
                out[c] += x * k
    return out


class ImageStream:
    """Applies a morphism to a fixed-point stream, one parent at a time.

    Erasing images simply contribute nothing; the letters g erases
    forever are never pumped at all, and the source holds only the
    parents of the letters the stream outputs (see the module docstring).
    `budget` caps how many symbols of f^w(start) may be consumed in total,
    turning a finite or very dilute image into a diagnosable error instead
    of a hang.  After each served request, `consumed` is the least number
    of symbols of f^w(start) whose image holds the longest prefix requested
    so far, as a symbol-by-symbol pump leaves it: a round that still needs
    d output symbols reads ceil(d/L) kept letters, L the longest image, no
    fewer of which could have produced d, and `consumed` is one past the
    position of the last of them.
    """

    def __init__(self, g, f, start, budget=None, check=True):
        if not set(f.domain.letters) <= set(g.domain.letters):
            raise DomainMismatchError("the image morphism must cover the generator's alphabet")
        self.source = FixedPointStream(f, start, check=check)
        self.morphism = g
        self.budget = default_budget() if budget is None else budget
        self._images = [g.image(letter).codes for letter in f.domain.letters]
        self._longest = max(map(len, self._images))
        erased = largest_erasable(f, g.restrict_domain(f.domain.letters))
        self._erased = sum(1 << f.domain.index(b) for b in erased)
        self._powers = self.source._images  # f^K(b) for each letter b, before pruning
        self.source._delete(self._erased)
        # |f_K(b)| for each letter b, and the longest (1 when all are empty)
        self._lengths = list(map(len, self.source._images))
        self._widest = max(self._lengths) or 1
        self._buffer = g.codomain._code_buffer()
        self._read = 0  # kept letters read
        self.consumed = 0
        # sums[r] = |f_K(P[:r])| for the kept letters P, and pi by kept index
        self._sums = array("q", [0])
        self._parikh = {0: [0] * len(f.domain)}

    @cached_property
    def _blocks(self):
        """B(b) = g(f_K(b)) for each letter b."""
        code_buffer = self.morphism.codomain._code_buffer
        return [_concat(code_buffer(), self._images, w) for w in self.source._images]

    @cached_property
    def _steps(self):
        """The (letter, count) pairs of f^K(b) for each letter b."""
        return [tuple(Counter(w).items()) for w in self._powers]

    @cached_property
    def _kept_at(self):
        """For each letter b, the offsets in f^K(b) of its kept letters."""
        return [[o for o, c in enumerate(w) if not self._erased >> c & 1] for w in self._powers]

    def _head(self, b, o):
        """Parikh(f^K(b)[:offset]) for the offset of the o-th kept letter of f^K(b)."""
        counts = [0] * len(self._powers)
        for c in self._powers[b][: self._kept_at[b][o]]:
            counts[c] += 1
        return counts

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

    def _position(self, j):
        """Position in f^w(start) of the kept letter P[j], |pi(P[j])|."""
        if not self._erased:
            return j
        self._cover(j)
        kept, sums, memo = self.source._buffer, self._sums, self._parikh
        path = []
        while j not in memo:
            r = bisect_right(sums, j) - 1
            path.append((j, r))
            j = r
        parikh = memo[j]
        for j, r in reversed(path):
            parikh = memo[j] = _descend(parikh, self._steps, self._head(kept[r], j - sums[r]))
        return sum(parikh)

    def _source_length(self):
        """|f^w(start)|, possibly infinite.  With f(start) = start u,
        |f^(k+1)(start)| - |f^k(start)| = |f^k(u)|, and f^#A(u) is empty when
        any f^k(u) is: a walk of #A steps in the letter graph passes a cycle.
        The lengths |f^(Kk)(start)| step by Mat_(f^K) and stop growing
        within #A steps too, and only where f^w(start) is finite."""
        f = self.source.morphism
        parikh = [0] * len(f.domain)
        parikh[f.domain.index(self.source.start)] = 1
        length = 1
        for _ in range(len(f.domain) + 1):
            parikh = _descend(parikh, self._steps, [0] * len(parikh))
            if sum(parikh) == length:
                return length
            length = sum(parikh)
        return math.inf

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
        buffer = self._buffer
        longest = self._longest
        while len(buffer) < n:
            if self.consumed >= self.budget:
                raise BudgetExceededError(
                    f"consumed {self.consumed} source symbols for {len(buffer)} output symbols; "
                    "the image word is likely finite (budget exceeded)"
                )
            # each kept letter takes a position of its own
            k = self.budget - self.consumed
            if longest:
                k = min(-(-(n - len(buffer)) // longest), k)
            read = self._read
            stall = None
            try:
                self._cover(read + k - 1)
            except NotProlongableError as error:
                # g erases the rest of f^w(start), or f^w(start) ends
                stall = error
            end = min(read + k, self._sums[-1])
            limit = self.budget if stall is None else min(self.budget, self._source_length())
            if stall is None and (last := self._position(end - 1)) < limit:
                self.consumed = last + 1
            else:
                # keep the kept letters before position `limit`
                end = read + bisect_left(range(read, end), limit, key=self._position)
                self.consumed = limit
            self._emit(read, end)
            self._read = end
            if stall is not None and limit < self.budget:
                raise stall

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
    """First n symbols of g(f^w(start)) under a source-symbol budget."""
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
