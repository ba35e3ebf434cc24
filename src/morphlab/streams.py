"""Lazy prefixes of f^w(a) and of morphic images g(f^w(a)).

The fixed point is produced by the standard one-pass expansion: because
f(a) starts with a, the buffer always holds f applied to the prefix it
has already read, so replacing the next unread letter by its image
extends the buffer without ever recomputing f^k of a whole word.  For a
prolongable morphism the read head can never catch up with the write
head: if it did, f would fix (or shrink) that prefix and |f^n(a)| would
stay bounded.

Streams are single-consumer stateful objects; distinct streams are
independent.
"""

from __future__ import annotations

import os
from itertools import chain, compress, count, islice
from operator import ne

from .errors import (
    BudgetExceededError,
    DomainMismatchError,
    InsufficientLengthError,
    NotProlongableError,
)
from .words import Word, is_prolongable

DEFAULT_PUMP_BUDGET = 10**6
BUDGET_ENV_VAR = "MORPHLAB_BUDGET"


def default_budget():
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_PUMP_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise DomainMismatchError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from None
    if value <= 0:
        raise DomainMismatchError(f"{BUDGET_ENV_VAR} must be positive")
    return value


class FixedPointStream:
    """Grows a prefix of f^w(start) on demand."""

    def __init__(self, f, start, check=True):
        if check and not is_prolongable(f, start):
            raise NotProlongableError(f"morphism is not prolongable on {start!r}")
        self.morphism = f
        self.start = start
        self._images = [list(w.codes) for w in f.images]
        self._buffer = list(f.image(start).codes)
        # the read head: a list iterator sees what is appended to its list
        self._reader = iter(self._buffer)
        next(self._reader, None)

    def _ensure(self, n):
        buffer = self._buffer
        if len(buffer) >= n:
            return
        images = self._images
        for code in self._reader:
            buffer.extend(images[code])
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
        return Word(self.morphism.domain, tuple(islice(self._buffer, n)))


class ImageStream:
    """Applies a morphism to a fixed-point stream, block by block.

    Erasing images simply contribute nothing; `budget` caps how many
    source symbols may be consumed in total, turning a finite or very
    dilute image into a diagnosable error instead of a hang.  After each
    served request, `consumed` is the least number of source symbols
    whose image holds the longest prefix requested so far: a round that
    still needs d output symbols reads ceil(d/L) source symbols, L the
    longest image, and no fewer of them could have produced d.
    """

    def __init__(self, g, f, start, budget=None, check=True):
        if not set(f.domain.letters) <= set(g.domain.letters):
            raise DomainMismatchError("the image morphism must cover the generator's alphabet")
        self.source = FixedPointStream(f, start, check=check)
        self.morphism = g
        self.budget = default_budget() if budget is None else budget
        self._images = [list(g.image(letter).codes) for letter in f.domain.letters]
        self._longest = max(map(len, self._images))
        self._reader = iter(self.source._buffer)
        self._buffer = []
        self.consumed = 0

    def _pump(self, n):
        buffer = self._buffer
        images = self._images
        source = self.source
        longest = self._longest
        reader = self._reader
        while len(buffer) < n:
            if self.consumed >= self.budget:
                raise BudgetExceededError(
                    f"consumed {self.consumed} source symbols for {len(buffer)} output symbols; "
                    "the image word is likely finite (budget exceeded)"
                )
            k = self.budget - self.consumed
            if longest:
                k = min(-(-(n - len(buffer)) // longest), k)
            try:
                source._ensure(self.consumed + k)
            finally:
                # a finite source stalls short of k: the symbols before the
                # stall still count, as they would one by one
                k = min(k, len(source._buffer) - self.consumed)
                buffer.extend(chain.from_iterable(map(images.__getitem__, islice(reader, k))))
                self.consumed += k

    def prefix(self, n):
        """The first n symbols of g(f^w(start))."""
        if n < 0:
            raise DomainMismatchError("prefix length must be non-negative")
        self._pump(n)
        return Word(self.morphism.codomain, tuple(islice(self._buffer, n)))


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
        # w2's codes in w1's alphabet; a letter w1 lacks matches nothing
        target = w1.alphabet
        table = [target.index(letter) if letter in target else -1 for letter in w2.alphabet]
        b = tuple(map(table.__getitem__, b))
    if a == b:
        return None
    return next(compress(count(), map(ne, a, b)))


def prefix_equal(w1, w2, n):
    """True when the length-n prefixes agree."""
    return first_mismatch(w1, w2, n) is None
