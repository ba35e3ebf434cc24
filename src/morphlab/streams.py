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
        self._read = 1

    def _ensure(self, n):
        buffer = self._buffer
        images = self._images
        read = self._read
        while len(buffer) < n:
            if read >= len(buffer):
                raise NotProlongableError(
                    f"expansion stalled; the fixed point of {self.morphism!r} is finite"
                )
            buffer.extend(images[buffer[read]])
            read += 1
        self._read = read

    def prefix(self, n):
        """The first n symbols of the fixed point."""
        if n < 0:
            raise DomainMismatchError("prefix length must be non-negative")
        self._ensure(n)
        return Word(self.morphism.domain, tuple(self._buffer[:n]))

    def symbol_at(self, i):
        self._ensure(i + 1)
        return self._buffer[i]


class ImageStream:
    """Applies a morphism symbol by symbol to a fixed-point stream.

    Erasing images simply contribute nothing; `budget` caps how many
    source symbols may be consumed in total, turning a finite or very
    dilute image into a diagnosable error instead of a hang.
    """

    def __init__(self, g, f, start, budget=None, check=True):
        if not set(f.domain.letters) <= set(g.domain.letters):
            raise DomainMismatchError("the image morphism must cover the generator's alphabet")
        self.source = FixedPointStream(f, start, check=check)
        self.morphism = g
        self.budget = default_budget() if budget is None else budget
        self._images = [list(g.image(letter).codes) for letter in f.domain.letters]
        self._buffer = []
        self.consumed = 0

    def _pump(self, n):
        buffer = self._buffer
        images = self._images
        while len(buffer) < n:
            if self.consumed >= self.budget:
                raise BudgetExceededError(
                    f"consumed {self.consumed} source symbols for {len(buffer)} output symbols; "
                    "the image word is likely finite (budget exceeded)"
                )
            code = self.source.symbol_at(self.consumed)
            self.consumed += 1
            buffer.extend(images[code])

    def prefix(self, n):
        """The first n symbols of g(f^w(start))."""
        if n < 0:
            raise DomainMismatchError("prefix length must be non-negative")
        self._pump(n)
        return Word(self.morphism.codomain, tuple(self._buffer[:n]))


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
    a = w1.letters()
    b = w2.letters()
    for i in range(n):
        if a[i] != b[i]:
            return i
    return None


def prefix_equal(w1, w2, n):
    """True when the length-n prefixes agree."""
    return first_mismatch(w1, w2, n) is None
