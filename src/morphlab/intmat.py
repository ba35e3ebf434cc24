"""Exact linear algebra on small square matrices.

Matrices are tuples of tuples holding Python ints, so every operation is
exact regardless of magnitude; `charpoly` also accepts rational entries
and clears their denominators first.  Products combine whole rows, so
their cost follows the non-zero entries of the left factor, and
`charpoly` packs each row of a power into one int, so that a row of the
next power is one bignum sum per non-zero entry of the matrix.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import lcm

from .errors import DomainMismatchError, InvariantError


def freeze(rows):
    """Normalize a row-of-rows into a tuple-of-tuples."""
    return tuple(tuple(row) for row in rows)


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a, b):
    """Product of an n x k and a k x m matrix; row i is the combination of
    the rows of b weighted by the non-zero entries of row i of a."""
    m = len(b[0])
    out = []
    for row_a in a:
        acc = [0] * m
        for x, row_b in zip(row_a, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, row_b)]
        out.append(tuple(acc))
    return tuple(out)


def mat_pow(a, e):
    if e < 0:
        raise DomainMismatchError("negative matrix power")
    result = identity(len(a))
    base = a
    while e:
        if e & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base) if e > 1 else base
        e >>= 1
    return result


# Zero patterns.  For a non-negative matrix, (A B)[i][j] > 0 exactly when
# some t has A[i][t] > 0 and B[t][j] > 0, so the pattern of a power needs
# only boolean arithmetic.  A support is a tuple of Python-int bitsets,
# one per row, with bit j of row i set when the entry (i, j) is positive.


def support(rows):
    """Zero pattern of a non-negative matrix as one bitset per row."""
    return tuple(sum(1 << j for j, x in enumerate(row) if x > 0) for row in rows)


def support_row_mul(row, b):
    """Pattern of the row vector `row` times `b`: the OR of the rows of `b`
    picked by the set bits of `row`."""
    out = 0
    while row:
        low = row & -row
        out |= b[low.bit_length() - 1]
        row ^= low
    return out


def support_ladder(s, e):
    """The squaring ladder (S, S^2, S^4, ..., S^(2^k)) of the pattern S = `s`,
    with 2^k <= e < 2^(k+1); just (S,) when e <= 1.  Level u is the pattern
    of A^(2^u), so any power up to A^(2^(k+1) - 1) is a walk through the
    levels at the set bits of its exponent."""
    ladder = [s]
    for _ in range(max(e, 1).bit_length() - 1):
        base = ladder[-1]
        ladder.append(tuple(support_row_mul(row, base) for row in base))
    return tuple(ladder)


def ladder_row(row, ladder, e):
    """Pattern of the row vector `row` times A^e: `row` walked through the
    levels of A's squaring `ladder` at the set bits of e, one row product
    each."""
    u = 0
    while e:
        if e & 1:
            row = support_row_mul(row, ladder[u])
        e >>= 1
        u += 1
    return row


def ladder_column(col, ladder, e):
    """Pattern of A^e times the column vector `col`, both as bitsets over
    the rows: at each set bit u of e, bit k of the new column is set when
    row k of ladder level u meets the current one."""
    u = 0
    while e:
        if e & 1:
            col = sum(1 << k for k, row in enumerate(ladder[u]) if row & col)
        e >>= 1
        u += 1
    return col


def support_pow(s, e):
    """Pattern of A^e from the pattern `s` of A: the identity rows walked
    through the squaring ladder of `s`."""
    if e < 0:
        raise DomainMismatchError("negative matrix power")
    ladder = support_ladder(s, e)
    return tuple(ladder_row(1 << i, ladder, e) for i in range(len(s)))


def mat_vec(a, v):
    return tuple(sum(a[i][j] * v[j] for j in range(len(v)) if v[j]) for i in range(len(a)))


def vec_mat(v, a):
    n = len(a)
    return tuple(sum(v[i] * a[i][j] for i in range(n) if v[i]) for j in range(n))


def transpose(a):
    return tuple(zip(*a)) if a else ()


def submatrix(a, indices, columns=None):
    """a[indices, indices], or the rectangular a[indices, columns]."""
    idx = tuple(indices)
    cols = idx if columns is None else tuple(columns)
    return tuple(tuple(a[i][j] for j in cols) for i in idx)


def clear_denominators(rows):
    """(integer rows, d) with rows == integer rows / d and d the least such
    positive integer; int rows come back unchanged with d = 1."""
    if all(type(x) is int for row in rows for x in row):
        return rows, 1
    rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
    d = lcm(*(x.denominator for row in rows for x in row))
    return tuple(tuple(int(x * d) for x in row) for row in rows), d


def charpoly(a):
    """Characteristic polynomial det(xI - A), coefficients ascending in x.

    For an integer matrix the coefficients c_k of x^(n-k) follow from the
    traces t_i = tr(A^i), i <= n, by Newton's identities
    k c_k = -(c_(k-1) t_1 + c_(k-2) t_2 + ... + c_0 t_k), c_0 = 1; every
    division by k is exact, and a remainder raises InvariantError.  A
    rational matrix A = B / d is reduced to the integer matrix B, whose
    coefficients c_k give those of A as c_k / d^(n-k); the result is a
    list of ints when every coefficient is integral, else a list of
    Fractions.  The empty matrix yields the constant polynomial 1, and a
    matrix that is not square raises DomainMismatchError.
    """
    n = len(a)
    if n == 0:
        return [1]
    m, d = clear_denominators(freeze(a))
    if any(len(row) != n for row in m):
        raise DomainMismatchError("matrix is not square")
    traces = _power_traces(m)
    coeffs = [1]  # descending: x^n ... x^0
    for k in range(1, n + 1):
        c, rest = divmod(-sum(map(int.__mul__, coeffs, reversed(traces[:k]))), k)
        if rest:
            raise InvariantError("Newton's identities give a coefficient that is not an integer")
        coeffs.append(c)
    ascending = coeffs[::-1]
    if d == 1:
        return ascending
    scaled = [Fraction(c, d ** (n - k)) for k, c in enumerate(ascending)]
    if all(c.denominator == 1 for c in scaled):
        return [int(c) for c in scaled]
    return scaled


def _power_traces(m):
    """[tr(A), tr(A^2), ..., tr(A^n)] for a square integer matrix A.

    Row i of A^k is held as one int, the sum of (A^k)_ij 2^(jw).  With R
    the smaller of the largest absolute row sum and the largest absolute
    column sum, |(A^k)_ij| <= R^k <= R^n < 2^(w-1) for k <= n when
    w = bitlen(R^n) + 2 (R^k <= R^n as R is 0 or at least 1; a cycle, with
    R = 1, packs 3 bits per entry), so adding half = 2^(w-1) to every slot
    leaves each in [0, 2^w): no slot borrows from the next, and an entry
    reads as (((row + offset) >> jw) & mask) - half.  Packing is linear,
    so row i of A^(k+1) is the sum of A_it times row t of A^k over the
    non-zero A_it: one bignum multiply-add each.
    """
    n = len(m)
    bound = min(max(sum(map(abs, row)) for row in m), max(sum(map(abs, col)) for col in zip(*m)))
    w = (bound**n).bit_length() + 2
    half, mask = 1 << w - 1, (1 << w) - 1
    offset = half * sum(1 << j * w for j in range(n))
    terms = [[(x, t) for t, x in enumerate(row) if x] for row in m]
    power = [sum(x << j * w for j, x in enumerate(row)) for row in m]
    traces = []
    for k in range(n):
        if k:
            power = [sum(x * power[t] for x, t in row) for row in terms]
        traces.append(sum(((row + offset) >> i * w & mask) - half for i, row in enumerate(power)))
    return traces


class IncidenceMatrix:
    """A non-negative integer square matrix with labelled rows/columns.

    For a morphism f the entry at (a, b) counts occurrences of the letter a
    in f(b), so column sums are image lengths.  Interpreted as a digraph,
    entry (i, j) counts edges from vertex i to vertex j and the (i, j)
    entry of the n-th power counts walks of length n.
    """

    __slots__ = ("labels", "rows")

    def __init__(self, rows, labels=None):
        rows = freeze(rows)
        n = len(rows)
        for row in rows:  # each row checked in C: ints (bools among them), then their minimum
            if len(row) != n:
                raise DomainMismatchError("matrix is not square")
            if not all(map(isinstance, row, repeat(int))) or min(row) < 0:
                raise DomainMismatchError("entries must be non-negative integers")
        if labels is None:
            labels = tuple(str(i + 1) for i in range(n))
        else:
            labels = tuple(labels)
            if len(labels) != n:
                raise DomainMismatchError("label count does not match matrix size")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, name, value):
        raise AttributeError("IncidenceMatrix is immutable")

    @property
    def size(self):
        return len(self.rows)

    def index_of(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise DomainMismatchError(f"unknown label {label!r}") from None

    def transposed(self):
        return IncidenceMatrix(transpose(self.rows), self.labels)

    def __eq__(self, other):
        if not isinstance(other, IncidenceMatrix):
            return NotImplemented
        return self.labels == other.labels and self.rows == other.rows

    def __hash__(self):
        return hash((self.labels, self.rows))

    def __repr__(self):
        return f"IncidenceMatrix({list(map(list, self.rows))!r}, labels={list(self.labels)!r})"
