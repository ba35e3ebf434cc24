"""Output checks that share no code path with what they check.

Radii are checked against numpy's floating-point eigenvalues, entry
growth against boolean matrix powers and the cycle structure the corpus
was built from, words against expansions made here with string
substitution, and the Thue-Morse and Baum-Sweet streams against their
arithmetic definitions.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from corpus import bool_step

# numpy's eigenvalues of a defective matrix (dilated matrices repeat
# eigenvalues) are only good to about sqrt(machine epsilon).
FLOAT_SLACK = 1e-6


def int_mat_mul(a, b):
    n = len(a)
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(a[i], col) if x) for col in cols] for i in range(n)]


def int_mat_pow(a, e):
    n = len(a)
    result = [[int(i == j) for j in range(n)] for i in range(n)]
    base = [list(r) for r in a]
    while e:
        if e & 1:
            result = int_mat_mul(result, base)
        e >>= 1
        if e:
            base = int_mat_mul(base, base)
    return result


def float_radius(rows):
    # imported here, after set-up is timed, so that set-up time counts
    # only the imports morphlab itself makes
    import numpy

    if not rows:
        return 0.0
    return float(max(abs(numpy.linalg.eigvals(numpy.array(rows, dtype=float)))))


def enclosure_holds(lo, hi, rho, width):
    """[lo, hi] is no wider than `width` and contains the float radius rho."""
    lo, hi = Fraction(lo), Fraction(hi)
    slack = FLOAT_SLACK * max(1.0, rho)
    return hi - lo <= width and float(lo) - slack <= rho <= float(hi) + slack


def blocks_hold(rows, p, blocks, width):
    """Each primitive block's enclosure contains the radius of its block of M^p,
    zero blocks report 0, and the largest block radius is rho(M)^p."""
    power = int_mat_pow(rows, p)
    top = 0.0
    for block in blocks:
        lo, hi = block["radius"]["enclosure"]
        if block["kind"] != "primitive":
            if Fraction(lo) != 0 or Fraction(hi) != 0:
                return False
            continue
        idx = [int(label) - 1 for label in block["letters"]]
        rho = float_radius([[power[i][j] for j in idx] for i in idx])
        if not enclosure_holds(lo, hi, rho, width):
            return False
        top = max(top, rho)
    expected = float_radius(rows) ** p
    return abs(top - expected) <= FLOAT_SLACK * max(1.0, expected)


def live_rows_cols(rows):
    """Indices whose row sum, and whose column sum, of M^n stays non-zero.

    A walk of every length starts at i exactly when i reaches a vertex on
    a cycle (or is one); likewise for walks ending at j.
    """
    n = len(rows)
    reach = [sum(1 << j for j, x in enumerate(row) if x) for row in rows]
    for k in range(n):  # Warshall: reach[i] becomes "reachable in >= 1 steps"
        for i in range(n):
            if reach[i] >> k & 1:
                reach[i] |= reach[k]
    cyclic = [c for c in range(n) if reach[c] >> c & 1]
    cyclic_mask = sum(1 << c for c in cyclic)
    live_rows = {i for i in range(n) if (reach[i] | 1 << i) & cyclic_mask}
    live_cols = {j for j in range(n) if any(c == j or reach[c] >> j & 1 for c in cyclic)}
    return live_rows, live_cols


# -- entry growth ----------------------------------------------------------------


class BoolPowers:
    """Rows of the boolean powers B^e of a matrix, held as int bitsets.

    Every n x n boolean matrix has index at most (n-1)^2 + 1, after which
    its powers repeat with a period dividing the cyclicity p.  So entry
    (i, j) of M^{pn+r} is ultimately zero exactly when bit j of row i of
    B^e is clear for the one e in [n^2, n^2 + p) with e = r mod p.
    """

    def __init__(self, rows, p):
        self.succ = [sum(1 << j for j, x in enumerate(row) if x) for row in rows]
        self.p = p
        self.start = len(rows) ** 2
        self._late = {}

    def _late_rows(self, i):
        if i not in self._late:
            v = 1 << i
            for _ in range(self.start):
                v = bool_step(v, self.succ)
            late = []
            for _ in range(self.p):
                late.append(v)
                v = bool_step(v, self.succ)
            self._late[i] = late
        return self._late[i]

    def vanishes(self, i, j, r):
        e = (r - self.start) % self.p
        return not self._late_rows(i)[e] >> j & 1


def cycle_growth(rows, cycles, i, j, r):
    """Growth of (M^{pn+r})_{i,j} read off the cycle structure.

    `cycles` lists the vertex cycles of M in walk order; every other
    vertex lies on no cycle.  A walk from i to j follows a path through
    the acyclic graph of cycles and free vertices; it has length d0 plus
    any combination of the lengths L of the cycles it passes, so the
    path serves residue r when r = d0 mod gcd(L).  Its rate is the
    largest W^(1/L) (W the product of a cycle's weights) on the path,
    its degree the number of cycles reaching that rate, minus one.
    Returns None for an ultimately vanishing entry, else (W, L, degree).
    """
    n = len(rows)
    node_of = {}
    where = {}
    info = []
    for c, cycle in enumerate(cycles):
        weight = math.prod(rows[cycle[t]][cycle[(t + 1) % len(cycle)]] for t in range(len(cycle)))
        info.append((weight, len(cycle)))
        for pos, v in enumerate(cycle):
            node_of[v] = c
            where[v] = pos
    for v in range(n):
        node_of.setdefault(v, ("free", v))

    def within(u, v):
        if node_of[u] != node_of[v]:
            return None
        if u == v:
            return 0
        if u not in where:
            return None
        return (where[v] - where[u]) % info[node_of[u]][1]

    best = None
    stack = [(i, 0, (node_of[i],))]
    while stack:
        v, dist, path = stack.pop()
        node = node_of[v]
        members = cycles[node] if isinstance(node, int) else [v]
        to_j = within(v, j)
        if to_j is not None:
            best = _better(best, _path_growth(dist + to_j, path, info, r))
            continue
        for u in members:
            step = within(v, u)
            for w in range(n):
                if rows[u][w] and node_of[w] != node and node_of[w] not in path:
                    stack.append((w, dist + step + 1, path + (node_of[w],)))
    return best


def _path_growth(d0, path, info, r):
    cyc = [info[c] for c in path if isinstance(c, int)]
    if not cyc:
        return None
    g = 0
    for _, length in cyc:
        g = math.gcd(g, length)
    if (r - d0) % g:
        return None
    top = cyc[0]
    for w, length in cyc[1:]:
        if _rate_cmp((w, length), top) > 0:
            top = (w, length)
    degree = sum(1 for c in cyc if _rate_cmp(c, top) == 0) - 1
    return top[0], top[1], degree


def _rate_cmp(a, b):
    """Compare W1^(1/L1) with W2^(1/L2) exactly."""
    x = a[0] ** b[1]
    y = b[0] ** a[1]
    return (x > y) - (x < y)


def _better(a, b):
    if a is None:
        return b
    if b is None:
        return a
    c = _rate_cmp(a[:2], b[:2])
    if c:
        return a if c > 0 else b
    return a if a[2] >= b[2] else b


def rate_poly(weight, length, step):
    """x^L - W^step: its one positive root is r when r^(1/step) = W^(1/L)."""
    return [-(weight**step)] + [0] * (length - 1) + [1]


# -- words -----------------------------------------------------------------------


class _Lazy(dict):
    """A translate table that fills itself on first use of each character."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class Expander:
    """Prefixes of g(f^w(a)) by whole-word string substitution.

    f_image and g_image map a letter to its image as a sequence of
    letters.  Letters may have multi-character names; each gets one
    private character so that `str.translate` does the substitution,
    and only images of letters that occur are ever read.
    """

    def __init__(self, f_image, g_image, start):
        self.code = {}
        self.letter = {}
        self.f_table = _Lazy(lambda o: "".join(self._char(x) for x in f_image(self.letter[o])))
        self.g_table = _Lazy(lambda o: "".join(g_image(self.letter[o])))
        self.seed = self._char(start)

    def _char(self, letter):
        c = self.code.get(letter)
        if c is None:
            c = self.code[letter] = chr(0x4E00 + len(self.code))
            self.letter[ord(c)] = letter
        return c

    def prefix(self, n, max_source=10**7):
        """First n symbols of g(f^w(a)) as a string of g's letters."""
        word = self.seed
        while True:
            image = word.translate(self.g_table)
            if len(image) >= n:
                return image[:n]
            longer = word.translate(self.f_table)
            if len(longer) <= len(word) or len(longer) > max_source:
                raise ValueError("the reference expansion cannot reach the requested length")
            word = longer


def word_text(word):
    """A morphlab Word whose letters are single characters, as a string."""
    return "".join(word.letters())


# -- streams ---------------------------------------------------------------------


def thue_morse(n):
    """t_k = 'a' when k has an even number of 1 bits, else 'b'."""
    return "".join("ab"[k.bit_count() & 1] for k in range(n))


_ODD_ZERO_BLOCK = re.compile(r"(?<!0)(?:00)*0(?!0)")


def baum_sweet_rule(k):
    """1 when the binary form of k has no block of zeros of odd length."""
    return "0" if k and _ODD_ZERO_BLOCK.search(format(k, "b")) else "1"


def baum_sweet(n):
    """b_0 .. b_{n-1} through b(4k) = b(k), b(4k+2) = 0, b(2k+1) = b(k),
    checked against the binary-block rule on every k below 2^12."""
    out = bytearray(b"1") * max(n, 1 << 12)
    for k in range(1, len(out)):
        if k & 1:
            out[k] = out[k >> 1]
        elif k & 3 == 0:
            out[k] = out[k >> 2]
        else:
            out[k] = ord("0")
    text = out.decode()
    if any(text[k] != baum_sweet_rule(k) for k in range(1 << 12)):
        raise AssertionError("Baum-Sweet recurrence disagrees with the block rule")
    return text[:n]
