"""Dilated matrices and vectors.

A dilated version of an m x m matrix M replaces each entry M[i][j] by a
k_i x k_j block whose rows all sum to M[i][j]; rows and columns are
indexed by pairs (i, k) laid out block by block.  Dilated matrices keep
the spectral radius of the original, which this module verifies with
certified enclosures rather than assuming.

Entries may be exact rationals (the computable fragment of the real
matrices the definition allows); radius checks additionally require
non-negativity.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainMismatchError
from .intmat import IncidenceMatrix, charpoly
from .polytools import evaluate, rational_roots_of_monic_int
from .spectral import DEFAULT_WIDTH, spectral_radius_enclosure


def _as_rows(matrix):
    if isinstance(matrix, IncidenceMatrix):
        return matrix.rows
    return tuple(tuple(Fraction(x) if not isinstance(x, int) else x for x in row) for row in matrix)


def _offsets(kvec):
    offsets = [0]
    for k in kvec:
        if not isinstance(k, int) or k < 1:
            raise DomainMismatchError("dilatation entries must be positive integers")
        offsets.append(offsets[-1] + k)
    return offsets


def is_dilated(d, m, kvec):
    """Exact membership test: every block row of d sums to the matching entry of m."""
    d = _as_rows(d)
    m = _as_rows(m)
    kvec = tuple(kvec)
    offsets = _offsets(kvec)
    if len(m) != len(kvec):
        raise DomainMismatchError("dilatation vector length must match the base matrix size")
    if len(d) != offsets[-1]:
        raise DomainMismatchError("dilated matrix size must equal the sum of the dilatation vector")
    mm = len(kvec)
    for i in range(mm):
        for k in range(kvec[i]):
            row = d[offsets[i] + k]
            for j in range(mm):
                total = sum(row[offsets[j] + l] for l in range(kvec[j]))
                if total != m[i][j]:
                    return False
    return True


def dilate_vector(x, kvec):
    """Repeat x[i] exactly kvec[i] times, in pair-index order."""
    x = tuple(x)
    kvec = tuple(kvec)
    if len(x) != len(kvec):
        raise DomainMismatchError("vector length must match the dilatation vector")
    _offsets(kvec)
    out = []
    for value, k in zip(x, kvec):
        out.extend([value] * k)
    return tuple(out)


def rational_radius_enclosure(rows, width=DEFAULT_WIDTH):
    """rho enclosure for a non-negative matrix with rational entries (or
    anything `Fraction` reads as one), by spectral_radius_enclosure."""
    return spectral_radius_enclosure(_as_rows(rows), width)


def check_radius_preserved(d, m, kvec, width=DEFAULT_WIDTH):
    """True when the rho enclosures of m and a dilated d overlap at `width`.

    Preconditions (checked): d is a dilated version of m for kvec and both
    matrices are non-negative.
    """
    d = _as_rows(d)
    m = _as_rows(m)
    if not is_dilated(d, m, kvec):
        raise DomainMismatchError("matrix is not a dilated version of the base matrix")
    dlo, dhi = spectral_radius_enclosure(d, width)
    mlo, mhi = spectral_radius_enclosure(m, width)
    return max(dlo, mlo) <= min(dhi, mhi)


def rational_eigenvalues(rows):
    """Rational eigenvalues of an integer matrix (integer roots of its char poly)."""
    rows = _as_rows(rows)
    poly = charpoly(rows)
    if not all(isinstance(c, int) for c in poly):
        raise DomainMismatchError("rational eigenvalue listing needs an integer matrix")
    return rational_roots_of_monic_int(poly)


def shares_rational_spectrum(m, d):
    """Every rational eigenvalue of m is a root of the char poly of d (exact)."""
    m = _as_rows(m)
    d = _as_rows(d)
    poly_d = charpoly(d)
    return all(evaluate(poly_d, r) == 0 for r in rational_eigenvalues(m))
