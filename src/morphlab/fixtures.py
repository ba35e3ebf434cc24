"""Bundled example morphisms and matrices.

The Baum-Sweet sequence 1101100101001001... is the classic showcase: it
is generated both by a 2-uniform morphism with a coding and by an
erasing pair, which is exactly what the normalization pipeline removes.
The three-letter endomorphism whose visible part is the Thue-Morse word
shows that erasure can change the growth rate (3 down to 2).
"""

import re
from importlib import resources

from .errors import ParseError
from .intmat import IncidenceMatrix
from .words import morphism_from_chars


def baum_sweet_uniform():
    """(sigma, tau, start): 2-uniform generator plus coding for 1101100101001001..."""
    sigma = morphism_from_chars({"a": "ab", "b": "cb", "c": "bd", "d": "dd"})
    tau = morphism_from_chars({"a": "1", "b": "1", "c": "0", "d": "0"})
    return sigma, tau, "a"


def baum_sweet_erasing():
    """(sigma', tau', start): an erasing presentation of the same sequence."""
    sigma = morphism_from_chars(
        {"a": "abe", "b": "cefb", "c": "bfd", "d": "defd", "e": "ef", "f": ""}
    )
    tau = morphism_from_chars({"a": "1", "b": "1", "c": "0", "d": "0", "e": "", "f": ""})
    return sigma, tau, "a"


def thue_morse_projection():
    """(f, g, start): erasing c from f^w(a) turns a rate-3 word into Thue-Morse."""
    f = morphism_from_chars({"a": "abc", "b": "bac", "c": "ccc"})
    g = morphism_from_chars({"a": "a", "b": "b", "c": ""})
    return f, g, "a"


def demo_matrix():
    """A 9-vertex digraph mixing a weight-3 period-2 ladder with a weight-2
    3-cycle; its cyclicity is 6 and the two per-step rates are sqrt(3) and 2."""
    text = resources.files("morphlab").joinpath("data/demo9.mat").read_text()
    return load_matrix_text(text)


def load_matrix_text(text):
    """Parse a whitespace integer grid into an IncidenceMatrix; a token
    that is not an integer raises ParseError at its line and column."""
    rows = []
    for line, row_text in enumerate(text.splitlines(), 1):
        row = []
        for tok in re.finditer(r"\S+", row_text):
            try:
                row.append(int(tok[0]))
            except ValueError:
                raise ParseError(f"{tok[0]!r} is not an integer", line, tok.start() + 1) from None
        if row:
            rows.append(row)
    return IncidenceMatrix(rows)
