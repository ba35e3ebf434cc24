"""morphlab: exact growth analysis of free-monoid morphisms.

The library computes exact asymptotic growth types Theta(n^d lambda^n)
for iterated morphisms and for entries/sums of powers of non-negative
integer matrices, verifies dilated-matrix invariants, generates lazy
prefixes of fixed points and their morphic images, and constructively
rewrites any erasing presentation g(f^w(a)) of an infinite word into a
non-erasing morphism plus a coding producing the same word.
"""

from .errors import (
    BudgetExceededError,
    DomainMismatchError,
    FiniteWordError,
    InsufficientLengthError,
    InvariantError,
    MorphlabError,
    NotASubMorphismError,
    NotPrimitiveError,
    NotProlongableError,
    ParseError,
)
from .intmat import IncidenceMatrix
from .words import (
    Alphabet,
    Morphism,
    ParikhVector,
    Word,
    apply,
    compose,
    erase_and_restrict,
    erasure,
    identity_morphism,
    incidence_matrix,
    is_prolongable,
    largest_erasable,
    morphism_from_chars,
    mortal_letters,
    parikh,
    power,
    restrict,
)
from .spectral import (
    AlgebraicRadius,
    BlockDecomposition,
    GrowthType,
    analyze_morphism,
    column_growth,
    cyclicity,
    decompose,
    entry_growth,
    is_primitive,
    letter_growth,
    perron_eigenvalue,
    perron_enclosure,
    radius_compare,
    row_growth,
    spectral_radius_enclosure,
)
from .dilation import (
    check_radius_preserved,
    dilate_vector,
    is_dilated,
    rational_eigenvalues,
    rational_radius_enclosure,
    shares_rational_spectrum,
)
from .streams import (
    FixedPointStream,
    ImageStream,
    first_mismatch,
    fixed_point_prefix,
    image_prefix,
    prefix_equal,
)
from .normalize import (
    MorphicPresentation,
    NormalizationReport,
    build_sigma_tau,
    eliminate_effacement,
    growth_trichotomy,
    make_monotone,
    monotone_powers,
    normalize,
)
from .parser import MorphismFile, format_file, format_morphism, parse_file

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
