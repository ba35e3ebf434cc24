"""Property tests: the normalization pipeline on small random presentations."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, reject, settings, strategies as st

from morphlab import (
    BudgetExceededError,
    FiniteWordError,
    MorphicPresentation,
    NotProlongableError,
    image_prefix,
    incidence_matrix,
    letter_growth,
    morphism_from_chars,
    normalize,
    prefix_equal,
)

from util import meets_length_condition

SETTINGS = settings(derandomize=True, deadline=None, max_examples=300)
CHECK = 500
BUDGET = 10**5


@st.composite
def presentations(draw):
    """(f, g) over a..d with f(a) = a u, u non-empty; both may erase letters."""
    letters = "abcd"[: draw(st.integers(1, 4))]
    word = lambda lo, hi, alphabet: st.text(alphabet, min_size=lo, max_size=hi)
    f = {letter: draw(word(0, 3, letters)) for letter in letters}
    f["a"] = "a" + draw(word(1, 2, letters))
    g = {letter: draw(word(0, 2, "xy")) for letter in letters}
    return f, g


@SETTINGS
@given(presentations())
def test_pipeline_invariants(fg):
    f, g = fg
    try:
        pres = MorphicPresentation(morphism_from_chars(f), morphism_from_chars(g), "a")
        report = normalize(pres)
    except (NotProlongableError, FiniteWordError):
        reject()
    sigma, tau = report.sigma, report.tau
    assert all(len(sigma.image(b)) >= 1 for b in sigma.domain), "sigma erases a letter"
    assert all(len(tau.image(b)) == 1 for b in tau.domain), "tau is not a coding"

    # q is the least power with |g'(f'^q(b))| >= |g'(b)|, strict at the start letter
    visible, monotone = report.stages[-3], report.stages[-2]
    assert (visible.name, monotone.name) == ("visibility-power", "monotone")
    rows = incidence_matrix(visible.f).rows
    lengths = tuple(len(monotone.g.image(b)) for b in visible.f.domain)
    si = visible.f.domain.index(pres.start)
    q = report.stretch_power
    assert meets_length_condition(rows, lengths, q, si), "q misses the length condition"
    smaller = [k for k in range(1, q) if meets_length_condition(rows, lengths, k, si)]
    assert not smaller, f"q = {q} is not least: {smaller} qualify"

    # the pairing keeps the growth type of f'^q at the start letter
    growth = letter_growth(sigma, report.start)
    assert growth == letter_growth(monotone.f, pres.start) == report.output_growth

    try:
        original = image_prefix(pres.g, pres.f, pres.start, CHECK, max_pump=BUDGET)
    except BudgetExceededError:
        reject()  # too sparse to check within the budget; the rebuilt side is never excused
    rebuilt = image_prefix(tau, sigma, report.start, CHECK, max_pump=BUDGET)
    assert prefix_equal(original, rebuilt, CHECK), "tau(sigma^w) differs from g(f^w(a))"
