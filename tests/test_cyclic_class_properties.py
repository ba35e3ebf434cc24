"""Component radii read from one cyclic class, against the whole component.

An irreducible matrix C of period h is a cyclic block matrix: its classes
K_0, ..., K_(h-1) are linked by rectangular steps S_t = C[K_t, K_(t+1)],
and the class block B = S_0 S_1 ... S_(h-1) of C^h has rho(B) = rho(C)^h.
The matrices here are built that way, with random steps, relabelled at
random and optionally followed by a second cycle, so that the cyclicity p
is a multiple of h and blocks of M^p are powers of class blocks."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from morphlab.intmat import identity, mat_mul
from morphlab.spectral import AlgebraicRadius, BlockDecomposition

from util import ReferenceDecomposition

SETTINGS = settings(derandomize=True, deadline=None, max_examples=120)


@st.composite
def periodic_matrices(draw):
    """(rows, members, h, B): an n x n matrix holding an irreducible
    component of period h on the vertices `members`, and that component's
    class block B = S_0 ... S_(h-1).  Each class has a hub that sends an
    edge to every vertex of the next class and receives one from every
    vertex of the previous class, so the component is strongly connected,
    and the hubs close a cycle of length h, so its period is h."""
    h = draw(st.integers(2, 4))
    sizes = draw(st.lists(st.integers(1, 3), min_size=h, max_size=h))
    hubs = [draw(st.integers(0, size - 1)) for size in sizes]
    entry = st.sampled_from((0, 0, 1, 1, 2, 3))
    steps = []
    for t in range(h):
        u = (t + 1) % h
        step = [draw(st.lists(entry, min_size=sizes[u], max_size=sizes[u])) for _ in range(sizes[t])]
        for i in range(sizes[t]):
            for j in range(sizes[u]):
                if i == hubs[t] or j == hubs[u]:
                    step[i][j] = step[i][j] or draw(st.integers(1, 3))
        steps.append(tuple(map(tuple, step)))
    tail = draw(st.sampled_from(((), (1,), (2,), (1, 1), (3, 1, 1))))  # a second cycle and its first weight
    m = sum(sizes)
    n = m + len(tail)
    order = draw(st.permutations(range(n)))  # vertex v of the construction is order[v]
    rows = [[0] * n for _ in range(n)]
    starts = [sum(sizes[:t]) for t in range(h)]
    for t, step in enumerate(steps):
        for i, row in enumerate(step):
            for j, x in enumerate(row):
                rows[order[starts[t] + i]][order[starts[(t + 1) % h] + j]] = x
    for k in range(len(tail)):
        rows[order[m + k]][order[m + (k + 1) % len(tail)]] = tail[0] if k == 0 else 1
    if tail:
        rows[order[0]][order[m]] = 1
    block = identity(sizes[0])
    for step in steps:
        block = mat_mul(block, step)
    return tuple(map(tuple, rows)), tuple(sorted(order[:m])), h, block


def _component(rows, members):
    return tuple(tuple(rows[i][j] for j in members) for i in members)


@SETTINGS
@given(periodic_matrices())
def test_class_block_radius_is_the_component_radius(case):
    rows, members, h, block = case
    whole = AlgebraicRadius(_component(rows, members))
    assert AlgebraicRadius(block, step=h).compare(whole) == 0
    assert whole.compare(AlgebraicRadius(block, step=h)) == 0


@SETTINGS
@given(periodic_matrices())
def test_blocks_of_a_periodic_component_take_its_value(case):
    rows, members, h, _ = case
    value = AlgebraicRadius(_component(rows, members)).exact_rational_value()
    dec = BlockDecomposition(rows)
    assert dec.p % h == 0
    inside = [b for b, comp in enumerate(dec.blocks) if set(comp) <= set(members)]
    assert len(inside) == h
    for b in inside:
        radius = dec.radii[b]
        assert radius.exact_rational_value() == value, (rows, b)
        assert radius.compare(AlgebraicRadius(radius.block, dec.p)) == 0, (rows, b)


@SETTINGS
@given(periodic_matrices())
def test_decomposition_of_periodic_components_matches_the_reference(case):
    rows = case[0]
    dec = BlockDecomposition(rows)
    ref = ReferenceDecomposition(rows)
    assert (dec.p, dec.blocks, dec.kinds) == (ref.p, ref.blocks, ref.kinds)
    assert dec.block_matrices == ref.block_matrices
    assert dec.class_of_block == ref.class_of_block
