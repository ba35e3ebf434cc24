"""Digraph structure: strongly connected components and cycle periods.

A digraph on the vertices 0..n-1 is a sequence of successor bitset rows:
bit j of succ[i] is set for an edge i -> j (intmat.support).  Successors
are taken lowest bit first.
"""

from __future__ import annotations

from math import gcd


def _bits(x):
    """Indices of the set bits of the int x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def strongly_connected_components(succ):
    """Tarjan's algorithm with an explicit stack (no recursion).

    Components are returned in topological order of the condensation: if
    there is an edge from component A to component B then A appears before
    B.  Vertices inside a component are sorted.
    """
    n = len(succ)
    index = [None] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack = []
    components = []
    counter = 0

    for root in range(n):
        if index[root] is not None:
            continue
        work = [(root, None)]
        while work:
            v, successors = work.pop()
            if successors is None:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
                successors = _bits(succ[v])
            for w in successors:
                if index[w] is None:  # descend; v resumes at its next successor
                    work.append((v, successors))
                    work.append((w, None))
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            else:
                if lowlink[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    components.append(tuple(sorted(comp)))
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[v])

    components.reverse()  # Tarjan emits sinks first; we want sources first
    return components


def component_period(component, succ):
    """Gcd of cycle lengths inside one strongly connected component.

    Returns 0 for a trivial component (single vertex, no self-loop).
    Computed as the gcd of depth(u) + 1 - depth(v) over internal edges
    u -> v of a BFS tree, which equals the gcd of the component's simple
    cycle lengths.
    """
    return period_depths(component, succ)[0]


def period_depths(component, succ):
    """(h, depth) for one strongly connected component: its period h
    (component_period) and the BFS depth of each vertex from component[0].
    Depths along an internal edge agree mod h, so the vertices at depth t
    mod h form the cyclic class K_t, and every internal edge runs from K_t
    to K_(t+1 mod h)."""
    members = sum(1 << v for v in component)
    root = component[0]
    depth = {root: 0}
    queue = [root]
    internal_edges = []
    qi = 0
    while qi < len(queue):
        u = queue[qi]
        qi += 1
        for w in _bits(succ[u] & members):
            internal_edges.append((u, w))
            if w not in depth:
                depth[w] = depth[u] + 1
                queue.append(w)
    g = 0
    for u, w in internal_edges:
        g = gcd(g, depth[u] + 1 - depth[w])
    return abs(g), depth
