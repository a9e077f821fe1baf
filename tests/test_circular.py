"""Circular planar networks: every grove is non-crossing.

Take a planar network drawn in a disk with its boundary vertices on the
circle, numbered 1..m in circular order, and its superports consecutive
arcs of that order.  The components of a forest are then disjoint connected
pieces of the disk, so no two of them can hold boundary vertices
a < b < c < d with a and c in one and b and d in the other: every boundary
pattern with forests is a non-crossing partition of 1..m (Kenyon and
Wilson, "Boundary partitions in trees and dimers", Trans. AMS 2011).  The
grove table of a `ForestPass` is filled by the walk's own key tracking,
without reading C, so this holds that tracking to the planarity of the
network.  Grids, whole or with edges dropped while they stay connected,
are such networks: the vertices of the outer cycle lie on the circle in the
order the cycle meets them, and dropping edges only merges faces.
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from superport import canonical_network
from superport.forests import ForestPass
from superport.network import _join

# the most edges a generated grid keeps, and the most boundary vertices:
# a pass enumerates about 2^E forests, and the crossing test looks at every
# four boundary vertices of every key
MAX_EDGES = 16
MAX_M = 8


def grid_network(rng: random.Random):
    """A grid of 2 or 3 rows and 2 to 5 columns, thinned by dropping random
    edges while it stays connected until at most `MAX_EDGES` are left, with
    conductances 1.  Its boundary is up to `MAX_M` vertices of the outer
    cycle, numbered in the cycle's order from a random start; the superports
    cut that order into consecutive arcs."""
    rows, cols = rng.randint(2, 3), rng.randint(2, 5)
    n = rows * cols
    at = lambda r, c: r * cols + c
    edges = [(at(r, c), at(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    edges += [(at(r, c), at(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    rng.shuffle(edges)
    drop = rng.randint(max(0, len(edges) - MAX_EDGES), len(edges) - n + 1)
    for edge in list(edges):
        if drop == 0:
            break
        rest = [e for e in edges if e != edge]
        least, _ = _join(n, rest)
        if len(set(least)) == 1:
            edges, drop = rest, drop - 1
    assert len(edges) <= MAX_EDGES
    cycle = [at(0, c) for c in range(cols)] + [at(r, cols - 1) for r in range(1, rows)]
    cycle += [at(rows - 1, c) for c in reversed(range(cols - 1))]
    cycle += [at(r, 0) for r in reversed(range(1, rows - 1))]
    start = rng.randrange(len(cycle))
    cycle = cycle[start:] + cycle[:start]
    m = rng.randint(1, min(MAX_M, len(cycle)))
    boundary = [cycle[k] for k in sorted(rng.sample(range(len(cycle)), m))]
    return circular_network(n, edges, boundary, rng)


def circular_network(n, edges, boundary, rng: random.Random):
    """The network on vertices 0..n-1 with boundary vertices 1..m in the
    given order, the rest interior, and the superports consecutive arcs cut
    at random points of that order."""
    label = {v: k for k, v in enumerate(boundary, 1)}
    for v in range(n):
        if v not in label:
            label[v] = len(label) + 1
    m = len(boundary)
    cuts = sorted(rng.sample(range(1, m), rng.randint(0, m - 1)))
    arcs = [list(range(a + 1, b + 1)) for a, b in zip([0, *cuts], [*cuts, m])]
    return canonical_network([(label[u], label[v], 1) for u, v in edges], arcs)


def crosses(pattern) -> bool:
    """Whether two blocks of the pattern cross: boundary vertices
    a < b < c < d with a and c in one block and b and d in another."""
    return any(
        pattern[a] == pattern[c] != pattern[b] == pattern[d]
        for a, b, c, d in itertools.combinations(range(len(pattern)), 4)
    )


def crossing_keys(net) -> list:
    """The grove keys with forests whose pattern crosses."""
    p = ForestPass(net)
    p.want()
    p.run()
    return [key for key, units in p.units.items() if units and crosses(key[1])]


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_the_groves_of_a_circular_planar_network_are_non_crossing(seed):
    net = grid_network(random.Random(seed))
    # the labels follow the circle and the superports are arcs of it
    assert [v for sp in net.superports for v in sp] == list(range(1, net.m + 1))
    assert crossing_keys(net) == []


def test_a_non_planar_network_has_crossing_groves():
    # the square 1-2-3-4 with 1 and 3 joined through one hub, 5, and 2 and 4
    # through another, 6: no drawing in a disk puts 1..4 on the circle, and
    # a forest can hold {1, 3} and {2, 4} in two components, so the check
    # is not vacuous
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 2), (1, 5), (5, 3)]
    net = circular_network(6, edges, [0, 1, 2, 3], random.Random(0))
    assert [key[1] for key in crossing_keys(net)] == [(1, 2, 1, 2)]
