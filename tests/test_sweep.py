"""Every small superport network, every identity: an exhaustive sweep.

The campaign samples its networks, and never draws an all-root boundary
(m = p), more than three superports, or a Kenyon-Wilson minor with
|X| > 2.  Here every connected graph on 2 to 4 vertices meets every
boundary and every partition of it into superports, each shape once up to
isomorphism, and every theorem and every Kenyon-Wilson minor runs on each.
So each grove pattern that the finish steps read is checked on some
network, and a broken identity fails first on the smallest network that
shows it.
"""

import functools
import itertools
import random
from fractions import Fraction

from superport import canonical_network, run_verifications, verify_kw_minor


def set_partitions(items: list):
    """Every partition of `items` into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for blocks in set_partitions(rest):
        for k in range(len(blocks)):
            yield [*blocks[:k], [first, *blocks[k]], *blocks[k + 1 :]]
        yield [[first], *blocks]


def is_connected(n: int, edges) -> bool:
    reached = {1}
    grew = True
    while grew:
        grew = False
        for u, v in edges:
            if (u in reached) != (v in reached):
                reached |= {u, v}
                grew = True
    return len(reached) == n


def shapes(max_n: int):
    """Each connected graph on 2..max_n vertices with each boundary and each
    partition of it into superports, once up to isomorphism: as the least
    form, sorted edges and sorted superports, that a vertex permutation
    gives it."""
    for n in range(2, max_n + 1):
        vertices = range(1, n + 1)
        pairs = list(itertools.combinations(vertices, 2))
        perms = list(itertools.permutations(vertices))

        def form(pi, edges, superports):
            moved = sorted(tuple(sorted((pi[u - 1], pi[v - 1]))) for u, v in edges)
            blocks = sorted(tuple(sorted(pi[v - 1] for v in sp)) for sp in superports)
            return tuple(moved), tuple(blocks)

        seen = set()
        for count in range(n - 1, len(pairs) + 1):
            for edges in itertools.combinations(pairs, count):
                if not is_connected(n, edges):
                    continue
                # forms compare their edges first, so the least form comes
                # from a permutation that gives the least edges
                moved = [form(pi, edges, ())[0] for pi in perms]
                least_edges = min(moved)
                best = [pi for pi, e in zip(perms, moved) if e == least_edges]
                for m in vertices:
                    for boundary in itertools.combinations(vertices, m):
                        for superports in set_partitions(list(boundary)):
                            least = min(form(pi, edges, superports) for pi in best)
                            if least not in seen:
                                seen.add(least)
                                yield least


@functools.cache
def small_networks(max_n: int = 4) -> list:
    """The shapes of `shapes(max_n)`, each edge with a conductance p/q,
    p, q <= 10, drawn from Random(0) in the order of the shapes."""
    rng = random.Random(0)
    return [
        canonical_network(
            [(u, v, Fraction(rng.randint(1, 10), rng.randint(1, 10))) for u, v in edges],
            superports,
        )
        for edges, superports in shapes(max_n)
    ]


def kw_minors(m: int):
    """Every minor of the all-minors formula on boundary 1..m: X and Y
    disjoint and ordered, Z any set of the remaining vertices."""
    boundary = range(1, m + 1)
    for k in range(m // 2 + 1):
        for X in itertools.permutations(boundary, k):
            for Y in itertools.permutations([v for v in boundary if v not in X], k):
                rest = [v for v in boundary if v not in X + Y]
                for size in range(len(rest) + 1):
                    for Z in itertools.combinations(rest, size):
                        yield X, Y, Z


def test_the_sweep_holds_every_small_shape_once():
    nets = small_networks()
    assert len(nets) == 157
    # what the campaign never draws: all-root boundaries, and four superports
    assert any(net.m == net.p >= 2 for net in nets)
    assert any(net.p == 4 for net in nets)


def test_every_theorem_holds_on_every_small_network():
    # the rng adds a random Kenyon-Wilson minor to each network's plan, and
    # draws the circuit of the forest solution
    rng = random.Random(0)
    reports = 0
    for net in small_networks():
        for report in run_verifications(net, ["all"], rng=rng):
            assert report.ok, report.to_data()
            reports += 1
    assert reports == 1528


def test_every_kenyon_wilson_minor_holds_on_every_small_network():
    minors = 0
    for net in small_networks():
        for X, Y, Z in kw_minors(net.m):
            report = verify_kw_minor(net, X, Y, Z)
            assert report.ok, report.to_data()
            minors += 1
    assert minors == 5710
