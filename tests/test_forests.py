import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superport import (
    CapExceeded,
    Forest,
    ForestEnsemble,
    ForestIsValid,
    XYZWPartition,
    canonical_network,
    complete_network,
    enumerate_spanning_forests,
    forest_sign,
    involution_f,
    is_relatively_valid,
    is_valid,
    kirchhoff_matrix,
    main_cycle,
    partition_sign,
    partitions_for_forest,
    permutation_parity,
    quotient_is_tree,
    random_network,
    simple_quotient_cycles,
    unify_superports,
)

from conftest import side_square, w_network


def triangle():
    return canonical_network([(1, 2, 2), (1, 3, 3), (2, 3, 5)], [[1, 2, 3]])


def fig7():
    # ports {1,2} and {3,4}; edge indices: 0=b(12), 1=a(13), 2=c(24), 3=d(34)
    return side_square(Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7))


class TestEnumeration:
    def test_lexicographic_order_on_triangle(self):
        seq = [f.edges for f in enumerate_spanning_forests(triangle())]
        assert seq == [(), (0,), (0, 1), (0, 2), (1,), (1, 2), (2,)]

    def test_full_triangle_excluded(self):
        assert (0, 1, 2) not in {
            f.edges for f in enumerate_spanning_forests(triangle())
        }

    def test_forest_counts_on_complete_graphs(self):
        # labeled forests on n vertices: 1, 2, 7, 38, 291, 2932
        for n, count in ((2, 2), (3, 7), (4, 38), (5, 291)):
            net = complete_network(n)
            assert sum(1 for _ in enumerate_spanning_forests(net)) == count

    def test_weights_are_products(self):
        net = triangle()
        by_edges = {f.edges: f.weight for f in enumerate_spanning_forests(net)}
        assert by_edges[()] == 1
        assert by_edges[(0,)] == 2
        assert by_edges[(0, 2)] == 10

    def test_components_track_min_vertex(self):
        net = fig7()
        forests = {f.edges: f for f in enumerate_spanning_forests(net)}
        f = forests[(0,)]  # edge b joins 1 and 2
        assert f.components == (0, 1, 1, 3, 4)
        assert f.component_count == 3

    def test_predicate_filters(self):
        net = triangle()
        trees = list(
            enumerate_spanning_forests(net, lambda f: f.component_count == 1)
        )
        assert {f.edges for f in trees} == {(0, 1), (0, 2), (1, 2)}

    def test_cap(self):
        net = complete_network(7)  # 21 edges
        with pytest.raises(CapExceeded):
            list(enumerate_spanning_forests(net))
        assert sum(
            1 for f in enumerate_spanning_forests(net, cap=None)
            if f.component_count == 1
        ) == 7 ** 5


class TestValidity:
    def test_fig7_valid_forests(self):
        net = fig7()
        valid = [f.edges for f in enumerate_spanning_forests(net) if is_valid(f, net)]
        assert valid == [(1,), (2,)]  # the two side edges a and c

    def test_quotient_is_tree_matches_is_valid(self):
        net = w_network(1, 2, 3, 4)
        qg = net.quotient()
        for f in enumerate_spanning_forests(net):
            assert quotient_is_tree(qg, f) == is_valid(f, net)

    def test_relative_validity(self):
        net = fig7()
        rel1 = [
            f.edges
            for f in enumerate_spanning_forests(net)
            if is_relatively_valid(f, net, 1)
        ]
        # splitting 1 from its port leaves three classes, so two edges each
        assert all(len(e) == 2 for e in rel1)
        assert (1, 2) in rel1

    def test_relative_validity_rejects_interior(self):
        net = w_network(1, 1, 1, 1)
        interiorless = canonical_network([(1, 3, 1), (2, 3, 1)], [[1, 2]])
        f = next(enumerate_spanning_forests(interiorless))
        with pytest.raises(ValueError):
            is_relatively_valid(f, interiorless, 3)

    def test_relative_validity_edge_count(self):
        # splitting a non-root off its superport adds a class, so forests
        # valid relative to i carry exactly one more edge than valid ones
        rng = random.Random(5)
        for _ in range(10):
            net = random_network(rng, require_nonroots=True)
            ens = ForestEnsemble(net)
            valid_size = len(net.quotient().classes) - 1
            for i in net.non_roots:
                for f in ens.forests:
                    if is_relatively_valid(f, net, i):
                        assert len(f.edges) == valid_size + 1
                        assert not is_valid(f, net)


class TestForestSign:
    def test_equal_indices_positive(self):
        net = fig7()
        f = next(enumerate_spanning_forests(net))
        assert forest_sign(f, net, 1, 1) == 1

    def test_fig7_signs(self):
        net = fig7()
        forests = {f.edges: f for f in enumerate_spanning_forests(net)}
        # {c,d} joins 1 to 3 through the other port: positive contribution
        assert forest_sign(forests[(2, 3)], net, 1, 3) == 1
        # {a,b}: after splitting both 1 and 3 off, [1] and [3] end up connected
        assert forest_sign(forests[(0, 1)], net, 1, 3) == -1

    def test_boundary_required(self):
        net = w_network(1, 1, 1, 1)
        small = canonical_network([(1, 3, 1), (2, 3, 1)], [[1, 2]])
        f = next(enumerate_spanning_forests(small))
        with pytest.raises(ValueError):
            forest_sign(f, small, 1, 3)


class TestGroupedWeight:
    def test_empty_grouping_is_zero(self):
        assert ForestEnsemble(triangle()).grouped_weight([]) == 0

    def test_single_group_counts_trees(self):
        net = triangle()
        ens = ForestEnsemble(net)
        assert ens.grouped_weight([(1, 2, 3)]) == ens.tree_weight()

    def test_pairing_weight(self):
        # forests with two components separating 3 from {1,2}
        net = triangle()
        w = ForestEnsemble(net).grouped_weight([(1, 2), (3,)])
        assert w == Fraction(2)  # only the single edge 12

    def test_groups_need_not_cover(self):
        net = fig7()
        # one group {1}: forests with exactly one component containing 1,
        # i.e. spanning trees
        ens = ForestEnsemble(net)
        assert ens.grouped_weight([(1,)]) == ens.tree_weight()

    def test_separating_groups(self):
        net = fig7()
        w = ForestEnsemble(net).grouped_weight([(1, 2), (3, 4)])
        total = sum(
            f.weight
            for f in enumerate_spanning_forests(net)
            if f.component_count == 2
            and f.components[1] == f.components[2]
            and f.components[3] == f.components[4]
            and f.components[1] != f.components[3]
        )
        assert w == total


class TestPartitions:
    def test_valid_forest_has_unique_plus_partition(self):
        net = fig7()
        forests = {f.edges: f for f in enumerate_spanning_forests(net)}
        parts = list(partitions_for_forest(net, forests[(1,)]))
        assert parts == [
            XYZWPartition(
                X=frozenset(), Y=frozenset(), Z=frozenset({1}),
                W=frozenset({2, 3, 4}),
            )
        ]
        assert partition_sign(net, forests[(1,)], parts[0]) == 1

    def test_single_port_edge_forest_partitions(self):
        # the forest {b} has four partitions that cancel in pairs
        net = fig7()
        forests = {f.edges: f for f in enumerate_spanning_forests(net)}
        f = forests[(0,)]
        parts = list(partitions_for_forest(net, f))
        assert len(parts) == 4
        signs = sorted(partition_sign(net, f, p) for p in parts)
        assert signs == [-1, -1, 1, 1]
        assert sum(signs) == 0

    def test_wrong_component_count_yields_nothing(self):
        net = fig7()
        forests = {f.edges: f for f in enumerate_spanning_forests(net)}
        assert list(partitions_for_forest(net, forests[(0, 1, 2)])) == []

    def test_interior_component_yields_nothing(self):
        net = w_network(1, 1, 1, 1)
        f = next(enumerate_spanning_forests(net))  # empty forest
        # empty forest on the w-network: 5 components but m-p+1 = 4
        assert list(partitions_for_forest(net, f)) == []

    def test_parity(self):
        assert permutation_parity({}) == 1
        assert permutation_parity({1: 1}) == 1
        assert permutation_parity({1: 2, 2: 1}) == -1
        assert permutation_parity({1: 2, 2: 3, 3: 1}) == 1


class TestMainCycle:
    def test_valid_forest_has_none(self):
        net = fig7()
        forests = {f.edges: f for f in enumerate_spanning_forests(net)}
        assert main_cycle(net, forests[(1,)]) is None

    def test_two_edge_cycle(self):
        # {a, b, c}: the quotient has a double edge between the port classes
        # and a loop; the proper 2-cycle wins over the loop
        net = fig7()
        forests = {f.edges: f for f in enumerate_spanning_forests(net)}
        mc = main_cycle(net, forests[(0, 1, 2)])
        assert mc is not None
        assert mc.length == 2
        assert mc.classes == (1, 3)
        assert mc.edges == (1, 2)

    def test_loop_cycle_orientation(self):
        # {b}: the only quotient cycle is the loop at the {1,2} class
        net = fig7()
        forests = {f.edges: f for f in enumerate_spanning_forests(net)}
        mc = main_cycle(net, forests[(0,)])
        assert mc is not None
        assert mc.length == 1
        assert mc.paths == ((1, 2, (0,)),)  # tail 1, head 2, the single edge b

    def test_cycle_listing_orders_proper_before_loops(self):
        net = fig7()
        forests = {f.edges: f for f in enumerate_spanning_forests(net)}
        cycles = simple_quotient_cycles(net, forests[(0, 1, 2)])
        assert cycles[0][0] == (1, 3)
        assert cycles[-1][0] == (1,)


class TestInvolution:
    def test_valid_forest_raises(self):
        net = fig7()
        forests = {f.edges: f for f in enumerate_spanning_forests(net)}
        f = forests[(1,)]
        part = next(iter(partitions_for_forest(net, f)))
        with pytest.raises(ForestIsValid):
            involution_f(net, f, part)

    def test_loop_involution_pairs_partitions(self):
        net = fig7()
        forests = {f.edges: f for f in enumerate_spanning_forests(net)}
        f = forests[(0,)]
        parts = list(partitions_for_forest(net, f))
        for part in parts:
            image = involution_f(net, f, part)
            assert image in parts
            assert image != part
            assert partition_sign(net, f, image) == -partition_sign(net, f, part)
            assert involution_f(net, f, image) == part

    def test_sign_reversing_involution_everywhere(self):
        rng = random.Random(23)
        for _ in range(15):
            net = random_network(rng, require_nonroots=True)
            for f in ForestEnsemble(net).forests:
                if is_valid(f, net):
                    continue
                parts = list(partitions_for_forest(net, f))
                for part in parts:
                    image = involution_f(net, f, part)
                    assert image in parts
                    assert involution_f(net, f, image) == part
                    assert partition_sign(net, f, image) == -partition_sign(
                        net, f, part
                    )


class TestEnsemble:
    def test_weights_agree_with_direct_enumeration(self):
        net = fig7()
        ens = ForestEnsemble(net)
        assert ens.valid_weight() == Fraction(1, 2) + Fraction(1, 5)
        assert ens.tree_weight() == sum(
            f.weight
            for f in enumerate_spanning_forests(net)
            if f.component_count == 1
        )

    def test_quotient_tree_weight_unified(self):
        net = w_network(1, 2, 3, 4)
        ens = ForestEnsemble(net)
        unified = unify_superports(net)
        expect = sum(
            f.weight
            for f in enumerate_spanning_forests(net)
            if quotient_is_tree(unified.quotient(), f)
        )
        assert ens.quotient_tree_weight(unified.quotient()) == expect


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_enumeration_matches_powerset_filter(seed):
    # brute force over all edge subsets must agree with the pruned walk
    import itertools

    rng = random.Random(seed)
    net = random_network(rng, max_n=5, max_edges=7)
    listed = {f.edges for f in enumerate_spanning_forests(net)}
    count = 0
    for size in range(len(net.edges) + 1):
        for subset in itertools.combinations(range(len(net.edges)), size):
            parent = list(range(net.n + 1))

            def find(a):
                while parent[a] != a:
                    a = parent[a]
                return a

            acyclic = True
            for e in subset:
                u, v, _ = net.edges[e]
                ru, rv = find(u), find(v)
                if ru == rv:
                    acyclic = False
                    break
                parent[ru] = rv
            if acyclic:
                count += 1
                assert subset in listed
    assert count == len(listed)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_with_components_splits_forests_by_family(seed):
    # the index holds every forest once, in its component-count bucket, and
    # each family an identity sums over lies in the bucket assigned to it
    rng = random.Random(seed)
    net = random_network(rng, max_n=6, max_edges=9, require_nonroots=rng.random() < 0.5)
    ens = ForestEnsemble(net)
    m, p = net.m, net.p
    for count in range(net.n + 2):
        assert ens.with_components(count) == [
            f for f in ens.forests if f.component_count == count
        ]
    assert sum(len(ens.with_components(c)) for c in range(net.n + 1)) == len(ens.forests)
    electrical = unify_superports(net).quotient()
    for f in ens.forests:
        if is_valid(f, net) or any(True for _ in partitions_for_forest(net, f)):
            assert f.component_count == m - p + 1
        if quotient_is_tree(electrical, f):
            assert f.component_count == m
        for i in net.non_roots:
            if is_relatively_valid(f, net, i):
                assert f.component_count == m - p
    for X in [(), *((i,) for i in net.non_roots), tuple(net.non_roots[:2])]:
        qg = net.quotient(X)
        assert ens.quotient_trees(qg) == [f for f in ens.forests if quotient_is_tree(qg, f)]


PRIMES = [q for q in range(2, 98) if all(q % d for d in range(2, q))]


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_integer_units_are_exact(seed):
    # pairwise coprime denominators make the common scale as large as it gets
    rng = random.Random(seed)
    shape = random_network(rng, max_n=6, max_edges=9)
    denominators = rng.sample(PRIMES, len(shape.edges))
    net = canonical_network(
        [
            (u, v, Fraction(rng.randint(1, 97), q))
            for (u, v, _), q in zip(shape.edges, denominators)
        ],
        shape.superports,
    )
    trees = Fraction(0)
    for f in enumerate_spanning_forests(net):
        product = Fraction(1)
        for e in f.edges:
            product *= net.edges[e][2]
        assert f.weight == product
        if f.component_count == 1:
            trees += f.weight
    K = kirchhoff_matrix(net)
    assert trees == K.submatrix(range(net.n - 1), range(net.n - 1)).det()
    assert ForestEnsemble(net).tree_weight() == trees


def brute_partitions(net, forest):
    """Conditions (1)-(3) of XYZWPartition checked on every choice in the
    full per-superport product."""
    options = [
        [((), (), (z,)) for z in sp] + [((x,), (y,), ()) for x in sp for y in sp if x != y]
        for sp in net.superports[:-1]
    ]
    boundary = frozenset(range(1, net.m + 1))
    found = set()
    for choice in itertools.product(*options):
        X, Y, Z = (frozenset(v for option in choice for v in option[k]) for k in range(3))
        W = boundary - X - Y - Z
        for c in set(forest.components[1:]):
            members = [v for v in range(1, net.n + 1) if forest.components[v] == c]
            cx, cy, cw = (sum(v in s for v in members) for s in (X, Y, W))
            if (cx, cy, cw) not in ((0, 0, 1), (1, 1, 0)):
                break
        else:
            found.add(XYZWPartition(X=X, Y=Y, Z=Z, W=W))
    return found


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_pruned_partitions_match_brute_force(seed):
    rng = random.Random(seed)
    net = random_network(rng, max_n=6, max_edges=9, p_max=3)
    for f in enumerate_spanning_forests(net):
        parts = list(partitions_for_forest(net, f))
        assert len(parts) == len(set(parts))
        assert set(parts) == brute_partitions(net, f)
