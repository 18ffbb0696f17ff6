import random
import sys

import pytest
from hypothesis import given, strategies as st

from simonovits.graph import (Graph, PartTuple, ColoredGraph, edge_index,
                              all_pairs, pair_mask, parse_graph,
                              complete_graph, cycle_graph,
                              complete_multipartite, blowup_plus,
                              disjoint_union, petersen_graph, named_graph,
                              is_delta_balanced)


def is_bipartite(g):
    """Two-colour each component by depth-first search: an oracle for
    proper_colouring(2) that shares no code with it."""
    colour = [-1] * g.n
    for s in range(g.n):
        if colour[s] >= 0:
            continue
        colour[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for w in g.neighbours(v):
                if colour[w] < 0:
                    colour[w] = 1 - colour[v]
                    stack.append(w)
                elif colour[w] == colour[v]:
                    return False
    return True


def test_edge_index_is_a_bijection():
    n = 9
    idxs = [edge_index(n, u, v) for (u, v) in all_pairs(n)]
    assert sorted(idxs) == list(range(n * (n - 1) // 2))


@given(st.integers(0, 17), st.randoms(use_true_random=False))
def test_edge_mask_matches_pair_mask(n, rnd):
    # differential: the row-shift mask against the pair-by-pair one
    g = Graph(n, [e for e in all_pairs(n) if rnd.random() < 0.5])
    assert g.edge_mask() == pair_mask(n, g.edges())


@pytest.mark.parametrize("n", range(0, 18))
def test_edge_mask_of_complete_graph(n):
    kn = complete_graph(n).edge_mask()
    assert kn == pair_mask(n, all_pairs(n)) == (1 << n * (n - 1) // 2) - 1
    assert Graph(n).edge_mask() == 0


def test_parse_rejects_duplicate_edges():
    with pytest.raises(ValueError):
        parse_graph("3 2\n0 1\n1 0\n")


def test_basic_invariants():
    g = complete_graph(5)
    assert g.edge_count() == 10
    assert g.degree(0) == 4
    assert g.chromatic_number() == 5
    c5 = cycle_graph(5)
    assert c5.chromatic_number() == 3
    assert not is_bipartite(c5)
    assert is_bipartite(cycle_graph(6))
    p = petersen_graph()
    assert p.edge_count() == 15
    assert all(p.degree(v) == 3 for v in range(10))
    assert p.chromatic_number() == 3


def test_named_graphs():
    assert named_graph("triangle").edge_count() == 3
    assert named_graph("k4").chromatic_number() == 4
    with pytest.raises(ValueError):
        named_graph("nope")


def test_complete_multipartite_and_blowup():
    g = complete_multipartite([3, 3])
    assert g.edge_count() == 9
    assert is_bipartite(g)
    gp = blowup_plus(2, 3)
    assert gp.edge_count() == 10
    assert gp.has_edge(0, 1)
    assert not g.has_edge(0, 1)


def test_disjoint_union():
    g = disjoint_union(cycle_graph(5), complete_graph(3))
    assert g.n == 8
    assert g.edge_count() == 8


def test_induced_relabels_and_in_place_keeps_labels():
    g = complete_graph(6)
    sub = g.induced([1, 3, 5])
    assert sub.n == 3 and sub.edge_count() == 3
    sub2 = g.induced_in_place([1, 3, 5])
    assert sub2.n == 6 and sub2.edge_count() == 3
    assert sub2.has_edge(1, 3)


def test_parttuple_masks_partition_all_pairs():
    part = PartTuple.from_assignment([0, 0, 1, 1, 2])
    ext, intm = part.ext_mask(), part.int_mask()
    assert ext & intm == 0
    assert (ext | intm).bit_count() == 10
    assert intm.bit_count() == 2


def test_parttuple_assignment_roundtrip():
    a = [0, 1, -1, 1, 0, 2]
    assert PartTuple.from_assignment(a).assignment() == a


def test_parttuple_rejects_overlap():
    with pytest.raises(ValueError):
        PartTuple(4, [{0, 1}, {1, 2}])


def test_delta_balanced():
    part = PartTuple.from_assignment([0, 0, 0, 1, 1])
    assert is_delta_balanced(part, 0.4)
    assert not is_delta_balanced(part, 0.1)


def test_colored_graph_classes():
    q = Graph(5, [(0, 1), (0, 2), (0, 3)])
    cg = ColoredGraph(q, [1, 2, 2, 2, 0], centres=[0])
    assert cg.class_neighbours(0, 2) == frozenset({1, 2, 3})
    assert cg.k() == 1


@given(st.integers(2, 8), st.integers(0, 2 ** 12))
def test_greedy_colouring_proper(n, bits):
    edges = [e for i, e in enumerate(all_pairs(n)) if bits >> i & 1]
    g = Graph(n, edges)
    k = g.chromatic_number()
    col = g.proper_colouring(k)
    assert col is not None
    assert all(col[u] != col[v] for (u, v) in g.edges())
    assert g.proper_colouring(k - 1) is None or k == 1
    assert (g.proper_colouring(2) is not None) == is_bipartite(g)


def _reference_proper_colouring(g, k):
    """The colouring search before the part bitmasks: one recursion level
    per vertex, each level collecting its neighbours' colours in a set."""
    colour = [-1] * g.n
    order = sorted(range(g.n), key=lambda v: -g.degree(v))

    def rec(i, top):
        if i == len(order):
            return True
        v = order[i]
        used = {colour[w] for w in g.neighbours(v) if colour[w] >= 0}
        for c in range(min(k, top + 2)):
            if c not in used:
                colour[v] = c
                if rec(i + 1, max(top, c)):
                    return True
                colour[v] = -1
        return False

    return colour if rec(0, -1) else None


# differential: the same first colouring, or None, as the set-based search
def test_proper_colouring_matches_reference():
    rnd = random.Random(5)
    hosts = [Graph(n) for n in range(6)]
    hosts += [complete_graph(n) for n in range(1, 7)]
    for _ in range(2000):
        n = rnd.randint(0, 12)
        p = rnd.random()
        hosts.append(Graph(n, [e for e in all_pairs(n) if rnd.random() < p]))
    for g in hosts:
        for k in range(5):
            assert g.proper_colouring(k) == _reference_proper_colouring(g, k), \
                (g.n, g.edges(), k)


def test_proper_colouring_of_a_long_path_and_odd_cycle():
    # one recursion level per vertex would pass the interpreter's limit
    n = 3 * sys.getrecursionlimit() + 1
    path = Graph(n, [(v, v + 1) for v in range(n - 1)])
    col = path.proper_colouring(2)
    assert col is not None and all(col[u] != col[v] for (u, v) in path.edges())
    assert cycle_graph(n).proper_colouring(2) is None
    assert cycle_graph(n).proper_colouring(3) is not None
