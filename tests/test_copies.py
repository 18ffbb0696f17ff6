import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from simonovits.graph import (Graph, ColoredGraph, complete_graph,
                              cycle_graph, petersen_graph, named_graph,
                              graph_from_spec, edge_index, all_pairs)
from simonovits.copies import (embeddings, count_embeddings,
                               automorphism_count, enumerate_copies,
                               count_copies, are_isomorphic,
                               copies_as_hypergraph, CopyHypergraph, induce,
                               link, boundary, matching_number,
                               critical_edge_and_anchor, residual_family,
                               janson_moments)

K3 = named_graph("triangle")


def test_triangle_counts_in_complete_graphs():
    for n in range(3, 9):
        assert count_copies(K3, complete_graph(n)) == math.comb(n, 3)


def test_automorphism_counts():
    assert automorphism_count(K3) == 6
    assert automorphism_count(cycle_graph(5)) == 10
    assert automorphism_count(named_graph("k4")) == 24
    assert automorphism_count(petersen_graph()) == 120


def test_petersen_five_cycles():
    # the Petersen graph contains exactly twelve 5-cycles
    assert count_copies(cycle_graph(5), petersen_graph()) == 12


def test_embeddings_respect_fixed_images():
    host = complete_graph(5)
    fixed = {0: [2]}
    for img in embeddings(K3, host, fixed):
        assert img[0] == 2
    assert count_embeddings(K3, host, fixed) == 4 * 3


def test_isomorphism():
    c5 = cycle_graph(5)
    shuffled = Graph(5, [(1, 3), (3, 0), (0, 2), (2, 4), (4, 1)])
    assert are_isomorphic(c5, shuffled)
    assert not are_isomorphic(named_graph("k4"),
                              Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0),
                                        (0, 2)]))


def test_matching_number_edge_disjoint_triangles():
    # K5 packs 2 edge-disjoint triangles; K7 decomposes into 7
    assert copies_as_hypergraph(K3, complete_graph(5)).matching_number() == 2
    assert copies_as_hypergraph(K3, complete_graph(7)).matching_number() == 7


def test_link_and_boundary_by_hand():
    fam = [frozenset({1, 2, 3}), frozenset({3, 4, 5})]
    assert link(fam, 3) == [frozenset({1, 2}), frozenset({4, 5})]
    assert frozenset({1, 2}) in boundary(fam)
    assert len(boundary(fam)) == 6
    assert induce(fam, {1, 2, 3}) == [frozenset({1, 2, 3})]


def test_critical_edge_and_anchor():
    e, anchor = critical_edge_and_anchor(K3)
    assert anchor in e
    with pytest.raises(ValueError):
        critical_edge_and_anchor(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))


def test_residual_family_low_single_edge():
    n = 10
    q = Graph(n, [(0, 1)])
    fam, comps = residual_family(K3, q, n, "low")
    # triangles through the edge {0,1}: one per outside vertex
    assert len(fam) == n - 2
    for resid, copies in comps.items():
        assert len(resid) == 2
        assert len(copies) == 1


def test_residual_family_all_contains_low():
    n = 7
    q = Graph(n, [(0, 1), (2, 3)])
    fam_low, _ = residual_family(K3, q, n, "low")
    fam_all, _ = residual_family(K3, q, n, "all")
    low = set(fam_low.family)
    # "low" residuals keep the shared edge out; every one appears among
    # "all" residuals as well
    assert low <= set(fam_all.family)


def _reference_residual_family(h, q, n, variant):
    """The whole-K_n filter residual_family used before it anchored copies
    on q: every copy of h in K_n, kept when it meets q as the variant asks.
    Returns (sorted residual family, {residual: set of completions})."""
    qg = q.graph if isinstance(q, ColoredGraph) else q
    q_edges = frozenset(tuple(sorted(e)) for e in qg.edges())
    q_idx = frozenset(edge_index(n, u, v) for (u, v) in q_edges)
    completions = {}
    for copy in enumerate_copies(h, complete_graph(n)):
        shared = copy & q_edges
        if variant == "low":
            vs = {v for e in copy for v in e}
            spanned = sum(1 for (u, v) in q_edges if u in vs and v in vs)
            if len(shared) != 1 or spanned != 1:
                continue
        elif not shared:
            continue
        resid = frozenset(edge_index(n, u, v) for (u, v) in copy) - q_idx
        if resid:
            completions.setdefault(resid, set()).add(copy)
    return CopyHypergraph(n, completions).family, completions


RESIDUAL_PATTERNS = {"triangle": K3, "c5": cycle_graph(5),
                     "k4": complete_graph(4),
                     "bowtie": graph_from_spec("5:0-1,0-2,1-2,2-3,2-4,3-4"),
                     # no automorphism turns the pendant edge round, so its
                     # copies through q need both orientations anchored
                     "paw": graph_from_spec("4:0-1,0-2,1-2,2-3")}
RESIDUAL_STRUCTURES = {
    "edge": lambda n: Graph(n, [(1, 3)]),
    "path": lambda n: Graph(n, [(0, 2), (2, 4)]),
    "triangle": lambda n: Graph(n, [(0, 1), (1, 4), (0, 4)]),
    "matching": lambda n: Graph(n, [(0, 1), (2, 3)]),
    "coloured": lambda n: ColoredGraph(Graph(n, [(0, 1), (1, 2)]),
                                       [1, 2, 1] + [0] * (n - 3)),
}


@pytest.mark.parametrize("pattern", sorted(RESIDUAL_PATTERNS))
@pytest.mark.parametrize("structure", sorted(RESIDUAL_STRUCTURES))
@pytest.mark.parametrize("n", range(5, 10))
def test_residual_family_matches_whole_kn_filter(pattern, structure, n):
    h = RESIDUAL_PATTERNS[pattern]
    q = RESIDUAL_STRUCTURES[structure](n)
    for variant in ("all", "low"):
        fam, comps = residual_family(h, q, n, variant)
        ref_fam, ref_comps = _reference_residual_family(h, q, n, variant)
        assert fam.family == ref_fam
        assert {r: set(c) for r, c in comps.items()} == ref_comps


def test_residual_family_high_places_anchor_on_centres():
    n = 8
    q = Graph(n, [(0, 2), (0, 3), (1, 4), (1, 5)])
    colour = [1, 1, 2, 2, 2, 2, 0, 0]
    cg = ColoredGraph(q, colour, centres=[0, 1])
    fam, comps = residual_family(K3, cg, n, "high")
    assert len(fam) > 0
    centre_pairs = {edge_index(n, 0, 2), edge_index(n, 0, 3),
                    edge_index(n, 1, 4), edge_index(n, 1, 5)}
    for resid in fam.family:
        assert not (set(resid) & centre_pairs)


def test_janson_moments_triangles_in_k4():
    fam = copies_as_hypergraph(K3, complete_graph(4)).family
    p = Fraction(1, 2)
    m = janson_moments(fam, p, exact=True)
    assert m["mu"] == 4 * p ** 3
    # every pair of the 4 triangles shares one edge: 6 pairs, union size 5
    assert m["delta"] == 6 * p ** 5
    assert m["degree_profile"][1] == 2
    assert m["size"] == 4


@settings(max_examples=30, deadline=None)
@given(st.integers(4, 6), st.integers(0, 2 ** 15 - 1))
def test_copy_count_equals_embeddings_over_automorphisms(n, bits):
    edges = [e for i, e in enumerate(all_pairs(n)) if bits >> i & 1]
    host = Graph(n, edges)
    assert (count_copies(K3, host) * automorphism_count(K3)
            == count_embeddings(K3, host))


def test_enumerate_copies_are_actual_subgraphs():
    host = petersen_graph()
    for copy in enumerate_copies(cycle_graph(5), host):
        for (u, v) in copy:
            assert host.has_edge(u, v)


def test_hypergraph_induce_graph():
    host = complete_graph(5)
    hyp = copies_as_hypergraph(K3, host)
    sub = hyp.induce_graph(complete_graph(5).without_edge(0, 1))
    assert len(sub) == math.comb(5, 3) - 3
