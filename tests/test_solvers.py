import itertools

import pytest
from hypothesis import given, settings, strategies as st

from simonovits import solvers
from simonovits.graph import (Graph, complete_graph, cycle_graph,
                              named_graph, petersen_graph, disjoint_union,
                              PartTuple, all_pairs)
from simonovits.solvers import (max_r_cut, is_unfriendly, canonical_cut,
                                max_H_free, enumerate_optimal_H_free,
                                free_edge_witness, is_simonovits,
                                dense_peel, augment_rpartite, TooLargeError)

K3 = named_graph("triangle")
K4 = named_graph("k4")


def test_max_cut_complete_graphs():
    for n in range(2, 9):
        _, val = max_r_cut(complete_graph(n), 2)
        assert val == (n // 2) * ((n + 1) // 2)


def test_max_cut_three_parts():
    _, val = max_r_cut(complete_graph(6), 3)
    assert val == 12
    _, val = max_r_cut(cycle_graph(5), 3)
    assert val == 5


def test_max_cut_guard():
    with pytest.raises(TooLargeError):
        max_r_cut(complete_graph(20), 2, mode="exact")


def test_local_cut_is_unfriendly():
    g = petersen_graph()
    part, val = max_r_cut(g, 2, mode="local", seed=3)
    assert is_unfriendly(g, part)
    _, exact = max_r_cut(g, 2, mode="exact")
    assert val <= exact == 12


def test_canonical_cut_deterministic():
    a = canonical_cut(petersen_graph(), 2)
    b = canonical_cut(petersen_graph(), 2)
    assert a == b


def test_mantel():
    for n in range(4, 10):
        ex, f = max_H_free(complete_graph(n), K3)
        assert ex == n * n // 4
        assert f.is_bipartite()


def test_turan_k4():
    ex, f = max_H_free(complete_graph(5), K4)
    assert ex == 8
    assert f.chromatic_number() <= 3


def test_pattern_free_host_is_returned_whole():
    ex, f = max_H_free(cycle_graph(5), K3)
    assert ex == 5 and f.edges() == cycle_graph(5).edges()


def test_enumerate_optima_counts():
    # max triangle-free subgraphs of K_n: one per balanced bipartition
    expected = {4: 3, 5: 10, 6: 10, 7: 35, 8: 35}
    for n, cnt in expected.items():
        g = complete_graph(n)
        ex, _ = max_H_free(g, K3)
        optima = enumerate_optimal_H_free(g, K3, g.edge_count() - ex)
        assert len(optima) == cnt
        assert all(f.edge_count() == ex for f in optima)


def test_enumeration_cap_gives_indeterminate(monkeypatch):
    # K8 has 35 largest triangle-free subgraphs, one per balanced bipartition
    monkeypatch.setattr(solvers, "SOL_CAP", 20)
    v = is_simonovits(complete_graph(8), K3)
    assert v.decision == "indeterminate"
    assert "cap" in v.reason
    assert v.ex_size == 16 and v.best_rpartite == 16


def _brute_force_verdict(g, h):
    """(decision, ex, best r-partite, optima count) from every edge subset."""
    edges = g.edges()
    pos = {e: i for i, e in enumerate(edges)}
    h_edges = h.edges()
    copies = set()
    for image in itertools.permutations(range(g.n), h.n):
        pairs = [tuple(sorted((image[u], image[v]))) for (u, v) in h_edges]
        if all(p in pos for p in pairs):
            copies.add(sum(1 << pos[p] for p in pairs))
    r = h.chromatic_number() - 1
    cuts = set()
    for assign in itertools.product(range(r), repeat=g.n):
        cuts.add(sum(1 << i for i, (u, v) in enumerate(edges)
                     if assign[u] != assign[v]))
    free = [s for s in range(1 << len(edges))
            if not any(c & s == c for c in copies)]
    ex = max(s.bit_count() for s in free)
    optima = [s for s in free if s.bit_count() == ex]
    all_rp = all(any(s & ~c == 0 for c in cuts) for s in optima)
    best_rp = max(c.bit_count() for c in cuts)
    return "yes" if all_rp else "no", ex, best_rp, len(optima)


@st.composite
def _small_hosts(draw):
    n = draw(st.integers(1, 8))
    edges = draw(st.lists(st.sampled_from(list(all_pairs(n))), unique=True,
                          max_size=12)) if n > 1 else []
    return Graph(n, edges)


@pytest.mark.parametrize("pattern", ["triangle", "c5", "k4"])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(g=_small_hosts())
def test_decision_matches_brute_force(pattern, g):
    h = named_graph(pattern)
    decision, ex, best_rp, count = _brute_force_verdict(g, h)
    v = is_simonovits(g, h)
    assert v.decision == decision
    if v.ex_size is not None:
        assert v.ex_size == ex
    if v.best_rpartite is not None:
        assert v.best_rpartite == best_rp
    if decision == "yes":
        assert v.optima_count == count


def test_free_edge_witness():
    assert free_edge_witness(cycle_graph(5), K3) is not None
    assert free_edge_witness(complete_graph(5), K3) is None
    host = disjoint_union(complete_graph(5), cycle_graph(5))
    w = free_edge_witness(host, K3)
    assert w is not None and w.chromatic_number() == 3


def test_simonovits_yes_on_complete_graphs():
    for n in range(4, 9):
        v = is_simonovits(complete_graph(n), K3)
        assert v.decision == "yes"
        assert v.optima_count is not None


def test_simonovits_no_cases():
    v = is_simonovits(cycle_graph(5), K3)
    assert v.decision == "no"
    assert v.certificate is not None
    v = is_simonovits(disjoint_union(complete_graph(5), cycle_graph(5)), K3)
    assert v.decision == "no"
    assert v.certificate is not None


def test_simonovits_non_critical_pattern():
    v = is_simonovits(complete_graph(5), petersen_graph())
    assert v.decision == "no"


def test_dense_peel_on_complete_graph():
    info, is_rp = dense_peel(complete_graph(10), K3)
    assert is_rp
    assert info["peeled_subgraph"].is_bipartite()


def test_augment_rpartite_extends():
    g = complete_graph(6)
    part = PartTuple.from_assignment([0, 1, -1, -1, -1, -1], 2)
    full_part, crossing = augment_rpartite(g, part)
    assert full_part.is_complete()
    assert crossing.is_bipartite()
    # the crossing subgraph keeps the original part's edge and grows
    assert crossing.has_edge(0, 1)
    assert crossing.edge_count() >= 4
