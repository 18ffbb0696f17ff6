import random

import pytest

from simonovits.graph import (Graph, ColoredGraph, PartTuple,
                              complete_graph, named_graph)
from simonovits.randgraphs import RngStream, sample_gnp
from simonovits.solvers import local_max_cut
from simonovits import structure
from simonovits.structure import (vizing_color, check_edge_colouring,
                                  bounded_degree_subgraph,
                                  _max_bounded_subgraph, construct_QF,
                                  ConstructionInfeasible,
                                  neighbourhood_hypergraph)


def test_vizing_small_fixed_graphs():
    for g in (complete_graph(4), complete_graph(7), named_graph("petersen"),
              named_graph("c5")):
        col = vizing_color(g)
        assert check_edge_colouring(g, col)


def test_vizing_random_graphs():
    rng = random.Random(7)
    for t in range(60):
        n = rng.randint(2, 40)
        g = sample_gnp(n, rng.random(), RngStream(101, t))
        col = vizing_color(g)
        assert check_edge_colouring(g, col)
        if g.edge_count():
            assert max(col.values()) <= g.max_degree() + 1


def test_vizing_deterministic():
    g = sample_gnp(20, 0.5, RngStream(5, 5))
    assert vizing_color(g) == vizing_color(g)


def test_check_edge_colouring_rejects_bad():
    g = complete_graph(3)
    col = vizing_color(g)
    bad = dict(col)
    k = next(iter(bad))
    bad[k] = next(v for v in bad.values() if v != col[k])
    assert not check_edge_colouring(g, bad)


def test_bounded_degree_subgraph_inequality():
    rng = random.Random(3)
    for t in range(40):
        n = rng.randint(4, 30)
        g = sample_gnp(n, 0.3 + 0.6 * rng.random(), RngStream(55, t))
        if g.edge_count() == 0:
            continue
        d = rng.randint(1, max(1, g.max_degree()))
        q = bounded_degree_subgraph(g, d)
        assert q.max_degree() <= d
        assert q.edge_count() * (g.max_degree() + 1) >= d * g.edge_count()


def test_max_bounded_subgraph_exact_vs_greedy():
    g = complete_graph(5)
    exact, method = _max_bounded_subgraph(g, 2, exact_limit=24)
    assert method == "exact"
    assert exact.edge_count() == 5      # 2-regular: a hamilton cycle
    loose, method2 = _max_bounded_subgraph(g, 2, exact_limit=0)
    assert method2 == "greedy"
    assert loose.max_degree() <= 2
    assert loose.edge_count() <= exact.edge_count()


def _qf_instance(t, n=40, p=0.5):
    g = sample_gnp(n, p, RngStream(11, t))
    cut, _ = local_max_cut(g, 2, seed=t)
    return g, cut


def test_construct_qf_clause_inequalities():
    built = 0
    for t in range(30):
        g, cut = _qf_instance(t)
        n, p = g.n, 0.5
        try:
            qf = construct_QF(g, cut, p=p)
        except ConstructionInfeasible:
            continue
        built += 1
        e_i = qf.stats["e_I"]
        eta_np = qf.stats["eta_np"]
        q = qf.q
        if qf.case_tag == "Q1":
            assert 2 * q.edge_count() >= e_i
            assert q.graph.max_degree() <= 2 * eta_np
        elif qf.case_tag == "Q2":
            d_thresh = qf.stats["d_thresh"]
            assert q.graph.max_degree() <= d_thresh
            assert q.edge_count() >= qf.stats["e_Q"] >= d_thresh
        elif qf.case_tag == "Q3":
            assert qf.kind == "QH"
            # centres form an independent set in the structure, and every
            # centre sees exactly eta_np neighbours in each colour class
            for c in q.centres:
                for other in q.centres:
                    assert not q.graph.has_edge(c, other) or c == other
            for c in q.centres:
                nb = q.graph.neighbours(c)
                assert len(nb) == cut.r() * eta_np
            assert q.k() >= e_i / (16 * max(1, g.max_degree()))
    assert built >= 20


def test_construct_qf_empty_internal():
    g = Graph(10, [(0, 5), (1, 6)])
    cut = PartTuple.from_assignment([0] * 5 + [1] * 5)
    qf = construct_QF(g, cut, p=0.2)
    assert qf.case_tag == "empty"
    assert qf.q.edge_count() == 0


def test_construct_qf_requires_p():
    g, cut = _qf_instance(0)
    with pytest.raises(TypeError):
        construct_QF(g, cut)


def _qh_fixture(t=0, n=40, p=0.5):
    g, cut = _qf_instance(t, n, p)
    qf = construct_QF(g, cut, p=p)
    assert qf.kind == "QH"
    return g, cut, qf


def test_neighbourhood_hypergraph_caps():
    g, cut, qf = _qh_fixture()
    hyp = neighbourhood_hypergraph(g, qf, [0, 1], p=0.5)
    tr = hyp.trace
    assert tr["constants"]["target"] >= 1
    for entry in tr["centres"]:
        assert entry["fresh"] <= tr["constants"]["target"]
    for j, cap in tr["caps"].items():
        assert cap["delta_j"] >= 0
    assert tr["fitted_C_caps"] >= 0.0
    # every hyperedge lies in its centre's structure neighbourhood
    for u in hyp.edges:
        c = hyp.centre_of[u]
        assert all(w in qf.q.graph.neighbours(c) for w in u)


def test_neighbourhood_hypergraph_rejects_low_structure():
    g = Graph(10, [(0, 1), (1, 2)])
    colour = [1 if v < 3 else 0 for v in range(10)]
    qf = structure.QFamily(ColoredGraph(Graph(10, [(0, 1)]), colour),
                           "QL1", "Q1", {})
    with pytest.raises(ValueError):
        neighbourhood_hypergraph(g, qf, [1], p=0.5)

