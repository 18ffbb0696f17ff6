import math
import statistics

import pytest

from simonovits.graph import Graph, PartTuple, complete_graph, named_graph
from simonovits.randgraphs import RngStream, sample_gnp, typicality_report

K3 = named_graph("triangle")


def test_stream_determinism():
    a = sample_gnp(30, 0.4, RngStream(9, 3))
    b = sample_gnp(30, 0.4, RngStream(9, 3))
    assert a.edge_mask() == b.edge_mask()
    c = sample_gnp(30, 0.4, RngStream(9, 4))
    assert a.edge_mask() != c.edge_mask()


def test_stream_children_distinct():
    s = RngStream(1, 0)
    assert s.child(0) != s.child(1)


def test_extreme_probabilities():
    assert sample_gnp(8, 0.0, RngStream(0, 0)).edge_count() == 0
    g = sample_gnp(8, 1.0, RngStream(0, 0))
    assert g.edge_count() == 8 * 7 // 2
    with pytest.raises(ValueError):
        sample_gnp(8, 1.5, RngStream(0, 0))


def test_mean_edge_count_concentrates():
    n, p, trials = 100, 0.5, 300
    counts = [sample_gnp(n, p, RngStream(2024, t)).edge_count()
              for t in range(trials)]
    pairs = n * (n - 1) // 2
    mean = statistics.fmean(counts)
    sigma = math.sqrt(pairs * p * (1 - p) / trials)
    assert abs(mean - pairs * p) <= 4 * sigma


def test_typicality_on_complete_graph():
    g = complete_graph(10)
    rep = typicality_report(g, K3, 1.0)
    assert rep["T1"]["holds"]
    assert rep["T1"]["max_abs_dev"] == 0.0
    assert rep["T3"]["holds"]


def test_typicality_on_empty_graph():
    g = Graph(10)
    rep = typicality_report(g, K3, 0.0)
    assert rep["holds"]


def test_typicality_sections_present():
    g = sample_gnp(14, 0.5, RngStream(6, 1))
    part = PartTuple.from_assignment([i % 2 for i in range(14)])
    rep = typicality_report(g, K3, 0.5, part_families=[part],
                            pair_list=[(range(0, 5), range(5, 10))])
    for key in ("T1", "T2", "T3", "T5", "T7", "holds", "slack_sigmas"):
        assert key in rep
    assert len(rep["T2"]["entries"]) == 2
    assert len(rep["T7"]["entries"]) == 1
    assert rep["slack_sigmas"] == 3.0


def test_typicality_t3_caps_rarely_violated():
    n, p = 30, 0.4
    bad = 0
    trials = 25
    for t in range(trials):
        g = sample_gnp(n, p, RngStream(404, t))
        rep = typicality_report(g, K3, p)
        if not rep["T3"]["holds"]:
            bad += 1
    assert bad / trials < 0.2
