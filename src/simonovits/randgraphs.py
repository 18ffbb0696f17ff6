"""Seeded binomial random graphs and the finite-size typicality report."""

import math
from dataclasses import dataclass

import random

from .graph import Graph, edge_index, bitset_members, all_pairs
from .copies import copies_as_hypergraph, link, boundary, induce

ALGORITHM_ID = "mt19937-py"
_MIX = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class RngStream:
    """Deterministic stream: identical (seed, stream_id) give identical
    samples on every platform."""
    seed: int
    stream_id: int = 0
    algorithm_id: str = ALGORITHM_ID

    def generator(self):
        mixed = (self.seed * _MIX + self.stream_id) % (1 << 64)
        return random.Random(mixed)

    def child(self, k):
        return RngStream(self.seed, self.stream_id * 1000003 + k + 1,
                         self.algorithm_id)


def sample_gnp(n, p, rng):
    """Each pair present independently with probability p."""
    if not 0 <= p <= 1:
        raise ValueError("p out of range")
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    edges = [(u, v) for (u, v) in all_pairs(n) if gen.random() < p]
    return Graph(n, edges)


def typicality_report(g, h, p, part_families=(), qh_instances=(), pair_list=(),
                      slack_sigmas=3.0):
    """Finite-size analogues of the typical-graph event list.

    T1: every degree within slack_sigmas binomial deviations of (n-1)p.
    T2: crossing and internal edge counts concentrated, over the supplied
        partition family.
    T3: for every pair e, the twice-linked copy family induced on g has at
        most 4 e_h^2 n^(v-2) p^(e-2) members; for every vertex v, the
        linked at-v family has at most 2 v_h e_h n^(v-1) p^(e-1).
    T5: star-union structures keep at least a fitted fraction of their
        centre count after intersecting with g (reported, not pass/fail).
    T7: pair densities between supplied disjoint vertex sets.
    """
    n = g.n
    v_h, e_h = h.n, h.edge_count()
    rep = {"n": n, "p": p, "slack_sigmas": slack_sigmas}

    # T1
    mean = (n - 1) * p
    sd = math.sqrt(max((n - 1) * p * (1 - p), 0.0))
    worst = max((abs(g.degree(v) - mean) for v in range(n)), default=0.0)
    rep["T1"] = {"max_abs_dev": worst, "allowed": slack_sigmas * sd,
                 "holds": worst <= slack_sigmas * sd}

    # T2
    t2 = []
    for part in part_families:
        for label, mask in (("ext", part.ext_mask()),
                            ("int", part.int_mask())):
            tot = mask.bit_count()
            got = (mask & g.edge_mask()).bit_count()
            sd2 = math.sqrt(max(tot * p * (1 - p), 0.0))
            t2.append({"kind": label, "pairs": tot, "edges": got,
                       "expected": tot * p,
                       "holds": abs(got - tot * p) <= slack_sigmas * sd2})
    rep["T2"] = {"entries": t2, "holds": all(e["holds"] for e in t2)}

    # T3
    hyper = copies_as_hypergraph(h, Graph(n, list(all_pairs(n))))
    g_ground = set(bitset_members(g.edge_mask()))
    edge_cap = 4 * e_h * e_h * n ** (v_h - 2) * p ** (e_h - 2)
    vert_cap = 2 * v_h * e_h * n ** (v_h - 1) * p ** (e_h - 1)
    worst_edge = 0
    for (u, v) in all_pairs(n):
        idx = edge_index(n, u, v)
        lk = boundary(link(hyper.family, idx))
        worst_edge = max(worst_edge, len(induce(lk, g_ground)))
    worst_vert = 0
    pair_sets = hyper.edge_sets()
    for v in range(n):
        at_v = [a for a, pairs in zip(hyper.family, pair_sets)
                if any(v in pr for pr in pairs)]
        lk = boundary(at_v)
        worst_vert = max(worst_vert, len(induce(lk, g_ground)))
    rep["T3"] = {"max_edge_link": worst_edge, "edge_cap": edge_cap,
                 "edge_holds": worst_edge <= edge_cap,
                 "max_vertex_link": worst_vert, "vertex_cap": vert_cap,
                 "vertex_holds": worst_vert <= vert_cap,
                 "holds": worst_edge <= edge_cap and worst_vert <= vert_cap}

    # T5 (descriptive)
    t5 = []
    for qfam in qh_instances:
        kq = qfam.q.k()
        surviving = 0
        for c in qfam.q.centres:
            if all(g.has_edge(c, w) for w in qfam.q.graph.neighbours(c)):
                surviving += 1
        t5.append({"k_Q": kq, "surviving_centres": surviving,
                   "fitted_c": surviving / kq if kq else None})
    rep["T5"] = {"entries": t5}

    # T7
    t7 = []
    for (a_set, b_set) in pair_list:
        tot = sum(1 for u in a_set for v in b_set if u != v)
        got = sum(1 for u in a_set for v in b_set
                  if u != v and g.has_edge(u, v))
        sd7 = math.sqrt(max(tot * p * (1 - p), 0.0))
        t7.append({"pairs": tot, "edges": got, "expected": tot * p,
                   "holds": abs(got - tot * p) <= slack_sigmas * sd7})
    rep["T7"] = {"entries": t7, "holds": all(e["holds"] for e in t7)}

    rep["holds"] = (rep["T1"]["holds"] and rep["T2"]["holds"]
                    and rep["T3"]["holds"] and rep["T7"]["holds"])
    return rep
