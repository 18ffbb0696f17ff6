import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from simonovits.graph import (Graph, ColoredGraph, complete_graph,
                              cycle_graph, petersen_graph, named_graph,
                              graph_from_spec, all_pairs,
                              pair_mask, bitset_members)
from simonovits import copies
from simonovits.copies import (embeddings, count_embeddings,
                               automorphism_count, enumerate_copies,
                               count_copies,
                               copies_as_hypergraph, induce,
                               link, boundary,
                               critical_edge_and_anchor, residual_family,
                               janson_moments, subset_counts)
from simonovits.patterns import is_edge_critical
from simonovits.randgraphs import RngStream, sample_gnp

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


def test_matching_number_edge_disjoint_triangles():
    # K5 packs 2 edge-disjoint triangles; K7 decomposes into 7
    for n, packed in ((5, 2), (7, 7)):
        family = copies_as_hypergraph(K3, complete_graph(n))
        assert matching_number(family) == packed


def _mask(elements):
    return sum(1 << x for x in elements)


def test_link_and_boundary_by_hand():
    fam = [_mask({1, 2, 3}), _mask({3, 4, 5})]
    assert link(fam, 3) == [_mask({1, 2}), _mask({4, 5})]
    assert _mask({1, 2}) in boundary(fam)
    assert len(boundary(fam)) == 6
    assert induce(fam, _mask({1, 2, 3})) == [_mask({1, 2, 3})]


# The frozenset forms of the family helpers, used before members became
# bitmasks; kept as the oracles for the differential test below.
def _ref_induce(family, ground):
    ground = set(ground)
    return [a for a in family if a <= ground]


def _ref_link(family, element):
    out = {a - {element} for a in family if element in a}
    out.discard(frozenset())
    return sorted(out, key=lambda a: tuple(sorted(a)))


def _ref_boundary(family):
    out = set()
    for a in family:
        for x in a:
            b = a - {x}
            if b:
                out.add(b)
    return sorted(out, key=lambda a: tuple(sorted(a)))


def matching_number(family):
    """Largest number of pairwise disjoint members (exact branch and bound).

    Members go by size, so each one taken from i on uses at least
    |masks[i]| elements that no taken member uses.  A node is cut off when
    the members left, or the unused elements over |masks[i]|, cannot take
    it past the best."""
    masks = sorted(set(family), key=int.bit_count)
    width = 0
    for a in masks:
        width |= a
    best = [0]

    def rec(i, used, size):
        if size + (len(masks) - i) <= best[0]:
            return
        if i == len(masks):
            best[0] = max(best[0], size)
            return
        k = masks[i].bit_count()
        if k and size + (width & ~used).bit_count() // k <= best[0]:
            return
        if masks[i] & used == 0:
            rec(i + 1, used | masks[i], size + 1)
        rec(i + 1, used, size)

    rec(0, 0, 0)
    return best[0]


def _ref_matching_number(family):
    fam = sorted(set(frozenset(a) for a in family), key=len)
    elems = sorted(set().union(*fam)) if fam else []
    pos = {e: i for i, e in enumerate(elems)}
    masks = [sum(1 << pos[e] for e in a) for a in fam]
    best = [0]

    def rec(i, used, size):
        if size + (len(masks) - i) <= best[0]:
            return
        if i == len(masks):
            best[0] = max(best[0], size)
            return
        if masks[i] & used == 0:
            rec(i + 1, used | masks[i], size + 1)
        rec(i + 1, used, size)

    rec(0, 0, 0)
    return best[0]


def _ref_janson_moments(family, p, exact=False):
    fam = sorted(set(frozenset(a) for a in family),
                 key=lambda a: tuple(sorted(a)))
    num = Fraction if exact else float
    pv = num(p)
    mu = sum(pv ** len(a) for a in fam)
    by_elem = {}
    for idx, a in enumerate(fam):
        for x in a:
            by_elem.setdefault(x, []).append(idx)
    pairs = set()
    for idxs in by_elem.values():
        for i, j in itertools.combinations(idxs, 2):
            pairs.add((i, j))
    delta = sum(pv ** len(fam[i] | fam[j]) for (i, j) in pairs)
    return {"mu": mu, "delta": delta}


def _random_sets(rng):
    """A family of 0-40 sets of sizes 1-5 (repeats allowed) over a ground
    of 1-40 elements, with a ground subset and an element."""
    ground = rng.randint(1, 40)
    fam = [frozenset(rng.sample(range(ground), rng.randint(1, min(5, ground))))
           for _ in range(rng.randint(0, 40))]
    sub = frozenset(x for x in range(ground) if rng.random() < 0.7)
    return fam, sub, rng.randrange(ground)


@pytest.mark.parametrize("seed", range(200))
def test_family_helpers_match_frozenset_forms(seed):
    fam, sub, x = _random_sets(random.Random(seed))
    masks = [_mask(a) for a in fam]
    for got, want in ((induce(masks, _mask(sub)), _ref_induce(fam, sub)),
                      (link(masks, x), _ref_link(fam, x)),
                      (boundary(masks), _ref_boundary(fam))):
        assert got == [_mask(a) for a in want]
    if len(fam) <= 24:      # both branch and bounds are exponential in it
        assert matching_number(masks) == _ref_matching_number(fam)
    p = Fraction(2, 3)
    assert repr(janson_moments(masks, p, exact=True)) \
        == repr(_ref_janson_moments(fam, p, exact=True))
    # the float Delta adds the same terms, but in the order of a set whose
    # layout followed frozenset iteration, so it may round differently in
    # the last place (seed 82 does)
    got, want = janson_moments(masks, 0.3), _ref_janson_moments(fam, 0.3)
    assert math.isclose(got.pop("delta"), want.pop("delta"), rel_tol=1e-14)
    assert repr(got) == repr(want)


def test_matching_number_of_c5_low_residuals_in_k8():
    # 6 is _ref_matching_number's answer, which takes over a second here
    fam = residual_family(cycle_graph(5), Graph(8, [(0, 1)]), 8, "low")
    assert len(fam) == 120
    assert matching_number(fam) == 6


@pytest.mark.parametrize("seed", range(20))
def test_janson_float_delta_ignores_element_labels(seed):
    # 20-80 sets of sizes 1-5 over 5-40 elements, so that many pairs meet
    rng = random.Random(seed)
    ground = rng.randint(5, 40)
    fam = [rng.sample(range(ground), rng.randint(1, 5))
           for _ in range(rng.randint(20, 80))]
    perm = list(range(ground))
    rng.shuffle(perm)
    relabelled = [_mask(perm[x] for x in a) for a in fam]
    for p in (0.3, 0.77):
        assert (repr(janson_moments([_mask(a) for a in fam], p)["delta"])
                == repr(janson_moments(relabelled, p)["delta"]))


def test_subset_counts():
    cnt = subset_counts([[1, 2, 3], [2, 3], [3]], 2)
    assert cnt == Counter({(1, 2): 1, (1, 3): 1, (2, 3): 2})
    assert subset_counts([], 1) == Counter()


def test_critical_edge_and_anchor():
    e, anchor = critical_edge_and_anchor(K3)
    assert anchor in e
    with pytest.raises(ValueError):
        critical_edge_and_anchor(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))


def test_residual_family_low_single_edge():
    n = 10
    q = Graph(n, [(0, 1)])
    fam = residual_family(K3, q, n, "low")
    # triangles through the edge {0,1}: one per outside vertex, each the
    # two pairs joining it to 0 and 1
    assert fam == [pair_mask(n, [(0, v), (1, v)]) for v in range(2, n)]


def _reference_residual_family(h, q, n):
    """The whole-K_n filter residual_family used before it anchored copies
    on q: every copy of h in K_n, kept when it shares one edge with q and
    spans one q-edge.  Returns the sorted residual family as K_n edge
    bitmasks."""
    qg = q.graph if isinstance(q, ColoredGraph) else q
    q_edges = frozenset(tuple(sorted(e)) for e in qg.edges())
    q_mask = qg.edge_mask()
    residuals = set()
    for copy in enumerate_copies(h, complete_graph(n)):
        vs = {v for e in copy for v in e}
        spanned = sum(1 for (u, v) in q_edges if u in vs and v in vs)
        if len(copy & q_edges) == 1 and spanned == 1:
            residuals.add(pair_mask(n, copy) & ~q_mask)
    return sorted(residuals - {0}, key=bitset_members)


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
    assert residual_family(h, q, n, "low") == \
        _reference_residual_family(h, q, n)


@pytest.mark.parametrize("pattern, per_copy", [("triangle", 1), ("k4", 2)])
def test_residual_family_meets_each_copy_once_per_edge_stabiliser(
        monkeypatch, pattern, per_copy):
    # one oriented edge per Aut(h) orbit is anchored on the q-edge, so a
    # copy through it is met once per automorphism fixing that oriented
    # edge: 6 / 6 for the triangle and 24 / 12 for K4, not |Aut(h)| times
    h, n = named_graph(pattern), 12
    visited = Counter()
    walk = copies.embeddings

    def counted(pat, host, fixed=None):
        for img in walk(pat, host, fixed):
            if host.n == n:
                visited[pair_mask(n, ((img[u], img[v])
                                      for (u, v) in pat.edges()))] += 1
            yield img

    monkeypatch.setattr(copies, "embeddings", counted)
    q = Graph(n, [(0, 1)])
    fam = residual_family(h, q, n, "low")
    assert len(fam) == math.comb(n - 2, h.n - 2)
    # every copy through the one q-edge is kept, its residual the rest
    assert set(visited) == {a | q.edge_mask() for a in fam}
    assert set(visited.values()) == {per_copy}


def test_residual_family_high_places_anchor_on_centres():
    n = 8
    q = Graph(n, [(0, 2), (0, 3), (1, 4), (1, 5)])
    colour = [1, 1, 2, 2, 2, 2, 0, 0]
    cg = ColoredGraph(q, colour, centres=[0, 1])
    fam = residual_family(K3, cg, n, "high")
    assert len(fam) > 0
    centre_pairs = pair_mask(n, [(0, 2), (0, 3), (1, 4), (1, 5)])
    for resid in fam:
        assert not resid & centre_pairs


def _canonical(family):
    return family == sorted(set(family), key=bitset_members)


@pytest.mark.parametrize("pattern", sorted(RESIDUAL_PATTERNS))
def test_families_come_distinct_in_canonical_order(pattern):
    h = RESIDUAL_PATTERNS[pattern]
    for structure in RESIDUAL_STRUCTURES.values():
        fam = residual_family(h, structure(8), 8, "low")
        assert fam and _canonical(fam)
    high = ColoredGraph(Graph(8, [(0, 2), (0, 3), (1, 4), (1, 5)]),
                        [1, 1, 2, 2, 2, 2, 0, 0], centres=[0, 1])
    if h.chromatic_number() == 3 and is_edge_critical(h)[0]:
        fam = residual_family(h, high, 8, "high")
        assert fam and _canonical(fam)
    copies_k7 = copies_as_hypergraph(h, complete_graph(7))
    assert copies_k7 and _canonical(copies_k7)
    for element in (0, 5, 20):
        lk = link(copies_k7, element)
        assert lk and _canonical(lk) and 0 not in lk
    bd = boundary(copies_k7)
    assert bd and _canonical(bd) and 0 not in bd


def test_janson_moments_triangles_in_k4():
    fam = copies_as_hypergraph(K3, complete_graph(4))
    p = Fraction(1, 2)
    m = janson_moments(fam, p, exact=True)
    assert m["mu"] == 4 * p ** 3
    # every pair of the 4 triangles shares one edge: 6 pairs, union size 5
    assert m["delta"] == 6 * p ** 5
    assert set(m) == {"mu", "delta"}


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
    sub = induce(hyp, complete_graph(5).without_edge(0, 1).edge_mask())
    assert len(sub) == math.comb(5, 3) - 3


def _reference_enumerate_copies(h, host):
    """enumerate_copies before it keyed embeddings by mask: a frozenset
    built and added for every embedding."""
    edges = h.edges()
    seen = set()
    for img in embeddings(h, host):
        es = frozenset(tuple(sorted((img[u], img[v]))) for (u, v) in edges)
        seen.add(es)
    return list(seen)


COPY_PATTERNS = dict(RESIDUAL_PATTERNS, c4=cycle_graph(4),
                     # orbit leaders that differ only on isolated vertices
                     # give one copy, so the set drops all but the first
                     isolated=graph_from_spec("4:0-1,0-2,1-2"),
                     disconnected=graph_from_spec("5:0-1,0-2,1-2,3-4"))


# the optimum listing branches, and certifies, in this order
@pytest.mark.parametrize("pattern", sorted(COPY_PATTERNS))
def test_enumerate_copies_matches_per_embedding_frozensets(pattern):
    h = COPY_PATTERNS[pattern]
    for n in range(4, 11):
        hosts = [sample_gnp(n, p, RngStream(n * 10 + t, 0))
                 for t, p in enumerate((0.35, 0.6, 0.85))]
        for g in hosts + [complete_graph(n), Graph(n)]:
            assert (enumerate_copies(h, g)
                    == _reference_enumerate_copies(h, g)), g.edges()


@pytest.mark.parametrize("pattern", sorted(set(COPY_PATTERNS)
                                           - {"isolated"}))
def test_enumerate_copies_builds_one_frozenset_per_copy(pattern, monkeypatch):
    # with no isolated vertex each copy has exactly one orbit leader, and
    # only the leaders build a frozenset
    h = COPY_PATTERNS[pattern]
    built = []

    def counted(items):
        built.append(1)
        return frozenset(items)
    monkeypatch.setattr(copies, "frozenset", counted, raising=False)
    for n in range(4, 10):
        for g in (sample_gnp(n, 0.6, RngStream(n, 1)), complete_graph(n)):
            built.clear()
            found = enumerate_copies(h, g)
            assert len(built) == len(found) == count_copies(h, g)
