import gc
import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from simonovits import solvers
from simonovits.copies import enumerate_copies
from simonovits.randgraphs import RngStream, sample_gnp
from simonovits.graph import (Graph, complete_graph, cycle_graph,
                              complete_multipartite, blowup_plus, named_graph,
                              petersen_graph, disjoint_union, parse_inline,
                              PartTuple, all_pairs)
from simonovits.solvers import (max_r_cut, local_max_cut, is_unfriendly,
                                canonical_cut, max_H_free,
                                enumerate_optimal_H_free,
                                free_edge_witness, is_simonovits,
                                dense_peel, TooLargeError,
                                NODE_CAP, SOL_CAP)

from test_graph import is_bipartite

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


def test_max_cut_guard(monkeypatch):
    # K17 was past the old n > 16 guard; the search decides it at once
    _, val = max_r_cut(complete_graph(17), 2)
    assert val == 8 * 9
    monkeypatch.setattr(solvers, "NODE_CAP", 100)
    with pytest.raises(TooLargeError):
        max_r_cut(complete_graph(17), 2)
    with pytest.raises(TooLargeError):
        canonical_cut(complete_graph(17), 2)


def _reference_max_cut_search(g, r, leaf=None):
    """The max-cut branch and bound before the greedy floor and the check
    at the parent: it starts with no incumbent, enters every child and cuts
    a node off on entry."""
    adj = g.adj
    order = sorted((v for v in range(g.n) if adj[v]),
                   key=lambda v: -g.degree(v))
    m = len(order)
    total = g.edge_count()
    placed = [0] * (m + 1)
    future = [0] * (m + 1)
    inside = 0
    for i, v in enumerate(order):
        future[i] = total - inside
        inside += (adj[v] & placed[i]).bit_count()
        placed[i + 1] = placed[i] | 1 << v
    tie = 0 if leaf else 1
    best_val, best_assign = -1, None
    assign = [0] * g.n
    parts = [0] * r

    def rec(i, cur, used):
        nonlocal best_val, best_assign
        if cur + future[i] < best_val + tie:
            return
        if i == m:
            best_val, best_assign = cur, list(assign)
            if leaf:
                leaf(cur, best_assign)
            return
        v = order[i]
        back = adj[v] & placed[i]
        nback = back.bit_count()
        for c in range(min(r, used + 1)):
            assign[v] = c
            parts[c] |= 1 << v
            rec(i + 1, cur + nback - (back & parts[c]).bit_count(),
                max(used, c + 1))
            parts[c] ^= 1 << v

    rec(0, 0, 0)
    return best_assign, best_val


def _max_leaves(search, g, r):
    """The maximum leaves a search reports to its leaf callback."""
    leaves = []
    search(g, r, lambda value, assign: leaves.append((value, tuple(assign))))
    top = max(value for value, _ in leaves)
    return top, {a for value, a in leaves if value == top}


def _search_hosts(r):
    hosts = [complete_graph(n) for n in range(1, 13)]
    hosts += [Graph(n, []) for n in (0, 1, 5)]
    hosts += [Graph(n, [(0, n - 1)]) for n in (2, 5)]
    for n in range(13):
        hosts += [sample_gnp(n, p, RngStream(40 + r, 10 * n + t))
                  for t, p in enumerate((0.2, 0.5, 0.8))]
    return hosts


# the floor and the check at the parent drop only subtrees below the
# maximum: the first best leaf and every reported maximum leaf stay
@pytest.mark.parametrize("r", [2, 3, 4])
def test_max_cut_search_matches_reference(r):
    for g in _search_hosts(r):
        ref = _reference_max_cut_search(g, r)
        assert solvers._max_cut_search(g, r) == ref, (g.n, g.edges())
        top, leaves = _max_leaves(_reference_max_cut_search, g, r)
        assert top == ref[1]
        assert _max_leaves(solvers._max_cut_search, g, r) == (top, leaves)


def _crossing(g, assign):
    return sum(assign[u] != assign[v] for (u, v) in g.edges())


# a ceiling at or above the maximum leaves the value alone, and the first
# best cut too unless the floor meets it and the walk is skipped
@pytest.mark.parametrize("r", [2, 3, 4])
def test_max_cut_ceiling_keeps_the_first_best_cut(monkeypatch, r):
    hosts = _search_hosts(r) + [cycle_graph(6), petersen_graph()]
    skipped = 0
    for g in hosts:
        first, top = solvers._max_cut_search(g, r)
        for ceiling in (top, top + 1, g.edge_count() + 1):
            assign, val = solvers._max_cut_search(g, r, ceiling=ceiling)
            assert val == _crossing(g, assign) == top, (g.edges(), ceiling)
            monkeypatch.setattr(solvers, "NODE_CAP", 0)
            try:
                solvers._max_cut_search(g, r, ceiling=ceiling)
            except TooLargeError:
                assert assign == first, (g.edges(), ceiling)
            else:
                skipped += 1
            monkeypatch.setattr(solvers, "NODE_CAP", NODE_CAP)
        # a leaf callback sees every maximum cut whatever the ceiling
        assert (_max_leaves(lambda g, r, leaf: solvers._max_cut_search(
            g, r, leaf, ceiling=top), g, r)
            == _max_leaves(solvers._max_cut_search, g, r))
    assert skipped   # the even cycle's floor is its every edge


def test_cut_ceiling_bounds_the_best_cut():
    for pattern in ("triangle", "c5", "k4"):
        h = named_graph(pattern)
        r = h.chromatic_number() - 1
        for n in range(3, 11):
            for t, p in enumerate((0.3, 0.6, 0.9)):
                g = sample_gnp(n, p, RngStream(60 + n, t))
                ceiling = solvers._cut_ceiling(g, h)
                top = max_r_cut(g, r)[1]
                assert top <= ceiling
                assert max_r_cut(g, r, ceiling)[1] == top
    # K4 packs one triangle: the ceiling 5 is above the best cut, 4
    assert solvers._cut_ceiling(K4, K3) == 5


def test_is_simonovits_refuses_a_pattern_of_chromatic_number_2():
    with pytest.raises(ValueError, match=r"need r >= 2"):
        is_simonovits(K4, complete_graph(2))


def test_local_cut_is_unfriendly():
    g = petersen_graph()
    part, val = local_max_cut(g, 2, seed=3)
    assert is_unfriendly(g, part)
    _, exact = max_r_cut(g, 2)
    assert val <= exact == 12


def test_canonical_cut_deterministic():
    a = canonical_cut(petersen_graph(), 2)
    b = canonical_cut(petersen_graph(), 2)
    assert a == b


def _reference_canonical_cut(f, r):
    """The itertools.product loop that computed canonical_cut before it
    moved to numpy chunks."""
    edges = f.edges()
    best = None  # (-value, -int_v1, assignment)
    for assign in itertools.product(range(r), repeat=f.n):
        val = 0
        int_v1 = 0
        for (u, v) in edges:
            if assign[u] != assign[v]:
                val += 1
            elif assign[u] == 0:
                int_v1 += 1
        key = (-val, -int_v1, assign)
        if best is None or key < best:
            best = key
    return PartTuple.from_assignment(list(best[2]), r)


# the sizes the product loop checks in about a second; every n = 1 host and
# every edgeless host is all ties, and an edgeless host gives the branch
# and bound no vertex to place
CANONICAL_CASES = ([(n, 2) for n in range(1, 13)]
                   + [(n, 3) for n in range(1, 10)])


@pytest.mark.parametrize("n,r", CANONICAL_CASES)
def test_canonical_cut_matches_product_loop(n, r):
    hosts = [Graph(n, [])] + [sample_gnp(n, p, RngStream(n * 10 + r, t))
                              for t, p in enumerate((0.15, 0.4, 0.6, 0.9))]
    for g in hosts:
        assert canonical_cut(g, r) == _reference_canonical_cut(g, r), \
            g.edges()


def _relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for (u, v) in g.edges()])


def _cut_hosts():
    """Complete bi- and tripartite hosts, hosts with isolated vertices and
    disjoint unions of 2-4 components, as given and with shuffled labels."""
    hosts = [complete_multipartite(s)
             for s in ([1, 1], [2, 3], [3, 3], [1, 6], [4, 5], [1, 1, 1],
                       [1, 2, 3], [2, 2, 2], [3, 3, 2])]
    for t, (n, k) in enumerate([(3, 1), (4, 2), (5, 3), (6, 1), (6, 3),
                                (7, 2)]):
        g = sample_gnp(n, 0.6, RngStream(31, t))
        hosts.append(Graph(n + k, g.edges()))
    for t, sizes in enumerate([(2, 3), (3, 3), (1, 4, 2), (3, 2, 4),
                               (2, 2, 2, 2), (1, 3, 2, 3)]):
        g = Graph(0, [])
        for i, m in enumerate(sizes):
            g = disjoint_union(g, sample_gnp(m, 0.7, RngStream(32, 10 * t + i)))
        hosts.append(g)
    return hosts + [_relabelled(g, t) for t, g in enumerate(hosts)]


@pytest.mark.parametrize("r", [2, 3])
def test_canonical_cut_matches_product_loop_on_structured_hosts(r):
    for g in _cut_hosts():
        assert canonical_cut(g, r) == _reference_canonical_cut(g, r), \
            (g.n, g.edges())


def test_canonical_cut_matches_product_loop_at_seven_parts():
    hosts = [complete_graph(6), cycle_graph(6), Graph(6, [(0, 3), (3, 5)])]
    hosts += [sample_gnp(6, p, RngStream(33, t))
              for t, p in enumerate((0.4, 0.7))]
    for g in hosts:
        assert canonical_cut(g, 7) == _reference_canonical_cut(g, 7), \
            g.edges()


def _first_fit(g):
    colour = []
    for v in range(g.n):
        taken = {colour[w] for w in g.neighbours(v) if w < v}
        colour.append(min(c for c in range(g.n) if c not in taken))
    return colour


# with more parts than the largest degree every edge can cross, and the
# lexicographically least proper colouring is the first-fit one; r ** n
# sat just under the r^n size guard that the node budget replaced
@pytest.mark.parametrize("g,r", [(complete_graph(6), 13),
                                 (complete_graph(7), 9),
                                 (sample_gnp(7, 0.6, RngStream(34, 0)), 9),
                                 (Graph(6, [(1, 4), (4, 2), (2, 1)]), 13),
                                 (sample_gnp(6, 0.5, RngStream(34, 1)), 13)])
def test_canonical_cut_near_guard_is_first_fit_colouring(g, r):
    assert canonical_cut(g, r).assignment() == _first_fit(g)


@pytest.mark.parametrize("r", [2, 3])
def test_isolated_vertices_go_to_part_zero_in_max_cut(r):
    for g in _cut_hosts():
        part, val = max_r_cut(g, r)
        for k in (1, 3):
            padded_part, padded_val = max_r_cut(Graph(g.n + k, g.edges()), r)
            assert padded_val == val
            assignment = padded_part.assignment()
            assert assignment[:g.n] == part.assignment()
            assert assignment[g.n:] == [0] * k


# the hosts of the turan_gnp benchmark: largest pattern-free subgraphs of
# G(n, p), cut into chi(pattern) - 1 parts
@pytest.mark.parametrize("pattern,n,p", [("triangle", 14, 0.6),
                                         ("triangle", 12, 0.85),
                                         ("c5", 10, 0.45)])
def test_canonical_cut_matches_product_loop_on_pattern_free_hosts(
        pattern, n, p):
    h = named_graph(pattern)
    r = h.chromatic_number() - 1
    for t in range(2):
        _, f = max_H_free(sample_gnp(n, p, RngStream(n, t)), h)
        assert canonical_cut(f, r) == _reference_canonical_cut(f, r)


def test_mantel():
    for n in range(4, 10):
        ex, f = max_H_free(complete_graph(n), K3)
        assert ex == n * n // 4
        assert is_bipartite(f)


def test_turan_k4():
    ex, f = max_H_free(complete_graph(5), K4)
    assert ex == 8
    assert f.chromatic_number() <= 3


def test_pattern_free_host_is_returned_whole():
    ex, f = max_H_free(cycle_graph(5), K3)
    assert ex == 5 and f.edges() == cycle_graph(5).edges()
    # the minimum transversal is empty, so any tau >= 0 finds the host
    for tau in (0, 2):
        assert enumerate_optimal_H_free(cycle_graph(5), K3, tau) == [f]
    assert enumerate_optimal_H_free(cycle_graph(5), K3, -1) == []


def _kept(g, edges, dele):
    return Graph(g.n, [e for i, e in enumerate(edges) if not dele >> i & 1])


# the graphs built from g's rows with bits cleared equal the ones built
# from edge lists
@pytest.mark.parametrize("pattern", ["triangle", "c5", "k4"])
def test_optima_and_witness_graphs_match_edge_lists(pattern):
    h = named_graph(pattern)
    for n in range(0, 10):
        for t, p in enumerate((0.3, 0.6, 0.9)):
            g = sample_gnp(n, p, RngStream(70 + n, t))
            edges, masks = solvers._copy_masks(g, h)
            tau = g.edge_count() - max_H_free(g, h)[0]
            optima = enumerate_optimal_H_free(g, h, tau)
            if masks:
                want = [_kept(g, edges, dele)
                        for dele in solvers._transversal_search(masks, tau)]
            else:
                want = [g]
            assert optima == want and len(optima) >= 1
            covered = 0
            for m in masks:
                covered |= m
            w = _kept(g, edges, covered)
            free = free_edge_witness(g, h)
            if w.proper_colouring(h.chromatic_number() - 1) is None:
                assert free == w
            else:
                assert free is None


def test_enumerate_optima_counts():
    # max triangle-free subgraphs of K_n: one per balanced bipartition
    expected = {4: 3, 5: 10, 6: 10, 7: 35, 8: 35}
    for n, cnt in expected.items():
        g = complete_graph(n)
        ex, _ = max_H_free(g, K3)
        optima = enumerate_optimal_H_free(g, K3, g.edge_count() - ex)
        assert len(optima) == cnt
        assert all(f.edge_count() == ex for f in optima)
    # above the minimum (4 on K5) the search goes on to the first optimum;
    # below it no subgraph has e(g) - tau edges
    g = complete_graph(5)
    first = enumerate_optimal_H_free(g, K3, 5)
    assert len(first) == 1 and first[0].edge_count() == 6
    assert enumerate_copies(K3, first[0]) == []
    assert enumerate_optimal_H_free(g, K3, 3) == []


class _ShorterTransversal(Exception):
    """A transversal smaller than the requested size exists."""


def _reference_transversal_search(masks, tau):
    """Every deletion set of exactly tau elements hitting every mask, if
    tau is the minimum transversal size; [] otherwise.

    Branch and bound that propagates forced deletions (masks with a single
    undecided element) and prunes with a greedy packing of masks that are
    disjoint in their undecided elements.  Every minimal transversal of at
    most tau elements is a leaf, so a tau above the minimum ends at the
    first smaller leaf, and one below it finds none.  Raises
    TooLargeError past SOL_CAP solutions or NODE_CAP nodes.
    """
    sols = []
    nodes = [0]

    def rec(act, kept, dele, d):
        nodes[0] += 1
        if nodes[0] > NODE_CAP:
            raise TooLargeError("transversal search node cap")
        while True:
            nact = []
            forced = 0
            for t in act:
                if t & dele:
                    continue
                und = t & ~kept
                nu = und.bit_count()
                if nu == 0:
                    return
                if nu == 1:
                    forced |= und
                else:
                    nact.append(t)
            if forced:
                d += forced.bit_count()
                if d > tau:
                    return
                dele |= forced
                act = nact
                continue
            act = nact
            break
        used = 0
        lb = 0
        for t in act:
            und = t & ~kept
            if und & used == 0:
                used |= und
                lb += 1
        if d + lb > tau:
            return
        if not act:
            if d < tau:
                raise _ShorterTransversal
            sols.append(dele)
            if len(sols) > SOL_CAP:
                raise TooLargeError("transversal solution cap")
            return
        pick = min(act, key=lambda t: (t & ~kept).bit_count())
        x = pick & ~kept
        kd = kept
        while x:
            b = x & -x
            x ^= b
            rec(act, kd, dele | b, d + 1)
            kd |= b

    try:
        rec(list(masks), 0, 0, 0)
    except _ShorterTransversal:
        return []
    return sols


SEARCH_PATTERNS = {"triangle": K3, "c5": named_graph("c5"), "k4": K4,
                   "c4": cycle_graph(4),
                   "bowtie": parse_inline("5:0-1,0-2,1-2,2-3,2-4,3-4")}


def _check_against_reference(masks, n_vars, taus):
    """At and below the minimum, the search lists the reference's leaves in
    its order; above it, the search returns the MILP's minimum size and the
    reference's first leaf at the minimum.  Returns the minimum, or None
    if every tau is below it."""
    low = None
    for tau in taus:
        if low is None:
            ref = _reference_transversal_search(masks, tau)
            assert solvers._transversal_search(masks, tau) == ref, tau
            if ref:
                low, first = tau, ref[0]
                milp_size = (solvers._min_transversal_milp(masks, n_vars)
                             .bit_count() if masks else 0)
                assert milp_size == low
            continue
        assert _reference_transversal_search(masks, tau) == []
        leaves = solvers._transversal_search(masks, tau)
        assert leaves == [first], tau
        assert leaves[0].bit_count() == milp_size
        assert all(t & first for t in masks)
    return low


# the list-based search that the copy-bitset search replaced: the same
# leaves in the same order at and below the minimum, and above it the
# minimum that the MILP (which the continued search replaced) finds
@pytest.mark.parametrize("pattern", sorted(SEARCH_PATTERNS))
def test_transversal_search_matches_reference(pattern):
    h = SEARCH_PATTERNS[pattern]
    for n in range(4, 10):
        for t, p in enumerate((0.35, 0.6, 0.85)):
            g = sample_gnp(n, p, RngStream(n * 10 + t, 0))
            edges, masks = solvers._copy_masks(g, h)
            _check_against_reference(
                masks, len(edges), range(min(g.edge_count(), 14) + 1))


def test_transversal_search_unequal_and_duplicate_masks():
    # sizes 1 to 4, two masks repeated, and element 9 in no mask
    masks = (0b1011, 0b0110, 0b0110, 0b10000, 0b1100100, 0b1011,
             0b110000000, 0b100101000, 0b11100, 0b10001000011)
    assert _check_against_reference(masks, 11, range(12)) is not None


def test_cut_optimal_host_needs_no_milp(monkeypatch):
    def refuse(masks, n_vars):
        raise AssertionError("MILP called on a host whose ex is its best cut")
    monkeypatch.setattr(solvers, "_min_transversal_milp", refuse)
    v = is_simonovits(complete_graph(8), K3)
    assert v.decision == "yes" and v.optima_count == 35


# ex = 7 (delete 0-3) beats the best bipartite subgraph, 6 edges
ABOVE_CUT_SPEC = "6:0-1,0-2,0-3,0-4,1-3,2-5,3-4,3-5"
ABOVE_CUT = parse_inline(ABOVE_CUT_SPEC)


def test_decisions_leave_no_cyclic_garbage():
    # the searches' self-referencing closures are freed with their calls
    hosts = [(complete_graph(9), cycle_graph(5)),
             (sample_gnp(10, 0.5, RngStream(3, 0)), K3),
             (ABOVE_CUT, K3)]                # ex > best_rp
    for g, h in hosts:
        is_simonovits(g, h)                 # warm-up: caches, lazy imports
    gc.collect()
    gc.disable()
    try:
        # consecutive hosts differ, so each decision enumerates its copies
        for g, h in hosts:
            is_simonovits(g, h)
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_max_H_free_checks_its_witness(monkeypatch):
    # a deletion set that leaves a copy whole is refused
    monkeypatch.setattr(solvers, "_min_transversal_milp",
                        lambda masks, n_vars: 1)
    with pytest.raises(AssertionError, match="not h-free"):
        max_H_free(complete_graph(4), K3)


@pytest.mark.parametrize("capped", [False, True])
def test_optimum_above_cut_runs_one_milp(monkeypatch, capped):
    if capped:
        # the enumeration stops at its first node, and the MILP decides
        with monkeypatch.context() as m:
            m.setattr(solvers, "NODE_CAP", 0)
            with pytest.raises(TooLargeError):
                enumerate_optimal_H_free(ABOVE_CUT, K3, 2)

        def capped_search(masks, tau):
            raise TooLargeError("transversal search node cap")
        # NODE_CAP = 0 would refuse the max cut too, so cap the listing alone
        monkeypatch.setattr(solvers, "_transversal_search", capped_search)
    calls = []
    milp = solvers._min_transversal_milp

    def counted(masks, n_vars):
        calls.append(n_vars)
        return milp(masks, n_vars)
    monkeypatch.setattr(solvers, "_min_transversal_milp", counted)
    v = is_simonovits(ABOVE_CUT, K3)
    assert (v.decision, v.ex_size, v.best_rpartite) == ("no", 7, 6)
    assert v.reason.startswith("every optimum exceeds")
    assert v.certificate.edge_count() == 7
    # the search goes on to the minimum; only a capped one needs the MILP
    assert len(calls) == (1 if capped else 0)


def test_optimum_above_cut_loads_no_milp_solver():
    # a fresh interpreter, so that no earlier test has imported scipy
    src = os.path.dirname(os.path.dirname(solvers.__file__))
    code = ("import sys\n"
            "from simonovits.graph import named_graph, parse_inline\n"
            "from simonovits.solvers import is_simonovits\n"
            "v = is_simonovits(parse_inline(%r), named_graph('triangle'))\n"
            "print(v.decision, v.ex_size, 'scipy' in sys.modules)\n"
            % ABOVE_CUT_SPEC)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert res.stdout.strip() == "no 7 False"


def test_packing_bound_prunes_k8_c5_within_5000_nodes(monkeypatch):
    # the list-based search needed 13,544 nodes on this host
    monkeypatch.setattr(solvers, "NODE_CAP", 5000)
    v = is_simonovits(complete_graph(8), named_graph("c5"))
    assert (v.decision, v.ex_size, v.optima_count) == ("yes", 16, 35)


# (n, pattern, tau = e(K_n) - t_r(n), nodes): the search tree's size pins
# its branching and bound, so a change that keeps the leaves but walks
# another tree shows here.  Each case's id is the name it was first pinned
# under, with the size it had then, so that a re-pin renames no test.
SEARCH_TREES = [pytest.param(8, "c5", 12, 2844, id="8-c5-12-4686"),
                pytest.param(9, "triangle", 16, 3036, id="9-triangle-16-5250"),
                pytest.param(8, "k4", 7, 1833, id="8-k4-7-4502")]


@pytest.mark.parametrize("n,pattern,tau,nodes", SEARCH_TREES)
def test_transversal_search_tree_size_on_complete_hosts(
        monkeypatch, n, pattern, tau, nodes):
    _, masks = solvers._copy_masks(complete_graph(n), named_graph(pattern))
    monkeypatch.setattr(solvers, "NODE_CAP", nodes)
    # tau is the minimum: the search lists optima of tau elements
    leaves = solvers._transversal_search(masks, tau)
    assert leaves and all(x.bit_count() == tau for x in leaves)
    monkeypatch.setattr(solvers, "NODE_CAP", nodes - 1)
    with pytest.raises(TooLargeError):
        solvers._transversal_search(masks, tau)


# (n, pattern, nodes): the existence search's tree on K_n with the twin
# skip; the listing walks 50,907, 69,641 and 10,670 nodes on these hosts.
# The ids are the names first pinned, as for SEARCH_TREES.
TWIN_TREES = [pytest.param(11, "triangle", 8128, id="11-triangle-12851"),
              pytest.param(10, "k4", 2238, id="10-k4-4555"),
              pytest.param(9, "c5", 3596, id="9-c5-5584")]


@pytest.mark.parametrize("n,pattern,nodes", TWIN_TREES)
def test_twin_skip_tree_size_on_complete_hosts(monkeypatch, n, pattern,
                                               nodes):
    g, h = complete_graph(n), named_graph(pattern)
    r = h.chromatic_number() - 1
    edges, masks = solvers._copy_masks(g, h)

    def good(dele):
        return Graph(n, [e for i, e in enumerate(edges)
                         if not dele >> i & 1]).proper_colouring(r) is not None
    twins = (edges, solvers._twin_mates(g), good)
    tau = g.edge_count() - max_r_cut(g, r)[1]
    monkeypatch.setattr(solvers, "NODE_CAP", nodes)
    assert solvers._transversal_search(masks, tau, twins) == []
    monkeypatch.setattr(solvers, "NODE_CAP", nodes - 1)
    with pytest.raises(TooLargeError):
        solvers._transversal_search(masks, tau, twins)


def test_twin_route_loads_no_milp_solver():
    # a fresh interpreter, so that no earlier test has imported either
    src = os.path.dirname(os.path.dirname(solvers.__file__))
    code = ("import sys\n"
            "from simonovits.graph import complete_graph, named_graph\n"
            "from simonovits.solvers import is_simonovits\n"
            "v = is_simonovits(complete_graph(11), named_graph('triangle'))\n"
            "print(v.decision, v.optima_count, 'scipy' in sys.modules,\n"
            "      'numpy' in sys.modules)\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert res.stdout.strip() == "yes 462 False False"


# (n, p, stream seed, pattern, tau = e - best r-cut, minimum, nodes): a
# G(n, p) host whose optimum beats its best cut, so the search meets a
# smaller leaf and goes on to the minimum; the tree's size pins the
# incumbent's pruning
MINIMISING_TREE = (13, 0.5, 4, "triangle", 10, 8, 105)


def test_transversal_search_tree_size_when_minimising(monkeypatch):
    n, p, seed, pattern, tau, low, nodes = MINIMISING_TREE
    g = sample_gnp(n, p, RngStream(seed, 0))
    h = named_graph(pattern)
    assert g.edge_count() - max_r_cut(g, h.chromatic_number() - 1)[1] == tau
    _, masks = solvers._copy_masks(g, h)
    monkeypatch.setattr(solvers, "NODE_CAP", nodes)
    leaves = solvers._transversal_search(masks, tau)
    assert [x.bit_count() for x in leaves] == [low]
    assert leaves == _reference_transversal_search(masks, low)[:1]
    monkeypatch.setattr(solvers, "NODE_CAP", nodes - 1)
    with pytest.raises(TooLargeError):
        solvers._transversal_search(masks, tau)


def test_enumeration_cap_gives_indeterminate(monkeypatch):
    # K8 has 35 largest triangle-free subgraphs, one per balanced bipartition
    monkeypatch.setattr(solvers, "SOL_CAP", 20)
    v = is_simonovits(complete_graph(8), K3)
    assert v.decision == "indeterminate"
    assert "cap" in v.reason
    assert v.ex_size == 16 and v.best_rpartite == 16


def _twins(g):
    """mates[v]: the bitmask of v's twins, by definition."""
    nbrs = [set(g.neighbours(v)) for v in range(g.n)]
    return [sum(1 << u for u in range(g.n)
                if u != v and nbrs[u] - {v} == nbrs[v] - {u})
            for v in range(g.n)]


def _route_agrees(g, h, listed=None):
    """Whether the twin route, forced past its gate, decided g.  The gate,
    _twin_mates, must give the twins exactly when every non-isolated
    vertex has one; the route may answer only "yes", with the listing's
    dict, and must decide every "yes".  listed, if given, is the listing's
    dict recorded for g."""
    mates = _twins(g)
    gated = all(m or not a for m, a in zip(mates, g.adj))
    assert solvers._twin_mates(g) == (mates if gated else None)
    chi, critical = solvers._pattern_facts(h)
    r = chi - 1
    if ((not critical and g.proper_colouring(r) is None)
            or free_edge_witness(g, h) is not None):
        return False  # decided before either route
    best_rp = max_r_cut(g, r)[1]
    if listed is None:
        listed = solvers._decide_by_listing(g, h, r, best_rp).as_dict()
    routed = solvers._decide_up_to_twins(g, h, r, best_rp, mates)
    if routed is None:
        assert listed["decision"] != "yes"
        return False
    assert routed.as_dict() == listed
    return True


# K11 with C5 and K4: the listing's dicts, recorded, since listing 462 and
# 5,775 optima takes seconds
K11_LISTED = {
    "c5": {"decision": "yes", "ex_size": 30, "best_rpartite": 30,
           "optima_count": 462, "reason": "all optima r-partite"},
    "k4": {"decision": "yes", "ex_size": 40, "best_rpartite": 40,
           "optima_count": 5775, "reason": "all optima r-partite"}}


@pytest.mark.parametrize("pattern", ["triangle", "c5", "k4"])
def test_twin_route_matches_listing_on_complete_hosts(pattern):
    h = named_graph(pattern)
    decided = 0
    for n in range(1, 12):
        decided += _route_agrees(complete_graph(n), h,
                                 K11_LISTED.get(pattern) if n == 11 else None)
    for n in range(3, 11):
        decided += _route_agrees(complete_graph(n).without_edge(0, 1), h)
    for sizes in ([1, 2], [2, 2], [3, 3], [2, 3], [1, 1, 2], [2, 2, 2],
                  [2, 3, 4], [3, 3, 3], [1, 2, 2, 3], [2, 2, 2, 2]):
        decided += _route_agrees(complete_multipartite(sizes), h)
    for m in range(3, 7):
        decided += _route_agrees(blowup_plus(2, m), h)
    # the route decides every "yes" of the 33 hosts, and only those
    assert decided == {"triangle": 33, "c5": 22, "k4": 33}[pattern]


def _blowup(seed):
    """A seeded blow-up of a random base graph on 5 to 9 vertices: each
    base vertex becomes a class of 1 to 3 true or false twins, at most 10
    vertices in all and at least one class of two or more; one edge is
    dropped in about a third of the hosts."""
    rng = random.Random(seed)
    b = rng.randint(5, 9)
    p = rng.uniform(0.3, 0.9)
    base = [e for e in all_pairs(b) if rng.random() < p]
    sizes = [rng.choice((1, 1, 2, 2, 3)) for _ in range(b)]
    while sum(sizes) > 10:
        sizes[sizes.index(max(sizes))] -= 1
    if max(sizes) == 1:
        sizes[rng.randrange(b)] = 2
    start = [0]
    for size in sizes:
        start.append(start[-1] + size)
    cls = [range(start[i], start[i + 1]) for i in range(b)]
    edges = []
    for c in cls:
        if rng.random() < 0.5:
            edges += [(u, v) for u in c for v in c if u < v]
    for i, j in base:
        edges += [(u, v) for u in cls[i] for v in cls[j]]
    if rng.random() < 1 / 3:
        # spare the first class of two or more, so that its twins stay twins
        twins = cls[[len(c) > 1 for c in cls].index(True)]
        spare = [e for e in edges if e[0] not in twins and e[1] not in twins]
        if spare:
            edges.remove(rng.choice(spare))
    return Graph(start[-1], edges)


BLOWUP_PATTERNS = ["triangle", "c5", "k4", "bowtie"]


# 1,000 blow-ups, seed s decided against BLOWUP_PATTERNS[s % 4]
@pytest.mark.parametrize("pattern", BLOWUP_PATTERNS)
def test_twin_route_matches_listing_on_blowups(pattern):
    h = SEARCH_PATTERNS[pattern]
    decided = 0
    for seed in range(BLOWUP_PATTERNS.index(pattern), 1000, 4):
        g = _blowup(seed)
        assert any(_twins(g))
        decided += _route_agrees(g, h)
    # the "yes" hosts; the bowtie is not edge-critical, so most of its
    # hosts are "no" before either route
    assert decided == {"triangle": 192, "c5": 185, "k4": 202,
                       "bowtie": 8}[pattern]


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


@pytest.mark.parametrize("n,ex", [(9, 20), (10, 25)])
def test_simonovits_c5_on_complete_graphs(n, ex):
    # ex(K_n, C5) = t_2(n), and the optima are the 126 balanced bipartitions
    v = is_simonovits(complete_graph(n), named_graph("c5"))
    assert (v.decision, v.ex_size, v.best_rpartite, v.optima_count) == (
        "yes", ex, ex, 126)


def test_simonovits_no_cases():
    v = is_simonovits(cycle_graph(5), K3)
    assert v.decision == "no"
    assert v.certificate is not None
    v = is_simonovits(disjoint_union(complete_graph(5), cycle_graph(5)), K3)
    assert v.decision == "no"
    assert v.certificate is not None
    # ex equals the best cut, and one of the 3 optima is not bipartite
    v = is_simonovits(sample_gnp(6, 0.5, RngStream(35, 6000)), K3)
    assert (v.decision, v.ex_size, v.best_rpartite, v.optima_count) \
        == ("no", 6, 6, 3)
    assert v.reason == "found a non-r-partite optimum"
    assert v.certificate.proper_colouring(2) is None


def test_simonovits_non_critical_pattern():
    v = is_simonovits(complete_graph(5), petersen_graph())
    assert v.decision == "no"


def test_dense_peel_on_complete_graph():
    info, is_rp = dense_peel(complete_graph(10), K3)
    assert is_rp
    assert is_bipartite(info["peeled_subgraph"])

