"""Exact desk-scale extremal solvers.

Maximum r-cuts, maximum pattern-free subgraphs via minimum transversals of
the copy hypergraph, the Simonovits decision (is every largest h-free
subgraph (chi(h)-1)-partite?), a canonical choice of maximum cut, and the
dense-regime peeling argument.
"""

import functools
import itertools
import random

from .graph import Graph, PartTuple, ext_int
from .copies import enumerate_copies
from .patterns import is_edge_critical, dense_min_degree_bound

EXACT_CUT_GUARD = 5_000_000
SOL_CAP = 1_000_000      # optimal transversals listed before giving up
NODE_CAP = 50_000_000    # search nodes visited before giving up


class TooLargeError(Exception):
    pass


class EnumerationCapError(Exception):
    pass


# -- maximum r-cuts ------------------------------------------------------

def _cut_value(g, assign):
    val = 0
    for (u, v) in g.edges():
        if assign[u] != assign[v]:
            val += 1
    return val


def max_r_cut(g, r, mode="exact", seed=0):
    """Largest number of crossing edges over complete r-part partitions.

    exact mode: branch and bound with part-label symmetry breaking, guarded.
    local mode: vertex-move local search from a seeded random start; the
    result satisfies the unfriendly condition (each vertex has at most as
    many neighbours in its own part as in any other part).
    Returns (PartTuple, value).
    """
    if r < 2:
        raise ValueError("need r >= 2")
    n = g.n
    if mode == "local":
        return _local_max_cut(g, r, seed)
    if mode != "exact":
        raise ValueError("unknown mode %r" % mode)
    if r ** max(n - 1, 0) > EXACT_CUT_GUARD or n > 16:
        raise TooLargeError("exact cut search too large (n=%d, r=%d)" % (n, r))
    # order vertices by degree for stronger pruning
    order = sorted(range(n), key=lambda v: -g.degree(v))
    adj = g.adj
    best_val = -1
    best_assign = None
    assign = [-1] * n
    # future[i] = number of edges with at least one end in order[i:]
    future = [0] * (n + 1)
    prefix_mask = 0
    total = g.edge_count()
    inside = 0
    for i in range(n):
        future[i] = total - inside
        inside += (adj[order[i]] & prefix_mask).bit_count()
        prefix_mask |= 1 << order[i]

    def rec(i, cur, used_parts):
        nonlocal best_val, best_assign
        if cur + future[i] <= best_val:
            return
        if i == n:
            best_val = cur
            best_assign = list(assign)
            return
        v = order[i]
        limit = min(r, used_parts + 1)
        for c in range(limit):
            gain = 0
            for j in range(i):
                w = order[j]
                if adj[v] >> w & 1 and assign[w] != c:
                    gain += 1
            assign[v] = c
            rec(i + 1, cur + gain, max(used_parts, c + 1))
            assign[v] = -1

    rec(0, 0, 0)
    part = PartTuple.from_assignment(best_assign, r)
    return part, best_val


def _local_max_cut(g, r, seed):
    rng = random.Random(seed)
    assign = [rng.randrange(r) for _ in range(g.n)]
    nbrs = [list(g.neighbours(v)) for v in range(g.n)]
    improved = True
    while improved:
        improved = False
        for v in range(g.n):
            counts = [0] * r
            for w in nbrs[v]:
                counts[assign[w]] += 1
            best_c = assign[v]
            for c in range(r):
                if counts[c] < counts[best_c]:
                    best_c = c
            if best_c != assign[v]:
                assign[v] = best_c
                improved = True
    part = PartTuple.from_assignment(assign, r)
    return part, _cut_value(g, assign)


def is_unfriendly(g, part):
    """Every vertex has no more neighbours in its own part than in any other."""
    assign = part.assignment()
    r = part.r()
    for v in range(g.n):
        counts = [0] * r
        for w in g.neighbours(v):
            if assign[w] >= 0:
                counts[assign[w]] += 1
        own = counts[assign[v]]
        if any(own > counts[c] for c in range(r)):
            return False
    return True


def canonical_cut(f, r):
    """Deterministic maximum r-cut: maximise crossing edges, then internal
    edges of the first part, then take the lexicographically least
    part-assignment vector."""
    n = f.n
    if r ** n > EXACT_CUT_GUARD:
        raise TooLargeError("canonical cut enumeration too large")
    edges = f.edges()
    best = None  # (-value, -int_v1, assignment)
    for assign in itertools.product(range(r), repeat=n):
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


# -- minimum transversals of the copy hypergraph -------------------------

@functools.lru_cache(maxsize=1)
def _copy_masks(g, h):
    """Copies of h in g as bitmasks over g's edge list; returns (edges, masks).

    One decision asks for the same (g, h) in several stages, so the last
    result is kept.  Graphs hash by value and the result is made of tuples,
    so another host never hits the cache and no caller can alter it.
    """
    edges = tuple(g.edges())
    pos = {e: i for i, e in enumerate(edges)}
    masks = tuple(sum(1 << pos[e] for e in copy)
                  for copy in enumerate_copies(h, g))
    return edges, masks


def _transversal_search(masks, tau):
    """Every deletion set of exactly tau elements hitting every mask.

    Branch and bound that propagates forced deletions (masks with a single
    undecided element) and prunes with a greedy packing of masks that are
    disjoint in their undecided elements.  Returns the deletion masks;
    raises EnumerationCapError past SOL_CAP solutions or NODE_CAP nodes.
    """
    sols = []
    nodes = [0]

    def rec(act, kept, dele, d):
        nodes[0] += 1
        if nodes[0] > NODE_CAP:
            raise EnumerationCapError("transversal search node cap")
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
            if d == tau:
                sols.append(dele)
                if len(sols) > SOL_CAP:
                    raise EnumerationCapError("transversal solution cap")
            return
        pick = min(act, key=lambda t: (t & ~kept).bit_count())
        x = pick & ~kept
        kd = kept
        while x:
            b = x & -x
            x ^= b
            rec(act, kd, dele | b, d + 1)
            kd |= b

    rec(list(masks), 0, 0, 0)
    return sols


def _min_transversal_milp(masks, n_vars):
    """Minimum hitting set via integer programming; returns a deletion mask."""
    import numpy as np
    from scipy.optimize import milp, LinearConstraint, Bounds
    from scipy.sparse import csr_matrix
    rows, cols = [], []
    for i, m in enumerate(masks):
        x = m
        while x:
            b = x & -x
            x ^= b
            rows.append(i)
            cols.append(b.bit_length() - 1)
    a = csr_matrix((np.ones(len(rows)), (rows, cols)),
                   shape=(len(masks), n_vars))
    res = milp(c=np.ones(n_vars),
               constraints=LinearConstraint(a, lb=np.ones(len(masks))),
               integrality=np.ones(n_vars), bounds=Bounds(0, 1))
    if not res.success:
        raise RuntimeError("hitting-set program did not solve")
    dele = 0
    for j, v in enumerate(res.x):
        if v > 0.5:
            dele |= 1 << j
    return dele


def max_H_free(g, h):
    """Size of a largest h-free subgraph of g and one witness.

    ex(g, h) = e(g) - tau where tau is the minimum transversal of the copy
    hypergraph, found by an exact integer program.
    """
    edges, masks = _copy_masks(g, h)
    if not masks:
        return g.edge_count(), g
    dele = _min_transversal_milp(masks, len(edges))
    witness = Graph(g.n, [e for i, e in enumerate(edges)
                          if not dele >> i & 1])
    if enumerate_copies(h, witness):
        raise AssertionError("witness is not h-free")
    return g.edge_count() - dele.bit_count(), witness


def enumerate_optimal_H_free(g, h, tau):
    """All largest h-free subgraphs of g, given tau = e(g) - ex(g, h)."""
    edges, masks = _copy_masks(g, h)
    if not masks:
        return [g]
    out = []
    for dele in _transversal_search(masks, tau):
        out.append(Graph(g.n, [e for i, e in enumerate(edges)
                               if not dele >> i & 1]))
    return out


def free_edge_witness(g, h):
    """Subgraph of edges lying in no h-copy of g, if its chromatic number
    exceeds chi(h) - 1; else None.  Such a subgraph certifies a negative
    Simonovits answer: every maximum h-free subgraph contains all free edges."""
    edges, masks = _copy_masks(g, h)
    covered = 0
    for m in masks:
        covered |= m
    w = Graph(g.n, [e for i, e in enumerate(edges) if not covered >> i & 1])
    if w.chromatic_number() > h.chromatic_number() - 1:
        return w
    return None


class SimonovitsVerdict:
    """Outcome of the Simonovits decision."""

    __slots__ = ("decision", "ex_size", "best_rpartite", "certificate",
                 "optima_count", "reason")

    def __init__(self, decision, ex_size=None, best_rpartite=None,
                 certificate=None, optima_count=None, reason=""):
        self.decision = decision          # "yes" | "no" | "indeterminate"
        self.ex_size = ex_size
        self.best_rpartite = best_rpartite
        self.certificate = certificate
        self.optima_count = optima_count
        self.reason = reason

    def as_dict(self):
        d = {"decision": self.decision, "ex_size": self.ex_size,
             "best_rpartite": self.best_rpartite,
             "optima_count": self.optima_count, "reason": self.reason}
        if isinstance(self.certificate, Graph):
            d["certificate_edges"] = self.certificate.edges()
        return d


def is_simonovits(g, h):
    """Decide whether every largest h-free subgraph of g is r-partite,
    r = chi(h) - 1.  Returns a SimonovitsVerdict with certificate."""
    r = h.chromatic_number() - 1
    critical, _ = is_edge_critical(h)
    if not critical and g.chromatic_number() >= h.chromatic_number():
        return SimonovitsVerdict(
            "no", reason="pattern not edge-critical: no host of chromatic "
                         "number >= chi(pattern) has the property")
    w = free_edge_witness(g, h)
    if w is not None:
        return SimonovitsVerdict(
            "no", certificate=w,
            reason="free edges span a non-r-partite subgraph")
    ex, witness = max_H_free(g, h)
    _, best_rp = max_r_cut(g, r, mode="exact")
    if best_rp < ex:
        if witness.chromatic_number() <= r:
            raise AssertionError("optimum claims r-partite below cut bound")
        return SimonovitsVerdict(
            "no", ex_size=ex, best_rpartite=best_rp, certificate=witness,
            reason="every optimum exceeds the best r-partite subgraph")
    tau = g.edge_count() - ex
    try:
        optima = enumerate_optimal_H_free(g, h, tau)
    except EnumerationCapError as exc:
        return SimonovitsVerdict(
            "indeterminate", ex_size=ex, best_rpartite=best_rp,
            reason="optimum enumeration exceeded cap: %s" % exc)
    for f in optima:
        if f.chromatic_number() > r:
            return SimonovitsVerdict(
                "no", ex_size=ex, best_rpartite=best_rp, certificate=f,
                optima_count=len(optima),
                reason="found a non-r-partite optimum")
    return SimonovitsVerdict(
        "yes", ex_size=ex, best_rpartite=best_rp, optima_count=len(optima),
        reason="all optima r-partite")


# -- dense-regime peeling ------------------------------------------------

def dense_peel(g, h):
    """Peel low-degree vertices from a largest h-free subgraph of g.

    At current size k, any vertex of degree at most (3r-4)/(3r-1) * k is
    deleted (smallest label first).  Returns (trace, terminal_is_r_partite)
    where the trace records (vertex, degree, size_at_deletion) triples and
    the terminal surviving vertex set.
    """
    r = h.chromatic_number() - 1
    _, ratio = dense_min_degree_bound(h, g.n)
    _, f = max_H_free(g, h)
    active = set(range(g.n))
    # drop isolated vertices from consideration? keep them: degree 0 peels
    trace = []
    while True:
        k = len(active)
        if k == 0:
            break
        degs = {v: sum(1 for w in f.neighbours(v) if w in active)
                for v in active}
        victims = [v for v in sorted(active) if degs[v] <= ratio * k]
        if not victims:
            break
        v = victims[0]
        trace.append((v, degs[v], k))
        active.remove(v)
    terminal = f.induced_in_place(active) if active else Graph(g.n)
    is_rp = terminal.chromatic_number() <= r if active else True
    return {"trace": trace, "terminal_vertices": sorted(active),
            "terminal": terminal, "peeled_subgraph": f}, is_rp


def augment_rpartite(g, gprime_part):
    """Extend an r-partite subgraph to a larger r-partite subgraph.

    gprime_part: PartTuple covering the vertices of an r-partite subgraph
    G' of g.  The remaining vertices get parts from an unfriendly local
    search on their induced subgraph, so the crossing edges of the combined
    partition number at least e(G') + (r-1)/r * e(g - V(G')).
    Returns (PartTuple over all vertices, crossing subgraph of g).
    """
    r = gprime_part.r()
    assign = gprime_part.assignment()
    inside = [v for v in range(g.n) if assign[v] >= 0]
    outside = [v for v in range(g.n) if assign[v] < 0]
    sub = g.induced_in_place(outside)
    part, _ = _local_max_cut(sub, r, seed=0)
    sub_assign = part.assignment()
    for v in outside:
        assign[v] = sub_assign[v]
    full = PartTuple.from_assignment(assign, r)
    ext, _ = ext_int(g, full)
    return full, ext
