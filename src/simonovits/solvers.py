"""Exact desk-scale extremal solvers.

Maximum r-cuts and a canonical choice among them (both from one branch
and bound), maximum pattern-free subgraphs via minimum transversals of the
copy hypergraph, the Simonovits decision (is every largest h-free subgraph
(chi(h)-1)-partite?), and the dense-regime peeling argument.

The decision starts from the best r-cut, a lower bound on ex(g, h): one
transversal search at that size either lists every optimum or, once it
meets a smaller transversal, goes on to a minimum one, which gives the
exact ex and a certificate.  The integer program runs only when the search
passes its caps.  The search keeps the unhit copies as bitsets of copy
indices grouped by their number of undecided edges, so a decision on one
edge updates every copy through it at once.

A host whose every non-isolated vertex has a twin (N(u) - {v} = N(v) - {u}:
complete, complete multipartite and blown-up hosts) is first decided
without listing its optima.  The optima are counted as the distinct
crossing sets of the maximum r-cuts, and the same search, in an existence
mode, looks only for a bad leaf: an optimum that beats the best cut, or one
that is not r-partite.  A child whose edge a swap of two twins, or of two pairs
of twins, maps onto an earlier sibling's, while fixing the node's kept and
deleted edges, is skipped; the swap maps every leaf below it onto a leaf
below the earlier sibling.  No bad leaf means "yes": ex is the best cut and
the optima are exactly the maximum cuts' crossing sets.  A bad leaf, or a
search past its node cap, leaves the host to the listing.
"""

import functools
import random

from .graph import Graph, PartTuple, TooLargeError, bitset_members
from .copies import enumerate_copies
from .patterns import is_edge_critical, dense_min_degree_bound

SOL_CAP = 1_000_000      # optimal transversals listed before giving up
NODE_CAP = 50_000_000    # search nodes visited before giving up


# -- maximum r-cuts ------------------------------------------------------

class _CeilingMet(Exception):
    """Raised by _max_cut_search's recursion at a leaf on its ceiling."""


def _max_cut_search(g, r, leaf=None, ceiling=None):
    """Branch and bound for the most crossing edges over assignments of
    g's vertices to parts 0..r-1; returns (best assignment, value), the
    first best one when no leaf is given.

    Vertices go by decreasing degree, ties by label, each into a used part
    or the next new one, so each partition is met in one labelling.
    Degree-0 vertices are left out, in part 0.  The search starts from a
    floor: the cut that puts each vertex in turn into the first part
    holding the fewest of its placed neighbours, never above the maximum.
    A child is entered only if its crossing edges plus the edges still to
    place can beat the best leaf so far, or reach the floor before the
    first leaf.  With leaf, ties are kept (rejected on < rather than <=)
    and leaf(value, assign) is called at every leaf at least as good as
    the floor and the best so far, so every maximum cut relabels some
    reported leaf.  A node is one call of the recursion: a child rejected
    at its parent is not one.  Raises TooLargeError past NODE_CAP nodes,
    or where the recursion, one level per non-isolated vertex, would pass
    the interpreter's limit.

    Without leaf, a ceiling known to bound the maximum from above ends the
    search early: the walk stops at the first leaf that reaches it, which
    is the first best leaf, and is skipped when the floor reaches it; the
    floor's own cut is then returned.
    """
    adj = g.adj
    order = sorted((v for v in range(g.n) if adj[v]),
                   key=lambda v: -adj[v].bit_count())
    m = len(order)
    total = g.edge_count()
    # placed[i]: the vertices order[:i]; future[i]: the edges with at least
    # one end in order[i:]
    placed = [0] * (m + 1)
    future = [0] * (m + 1)
    inside = 0
    # the floor: each vertex of order in turn into the first part holding
    # the fewest of its placed neighbours
    greedy = [0] * r
    floor = 0
    for i, v in enumerate(order):
        future[i] = total - inside
        back = adj[v] & placed[i]
        inner = [(back & p).bit_count() for p in greedy]
        c = inner.index(min(inner))
        greedy[c] |= 1 << v
        nback = back.bit_count()
        inside += nback
        floor += nback - inner[c]
        placed[i + 1] = placed[i] | 1 << v
    if leaf or ceiling is None:
        ceiling = total + 1     # above every cut
    elif floor >= ceiling:
        assign = [0] * g.n
        for c, p in enumerate(greedy):
            for v in bitset_members(p):
                assign[v] = c
        return assign, floor
    tie = 0 if leaf else 1
    best_val, best_assign = floor - tie, None
    assign = [0] * g.n
    parts = [0] * r
    nodes = 0
    cap = NODE_CAP

    def rec(i, cur, used):
        nonlocal best_val, best_assign, nodes
        nodes += 1
        if nodes > cap:
            raise TooLargeError("max-cut search passed %d nodes (n=%d, r=%d)"
                                % (cap, g.n, r))
        if i == m:
            best_val, best_assign = cur, list(assign)
            if leaf:
                leaf(cur, best_assign)
            elif cur >= ceiling:
                raise _CeilingMet
            return
        v = order[i]
        back = adj[v] & placed[i]
        nback = back.bit_count()
        for c in range(min(r, used + 1)):
            val = cur + nback - (back & parts[c]).bit_count()
            if val + future[i + 1] < best_val + tie:
                continue
            assign[v] = c
            parts[c] |= 1 << v
            rec(i + 1, val, max(used, c + 1))
            parts[c] ^= 1 << v

    try:
        rec(0, 0, 0)
    except _CeilingMet:
        pass
    except RecursionError:
        raise TooLargeError("max-cut search passed the recursion limit "
                            "(n=%d, r=%d)" % (g.n, r)) from None
    finally:
        rec = None      # the closure refers to itself; free it with the call
    return best_assign, best_val


def max_r_cut(g, r, ceiling=None):
    """Largest number of crossing edges over complete r-part partitions:
    (PartTuple, value) of the branch and bound's first best assignment,
    or, given a ceiling on the value that the greedy floor already
    reaches, of the floor's assignment.  Raises TooLargeError past
    NODE_CAP search nodes."""
    if r < 2:
        raise ValueError("need r >= 2")
    assign, val = _max_cut_search(g, r, ceiling=ceiling)
    return PartTuple.from_assignment(assign, r), val


def local_max_cut(g, r, seed):
    """Vertex-move local search from a seeded random start, as (PartTuple,
    value).  The result satisfies the unfriendly condition: each vertex has
    at most as many neighbours in its own part as in any other part."""
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
    return part, sum(assign[u] != assign[v] for (u, v) in g.edges())


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
    part-assignment vector.  The branch and bound lists every maximum cut
    up to part labels; the best labels of a leaf give 0 to a part with the
    most internal edges and 1, 2, ... to the others by least vertex.
    Raises TooLargeError past NODE_CAP search nodes."""
    adj = f.adj
    live = [v for v in range(f.n) if adj[v]]  # degree-0 vertices stay in 0
    best = (1,)  # above every (-crossing, -2 * internal of part 0, assignment)

    def leaf(value, assign):
        nonlocal best
        masks = [0] * r
        for v in live:
            masks[assign[v]] |= 1 << v
        inner = [0] * r
        for v in live:
            inner[assign[v]] += (adj[v] & masks[assign[v]]).bit_count()
        top = max(inner)
        for z in (c for c in range(r) if inner[c] == top):
            label = {z: 0}
            a = [0] * f.n
            for v in live:
                a[v] = label.setdefault(assign[v], len(label))
            best = min(best, (-value, -top, a))

    _max_cut_search(f, r, leaf)
    return PartTuple.from_assignment(best[2], r)


# -- minimum transversals of the copy hypergraph -------------------------

@functools.lru_cache(maxsize=1)
def _copy_masks(g, h):
    """Copies of h in g as bitmasks over g's edge list; returns (edges, masks).

    One decision asks for the same (g, h) in several stages, so the last
    result is kept.  Graphs hash by value and the result is made of tuples,
    so another host never hits the cache and no caller can alter it.

    The order of the masks is enumerate_copies' order, and it is
    load-bearing: the MILP's rows follow it, and HiGHS returns another
    witness when its rows are reordered, so reordering the copies changes
    the witness-derived outputs (pif-balanced cut sizes) on some hosts.
    Visiting only orbit leaders kept that order: each copy still enters
    the set first, and in the same turn, at the lex-least embedding with
    its edges.
    """
    edges = tuple(g.edges())
    bit = {e: 1 << i for i, e in enumerate(edges)}.__getitem__
    masks = tuple(sum(map(bit, copy)) for copy in enumerate_copies(h, g))
    return edges, masks


def _without(g, edges, dele):
    """g less the edges whose bits are set in dele, a bitmask over edges
    (g's edge list): g's adjacency rows, copied, with those bits cleared."""
    adj = list(g.adj)
    while dele:
        b = dele & -dele
        dele ^= b
        u, v = edges[b.bit_length() - 1]
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
    f = Graph(g.n)
    f.adj = adj
    return f


def _transversal_search(masks, tau, twins=None):
    """Every deletion set of exactly tau elements hitting every mask if tau
    is the minimum transversal size, the first minimum one alone if tau is
    above it, and [] if tau is below it.

    Branch and bound over the elements (edges).  Each element is undecided,
    kept or deleted; a mask is hit once one of its elements is deleted.  The
    state of a node is a list of copy-index bitsets: cls[s] holds the unhit
    masks with exactly s undecided elements, and inc[e] (built once) holds
    the masks through element e.  Deleting e clears inc[e] from every
    class; keeping e moves the masks of inc[e] down one class.  A mask in
    cls[0] can no longer be hit, so the node dies; the undecided elements
    of the masks in cls[1] are forced deletions.

    The bound is a greedy packing of masks whose undecided elements are
    disjoint, taken fewest undecided elements first, then by index; each
    packed mask blocks the masks through its undecided elements.  The
    packing stops as soon as it proves that every leaf below has more than
    tau elements.  The search branches on the first mask it packs, the
    lowest-index mask with the fewest undecided elements: one child deletes
    each of its undecided elements in turn, keeping those before it.  When
    d deletions plus P packed masks reach tau, the child deleting b is not
    entered if an unhit mask that only the branch mask blocks avoids b:
    every leaf below it deletes b, one element of each other packed mask
    and one more for that mask, d + P + 1 elements in all.

    The same undecided sets are packed at node after node, so the
    complement of the masks through each one is kept for the call.  Every
    key is a subset, of two or more elements, of one mask, so there are at
    most sum(2^|mask|) keys, each valued by a bitset below 2^len(masks):
    K10 with C5 keeps 10,233 keys (bound 96,768) whose values take 4.4 MB,
    K11 with K4 7,615 keys.  Forced deletions are arbitrary unions and are
    not kept.

    Every minimal transversal of at most tau elements is a leaf, leaves
    come in a fixed depth-first order, and the branching never reads tau.
    So the search lists the leaves of tau elements until it meets a smaller
    one.  That leaf becomes the incumbent, the list is dropped and tau
    falls to one below it; every later leaf is smaller again and replaces
    it.  A child is entered only with at most tau deleted elements, and tau
    can fall while a child runs, so the siblings after it are skipped once
    the node's own deletions reach tau.  The last incumbent is a minimum
    transversal, the first one a search at the minimum would list.  A node
    is one set of kept and deleted elements that the search enters: the
    root and each child, except the children after a kept element completes
    a mask and the children rejected at the parent, which are skipped.
    Raises TooLargeError past SOL_CAP listed solutions or NODE_CAP nodes.

    With twins = (ends, mates, good) the search only asks whether a bad
    leaf exists: one below tau elements, or one with good(leaf) false.  It
    returns [the first bad leaf], or [] if there is none.  The elements are
    the edges of a host, ends[e] the two ends of edge e and mates[v] the
    bitmask of v's twins, the vertices u with N(u) - {v} = N(v) - {u}.
    Swapping two twins, or two pairs of twins, is an automorphism of the
    host and so of the masks.  Child j is skipped when one such swap fixes
    the node's kept and deleted sets and maps its element onto an earlier
    sibling's: it maps every leaf below child j onto a leaf of the same
    size below an earlier child, and good must not change under it.  So
    the first child with a bad leaf below it is never skipped.
    """
    width = 0
    for t in masks:
        width |= t
    inc = [0] * width.bit_length()
    for i, t in enumerate(masks):
        while t:
            b = t & -t
            t ^= b
            inc[b.bit_length() - 1] |= 1 << i
    # cls[1] exists even when every mask is empty
    cls = [0] * (max((t.bit_count() for t in masks), default=0) + 2)
    for i, t in enumerate(masks):
        cls[t.bit_count()] |= 1 << i
    size = tau          # the size of the leaves in sols
    sols = []
    nodes = 0
    unblocked = {}      # undecided set of a packed mask -> ~masks through it

    skip = None
    if twins is not None:
        ends, mates, good = twins
        skip = _twin_skip(ends, mates)

    def masks_through(elems):
        out = 0
        while elems:
            b = elems & -elems
            elems ^= b
            out |= inc[b.bit_length() - 1]
        return out

    def rec(cls, kept, dele, d):
        # cls belongs to this call: the caller built it for this child
        nonlocal tau, size, sols, nodes
        nodes += 1
        if nodes > NODE_CAP:
            raise TooLargeError("transversal search node cap")
        if cls[0]:
            return
        one = cls[1]
        if one:
            forced = 0
            while one:
                b = one & -one
                one ^= b
                forced |= masks[b.bit_length() - 1]
            forced &= ~kept
            d += forced.bit_count()
            if d > tau:
                return
            dele |= forced
            unhit = ~masks_through(forced)
            cls = [c & unhit for c in cls]
        room = tau - d
        pick = first = live = 0
        free = rest = -1
        for c in cls[2:]:
            live |= c
            c &= free
            while c:
                low = c & -c
                und = masks[low.bit_length() - 1] & ~kept
                room -= 1
                if room < 0:
                    return
                f = unblocked.get(und)
                if f is None:
                    f = unblocked[und] = ~masks_through(und)
                if pick:
                    rest &= f
                else:
                    pick, first = und, low
                free &= f
                c &= f
        if not pick:
            if twins is not None:
                if d < tau or not good(dele):
                    sols, tau = [dele], -1  # every ancestor returns
                return
            if d < size:
                size, sols, tau = d, [dele], d - 1
                return
            sols.append(dele)
            if len(sols) > SOL_CAP:
                raise TooLargeError("transversal solution cap")
            return
        # the unhit masks that only the branch mask blocks, and the size
        # d + packed masks that every leaf below reaches
        alone = live & rest & ~free & ~first
        least = tau - room
        node_kept = kept
        while pick:
            b = pick & -pick
            pick ^= b
            on_b = inc[b.bit_length() - 1]
            if not (least >= tau and alone & ~on_b
                    or skip and skip(b, kept ^ node_kept, node_kept, dele)):
                unhit = ~on_b
                rec([c & unhit for c in cls], kept, dele | b, d + 1)
            if d >= tau:
                return  # a smaller incumbent leaves no room for a sibling
            kept |= b
            for s in range(1, len(cls)):
                down = cls[s] & on_b
                if down:
                    cls[s] ^= down
                    cls[s - 1] |= down
            if cls[0]:
                return  # every later child keeps a whole mask

    try:
        rec(cls, 0, 0, 0)
    except RecursionError:
        raise TooLargeError("transversal search passed the recursion "
                            "limit") from None
    finally:
        rec = None      # the closure refers to itself; free it with the call
    return sols


def _twin_skip(ends, mates):
    """skip(b, earlier, kept, dele) for _transversal_search: whether a swap
    of two twins, or of two pairs of twins, fixes the edge sets kept and
    dele and maps edge b onto one of the edges in earlier."""
    star = [0] * len(mates)
    for e, (u, v) in enumerate(ends):
        star[u] |= 1 << e
        star[v] |= 1 << e

    def nbrs(v, edge_set):
        out = 0
        edge_set &= star[v]
        while edge_set:
            e = edge_set & -edge_set
            edge_set ^= e
            a, c = ends[e.bit_length() - 1]
            out |= 1 << a | 1 << c
        return out & ~(1 << v)

    def fixes(swaps, kept, dele):
        for p, q in swaps:
            if not mates[p] >> q & 1:
                return False
        for p, q in swaps:
            for edge_set in (kept, dele):
                m = nbrs(p, edge_set)
                for s, t in swaps:
                    if (m >> s ^ m >> t) & 1:
                        m ^= 1 << s | 1 << t
                if m != nbrs(q, edge_set):
                    return False
        return True

    def skip(b, earlier, kept, dele):
        x, y = ends[b.bit_length() - 1]
        while earlier:
            e = earlier & -earlier
            earlier ^= e
            a, c = ends[e.bit_length() - 1]
            if x in (a, c) or y in (a, c):
                # one shared end: swap the other two
                p, q = (y, c + a - x) if x in (a, c) else (x, c + a - y)
                if fixes(((p, q),), kept, dele):
                    return True
            elif (fixes(((x, a), (y, c)), kept, dele)
                  or fixes(((x, c), (y, a)), kept, dele)):
                return True
        return False

    return skip


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
    hypergraph, found by an exact integer program.  Raises ValueError for
    a pattern with no edges: its copies are empty edge sets, which no
    deletion hits, so no subgraph is h-free.
    """
    if not h.edge_count():
        raise ValueError("pattern has no edges, so no subgraph is free of it")
    edges, masks = _copy_masks(g, h)
    if not masks:
        return g.edge_count(), g
    dele = _min_transversal_milp(masks, len(edges))
    witness = _without(g, edges, dele)
    # every copy of h in the witness is a copy in g: each must lose an edge
    if not all(m & dele for m in masks):
        raise AssertionError("witness is not h-free")
    return g.edge_count() - dele.bit_count(), witness


def enumerate_optimal_H_free(g, h, tau):
    """All largest h-free subgraphs of g if tau = e(g) - ex(g, h); the
    first one the transversal search meets, alone, if tau is larger; and
    [] if tau is smaller, since no h-free subgraph has more than ex(g, h)
    edges.  Raises TooLargeError past the search's caps.
    """
    edges, masks = _copy_masks(g, h)
    if not masks:
        return [g] if tau >= 0 else []
    return [_without(g, edges, dele)
            for dele in _transversal_search(masks, tau)]


@functools.lru_cache(maxsize=16)
def _pattern_facts(h):
    """(chi(h), whether h is edge-critical).  A scan decides many hosts
    against one pattern, so each pattern is coloured once."""
    return h.chromatic_number(), is_edge_critical(h)[0]


def free_edge_witness(g, h):
    """Subgraph of edges lying in no h-copy of g, if it is not
    (chi(h) - 1)-colourable; else None.  Such a subgraph certifies a negative
    Simonovits answer: every maximum h-free subgraph contains all free edges."""
    edges, masks = _copy_masks(g, h)
    covered = 0
    for m in masks:
        covered |= m
    r = _pattern_facts(h)[0] - 1
    if covered.bit_count() == len(edges) and (r > 0 or not g.n):
        return None     # no free edge: the edgeless graph is r-colourable
    w = _without(g, edges, covered)
    if w.proper_colouring(r) is None:
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
    r = chi(h) - 1.  Returns a SimonovitsVerdict with certificate.

    The best r-cut is searched under a ceiling, e(g) less a greedy packing
    of edge-disjoint copies of h (_cut_ceiling): the search stops at the
    first cut that reaches it, or does not walk at all when its floor does.
    One transversal search at e(g) - best r-cut lists every optimum when
    ex equals the best cut, and otherwise returns one larger optimum, whose
    size is ex; optima_count is then None.  Only a search stopped by its
    caps falls back to max_H_free's integer program, so a host whose
    minimising search is costly can walk up to NODE_CAP nodes before the
    integer program, which may settle it faster, is tried.

    A host whose every non-isolated vertex v has a twin, a vertex u with
    N(u) - {v} = N(v) - {u}, goes first to _decide_up_to_twins.  It counts
    the distinct crossing sets of the maximum r-cuts, then asks the search
    for a bad optimum (above the best cut, or not r-partite), skipping each
    child that a swap of twins, or of two pairs of twins, maps onto an
    earlier sibling while fixing the node's kept and deleted edges.  With
    no bad optimum the answer is "yes" with that count, since the optima
    are then exactly the maximum cuts' crossing sets.  A bad optimum, or a
    search past NODE_CAP, leaves the host to the listing, so every "no"
    keeps its certificate and optima_count."""
    chi, critical = _pattern_facts(h)
    r = chi - 1
    if not critical and g.proper_colouring(r) is None:
        return SimonovitsVerdict(
            "no", reason="pattern not edge-critical: no host of chromatic "
                         "number >= chi(pattern) has the property")
    w = free_edge_witness(g, h)
    if w is not None:
        return SimonovitsVerdict(
            "no", certificate=w,
            reason="free edges span a non-r-partite subgraph")
    _, best_rp = max_r_cut(g, r, _cut_ceiling(g, h))
    mates = _twin_mates(g)
    if mates is not None:
        v = _decide_up_to_twins(g, h, r, best_rp, mates)
        if v is not None:
            return v
    return _decide_by_listing(g, h, r, best_rp)


def _cut_ceiling(g, h):
    """e(g) - nu, where nu counts the copies of h that a greedy packing
    takes, in copy order, while they share no edge.  Every r-partition,
    r = chi(h) - 1, leaves an edge of each copy inside a part, so no
    r-cut of g crosses more edges.  The copies all have e(h) edges, so
    taking them in order packs as a fewest-edges-first greedy would."""
    _, masks = _copy_masks(g, h)
    packed = 0
    nu = 0
    for m in masks:
        if not m & packed:
            packed |= m
            nu += 1
    return g.edge_count() - nu


def _twin_mates(g):
    """mates[v], the bitmask of v's twins (the vertices u != v with
    N(u) - {v} = N(v) - {u}), if every non-isolated vertex has one; else
    None, returned at the first vertex without one."""
    adj = g.adj
    mates = [0] * g.n
    for v, a in enumerate(adj):
        for u in range(g.n):
            if u != v and adj[u] & ~(1 << v) == a & ~(1 << u):
                mates[v] |= 1 << u
        if a and not mates[v]:
            return None
    return mates


def _decide_up_to_twins(g, h, r, best_rp, mates):
    """The "yes" verdict of is_simonovits' twin route, or None.

    If no optimum has more than best_rp edges or fails to be r-partite,
    the optima are exactly the crossing sets of the maximum r-cuts: an
    r-partite subgraph with best_rp edges is a maximum cut's crossing set,
    and every such set is h-free.  None, for the listing to decide, on a
    bad optimum, past NODE_CAP, or past SOL_CAP crossing sets, where the
    listing stops at its cap.
    """
    adj = g.adj
    crossings = set()
    top = -1

    def leaf(value, assign):
        nonlocal top
        if value > top:
            top = value
            crossings.clear()
        parts = [0] * r
        for v, c in enumerate(assign):
            parts[c] |= 1 << v
        # the crossing graph as one int, its adjacency rows side by side
        crossings.add(sum((a & ~parts[c]) << v * g.n
                          for v, (a, c) in enumerate(zip(adj, assign))))

    edges, masks = _copy_masks(g, h)

    def good(dele):
        return _without(g, edges, dele).proper_colouring(r) is not None

    try:
        _max_cut_search(g, r, leaf)
        if len(crossings) > SOL_CAP or _transversal_search(
                masks, g.edge_count() - best_rp, (edges, mates, good)):
            return None
    except TooLargeError:
        return None
    return SimonovitsVerdict(
        "yes", ex_size=best_rp, best_rpartite=best_rp,
        optima_count=len(crossings), reason="all optima r-partite")


def _decide_by_listing(g, h, r, best_rp):
    """The verdict from the optima that one transversal search lists at
    e(g) - best_rp, or from max_H_free past the search's caps."""
    try:
        # ex >= best_rp, so the search at this size meets an optimum
        optima = enumerate_optimal_H_free(g, h, g.edge_count() - best_rp)
    except TooLargeError as cap:
        ex, witness = max_H_free(g, h)
        if ex == best_rp:
            return SimonovitsVerdict(
                "indeterminate", ex_size=ex, best_rpartite=best_rp,
                reason="optimum enumeration exceeded cap: %s" % cap)
        optima = [witness]
    ex = optima[0].edge_count()
    if ex > best_rp:
        if optima[0].proper_colouring(r) is not None:
            raise AssertionError("optimum claims r-partite below cut bound")
        return SimonovitsVerdict(
            "no", ex_size=ex, best_rpartite=best_rp, certificate=optima[0],
            reason="every optimum exceeds the best r-partite subgraph")
    for f in optima:
        if f.proper_colouring(r) is None:
            return SimonovitsVerdict(
                "no", ex_size=best_rp, best_rpartite=best_rp, certificate=f,
                optima_count=len(optima),
                reason="found a non-r-partite optimum")
    return SimonovitsVerdict(
        "yes", ex_size=best_rp, best_rpartite=best_rp,
        optima_count=len(optima),
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
    terminal = f.induced_in_place(active)
    is_rp = terminal.proper_colouring(r) is not None
    return {"trace": trace, "terminal_vertices": sorted(active),
            "terminal": terminal, "peeled_subgraph": f}, is_rp

