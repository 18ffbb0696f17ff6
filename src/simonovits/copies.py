"""Pattern copies and edge-set hypergraphs.

A "copy" of a pattern graph h inside a host is a subgraph isomorphic to h,
recorded as its set of edges.  Families of copies (or of their residuals
after removing the edges of a fixed structure Q) are hypergraphs over the
edges of K_n, each member an int bitmask under graph.edge_index, the form
graphs and cuts use for their edge sets.  A family is a plain list of
distinct masks in the order canonical_family gives; the helpers take any
iterable of bitmasks.
"""

import functools
import itertools
from collections import Counter
from fractions import Fraction

from .graph import Graph, TooLargeError, bitset_members, pair_mask

EMBED_CAP = 2_000_000       # embeddings the "high" residual family may visit


# -- embeddings and copies -----------------------------------------------

def _embedding_order(h):
    """Order pattern vertices so each one touches an earlier one if possible."""
    order = []
    placed = set()
    verts = sorted(range(h.n), key=lambda v: -h.degree(v))
    for start in verts:
        if start in placed:
            continue
        order.append(start)
        placed.add(start)
        while True:
            nxt = None
            best = -1
            for v in range(h.n):
                if v in placed:
                    continue
                back = sum(1 for w in h.neighbours(v) if w in placed)
                if back > best and back > 0:
                    nxt, best = v, back
            if nxt is None:
                break
            order.append(nxt)
            placed.add(nxt)
    return order


def embeddings(h, host, fixed=None):
    """All injective maps V(h) -> V(host) sending edges of h to host edges.

    fixed: optional dict {pattern vertex: iterable of allowed host vertices}.
    Yields image tuples indexed by pattern vertex.
    """
    order = _embedding_order(h)
    back = []
    for i, v in enumerate(order):
        back.append([order.index(w) for w in h.neighbours(v) if w in order[:i]])
    full = (1 << host.n) - 1
    image = [0] * h.n
    used = 0

    def allowed(v):
        if fixed and v in fixed:
            m = 0
            for x in fixed[v]:
                m |= 1 << x
            return m
        return full

    def rec(i):
        nonlocal used
        if i == len(order):
            yield tuple(image)
            return
        v = order[i]
        cand = allowed(v) & ~used
        for j in back[i]:
            cand &= host.adj[image[order[j]]]
        while cand:
            b = cand & -cand
            cand ^= b
            x = b.bit_length() - 1
            image[v] = x
            used |= b
            yield from rec(i + 1)
            used ^= b

    try:
        yield from rec(0)
    finally:
        rec = None      # the closure refers to itself; free it with the call


def count_embeddings(h, host, fixed=None):
    return sum(1 for _ in embeddings(h, host, fixed))


def automorphism_count(h):
    """Number of edge-preserving bijections of h (no isolated-vertex patterns)."""
    if h.min_degree() == 0 and h.n > 1:
        raise ValueError("pattern has an isolated vertex")
    return count_embeddings(h, h)


@functools.lru_cache(maxsize=16)
def _leader_plan(h):
    """(order, back, above) for enumerate_copies, once per pattern: the
    order b_0, b_1, ... of _embedding_order, the earlier neighbours of each
    b_i, and for each b_j the earlier b_i whose image must lie below its
    own.  Those are the b_i with b_j in O_i, the orbit of b_i under the
    automorphisms fixing b_0..b_{i-1}, which can only move b_i later.  One
    search per b_j finds such an automorphism, so Aut(h) is never listed.
    """
    order = _embedding_order(h)
    back = [tuple(w for w in h.neighbours(v) if w in order[:i])
            for i, v in enumerate(order)]
    above = [[] for _ in order]
    fixed = {}
    for i, v in enumerate(order):
        for j in range(i + 1, len(order)):
            fixed[v] = (order[j],)
            if next(embeddings(h, h, fixed), None) is not None:
                above[j].append(v)
        fixed[v] = (v,)
    return order, back, [tuple(a) for a in above]


def enumerate_copies(h, host):
    """All subgraphs of host isomorphic to h, each as a frozenset of
    (u, v) edge pairs with u < v, in the iteration order of the deduping
    set: fixed for a CPython build, and followed by the optimum listing's
    branching and the first non-r-partite certificate.

    Embeddings are visited depth first, images ascending in
    _embedding_order's vertex order, and only the lex-least one in each
    Aut(h) orbit, the orbit leader, is kept: for each i, b_i's image is
    below the images of its orbit under the automorphisms fixing
    b_0..b_{i-1} (_leader_plan).  The order is the one a walk over every
    embedding gives.  That walk first meets each copy at the lex-least
    embedding with its edge set, which is a leader, and the leaders come
    in the same order; a set's order depends only on which distinct
    elements went in and in what order.  Without isolated vertices each
    copy has one leader; with them the set drops the extra ones."""
    if h.n > host.n:
        return []
    if not h.n:
        return [frozenset()]
    order, back, above = _leader_plan(h)
    edges = h.edges()
    adj = host.adj
    image = [0] * h.n
    last = len(order) - 1
    seen = set()

    def rec(i, free):
        v = order[i]
        cand = free
        for w in back[i]:
            cand &= adj[image[w]]
        for w in above[i]:
            cand &= -2 << image[w]
        while cand:
            b = cand & -cand
            cand ^= b
            image[v] = b.bit_length() - 1
            if i < last:
                rec(i + 1, free ^ b)
            else:
                seen.add(frozenset([(image[u], image[w])
                                    if image[u] < image[w]
                                    else (image[w], image[u])
                                    for (u, w) in edges]))

    rec(0, (1 << host.n) - 1)
    rec = None      # the closure refers to itself; free it with the call
    return list(seen)


def count_copies(h, host):
    aut = automorphism_count(h)
    total = count_embeddings(h, host)
    if total % aut:
        raise AssertionError("embedding count not divisible by |Aut|")
    return total // aut


# -- copy hypergraphs ----------------------------------------------------

def canonical_family(masks):
    """The distinct bitmasks, sorted by their member lists: the one order
    every copy family is kept in."""
    return sorted(set(masks), key=bitset_members)


def copies_as_hypergraph(h, host):
    """Copies of h in host as a family of K_n edge bitmasks."""
    return canonical_family(pair_mask(host.n, copy)
                            for copy in enumerate_copies(h, host))


# -- generic set-family operations ---------------------------------------
# Members are int bitmasks; an element is a bit position.

def induce(family, ground):
    """Members inside the ground bitmask."""
    return [a for a in family if not a & ~ground]


def link(family, element):
    """Nonempty sets A - {element} for members A containing the element."""
    bit = 1 << element
    return canonical_family(a ^ bit for a in family if a & bit and a != bit)


def boundary(family):
    """Nonempty sets obtainable by dropping one element from a member."""
    return canonical_family(a & ~(1 << x) for a in family
                            for x in bitset_members(a) if a != 1 << x)


def subset_counts(members, j):
    """How many members contain each j-subset; members are sorted element
    sequences and the keys sorted tuples."""
    cnt = Counter()
    for a in members:
        cnt.update(itertools.combinations(a, j))
    return cnt


# -- residual families ---------------------------------------------------

def critical_edge_and_anchor(h):
    """Canonical critical edge f (removing it lowers the chromatic number)
    and anchor endpoint: the endpoint of smallest degree, ties by label."""
    from .patterns import is_edge_critical  # patterns imports this module
    crit = is_edge_critical(h)[1]
    if not crit:
        raise ValueError("pattern has no critical edge")
    u, v = crit[0]
    return (u, v), min((h.degree(u), u), (h.degree(v), v))[1]


@functools.lru_cache(maxsize=16)
def _edge_orbit_leaders(h):
    """One oriented edge (x, y) of h per orbit of Aut(h) on oriented edges,
    once per pattern.  Every copy of h through a pair {a, b} has an
    embedding sending x to a and y to b for some leader (x, y): whichever
    oriented edge an embedding sends onto (a, b), composing it with an
    automorphism moves that edge to its orbit's leader.  (x', y') is in the
    orbit of (x, y) when an h -> h embedding sends x to x' and y to y'."""
    leaders = []
    for (u, v) in h.edges():
        for (x, y) in ((u, v), (v, u)):
            if all(next(embeddings(h, h, {a: (x,), b: (y,)}), None) is None
                   for (a, b) in leaders):
                leaders.append((x, y))
    return tuple(leaders)


def residual_family(h, q, n, variant="low"):
    """Residuals A - E(Q) of copies A of h in K_n meeting the structure q.

    variant "low":  copies sharing exactly one edge with q whose vertex set
                    spans exactly one q-edge; each residual has a unique
                    completion back to a copy.  Only the copies through q
                    are listed: one oriented pattern edge per Aut(h) orbit
                    (_edge_orbit_leaders) is anchored on each q-edge, so
                    each copy through a q-edge is met once per automorphism
                    fixing that oriented edge, and kept once.
    variant "high": q must be a ColoredGraph with centres; copies place the
                    anchor of a critical edge on a centre v, its neighbours
                    into v's colour classes following a fixed proper
                    colouring, and all other vertices outside the centres;
                    raises TooLargeError past EMBED_CAP embeddings.

    Returns the canonical family of the nonempty residuals.
    """
    from .graph import ColoredGraph
    qg = q.graph if isinstance(q, ColoredGraph) else q
    if qg.n != n:
        raise ValueError("structure has wrong vertex count")
    q_edges = qg.edges()
    q_mask = qg.edge_mask()
    host = Graph(n, list(itertools.combinations(range(n), 2)))
    h_edges = h.edges()
    kept = []               # copies as K_n edge bitmasks

    def copy_of(img):
        return pair_mask(n, ((img[u], img[v]) for (u, v) in h_edges))

    if variant == "low":
        found = {}              # copy -> bitmask of its vertices
        for (a, b) in q_edges:
            for (x, y) in _edge_orbit_leaders(h):
                for img in embeddings(h, host, {x: [a], y: [b]}):
                    found[copy_of(img)] = sum(
                        1 << img[u] for u in range(h.n) if h.adj[u])
        for copy, vs in found.items():
            if (copy & q_mask).bit_count() != 1:
                continue
            spanned = sum(1 for (u, v) in q_edges if vs >> u & vs >> v & 1)
            if spanned == 1:
                kept.append(copy)
    elif variant == "high":
        if not isinstance(q, ColoredGraph) or not q.centres:
            raise ValueError("variant 'high' needs a ColoredGraph with centres")
        f, anchor = critical_edge_and_anchor(h)
        r = h.chromatic_number() - 1
        hf = h.without_edge(*f)
        phi = hf.proper_colouring(r)
        if phi is None:
            raise AssertionError("critical edge did not lower the colour count")
        # normalise so the anchor gets colour 0 (reported as class 1)
        if phi[anchor] != 0:
            a = phi[anchor]
            phi = [0 if c == a else a if c == 0 else c for c in phi]
        outside = [v for v in range(n) if v not in q.centres]
        count = 0
        star_nbrs = hf.neighbours(anchor)   # critical-edge partner excluded
        for centre in sorted(q.centres):
            fixed = {anchor: [centre]}
            for u in star_nbrs:
                fixed[u] = sorted(q.class_neighbours(centre, phi[u] + 1))
            rest = [v for v in range(h.n)
                    if v != anchor and v not in star_nbrs]
            for v in rest:
                fixed[v] = outside
            for img in embeddings(h, host, fixed):
                count += 1
                if count > EMBED_CAP:
                    raise TooLargeError("embedding cap exceeded")
                kept.append(copy_of(img))
    else:
        raise ValueError("unknown variant %r" % variant)

    return canonical_family(c & ~q_mask for c in kept if c & ~q_mask)


def janson_moments(family, p, exact=False):
    """First and second Janson moments of a family under p-thinning.

    mu = sum over members of p^|A|.  Delta = sum over unordered pairs of
    distinct intersecting members of p^|A u B|.  Returns {"mu", "delta"}.
    """
    fam = canonical_family(family)
    elems = [bitset_members(a) for a in fam]
    num = Fraction if exact else float
    pv = num(p)
    mu = sum(pv ** a.bit_count() for a in fam)
    # group members by shared element to find intersecting pairs
    by_elem = {}
    for idx, a in enumerate(elems):
        for x in a:
            by_elem.setdefault(x, []).append(idx)
    pairs = set()
    for idxs in by_elem.values():
        for i, j in itertools.combinations(idxs, 2):
            pairs.add((i, j))
    # pairs counted per union size and added smallest size first, so a
    # float Delta does not depend on the set's layout
    unions = Counter((fam[i] | fam[j]).bit_count() for (i, j) in pairs)
    delta = sum(c * pv ** k for k, c in sorted(unions.items()))
    return {"mu": mu, "delta": delta}
