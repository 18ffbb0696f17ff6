"""Core graph types: bitset graphs, vertex partitions, coloured star unions.

Vertices are 0..n-1.  Edges of the complete graph on n vertices are indexed
lexicographically: (u, v) with u < v gets index u*n - u*(u+1)//2 + (v-u-1).
Several modules treat edge sets of K_n as bitmask integers under this indexing.
"""

import itertools
import math


def edge_index(n, u, v):
    """Lexicographic index of the pair {u, v} among all pairs of [n]."""
    if u == v:
        raise ValueError("loops are not allowed")
    if u > v:
        u, v = v, u
    return u * n - u * (u + 1) // 2 + (v - u - 1)


def edge_from_index(n, idx):
    """Inverse of edge_index."""
    u = 0
    row = n - 1
    while idx >= row:
        idx -= row
        u += 1
        row -= 1
    return (u, u + 1 + idx)


def all_pairs(n):
    return itertools.combinations(range(n), 2)


class Graph:
    """Simple undirected graph with bitset adjacency rows.

    Instances are treated as immutable; mutating helpers return new graphs.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n, edges=()):
        self.n = n
        adj = [0] * n
        for (u, v) in edges:
            if u == v:
                raise ValueError("loops are not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError("vertex out of range: (%d, %d)" % (u, v))
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.adj = adj

    # -- basic queries ----------------------------------------------------

    def has_edge(self, u, v):
        return bool(self.adj[u] >> v & 1)

    def degree(self, v):
        return self.adj[v].bit_count()

    def max_degree(self):
        return max((a.bit_count() for a in self.adj), default=0)

    def min_degree(self):
        return min((a.bit_count() for a in self.adj), default=0)

    def neighbours(self, v):
        return bitset_members(self.adj[v])

    def edges(self):
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1) << (u + 1)
            while row:
                b = row & -row
                out.append((u, b.bit_length() - 1))
                row ^= b
        return out

    def edge_count(self):
        return sum(a.bit_count() for a in self.adj) // 2

    def edge_mask(self):
        """All edges as a bitmask under the K_n edge indexing."""
        m = 0
        for (u, v) in self.edges():
            m |= 1 << edge_index(self.n, u, v)
        return m

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, tuple(self.adj)))

    def __repr__(self):
        return "Graph(n=%d, m=%d)" % (self.n, self.edge_count())

    # -- derived graphs ---------------------------------------------------

    def with_edge(self, u, v):
        g = Graph(self.n)
        g.adj = list(self.adj)
        g.adj[u] |= 1 << v
        g.adj[v] |= 1 << u
        return g

    def without_edge(self, u, v):
        g = Graph(self.n)
        g.adj = list(self.adj)
        g.adj[u] &= ~(1 << v)
        g.adj[v] &= ~(1 << u)
        return g

    def edge_subgraph(self, edges):
        """Spanning subgraph with exactly the given edges (must exist here)."""
        for (u, v) in edges:
            if not self.has_edge(u, v):
                raise ValueError("edge (%d, %d) not present" % (u, v))
        return Graph(self.n, edges)

    def from_edge_mask(self, mask):
        """Spanning subgraph of K_n given by an edge bitmask."""
        edges = []
        while mask:
            b = mask & -mask
            edges.append(edge_from_index(self.n, b.bit_length() - 1))
            mask ^= b
        return Graph(self.n, edges)

    def induced(self, vertices):
        """Induced subgraph; vertices are relabelled 0..k-1 in sorted order."""
        vs = sorted(vertices)
        pos = {v: i for i, v in enumerate(vs)}
        edges = [(pos[u], pos[v]) for (u, v) in itertools.combinations(vs, 2)
                 if self.has_edge(u, v)]
        return Graph(len(vs), edges)

    def induced_in_place(self, vertices):
        """Subgraph keeping only edges inside the vertex set, labels unchanged."""
        vset = set(vertices)
        return Graph(self.n, [(u, v) for (u, v) in self.edges()
                              if u in vset and v in vset])

    def union(self, other):
        if other.n != self.n:
            raise ValueError("vertex count mismatch")
        g = Graph(self.n)
        g.adj = [a | b for a, b in zip(self.adj, other.adj)]
        return g

    def difference(self, other):
        if other.n != self.n:
            raise ValueError("vertex count mismatch")
        g = Graph(self.n)
        g.adj = [a & ~b for a, b in zip(self.adj, other.adj)]
        return g

    def is_connected(self):
        if self.n == 0:
            return True
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            while frontier:
                b = frontier & -frontier
                frontier ^= b
                nxt |= self.adj[b.bit_length() - 1]
            frontier = nxt & ~seen
            seen |= nxt
        return seen == (1 << self.n) - 1

    # -- colouring --------------------------------------------------------

    def greedy_colouring(self):
        """Greedy colouring in degree order; returns a list of colours 0..k-1."""
        order = sorted(range(self.n), key=lambda v: -self.degree(v))
        colour = [-1] * self.n
        for v in order:
            used = {colour[w] for w in self.neighbours(v) if colour[w] >= 0}
            c = 0
            while c in used:
                c += 1
            colour[v] = c
        return colour

    def max_clique_greedy(self):
        """Greedy clique, used as a chromatic lower bound."""
        best = 0
        for seed in range(self.n):
            clique = 1 << seed
            cand = self.adj[seed]
            while cand:
                pick = None
                pick_deg = -1
                c = cand
                while c:
                    b = c & -c
                    c ^= b
                    v = b.bit_length() - 1
                    d = (self.adj[v] & cand).bit_count()
                    if d > pick_deg:
                        pick, pick_deg = v, d
                clique |= 1 << pick
                cand &= self.adj[pick]
            best = max(best, clique.bit_count())
        return best

    def is_k_colourable(self, k):
        colour = [-1] * self.n
        order = sorted(range(self.n), key=lambda v: -self.degree(v))

        def rec(i):
            if i == len(order):
                return True
            v = order[i]
            used = {colour[w] for w in self.neighbours(v) if colour[w] >= 0}
            limit = min(k, max((colour[order[j]] for j in range(i)), default=-1) + 2)
            for c in range(limit):
                if c not in used:
                    colour[v] = c
                    if rec(i + 1):
                        return True
                    colour[v] = -1
            return False

        return rec(0)

    def chromatic_number(self):
        if self.edge_count() == 0:
            return 1 if self.n else 0
        lb = self.max_clique_greedy()
        ub = max(self.greedy_colouring()) + 1
        k = lb
        while k < ub and not self.is_k_colourable(k):
            k += 1
        return k

    def proper_colouring(self, k):
        """Some proper colouring with colours 0..k-1, or None."""
        colour = [-1] * self.n
        order = sorted(range(self.n), key=lambda v: -self.degree(v))

        def rec(i):
            if i == len(order):
                return True
            v = order[i]
            used = {colour[w] for w in self.neighbours(v) if colour[w] >= 0}
            for c in range(k):
                if c not in used:
                    colour[v] = c
                    if rec(i + 1):
                        return True
                    colour[v] = -1
            return False

        return colour if rec(0) else None

    def is_bipartite(self):
        colour = [-1] * self.n
        for s in range(self.n):
            if colour[s] >= 0:
                continue
            colour[s] = 0
            stack = [s]
            while stack:
                v = stack.pop()
                for w in self.neighbours(v):
                    if colour[w] < 0:
                        colour[w] = 1 - colour[v]
                        stack.append(w)
                    elif colour[w] == colour[v]:
                        return False
        return True


def bitset_members(mask):
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


# -- file format ---------------------------------------------------------

def parse_graph(text):
    """Parse the plain text format: first line "n m", then m lines "u v"."""
    lines = [ln for ln in (l.strip() for l in text.splitlines())
             if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty graph description")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("header must be 'n m'")
    n, m = int(head[0]), int(head[1])
    if n < 0:
        raise ValueError("negative vertex count %d" % n)
    if len(lines) - 1 != m:
        raise ValueError("expected %d edge lines, got %d" % (m, len(lines) - 1))
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError("bad edge line: %r" % ln)
        edges.append((int(parts[0]), int(parts[1])))
    if len({frozenset(e) for e in edges}) != len(edges):
        raise ValueError("duplicate edge")
    return Graph(n, edges)


def parse_inline(text):
    """Parse the inline format "n:u-v,u-v,..." ("n:" is the edgeless graph)
    by rewriting it into the plain text format."""
    head, _, body = text.partition(":")
    toks = body.split(",") if body.strip() else []
    for tok in toks:
        if tok.count("-") != 1:
            raise ValueError("bad edge token %r" % tok)
    return parse_graph("\n".join(["%s %d" % (head, len(toks))]
                                 + [tok.replace("-", " ") for tok in toks]))


def format_graph(g):
    lines = ["%d %d" % (g.n, g.edge_count())]
    lines += ["%d %d" % e for e in g.edges()]
    return "\n".join(lines) + "\n"


def load_graph(path):
    with open(path) as fh:
        return parse_graph(fh.read())


# -- named constructions -------------------------------------------------

def complete_graph(n):
    return Graph(n, list(all_pairs(n)))


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_multipartite(sizes):
    """Complete multipartite graph; class k holds a block of consecutive labels."""
    bounds = [0]
    for s in sizes:
        bounds.append(bounds[-1] + s)
    n = bounds[-1]
    part = [0] * n
    for k in range(len(sizes)):
        for v in range(bounds[k], bounds[k + 1]):
            part[v] = k
    edges = [(u, v) for (u, v) in all_pairs(n) if part[u] != part[v]]
    return Graph(n, edges)


def blowup_plus(r, m):
    """Complete r-partite graph with classes of size m plus one edge inside
    the first class."""
    if m < 2:
        raise ValueError("need class size at least 2")
    g = complete_multipartite([m] * r)
    return g.with_edge(0, 1)


def disjoint_union(g1, g2):
    edges = g1.edges() + [(u + g1.n, v + g1.n) for (u, v) in g2.edges()]
    return Graph(g1.n + g2.n, edges)


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


NAMED_GRAPHS = {
    "triangle": lambda: complete_graph(3),
    "c5": lambda: cycle_graph(5),
    "k4": lambda: complete_graph(4),
    "k5": lambda: complete_graph(5),
    "petersen": petersen_graph,
}


def named_graph(name):
    try:
        return NAMED_GRAPHS[name]()
    except KeyError:
        raise ValueError("unknown graph name %r (known: %s)"
                         % (name, ", ".join(sorted(NAMED_GRAPHS))))


def graph_from_spec(text_or_name):
    """Resolve a named graph, a file path, or an inline description."""
    if text_or_name in NAMED_GRAPHS:
        return NAMED_GRAPHS[text_or_name]()
    import os
    if os.path.exists(text_or_name):
        return load_graph(text_or_name)
    if ":" in text_or_name:
        return parse_inline(text_or_name)
    return parse_graph(text_or_name)


# -- partitions ----------------------------------------------------------

class PartTuple:
    """Ordered tuple of disjoint vertex classes covering a subset of [n]."""

    __slots__ = ("n", "parts")

    def __init__(self, n, parts):
        self.n = n
        self.parts = tuple(frozenset(p) for p in parts)
        seen = set()
        for p in self.parts:
            for v in p:
                if not 0 <= v < n:
                    raise ValueError("vertex out of range")
                if v in seen:
                    raise ValueError("parts are not disjoint")
                seen.add(v)

    @classmethod
    def from_assignment(cls, assignment, r=None):
        """Build from a vertex -> part index list; -1 leaves a vertex out."""
        if r is None:
            r = max(assignment) + 1
        parts = [set() for _ in range(r)]
        for v, k in enumerate(assignment):
            if k >= 0:
                parts[k].add(v)
        return cls(len(assignment), parts)

    def assignment(self):
        out = [-1] * self.n
        for k, p in enumerate(self.parts):
            for v in p:
                out[v] = k
        return out

    def r(self):
        return len(self.parts)

    def is_complete(self):
        return sum(len(p) for p in self.parts) == self.n

    def ext_mask(self):
        """Bitmask of crossing pairs of K_n (pairs spanning two distinct parts)."""
        m = 0
        for (pa, pb) in itertools.combinations(self.parts, 2):
            for u in pa:
                for v in pb:
                    m |= 1 << edge_index(self.n, u, v)
        return m

    def int_mask(self):
        """Bitmask of internal pairs of K_n (both ends in one part)."""
        m = 0
        for p in self.parts:
            for (u, v) in itertools.combinations(sorted(p), 2):
                m |= 1 << edge_index(self.n, u, v)
        return m

    def crosses(self, u, v):
        a = b = -1
        for k, p in enumerate(self.parts):
            if u in p:
                a = k
            if v in p:
                b = k
        return a >= 0 and b >= 0 and a != b

    def canonical(self):
        """Unordered canonical form: parts sorted by their sorted member lists."""
        return tuple(sorted(tuple(sorted(p)) for p in self.parts))

    def __eq__(self, other):
        return (isinstance(other, PartTuple) and self.n == other.n
                and self.parts == other.parts)

    def __hash__(self):
        return hash((self.n, self.parts))

    def __repr__(self):
        return "PartTuple(n=%d, sizes=%s)" % (
            self.n, tuple(len(p) for p in self.parts))


def ext_int(g, partition):
    """Split the edges of g into (crossing, internal) subgraphs for a partition.

    Edges with an endpoint outside the partition's support count as neither and
    are dropped from both.
    """
    assign = partition.assignment()
    ext_edges, int_edges = [], []
    for (u, v) in g.edges():
        if assign[u] < 0 or assign[v] < 0:
            continue
        (ext_edges if assign[u] != assign[v] else int_edges).append((u, v))
    return Graph(g.n, ext_edges), Graph(g.n, int_edges)


def is_delta_balanced(partition, delta, n=None):
    """Every part size within a (1 +- delta) factor of n/r."""
    if n is None:
        n = partition.n
    r = partition.r()
    lo = (1 - delta) * n / r
    hi = (1 + delta) * n / r
    return all(lo <= len(p) <= hi for p in partition.parts)


# -- coloured graphs -----------------------------------------------------

class ColoredGraph:
    """Graph together with a vertex colouring (1..r, 0 = uncoloured) and an
    optional set of centre vertices.  Used for the star union structures."""

    __slots__ = ("graph", "colour", "centres")

    def __init__(self, graph, colour, centres=()):
        if len(colour) != graph.n:
            raise ValueError("colour list length mismatch")
        self.graph = graph
        self.colour = tuple(colour)
        self.centres = frozenset(centres)
        for c in self.centres:
            if not 0 <= c < graph.n:
                raise ValueError("centre out of range")

    def colour_class(self, k):
        return frozenset(v for v in range(self.graph.n) if self.colour[v] == k)

    def class_neighbours(self, v, k):
        """Neighbours of v carrying colour k."""
        return frozenset(w for w in self.graph.neighbours(v)
                         if self.colour[w] == k)

    def support(self):
        return frozenset(v for v in range(self.graph.n)
                         if self.colour[v] or self.graph.degree(v))

    def edge_count(self):
        return self.graph.edge_count()

    def k(self):
        return len(self.centres)

    def __repr__(self):
        return "ColoredGraph(n=%d, m=%d, centres=%d)" % (
            self.graph.n, self.graph.edge_count(), len(self.centres))
