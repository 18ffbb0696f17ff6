"""Core graph types: bitset graphs, vertex partitions, coloured star unions.

Vertices are 0..n-1.  Edges of the complete graph on n vertices are indexed
lexicographically: (u, v) with u < v gets index u*n - u*(u+1)//2 + (v-u-1).
Several modules treat edge sets of K_n as bitmask integers under this indexing.
"""

import itertools


class TooLargeError(Exception):
    """A search or family passed its size budget; the CLI exits 5."""


def edge_index(n, u, v):
    """Lexicographic index of the pair {u, v} among all pairs of [n]."""
    if u == v:
        raise ValueError("loops are not allowed")
    if u > v:
        u, v = v, u
    return u * n - u * (u + 1) // 2 + (v - u - 1)


def pair_mask(n, pairs):
    """Bitmask of the pairs {u, v} of [n] under the K_n edge indexing."""
    m = 0
    for (u, v) in pairs:
        m |= 1 << edge_index(n, u, v)
    return m


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
        """All edges as a bitmask under the K_n edge indexing: the pairs
        (u, v > u) are bits offset(u) + v-u-1, so each row's bits above u
        shift into place as one block."""
        n = self.n
        m = 0
        for u, row in enumerate(self.adj):
            m |= row >> (u + 1) << (u * n - u * (u + 1) // 2)
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

    # -- colouring --------------------------------------------------------

    def chromatic_number(self):
        """The least k for which proper_colouring(k) succeeds."""
        k = 0
        while self.proper_colouring(k) is None:
            k += 1
        return k

    def proper_colouring(self, k):
        """Some proper colouring with colours 0..k-1, or None.

        Vertices are coloured in degree order, ties by label, each taking
        the lowest colour whose class holds none of its neighbours and
        trying colours only up to one above the highest used so far: unused
        colours are interchangeable, so this prunes symmetric branches
        without changing the first colouring found.  Each colour class is
        kept as a vertex bitmask, and the search backtracks with an explicit
        depth, so a host of any size needs no recursion.
        """
        n = self.n
        adj = self.adj
        order = sorted(range(n), key=lambda v: -adj[v].bit_count())
        colour = [-1] * n
        part = [0] * k
        # top[i]: the highest colour used by order[:i]
        top = [-1] * (n + 1)
        i = c = 0       # c: the next colour to try at depth i
        while i < n:
            v = order[i]
            a = adj[v]
            stop = min(k, top[i] + 2)
            while c < stop and a & part[c]:
                c += 1
            if c < stop:
                colour[v] = c
                part[c] |= 1 << v
                top[i + 1] = max(top[i], c)
                i += 1
                c = 0
                continue
            i -= 1
            if i < 0:
                return None
            v = order[i]
            c = colour[v]
            part[c] ^= 1 << v
            colour[v] = -1
            c += 1
        return colour


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
    """Resolve a named graph, a file path, or an inline description.  A
    bare word that names no graph and no file is an unknown name."""
    import os
    if text_or_name not in NAMED_GRAPHS and os.path.exists(text_or_name):
        return load_graph(text_or_name)
    if ":" in text_or_name:
        return parse_inline(text_or_name)
    if text_or_name.isidentifier():
        return named_graph(text_or_name)
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

    def ext_mask(self):
        """Bitmask of crossing pairs of K_n (pairs spanning two distinct parts)."""
        return pair_mask(self.n, ((u, v) for (pa, pb) in
                                  itertools.combinations(self.parts, 2)
                                  for u in pa for v in pb))

    def int_mask(self):
        """Bitmask of internal pairs of K_n (both ends in one part)."""
        return pair_mask(self.n, (e for p in self.parts
                                  for e in itertools.combinations(p, 2)))

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


def is_delta_balanced(partition, delta):
    """Every part size within a (1 +- delta) factor of n/r."""
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

    def class_neighbours(self, v, k):
        """Neighbours of v carrying colour k."""
        return frozenset(w for w in self.graph.neighbours(v)
                         if self.colour[w] == k)

    def edge_count(self):
        return self.graph.edge_count()

    def k(self):
        return len(self.centres)

    def __repr__(self):
        return "ColoredGraph(n=%d, m=%d, centres=%d)" % (
            self.graph.n, self.graph.edge_count(), len(self.centres))
