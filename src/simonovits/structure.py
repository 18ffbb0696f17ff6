"""Constructive gadgets: edge colouring, degree-bounded subgraphs, the
two-case construction of the coloured structure Q from a cut, and the
sequential neighbourhood hypergraph."""

import itertools
import math

from .graph import Graph, ColoredGraph, TooLargeError
from .copies import subset_counts
from .bounds import PAPER_DEFAULTS, upper_tail_rho


class ConstructionInfeasible(Exception):
    """Raised when a finite-size instance cannot satisfy a construction's
    exact cardinality requirements."""


# -- edge colouring ------------------------------------------------------

def vizing_color(g):
    """Proper edge colouring with at most maxdeg+1 colours (fan/rotation
    method).  Returns {(u, v): colour} with colours 1..maxdeg+1,
    deterministic in the edge order."""
    delta = g.max_degree()
    ncol = delta + 1
    colour = {}            # frozenset edge -> colour
    at = [dict() for _ in range(g.n)]   # vertex -> {colour: other end}

    def free(x):
        for c in range(1, ncol + 1):
            if c not in at[x]:
                return c
        raise AssertionError("no free colour")

    def set_colour(u, v, c):
        old = colour.get(frozenset((u, v)))
        if old is not None:
            del at[u][old]
            del at[v][old]
        colour[frozenset((u, v))] = c
        at[u][c] = v
        at[v][c] = u

    def unset(u, v):
        old = colour.pop(frozenset((u, v)), None)
        if old is not None:
            del at[u][old]
            del at[v][old]

    def rotate(u, fan, j, final):
        # shift colours down the fan prefix, then close with final; edges are
        # cleared first so at[u] never holds two ends for one colour
        shift = [colour[frozenset((u, fan[i + 1]))] for i in range(j)]
        for i in range(j):
            unset(u, fan[i + 1])
        for i in range(j):
            set_colour(u, fan[i], shift[i])
        set_colour(u, fan[j], final)

    for (u, v) in g.edges():
        # maximal fan of u starting at v
        fan = [v]
        used = {v}
        while True:
            last = fan[-1]
            c = free(last)
            w = at[u].get(c)
            if w is None or w in used:
                break
            fan.append(w)
            used.add(w)
        c = free(u)
        d = free(fan[-1])
        if d not in at[u]:
            rotate(u, fan, len(fan) - 1, d)
            continue
        # invert the cd-path through u (its u-edge has colour d)
        path = [u]
        col = d
        while col in at[path[-1]]:
            path.append(at[path[-1]][col])
            col = c if col == d else d
        for i in range(len(path) - 1):
            unset(path[i], path[i + 1])
        col = c
        for i in range(len(path) - 1):
            set_colour(path[i], path[i + 1], col)
            col = c if col == d else d
        # d is now free on u; rotate the longest fan prefix that is still a
        # fan after the inversion and ends at a vertex with d free
        j = None
        for idx, w in enumerate(fan):
            if idx > 0:
                ce = colour.get(frozenset((u, w)))
                if ce is None or ce in at[fan[idx - 1]]:
                    break
            if d not in at[w]:
                j = idx
                break
        if j is None:
            raise AssertionError("no fan vertex freed")
        rotate(u, fan, j, d)

    out = {}
    for (u, v) in g.edges():
        out[(u, v)] = colour[frozenset((u, v))]
    return out


def check_edge_colouring(g, colouring):
    """Proper and within maxdeg+1 colours."""
    if set(map(frozenset, colouring)) != set(map(frozenset, g.edges())):
        return False
    if colouring and max(colouring.values()) > g.max_degree() + 1:
        return False
    for v in range(g.n):
        seen = set()
        for (a, b), c in colouring.items():
            if v in (a, b):
                if c in seen:
                    return False
                seen.add(c)
    return True


def bounded_degree_subgraph(i, d):
    """Subgraph Q of i with maxdeg(Q) = d and e(Q) >= d/(maxdeg(i)+1)*e(i).

    Takes the d largest colour classes of a proper edge colouring, then
    greedily adds edges while no degree exceeds d.
    """
    delta = i.max_degree()
    if not 1 <= d <= delta:
        raise ValueError("need 1 <= d <= maxdeg")
    colouring = vizing_color(i)
    classes = {}
    for e, c in colouring.items():
        classes.setdefault(c, []).append(e)
    by_size = sorted(classes.values(), key=len, reverse=True)
    edges = [e for cls in by_size[:d] for e in cls]
    deg = [0] * i.n
    chosen = set()
    for (u, v) in edges:
        deg[u] += 1
        deg[v] += 1
        chosen.add((u, v))
    for (u, v) in i.edges():
        if (u, v) in chosen:
            continue
        if deg[u] < d and deg[v] < d:
            chosen.add((u, v))
            deg[u] += 1
            deg[v] += 1
    q = Graph(i.n, sorted(chosen))
    if q.max_degree() != d:
        raise AssertionError("degree target missed")
    if q.edge_count() * (delta + 1) < d * i.edge_count():
        raise AssertionError("size guarantee missed")
    return q


# -- the structure Q -----------------------------------------------------

class QFamily:
    """Coloured structure produced from a cut, with its class and stats."""

    __slots__ = ("q", "kind", "case_tag", "stats")

    def __init__(self, q, kind, case_tag, stats):
        self.q = q
        self.kind = kind        # QL1 | QL2 | QH
        self.case_tag = case_tag  # Q1 | Q2 | Q3 | empty
        self.stats = stats

    def __repr__(self):
        return "QFamily(kind=%s, case=%s, e=%d, k=%d)" % (
            self.kind, self.case_tag, self.q.edge_count(), self.q.k())


def _max_bounded_subgraph(i, cap, exact_limit=24):
    """Largest subgraph with maximum degree <= cap.  Exact branch and bound
    for small edge counts, greedy peeling beyond."""
    edges = i.edges()
    m = len(edges)
    if all(i.degree(v) <= cap for v in range(i.n)):
        return i, "exact"
    if m <= exact_limit:
        best = [-1, 0]

        def rec(idx, deg, kept, cnt):
            if cnt + (m - idx) <= best[0]:
                return
            if idx == m:
                if cnt > best[0]:
                    best[0] = cnt
                    best[1] = kept
                return
            (u, v) = edges[idx]
            if deg[u] < cap and deg[v] < cap:
                deg[u] += 1
                deg[v] += 1
                rec(idx + 1, deg, kept | (1 << idx), cnt + 1)
                deg[u] -= 1
                deg[v] -= 1
            rec(idx + 1, deg, kept, cnt)

        rec(0, [0] * i.n, 0, 0)
        rec = None      # the closure refers to itself; free it with the call
        keep = [e for k, e in enumerate(edges) if best[1] >> k & 1]
        return Graph(i.n, keep), "exact"
    # greedy peel: drop edges at over-cap vertices, heaviest endpoints first
    g = i
    while g.max_degree() > cap:
        v = max(range(g.n), key=g.degree)
        w = max(g.neighbours(v), key=g.degree)
        g = g.without_edge(v, w)
    return g, "greedy"


def construct_QF(f, cut, p):
    """Build the coloured structure Q from a graph f and a canonical cut.

    Case 1 (low-degree part dominates): the largest subgraph of the first
    part's internal edges with degree cap 2*ceil(eta*n*p) is returned
    directly when its degree fits under kappa*n*p/log n, else trimmed with
    bounded_degree_subgraph.  Case 2: high-degree vertices Y, their edges,
    a largest 2-cut, and a star union padded so each centre has exactly
    ceil(eta*n*p) neighbours in every colour class.
    """
    eta, kappa = PAPER_DEFAULTS.eta, PAPER_DEFAULTS.kappa
    n = f.n
    r = cut.r()
    logn = math.log(n)
    eta_np = math.ceil(eta * n * p)
    d_thresh = kappa * n * p / logn
    assign = cut.assignment()
    part1 = sorted(cut.parts[0])
    i_graph = f.induced_in_place(part1)
    e_i = i_graph.edge_count()
    stats = {"n": n, "p": p, "e_I": e_i, "eta_np": eta_np,
             "d_thresh": d_thresh}

    def finish_ql(q, case_tag):
        colour = [1 if q.degree(v) > 0 else 0 for v in range(n)]
        cg = ColoredGraph(q, colour)
        eq = q.edge_count()
        kind = "QL1" if eq < d_thresh else "QL2"
        stats.update({"e_Q": eq, "max_deg_Q": q.max_degree(), "k_Q": 0})
        return QFamily(cg, kind, case_tag, stats)

    if e_i == 0:
        return finish_ql(Graph(n), "empty")

    cap = 2 * eta_np
    i_low, method = _max_bounded_subgraph(i_graph, cap)
    stats["low_part_method"] = method
    if 2 * i_low.edge_count() >= e_i:
        # Case 1
        if i_low.max_degree() <= d_thresh:
            qf = finish_ql(i_low, "Q1")
            if 2 * qf.q.edge_count() < e_i:
                raise AssertionError("case 1 size guarantee missed")
            return qf
        d = max(1, math.floor(d_thresh))
        if d > i_low.max_degree():
            d = i_low.max_degree()
        q = bounded_degree_subgraph(i_low, d)
        if q.max_degree() > d_thresh:
            raise ConstructionInfeasible(
                "degree cap %d exceeds kappa*n*p/log n = %.3f" % (d, d_thresh))
        need = max(d_thresh, kappa / (4 * eta * logn) * e_i)
        if q.edge_count() < need:
            raise ConstructionInfeasible(
                "trimmed structure too small: e=%d < %.3f" %
                (q.edge_count(), need))
        return finish_ql(q, "Q2")

    # Case 2: star union around high-degree vertices
    y = {v for v in part1 if i_graph.degree(v) > cap}
    tilde = Graph(n, [(u, v) for (u, v) in i_graph.edges()
                      if u in y or v in y])
    support = [v for v in range(n) if tilde.degree(v) > 0]
    from .solvers import max_r_cut, local_max_cut
    sub = tilde.induced(support)
    try:
        part, _ = max_r_cut(sub, 2)
    except TooLargeError:
        part, _ = local_max_cut(sub, 2, seed=0)
    sub_assign = part.assignment()
    side = {support[i]: sub_assign[i] for i in range(len(support))}
    best_side = None
    for j in (0, 1):
        centres = [v for v in support if side[v] == j and v in y]
        star_edges = [(u, v) for (u, v) in tilde.edges()
                      if side.get(u, -1) != side.get(v, -1)
                      and ((u in y and side[u] == j) or
                           (v in y and side[v] == j))]
        if best_side is None or len(star_edges) > len(best_side[1]):
            best_side = (centres, star_edges, j)
    centres, star_edges, j_side = best_side
    # keep only stars anchored at this side's centres
    star_of = {v: [] for v in centres}
    for (u, v) in star_edges:
        c = u if (u in y and side[u] == j_side) else v
        w = v if c == u else u
        if c in star_of:
            star_of[c].append(w)
    # pad each centre to exactly eta_np neighbours in every colour class
    edges = []
    colour = [0] * n
    kept_centres = []
    centre_set = set(star_of)
    for c in sorted(star_of):
        class_nbrs = {}
        # class 1: star neighbours (inside the first part), topped from
        # other f-neighbours of c in the first part; never another centre,
        # to keep the centre set independent
        pool1 = sorted(star_of[c]) + [w for w in sorted(f.neighbours(c))
                                      if assign[w] == 0
                                      and w not in star_of[c] and w != c]
        pool1 = [w for w in pool1 if w not in centre_set]
        class_nbrs[1] = pool1[:eta_np]
        ok = len(class_nbrs[1]) == eta_np
        for k in range(2, r + 1):
            pool = [w for w in sorted(f.neighbours(c))
                    if assign[w] == k - 1 and w not in centre_set]
            class_nbrs[k] = pool[:eta_np]
            ok = ok and len(class_nbrs[k]) == eta_np
        if not ok:
            raise ConstructionInfeasible(
                "centre %d lacks %d neighbours in some class" % (c, eta_np))
        kept_centres.append(c)
        colour[c] = 1
        for k, nbrs in class_nbrs.items():
            for w in nbrs:
                colour[w] = k
                edges.append((c, w))
    q = Graph(n, sorted(set(tuple(sorted(e)) for e in edges)))
    cg = ColoredGraph(q, colour, kept_centres)
    k_q = len(kept_centres)
    need_k = e_i / (16 * max(1, f.max_degree()))
    if k_q < need_k:
        raise ConstructionInfeasible(
            "too few centres: %d < %.3f" % (k_q, need_k))
    stats.update({"e_Q": q.edge_count(), "max_deg_Q": q.max_degree(),
                  "k_Q": k_q, "Y_size": len(y)})
    return QFamily(cg, "QH", "Q3", stats)


# -- neighbourhood hypergraph --------------------------------------------

class VertexHypergraph:
    """Uniform hypergraph over vertices, with the producing centre of each
    hyperedge recorded."""

    __slots__ = ("n", "edges", "centre_of", "trace")

    def __init__(self, n, edges, centre_of, trace=None):
        self.n = n
        self.edges = sorted(edges, key=lambda u: tuple(sorted(u)))
        self.centre_of = centre_of
        self.trace = trace or {}

    def __len__(self):
        return len(self.edges)

    def degree_profile(self):
        """Delta_j: max members containing a common j-subset."""
        members = [sorted(u) for u in self.edges]
        ell = max(map(len, members), default=0)
        return {j: max(subset_counts(members, j).values(), default=0)
                for j in range(1, ell + 1)}


def neighbourhood_hypergraph(g, qfam, l_vector, p):
    """Sequential good/bad-centre construction of a fresh-sets hypergraph.

    Processes the centres in order; a centre is good when at most half of
    its candidate sets (subsets of its remaining ambient neighbourhood) lie
    in the closure of what earlier good centres contributed; good centres
    contribute ceil((eta*n*p/ell)^ell / 2) lexicographically-first sets
    with the per-class profile l_vector, fresh with respect to the closure.
    """
    if qfam.kind != "QH":
        raise ValueError("needs a star-union structure")
    q = qfam.q
    n = g.n
    ell = sum(l_vector)
    if ell < 1:
        raise ValueError("profile must be nonempty")
    r = len(l_vector)
    eta, np_ = PAPER_DEFAULTS.eta, n * p
    alpha = (eta / ell) ** ell / 2
    rho = upper_tail_rho(alpha, ell)
    D = 2 ** (ell + 1) / rho
    half = (eta * np_ / ell) ** ell / 2
    target = max(1, math.ceil(half))

    centres = sorted(q.centres)
    ghat = set()            # union of all ell-subsets of good neighbourhoods
    chosen = []             # fresh contributed sets
    centre_of = {}
    saturated = {j: set() for j in range(1, ell)}
    trace = {"constants": {"alpha": alpha, "rho": rho, "D": D,
                           "half": half, "target": target},
             "centres": []}

    def closure_member(u_sorted):
        u = frozenset(u_sorted)
        if u in ghat:
            return True
        for j in range(1, ell):
            for t in itertools.combinations(u_sorted, j):
                if t in saturated[j]:
                    return True
        return False

    def refresh_saturation():
        e_ghat = len(ghat)
        members = [sorted(u) for u in ghat]
        for j in range(1, ell):
            thr = max(2 * np_ ** (ell - j), D * e_ghat / n ** j)
            cnt = subset_counts(members, j)
            saturated[j] = {t for t, c in cnt.items() if c >= thr}

    processed = []
    for v in centres:
        amb = [w for w in g.neighbours(v) if w not in processed]
        cand = list(itertools.combinations(sorted(amb), ell))
        bad_hits = sum(1 for u in cand if closure_member(u))
        good = bad_hits <= half
        entry = {"centre": v, "candidates": len(cand),
                 "closure_hits": bad_hits, "good": good, "fresh": 0}
        if good:
            # sets with the exact per-class profile among v's Q-neighbours
            pools = [sorted(w for w in q.class_neighbours(v, k + 1))
                     for k in range(r)]
            fresh = []
            for combo in itertools.product(
                    *[itertools.combinations(pool, l_vector[k])
                      for k, pool in enumerate(pools)]):
                u_sorted = tuple(sorted(itertools.chain.from_iterable(combo)))
                if len(set(u_sorted)) != ell:
                    continue
                if not closure_member(u_sorted):
                    fresh.append(frozenset(u_sorted))
                    if len(fresh) >= target:
                        break
            for u in fresh:
                chosen.append(u)
                centre_of[u] = v
            entry["fresh"] = len(fresh)
            for u in itertools.combinations(sorted(g.neighbours(v)), ell):
                ghat.add(frozenset(u))
            refresh_saturation()
        trace["centres"].append(entry)
        processed.append(v)

    hyp = VertexHypergraph(n, set(chosen), centre_of, trace)
    k_q = len(centres)
    lower_shape = min(n ** ell, k_q * np_ ** ell)
    prof = hyp.degree_profile()
    e_g = len(hyp)
    fitted_C = 0.0
    caps = {}
    for j, dj in prof.items():
        if j == ell:
            continue
        base_cap = 4 * np_ ** (ell - j)
        caps[j] = {"delta_j": dj, "base_cap": base_cap,
                   "holds_base": dj <= base_cap}
        if e_g > 0 and dj > base_cap:
            fitted_C = max(fitted_C, dj * n ** j / e_g)
    trace["fitted_c_lower"] = e_g / lower_shape if lower_shape > 0 else None
    trace["fitted_C_caps"] = fitted_C
    trace["caps"] = caps
    return hyp

