"""Pattern graph invariants and threshold constants.

For a pattern h with at least two edges the 2-density is the maximum of
(e_F - 1)/(v_F - 2) over subgraphs F with at least two edges.  pi, the
exact leading coefficient of the pattern's copy count in augmented complete
multipartite hosts, is counted from colourings (see pi_coefficient); from it
come the threshold coefficient theta and the probability threshold used
throughout, both undefined when pi = 0 (a pattern that is not edge-critical).
"""

import itertools
import math
from fractions import Fraction

from .copies import automorphism_count


def most_induced_edges(h):
    """{k: the most edges that k vertices of h induce} for k = 1..v."""
    def edges(vs):
        mask = sum(1 << u for u in vs)
        return sum((h.adj[u] & mask).bit_count() for u in vs) // 2
    return {k: max(map(edges, itertools.combinations(range(h.n), k)))
            for k in range(1, h.n + 1)}


def two_density(h):
    """Maximum 2-density and whether h is strictly 2-balanced.

    Returns (Fraction, strictly_balanced).  Only induced subgraphs can
    maximise (dropping edges at fixed vertex count lowers the ratio), so
    for each k the densest k vertices stand for all subgraphs on k
    vertices.  strictly_balanced means the ratio at k = v is the maximum
    and no k < v reaches it: the maximum is attained only by the whole
    pattern.
    """
    if h.edge_count() < 2:
        raise ValueError("pattern needs at least two edges")
    ratios = {k: Fraction(e - 1, k - 2)
              for k, e in most_induced_edges(h).items() if e >= 2}
    whole = ratios[h.n]
    strictly = all(d < whole for k, d in ratios.items() if k < h.n)
    return max(ratios.values()), strictly


def is_edge_critical(h):
    """True when deleting some edge lowers the chromatic number; also
    returns the list of such edges."""
    chi = h.chromatic_number()
    crit = [(u, v) for (u, v) in h.edges()
            if h.without_edge(u, v).chromatic_number() < chi]
    return bool(crit), crit


def pi_coefficient(h):
    """Exact leading coefficient pi of the copy count in augmented blowups.

    The host is K_{m,...,m} with r = chi(h) - 1 parts plus an edge xy inside
    part 0.  As h is not r-colourable, every copy maps some edge ab of h
    onto xy; each other vertex u then picks a part c(u) and one of its ~m
    vertices, with c(a) = c(b) = 0 and c proper on every edge but ab.  So
    the copy count is a polynomial in m whose m^(v-2) coefficient is
    2 * (sum over edges ab of the number of such c) / |Aut h|, the 2 for the
    two orientations of ab on xy.  It is 0 exactly when h has no critical
    edge.
    """
    r = h.chromatic_number() - 1
    if r < 2:
        raise ValueError("pattern must have chromatic number at least 3")
    aut = automorphism_count(h)
    c = [None] * h.n

    def colourings(rest):
        """Ways to colour the vertices of rest one at a time, each avoiding
        the colours of its coloured neighbours."""
        if not rest:
            return 1
        u = rest[0]
        used = {c[w] for w in h.neighbours(u)}
        total = 0
        for k in range(r):
            if k not in used:
                c[u] = k
                total += colourings(rest[1:])
        c[u] = None
        return total

    count = 0
    for (a, b) in h.edges():
        c[a] = c[b] = 0
        count += colourings([u for u in range(h.n) if u != a and u != b])
        c[a] = c[b] = None
    colourings = None   # the closure refers to itself; free it with the call
    return Fraction(2 * count, aut)


def theta_coefficient(h, pi=None, m2=None):
    """Positive solution of (chi-1)^(2-v) * pi * theta^(e-1) = 2 - 1/m2.

    Returns (theta_float, exact_power, exponent_denominator) where
    exact_power is the Fraction theta^(e_H - 1).  Raises ValueError when
    pi = 0, i.e. when h is not edge-critical.
    """
    if pi is None:
        pi = pi_coefficient(h)
    if not pi:
        raise ValueError("theta needs an edge-critical pattern (pi = 0)")
    if m2 is None:
        m2, _ = two_density(h)
    r = h.chromatic_number() - 1
    v, e = h.n, h.edge_count()
    power = (2 - 1 / Fraction(m2)) * Fraction(r) ** (v - 2) / pi
    theta = float(power) ** (1.0 / (e - 1))
    return theta, power, e - 1


def p_threshold(h, n):
    """PatternProfile(h).p_threshold(n), for one-off use."""
    return PatternProfile(h).p_threshold(n)


def dense_min_degree_bound(h, n):
    """Minimum-degree guarantee for the dense regime: with chi(h) = r + 1,
    ceil((1 - 3/(4(r-1)(3r-1))) * n) + 1; every graph on n vertices with at
    least this minimum degree has all its largest h-free subgraphs r-partite
    (h edge-critical).  Also returns the degree ratio constant
    (3r-4)/(3r-1) used by the peeling argument."""
    r = h.chromatic_number() - 1
    if r < 2:
        raise ValueError("pattern must have chromatic number at least 3")
    frac = 1 - Fraction(3, 4 * (r - 1) * (3 * r - 1))
    return math.ceil(frac * n) + 1, Fraction(3 * r - 4, 3 * r - 1)


class PatternProfile:
    """All pattern constants in one bundle."""

    def __init__(self, h):
        self.pattern = h
        self.v = h.n
        self.e = h.edge_count()
        self.chi = h.chromatic_number()
        self.r = self.chi - 1
        self.m2, self.strictly_balanced = two_density(h)
        self.edge_critical, self.critical_edges = is_edge_critical(h)
        self.pi = pi_coefficient(h)
        self.theta, self.theta_power, self.theta_exponent = (
            theta_coefficient(h, pi=self.pi, m2=self.m2) if self.pi
            else (None, None, self.e - 1))      # theta undefined when pi = 0

    def p_threshold(self, n):
        """Threshold probability p_H = theta * n^(-1/m2) * (log n)^(1/(e-1)),
        clipped to [0, 1]; a scan multiplies it by its own factors.  Logs
        are natural throughout.  Raises ValueError when h is not
        edge-critical, since theta is then undefined."""
        if n < 2:
            raise ValueError("need n >= 2")
        if self.theta is None:
            raise ValueError("p_H needs an edge-critical pattern (pi = 0)")
        p = (self.theta * n ** (-1 / float(self.m2))
             * math.log(n) ** (1.0 / (self.e - 1)))
        return min(1.0, max(0.0, p))

    def as_dict(self):
        return {
            "vertices": self.v,
            "edges": self.e,
            "chromatic_number": self.chi,
            "two_density": _frac_str(self.m2),
            "strictly_balanced": self.strictly_balanced,
            "edge_critical": self.edge_critical,
            "critical_edges": [list(e) for e in self.critical_edges],
            "pi": _frac_str(self.pi),
            "theta_power": (None if self.theta_power is None
                            else _frac_str(self.theta_power)),
            "theta_exponent": self.theta_exponent,
            "theta": self.theta,
        }


def _frac_str(x):
    f = Fraction(x)
    return "%d/%d" % (f.numerator, f.denominator)
