import itertools
import math
import random
from fractions import Fraction

import pytest

from simonovits.copies import count_copies
from simonovits.graph import (Graph, complete_graph, cycle_graph,
                              named_graph, petersen_graph, blowup_plus,
                              graph_from_spec)
from simonovits.patterns import (two_density, is_edge_critical,
                                 pi_coefficient, theta_coefficient,
                                 p_threshold, dense_min_degree_bound,
                                 PatternProfile)


def test_two_density_values():
    assert two_density(named_graph("triangle"))[0] == 2
    assert two_density(cycle_graph(5))[0] == Fraction(4, 3)
    assert two_density(named_graph("k4"))[0] == Fraction(5, 2)
    assert two_density(named_graph("k5"))[0] == Fraction(9, 3)
    assert two_density(petersen_graph())[0] == Fraction(7, 4)


def test_strict_balance():
    for name in ("triangle", "c5", "k4", "k5"):
        assert two_density(named_graph(name))[1]
    # a triangle with a pendant edge maximises on the proper subgraph
    g = Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    assert two_density(g) == (2, False)
    # the bowtie's triangles (ratio 2) beat the whole bowtie (5/3)
    assert two_density(graph_from_spec("5:0-1,0-2,1-2,2-3,2-4,3-4")) \
        == (2, False)
    # K4 minus an edge ties its triangles at ratio 2: a tie is not strict
    assert two_density(graph_from_spec("4:0-1,0-2,1-2,1-3,2-3")) \
        == (2, False)
    # two disjoint edges: no three vertices span two edges
    assert two_density(Graph(4, [(0, 1), (2, 3)])) == (Fraction(1, 2), True)


def _reference_two_density(h):
    """The scan over every vertex subset that two_density made before it
    kept only the densest k vertices for each k: (maximum ratio, whether
    the whole pattern alone attains it)."""
    best, argmax = None, []
    for k in range(3, h.n + 1):
        for vs in itertools.combinations(range(h.n), k):
            e = h.induced(vs).edge_count()
            if e < 2:
                continue
            d = Fraction(e - 1, k - 2)
            if best is None or d > best:
                best, argmax = d, [(k, e)]
            elif d == best:
                argmax.append((k, e))
    return best, argmax == [(h.n, h.edge_count())]


@pytest.mark.parametrize("seed", range(5))
def test_two_density_matches_the_subset_scan(seed):
    rng = random.Random(seed)
    for _ in range(60):
        n, q = rng.randint(3, 7), rng.choice((0.3, 0.5, 0.8))
        g = Graph(n, [e for e in itertools.combinations(range(n), 2)
                      if rng.random() < q])
        if g.edge_count() >= 2:
            assert two_density(g) == _reference_two_density(g)


def test_two_density_rejects_tiny():
    with pytest.raises(ValueError):
        two_density(Graph(2, [(0, 1)]))


def test_edge_criticality():
    for name in ("triangle", "c5", "k4", "k5"):
        crit, edges = is_edge_critical(named_graph(name))
        assert crit
        assert sorted(edges) == named_graph(name).edges()
    assert not is_edge_critical(petersen_graph())[0]


def test_pi_values():
    assert pi_coefficient(named_graph("triangle")) == 1
    assert pi_coefficient(cycle_graph(5)) == 1
    assert pi_coefficient(named_graph("k4")) == 1


# The blow-up fit that computed pi before the colouring count: copy counts
# in v_H - 1 augmented blowups, Lagrange-interpolated and checked at one
# more class size.  Kept as the oracle for the differential test below.
def _reference_pi(h):
    """Exact leading coefficient of the copy count in augmented blowups.

    Counts copies of h in the complete (chi-1)-partite graph with classes of
    size m plus one extra edge, for v_H - 1 values of m; the count is a
    polynomial in m of degree at most v_H - 2 and pi is its top coefficient.
    The interpolation is validated at one further m.
    """
    chi = h.chromatic_number()
    r = chi - 1
    if r < 2:
        raise ValueError("pattern must have chromatic number at least 3")
    v = h.n
    npts = max(v - 1, 3)                    # at least cubic sampling
    ms = list(range(v, v + npts))
    counts = [Fraction(count_copies(h, blowup_plus(r, m))) for m in ms]
    coeffs = _interpolate(ms, counts)
    deg = len(coeffs) - 1
    while deg > 0 and coeffs[deg] == 0:
        deg -= 1
    if deg > v - 2:
        raise AssertionError("copy count grows faster than expected")
    m_check = v + npts
    predicted = sum(c * Fraction(m_check) ** i for i, c in enumerate(coeffs))
    actual = count_copies(h, blowup_plus(r, m_check))
    if predicted != actual:
        raise AssertionError("interpolated polynomial failed validation")
    pi = coeffs[v - 2] if v - 2 < len(coeffs) else Fraction(0)
    if pi <= 0:
        raise AssertionError("leading coefficient must be positive")
    return pi


def _interpolate(xs, ys):
    """Lagrange interpolation; returns polynomial coefficients (Fractions)."""
    n = len(xs)
    coeffs = [Fraction(0)] * n
    for i in range(n):
        # numerator polynomial prod_{j != i} (x - x_j), coefficients low->high
        num = [Fraction(1)]
        denom = Fraction(1)
        for j in range(n):
            if j == i:
                continue
            new = [Fraction(0)] * (len(num) + 1)
            for k, c in enumerate(num):
                new[k + 1] += c
                new[k] -= c * xs[j]
            num = new
            denom *= Fraction(xs[i] - xs[j])
        for k, c in enumerate(num):
            coeffs[k] += c * ys[i] / denom
    return coeffs



@pytest.mark.parametrize("spec", [
    "triangle", "c5", "k4", "k5",
    "4:0-1,0-2,1-2,2-3",                           # paw
    "5:0-1,1-2,2-3,3-4,4-0,0-2",                   # C5 with a chord
    "5:0-1,0-2,1-2,0-3,1-3,2-3,3-4",               # K4 plus a pendant edge
    "5:0-1,1-2,0-2,3-4",                           # triangle plus an edge
    "6:0-1,1-2,2-0,0-3,3-4,4-5,5-0",               # triangle and C4 at a vertex
])
def test_pi_matches_blowup_fit(spec):
    h = graph_from_spec(spec)
    assert pi_coefficient(h) == _reference_pi(h)


@pytest.mark.parametrize("spec", [
    "5:0-1,0-2,1-2,2-3,2-4,3-4",                   # bowtie
    "6:0-1,1-2,0-2,3-4,4-5,3-5",                   # two disjoint triangles
    "6:0-2,0-3,0-4,0-5,1-2,1-3,1-4,1-5,2-4,2-5,3-4,3-5",   # K_{2,2,2}
])
def test_pi_zero_without_critical_edge(spec):
    h = graph_from_spec(spec)
    assert pi_coefficient(h) == 0
    assert not is_edge_critical(h)[0]


def test_pi_direct_values():
    # the blow-up fit takes 2.5-30 s on these, so the values are stated
    assert pi_coefficient(cycle_graph(7)) == 1
    wheel = graph_from_spec("6:0-1,0-2,0-3,0-4,0-5,1-2,2-3,3-4,4-5,5-1")
    assert pi_coefficient(wheel) == 4
    # K7 and K8 as the earlier sweep over all e(h) * r^(v-2) colourings
    # computed them, in 0.3 s and 6 s
    assert pi_coefficient(complete_graph(7)) == 1
    assert pi_coefficient(complete_graph(8)) == 1
    assert pi_coefficient(petersen_graph()) == 0


def test_non_edge_critical_profile_has_no_theta():
    h = petersen_graph()
    prof = PatternProfile(h)
    assert prof.theta is None and prof.theta_power is None
    d = prof.as_dict()
    assert (d["pi"], d["theta"], d["theta_power"]) == ("0/1", None, None)
    assert d["edge_critical"] is False
    for call in (lambda: theta_coefficient(h),
                 lambda: p_threshold(h, 10),
                 lambda: prof.p_threshold(10)):
        with pytest.raises(ValueError, match="edge-critical"):
            call()


def test_pi_rejects_isolated_vertex():
    with pytest.raises(ValueError, match="isolated"):
        pi_coefficient(Graph(4, [(0, 1), (1, 2), (0, 2)]))


def test_pi_rejects_bipartite():
    with pytest.raises(ValueError):
        pi_coefficient(cycle_graph(4))


def test_theta_satisfies_defining_equation():
    for name in ("triangle", "c5", "k4"):
        h = named_graph(name)
        prof = PatternProfile(h)
        lhs = (prof.r ** (2 - prof.v) * float(prof.pi)
               * prof.theta ** (prof.e - 1))
        assert abs(lhs - (2 - 1 / float(prof.m2))) < 1e-9


def test_theta_exact_powers():
    _, power, k = theta_coefficient(named_graph("triangle"))
    assert (power, k) == (Fraction(3), 2)
    _, power, k = theta_coefficient(cycle_graph(5))
    assert (power, k) == (Fraction(10), 4)
    _, power, k = theta_coefficient(named_graph("k4"))
    assert (power, k) == (Fraction(72, 5), 5)


def test_p_threshold_shape():
    h = named_graph("triangle")
    prof = PatternProfile(h)
    p12 = prof.p_threshold(12)
    assert 0 < p12 <= 1
    # theta * n^{-1/2} * (log n)^{1/2} at n=12
    expect = prof.theta * 12 ** -0.5 * math.log(12) ** 0.5
    assert abs(p12 - min(1.0, expect)) < 1e-12
    assert prof.p_threshold(10 ** 6) < prof.p_threshold(100)
    # the profile reads its own constants and gives the same floats
    for name in ("triangle", "c5", "k4"):
        h = named_graph(name)
        prof = PatternProfile(h)
        for n in (2, 8, 10, 12, 1000):
            assert prof.p_threshold(n) == p_threshold(h, n)


def test_dense_min_degree_bound():
    h = named_graph("triangle")
    bound, ratio = dense_min_degree_bound(h, 14)
    # r = 2: fraction 1 - 3/20, ratio 2/5
    assert bound == math.ceil(Fraction(17, 20) * 14) + 1
    assert ratio == Fraction(2, 5)
    _, ratio3 = dense_min_degree_bound(named_graph("k4"), 14)
    assert ratio3 == Fraction(5, 8)


def test_profile_as_dict_round_numbers():
    d = PatternProfile(named_graph("triangle")).as_dict()
    assert d["two_density"] == "2/1"
    assert d["pi"] == "1/1"
    assert d["theta_power"] == "3/1"
    assert d["edge_critical"] is True
    assert d["strictly_balanced"] is True
