import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from simonovits.graph import Graph, PartTuple, ColoredGraph, named_graph
from simonovits.patterns import PatternProfile
from simonovits.bounds import (poisson_lower_tail, janson_matching_bound,
                               janson_corollaries, upper_tail_rho,
                               upper_tail_bound, balanced_condition_check,
                               mu_delta_lemma_check, sufficiency_sum)


def _poisson_cdf(mu, k):
    return sum(math.exp(-mu) * mu ** i / math.factorial(i)
               for i in range(k + 1))


def test_poisson_bound_dominates_true_tail():
    for mu in (2.0, 5.0, 10.0, 25.0):
        for alpha in (0.05, 0.2, 0.5):
            b = poisson_lower_tail(mu, alpha)["prob"]
            true = _poisson_cdf(mu, int(alpha * mu))
            assert true <= b + 1e-12


def test_poisson_bound_edge_cases():
    assert poisson_lower_tail(10.0, 0.0)["bound"] == math.exp(-10.0)
    assert poisson_lower_tail(0.0, 0.5)["prob"] == 1.0
    with pytest.raises(ValueError):
        poisson_lower_tail(-1.0, 0.5)


def test_janson_matching_bound_shape():
    b = janson_matching_bound(10.0, 2.0, 0.05, 0.05, 0.01)
    ent = 0.05 * math.log(math.e / 0.05)
    expect = -(1 - ent - 0.05 * 0.01 - 0.05) * 10 + (1 + 2 * 0.05 * 0.01 / 0.05) * 2
    assert abs(b["log_bound"] - expect) < 1e-12
    with pytest.raises(ValueError):
        janson_matching_bound(10.0, 2.0, 0.05, 0.0, 0.01)


def test_corollary_values():
    rep = janson_corollaries(10.0, 2.0, 0.1)
    assert abs(rep["bound34"]["log_bound"] - (-0.9 * 10 + 4)) < 1e-12
    assert rep["lam"] == 10.0
    assert abs(rep["bound35"]["log_bound"] - (-1.0)) < 1e-12
    rep = janson_corollaries(10.0, 100.0, 0.1)
    assert rep["lam"] == 1.0
    with pytest.raises(ValueError):
        janson_corollaries(10.0, 2.0, 0.5)


def test_corollary_degenerate_moments():
    rep = janson_corollaries(0.0, 0.0, 0.1)
    assert rep["lam"] == 0.0
    assert rep["bound34"]["prob"] == 1.0


def test_upper_tail_rho():
    assert abs(upper_tail_rho(0.5, 2) - 0.5 / (5 * math.e)) < 1e-15
    assert abs(upper_tail_rho(3.0, 1) - 1.0 / (3 * math.e)) < 1e-15
    b = upper_tail_bound(1.0, 2, 100, 0.1)
    assert abs(b["log_bound"] + upper_tail_rho(1.0, 2) * 10) < 1e-12


def test_balanced_condition_triangle():
    prof = PatternProfile(named_graph("triangle"))
    rep = balanced_condition_check(prof, 1000, 0.5, 1.0)
    assert rep["applicable"] and rep["all_hold"]
    # only proper-subgraph pair with 1 < e < 3 is absent for a triangle,
    # so no strictly-proper lambda exists below the pattern itself
    rep2 = balanced_condition_check(prof, 1000, 1e-6, 1.0)
    assert not rep2["applicable"]


def test_balanced_condition_k4_lambda():
    prof = PatternProfile(named_graph("k4"))
    n = 10 ** 4
    p = 2.0 * n ** (-1 / 2.5)
    rep = balanced_condition_check(prof, n, p, 1.0)
    assert rep["applicable"]
    # smallest exponent among proper subgraphs: triangle inside K4,
    # lambda = (3-2) - 2/(5/2) = 1/5
    assert abs(rep["min_lambda"] - 0.2) < 1e-12


def test_mu_delta_fql_exact():
    h = named_graph("triangle")
    n = 12
    q = Graph(n, [(0, 1)])
    s = PartTuple.from_assignment([0] * 6 + [1] * 6)
    rep = mu_delta_lemma_check("FQL", h, q, s, n, Fraction(1, 2))
    assert rep["applicable"]
    assert rep["count_bound_holds"]
    # every low residual of the one-edge structure crossing s: the two free
    # triangle edges must cross, so the apex lies in the second part
    assert rep["restricted_size"] == 6


def test_mu_delta_empty_structure_vacuous():
    h = named_graph("triangle")
    rep = mu_delta_lemma_check("FQL", h, Graph(8),
                               PartTuple.from_assignment([0] * 4 + [1] * 4),
                               8, 0.5)
    assert rep["vacuous_pass"]


def test_mu_delta_high():
    h = named_graph("triangle")
    n = 10
    q = Graph(n, [(0, 2), (0, 3)])
    cg = ColoredGraph(q, [1, 0, 2, 2] + [0] * 6, centres=[0])
    s = PartTuple.from_assignment([0] * 5 + [1] * 5)
    rep = mu_delta_lemma_check("high", h, cg, s, n, 0.5)
    assert rep["applicable"]
    assert rep["k_Q"] == 1
    assert rep["family_size"] > 0


def test_sufficiency_sum_against_brute_force():
    n, p, beta, c = 200, 0.1, 0.01, 1.0
    rep = sufficiency_sum(n, p, beta, c)
    N = n * (n - 1) // 2
    brute = sum(math.exp(m - c * m * math.log(N * p / m))
                for m in range(1, int(beta * N * p) + 1))
    assert abs(rep["first_sum"] - brute) < 1e-9
    brute2 = sum(math.comb(n, k) * math.exp(-n * p * k)
                 for k in range(1, n + 1))
    assert abs(rep["second_sum"] - brute2) / brute2 < 1e-9
    assert rep["first_below_1"] and rep["second_below_1"]


@given(st.floats(0.1, 50), st.floats(0, 20), st.floats(0.001, 0.1))
def test_corollary34_monotone_in_delta(mu, delta, gamma):
    a = janson_corollaries(mu, delta, gamma)["bound34"]["log_bound"]
    b = janson_corollaries(mu, delta + 1, gamma)["bound34"]["log_bound"]
    assert b >= a
