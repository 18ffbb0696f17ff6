"""Acceptance suite: one test per criterion, each emitting a single
summary line (criterion name, PASS/FAIL, elapsed time) on the terminal."""

import copy as copymod
import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np

from simonovits.graph import (Graph, ColoredGraph, complete_graph,
                              cycle_graph, named_graph, disjoint_union,
                              blowup_plus, all_pairs, bitset_members)
from simonovits.patterns import PatternProfile, dense_min_degree_bound
from simonovits.copies import (enumerate_copies, count_copies,
                               janson_moments, residual_family)
from simonovits.solvers import max_H_free, local_max_cut, is_simonovits, \
    dense_peel
from simonovits.bounds import janson_corollaries
from simonovits.randgraphs import RngStream, sample_gnp
from simonovits.structure import (vizing_color, check_edge_colouring,
                                  bounded_degree_subgraph, construct_QF,
                                  ConstructionInfeasible,
                                  neighbourhood_hypergraph)
from simonovits.rigidity import (CutFamily, deficit,
                                 equivalence_and_rigidity, crit_edges,
                                 run_switching, validate_trace)
from simonovits.cli import scan_threshold, _scan_csv

from test_graph import is_bipartite

K3 = named_graph("triangle")
C5 = cycle_graph(5)
K4 = named_graph("k4")


class _criterion:
    """Times the enclosed block and prints the one-line verdict."""

    def __init__(self, name, budget, capsys):
        self.name = name
        self.budget = budget
        self.capsys = capsys

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        verdict = "PASS" if exc_type is None and elapsed < self.budget \
            else "FAIL"
        with self.capsys.disabled():
            print("[ACCEPTANCE] %-16s %s  (%.1fs / budget %ds)"
                  % (self.name, verdict, elapsed, self.budget))
        if exc_type is None:
            assert elapsed < self.budget, \
                "%s exceeded %ds budget" % (self.name, self.budget)
        return False


def _poly_coeffs(xs, ys):
    """Exact coefficients (low to high) of the interpolating polynomial,
    by Gaussian elimination on the Vandermonde system over Fractions."""
    k = len(xs)
    rows = [[Fraction(x) ** j for j in range(k)] + [Fraction(y)]
            for x, y in zip(xs, ys)]
    for col in range(k):
        piv = next(i for i in range(col, k) if rows[i][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [c * inv for c in rows[col]]
        for i in range(k):
            if i != col and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    return [rows[i][k] for i in range(k)]


def test_constants_suite(capsys):
    with _criterion("constants", 10, capsys):
        cases = [
            (K3, Fraction(2), math.sqrt(3)),
            (C5, Fraction(4, 3), 10 ** 0.25),
            (K4, Fraction(5, 2), (72 / 5) ** 0.2),
        ]
        for h, m2_expect, theta_expect in cases:
            prof = PatternProfile(h)
            assert prof.m2 == m2_expect
            assert prof.strictly_balanced
            assert prof.edge_critical
            assert prof.pi == 1
            # independent pi oracle: exact copy counts in the augmented
            # blowups at v_H fresh class sizes, interpolated from scratch
            ms = list(range(h.n + 1, 2 * h.n + 1))
            ys = [count_copies(h, blowup_plus(prof.r, m)) for m in ms]
            coeffs = _poly_coeffs(ms, ys)
            assert all(c == 0 for c in coeffs[prof.v - 1:])
            assert coeffs[prof.v - 2] == prof.pi
            # theta solves (chi-1)^(2-v) * pi * theta^(e-1) = 2 - 1/m2
            assert abs(prof.theta - theta_expect) < 1e-9
            lhs = prof.r ** (2 - prof.v) * float(prof.pi) \
                * prof.theta ** (prof.e - 1)
            assert abs(lhs - (2 - 1 / float(prof.m2))) < 1e-9


def _k4_free_max_brute(n):
    pairs = list(all_pairs(n))
    pos = {e: i for i, e in enumerate(pairs)}
    quad_masks = []
    for vs in itertools.combinations(range(n), 4):
        mask = 0
        for (u, v) in itertools.combinations(vs, 2):
            mask |= 1 << pos[(u, v)]
        quad_masks.append(mask)
    best = 0
    for sub in range(1 << len(pairs)):
        if all(q & ~sub for q in quad_masks):
            c = sub.bit_count()
            if c > best:
                best = c
    return best


def test_turan_oracle(capsys):
    with _criterion("turan", 60, capsys):
        for n in range(4, 10):
            ex, f = max_H_free(complete_graph(n), K3)
            assert ex == n * n // 4
            assert not enumerate_copies(K3, f)
        for n in (5, 6):
            ex, _ = max_H_free(complete_graph(n), K4)
            assert ex == _k4_free_max_brute(n)


def test_simonovits_decisions(capsys):
    with _criterion("simonovits", 60, capsys):
        expected_optima = {4: 3, 5: 10, 6: 10, 7: 35, 8: 35}
        for n in range(4, 9):
            v = is_simonovits(complete_graph(n), K3)
            assert v.decision == "yes"
            assert v.optima_count == expected_optima[n]
        for g in (C5, disjoint_union(complete_graph(5), C5)):
            v = is_simonovits(g, K3)
            assert v.decision == "no"
            cert = v.certificate
            assert cert is not None
            assert cert.chromatic_number() > 2
            # the certificate consists of edges of g outside every copy,
            # so any maximum triangle-free subgraph must contain it whole
            covered = set()
            for cp in enumerate_copies(K3, g):
                covered |= set(cp)
            for e in cert.edges():
                assert g.has_edge(*e)
                assert e not in covered


def _random_hypergraph(rng):
    ground = rng.randint(6, 10)
    m = rng.randint(3, 12)
    fam = set()
    while len(fam) < m:
        k = rng.randint(2, 4)
        fam.add(sum(1 << x for x in rng.sample(range(ground), k)))
    return ground, sorted(fam, key=bitset_members)


def _subset_tables(fam):
    """Per-subset maximum matching size and intersecting-pair count."""
    m = len(fam)
    compat, inter = [], []
    for i, a in enumerate(fam):
        ci = ii = 0
        for j, b in enumerate(fam):
            if j != i and not (a & b):
                ci |= 1 << j
            elif j != i:
                ii |= 1 << j
        compat.append(ci)
        inter.append(ii)
    nu = np.zeros(1 << m, dtype=np.int8)
    prs = np.zeros(1 << m, dtype=np.int32)
    for s in range(1, 1 << m):
        i = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        nu[s] = max(nu[rest], 1 + nu[rest & compat[i]])
        prs[s] = prs[rest] + (rest & inter[i]).bit_count()
    return nu, prs


def test_janson_suite(capsys):
    with _criterion("janson-mc", 600, capsys):
        rng = random.Random(12345)
        trials = 10_000
        gamma = 0.1
        cells = mu_out = delta_out = 0
        for hg in range(200):
            ground, fam = _random_hypergraph(rng)
            nu_tab, pair_tab = _subset_tables(fam)
            member = np.array([[bool(a >> e & 1) for e in range(ground)]
                               for a in fam])
            nprng = np.random.default_rng(999 + hg)
            for p in (0.3, 0.5, 0.7):
                cells += 1
                mom = janson_moments(fam, p)
                mu, delta = mom["mu"], mom["delta"]
                bound = janson_corollaries(mu, delta, gamma)["bound34"]["prob"]
                draws = nprng.random((trials, ground)) < p
                present = np.ones((trials, len(fam)), dtype=bool)
                for j in range(len(fam)):
                    present[:, j] = draws[:, member[j]].all(axis=1)
                sid = np.zeros(trials, dtype=np.int64)
                for j in range(len(fam)):
                    sid |= present[:, j].astype(np.int64) << j
                x = present.sum(axis=1)
                prs = pair_tab[sid]
                se = x.std(ddof=1) / math.sqrt(trials)
                if abs(float(x.mean()) - mu) > 3 * se + 1e-9:
                    mu_out += 1
                se = prs.std(ddof=1) / math.sqrt(trials)
                if abs(float(prs.mean()) - delta) > 3 * se + 1e-9:
                    delta_out += 1
                phat = float((nu_tab[sid] <= gamma * gamma * mu).mean())
                se = math.sqrt(phat * (1 - phat) / trials)
                assert phat <= bound + 3 * se, \
                    "lower-tail bound exceeded (hg=%d, p=%.1f)" % (hg, p)
        # 3-sigma moment agreement, allowing the nominal flake rate of a
        # per-cell 3-sigma criterion over 600 independent cells
        assert mu_out <= 0.01 * cells, mu_out
        assert delta_out <= 0.01 * cells, delta_out


def _switch_structures(n):
    """Assorted coloured structures: an edge, a path, a centred star."""
    single = ColoredGraph(Graph(n, [(0, 1)]), [1, 2] + [0] * (n - 2))
    path = ColoredGraph(Graph(n, [(0, 1), (1, 2)]),
                        [1, 2, 1] + [0] * (n - 3))
    star = ColoredGraph(Graph(n, [(0, 1), (0, 2)]),
                        [1, 2, 2] + [0] * (n - 3), centres=[0])
    return [single, path, star]


def test_switching_validator(capsys):
    with _criterion("switching", 300, capsys):
        n = 12
        structures = _switch_structures(n)
        fams = [CutFamily(n, 2, 0.4, q=q) for q in structures]
        resids = [residual_family(K3, q, n, "low")
                  for q in structures]
        stepped = []
        for t in range(100):
            q = structures[t % 3]
            fam = fams[t % 3]
            fam_resid = resids[t % 3]
            p = [0.3, 0.5, 0.8][t % 3]
            g = sample_gnp(n, p, RngStream(4242, t))
            for (u, v) in q.graph.edges():
                g = g.with_edge(u, v)
            gm = g.edge_mask()
            vals = fam.values(gm).tolist()
            order = sorted(range(len(fam)), key=lambda i: vals[i])
            cut = order[(t * 7) % (len(order) // 2 + 1)]
            _, d0 = deficit(cut, g, fam)
            tr = run_switching(g, q, cut, fam_resid, fam, fam.values(gm),
                               m=2, L=200, seed=t, p=p)
            res = validate_trace(tr, q, cut, d=d0, fam=fam,
                                 fam_resid=fam_resid, m=2, p=p)
            assert res["ok"], (t, res["violations"])
            if len(tr.steps) >= 2:
                stepped.append((tr, q, cut, fam, fam_resid, p,
                                res["ab_steps"]))
        assert len(stepped) >= 10, len(stepped)
        # negative controls: all four corruption styles must be caught on
        # ten traces each
        for style in range(4):
            caught = total = 0
            for (tr, q, cut, fam, fam_resid, p, ab) in stepped:
                if style == 3 and ab == 0:
                    continue
                if total == 10:
                    break
                total += 1
                bad = copymod.deepcopy(tr)
                d = n * n
                if style == 0:      # branch-type flip
                    bad.steps[0] = dict(
                        bad.steps[0],
                        type="d" if bad.steps[0]["type"] != "d" else "b")
                elif style == 1:    # state tampering
                    bad.g_masks[1] ^= 1
                elif style == 2:    # foreign edge
                    e2 = bad.steps[1]["edge"]
                    if e2 == bad.steps[0]["edge"]:
                        e2 = (e2 + 1) % (n * (n - 1) // 2)
                    bad.steps[0] = dict(bad.steps[0], edge=e2)
                else:               # budget overrun
                    d = 0
                res = validate_trace(bad, q, cut, d=d, fam=fam,
                                     fam_resid=fam_resid, m=2, p=p)
                if not res["ok"]:
                    caught += 1
            assert total == 10, (style, total)
            assert caught == total, (style, caught, total)


def test_structure_suite(capsys):
    with _criterion("structure", 600, capsys):
        rng = random.Random(7)
        # edge colouring: proper, at most maxdeg + 1 colours
        for t in range(500):
            n = rng.randint(2, 60)
            g = sample_gnp(n, rng.random(), RngStream(31337, t))
            col = vizing_color(g)
            assert check_edge_colouring(g, col)
            if g.edge_count():
                assert max(col.values()) <= g.max_degree() + 1
        # bounded-degree extraction inequality e(Q)(maxdeg+1) >= d e(I)
        for t in range(200):
            n = rng.randint(4, 40)
            g = sample_gnp(n, 0.2 + 0.7 * rng.random(), RngStream(777, t))
            if g.edge_count() == 0:
                continue
            d = rng.randint(1, max(1, g.max_degree()))
            q = bounded_degree_subgraph(g, d)
            assert q.max_degree() <= d
            assert q.edge_count() * (g.max_degree() + 1) >= d * g.edge_count()
        # clause inequalities on every successful structure construction
        built = 0
        for t in range(100):
            p = 0.35 + 0.3 * (t % 5) / 4
            g = sample_gnp(40, p, RngStream(2222, t))
            cut, _ = local_max_cut(g, 2, seed=t)
            try:
                qf = construct_QF(g, cut, p=p)
            except ConstructionInfeasible:
                continue
            built += 1
            e_i = qf.stats["e_I"]
            q = qf.q
            if qf.case_tag == "Q1":
                assert 2 * q.edge_count() >= e_i
                assert q.graph.max_degree() <= 2 * qf.stats["eta_np"]
            elif qf.case_tag == "Q2":
                assert q.graph.max_degree() <= qf.stats["d_thresh"]
                assert q.edge_count() >= qf.stats["d_thresh"]
            elif qf.case_tag == "Q3":
                assert q.k() >= e_i / (16 * max(1, g.max_degree()))
                for c in q.centres:
                    for other in q.centres:
                        assert c == other or not q.graph.has_edge(c, other)
                    assert len(q.graph.neighbours(c)) \
                        == cut.r() * qf.stats["eta_np"]
        assert built >= 50, built
        # neighbourhood hypergraph per-level caps with fitted constants
        fitted = []
        for t in range(10):
            g = sample_gnp(40, 0.5, RngStream(11, t))
            cut, _ = local_max_cut(g, 2, seed=t)
            try:
                qf = construct_QF(g, cut, p=0.5)
            except ConstructionInfeasible:
                continue
            if qf.kind != "QH":
                continue
            hyp = neighbourhood_hypergraph(g, qf, [0, 1], p=0.5)
            for j, cap in hyp.trace["caps"].items():
                assert cap["delta_j"] >= 0
            fitted.append(hyp.trace["fitted_C_caps"])
        assert fitted
        with capsys.disabled():
            print("  neighbourhood caps fitted C: max %.3f" % max(fitted))


def test_rigidity_suite(capsys):
    with _criterion("rigidity", 600, capsys):
        alpha = 0.05

        def check(g, fam):
            rep = equivalence_and_rigidity(g, fam, alpha)
            if not rep["rigid"]:
                return 0
            core = rep["core"]
            assert core is not None, rep["core_error"]
            floor = (1 - 4 * fam.r * alpha) * fam.n / fam.r
            assert len(core.parts) == fam.r
            assert all(len(p) > floor for p in core.parts)
            # the core is the unique family of r oversized classes
            assert sum(1 for c in rep["classes"] if len(c) > floor) == fam.r
            cm = crit_edges(g, fam, rigidity=rep)
            assert (core.ext_mask() & g.edge_mask()) & ~cm == 0
            return 1

        rigid_seen = 0
        for n in (3, 4, 5):
            fam = CutFamily(n, 2, 0.4)
            for bits in range(2 ** (n * (n - 1) // 2)):
                edges = [e for i, e in enumerate(all_pairs(n))
                         if bits >> i & 1]
                rigid_seen += check(Graph(n, edges), fam)
        fams = {n: CutFamily(n, 2, 0.4) for n in (6, 7, 8)}
        for t in range(500):
            n = 6 + t % 3
            p = 0.2 + 0.6 * (t % 5) / 4
            rigid_seen += check(sample_gnp(n, p, RngStream(33, t)), fams[n])
        assert rigid_seen >= 50, rigid_seen


def test_threshold_scan_smoke(capsys):
    with _criterion("threshold-scan", 900, capsys):
        rows, flagged = scan_threshold("triangle", [12], 20, seed=0,
                                       timing=False)
        assert len(rows) == 5
        assert not flagged
        # the yes-rate does not drop from the sparse to the dense end
        assert rows[-1]["yes"] >= rows[0]["yes"]
        rows2, _ = scan_threshold("triangle", [12], 20, seed=0,
                                  timing=False)
        assert _scan_csv(rows) == _scan_csv(rows2)


def test_appendix_peeling(capsys):
    with _criterion("peeling", 600, capsys):
        rng = random.Random(99)
        # 50 dense candidates: 5 meet the minimum-degree premise (complete
        # graphs on 14 vertices), 45 perturbations fall below it
        candidates = [complete_graph(14) for _ in range(5)]
        for t in range(45):
            n = rng.choice([12, 13, 14])
            g = complete_graph(n)
            removals = rng.randint(1, 6) if n == 14 else rng.randint(0, 6)
            for _ in range(removals):
                u, v = rng.sample(range(n), 2)
                if g.has_edge(u, v):
                    g = g.without_edge(u, v)
            candidates.append(g)
        survivors = rejects = 0
        for g in candidates:
            bound, _ = dense_min_degree_bound(K3, g.n)
            if g.min_degree() < bound:
                rejects += 1
                continue
            survivors += 1
            info, is_rp = dense_peel(g, K3)
            assert is_rp
            assert is_bipartite(info["terminal"])
        assert survivors == 5
        assert rejects == 45
