import itertools
import random

import pytest

from simonovits.graph import (Graph, ColoredGraph, PartTuple,
                              TooLargeError, complete_graph, named_graph,
                              all_pairs, edge_index)
from simonovits.randgraphs import RngStream, sample_gnp
from simonovits.copies import residual_family
from simonovits import rigidity
from simonovits.rigidity import (CutFamily, deficit,
                                 rigidity_threshold,
                                 equivalence_and_rigidity, crit_edges,
                                 run_switching, validate_trace)

K3 = named_graph("triangle")


def _q_pair(n):
    q = Graph(n, [(0, 1)])
    return ColoredGraph(q, [1, 2] + [0] * (n - 2))


def test_cut_family_counts():
    fam = CutFamily(4, 2, 0.999)
    # complete 2-part labelled assignments of 4 vertices, all sizes allowed
    # within the wide balance window except the two one-sided ones
    assert len(fam) == 2 ** 4 - 2
    fam_b = CutFamily(4, 2, 0.0)
    assert len(fam_b) == 6


def test_cut_family_respects_colours():
    fam = CutFamily(4, 2, 0.999, q=_q_pair(4))
    for assign in fam.assignments:
        assert assign[0] == 0 and assign[1] == 1


def test_cut_family_guard():
    with pytest.raises(TooLargeError):
        CutFamily(40, 2, 0.4)


def test_cut_family_guard_refuses_by_bytes_before_enumerating(monkeypatch):
    # 2^26 assignments are within the enumeration guard, but the ~6.7e7
    # kept cuts of 122 bytes each are not within the byte budget
    def enumerate_nothing(*args):
        raise AssertionError("enumerated a refused family")

    monkeypatch.setattr(rigidity, "_half_table", enumerate_nothing)
    assert 2 ** 26 <= rigidity.FAMILY_GUARD
    with pytest.raises(TooLargeError, match="bytes"):
        CutFamily(26, 2, 0.4)


def test_cut_family_guard_counts_only_uncoloured_vertices(monkeypatch):
    # the enumeration guard bounds r^f for the f uncoloured vertices
    q = _q_pair(10)
    ref = CutFamily(10, 2, 0.4, q=q).assignments
    monkeypatch.setattr(rigidity, "FAMILY_GUARD", 2 ** 8)
    with pytest.raises(TooLargeError, match=r"2\^10"):
        CutFamily(10, 2, 0.4)
    assert (CutFamily(10, 2, 0.4, q=q).assignments == ref).all()


def _reference_family(n, r, delta, forced):
    """The itertools.product loop that built CutFamily before it moved to
    numpy chunks: (assignments, crossing masks)."""
    lo = (1 - delta) * n / r
    hi = (1 + delta) * n / r
    assignments, ext_masks = [], []
    for assign in itertools.product(range(r), repeat=n):
        if any(assign[v] != k for v, k in forced.items()):
            continue
        sizes = [0] * r
        for a in assign:
            sizes[a] += 1
        if not all(lo <= s <= hi for s in sizes):
            continue
        ext = 0
        for (u, v) in itertools.combinations(range(n), 2):
            if assign[u] != assign[v]:
                ext |= 1 << edge_index(n, u, v)
        assignments.append(assign)
        ext_masks.append(ext)
    return assignments, ext_masks


def _coloured(n, coloured):
    """(structure, forced parts) for a test case: False for none, True for
    the pair 0, 1 coloured 1, 2, or "v:c,..." for vertex v coloured c."""
    if coloured is False:
        return None, {}
    if coloured is True:
        return _q_pair(n), {0: 0, 1: 1}
    colours = dict(map(int, vc.split(":")) for vc in coloured.split(","))
    q = ColoredGraph(Graph(n), [colours.get(v, 0) for v in range(n)])
    return q, {v: c - 1 for v, c in colours.items()}


# n = 2, 5, 11 fit C(n, 2) pairs in one 64-bit word, n = 12, 13 need two;
# odd n at delta 0 and every n = 2 family with r = 4 are empty, and so is
# every family with a colour above r
FAMILY_CASES = (
    [(n, 2, d, c) for n in (2, 5, 11, 12, 13) for d in (0, 0.4, 0.999)
     for c in (False, True)]
    + [(n, r, d, c) for r in (3, 4) for n in (2, 5) for d in (0, 0.4, 0.999)
       for c in (False, True)]
    + [(11, 3, 0.4, True), (12, 3, 0.4, True), (9, 4, 0.4, True),
       (8, 4, 0.999, True)]
    # coloured vertices away from the front of the row
    + [(9, 2, d, c) for d in (0.4, 0.999) for c in ("3:1,7:2", "3:2,7:2")]
    + [(12, 2, 0.4, "3:1,7:2"), (13, 2, 0.4, "3:2,7:1"),
       (13, 2, 0, "3:1,7:2")]
    # three coloured vertices
    + [(9, 3, 0.4, "2:1,5:2,8:3"), (10, 3, 0.4, "0:3,4:3,6:1"),
       (8, 3, 0.999, "1:2,3:2,7:2"), (8, 4, 0.4, "1:1,4:2,6:4"),
       (9, 4, 0.999, "0:4,3:4,8:1"), (7, 4, 0.4, "2:3,3:3,5:3")]
    # a colour above r, and r = 1
    + [(6, 2, 0.999, "2:3"), (8, 3, 0.4, "0:1,5:4"), (5, 1, 0.999, False),
       (5, 1, 0.999, True), (5, 1, 0.999, "4:1")])


@pytest.mark.parametrize("n,r,delta,coloured", FAMILY_CASES)
def test_cut_family_matches_product_loop(n, r, delta, coloured):
    q, forced = _coloured(n, coloured)
    ref_assign, ref_ext = _reference_family(n, r, delta, forced)
    if not ref_assign:
        with pytest.raises(ValueError, match="empty cut family"):
            CutFamily(n, r, delta, q=q)
        return
    fam = CutFamily(n, r, delta, q=q)
    assert list(map(tuple, fam.assignments.tolist())) == ref_assign
    assert fam.assignments.dtype.kind == "u"
    ext = [fam.crossed_by_all([i]) for i in range(len(fam))]
    assert ext == ref_ext
    assert all(type(e) is int for e in ext)
    rng = random.Random(n * 1000 + r * 100 + int(delta * 10)
                        + (coloured is True))
    for _ in range(30):
        gm = rng.getrandbits(n * (n - 1) // 2)
        vals = [(gm & e).bit_count() for e in ref_ext]
        b = max(vals)
        assert fam.values(gm).tolist() == vals
        got_b, got_ids = fam.maxcut_ids(gm)
        assert type(got_b) is int and all(type(i) is int for i in got_ids)
        assert (got_b, got_ids) == (b, [i for i, v in enumerate(vals)
                                        if v == b])
        common = gm
        for i in got_ids:
            common &= ref_ext[i]
        assert gm & fam.crossed_by_all(got_ids) == common


def _digit_family(n, r, delta, forced):
    """The build CutFamily used before its half-tables: every assignment's
    digits by integer division, 4096 at a time, the balanced rows kept,
    and each pair's crossing bit from comparing its two digits, packed
    little-endian: (assignments, words, planes)."""
    import numpy as np
    lo = (1 - delta) * n / r
    hi = (1 + delta) * n / r
    free = [v for v in range(n) if v not in forced]
    place = r ** np.arange(len(free) - 1, -1, -1, dtype=np.int64)
    digit = np.min_scalar_type(r - 1)
    row = np.array([forced.get(v, 0) for v in range(n)], digit)
    n_words = max(1, -(-(n * (n - 1) // 2) // 64))
    us, vs = np.triu_indices(n, 1)
    assignments, packed = [], []
    for start in range(0, r ** len(free), 4096):
        idx = np.arange(start, min(start + 4096, r ** len(free)))
        digits = np.tile(row, (len(idx), 1))
        digits[:, free] = idx[:, None] // place % r
        keep = np.ones(len(digits), dtype=bool)
        for k in range(r):
            size = np.count_nonzero(digits == k, axis=1)
            keep &= (lo <= size) & (size <= hi)
        digits = digits[keep]
        cross = np.zeros((len(digits), n_words * 64), dtype=bool)
        np.not_equal(digits[:, us], digits[:, vs], out=cross[:, :len(us)])
        assignments.append(digits)
        packed.append(np.packbits(cross, axis=1, bitorder="little"))
    packed = np.concatenate(packed)
    return (np.concatenate(assignments),
            packed.view("<u8").T.astype(np.uint64), packed.T)


@pytest.mark.parametrize("n,r,coloured", [
    (16, 2, True), (12, 3, True), (20, 2, True), (10, 4, "1:1,4:2,6:4")])
def test_cut_family_matches_digit_comparison(n, r, coloured):
    # the two switching families, a larger one, and an r = 4 family with
    # three coloured vertices, each spread over several chunks
    q, forced = _coloured(n, coloured)
    fam = CutFamily(n, r, 0.4, q=q)
    assignments, words, planes = _digit_family(n, r, 0.4, forced)
    for got, want in ((fam.assignments, assignments), (fam._words, words),
                      (fam._planes, planes)):
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert (got == want).all()


def test_cut_family_digits_wider_than_a_byte():
    # a delta this wide keeps every assignment, empty parts included
    r = 257
    fam = CutFamily(2, r, r)
    ref = list(itertools.product(range(r), repeat=2))
    assert list(map(tuple, fam.assignments.tolist())) == ref
    assert [fam.crossed_by_all([i]) for i in range(len(fam))] == \
        [int(a != b) for a, b in ref]


@pytest.mark.parametrize("n, dtype", [(12, "uint8"), (23, "uint8"),
                                      (24, "uint16")])
def test_scores_take_the_smallest_dtype_that_holds_every_pair(n, dtype):
    # r = n parts with all but two vertices pinned apart, so some cut
    # crosses all C(n, 2) pairs: 253 fits a byte at n = 23, 276 does not
    q, _ = _coloured(n, ",".join("%d:%d" % (v, v + 1) for v in range(n - 2)))
    fam = CutFamily(n, n, 1, q=q)
    full = (1 << n * (n - 1) // 2) - 1
    vals = fam.values(full)
    assert vals.dtype == dtype and int(vals.max()) == n * (n - 1) // 2
    assert vals.tolist() == [fam.crossed_by_all([i]).bit_count()
                             for i in range(len(fam))]
    carried = fam.values(0)
    fam.update(carried, 0, full)
    assert carried.tolist() == vals.tolist()
    fam.update(carried, full, 0)
    assert not carried.any()


def test_cut_roundtrip_and_b_value():
    fam = CutFamily(5, 2, 0.4)
    g = complete_graph(5)
    b = fam.maxcut_ids(g.edge_mask())[0]
    assert b == 6
    idx = fam.index_of(fam.cut(3))
    assert idx == 3


def test_index_of_refuses_cuts_outside_the_family():
    fam = CutFamily(6, 2, 0.0)
    with pytest.raises(ValueError):
        fam.index_of(PartTuple(6, [{0}, {1, 2, 3, 4, 5}]))     # unbalanced
    with pytest.raises(ValueError):
        fam.index_of(PartTuple(6, [{0, 1, 2}, {3, 4}]))       # leaves 5 out
    with pytest.raises(ValueError):
        fam.index_of(PartTuple(5, [{0, 1}, {2, 3, 4}]))       # other n
    cut = PartTuple(6, [{0, 2, 4}, {1, 3, 5}])
    assert fam.cut(fam.index_of(cut)) == cut


@pytest.mark.parametrize("n,r,delta,coloured", [
    (10, 2, 0.4, True), (8, 3, 0.4, False), (7, 3, 0.999, "2:3,4:1"),
    (3, 257, 257, "1:200,2:257")])
def test_index_of_round_trips_every_row(n, r, delta, coloured):
    fam = CutFamily(n, r, delta, q=_coloured(n, coloured)[0])
    assert [fam.index_of(fam.cut(i)) for i in range(len(fam))] == \
        list(range(len(fam)))


@pytest.mark.parametrize("r", [2, 3, 257])
def test_index_of_refuses_foreign_cuts_with_value_error(r):
    # digits are one byte up to r = 256 and two bytes above it, so a part
    # 256 (65536) above a row's digit would wrap onto that row if cast
    if r == 257:
        fam = CutFamily(3, r, r, q=ColoredGraph(Graph(3), [0, 200, 0]))
    else:
        fam = CutFamily(4, r, 0.999)
    n = fam.n
    row = fam.assignments[len(fam) // 2].tolist()
    wide = max(row) + (256 if r < 256 else 65536)
    for assign in (row[:-1] + [-1],         # leaves the last vertex out
                   row[:-1] + [wide],       # more parts than r
                   row[:-1] + [r]):
        parts = [{v for v in range(n) if assign[v] == k}
                 for k in range(max(assign) + 1)]
        with pytest.raises(ValueError):
            fam.index_of(PartTuple(n, parts))
    with pytest.raises(ValueError):
        fam.index_of(PartTuple(n + 1, [set(range(n + 1))]))


def test_stable_kth_matches_stable_argsort():
    import numpy as np
    from simonovits.cli import _stable_kth
    fam = CutFamily(10, 2, 0.4, q=_q_pair(10))
    rng = random.Random(5)
    for t in range(30):
        # sparse and dense masks: few distinct values, many ties
        gm = rng.getrandbits(45) & rng.getrandbits(45) if t % 2 else \
            rng.getrandbits(45)
        vals = fam.values(gm)
        order = np.argsort(vals, kind="stable").tolist()
        assert [_stable_kth(vals, k) for k in range(len(vals))] == order


def test_deficit():
    fam = CutFamily(6, 2, 0.0)
    g = complete_graph(6)
    cut = fam.cut(0)
    b, d = deficit(cut, g, fam)
    assert b == 9 and d == 0       # all balanced cuts of K6 are maximum


def test_rigidity_threshold_forms():
    lit = rigidity_threshold(12, 2, 0.2, paper_literal=True)
    cor = rigidity_threshold(12, 2, 0.2)
    assert abs(lit - 0.8 * 144 / 4) < 1e-12
    assert cor == 0.8 * 2 * 15
    assert cor <= lit


def test_complete_bipartite_is_rigid_with_unique_core():
    n = 6
    g = Graph(n, [(u, v) for u in range(3) for v in range(3, 6)])
    fam = CutFamily(n, 2, 0.4)
    rep = equivalence_and_rigidity(g, fam, 0.05)
    assert rep["rigid"]
    assert rep["core"] is not None
    assert rep["core"].canonical() == ((0, 1, 2), (3, 4, 5))
    cm = crit_edges(g, fam, rigidity=rep)
    assert cm == g.edge_mask()


def test_sparse_graph_not_rigid():
    g = Graph(6, [(0, 1)])
    fam = CutFamily(6, 2, 0.4)
    rep = equivalence_and_rigidity(g, fam, 0.05)
    assert not rep["rigid"]
    assert rep["core"] is None


def _rigidity_properties(g, fam, alpha):
    rep = equivalence_and_rigidity(g, fam, alpha)
    if not rep["rigid"]:
        return
    if rep["core"] is None:
        # rigid without a clean core must carry an explanation
        assert rep["core_error"]
        return
    core = rep["core"]
    floor = (1 - 4 * fam.r * alpha) * fam.n / fam.r
    assert all(len(p) > floor for p in core.parts)
    # crit contains every core-crossing edge of g
    cm = crit_edges(g, fam, rigidity=rep)
    assert (core.ext_mask() & g.edge_mask()) & ~cm == 0


def test_rigidity_exhaustive_n5():
    fam = CutFamily(5, 2, 0.4)
    for bits in range(2 ** 10):
        edges = [e for i, e in enumerate(all_pairs(5)) if bits >> i & 1]
        _rigidity_properties(Graph(5, edges), fam, 0.05)


def test_rigidity_sampled_n8():
    fam = CutFamily(8, 2, 0.4)
    for t in range(500):
        p = 0.2 + 0.6 * (t % 5) / 4
        g = sample_gnp(8, p, RngStream(33, t))
        _rigidity_properties(g, fam, 0.05)


def test_switching_runs_and_validates():
    n = 12
    q = _q_pair(n)
    fam = CutFamily(n, 2, 0.4, q=q)
    fam_resid = residual_family(K3, q, n, "low")
    for t in range(20):
        p = [0.3, 0.5, 0.8][t % 3]
        g = sample_gnp(n, p, RngStream(77, t)).with_edge(0, 1)
        vals = fam.values(g.edge_mask()).tolist()
        order = sorted(range(len(fam)), key=lambda i: vals[i])
        cut = fam.cut(order[len(order) // 4])
        tr = run_switching(g, q, cut, fam_resid, fam,
                           fam.values(g.edge_mask()), m=2, L=200, seed=t, p=p)
        res = validate_trace(tr, q, cut, d=60, fam=fam,
                             fam_resid=fam_resid, m=2, p=p)
        assert res["ok"], res["violations"]
        # edge-count identity holds along the whole trace
        e0 = tr.g0_mask.bit_count()
        for i in range(len(tr.g_masks)):
            assert i == e0 - tr.g_masks[i].bit_count() \
                + tr.f_masks[i].bit_count()


def test_switching_requires_structure_inside():
    n = 6
    q = _q_pair(n)
    fam = CutFamily(n, 2, 0.4, q=q)
    fam_resid = residual_family(K3, q, n, "low")
    g = Graph(n, [(2, 3)])
    with pytest.raises(ValueError):
        run_switching(g, q, fam.cut(0), fam_resid, fam,
                      fam.values(g.edge_mask()), m=2, L=10)


def _one_trace(seed=4, p=0.5, n=12):
    q = _q_pair(n)
    fam = CutFamily(n, 2, 0.4, q=q)
    fam_resid = residual_family(K3, q, n, "low")
    g = sample_gnp(n, p, RngStream(88, seed)).with_edge(0, 1)
    vals = fam.values(g.edge_mask()).tolist()
    order = sorted(range(len(fam)), key=lambda i: vals[i])
    cut = fam.cut(order[len(order) // 4])
    tr = run_switching(g, q, cut, fam_resid, fam, fam.values(g.edge_mask()),
                       m=2, L=200, seed=seed, p=p)
    return tr, q, cut, fam, fam_resid, p


def _find_stepped_trace():
    for s in range(20):
        tr, q, cut, fam, fam_resid, p = _one_trace(seed=s)
        if len(tr.steps) >= 2:
            return tr, q, cut, fam, fam_resid, p
    raise AssertionError("no multi-step trace found")


def test_validator_catches_corruption():
    tr, q, cut, fam, fam_resid, p = _find_stepped_trace()
    ok = validate_trace(tr, q, cut, d=60, fam=fam, fam_resid=fam_resid,
                        m=2, p=p)
    assert ok["ok"]

    # corrupt the recorded branch type
    tr.steps[0] = dict(tr.steps[0], type="d" if tr.steps[0]["type"] != "d"
                       else "b")
    bad = validate_trace(tr, q, cut, d=60, fam=fam, fam_resid=fam_resid,
                         m=2, p=p)
    assert not bad["ok"]


def test_validator_catches_foreign_edge():
    tr, q, cut, fam, fam_resid, p = _find_stepped_trace()
    tr.steps[0] = dict(tr.steps[0], edge=tr.steps[1]["edge"])
    bad = validate_trace(tr, q, cut, d=60, fam=fam, fam_resid=fam_resid,
                         m=2, p=p)
    assert not bad["ok"]


# the choice set is a bitmask: an edge that is no index of it is outside
@pytest.mark.parametrize("edge", [-1, 10 ** 6, "0", None])
def test_validator_reports_an_edge_outside_the_choice_set(edge):
    tr, q, cut, fam, fam_resid, p = _find_stepped_trace()
    tr.steps[0] = dict(tr.steps[0], edge=edge)
    bad = validate_trace(tr, q, cut, d=60, fam=fam, fam_resid=fam_resid,
                         m=2, p=p)
    assert bad["violations"] == [(0, "edge not in recomputed choice set")]


def test_validator_catches_state_tampering():
    tr, q, cut, fam, fam_resid, p = _find_stepped_trace()
    tr.g_masks[1] = tr.g_masks[1] ^ 1
    bad = validate_trace(tr, q, cut, d=60, fam=fam, fam_resid=fam_resid,
                         m=2, p=p)
    assert not bad["ok"]


def test_validator_catches_a_trace_run_from_another_graph():
    # two start graphs with 33 edges each, so the edge-count identity holds
    # for the relabelled trace and only the first state gives it away
    n, p = 12, 0.5
    q = _q_pair(n)
    fam = CutFamily(n, 2, 0.4, q=q)
    fam_resid = residual_family(K3, q, n, "low")
    g = sample_gnp(n, p, RngStream(99, 20)).with_edge(0, 1)
    other = sample_gnp(n, p, RngStream(88, 20)).with_edge(0, 1)
    assert g.edge_count() == other.edge_count() == 33
    vals = fam.values(g.edge_mask()).tolist()
    order = sorted(range(len(fam)), key=lambda i: vals[i])
    cut = fam.cut(order[len(order) // 4])
    tr = run_switching(g, q, cut, fam_resid, fam, fam.values(g.edge_mask()),
                       m=2, L=200, seed=20, p=p)
    assert len(tr.steps) == 14
    ok = validate_trace(tr, q, cut, d=60, fam=fam, fam_resid=fam_resid,
                        m=2, p=p)
    assert ok["ok"], ok["violations"]
    tr.g0_mask = other.edge_mask()
    bad = validate_trace(tr, q, cut, d=60, fam=fam, fam_resid=fam_resid,
                         m=2, p=p)
    assert bad["violations"] == [(0, "first state is not (G0, empty F)")]
    # the right start graph, with a pair outside it in F from the outset
    tr.g0_mask = g.edge_mask()
    tr.f_masks[0] = ~tr.g0_mask & (tr.g0_mask + 1)
    bad = validate_trace(tr, q, cut, d=60, fam=fam, fam_resid=fam_resid,
                         m=2, p=p)
    assert (0, "first state is not (G0, empty F)") in bad["violations"]


def test_validator_catches_budget_overrun():
    tr, q, cut, fam, fam_resid, p = _find_stepped_trace()
    res = validate_trace(tr, q, cut, d=0, fam=fam, fam_resid=fam_resid,
                         m=2, p=p)
    if res["ab_steps"] > 0:
        assert not res["ok"]


def _spy_scores(monkeypatch):
    """Record every full scoring and, for every state _switch_branch sees,
    (union, its scores as received, what it returned)."""
    values = CutFamily.values
    branch = rigidity._switch_branch
    full, seen = [], []

    def counted(self, g_mask):
        full.append(g_mask)
        return values(self, g_mask)

    def spied(run, g_mask, f_mask, vals):
        got = vals.copy()
        out = branch(run, g_mask, f_mask, vals)
        seen.append((g_mask | f_mask, got, out))
        return out

    monkeypatch.setattr(CutFamily, "values", counted)
    monkeypatch.setattr(rigidity, "_switch_branch", spied)
    return values, full, seen


def _assert_fresh(fam, values, seen):
    for union, got, (_, _, b) in seen:
        fresh = values(fam, union)
        assert got.dtype == fresh.dtype and (got == fresh).all()
        assert b == fresh.max()


def test_switch_branch_scores_each_state_once(monkeypatch):
    # _switch_branch receives each state's scores: the family is scored in
    # full once per run (by its caller) and once per validation, and every
    # later state's scores are carried by the pairs that changed, equal to
    # a fresh scoring of that state's union
    tr, q, cut, fam, fam_resid, p = _find_stepped_trace()
    seed = tr.params["seed"]
    g = sample_gnp(tr.n, p, RngStream(88, seed)).with_edge(0, 1)
    unions = [gm | fm for gm, fm in zip(tr.g_masks, tr.f_masks)]
    values, full, seen = _spy_scores(monkeypatch)
    again = run_switching(g, q, cut, fam_resid, fam, fam.values(g.edge_mask()),
                          m=2, L=200, seed=seed, p=p)
    assert again.g_masks == tr.g_masks and again.f_masks == tr.f_masks
    assert full == [tr.g0_mask]
    # the run branches at every state, the last one included unless it
    # ran out of rounds
    assert [u for u, _, _ in seen] == unions[:len(seen)]
    assert len(seen) == len(tr.steps) + (tr.terminal["reason"] != "L")
    _assert_fresh(fam, values, seen)
    # states past branches a and b ran the rigidity step on the same scores
    types = {typ for _, _, (typ, _, _) in seen}
    assert types - {"a", "b"}, types
    full.clear()
    seen.clear()
    res = validate_trace(tr, q, cut, d=60, fam=fam, fam_resid=fam_resid,
                         m=2, p=p)
    assert res["ok"]
    assert full == [unions[0]]
    assert [u for u, _, _ in seen] == unions[:-1]
    _assert_fresh(fam, values, seen)


SWITCH_CASES = [(K3, 12, 2, 0.5), (K3, 16, 2, 0.5),
                (complete_graph(4), 12, 3, 0.7)]


@pytest.mark.parametrize("h,n,r,p", SWITCH_CASES)
def test_carried_scores_match_fresh_scoring(monkeypatch, h, n, r, p):
    # differential: along seeded traces, the scores carried from state to
    # state, in the run and in its validation, equal CutFamily.values
    q = _q_pair(n)
    fam = CutFamily(n, r, 0.4, q=q)
    fam_resid = residual_family(h, q, n, "low")
    values, full, seen = _spy_scores(monkeypatch)
    steps = 0
    for t in range(4):
        g = sample_gnp(n, p, RngStream(91, t)).with_edge(0, 1)
        vals = values(fam, g.edge_mask())
        order = sorted(range(len(fam)), key=lambda i: vals[i])
        cut = fam.cut(order[t * len(order) // 4])
        full.clear()
        seen.clear()
        tr = run_switching(g, q, cut, fam_resid, fam,
                           fam.values(g.edge_mask()), m=3, L=200, seed=t, p=p)
        res = validate_trace(tr, q, cut, d=n * n, fam=fam,
                             fam_resid=fam_resid, m=3, p=p)
        assert res["ok"], res["violations"]
        assert len(full) == 1 + bool(tr.steps)
        _assert_fresh(fam, values, seen)
        steps += len(tr.steps)
    assert steps >= 8


@pytest.mark.parametrize("h,n,r,p", SWITCH_CASES)
def test_argmax_set_work_is_done_once_per_family(monkeypatch, h, n, r, p):
    # along seeded runs and their validations on one family, the pairs
    # crossing every maximum cut and the equivalence classes are computed
    # once per distinct argmax set (and the start cut's crossing pairs
    # once per run and per validation); every branch outcome equals the
    # one a fresh family, with nothing kept, gives at the same state
    import numpy as np
    q = _q_pair(n)
    fam = CutFamily(n, r, 0.4, q=q)
    fresh = CutFamily(n, r, 0.4, q=q)
    fam_resid = residual_family(h, q, n, "low")
    crossed_by_all = CutFamily.crossed_by_all
    classes_of = rigidity._equivalence_classes
    branch = rigidity._switch_branch
    crossed, classes, seen = [], [], []

    def spied_crossed(self, ids):
        if self is fam:
            crossed.append(np.asarray(ids).tobytes())
        return crossed_by_all(self, ids)

    def spied_classes(family, ids):
        if family is fam:
            classes.append(ids.tobytes())
        return classes_of(family, ids)

    def spied_branch(run, g_mask, f_mask, vals):
        got = vals.copy()
        out = branch(run, g_mask, f_mask, vals)
        seen.append((run, g_mask, f_mask, got, out))
        return out

    monkeypatch.setattr(CutFamily, "crossed_by_all", spied_crossed)
    monkeypatch.setattr(rigidity, "_equivalence_classes", spied_classes)
    monkeypatch.setattr(rigidity, "_switch_branch", spied_branch)
    starts = []
    for t in range(4):
        g = sample_gnp(n, p, RngStream(93, t)).with_edge(0, 1)
        vals = fam.values(g.edge_mask())
        order = sorted(range(len(fam)), key=lambda i: vals[i])
        cut = fam.cut(order[t * len(order) // 4])
        starts += 2 * [np.asarray([order[t * len(order) // 4]]).tobytes()]
        tr = run_switching(g, q, cut, fam_resid, fam, vals, m=3, L=200,
                           seed=t, p=p)
        res = validate_trace(tr, q, cut, d=n * n, fam=fam,
                             fam_resid=fam_resid, m=3, p=p)
        assert res["ok"], res["violations"]
    sets = {np.flatnonzero(v == v.max()).tobytes() for *_, v, _ in seen}
    assert len(seen) > len(sets)
    assert sorted(crossed) == sorted([*sets, *starts])
    assert classes and len(set(classes)) == len(classes)
    assert set(classes) <= sets
    for run, g_mask, f_mask, vals, out in seen:
        alone = run._replace(fam=fresh, argmax={})
        assert branch(alone, g_mask, f_mask, vals.copy()) == out


def test_validator_scores_a_jump_of_several_pairs_exactly(monkeypatch):
    # a recorded state two pairs away from its predecessor: the validator
    # flags the transition before it would branch there, every state it
    # does branch at is scored as a fresh scoring would, and the carried
    # update across the jump equals a fresh scoring of the jumped state
    tr, q, cut, fam, fam_resid, p = _find_stepped_trace()
    u0 = tr.g_masks[0] | tr.f_masks[0]
    other = next(e for e in range(1, 64) if not (u0 >> e) & 1)
    tr.g_masks[1] ^= 1 | (1 << other)
    u1 = tr.g_masks[1] | tr.f_masks[1]
    assert (u0 ^ u1).bit_count() >= 2
    values, full, seen = _spy_scores(monkeypatch)
    bad = validate_trace(tr, q, cut, d=60, fam=fam, fam_resid=fam_resid,
                         m=2, p=p)
    assert not bad["ok"]
    assert (0, "state transition inconsistent") in bad["violations"]
    assert seen and full == [u0]
    _assert_fresh(fam, values, seen)
    vals = values(fam, u0)
    fam.update(vals, u0, u1)
    assert (vals == values(fam, u1)).all()


@pytest.mark.parametrize("n,r,delta,coloured", [
    (6, 2, 0.4, False), (12, 3, 0.4, True), (12, 2, 0.4, False),
    (3, 257, 257, "1:200,2:257")])
def test_cut_family_update_matches_values(n, r, delta, coloured):
    fam = CutFamily(n, r, delta, q=_coloured(n, coloured)[0])
    rng = random.Random(n * 31 + r)
    pairs = n * (n - 1) // 2
    old = rng.getrandbits(pairs)
    vals = fam.values(old)
    for flips in (0, 1, 1, 2, 5, pairs):
        new = old ^ sum(1 << e for e in rng.sample(range(pairs),
                                                   min(flips, pairs)))
        before = vals
        fam.update(vals, old, new)
        assert vals is before and vals.dtype == fam.values(new).dtype
        assert vals.tolist() == fam.values(new).tolist()
        old = new


def test_validator_reports_missing_and_extra_states():
    tr, q, cut, fam, fam_resid, p = _find_stepped_trace()
    tr.g_masks.pop()
    tr.f_masks.pop()
    bad = validate_trace(tr, q, cut, d=60, fam=fam, fam_resid=fam_resid,
                         m=2, p=p)
    assert not bad["ok"] and len(bad["violations"]) == 1
    assert bad["violations"][0][0] == "total"
    tr, q, cut, fam, fam_resid, p = _find_stepped_trace()
    tr.f_masks.append(tr.f_masks[-1])
    bad = validate_trace(tr, q, cut, d=60, fam=fam, fam_resid=fam_resid,
                         m=2, p=p)
    assert not bad["ok"] and bad["violations"][0][0] == "total"
