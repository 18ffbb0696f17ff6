"""Cut families, deficits, rigidity, cores, critical edges, and the
switching algorithm with its trace validator.

A cut family is every balanced compatible r-part assignment, stored once:
a digit array with one row per assignment, sorted, in which the columns of
coloured vertices hold their pinned parts, and a packed matrix of their
crossing masks (64-bit words) so that one numpy popcount scores every cut;
rigidity depends on the full argmax set, so enumeration is exact with a
hard guard and never sampled.
"""

import bisect
import math
import random

from .graph import Graph, PartTuple, ColoredGraph, TooLargeError, \
    pair_mask, bitset_members, assignment_chunks
from .bounds import PAPER_DEFAULTS

FAMILY_GUARD = 10 ** 8
_WORD = (1 << 64) - 1


class CutFamily:
    """All delta-balanced complete r-part assignments of [n] compatible
    with an optional coloured structure (vertices coloured k must land in
    part k-1), in ``itertools.product`` order, so the rows are sorted.

    Only the uncoloured vertices are enumerated; each coloured vertex's
    column holds its pinned digit.  ``assignments`` is a numpy array with
    one row of part digits per assignment; ``_words`` holds the crossing
    pairs of each assignment, in ``edge_index`` order, packed into 64-bit
    words (one row per word, one column per assignment), so that
    ``values`` scores every cut with one popcount per word.  Both are
    allocated once, at the size the balance window allows.
    """

    def __init__(self, n, r, delta, q=None):
        import numpy as np
        if r ** n > FAMILY_GUARD:
            raise TooLargeError("cut family too large: %d^%d" % (r, n))
        self.n = n
        self.r = r
        lo = (1 - delta) * n / r
        hi = (1 + delta) * n / r
        colour = q.colour if isinstance(q, ColoredGraph) else ()
        pinned = {v: c - 1 for v, c in enumerate(colour) if c >= 1}
        free = [v for v in range(n) if v not in pinned]
        base = [0] * r              # pinned vertices in each part
        for k in pinned.values():
            if k >= r:
                raise ValueError("empty cut family")
            base[k] += 1
        total = _balanced_count(len(free), r, lambda k, s:
                                lo <= base[k] + s <= hi)
        if not total:
            raise ValueError("empty cut family")
        us, vs = np.triu_indices(n, 1)      # pairs in edge_index order
        n_words = max(1, -(-len(us) // 64))
        self.assignments = np.empty((total, n), np.min_scalar_type(r - 1))
        self._words = np.empty((n_words, total), np.uint64)
        row = np.array([pinned.get(v, 0) for v in range(n)],
                       self.assignments.dtype)
        at = 0
        for chunk in assignment_chunks(len(free), r):
            digits = np.tile(row, (len(chunk), 1))
            digits[:, free] = chunk
            keep = np.ones(len(digits), dtype=bool)
            for k in range(r):
                size = np.count_nonzero(digits == k, axis=1)
                keep &= (lo <= size) & (size <= hi)
            digits = digits[keep]
            end = at + len(digits)
            cross = np.zeros((len(digits), n_words * 64), dtype=bool)
            np.not_equal(digits[:, us], digits[:, vs], out=cross[:, :len(us)])
            packed = np.packbits(cross, axis=1, bitorder="little")
            self.assignments[at:end] = digits
            self._words[:, at:end] = packed.view("<u8").T
            at = end

    def __len__(self):
        return len(self.assignments)

    def index_of(self, cut):
        """Index of a complete cut's assignment, by binary search over the
        sorted rows; ValueError if the family does not hold it."""
        assign = cut.assignment()
        if len(assign) == self.n:
            i = bisect.bisect_left(self.assignments, assign,
                                   key=lambda row: row.tolist())
            if i < len(self) and self.assignments[i].tolist() == assign:
                return i
        raise ValueError("cut not in family")

    def cut(self, idx):
        return PartTuple.from_assignment(self.assignments[idx].tolist(),
                                         self.r)

    def values(self, g_mask):
        """Crossing count of g_mask for every cut, as an int32 array."""
        import numpy as np
        vals = np.zeros(len(self), dtype=np.int32)
        for w, col in enumerate(self._words):
            word = np.uint64((g_mask >> (64 * w)) & _WORD)
            vals += np.bitwise_count(col & word)
        return vals

    def b_value(self, g_mask):
        return int(self.values(g_mask).max())

    def maxcut_ids(self, g_mask):
        vals = self.values(g_mask)
        b = vals.max()
        return int(b), (vals == b).nonzero()[0].tolist()

    def crossed_by_all(self, ids):
        """Bitmask of the pairs that cross every cut in ids (nonempty)."""
        import numpy as np
        words = np.bitwise_and.reduce(self._words[:, ids], axis=1)
        return sum(int(w) << (64 * i) for i, w in enumerate(words))


def _balanced_count(f, r, allowed):
    """Number of assignments of f labelled vertices to parts 0..r-1 that
    put s of them in part k only when allowed(k, s)."""
    ways = [1] + [0] * f            # ways[t]: t vertices in the parts so far
    for k in range(r):
        ways = [sum(math.comb(t, s) * ways[t - s] for s in range(t + 1)
                    if allowed(k, s)) for t in range(f + 1)]
    return ways[f]


def deficit(cut, g, fam):
    """(best family cut value, deficit of the given cut)."""
    idx = fam.index_of(cut)
    gm = g.edge_mask() if isinstance(g, Graph) else g
    vals = fam.values(gm)
    b = int(vals.max())
    return b, b - int(vals[idx])


def _equivalence_classes(fam, maxcut_ids):
    """Vertices grouped by their part in every cut of maxcut_ids."""
    sig = {}
    for v, col in enumerate(fam.assignments[maxcut_ids].T):
        sig.setdefault(col.tobytes(), []).append(v)
    return sorted(sig.values(), key=lambda c: (-len(c), c))


def rigidity_threshold(n, r, alpha, paper_literal=False):
    """Pair-count threshold for rigidity.  The literal asymptotic form
    (1-alpha)n^2/(2r) overshoots at small n; the corrected default counts
    (1-alpha) of the pairs inside r balanced classes."""
    if paper_literal:
        return (1 - alpha) * n * n / (2 * r)
    s = math.ceil(n / r)
    return (1 - alpha) * r * (s * (s - 1) / 2)


def equivalence_and_rigidity(g, fam, alpha):
    """Pair agreement across all maximum cuts in the family.

    Returns a dict with the equivalent-pair count, equivalence classes,
    rigidity flag, and (when rigid) the core: the r classes larger than
    (1-4r*alpha)n/r, in canonical unordered form.
    """
    gm = g.edge_mask() if isinstance(g, Graph) else g
    return _rigidity(fam, *fam.maxcut_ids(gm), alpha)


def _rigidity(fam, b, ids, alpha):
    """equivalence_and_rigidity from the maximum b and its cut ids."""
    classes = _equivalence_classes(fam, ids)
    pairs = sum(len(c) * (len(c) - 1) // 2 for c in classes)
    thr = rigidity_threshold(fam.n, fam.r, alpha)
    rigid = pairs >= thr
    core = None
    core_error = None
    if rigid:
        size_floor = (1 - 4 * fam.r * alpha) * fam.n / fam.r
        large = [c for c in classes if len(c) > size_floor]
        if len(large) == fam.r:
            core = PartTuple(fam.n, large)
        else:
            core_error = "expected %d large classes, found %d" % (
                fam.r, len(large))
    return {"b": b, "maxcut_ids": ids, "pairs": pairs, "threshold": thr,
            "classes": classes, "rigid": rigid, "core": core,
            "core_error": core_error}


def crit_edges(g, fam, rigidity=None, alpha=None):
    """Edges of g crossing every maximum cut of the family.  When a
    rigidity result with a core is supplied (or alpha given to compute
    one), asserts crit contains the core-crossing edges of g."""
    gm = g.edge_mask() if isinstance(g, Graph) else g
    b, ids = fam.maxcut_ids(gm)
    mask = gm & fam.crossed_by_all(ids)
    if rigidity is None and alpha is not None:
        rigidity = _rigidity(fam, b, ids, alpha)
    if rigidity and rigidity.get("core") is not None:
        core_ext = rigidity["core"].ext_mask() & gm
        if core_ext & ~mask:
            raise AssertionError("critical edges miss a core-crossing edge")
    return mask


# -- switching -----------------------------------------------------------

class SwitchTrace:
    """Record of one switching run."""

    __slots__ = ("n", "g0_mask", "steps", "g_masks", "f_masks",
                 "terminal", "params")

    def __init__(self, n, g0_mask, params):
        self.n = n
        self.g0_mask = g0_mask
        self.steps = []
        self.g_masks = [g0_mask]
        self.f_masks = [0]
        self.terminal = None
        self.params = params


def _q_in_core(q, core):
    """Every nonempty colour class of q inside some core class."""
    if core is None:
        return False
    colour = q.colour
    r = core.r()
    for k in range(1, r + 1):
        vk = [v for v, c in enumerate(colour) if c == k]
        if not vk:
            continue
        if not any(set(vk) <= set(part) for part in core.parts):
            return False
    return True


def _switch_branch(fam, q, q_mask, ext_cut, g_mask, f_mask, resid_masks,
                   m, gamma_n2p, alpha):
    """Evaluate the branch conditions at one state, whose cut crosses the
    pairs of ext_cut.  Returns (type, sorted choice list of edge indices or
    None, maximum cut value of g_mask | f_mask)."""
    union = g_mask | f_mask
    b, ids = fam.maxcut_ids(union)
    crit = union & fam.crossed_by_all(ids)
    n = fam.n
    # internal pairs of the cut: its crossing pairs' complement within K_n
    int_mask = ((1 << (n * (n - 1) // 2)) - 1) & ~ext_cut
    x_union = 0
    inside = g_mask & crit
    for w in resid_masks:
        if not w & ~inside:
            x_union |= w & int_mask
    if x_union.bit_count() >= m:
        return "a", bitset_members(x_union), b
    if (crit & int_mask).bit_count() >= gamma_n2p:
        choice = (g_mask & crit & int_mask) & ~q_mask
        return "b", bitset_members(choice), b
    rep = _rigidity(fam, b, ids, alpha)
    if not rep["rigid"]:
        choice = (g_mask & int_mask) & ~(crit | q_mask)
        return "c", bitset_members(choice), b
    core = rep["core"]
    if core is not None and _q_in_core(q, core):
        return "e", None, b
    if core is None:
        return "stuck", None, b
    # step (d): smallest k whose colour class agrees with some core part in
    # at least one but not all maximum cuts
    maxcuts = fam.assignments[ids]
    for k in range(1, fam.r + 1):
        vk = [v for v, c in enumerate(q.colour) if c == k]
        if not vk:
            continue
        rep_v = vk[0]
        eligible_parts = []
        for part in core.parts:
            agree = maxcuts[:, rep_v] == maxcuts[:, min(part)]
            if agree.any() and not agree.all():
                eligible_parts.append(part)
        if eligible_parts:
            target = set().union(*eligible_parts)
            pairs = pair_mask(n, ((u, w) for u in vk for w in target
                                  if u != w))
            # crossing pairs of the cut that are in neither G nor F
            addable = ext_cut & ~union
            return "d", bitset_members(pairs & addable), b
    return "stuck", None, b


def _switch_inputs(q, cut, fam, fam_resid):
    """(q as a ColoredGraph, its edge mask, the cut's crossing pairs, the
    residual family as masks) for a cut of the family."""
    if isinstance(q, Graph):
        q = ColoredGraph(q, [1 if q.degree(v) else 0 for v in range(q.n)])
    fam.index_of(cut)                   # refuses a cut outside the family
    return q, q.graph.edge_mask(), cut.ext_mask(), fam_resid.family


def run_switching(g0, q, cut, fam_resid, fam, m, L, seed=0,
                  constants=PAPER_DEFAULTS, gamma=None, p=None):
    """Execute the switching algorithm for L rounds or until it stops.

    q: ColoredGraph structure contained in g0; cut: compatible balanced
    partition; fam_resid: residual family (subsets of non-q pairs of K_n);
    fam: the CutFamily; m: the step-(a) threshold.  Removals and additions
    are drawn uniformly from the sorted choice sets via the seeded stream.
    """
    q, q_mask, ext_cut, resid_masks = _switch_inputs(q, cut, fam, fam_resid)
    n = g0.n
    if p is None:
        p = g0.edge_count() / (n * (n - 1) / 2)
    r = fam.r
    if gamma is None:
        gamma = constants.alpha / (24 * r)
    gamma_n2p = gamma * n * n * p
    g_mask = g0.edge_mask()
    if q_mask & ~g_mask:
        raise ValueError("structure not contained in the start graph")
    rng = random.Random(seed)
    params = {"m": m, "L": L, "gamma": gamma, "seed": seed, "p": p,
              "alpha": constants.alpha}
    trace = SwitchTrace(n, g_mask, params)
    f_mask = 0
    for i in range(L):
        typ, choice, _ = _switch_branch(fam, q, q_mask, ext_cut, g_mask,
                                        f_mask, resid_masks, m, gamma_n2p,
                                        constants.alpha)
        if typ == "e":
            trace.terminal = {"reason": "e", "steps": i}
            break
        if typ == "stuck" or not choice:
            trace.terminal = {"reason": "stuck", "branch": typ, "steps": i}
            break
        pos = rng.randrange(len(choice))
        e_idx = choice[pos]
        if typ == "d":
            f_mask |= 1 << e_idx
        else:
            g_mask &= ~(1 << e_idx)
        trace.steps.append({"i": i, "type": typ, "edge": e_idx,
                            "choice_size": len(choice), "rng_pos": pos})
        trace.g_masks.append(g_mask)
        trace.f_masks.append(f_mask)
    else:
        trace.terminal = {"reason": "L", "steps": L}
    return trace


def validate_trace(trace, q, cut, d, fam, fam_resid, m, gamma=None,
                   constants=PAPER_DEFAULTS, p=None):
    """Re-execute the branch logic of a trace and check the legal-sequence
    properties.

    (i) the final graph contains the structure; (ii) i = e(G0) - e(G_i) +
    e(F_i) with G_i, F_i disjoint; (iii) at most d removal steps of types
    a/b, with the deficit strictly decreasing on each and never increasing
    overall; (iv) at most r^2(d+1) addition steps, runs of consecutive
    additions at most r^2, and an addition step never immediately followed
    by type c.  Also confirms each step's type matches the first applicable
    branch and its edge belongs to the recomputed choice set.
    Returns {"ok": bool, "violations": [...]}.
    """
    q, q_mask, ext_cut, resid_masks = _switch_inputs(q, cut, fam, fam_resid)
    n = trace.n
    r = fam.r
    if p is None:
        p = trace.params.get("p")
    if gamma is None:
        gamma = trace.params.get("gamma", constants.alpha / (24 * r))
    gamma_n2p = gamma * n * n * p
    violations = []
    g0 = trace.g0_mask
    e0 = g0.bit_count()
    ab_steps = 0
    d_steps = 0
    d_run = 0
    prev_type = None
    prev_def = None
    for idx, step in enumerate(trace.steps):
        g_mask = trace.g_masks[idx]
        f_mask = trace.f_masks[idx]
        typ, choice, b = _switch_branch(fam, q, q_mask, ext_cut, g_mask,
                                        f_mask, resid_masks, m, gamma_n2p,
                                        constants.alpha)
        if typ != step["type"]:
            violations.append((idx, "branch mismatch: recomputed %s, "
                               "recorded %s" % (typ, step["type"])))
            break
        if choice is None or step["edge"] not in choice:
            violations.append((idx, "edge not in recomputed choice set"))
            break
        # state transition consistency
        bit = 1 << step["edge"]
        if typ == "d":
            ok = (trace.g_masks[idx + 1] == g_mask
                  and trace.f_masks[idx + 1] == (f_mask | bit))
        else:
            ok = (trace.g_masks[idx + 1] == (g_mask & ~bit)
                  and trace.f_masks[idx + 1] == f_mask)
        if not ok:
            violations.append((idx, "state transition inconsistent"))
            break
        cur_def = b - ((g_mask | f_mask) & ext_cut).bit_count()
        if prev_def is not None:
            if cur_def > prev_def:
                violations.append((idx, "deficit increased"))
            if prev_type in ("a", "b") and cur_def >= prev_def:
                violations.append((idx, "deficit did not drop on a/b step"))
        if typ in ("a", "b"):
            ab_steps += 1
        if typ == "d":
            d_steps += 1
            d_run += 1
            if d_run > r * r:
                violations.append((idx, "more than r^2 consecutive "
                                   "addition steps"))
        else:
            if prev_type == "d" and typ == "c":
                violations.append((idx, "addition step followed by type c"))
            d_run = 0
        prev_type = typ
        prev_def = cur_def
    # terminal state checks
    g_t = trace.g_masks[-1]
    f_t = trace.f_masks[-1]
    if q_mask & ~g_t:
        violations.append(("terminal", "structure not contained in G_t"))
    for i in range(len(trace.g_masks)):
        gi, fi = trace.g_masks[i], trace.f_masks[i]
        if gi & fi:
            violations.append((i, "G_i and F_i intersect"))
        if i != e0 - gi.bit_count() + fi.bit_count():
            violations.append((i, "edge-count identity broken"))
    if ab_steps > d:
        violations.append(("total", "more than d steps of types a/b"))
    if d_steps > r * r * (d + 1):
        violations.append(("total", "more than r^2(d+1) addition steps"))
    return {"ok": not violations, "violations": violations,
            "ab_steps": ab_steps, "d_steps": d_steps}
