"""Cut families, deficits, rigidity, cores, critical edges, and the
switching algorithm with its trace validator.

A cut family is every balanced compatible r-part assignment, stored once:
a digit array with one row per assignment, sorted, in which the columns of
coloured vertices hold their pinned parts, and a packed matrix of their
crossing masks (64-bit words) so that one numpy popcount scores every cut;
rigidity depends on the full argmax set, so enumeration is exact with a
hard guard and never sampled.  A switching run scores its family once and
then moves the scores by the pairs each step changes; what depends only on
a state's set of maximum cuts is computed once per set and family.
"""

import bisect
import collections
import functools
import math
import random

from .graph import PartTuple, TooLargeError, pair_mask, bitset_members
from .bounds import PAPER_DEFAULTS

FAMILY_GUARD = 10 ** 8          # assignments enumerated
FAMILY_BYTES = 2 ** 30          # bytes kept
# most rows of a family's low half-table, so of each chunk it writes:
# larger chunks raise the peak memory of the build's temporaries
_CHUNK = 1 << 12
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
    ``values`` scores every cut with one popcount per word; ``_planes``
    holds the same bits one byte plane per row (pair e is bit e & 7 of
    plane e >> 3), so that ``update`` reads a pair's crossing column from
    contiguous bytes.  All are allocated once, at the size the balance
    window allows, after two guards: at most ``FAMILY_GUARD``
    assignments enumerated and at most ``FAMILY_BYTES`` kept.  Scores
    take the smallest unsigned dtype that holds C(n, 2), and ``update``
    shifts each pair's column into one preallocated byte row.
    ``_argmax`` keeps, per alpha, what the switching branch logic derives
    from an argmax set alone (``_switch_branch``), so the runs and
    validations on one family compute it once per set.

    The rows are built from two half-tables (``_half_table``): the
    uncoloured vertices split into a high prefix, whose table starts from
    the pinned row, and a low suffix of at most ``_CHUNK`` assignments.
    A pair crosses exactly when exactly one of its ends lies in some part
    k < r-1 (a pair with both ends in part r-1 does not cross), so an
    assignment's crossing words are the OR over those k of the XOR of the
    star words of part k's vertices, and each table keeps those XORs per
    row.  Each high row then yields one chunk of the family: the low rows
    that its part counts keep balanced, their digits ORed with its digits
    and, for each k, their XORs with its XOR.
    """

    def __init__(self, n, r, delta, q=None):
        import numpy as np
        self.n = n
        self.r = r
        lo = (1 - delta) * n / r
        hi = (1 + delta) * n / r
        colour = q.colour if q is not None else ()
        pinned = {v: c - 1 for v, c in enumerate(colour) if c >= 1}
        free = [v for v in range(n) if v not in pinned]
        base = [0] * r              # pinned vertices in each part
        for k in pinned.values():
            if k >= r:
                raise ValueError("empty cut family")
            base[k] += 1
        if r ** len(free) > FAMILY_GUARD:
            raise TooLargeError("cut family too large: %d^%d assignments "
                                "to enumerate" % (r, len(free)))
        total = _balanced_count(len(free), r, lambda k, s:
                                lo <= base[k] + s <= hi)
        if not total:
            raise ValueError("empty cut family")
        n_words = max(1, -(-(n * (n - 1) // 2) // 64))
        digit = np.min_scalar_type(r - 1)
        row_bytes = n * digit.itemsize + 16 * n_words
        if total * row_bytes > FAMILY_BYTES:
            raise TooLargeError("cut family too large: %d cuts of %d bytes"
                                % (total, row_bytes))
        self.assignments = np.empty((total, n), digit)
        self._words = np.empty((n_words, total), np.uint64)
        self._planes = np.empty((8 * n_words, total), np.uint8)
        self._score = np.min_scalar_type(n * (n - 1) // 2)
        self._column = np.empty(total, np.uint8)
        self._argmax = {}
        stars = np.frombuffer(b"".join(
            m.to_bytes(8 * n_words, "little") for m in _vertex_pairs(n)),
            "<u8").reshape(n, n_words)
        low = len(free)
        while r ** low > _CHUNK:
            low -= 1
        split = len(free) - low
        high_digits, high_counts, high_acc = _half_table(
            r, free[:split], pinned, stars, digit)
        low_digits, low_counts, low_acc = _half_table(
            r, free[split:], {}, stars, digit)
        # the high rows' XORs as columns: (r-1, rows, words or planes, 1)
        high_words = high_acc[..., None]
        high_planes = _bytes(high_acc)[..., None]
        # high part counts -> the low rows they keep balanced, laid out as
        # the family is (digits by row, XORs by word and by byte plane) so
        # that each chunk is written without a transpose
        kept = {}
        at = 0
        for i, counts in enumerate(high_counts):
            key = counts.tobytes()
            if key not in kept:
                sizes = low_counts + counts
                keep = ((lo <= sizes) & (sizes <= hi)).all(axis=1)
                acc = low_acc[:, keep]
                kept[key] = (low_digits[keep],
                             acc.transpose(0, 2, 1).copy(),
                             _bytes(acc).transpose(0, 2, 1).copy())
            digits, words, planes = kept[key]
            end = at + len(digits)
            np.bitwise_or(digits, high_digits[i],
                          out=self.assignments[at:end])
            np.bitwise_or.reduce(words ^ high_words[:, i], axis=0,
                                 out=self._words[:, at:end])
            np.bitwise_or.reduce(planes ^ high_planes[:, i], axis=0,
                                 out=self._planes[:, at:end])
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
        """Crossing count of g_mask for every cut, as an array of the
        smallest unsigned dtype that holds C(n, 2) (uint8 up to n = 23)."""
        import numpy as np
        vals = np.zeros(len(self), self._score)
        for w, col in enumerate(self._words):
            word = np.uint64((g_mask >> (64 * w)) & _WORD)
            vals += np.bitwise_count(col & word)
        return vals

    def update(self, vals, old_mask, new_mask):
        """Turn vals, the scores of old_mask, into the scores of new_mask in
        place: a pair that left takes its crossing column off and a pair
        that entered adds it.  Exact for any two masks, and never below 0
        since the pairs that left go first; the column of pair e is
        ``(_words[e >> 6] >> (e & 63)) & 1``, shifted out of its plane
        into one preallocated row."""
        import numpy as np
        col = self._column
        for e in bitset_members(old_mask & ~new_mask):
            np.right_shift(self._planes[e >> 3], e & 7, out=col)
            np.subtract(vals, np.bitwise_and(col, 1, out=col), out=vals)
        for e in bitset_members(new_mask & ~old_mask):
            np.right_shift(self._planes[e >> 3], e & 7, out=col)
            np.add(vals, np.bitwise_and(col, 1, out=col), out=vals)

    def maxcut_ids(self, g_mask):
        vals = self.values(g_mask)
        b = vals.max()
        return int(b), (vals == b).nonzero()[0].tolist()

    def crossed_by_all(self, ids):
        """Bitmask of the pairs that cross every cut in ids (nonempty)."""
        import numpy as np
        words = np.bitwise_and.reduce(self._words[:, ids], axis=1)
        return int.from_bytes(words.astype("<u8").tobytes(), "little")


def _half_table(r, vertices, pinned, stars, digit):
    """Every assignment of vertices to parts 0..r-1, with each pinned
    vertex in its part, in ``itertools.product`` order: (digits, counts,
    acc).  Row i of digits holds the assignment's digits (0 in the columns
    of other vertices), counts[i, k] the vertices in part k, and acc[k, i]
    the XOR of the star words (stars[v]: the pairs touching v) of the
    vertices in part k, for k < r-1.  Built one vertex at a time: row i
    becomes rows r*i .. r*i + r-1, one per part of the new vertex."""
    import numpy as np
    n, n_words = stars.shape
    digits = np.zeros((1, n), digit)
    counts = np.zeros((1, r), np.int64)
    acc = np.zeros((r - 1, 1, n_words), np.uint64)
    for v, k in pinned.items():
        digits[0, v] = k
        counts[0, k] += 1
        if k < r - 1:
            acc[k, 0] ^= stars[v]
    for v in vertices:
        digits = np.repeat(digits, r, axis=0)
        digits.reshape(-1, r, n)[:, :, v] = np.arange(r)
        counts = (counts[:, None] + np.eye(r, dtype=np.int64)).reshape(-1, r)
        acc = np.repeat(acc, r, axis=1)
        for k in range(r - 1):
            acc[k, k::r] ^= stars[v]
    return digits, counts, acc


def _bytes(words):
    """The bytes of 64-bit words, least significant first, as a uint8
    array with 8 times as many entries on the last axis."""
    import numpy as np
    return np.ascontiguousarray(words, "<u8").view(np.uint8)


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
    vals = fam.values(g.edge_mask())
    b = int(vals.max())
    return b, b - int(vals[idx])


def _equivalence_classes(fam, maxcut_ids):
    """Vertices grouped by their part in every cut of maxcut_ids: each
    vertex's column of the cuts' rows is one opaque numpy key."""
    import numpy as np
    cols = np.ascontiguousarray(fam.assignments[maxcut_ids].T)
    keys = cols.view(np.dtype((np.void, cols.shape[1] * cols.itemsize)))
    sig = {}
    for v, key in enumerate(keys.ravel().tolist()):
        sig.setdefault(key, []).append(v)
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
    return _rigidity(fam, *fam.maxcut_ids(g.edge_mask()), alpha)


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


def crit_edges(g, fam, rigidity=None):
    """Edges of g crossing every maximum cut of the family.  When a
    rigidity result with a core is supplied, asserts crit contains the
    core-crossing edges of g."""
    gm = g.edge_mask()
    _, ids = fam.maxcut_ids(gm)
    mask = gm & fam.crossed_by_all(ids)
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


def _q_in_core(colours, core):
    """Every colour class of the structure inside some core class."""
    return core is not None and all(
        any(vk <= part for part in core.parts) for vk in colours)


_SwitchRun = collections.namedtuple("_SwitchRun", (
    "fam", "q_mask", "ext_cut", "int_mask", "resid_masks", "colours",
    "vertex_pairs", "m", "gamma_n2p", "alpha", "argmax"))


def _switch_inputs(q, cut, fam, fam_resid, m, gamma_n2p, alpha):
    """The constants of the branch logic for runs from a cut of the family:
    q's edge mask, the cut's crossing and internal pairs, the residual
    family as masks, the nonempty colour classes of q, the pairs that
    touch each vertex, and the family's per-argmax-set results under
    alpha (``_switch_branch``), shared by every run and validation on it."""
    # index_of refuses a cut outside the family
    ext_cut = fam.crossed_by_all([fam.index_of(cut)])
    n = fam.n
    classes = [frozenset(v for v, c in enumerate(q.colour) if c == k)
               for k in range(1, fam.r + 1)]
    colours = [vk for vk in classes if vk]
    # internal pairs of the cut: its crossing pairs' complement within K_n
    int_mask = ((1 << (n * (n - 1) // 2)) - 1) & ~ext_cut
    return _SwitchRun(fam, q.graph.edge_mask(), ext_cut, int_mask,
                      fam_resid, colours, _vertex_pairs(n), m,
                      gamma_n2p, alpha, fam._argmax.setdefault(alpha, {}))


@functools.lru_cache(maxsize=None)
def _vertex_pairs(n):
    """The pairs of K_n that touch each vertex, as masks."""
    return tuple(pair_mask(n, ((u, w) for w in range(n) if w != u))
                 for u in range(n))


def _switch_branch(run, g_mask, f_mask, vals):
    """Evaluate the branch conditions at one state from vals, the scores
    of its union g_mask | f_mask over the family; callers score the first
    state of a trace and carry the scores to each next one by the pairs
    that changed (``CutFamily.update``).  What depends on the argmax set
    alone, [the pairs crossing every cut in it, (rigid, core) once the
    rigidity step needs it], is kept on the family (``run.argmax``, keyed
    by the bytes of the cut ids), so a validation meets its run's sets
    again.  Returns (type, choice set of edge indices as a bitmask or None,
    maximum cut value of the union)."""
    import numpy as np
    fam = run.fam
    union = g_mask | f_mask
    b = int(vals.max())
    ids = np.flatnonzero(vals == b)
    key = ids.tobytes()
    facts = run.argmax.get(key)
    if facts is None:
        facts = run.argmax[key] = [fam.crossed_by_all(ids), None]
    crit = union & facts[0]
    int_mask = run.int_mask
    x_union = 0
    inside = g_mask & crit
    for w in run.resid_masks:
        if not w & ~inside:
            x_union |= w & int_mask
    if x_union.bit_count() >= run.m:
        return "a", x_union, b
    if (crit & int_mask).bit_count() >= run.gamma_n2p:
        choice = (g_mask & crit & int_mask) & ~run.q_mask
        return "b", choice, b
    if facts[1] is None:
        rep = _rigidity(fam, b, ids, run.alpha)
        facts[1] = rep["rigid"], rep["core"]
    rigid, core = facts[1]
    if not rigid:
        choice = (g_mask & int_mask) & ~(crit | run.q_mask)
        return "c", choice, b
    if _q_in_core(run.colours, core):
        return "e", None, b
    if core is None:
        return "stuck", None, b
    # step (d): smallest k whose colour class agrees with some core part in
    # at least one but not all maximum cuts
    maxcuts = fam.assignments[ids]
    heads = maxcuts[:, [min(part) for part in core.parts]]
    for vk in run.colours:
        agree = heads == maxcuts[:, [min(vk)]]
        eligible = (agree.any(axis=0) & ~agree.all(axis=0)).tolist()
        if any(eligible):
            target = set().union(*(part for part, ok
                                   in zip(core.parts, eligible) if ok))
            rows = run.vertex_pairs
            pairs = 0
            for u in vk:
                for w in target - {u}:
                    pairs |= rows[u] & rows[w]      # the pair {u, w}
            # crossing pairs of the cut that are in neither G nor F
            addable = run.ext_cut & ~union
            return "d", pairs & addable, b
    return "stuck", None, b


def run_switching(g0, q, cut, fam_resid, fam, vals, m, L, seed=0, p=None):
    """Execute the switching algorithm for L rounds or until it stops.

    q: ColoredGraph structure contained in g0; cut: compatible balanced
    partition; fam_resid: residual family (subsets of non-q pairs of K_n);
    fam: the CutFamily; vals: its scores of g0,
    ``fam.values(g0.edge_mask())``, which each step moves in place by the
    one pair it changed; m: the step-(a) threshold; gamma = alpha/(24r),
    from PAPER_DEFAULTS, is recorded in the trace.  Removals and additions
    are drawn uniformly from the sorted choice sets via the seeded stream.
    """
    n = g0.n
    if p is None:
        p = g0.edge_count() / (n * (n - 1) / 2)
    alpha = PAPER_DEFAULTS.alpha
    gamma = alpha / (24 * fam.r)
    run = _switch_inputs(q, cut, fam, fam_resid, m, gamma * n * n * p, alpha)
    g_mask = g0.edge_mask()
    if run.q_mask & ~g_mask:
        raise ValueError("structure not contained in the start graph")
    rng = random.Random(seed)
    params = {"m": m, "L": L, "gamma": gamma, "seed": seed, "p": p,
              "alpha": alpha}
    trace = SwitchTrace(n, g_mask, params)
    f_mask = 0
    for i in range(L):
        typ, choice, _ = _switch_branch(run, g_mask, f_mask, vals)
        if typ == "e":
            trace.terminal = {"reason": "e", "steps": i}
            break
        if typ == "stuck" or not choice:
            trace.terminal = {"reason": "stuck", "branch": typ, "steps": i}
            break
        size = choice.bit_count()
        pos = rng.randrange(size)
        e_idx = bitset_members(choice)[pos]
        union = g_mask | f_mask
        if typ == "d":
            f_mask |= 1 << e_idx
        else:
            g_mask &= ~(1 << e_idx)
        fam.update(vals, union, g_mask | f_mask)
        trace.steps.append({"i": i, "type": typ, "edge": e_idx,
                            "choice_size": size, "rng_pos": pos})
        trace.g_masks.append(g_mask)
        trace.f_masks.append(f_mask)
    else:
        trace.terminal = {"reason": "L", "steps": L}
    return trace


def validate_trace(trace, q, cut, d, fam, fam_resid, m, p=None):
    """Re-execute the branch logic of a trace and check the legal-sequence
    properties.

    (i) the final graph contains the structure; (ii) i = e(G0) - e(G_i) +
    e(F_i) with G_i, F_i disjoint; (iii) at most d removal steps of types
    a/b, with the deficit strictly decreasing on each and never increasing
    overall; (iv) at most r^2(d+1) addition steps, runs of consecutive
    additions at most r^2, and an addition step never immediately followed
    by type c.  Also confirms each step's type matches the first applicable
    branch, under the recorded gamma (else alpha/(24r)), and its edge
    belongs to the recomputed choice set.  The first recorded state is
    scored afresh and each later one from the previous one's scores by the
    pairs where the two recorded unions differ, so every state is scored
    as ``CutFamily.values`` would score it.  A trace
    without one G and one F mask per state fails with no other check, and
    one whose first state is not (G0, empty F) fails.
    Returns {"ok": bool, "violations": [...]}.
    """
    n = trace.n
    r = fam.r
    alpha = PAPER_DEFAULTS.alpha
    if p is None:
        p = trace.params.get("p")
    gamma = trace.params.get("gamma", alpha / (24 * r))
    run = _switch_inputs(q, cut, fam, fam_resid, m, gamma * n * n * p, alpha)
    states = len(trace.steps) + 1
    if len(trace.g_masks) != states or len(trace.f_masks) != states:
        return {"ok": False, "violations": [(
            "total", "%d states with %d G and %d F masks" % (
                states, len(trace.g_masks), len(trace.f_masks)))],
                "ab_steps": 0, "d_steps": 0}
    ext_cut = run.ext_cut
    violations = []
    g0 = trace.g0_mask
    e0 = g0.bit_count()
    if trace.g_masks[0] != g0 or trace.f_masks[0]:
        violations.append((0, "first state is not (G0, empty F)"))
    ab_steps = 0
    d_steps = 0
    d_run = 0
    prev_type = None
    prev_def = None
    prev_union = None
    for idx, step in enumerate(trace.steps):
        g_mask = trace.g_masks[idx]
        f_mask = trace.f_masks[idx]
        union = g_mask | f_mask
        if idx:
            fam.update(vals, prev_union, union)
        else:
            vals = fam.values(union)
        typ, choice, b = _switch_branch(run, g_mask, f_mask, vals)
        if typ != step["type"]:
            violations.append((idx, "branch mismatch: recomputed %s, "
                               "recorded %s" % (typ, step["type"])))
            break
        edge = step["edge"]
        if (choice is None or not isinstance(edge, int) or edge < 0
                or not choice >> edge & 1):
            violations.append((idx, "edge not in recomputed choice set"))
            break
        # state transition consistency
        bit = 1 << edge
        if typ == "d":
            ok = (trace.g_masks[idx + 1] == g_mask
                  and trace.f_masks[idx + 1] == (f_mask | bit))
        else:
            ok = (trace.g_masks[idx + 1] == (g_mask & ~bit)
                  and trace.f_masks[idx + 1] == f_mask)
        if not ok:
            violations.append((idx, "state transition inconsistent"))
            break
        cur_def = b - (union & ext_cut).bit_count()
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
        prev_union = union
    # terminal state checks
    g_t = trace.g_masks[-1]
    f_t = trace.f_masks[-1]
    if run.q_mask & ~g_t:
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
