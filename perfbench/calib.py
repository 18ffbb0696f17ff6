"""A fixed calibration loop that measures how fast the machine runs now.

On a shared host the speed of the same code drifts by 30-70 % over minutes
as other tenants load the cores (the run's own CPU time slows as much as
its wall time, so it is contention, not time-sharing).  The benchmark runs
this loop in short gaps through its passes and reports every
time in *calibrated seconds*: measured seconds times ``REF_CHUNK_S`` over
the mean chunk time of the same run, or for one operation of the chunks
near it (the mean, because a pass's time adds up every burst of load, and
so does the mean).  A slowdown that hits the
program and the loop alike cancels; a change to the program does not touch
the loop, which uses nothing from the package.

A chunk mixes the kinds of work the package does: pure-Python bitmask
backtracking (clique counting, as in copy and optimum enumeration), scans
over several megabytes of edge masks, once in memory order and once in a
shuffled order (the switching moves scan a cut family of that size, and
optimum enumeration walks large sets), and a small HiGHS MILP (a minimum
triangle transversal, as in ``max_H_free``).  The mix matters because
contention slows each kind of work by its own factor: compute-bound loops
slow the most, cache-missing walks the least, and the package's stages lie
in between.
"""

import bisect
import random
import statistics
import time

import numpy as np

# Chunk time on a quiet run of the 2-CPU Xeon the benchmark was
# written on; only a scale, so calibrated seconds read close to seconds.
REF_CHUNK_S = 0.05
# an op's own scale comes from the chunks that started within this many
# seconds of it, when there are at least MIN_CHUNKS of them
NEAR_S = 2.0
MIN_CHUNKS = 5


def _graph(n, p, seed):
    rnd = random.Random(seed)
    adj = [0] * n
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rnd.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
                edges.append((i, j))
    return adj, edges


CLIQUE_ADJ, _ = _graph(50, 0.5, 1)
CLIQUE_REPEATS = 4
CLIQUES = CLIQUE_REPEATS * 8099
_rnd = random.Random(3)
MASKS = [_rnd.getrandbits(120) for _ in range(125000)]
SHUFFLED = MASKS[:]
_rnd.shuffle(SHUFFLED)
PROBE = _rnd.getrandbits(120)
MASK_BITS = 7629668
MILP_ADJ, MILP_EDGES = _graph(15, 0.75, 2)
MILP_OPT = 26


def _count_cliques(adj):
    count = 0
    stack = [(1 << len(adj)) - 1]
    while stack:
        cand = stack.pop()
        count += 1
        while cand:
            low = cand & -cand
            cand ^= low
            stack.append(cand & adj[low.bit_length() - 1])
    return count


def _scan_masks(masks):
    return sum([(m & PROBE).bit_count() for m in masks])


def _transversal_milp():
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import lil_matrix
    idx = {e: k for k, e in enumerate(MILP_EDGES)}
    n = len(MILP_ADJ)
    tris = [(a, b, c) for a, b in MILP_EDGES for c in range(b + 1, n)
            if (a, c) in idx and (b, c) in idx]
    a = lil_matrix((len(tris), len(MILP_EDGES)))
    for row, (u, v, w) in enumerate(tris):
        a[row, idx[(u, v)]] = a[row, idx[(u, w)]] = a[row, idx[(v, w)]] = 1
    m = len(MILP_EDGES)
    res = milp(c=np.ones(m), integrality=np.ones(m), bounds=Bounds(0, 1),
               constraints=LinearConstraint(a.tocsr(), 1, np.inf))
    return round(res.fun)


def chunk():
    """Wall and CPU seconds of one chunk; raises if the loop went wrong."""
    w0, c0 = time.perf_counter(), time.process_time()
    cliques = sum(_count_cliques(CLIQUE_ADJ) for _ in range(CLIQUE_REPEATS))
    bits = _scan_masks(MASKS) + _scan_masks(SHUFFLED)
    opt = _transversal_milp()
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    if (cliques, bits, opt) != (CLIQUES, MASK_BITS, MILP_OPT):
        raise RuntimeError("calibration loop computed %d cliques, %d bits, "
                           "optimum %d" % (cliques, bits, opt))
    return wall, cpu


class Calibration:
    """Chunk times gathered over one run, and the time spent on them.

    Each ``gap()`` adds ``share`` of the time since the previous gap to the
    calibration time owed and runs chunks while any is owed, so the loop
    takes that share of the run and samples the machine evenly through the
    work it is interleaved with.
    """

    def __init__(self, share):
        self.share = share
        self.walls, self.cpus = [], []
        self.spent_wall = self.spent_cpu = 0.0
        self._starts, self._ends = [], []
        self._owed = 0.0
        self._last = time.perf_counter()

    def _chunk(self):
        self._starts.append(time.perf_counter())
        wall, cpu = chunk()
        self._ends.append(time.perf_counter())
        self.walls.append(wall)
        self.cpus.append(cpu)
        self.spent_wall += wall
        self.spent_cpu += cpu
        return wall

    def run(self, seconds):
        """Chunks until ``seconds`` are used; at least one."""
        t_end = time.perf_counter() + seconds
        self._chunk()
        while time.perf_counter() < t_end:
            self._chunk()
        self._last = time.perf_counter()

    def gap(self):
        self._owed += self.share * (time.perf_counter() - self._last)
        while self._owed > 0:
            self._owed -= self._chunk()
        self._last = time.perf_counter()

    def excluded(self, t0, t1):
        """Seconds of chunks that ran between ``t0`` and ``t1``."""
        total = 0.0
        for i in range(bisect.bisect_left(self._ends, t0), len(self._ends)):
            if self._starts[i] >= t1:
                break
            total += min(self._ends[i], t1) - max(self._starts[i], t0)
        return total

    def scales(self):
        """(wall, CPU) factors from seconds to calibrated seconds."""
        return (REF_CHUNK_S / statistics.fmean(self.walls),
                REF_CHUNK_S / statistics.fmean(self.cpus))

    def near_scale(self, t0, t1):
        """Wall factor from the chunks near ``t0``..``t1``, which follow a
        long op's own load better than the run's mean; the run's factor
        when too few chunks ran near it."""
        lo = bisect.bisect_left(self._starts, t0 - NEAR_S)
        hi = bisect.bisect_right(self._starts, t1 + NEAR_S)
        if hi - lo < MIN_CHUNKS:
            return self.scales()[0]
        return REF_CHUNK_S / statistics.fmean(self.walls[lo:hi])
