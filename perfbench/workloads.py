"""The benchmark's four workloads.

Each workload runs in passes.  A pass is a fixed piece of work whose inputs
come from (seed, pass index); a run repeats passes with fresh inputs until
its time is used.  A pass returns one ``Op`` per operation: one host
decision, one Turan trial or one switching run.  Every op carries a
reference key and a comparable value, and the invariant it broke, if any.
A pass gets the run's calibration (``calib.Calibration``) and calls its
``gap()`` after each cell; the run also calls it before each sampled host.
Op times leave the gaps out.

The parameters below were chosen so that a 22 s run holds enough
operations for its medians to settle on a 2-CPU machine: per-host cost is
heavy-tailed (the slowest G(n,p) decisions cost 100x the median), so the
seeded workloads use many small hosts rather than a few large ones.
"""

import math
import time
from collections import Counter, namedtuple

from simonovits import cli, solvers
from simonovits.graph import complete_graph, graph_from_spec

# seconds: the op's time; end: perf_counter() when it ended, if it ran
Op = namedtuple("Op", "seconds key value error end", defaults=(None,))

# scan_threshold cells: n, trials per cell, and p/p_H multipliers per
# pattern.  None of them clips to p = 1 at this n.
SCAN_N = 10
SCAN_TRIALS = 10
SCAN_CELLS = (("triangle", (0.5, 0.75, 1.0)), ("c5", (0.5, 1.0)),
              ("k4", (0.5, 0.75)))

# Complete hosts with closed-form answers: ex = best r-partite = t_r(n) and
# optima_count = number of balanced complete r-partitions.
DENSE_HOSTS = (("triangle", 11), ("k4", 10), ("c5", 9))

# verify_lemma("pif-balanced") runs: pattern, n, p, trials.  The first is
# dominated by canonical_cut, the other two by the MILP.
TURAN_RUNS = (("triangle", 14, 0.6, 10), ("triangle", 12, 0.85, 10),
              ("c5", 10, 0.45, 10))

# simulate_switching runs: pattern, n, p, switching runs.
SWITCH_RUNS = (("triangle", 16, 0.5, 20), ("k4", 12, 0.7, 10))
SWITCH_ROUNDS = 200
SWITCH_M = 3

# labels whose calls the checks read in every run, traced or not
PROBES = {
    "scan_gnp": ("solvers.is_simonovits", "randgraphs.sample_gnp"),
    "dense_kn": (),
    "turan_gnp": ("randgraphs.sample_gnp", "solvers.max_H_free"),
    "switching": ("randgraphs.sample_gnp",),
}


def pass_seed(seed, k):
    return seed * 1000 + k


def _cells(cells, cal):
    """The cells of a pass, with a calibration gap after each one."""
    for cell in cells:
        yield cell
        cal.gap()


def _raised(exc):
    return Op(0.0, None, None, "raised %s: %s" % (type(exc).__name__, exc))


def _verdict_error(v):
    if v.decision not in ("yes", "no"):
        return "decision %s: %s" % (v.decision, v.reason)
    if v.decision == "yes" and (v.ex_size != v.best_rpartite
                                or not v.optima_count):
        return "yes with ex %s, best r-partite %s, %s optima" % (
            v.ex_size, v.best_rpartite, v.optima_count)
    if v.decision == "no" and None not in (v.ex_size, v.best_rpartite) \
            and v.ex_size < v.best_rpartite:
        return "no with ex %s below best r-partite %s" % (
            v.ex_size, v.best_rpartite)
    return None


def scan_pass(seed, k, rec, cal):
    ops = []
    for pattern, mults in _cells(SCAN_CELLS, cal):
        mark = len(rec.spans)
        try:
            rows, _ = cli.scan_threshold(pattern, [SCAN_N], SCAN_TRIALS,
                                         pass_seed(seed, k),
                                         multipliers=list(mults))
        except Exception as exc:  # the failing op is counted, the run goes on
            ops.append(_raised(exc))
            continue
        for s in rec.spans[mark:]:
            if s.label != "solvers.is_simonovits":
                continue
            (g, _), _, v = s.kept
            ops.append(Op(s.end - s.start,
                          "%s|%d|%x" % (pattern, g.n, g.edge_mask()),
                          [v.decision, v.ex_size, v.best_rpartite,
                           v.optima_count],
                          _verdict_error(v), s.end))
        for row in rows:
            if row["yes"] + row["no"] + row["indeterminate"] != SCAN_TRIALS:
                ops.append(Op(0.0, None, None, "scan row does not add up"))
    return ops


def compare_scan(got, ref):
    if got[0] != ref[0]:
        return "decision %s, reference %s" % (got[0], ref[0])
    for i, name in ((1, "ex_size"), (2, "best_rpartite")):
        if None not in (got[i], ref[i]) and got[i] != ref[i]:
            return "%s %s, reference %s" % (name, got[i], ref[i])
    if got[0] == "yes" and got[3] != ref[3]:
        return "optima_count %s, reference %s" % (got[3], ref[3])
    return None


def turan_number(n, r):
    sizes = [n // r + (i < n % r) for i in range(r)]
    return (n * n - sum(s * s for s in sizes)) // 2


def balanced_partitions(n, r):
    sizes = [n // r + (i < n % r) for i in range(r)]
    count = math.factorial(n)
    for s in sizes:
        count //= math.factorial(s)
    for mult in Counter(sizes).values():
        count //= math.factorial(mult)
    return count


def dense_pass(seed, k, rec, cal):
    ops = []
    for pattern, n in _cells(DENSE_HOSTS, cal):
        h = graph_from_spec(pattern)
        r = h.chromatic_number() - 1
        t0 = time.perf_counter()
        try:
            v = solvers.is_simonovits(complete_graph(n), h)
        except Exception as exc:
            ops.append(_raised(exc))
            continue
        t1 = time.perf_counter()
        want = ["yes", turan_number(n, r), turan_number(n, r),
                balanced_partitions(n, r)]
        got = [v.decision, v.ex_size, v.best_rpartite, v.optima_count]
        err = None if got == want else "K%d/%s gave %s, closed form %s" % (
            n, pattern, got, want)
        ops.append(Op(t1 - t0, None, got, err, t1))
    return ops


def _interval_ops(rec, mark, end, cal):
    """(duration, end) of the intervals between successive sample_gnp calls
    after span ``mark``, less the calibration gaps in them; each sample
    starts one trial or run, the last one ends at ``end``."""
    starts = [s.start for s in rec.spans[mark:]
              if s.label == "randgraphs.sample_gnp"]
    return [(b - a - cal.excluded(a, b), b)
            for a, b in zip(starts, starts[1:] + [end])]


def turan_pass(seed, k, rec, cal):
    ops = []
    for pattern, n, p, trials in _cells(TURAN_RUNS, cal):
        r = graph_from_spec(pattern).chromatic_number() - 1
        mark = len(rec.spans)
        try:
            rep = cli.verify_lemma("pif-balanced", pattern=pattern, n=n, p=p,
                                   trials=trials, seed=pass_seed(seed, k))
        except Exception as exc:
            ops.append(_raised(exc))
            continue
        end = time.perf_counter()
        hosts = [s.kept[2] for s in rec.spans[mark:]
                 if s.label == "randgraphs.sample_gnp"]
        exs = [s.kept[2][0] for s in rec.spans[mark:]
               if s.label == "solvers.max_H_free"]
        details = rep["details"]
        if not len(hosts) == len(exs) == len(details) == trials:
            ops.append(Op(0.0, None, None, "report has %d trials, ran %d" % (
                len(details), len(hosts))))
            continue
        if rep["balanced_fraction"] != sum(d["balanced"]
                                           for d in details) / trials:
            ops.append(Op(0.0, None, None, "balanced_fraction mismatch"))
        times = _interval_ops(rec, mark, end, cal)
        for (dt, t), g, ex, d in zip(times, hosts, exs, details):
            e = g.edge_count()
            err = None
            if not (e * (r - 1) <= ex * r and ex <= e):
                err = "ex %d outside [%d(r-1)/r, %d]" % (ex, e, e)
            elif len(d["sizes"]) != r or sum(d["sizes"]) != n:
                err = "cut sizes %s do not split %d into %d" % (
                    d["sizes"], n, r)
            ops.append(Op(dt, "%s|%d|%x" % (pattern, n, g.edge_mask()),
                          [ex, d["balanced"], d["sizes"]], err, t))
    return ops


def switch_pass(seed, k, rec, cal):
    ops = []
    for pattern, n, p, runs in _cells(SWITCH_RUNS, cal):
        mark = len(rec.spans)
        s = pass_seed(seed, k)
        try:
            summary = cli.simulate_switching(pattern, n, p, runs,
                                             SWITCH_ROUNDS, SWITCH_M, s)
        except Exception as exc:
            ops.append(_raised(exc))
            continue
        end = time.perf_counter()
        results = summary["results"]
        times = _interval_ops(rec, mark, end, cal)
        if not len(results) == len(times) == runs or \
                summary["all_valid"] != all(x["ok"] for x in results):
            ops.append(Op(0.0, None, None, "summary does not match runs"))
            continue
        for (dt, t), x in zip(times, results):
            err = None
            if not x["ok"] or x["violations"]:
                err = "invalid trace: %s" % (x["violations"],)
            elif x["steps"] > SWITCH_ROUNDS:
                err = "%d steps exceed %d rounds" % (x["steps"],
                                                     SWITCH_ROUNDS)
            ops.append(Op(dt, "%s|%d|%s|%d|%d" % (pattern, n, p, s, x["run"]),
                          [x["steps"], x["terminal"]["reason"], x["ab_steps"],
                           x["d_steps"]], err, t))
    return ops


def compare_exact(got, ref):
    return None if got == ref else "%s, reference %s" % (got, ref)


PASSES = {"scan_gnp": scan_pass, "dense_kn": dense_pass,
          "turan_gnp": turan_pass, "switching": switch_pass}
COMPARE = {"scan_gnp": compare_scan, "turan_gnp": compare_exact,
           "switching": compare_exact}
