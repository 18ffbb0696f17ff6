"""Benchmark of the Simonovits toolkit, driven in-process through its public
functions.

    python3 perfbench/run.py --workload scan_gnp --seed 0 --seconds 22 \
        --trace 0

Run from the repository root; the package is imported from ``src/``.  One
run measures set-up in fresh processes, then repeats passes of the workload
(see ``workloads.py``) until ``--seconds`` are used, checks every operation
and prints a report whose last line is one JSON object.  Chunks of a fixed
calibration loop (``calib.py``) run between set-ups and between the cells
of each pass, and every reported time is in calibrated seconds: scaled by
the loop's reference chunk time over its mean chunk time around the
set-ups or the passes, so that the host's drifting speed cancels.
``--trace 0`` gives the end-to-end metrics; ``--trace 1`` runs each pass
untraced and then traced on the same inputs and gives the per-layer
metrics, including the tracing overhead.  ``--write-reference`` records
the reference outputs that runs on the reference seeds are compared with.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from calib import REF_CHUNK_S, Calibration, chunk
from spans import TARGETS, Recorder, aggregate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("scan_gnp", "dense_kn", "turan_gnp", "switching")
REFERENCE_SEEDS = (0, 7)
REFERENCE_PASSES = 24
SETUP_REPEATS = 5
# seconds of calibration before each set-up and after the last one, and
# before the first pass; the gaps in passes take this share of the time
CAL_SETUP_S = 0.2
CAL_FIRST_S = 0.5
CAL_SHARE = 0.2

SETUP_CODE = """import sys
sys.path.insert(0, sys.argv[1])
from simonovits.graph import complete_graph, graph_from_spec
from simonovits.solvers import is_simonovits
v = is_simonovits(complete_graph(5), graph_from_spec("triangle"))
assert v.decision == "yes"
"""

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "ops_per_s": "1/s",
    "op_p50_ms": "ms", "ok_frac": "frac", "peak_rss_mb": "MB",
}


def per_layer_unit(name):
    """Unit of a per-layer metric, read from the last part of its name."""
    last = name.rsplit(".", 1)[1]
    if last in ("s", "self_s", "overhead_s"):
        return "s"
    if last == "chunk_ms":
        return "ms"
    if last in ("share", "hit_frac", "gap", "overhead_frac"):
        return "frac"
    return "count"


def measure_setup():
    """Median wall time of a fresh interpreter that imports the package and
    makes one decision, which loads scipy's MILP solver; calibrated by the
    chunks around the set-ups.  Also returns the calibration."""
    cal = Calibration(CAL_SHARE)
    times = []
    for _ in range(SETUP_REPEATS):
        cal.run(CAL_SETUP_S)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, SRC], cwd=ROOT,
                       check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    cal.run(CAL_SETUP_S)
    return cal.scales()[0] * statistics.median(times), cal


def run_pass(name, seed, k, rec, labels, cal, hooks=None):
    """One pass.  Its wall and CPU time leave out the calibration gaps in
    it."""
    from workloads import PASSES, PROBES
    spent_wall, spent_cpu = cal.spent_wall, cal.spent_cpu
    rec.install(labels, keep=PROBES[name], hooks=hooks)
    try:
        w0, c0 = time.perf_counter(), time.process_time()
        ops = PASSES[name](seed, k, rec, cal)
        wall = time.perf_counter() - w0 - (cal.spent_wall - spent_wall)
        cpu = time.process_time() - c0 - (cal.spent_cpu - spent_cpu)
    finally:
        rec.uninstall()
    return {"wall": wall, "cpu": cpu, "ops": ops}


def run_window(name, seed, seconds, trace):
    """Passes until the next one would overrun ``seconds``; at least one.
    Untraced passes also run a calibration gap before each sampled host,
    so the loop follows the load closely; traced passes run gaps between
    cells only, which keeps them out of the stage spans.  With tracing,
    each pass index runs untraced and then traced, and the traced passes
    share one recorder."""
    from workloads import PROBES
    plain, traced = [], []
    tracer = Recorder()
    cal = Calibration(CAL_SHARE)
    t_begin = time.perf_counter()
    cal.run(CAL_FIRST_S)
    costs = []
    k = 0
    while not costs or (time.perf_counter() - t_begin
                        + statistics.median(costs) <= seconds):
        t0 = time.perf_counter()
        plain.append(run_pass(name, seed, k, Recorder(), PROBES[name], cal,
                              {"randgraphs.sample_gnp": cal.gap}))
        if trace:
            traced.append(run_pass(name, seed, k, tracer, TARGETS, cal))
        costs.append(time.perf_counter() - t0)
        k += 1
    return plain, traced, tracer.spans, cal


def check(name, seed, passes, reference):
    """(attempted, failures, checked): every op's invariant, plus the
    reference value wherever the reference has the op's key."""
    from workloads import COMPARE
    ref = reference.get(name, {}) if seed in REFERENCE_SEEDS else {}
    attempted, checked, failures = 0, 0, []
    for p in passes:
        for op in p["ops"]:
            attempted += 1
            err = op.error
            if err is None and op.key in ref:
                checked += 1
                err = COMPARE[name](op.value, ref[op.key])
            elif err is None and name == "dense_kn":
                checked += 1
            if err is not None:
                failures.append("%s: %s" % (op.key, err))
    return attempted, failures, checked


def end_to_end(plain, setup_s, attempted, failures, cal):
    """The end-to-end metrics, every time calibrated, and the sorted
    calibrated operation times (each by the chunks near it)."""
    wall_scale, cpu_scale = cal.scales()
    ops = sorted(op.seconds * (cal.near_scale(op.end - op.seconds, op.end)
                               if op.end else wall_scale)
                 for p in plain for op in p["ops"])
    return {
        "setup_s": setup_s,
        "wall_s": wall_scale * statistics.median(p["wall"] for p in plain),
        "cpu_s": cpu_scale * statistics.median(p["cpu"] for p in plain),
        "ops_per_s": statistics.median(len(p["ops"]) / p["wall"]
                                       for p in plain) / wall_scale,
        "op_p50_ms": 1000 * statistics.median(ops),
        "ok_frac": 1 - len(failures) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }, ops


def per_layer(plain, traced, spans, cal):
    """Stage figures per traced pass, seconds calibrated; shares are of the
    traced pass time."""
    agg = aggregate(spans)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "counts": {}}
    n = len(traced)
    scale = cal.scales()[0]
    wall = sum(p["wall"] for p in traced) / n

    def calls(label):
        return agg.get(label, empty)["calls"]

    def count(label, key):
        return agg.get(label, empty)["counts"].get(key, 0)

    m = {}
    for label in TARGETS:
        s = agg.get(label, empty)["s"] / n
        m[label + ".calls"] = calls(label) / n
        m[label + ".s"] = scale * s
        m[label + ".share"] = s / wall
    witness_calls = calls("solvers.free_edge_witness")
    m["solvers.free_edge_witness.hit_frac"] = count(
        "solvers.free_edge_witness", "hits") / witness_calls \
        if witness_calls else 0.0
    m["solvers.max_H_free.self_s"] = scale * agg.get(
        "solvers.max_H_free", empty)["self_s"] / n
    m["solvers.enumerate_optimal_H_free.optima"] = count(
        "solvers.enumerate_optimal_H_free", "optima") / n
    milp_calls = calls("scipy.optimize.milp")
    m["scipy.optimize.milp.nodes"] = count("scipy.optimize.milp", "nodes") / n
    m["scipy.optimize.milp.gap"] = count("scipy.optimize.milp", "gap") \
        / milp_calls if milp_calls else 0.0
    m["copies.enumerate_copies.copies"] = count(
        "copies.enumerate_copies", "copies") / n
    decisions = calls("solvers.is_simonovits")
    m["copies.enumerate_copies.per_decision"] = calls(
        "copies.enumerate_copies") / decisions if decisions else 0.0
    m["rigidity.CutFamily.size"] = count("rigidity.CutFamily", "size") / n
    m["rigidity.run_switching.steps"] = count(
        "rigidity.run_switching", "steps") / n
    m["cli.scan_threshold.trials"] = count("cli.scan_threshold", "trials") / n
    m["cli.scan_threshold.solves"] = sum(
        1 for s in spans if s.label == "solvers.is_simonovits"
        and s.parent >= 0
        and spans[s.parent].label == "cli.scan_threshold") / n
    overhead = statistics.median(
        t["wall"] - p["wall"] for p, t in zip(plain, traced))
    m["trace.overhead_s"] = scale * overhead
    m["trace.overhead_frac"] = overhead / statistics.median(
        p["wall"] for p in plain)
    m["calib.chunk_ms"] = 1000 * statistics.fmean(cal.walls)
    return m


def tail(ops):
    """Highest percentile with at least ten samples above it, or None when
    that percentile would not be above the median."""
    if len(ops) < 20:
        return None
    return 100.0 * (len(ops) - 10) / len(ops), 1000 * ops[len(ops) - 11]


def machine_line():
    import numpy
    import scipy
    return "machine: nproc=%d python=%s numpy=%s scipy=%s" % (
        len(os.sched_getaffinity(0)), sys.version.split()[0],
        numpy.__version__, scipy.__version__)


def import_package():
    sys.path.insert(0, SRC)
    import simonovits
    if not os.path.abspath(simonovits.__file__).startswith(SRC + os.sep):
        raise ImportError("simonovits imported from %s, not %s"
                          % (simonovits.__file__, SRC))
    from simonovits.graph import complete_graph, graph_from_spec
    from simonovits.solvers import is_simonovits
    is_simonovits(complete_graph(5), graph_from_spec("triangle"))


def write_reference():
    from workloads import PASSES, PROBES
    out = {}
    cal = Calibration(0.0)  # one chunk per gap; its figures are unused
    for name in PASSES:
        if name == "dense_kn":
            continue
        ref = out[name] = {}
        for seed in REFERENCE_SEEDS:
            for k in range(REFERENCE_PASSES):
                ops = run_pass(name, seed, k, Recorder(), PROBES[name],
                               cal)["ops"]
                for op in ops:
                    if op.error is not None:
                        raise SystemExit("%s seed %d: %s" % (name, seed,
                                                             op.error))
                    ref[op.key] = op.value
        print("%s: %d reference outputs" % (name, len(ref)), flush=True)
    with open(REFERENCE, "w") as fh:
        json.dump(out, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=22)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "simonovits", "__init__.py")):
        sys.stderr.write("no package at %s; run from a repository "
                         "checkout\n" % SRC)
        return 2
    if not (args.write_reference or args.workload):
        ap.error("--workload is required")
    chunk()  # loads scipy.optimize, so later chunks time only the loop
    setup_s, setup_cal = (None, None) if args.write_reference \
        else measure_setup()
    import_package()
    if args.write_reference:
        write_reference()
        return 0
    with open(REFERENCE) as fh:
        reference = json.load(fh)

    name = args.workload
    plain, traced, spans, cal = run_window(name, args.seed, args.seconds,
                                           args.trace)
    attempted, failures, checked = check(name, args.seed, plain + traced,
                                         reference)
    e2e, ops = end_to_end(plain, setup_s, attempted, failures, cal)

    print(machine_line())
    print("workload %s seed %d: %d passes, %d ops, %s" % (
        name, args.seed, len(plain), len(ops),
        "reference checked %d of %d ops" % (checked, attempted)
        if checked else "unchecked (invariants only)"))
    print("calibration: mean chunk %.4g ms over %d chunks in set-up, "
          "%.4g ms over %d in the passes (reference %.4g ms); times below "
          "are calibrated, raw wall_s %.6g s" % (
              1000 * statistics.fmean(setup_cal.walls), len(setup_cal.walls),
              1000 * statistics.fmean(cal.walls), len(cal.walls),
              1000 * REF_CHUNK_S,
              statistics.median(p["wall"] for p in plain)))
    for key, unit in END_TO_END.items():
        print("  %-12s %.6g %s" % (key, e2e[key], unit))
    t = tail(ops)
    print("  %-12s %s" % ("op_tail_ms", "%.6g ms (p%.1f of %d ops)" % (
        t[1], t[0], len(ops)) if t else "omitted (%d ops)" % len(ops)))
    print("  %-12s %.6g (%d of %d)" % ("failed_frac",
                                       len(failures) / attempted,
                                       len(failures), attempted))
    units = END_TO_END
    metrics = e2e
    if args.trace:
        metrics = per_layer(plain, traced, spans, cal)
        units = {key: per_layer_unit(key) for key in metrics}
        for key, unit in units.items():
            print("  %-44s %.6g %s" % (key, metrics[key], unit))
    for f in failures[:10]:
        sys.stderr.write("FAILED %s\n" % f)
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
