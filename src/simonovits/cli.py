"""Command-line surface: pattern analysis, Simonovits decisions, threshold
scans, switching simulation, bound verification, and config-driven runs.

All outputs are machine-readable (JSON or CSV), written atomically, and
fully determined by (arguments, seed).  Exit codes: 0 success / yes,
2 config error, 3 decision no, 4 indeterminate, 5 guard refusal.
"""

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
import time

from .graph import (Graph, ColoredGraph, PartTuple, TooLargeError,
                    graph_from_spec, is_delta_balanced)
from .patterns import PatternProfile
from .solvers import (SimonovitsVerdict, is_simonovits, max_H_free,
                      canonical_cut)
from .randgraphs import RngStream, sample_gnp
from . import bounds
from .copies import residual_family
from .rigidity import CutFamily, run_switching, validate_trace

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO = 3
EXIT_INDET = 4
EXIT_GUARD = 5

DEFAULT_MULTIPLIERS = (0.25, 0.5, 1.0, 2.0, 4.0)
# trial t of scan cell c draws from stream c * CELL_STREAMS + t, so a cell
# runs at most CELL_STREAMS trials before it would reuse the next cell's
CELL_STREAMS = 10007


class ConfigError(Exception):
    pass


def _atomic_write(path, text):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(payload, json_out=None):
    text = json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
    if json_out:
        _atomic_write(json_out, text)
    else:
        sys.stdout.write(text)


# -- subcommands ---------------------------------------------------------

def cmd_analyze_pattern(args):
    h = graph_from_spec(args.pattern)
    profile = PatternProfile(h)
    _emit(profile.as_dict(), args.json_out)
    return EXIT_OK


def cmd_check_simonovits(args):
    g = graph_from_spec(args.graph)
    h = graph_from_spec(args.pattern)
    verdict = is_simonovits(g, h)
    _emit(verdict.as_dict(), args.json_out)
    return {"yes": EXIT_OK, "no": EXIT_NO,
            "indeterminate": EXIT_INDET}[verdict.decision]


def scan_threshold(pattern, n_grid, trials=20, seed=0, p_grid=None,
                   multipliers=DEFAULT_MULTIPLIERS, timing=True):
    """Trials x is_simonovits over an (n, p) grid.

    Returns (rows, flagged) where each row is a dict with the cell counts;
    verdicts are memoised per sampled graph so repeated samples cost one
    solver call.  A host that a size guard refuses counts as indeterminate.
    flagged lists cells that were fully indeterminate.
    """
    if not n_grid:
        raise ConfigError("empty n grid")
    if trials < 1:
        raise ConfigError("trials must be at least 1")
    if trials > CELL_STREAMS:
        raise ConfigError("trials must be at most %d" % CELL_STREAMS)
    if p_grid is not None and not p_grid:
        raise ConfigError("empty p grid")
    if p_grid is None and not multipliers:
        raise ConfigError("empty multiplier grid")
    if p_grid is None and not all(map(math.isfinite, multipliers)):
        raise ConfigError("multipliers must be finite: %r" % (multipliers,))
    h = graph_from_spec(pattern)
    profile = PatternProfile(h)
    cache = {}
    rows = []
    flagged = []
    cell = 0
    for n in n_grid:
        p_h = profile.p_threshold(n)
        if p_grid is not None:
            ps = [(p, p / p_h) for p in p_grid]
        else:
            ps = [(min(1.0, m * p_h), m) for m in multipliers]
        for (p, ratio) in ps:
            if not 0 <= p <= 1:
                raise ConfigError("p out of range: %r" % p)
            counts = {"yes": 0, "no": 0, "indeterminate": 0}
            witnesses = 0
            elapsed = 0.0
            for t in range(trials):
                g = sample_gnp(n, p, RngStream(seed, cell * CELL_STREAMS + t))
                key = (n, g.edge_mask())
                t0 = time.perf_counter()
                if key not in cache:
                    try:
                        cache[key] = is_simonovits(g, h)
                    except TooLargeError as exc:
                        cache[key] = SimonovitsVerdict(
                            "indeterminate", reason="guard refusal: %s" % exc)
                verdict = cache[key]
                elapsed += time.perf_counter() - t0
                counts[verdict.decision] += 1
                if verdict.decision == "no" and verdict.ex_size is None:
                    witnesses += 1
            row = {"n": n, "p": p, "p_ratio": ratio,
                   "yes": counts["yes"], "no": counts["no"],
                   "indeterminate": counts["indeterminate"],
                   "witness_rate": witnesses / trials,
                   "mean_runtime": elapsed / trials if timing else 0.0}
            if counts["indeterminate"] == trials:
                flagged.append((n, p))
            rows.append(row)
            cell += 1
    return rows, flagged


def _scan_csv(rows):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["n", "p", "p/p_H", "yes", "no", "indeterminate",
                "witness_rate", "mean_runtime"])
    for r in rows:
        w.writerow([r["n"], "%.8f" % r["p"], "%.6f" % r["p_ratio"],
                    r["yes"], r["no"], r["indeterminate"],
                    "%.4f" % r["witness_rate"], "%.4f" % r["mean_runtime"]])
    return buf.getvalue()


def cmd_scan_threshold(args):
    n_grid = _int_list(args.n_grid)
    p_grid = _float_list(args.p_grid) if args.p_grid else None
    mults = _float_list(args.multipliers) if args.multipliers \
        else DEFAULT_MULTIPLIERS
    rows, flagged = scan_threshold(args.pattern, n_grid, args.trials,
                                   args.seed, p_grid=p_grid,
                                   multipliers=mults,
                                   timing=not args.no_timing)
    text = _scan_csv(rows)
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    for (n, p) in flagged:
        sys.stderr.write("cell n=%d p=%.6f fully indeterminate\n" % (n, p))
    return EXIT_OK


def _stable_kth(vals, k):
    """np.argsort(vals, kind="stable")[k] without sorting: the k-th
    smallest value, then the right one of its ties in index order."""
    import numpy as np
    v = np.partition(vals, k)[k]
    return int(np.flatnonzero(vals == v)[k - np.count_nonzero(vals < v)])


def simulate_switching(pattern="triangle", n=12, p=0.5, runs=10, rounds=200,
                       m=3, seed=0, delta=0.4):
    """Seeded switching runs from a single-edge structure, each validated.

    Start cuts are drawn from the compatible balanced family with a bias
    towards positive deficit so the removal branches are exercised.
    """
    if runs < 1:
        raise ConfigError("runs must be at least 1")
    if rounds < 0:
        raise ConfigError("rounds must be at least 0")
    if n < 2:
        raise ConfigError("n must be at least 2: the structure is the "
                          "edge (0, 1)")
    h = graph_from_spec(pattern)
    r = h.chromatic_number() - 1
    if r < 2:
        raise ConfigError("pattern must have chromatic number at least 3")
    q_graph = Graph(n, [(0, 1)])
    colour = [1, 2] + [0] * (n - 2)
    q = ColoredGraph(q_graph, colour)
    fam = CutFamily(n, r, delta, q=q)
    fam_resid = residual_family(h, q, n, "low")
    results = []
    for t in range(runs):
        g = sample_gnp(n, p, RngStream(seed, t)).with_edge(0, 1)
        vals = fam.values(g.edge_mask())
        cut = _stable_kth(vals, (t * len(vals) // runs) % len(vals))
        trace = run_switching(g, q, cut, fam_resid, fam, vals, m=m, L=rounds,
                              seed=seed * 1000003 + t, p=p)
        check = validate_trace(trace, q, cut, d=n * n, fam=fam,
                               fam_resid=fam_resid, m=m, p=p)
        results.append({"run": t, "steps": len(trace.steps),
                        "terminal": trace.terminal, "ok": check["ok"],
                        "violations": check["violations"],
                        "ab_steps": check["ab_steps"],
                        "d_steps": check["d_steps"]})
    summary = {"pattern": pattern, "n": n, "p": p, "runs": runs, "L": rounds,
               "m": m, "seed": seed, "family_size": len(fam),
               "all_valid": all(x["ok"] for x in results),
               "results": results}
    return summary


def cmd_simulate_switching(args):
    summary = simulate_switching(args.pattern, args.n, args.p, args.runs,
                                 args.rounds, args.m, args.seed,
                                 delta=args.delta)
    _emit(summary, args.json_out)
    return EXIT_OK


def verify_lemma(lemma, pattern="triangle", n=12, p=0.6, delta=0.4,
                 trials=50, seed=0, sizes=None, beta=0.01, c=1.0):
    """Standardised verification report for one named bound or lemma.  Only
    the lemmas that read the pattern resolve it, and only those that read
    n and p check them."""
    if lemma in ("uppertail", "balanced", "sum", "fql", "high",
                 "pif-balanced"):
        if n < 1:
            raise ConfigError("need n >= 1")
        if not 0 <= p <= 1:
            raise ConfigError("need 0 <= p <= 1")
    if lemma == "poisson":
        cases = [(5.0, 0.1), (10.0, 0.5), (20.0, 0.9)]
        return {"lemma": lemma,
                "cases": [{"mu": mu, "alpha": a,
                           **bounds.poisson_lower_tail(mu, a)}
                          for (mu, a) in cases]}
    if lemma == "janson":
        cases = [(10.0, 2.0, 0.1, 0.05, 0.05), (50.0, 10.0, 0.2, 0.1, 0.1)]
        return {"lemma": lemma,
                "cases": [{"mu": mu, "delta": d, "alpha": a, "eta": e,
                           "p": pp,
                           **bounds.janson_matching_bound(mu, d, a, e, pp)}
                          for (mu, d, a, e, pp) in cases]}
    if lemma == "corollaries":
        cases = [(10.0, 2.0, 0.1), (100.0, 30.0, 0.05)]
        return {"lemma": lemma,
                "cases": [{"mu": mu, "delta": d, "gamma": g,
                           **bounds.janson_corollaries(mu, d, g)}
                          for (mu, d, g) in cases]}
    if lemma == "uppertail":
        cases = [(0.5, 2), (1.0, 3), (2.0, 2)]
        return {"lemma": lemma,
                "cases": [{"alpha": a, "ell": l,
                           "rho": bounds.upper_tail_rho(a, l),
                           **bounds.upper_tail_bound(a, l, n, p)}
                          for (a, l) in cases]}
    if lemma == "balanced":
        profile = PatternProfile(graph_from_spec(pattern))
        return {"lemma": lemma, "pattern": pattern, "n": n, "p": p,
                **bounds.balanced_condition_check(profile, n, p, 1.0)}
    if lemma == "sum":
        return {"lemma": lemma, "n": n, "p": p, "beta": beta, "c": c,
                **bounds.sufficiency_sum(n, p, beta, c)}
    if lemma in ("fql", "high"):
        h = graph_from_spec(pattern)
        profile = PatternProfile(h)
        r = profile.r
        if sizes is None:
            sizes = [max(profile.v + 1, n // r)] * r
        elif len(sizes) != r or any(sz < 1 for sz in sizes):
            raise ConfigError("need r = %d positive sizes" % r)
        total = sum(sizes)
        if lemma == "fql":
            # the one-edge structure simulate_switching runs from
            q = ColoredGraph(Graph(total, [(0, 1)]),
                             [1, 2] + [0] * (total - 2))
        else:
            # one star: centre 0 (colour 1) joined to vertex k - 1 (colour k)
            star = Graph(total, [(0, k - 1) for k in range(2, r + 1)])
            q = ColoredGraph(star, [*range(1, r + 1)] + [0] * (total - r),
                             centres=[0])
        s = PartTuple.from_assignment(
            [k for k, sz in enumerate(sizes) for _ in range(sz)])
        which = "FQL" if lemma == "fql" else "high"
        rep = bounds.mu_delta_lemma_check(which, h, q, s, total, p,
                                          profile=profile)
        rep.update({"lemma": lemma, "pattern": pattern})
        return rep
    if lemma == "pif-balanced":
        if trials < 1:
            raise ConfigError("trials must be at least 1")
        h = graph_from_spec(pattern)
        r = h.chromatic_number() - 1
        # an edgeless pattern goes on to max_H_free's own refusal
        if r < 2 and h.edge_count():
            raise ConfigError("pattern must have chromatic number at least 3")
        balanced = 0
        details = []
        for t in range(trials):
            g = sample_gnp(n, p, RngStream(seed, t))
            _, f = max_H_free(g, h)
            cut = canonical_cut(f, r)
            ok = is_delta_balanced(cut, delta)
            balanced += ok
            details.append({"seed_index": t, "balanced": ok,
                            "sizes": sorted(len(pp) for pp in cut.parts)})
        return {"lemma": lemma, "pattern": pattern, "n": n, "p": p,
                "delta": delta, "trials": trials,
                "balanced_fraction": balanced / trials, "details": details}
    raise ConfigError("unknown lemma id %r" % lemma)


def cmd_verify_lemma(args):
    sizes = _int_list(args.sizes) if args.sizes else None
    rep = verify_lemma(args.lemma, pattern=args.pattern, n=args.n, p=args.p,
                       delta=args.delta, trials=args.trials, seed=args.seed,
                       sizes=sizes, beta=args.beta, c=args.c)
    _emit(rep, args.json_out)
    return EXIT_OK


# -- config-driven runs --------------------------------------------------

def run_config(path):
    """Execute a JSON config as the command line it stands for.

    "command" names the subcommand; every other key is one of its long
    options with dashes written as underscores.  A list is joined with
    commas, true gives a bare flag, false or null leaves the option out, and
    any other value is passed as str(value).
    """
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError("cannot read config: %s" % exc)
    if not isinstance(cfg, dict) or "command" not in cfg:
        raise ConfigError("config must be an object with a 'command' key")
    argv = [str(cfg.pop("command"))]
    for key, value in cfg.items():
        if value is False or value is None:
            continue
        opt = "--" + key.replace("_", "-")
        if value is True:
            argv.append(opt)
        elif isinstance(value, list):
            argv.append("%s=%s" % (opt, ",".join(str(v) for v in value)))
        else:
            argv.append("%s=%s" % (opt, value))
    try:
        args = build_parser().parse_args(argv)
    except SystemExit:
        raise ConfigError("config %s is not a valid command line" % path)
    unknown = sorted(set(cfg) - set(vars(args)))
    if unknown:
        raise ConfigError("unknown config keys: %s" % ", ".join(unknown))
    return _dispatch(args)


def cmd_run_config(args):
    return run_config(args.config)


# -- argument plumbing ---------------------------------------------------

def _dispatch(args):
    """Run a parsed command once its output paths are known to be
    writable, so a bad path fails before the work instead of after it."""
    for path in (getattr(args, "out", None), getattr(args, "json_out", None)):
        if not path:
            continue
        if os.path.isdir(path):
            raise ConfigError("output path %s is a directory" % path)
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise ConfigError("output path %s is not in an existing "
                              "directory" % path)
    return args.func(args)


def _int_list(text):
    try:
        return [int(x) for x in str(text).split(",") if x.strip()]
    except ValueError:
        raise ConfigError("bad integer list %r" % text)


def _float_list(text):
    try:
        return [float(x) for x in str(text).split(",") if x.strip()]
    except ValueError:
        raise ConfigError("bad float list %r" % text)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="simonovits",
        description="Exact desk-scale experiments on extremal subgraphs of "
                    "random graphs.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json-out")

    def defaults(func, names):
        """Option defaults, read from func's signature: the one table."""
        import inspect
        params = inspect.signature(func).parameters
        return {k: params[k].default for k in names.split()}

    sp = sub.add_parser("analyze-pattern", help="pattern constants as JSON")
    sp.add_argument("--pattern", required=True)
    common(sp)
    sp.set_defaults(func=cmd_analyze_pattern)

    sp = sub.add_parser("check-simonovits",
                        help="decide whether all largest pattern-free "
                             "subgraphs are (chi-1)-partite")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--pattern", required=True)
    common(sp)
    sp.set_defaults(func=cmd_check_simonovits)

    sp = sub.add_parser("scan-threshold", help="(n, p) grid scan to CSV")
    sp.add_argument("--pattern", required=True)
    sp.add_argument("--n-grid", required=True)
    sp.add_argument("--p-grid")
    sp.add_argument("--multipliers")
    sp.add_argument("--trials", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out")
    sp.add_argument("--no-timing", action="store_true",
                    help="zero the runtime column for byte-stable output")
    sp.set_defaults(func=cmd_scan_threshold,
                    **defaults(scan_threshold, "trials seed"))

    sp = sub.add_parser("simulate-switching",
                        help="seeded switching runs with validation")
    sp.add_argument("--pattern")
    sp.add_argument("--n", type=int)
    sp.add_argument("--p", type=float)
    sp.add_argument("--runs", type=int)
    sp.add_argument("--rounds", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--delta", type=float)
    sp.add_argument("--seed", type=int)
    common(sp)
    sp.set_defaults(func=cmd_simulate_switching,
                    **defaults(simulate_switching,
                               "pattern n p runs rounds m delta seed"))

    sp = sub.add_parser("verify-lemma", help="verify one named bound")
    sp.add_argument("--lemma", required=True)
    sp.add_argument("--pattern")
    sp.add_argument("--n", type=int)
    sp.add_argument("--p", type=float)
    sp.add_argument("--delta", type=float)
    sp.add_argument("--trials", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--sizes")
    sp.add_argument("--beta", type=float)
    sp.add_argument("--c", type=float)
    common(sp)
    sp.set_defaults(func=cmd_verify_lemma,
                    **defaults(verify_lemma,
                               "pattern n p delta trials seed beta c"))

    sp = sub.add_parser("run-config", help="execute a JSON config file")
    sp.add_argument("config")
    sp.set_defaults(func=cmd_run_config)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return _dispatch(args)
    except (ConfigError, KeyError, ValueError, OSError) as exc:
        # OSError: a path that names a directory or lies in a missing one
        sys.stderr.write("config error: %s\n" % exc)
        return EXIT_CONFIG
    except TooLargeError as exc:
        sys.stderr.write("guard refusal: %s\n" % exc)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
