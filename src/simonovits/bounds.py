"""Numeric evaluators for the explicit probabilistic bounds.

Everything here is a plug-in calculator: lower-tail bounds for Poisson and
hypergraph-matching variables, subgraph balance margins, exact family
moment checks, and the closing summations.  All bound evaluators work in
log-space and report both the raw log-bound and a probability clipped to
[0, 1].  The constants the analysis leaves free are one fixed bundle,
PAPER_DEFAULTS, read by every module that needs them.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .patterns import most_induced_edges


@dataclass(frozen=True)
class Constants:
    """The constants bundle: kappa and eta for the structure Q and its
    star unions, alpha for the switching (gamma = alpha / (24 r)).

    The source analysis only fixes a dependency order ("sufficiently
    small"), never numeric values; these toy values keep every guard
    satisfiable at desk scale.  They are fixed: PAPER_DEFAULTS is the one
    instance the toolkit reads, and it holds only the constants something
    reads.
    """
    kappa: float = 0.1
    eta: float = 0.05
    alpha: float = 0.2


PAPER_DEFAULTS = Constants()


def _pack(log_bound):
    bound = math.exp(log_bound) if log_bound < 700 else math.inf
    return {"log_bound": log_bound, "bound": bound,
            "prob": min(1.0, bound), "clipped": bound > 1.0}


def poisson_lower_tail(mu, alpha):
    """Upper bound exp(-(1 - a*ln(e/a)) * mu) on Pr(Poisson(mu) <= a*mu)."""
    if mu < 0 or not 0 <= alpha <= 1:
        raise ValueError("need mu >= 0 and 0 <= alpha <= 1")
    ent = alpha * math.log(math.e / alpha) if alpha > 0 else 0.0
    return _pack(-(1 - ent) * mu)


def janson_matching_bound(mu, delta, alpha, eta, p):
    """Upper bound on Pr(nu(family restricted to a p-sample) <= alpha*mu):
    exp(-(1 - a*ln(e/a) - a*p - eta)*mu + (1 + 2*a*p/eta)*delta)."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    if mu < 0 or delta < 0 or alpha < 0 or not 0 <= p <= 1:
        raise ValueError("arguments out of range")
    ent = alpha * math.log(math.e / alpha) if alpha > 0 else 0.0
    log_b = -(1 - ent - alpha * p - eta) * mu + (1 + 2 * alpha * p / eta) * delta
    return _pack(log_b)


def janson_corollaries(mu, delta, gamma):
    """The two specialised corollaries.

    bound34 = exp(-(1-gamma)*mu + 2*delta) bounds Pr(nu <= gamma^2 * mu).
    Lambda = min(mu, mu^2/delta) (delta=0 -> mu); bound35 = exp(-Lambda/10)
    bounds Pr(nu <= Lambda/1000).
    """
    if not 0 < gamma <= 0.1:
        raise ValueError("need 0 < gamma <= 1/10")
    if mu < 0 or delta < 0:
        raise ValueError("moments must be nonnegative")
    b34 = _pack(-(1 - gamma) * mu + 2 * delta)
    lam = mu if delta == 0 else min(mu, mu * mu / delta)
    if mu == 0:
        lam = 0.0
    b35 = _pack(-lam / 10)
    return {"bound34": b34, "lam": lam, "bound35": b35}


def upper_tail_rho(alpha, ell):
    """rho = min(alpha, 1) / ((2*ell + 1) * e)."""
    if alpha <= 0 or ell < 1:
        raise ValueError("need alpha > 0 and ell >= 1")
    return min(alpha, 1.0) / ((2 * ell + 1) * math.e)


def upper_tail_bound(alpha, ell, n, p):
    """Companion evaluator exp(-rho * n * p)."""
    return _pack(-upper_tail_rho(alpha, ell) * n * p)


# -- subgraph balance margins --------------------------------------------

def balanced_condition_check(profile, n, p, C):
    """Margins of n^(v-2) p^(e-1) >= C^(e-1) over all nonempty subgraphs.

    The margin depends only on the (vertex count, edge count) pair, and k
    vertices span subgraphs with every edge count up to the most they
    induce (most_induced_edges).  For a strictly balanced pattern also
    reports, per proper subgraph pair with 1 < e < e_H, the exponent
    lambda = (v-2) - (e-1)/m2 by which the margin grows (as a power of n,
    at p proportional to n^(-1/m2)).
    """
    h = profile.pattern
    m2 = profile.m2
    if p < C * n ** (-1 / float(m2)):
        return {"applicable": False,
                "reason": "p below C * n^(-1/m2)"}
    entries = []
    min_lambda = None
    all_hold = True
    for v, emax in most_induced_edges(h).items():
        for e in range(2, emax + 1):
            margin = n ** (v - 2) * p ** (e - 1) / C ** (e - 1)
            holds = margin >= 1.0 - 1e-12
            all_hold = all_hold and holds
            lam = Fraction(v - 2) - Fraction(e - 1) / Fraction(m2)
            entry = {"v": v, "e": e, "margin": margin, "holds": holds,
                     "lambda": float(lam)}
            entries.append(entry)
            proper = (v, e) != (h.n, h.edge_count())
            if proper and e > 1 and e < h.edge_count():
                if min_lambda is None or lam < min_lambda:
                    min_lambda = lam
    return {"applicable": True, "entries": entries, "all_hold": all_hold,
            "strictly_balanced": profile.strictly_balanced,
            "min_lambda": float(min_lambda) if min_lambda is not None else None}


# -- exact family moment checks ------------------------------------------

def mu_delta_lemma_check(which, h, q, s, n, p, profile=None):
    """Exact first/second moment check for the residual families.

    which="FQL": the unique-completion residual family of the low-degree
    structure q, restricted to the crossing pairs of the partition s; also
    verifies the exact counting lower bound
      |family[ext(S)]| >= (1 - v^2 * maxdeg(Q)/(|S1| - v)) * e(Q) * N(h, K_S+)
    where K_S+ is the complete multipartite graph on s plus one edge inside
    the first part.

    which="high": the anchored residual family of a star-union structure;
    reports exact moments and fitted constants against the asymptotic
    targets (descriptive, not pass/fail).
    """
    from .graph import ColoredGraph, complete_multipartite
    from .copies import residual_family, janson_moments, count_copies, \
        induce
    from .patterns import PatternProfile

    if profile is None:
        profile = PatternProfile(h)
    v_h, e_h = profile.v, profile.e
    qg = q.graph if isinstance(q, ColoredGraph) else q
    report = {"which": which, "n": n, "p": p, "eQ": qg.edge_count()}
    if qg.edge_count() == 0:
        report.update({"applicable": False, "reason": "empty structure",
                       "vacuous_pass": True})
        return report
    variant = "low" if which == "FQL" else "high"
    fam = residual_family(h, q, n, variant)
    restricted = induce(fam, s.ext_mask())
    mom_restricted = janson_moments(restricted, p, exact=True)
    mom_full = janson_moments(fam, p, exact=True)
    mu = mom_restricted["mu"]
    delta = mom_full["delta"]
    report.update({
        "family_size": len(fam), "restricted_size": len(restricted),
        "mu_restricted": float(mu), "delta_full": float(delta),
        "delta_over_mu": float(delta / mu) if mu else None,
    })
    sizes = [len(pp) for pp in s.parts]
    if which == "FQL":
        s1 = sorted(s.parts[0])
        if len(s1) <= v_h:
            report.update({"applicable": False,
                           "reason": "first part not larger than pattern"})
            return report
        # host: complete multipartite on the parts of s plus one edge in S1
        order = [v for pp in s.parts for v in sorted(pp)]
        host = complete_multipartite(sizes)
        # map back: host labels are blocks; count is label independent
        n_splus = count_copies(h, host.with_edge(0, 1))
        max_deg_q = qg.max_degree()
        lower = (1 - Fraction(v_h * v_h * max_deg_q, len(s1) - v_h)) \
            * qg.edge_count() * n_splus
        # count bound uses residuals with their unique completions crossing:
        count = len(restricted)
        report.update({
            "applicable": True,
            "count_restricted": count,
            "count_lower_bound": float(lower),
            "count_bound_holds": count >= lower,
            "mu_target": float((profile.pi) * qg.edge_count()
                               * min(sizes) ** (v_h - 2) * p ** (e_h - 1)),
            "fitted_c_low": float(delta / mu / (n ** (v_h - 2)
                                                * p ** (e_h - 1))) if mu else None,
        })
    else:
        kq = len(q.centres) if isinstance(q, ColoredGraph) else 0
        cap1 = min(kq * n ** (v_h - 1) * p ** e_h, n * n * p)
        mu_f = float(mu)
        report.update({
            "applicable": True,
            "k_Q": kq,
            "mu_target_shape": cap1,
            "fitted_c_high_mu": mu_f / cap1 if cap1 > 0 else None,
            "mu2_over_delta": (mu_f * mu_f / float(delta)) if delta else None,
        })
    return report


# -- closing summations --------------------------------------------------

def sufficiency_sum(n, p, beta, c):
    """The two finite sums from the closing union bound.

    First: sum over 1 <= m <= beta*N*p of exp(m - c*m*log(N*p/m)), with
    N = n*(n-1)/2.  Second: sum over 1 <= k <= n of C(n,k) e^(-n*p*k),
    evaluated through the closed form (1 + e^(-n*p))^n - 1.
    Returns totals and whether each is below 1.
    """
    N = n * (n - 1) // 2
    top = int(beta * N * p)
    terms = []
    for m in range(1, top + 1):
        terms.append(m - c * m * math.log(N * p / m))
    if terms:
        mx = max(terms)
        if mx > 700:
            first = math.inf
        else:
            first = math.fsum(math.exp(t) for t in terms)
    else:
        first = 0.0
    second = math.expm1(n * math.log1p(math.exp(-n * p)))
    return {"first_sum": first, "first_below_1": first < 1.0,
            "second_sum": second, "second_below_1": second < 1.0,
            "terms": top}
