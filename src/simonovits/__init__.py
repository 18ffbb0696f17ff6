"""Exact desk-scale toolkit for extremal subgraphs of random graphs:
pattern constants, Turan-type solvers, tail bounds, structure builders,
cut rigidity, and the switching procedure with its validator."""

__version__ = "0.1.0"

from .graph import (Graph, PartTuple, ColoredGraph, named_graph,
                    graph_from_spec, complete_graph, cycle_graph)
from .patterns import PatternProfile, two_density, pi_coefficient, \
    theta_coefficient, p_threshold
from .solvers import max_r_cut, max_H_free, is_simonovits, SimonovitsVerdict

__all__ = [
    "Graph", "PartTuple", "ColoredGraph", "named_graph", "graph_from_spec",
    "complete_graph", "cycle_graph", "PatternProfile", "two_density",
    "pi_coefficient", "theta_coefficient", "p_threshold", "max_r_cut",
    "max_H_free", "is_simonovits", "SimonovitsVerdict", "RngStream",
    "sample_gnp", "typicality_report",
]


def __getattr__(name):
    # randgraphs, and dataclasses with it, load on first use: a decision
    # needs neither, and they take about 8 ms of a fresh interpreter
    if name in ("RngStream", "sample_gnp", "typicality_report"):
        from . import randgraphs
        return getattr(randgraphs, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
