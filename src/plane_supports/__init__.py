"""Short supports of spatial hypergraphs.

A support of a hypergraph is a graph on the same (fixed-position) vertices
in which every hyperedge induces a connected subgraph. This package finds
short ones, optionally plane and/or acyclic: three heuristics, an exact
branch-and-bound solver plus an LP-format emitter, a random instance
generator, and an experiment harness.
"""

from .geom import Orientation, Point, Segment, distance, orientation, segments_conflict
from .model import (ALL_CONSTRAINTS, ConstraintSet, Hypergraph, PLANE, PLANE_TREE,
                    SupportGraph, TREE, UNRESTRICTED, candidate_edges, crossing_count,
                    hyperedge_induced_connected, is_acyclic, is_plane, is_support,
                    satisfies, total_length)
from .mst import EmptyCoreError, emst, mst_with_free_edges, star_support
from .heuristics import (SolveReport, local_search, local_search_all, local_search_round,
                         local_search_seeded, mst_approximation, mst_iteration)
from .exact import (ExactResult, IlpModel, InfeasibleError, LimitsExceededError,
                    SolveLimits, build_model, emit_lp, solve_exact)
from .gen import DegreeScheme, adversarial_family, degree_array, generate
from .harness import TrialConfig, TrialRecord, records_to_csv, run_grid, run_trial, solve
from .fileio import (ParseError, parse_hypergraph, parse_support, render_svg,
                     serialize_hypergraph, serialize_support)

__version__ = "0.1.0"
