"""Bandwidth-aware planning and simulation for decentralized SGD.

The package splits into three layers.  ``graph_core``, ``selection`` and
``steiner_packing`` plan the run: cut trees, the fastest worker subset,
and the packed communication trees.  ``simulator`` replays plans as
deterministic fluid flows, and ``optimizers`` runs simulated training on
top.  ``analyzer`` provides the matching closed-form time complexities,
``topologies`` the standard example clusters, and ``cli`` a command-line
front end over all of it.
"""

from .graph_core import (INFINITY, CutResult, GomoryHuTree, UnitMultigraph,
                         WeightedGraph, build_graph, finite_bandwidth_proxy,
                         gomory_hu_tree, leaf_branch_peeling,
                         max_flow_min_cut, min_S_cut, parse_topology,
                         serialize_topology, unit_multigraph)
from .selection import (ProblemParams, SelectionTrace, SubsetChoice,
                        batch_collection_bound, find_fastest_subset,
                        grace_target_batch, harmonic_batch_term,
                        leon_stop_rule, subset_score)
from .steiner_packing import (PackingReport, SteinerTree, TreePacking,
                              min_S_cut_multigraph, orient_to_pivot,
                              pack_steiner_trees, verify_packing)
from .simulator import (SimSchedule, SimTimeoutError, SimTrace, TraceEvent,
                        audit_capacity, run_allreduce,
                        run_gradient_computation, run_naive_sync_round,
                        run_separate_transfers, shared_edge_rates)
from .analyzer import (ComplexityReport, TradeoffReport, grace_complexity,
                       hero_sgd_complexity, iteration_count, leon_complexity,
                       sync_sgd_complexity, topology_closed_form,
                       tradeoff_bounds)
from .optimizers import (Objective, StochasticOracle, TrainingTrace,
                         grace_sgd, hero_sgd, leon_sgd, make_objective,
                         sync_sgd)
from . import topologies

__version__ = "0.1.0"

__all__ = [
    "INFINITY", "CutResult", "GomoryHuTree", "UnitMultigraph",
    "WeightedGraph", "build_graph", "finite_bandwidth_proxy",
    "gomory_hu_tree", "leaf_branch_peeling", "max_flow_min_cut",
    "min_S_cut", "parse_topology", "serialize_topology", "unit_multigraph",
    "ProblemParams", "SelectionTrace", "SubsetChoice",
    "batch_collection_bound", "find_fastest_subset",
    "grace_target_batch", "harmonic_batch_term",
    "leon_stop_rule", "subset_score",
    "PackingReport", "SteinerTree", "TreePacking", "min_S_cut_multigraph",
    "orient_to_pivot", "pack_steiner_trees", "verify_packing",
    "SimSchedule", "SimTimeoutError", "SimTrace", "TraceEvent",
    "audit_capacity", "run_allreduce", "run_gradient_computation",
    "run_naive_sync_round", "run_separate_transfers", "shared_edge_rates",
    "ComplexityReport", "TradeoffReport", "grace_complexity",
    "hero_sgd_complexity", "iteration_count", "leon_complexity",
    "sync_sgd_complexity", "topology_closed_form", "tradeoff_bounds",
    "Objective", "StochasticOracle", "TrainingTrace", "grace_sgd",
    "hero_sgd", "leon_sgd", "make_objective", "sync_sgd",
    "topologies",
]
