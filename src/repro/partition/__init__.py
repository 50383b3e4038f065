"""Graph partitioning and placement substrate (METIS substitute)."""

from repro.partition.coarsen import multilevel_bisection
from repro.partition.kl import GainBuckets, cut_weight, fm_refine, kernighan_lin_bisection
from repro.partition.placement import (
    PLACEMENT_ENGINES,
    Placement,
    SlotDomain,
    best_placement,
    check_placement_engine,
    communication_cost,
    graph_domain,
    grid_domain,
    random_placement,
    recursive_bisection_placement,
    snake_placement,
    spectral_placement,
)

__all__ = [
    "kernighan_lin_bisection",
    "multilevel_bisection",
    "fm_refine",
    "GainBuckets",
    "cut_weight",
    "Placement",
    "PLACEMENT_ENGINES",
    "check_placement_engine",
    "communication_cost",
    "SlotDomain",
    "grid_domain",
    "graph_domain",
    "recursive_bisection_placement",
    "best_placement",
    "snake_placement",
    "spectral_placement",
    "random_placement",
]
