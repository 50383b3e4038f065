"""Work counters for the placement and scheduling/routing hot paths.

The paper's headline claim is compile-time efficiency, so speedups here are
measured, not asserted: every Algorithm 1 scheduler fills an
:class:`EngineCounters` while it runs and every placement a
:class:`PlacementCounters`; the pipeline surfaces them through
:attr:`PipelineResult.counters <repro.pipeline.framework.PipelineResult>` and
:attr:`PipelineResult.placement_counters
<repro.pipeline.framework.PipelineResult>`, and ``repro profile --method`` /
``repro compile --stages`` print them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass
class EngineCounters:
    """Work counters accumulated by one scheduling run.

    ``nodes_expanded`` is the number of search-node expansions across every
    path query — the quantity the router's landmark heuristic shrinks.
    ``landmark_tables`` is the number of hop tables the router's memo holds
    when the run ends, ``landmark_build_seconds`` the time this run spent
    building them; ``static_path_hits`` counts the queries answered from the
    memo's unloaded paths.  The memo is that of the chip's topology in the
    process's routing-graph store
    (:data:`~repro.chip.routing_graph.ROUTING_GRAPHS`), so these two
    counters depend on the store's state: tables and paths an earlier router
    or compile of that topology left count here (on graph chips, the
    junction tables of the placement's slot distances too), and a compile
    after a warm one reads more of both.  Every other counter is a function of the compile
    alone.  ``layer_memo_*`` describe the scheduler's whole-cycle memo.
    """

    route_calls: int = 0
    route_failures: int = 0
    nodes_expanded: int = 0
    landmark_tables: int = 0
    landmark_build_seconds: float = 0.0
    static_path_hits: int = 0
    layer_memo_hits: int = 0
    layer_memo_misses: int = 0
    cycles_simulated: int = 0
    gates_scheduled: int = 0
    cut_modifications: int = 0

    def as_dict(self) -> dict[str, int | float]:
        """Plain-dict view (stored in pipeline artifacts / JSON exports)."""
        return asdict(self)

    @property
    def expansions_per_route(self) -> float:
        """Average search effort per path query (0.0 before any query)."""
        if not self.route_calls:
            return 0.0
        return self.nodes_expanded / self.route_calls


@dataclass
class PlacementCounters:
    """Work counters accumulated by one placement (all attempts together).

    ``attempts``, ``regions``, ``bisections`` and ``swaps_kept`` describe the
    placement that came out: seeded recursions run, slot regions that held
    at least one qubit, bisection-core calls and Kernighan–Lin swaps kept
    by a pass.  The rest count effort: ``kl_passes`` KL passes run,
    ``fast_path_regions`` bisections answered without the generic KL pass,
    and ``fm_passes`` / ``coarsening_levels`` the multilevel engine's
    Fiduccia–Mattheyses passes and coarsened levels.  Strategies that do not
    bisect (snake, spectral, random) leave every counter at zero.
    """

    attempts: int = 0
    regions: int = 0
    bisections: int = 0
    swaps_kept: int = 0
    kl_passes: int = 0
    fast_path_regions: int = 0
    fm_passes: int = 0
    coarsening_levels: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view (stored in pipeline artifacts / JSON exports)."""
        return asdict(self)
