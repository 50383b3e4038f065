"""Work counters for the scheduling/routing hot path.

The paper's headline claim is compile-time efficiency, so speedups here are
measured, not asserted: every Algorithm 1 scheduler fills an
:class:`EngineCounters` while it runs, the pipeline surfaces it through
:attr:`PipelineResult.counters <repro.pipeline.framework.PipelineResult>`,
and ``repro profile --method`` / ``repro compile --stages`` print them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass
class EngineCounters:
    """Work counters accumulated by one scheduling run.

    ``nodes_expanded`` is the number of search-node expansions across every
    path query — the quantity the router's landmark heuristic shrinks.
    ``landmark_tables`` and ``landmark_build_seconds`` describe the router's
    memoized hop tables, ``layer_memo_*`` the scheduler's whole-cycle memo.
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
