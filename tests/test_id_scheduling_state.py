"""The schedulers' integer-id state: tile resolution and usage signatures.

The schedulers resolve every operand qubit to a routing-graph tile id once
per run and keep capacity usage by edge id and junction id.  Two things must
survive that:

* a qubit placed on a tile the routing graph lacks (dead, or off the tile
  array) still fails with the named :class:`RoutingError` that names the
  tile, from every scheduler family;
* the layer memo's usage signature over id-keyed counters distinguishes
  exactly the reservations the tuple view distinguishes — a replay is only
  sound if equal signatures mean equal reservations.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import ReferenceUsage, from_ids

from repro.chip.chip import Chip, TileSlot
from repro.chip.defects import DefectSpec
from repro.chip.geometry import SurfaceCodeModel
from repro.chip.routing_graph import RoutingGraph
from repro.circuits.circuit import Circuit
from repro.core.layer_memo import usage_signature
from repro.errors import RoutingError
from repro.partition.placement import Placement
from repro.pipeline.passes import SchedulePass
from repro.pipeline.registry import resolve_method, run_pipeline_method
from repro.routing import CapacityUsage, FastRouter


def _ring_circuit() -> Circuit:
    circuit = Circuit(4)
    for q in range(4):
        circuit.cx(q, (q + 1) % 4)
    return circuit


@pytest.mark.parametrize("stranded", [(1, 1), (9, 9)], ids=["dead", "off-array"])
@pytest.mark.parametrize("method", ["ecmas_dd_min", "ecmas_ls_min", "ecmas_dd_resu"])
def test_qubit_on_a_missing_tile_raises_routing_error_naming_it(method, stranded):
    spec = resolve_method(method)
    chip = Chip.with_tile_array(spec.model, 3, 3, 3, bandwidth=3).with_defects(
        DefectSpec(dead_tiles=((1, 1),))
    )
    result = run_pipeline_method(_ring_circuit(), method, chip=chip)
    ctx = result.context
    assert ctx.use_resu is (method == "ecmas_dd_resu")
    slots = dict(ctx.mapping.placement.qubit_to_slot)
    slots[0] = TileSlot(*stranded)
    ctx.mapping = replace(ctx.mapping, placement=Placement(slots))
    row, col = stranded
    with pytest.raises(RoutingError, match=rf"tile \('t', {row}, {col}\) is not on the chip"):
        SchedulePass().run(ctx)


@st.composite
def committed_paths(draw):
    """A small chip and two lists of routed id paths to commit."""
    rows = draw(st.integers(min_value=1, max_value=3))
    cols = draw(st.integers(min_value=2, max_value=3))
    chip = Chip(
        model=SurfaceCodeModel.DOUBLE_DEFECT,
        code_distance=3,
        tile_rows=rows,
        tile_cols=cols,
        h_bandwidths=tuple(draw(st.integers(1, 3)) for _ in range(rows + 1)),
        v_bandwidths=tuple(draw(st.integers(1, 3)) for _ in range(cols + 1)),
        side=999,
    )
    graph = RoutingGraph(chip)
    router = FastRouter(graph)
    tiles = [graph.node_id[tile] for tile in graph.tile_nodes()]
    # A pool of paths found under growing load, so it holds detours as well
    # as canonical shortest paths.
    pool = []
    load = CapacityUsage()
    for _ in range(draw(st.integers(1, 6))):
        a, b = draw(st.lists(st.sampled_from(tiles), min_size=2, max_size=2, unique=True))
        path = router.find(load, a, b, draw(st.sampled_from([0.0, 0.25])))
        if path is not None:
            load.add_path(path)
            pool.append(path)
    picks = st.lists(st.sampled_from(pool), max_size=5) if pool else st.just([])
    first = draw(picks)
    second = draw(st.permutations(first)) if draw(st.booleans()) else draw(picks)
    return graph, first, second


@settings(max_examples=150, deadline=None)
@given(committed_paths())
def test_usage_signature_equal_exactly_when_tuple_images_equal(scenario):
    graph, *path_lists = scenario
    usages = []
    for paths in path_lists:
        usage, reference = CapacityUsage(), ReferenceUsage()
        for path in paths:
            usage.add_path(path)
            reference.add_path(path.routed(graph))
        # Id-keyed bookkeeping is the reference model's, read through ids.
        assert from_ids(graph, usage) == reference
        usages.append(usage)
    first, second = usages
    same_signature = usage_signature(first) == usage_signature(second)
    assert same_signature == (from_ids(graph, first) == from_ids(graph, second))
    assert (usage_signature(first) is None) == (not first.used and not first.node_used)
