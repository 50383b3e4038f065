"""Integration tests for graph chips: routing, placement, compile, service.

The tile-graph milestone's acceptance path, end to end:

* :meth:`Chip.slot_distance` — Manhattan on square chips (bit-compatible),
  BFS hop distance on graph chips, unreachable sentinel on split graphs;
* the routing graph built from tile-graph edges (junction per node, corridor
  per edge, defects respected);
* every graph placement strategy produces valid placements, and bandwidth
  adjusting redistributes lanes per edge under node width budgets;
* heavy-hex and degree-3 sparse chips compile both models bit-identically
  to the reference engine and validator-clean;
* the viz, CLI ``--geometry`` flag, batch fingerprints and the compile
  daemon all understand graph chips.
"""

from __future__ import annotations

import threading

import pytest
from oracle import reference_compile

from repro.chip import (
    Chip,
    DefectSpec,
    SurfaceCodeModel,
    TileGraph,
    builtin_tile_graph,
    degree3_sparse,
    heavy_hex,
    random_defects,
    square_lattice,
)
from repro.chip.chip import UNREACHABLE_DISTANCE, TileSlot
from repro.chip.routing_graph import RoutingGraph
from repro.chip.spec import chip_to_dict
from repro.circuits.generators import get_benchmark, standard
from repro.cli import main
from repro.core.mapping import (
    adjust_bandwidth,
    adjust_edge_bandwidth,
    build_initial_mapping,
    corridor_load,
    establish_placement,
)
from repro.errors import ChipError
from repro.partition import (
    best_placement,
    graph_domain,
    random_placement,
    snake_placement,
    spectral_placement,
)
from repro.pipeline.batch import BatchJob
from repro.pipeline.registry import run_pipeline_method
from repro.verify import validate_encoded_circuit
from repro.viz import render_placement

DD = SurfaceCodeModel.DOUBLE_DEFECT
LS = SurfaceCodeModel.LATTICE_SURGERY


def _path_chip(num_nodes: int = 4, **kwargs) -> Chip:
    graph = TileGraph(
        name="path",
        coords=tuple((float(i), 0.0) for i in range(num_nodes)),
        edges=tuple((i, i + 1) for i in range(num_nodes - 1)),
        bandwidths=tuple([1] * (num_nodes - 1)),
        **kwargs,
    )
    return Chip.from_tile_graph(DD, 3, graph)


# ------------------------------------------------------------- slot distance
def test_slot_distance_is_manhattan_on_square_chips():
    chip = Chip.with_tile_array(DD, 3, 3, 3, bandwidth=1)
    a, b = TileSlot(0, 0), TileSlot(2, 1)
    assert chip.slot_distance(a, b) == TileSlot.manhattan_distance(a, b) == 3


def test_slot_distance_is_hop_count_on_graph_chips():
    chip = _path_chip(4)
    assert chip.slot_distance(TileSlot(0, 0), TileSlot(3, 0)) == 3
    assert chip.slot_distance(TileSlot(1, 0), TileSlot(1, 0)) == 0
    assert chip.slot_distance(TileSlot(2, 0), TileSlot(0, 0)) == 2


def test_slot_distance_reports_unreachable_on_split_graphs():
    graph = TileGraph(
        name="split",
        coords=((0.0, 0.0), (1.0, 0.0), (5.0, 0.0), (6.0, 0.0)),
        edges=((0, 1), (2, 3)),
        bandwidths=(1, 1),
    )
    chip = Chip.from_tile_graph(DD, 3, graph)
    assert chip.slot_distance(TileSlot(0, 0), TileSlot(1, 0)) == 1
    assert chip.slot_distance(TileSlot(0, 0), TileSlot(2, 0)) == UNREACHABLE_DISTANCE


def test_heavy_hex_neighbours_are_two_hops_apart():
    # Subdivided hex edges put a mid tile between any two hex tiles.
    chip = Chip.from_tile_graph(DD, 3, heavy_hex(3, 3))
    assert chip.slot_distance(TileSlot(0, 0), TileSlot(1, 0)) == 2


# ------------------------------------------------------- chip-level contracts
def test_graph_chip_segment_capacity_and_corridors():
    graph = square_lattice(2, 2, bandwidth=2)
    chip = Chip.from_tile_graph(DD, 3, graph)
    segments = chip.corridor_segments()
    assert [key for key, _ in segments] == [("e", a, b) for a, b in graph.edges]
    assert all(capacity == 2 for _, capacity in segments)
    assert chip.segment_capacity(("e", 0, 1)) == 2


def test_graph_chip_defects_disable_and_degrade_edges():
    graph = square_lattice(2, 2, bandwidth=2)
    defects = DefectSpec(
        dead_tiles=((3, 0),),
        disabled_segments=(("e", 0, 1),),
        bandwidth_overrides=((("e", 0, 2), 1),),
    )
    chip = Chip.from_tile_graph(DD, 3, graph, defects=defects)
    assert chip.segment_capacity(("e", 0, 1)) == 0
    assert chip.segment_capacity(("e", 0, 2)) == 1
    assert TileSlot(3, 0) not in chip.alive_tile_slots()


def test_graph_chip_rejects_square_defect_keys_and_vice_versa():
    with pytest.raises(ChipError, match="segment"):
        Chip.from_tile_graph(
            DD, 3, square_lattice(2, 2), defects=DefectSpec(disabled_segments=(("h", 0, 0),))
        )
    with pytest.raises(ChipError, match="edge"):
        Chip.from_tile_graph(
            DD, 3, square_lattice(2, 2), defects=DefectSpec(disabled_segments=(("e", 0, 3),))
        )
    with pytest.raises(ChipError):
        Chip.with_tile_array(DD, 3, 2, 2, 1).with_defects(
            DefectSpec(disabled_segments=(("e", 0, 1),))
        )


def test_graph_chip_rejects_square_only_operations():
    chip = _path_chip(3)
    with pytest.raises(ChipError):
        chip.with_bandwidths([1, 1, 1], [1, 1, 1])
    with pytest.raises(ChipError):
        chip.lane_budget_per_axis()


def test_with_edge_bandwidths():
    chip = _path_chip(4, node_budgets=(2, 4, 4, 2))
    widened = chip.with_edge_bandwidths((2, 1, 2))
    assert widened.tile_graph.bandwidths == (2, 1, 2)


# -------------------------------------------------------------- routing graph
def test_routing_graph_from_tile_graph_edges():
    graph = square_lattice(2, 2)
    defects = DefectSpec(dead_tiles=((3, 0),), disabled_segments=(("e", 0, 1),))
    chip = Chip.from_tile_graph(DD, 3, graph, defects=defects)
    routing = RoutingGraph(chip)
    junctions = [n for n in routing.nodes if n[0] == "j"]
    tiles = [n for n in routing.nodes if n[0] == "t"]
    assert len(junctions) == 4  # every node keeps a junction, even dead tiles
    assert len(tiles) == 3  # the dead tile hosts no qubit
    assert ("t", 3, 0) not in routing.nodes
    # The disabled edge contributes no corridor; the other three do.
    corridors = [
        (a, b) for a, b in routing.edges if a[0] == "j" and b[0] == "j"
    ]
    assert len(corridors) == 3
    assert routing.corridor_of(("j", 0, 0), ("j", 2, 0)) == ("e", graph.edge_index(0, 2))


# ------------------------------------------------------------------ placement
def test_graph_placement_strategies_are_valid_and_deterministic():
    chip = Chip.from_tile_graph(DD, 3, heavy_hex(3, 3))
    domain = graph_domain(chip)
    comm = standard.qft(8).communication_graph()
    placements = {
        "snake": snake_placement(8, domain),
        "random": random_placement(8, domain, seed=3),
        "spectral": spectral_placement(comm, domain),
        "best": best_placement(comm, domain, attempts=2),
    }
    for name, placement in placements.items():
        placement.validate(chip)
        assert placement.num_qubits() == 8, name
        assert len(set(placement.slots())) == 8, name
    assert best_placement(comm, domain, attempts=2) == placements["best"]


def test_establish_placement_dispatches_on_graph_chips():
    chip = Chip.from_tile_graph(LS, 3, degree3_sparse(12, seed=1))
    comm = standard.qft(8).communication_graph()
    for strategy in ("ecmas", "metis", "trivial", "spectral", "random"):
        placement = establish_placement(
            comm, (chip.tile_rows, chip.tile_cols), strategy=strategy, chip=chip
        )
        placement.validate(chip)
        assert placement.num_qubits() == 8


def test_placement_avoids_dead_tiles_on_graph_chips():
    chip = Chip.from_tile_graph(
        DD, 3, heavy_hex(3, 3), defects=DefectSpec(dead_tiles=((0, 0), (7, 0)))
    )
    placement = snake_placement(10, graph_domain(chip))
    assert TileSlot(0, 0) not in placement.slots()
    assert TileSlot(7, 0) not in placement.slots()


# --------------------------------------------------------- bandwidth adjusting
def test_adjust_edge_bandwidth_redistributes_spare_lanes_by_load():
    # A path chip whose middle node has spare width: the loaded edge wins it.
    chip = _path_chip(4, node_budgets=(2, 3, 3, 2))
    comm = standard.ghz_state(4).communication_graph()
    placement = snake_placement(4, graph_domain(chip))
    load = corridor_load(chip, placement, comm)
    assert set(load) <= {("e", 0), ("e", 1), ("e", 2)}
    adjusted = adjust_edge_bandwidth(chip, placement, comm)
    assert sum(adjusted.tile_graph.bandwidths) > sum(chip.tile_graph.bandwidths)
    budgets = adjusted.tile_graph.effective_node_budgets()
    for node in range(4):
        incident = adjusted.tile_graph.incident_edges(node)
        assert sum(adjusted.tile_graph.bandwidths[e] for e in incident) <= budgets[node]


def test_adjust_edge_bandwidth_without_spare_budget_is_identity():
    chip = _path_chip(4)  # default budgets = incident sums, no spare anywhere
    comm = standard.ghz_state(4).communication_graph()
    placement = snake_placement(4, graph_domain(chip))
    assert adjust_edge_bandwidth(chip, placement, comm) == chip


def test_adjust_bandwidth_dispatches_graph_chips():
    chip = _path_chip(4, node_budgets=(2, 3, 3, 2))
    comm = standard.ghz_state(4).communication_graph()
    placement = snake_placement(4, graph_domain(chip))
    assert adjust_bandwidth(chip, placement, comm) == adjust_edge_bandwidth(
        chip, placement, comm
    )


def test_build_initial_mapping_on_graph_chip():
    chip = Chip.from_tile_graph(DD, 3, heavy_hex(3, 3))
    circuit = get_benchmark("bv_n10").build()
    mapping = build_initial_mapping(circuit, chip, None)
    mapping.placement.validate(mapping.chip)
    assert mapping.placement.num_qubits() == circuit.num_qubits


# ------------------------------------------------------------------------ viz
def test_render_placement_on_graph_chip_shows_nodes_edges_and_dead_tiles():
    chip = Chip.from_tile_graph(
        DD,
        3,
        heavy_hex(3, 3),
        defects=DefectSpec(dead_tiles=((9, 0),), disabled_segments=(("e", 0, 9),)),
    )
    placement = snake_placement(6, graph_domain(chip))
    text = render_placement(chip, placement)
    assert "heavy_hex_3x3 graph" in text
    assert "9:X" in text  # dead tile
    assert "0-9:0" in text  # disabled edge renders capacity 0
    assert "edges: " in text
    assert any(f"{node}:q" in text for node in range(18))


# ---------------------------------------------------------------- end to end
@pytest.mark.parametrize(
    "geometry",
    [heavy_hex(3, 3), degree3_sparse(24, seed=7)],
    ids=["heavy_hex", "sparse3"],
)
@pytest.mark.parametrize(
    "method, model",
    [("ecmas_dd_min", DD), ("ecmas_ls_min", LS)],
)
def test_compile_on_graph_chip_engine_parity_and_validator(geometry, method, model):
    circuit = get_benchmark("bv_n10").build()
    chip = Chip.from_tile_graph(model, 3, geometry)
    production = run_pipeline_method(circuit, method, chip=chip)
    reference = reference_compile(circuit, method, chip=chip)
    assert production.encoded.operations == reference.encoded.operations
    report = validate_encoded_circuit(circuit, production.encoded)
    assert report.valid, report.errors[:3]
    assert production.encoded.num_cycles >= 1


def test_compile_on_defective_graph_chip():
    circuit = get_benchmark("bv_n10").build()
    chip = Chip.from_tile_graph(DD, 3, degree3_sparse(24, seed=7))
    defects = random_defects(chip, 0.1, seed=5, min_alive_tiles=circuit.num_qubits)
    chip = chip.with_defects(defects)
    result = run_pipeline_method(circuit, "ecmas_dd_min", chip=chip)
    report = validate_encoded_circuit(circuit, result.encoded)
    assert report.valid, report.errors[:3]


# -------------------------------------------------------- fingerprints / batch
def test_batch_fingerprints_distinguish_geometries():
    circuit = get_benchmark("bv_n10").build()
    square = Chip.minimum_viable(DD, circuit.num_qubits, 3)
    hexish = Chip.from_tile_graph(DD, 3, heavy_hex(3, 3))
    sparse = Chip.from_tile_graph(DD, 3, degree3_sparse(24, seed=7))
    prints = {
        BatchJob(circuit, "ecmas_dd_min", chip=chip).fingerprint()
        for chip in (square, hexish, sparse)
    }
    assert len(prints) == 3
    # Same geometry, different bandwidths: distinct cache identity too.
    widened = Chip.from_tile_graph(DD, 3, heavy_hex(3, 3, bandwidth=2))
    assert (
        BatchJob(circuit, "ecmas_dd_min", chip=widened).fingerprint()
        not in prints
    )


# ------------------------------------------------------------------------ CLI
def test_cli_compile_with_geometry_flag(capsys):
    assert main(["compile", "bv_n10", "--geometry", "heavy_hex:3x3", "--show-placement"]) == 0
    out = capsys.readouterr().out
    assert "schedule valid  : True" in out
    assert "heavy_hex_3x3 graph" in out


def test_cli_geometry_with_defect_rate(capsys):
    assert main(["compile", "bv_n10", "--geometry", "sparse3:24:7", "--defect-rate", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "schedule valid  : True" in out
    assert "defects:" in out


def test_cli_geometry_error_paths(capsys):
    assert main(["compile", "bv_n10", "--geometry", "bogus"]) == 2
    assert "bad geometry spec" in capsys.readouterr().err
    assert (
        main(
            [
                "compile",
                "bv_n10",
                "--geometry",
                "heavy_hex:3x3",
                "--chip-spec",
                "examples/chips/defective_4x4.json",
            ]
        )
        == 2
    )
    assert "pass only one" in capsys.readouterr().err


def test_cli_compile_with_v2_chip_spec_file(capsys):
    assert main(["compile", "bv_n10", "--chip-spec", "examples/chips/heavy_hex_3x3.json"]) == 0
    out = capsys.readouterr().out
    assert "schedule valid  : True" in out


# -------------------------------------------------------------------- service
def test_service_compiles_inline_v2_chip_spec(tmp_path):
    from repro.service import ServiceClient, create_server

    chip = Chip.from_tile_graph(DD, 3, heavy_hex(3, 3))
    server = create_server(port=0, cache=str(tmp_path / "cache"), quiet=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(port=server.server_address[1])
    try:
        job = client.compile(
            circuit="bv_n10", method="ecmas_dd_min", chip=chip_to_dict(chip), wait=True
        )
        assert job["status"] == "done"
        assert job["result"]["cycles"] >= 1
    finally:
        client.close()
        server.shutdown()
        server.close()
        thread.join(timeout=5)
