"""The chip's wiring section and the chip-spec edge of the service.

* :meth:`Chip.segment`, :meth:`Chip.segment_keys`, :meth:`Chip.junctions` and
  :meth:`Chip.tile_access` answer every wiring question for square and graph
  chips, and the routing graph is exactly what they describe;
* a tile-graph defect key names its edge in either order;
* a square chip with a bad code distance or side is rejected when it is
  built, so the daemon answers 400 instead of queueing the job;
* fuzzed v1 / v2 chip specs at :func:`parse_compile_request` either parse to
  a chip that builds a routing graph or fail as a ``SchemaError`` naming the
  ``chip`` field, and a huge tile array parses in bounded memory.
"""

from __future__ import annotations

import copy
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chip import Chip, DefectSpec, SurfaceCodeModel, heavy_hex, square_lattice
from repro.chip.routing_graph import RoutingGraph, edge_key
from repro.chip.spec import chip_to_dict
from repro.circuits.generators import get_benchmark
from repro.errors import ChipError, RoutingError
from repro.pipeline.registry import run_pipeline_method
from repro.service.schema import CompileRequest, SchemaError, parse_compile_request
from repro.verify import validate_encoded_circuit

DD = SurfaceCodeModel.DOUBLE_DEFECT


def _square() -> Chip:
    return Chip.with_tile_array(DD, 3, 2, 3, bandwidth=2)


def _heavy_hex() -> Chip:
    return Chip.from_tile_graph(DD, 3, heavy_hex(3, 3))


# ----------------------------------------------------------------- wiring
def test_segment_answers_square_wiring():
    chip = _square().with_defects(
        DefectSpec(disabled_segments=(("v", 0, 0),), bandwidth_overrides=((("h", 2, 1), 1),))
    )
    assert chip.segment(("h", 0, 1)) == (("j", 0, 1), ("j", 0, 2), ("h", 0), 2)
    assert chip.segment(("h", 2, 1)) == (("j", 2, 1), ("j", 2, 2), ("h", 2), 1)
    assert chip.segment(("v", 1, 3)) == (("j", 1, 3), ("j", 2, 3), ("v", 3), 2)
    assert chip.segment(("v", 0, 0)) == (("j", 0, 0), ("j", 1, 0), ("v", 0), 0)


def test_segment_answers_graph_wiring_in_either_key_order():
    chip = _heavy_hex()
    index = chip.tile_graph.edge_index(0, 9)
    expected = (("j", 0, 0), ("j", 9, 0), ("e", index), 1)
    assert chip.segment(("e", 0, 9)) == expected
    assert chip.segment(("e", 9, 0)) == expected


@pytest.mark.parametrize(
    "chip, key, message",
    [
        (_square(), ("h", 3, 0), r"segment \('h', 3, 0\) is not on the 2x3 tile array"),
        (_square(), ("v", 0, 4), r"segment \('v', 0, 4\) is not on the 2x3 tile array"),
        (_square(), ("h", -1, 0), r"segment \('h', -1, 0\) is not on the 2x3 tile array"),
        (_square(), ("e", 0, 1), r"segment \('e', 0, 1\) is not on the 2x3 tile array"),
        (_square(), ("x", 0, 0), r"kind 'h': 0 <= r <= 2, 0 <= c < 3"),
        (_heavy_hex(), ("h", 0, 0), r"no edge for corridor segment \('h', 0, 0\)"),
        (_heavy_hex(), ("e", 0, 1), r"no edge for corridor segment \('e', 0, 1\)"),
        (_heavy_hex(), ("e", 0, 99), r"no edge for corridor segment \('e', 0, 99\)"),
    ],
)
def test_segment_names_keys_the_chip_lacks(chip, key, message):
    with pytest.raises(ChipError, match=message):
        chip.segment(key)
    with pytest.raises(ChipError, match=message):
        chip.with_defects(DefectSpec(disabled_segments=(key,)))


@pytest.mark.parametrize(
    "chip",
    [
        _square(),
        _heavy_hex(),
        Chip.from_tile_graph(DD, 3, square_lattice(3, 3)),
        _square().with_defects(
            DefectSpec(dead_tiles=((1, 1),), disabled_segments=(("h", 1, 0), ("v", 1, 2)))
        ),
        _heavy_hex().with_defects(
            DefectSpec(dead_tiles=((4, 0),), disabled_segments=(("e", 9, 0),))
        ),
    ],
    ids=["square", "heavy_hex", "square_lattice", "square_defective", "heavy_hex_defective"],
)
def test_routing_graph_is_what_the_wiring_describes(chip):
    graph = RoutingGraph(chip)
    junctions = chip.junctions()
    assert [node for node in graph.nodes if node[0] == "j"] == junctions
    enabled = {}
    for key in chip.segment_keys():
        a, b, corridor, lanes = chip.segment(key)
        assert a in junctions and b in junctions
        if lanes > 0:
            enabled[edge_key(a, b)] = (lanes, corridor)
    corridor_edges = {key for key in graph.edges if key[0][0] == "j" and key[1][0] == "j"}
    assert corridor_edges == set(enabled)
    for (a, b), (lanes, corridor) in enabled.items():
        assert graph.capacity(a, b) == lanes
        assert graph.corridor_of(a, b) == corridor
    for slot in chip.alive_tile_slots():
        tile = ("t", slot.row, slot.col)
        assert sorted(graph.neighbors(tile)) == sorted(chip.tile_access(slot.row, slot.col))
        assert graph.corridor_of(tile, graph.neighbors(tile)[0]) is None


def test_tile_access_reaches_corners_on_square_chips_and_one_junction_on_graph_chips():
    assert _square().tile_access(1, 2) == (("j", 1, 2), ("j", 1, 3), ("j", 2, 2), ("j", 2, 3))
    assert _heavy_hex().tile_access(7, 0) == (("j", 7, 0),)
    assert len(_square().junctions()) == 3 * 4
    assert _heavy_hex().junctions() == [("j", i, 0) for i in range(18)]


def test_corridor_of_rejects_non_edges():
    graph = RoutingGraph(_square())
    with pytest.raises(RoutingError, match="no edge"):
        graph.corridor_of(("j", 0, 0), ("j", 1, 1))


def test_bandwidth_is_cached_per_chip():
    chip = _square().with_defects(DefectSpec(bandwidth_overrides=((("h", 0, 0), 1),)))
    assert chip.bandwidth == 1
    assert chip.__dict__["bandwidth"] == 1
    assert chip.with_defects(DefectSpec()).bandwidth == 2


# ------------------------------------------------ reversed tile-graph edge keys
@pytest.mark.parametrize("key", [("e", 9, 0), ("e", 0, 9)], ids=["reversed", "canonical"])
def test_graph_edge_defect_keys_name_the_edge_in_either_order(key):
    assert DefectSpec(disabled_segments=(key,)) == DefectSpec(disabled_segments=(("e", 0, 9),))
    assert DefectSpec(bandwidth_overrides=((key, 0),)).bandwidth_overrides == (
        (("e", 0, 9), 0),
    )
    for spec in (
        DefectSpec(disabled_segments=(key,)),
        DefectSpec(bandwidth_overrides=((key, 0),)),
    ):
        chip = _heavy_hex().with_defects(spec)
        assert chip.segment_capacity(("e", 0, 9)) == 0
        assert not RoutingGraph(chip).has_edge(("j", 0, 0), ("j", 9, 0))
        for name in ("bv_n10", "qft_n10", "ising_n10"):
            circuit = get_benchmark(name).build()
            result = run_pipeline_method(circuit, "ecmas_dd_min", chip=chip, validate=True)
            report = validate_encoded_circuit(circuit, result.encoded)
            assert report.valid, report.errors[:3]


# ----------------------------------------------- bad code distance / side
def _v1_spec(**changes) -> dict:
    spec = chip_to_dict(Chip.minimum_viable(DD, 9, 3))
    spec.update(changes)
    return spec


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"code_distance": 0}, "code distance must be positive"),
        ({"code_distance": -2}, "code distance must be positive"),
        ({"code_distance": 10**400}, "chip spec numbers are out of range"),
        ({"side": 0}, "chip side 0 cannot hold 3 tiles"),
        ({"side": 17}, "chip side 17 cannot hold 3 tiles"),
    ],
)
def test_square_chip_with_bad_distance_or_side_is_a_schema_error(changes, message):
    with pytest.raises(SchemaError) as excinfo:
        parse_compile_request({"circuit": "bv_n10", "chip": _v1_spec(**changes)})
    assert [error["field"] for error in excinfo.value.errors] == ["chip"]
    assert message in excinfo.value.errors[0]["message"]


def test_graph_chip_with_bad_distance_is_rejected():
    with pytest.raises(ChipError, match="code distance must be positive"):
        Chip(DD, 0, 4, 1, (), (), 60, tile_graph=square_lattice(2, 2))


# ------------------------------------------------- chip-spec fuzz at the edge
def _v2_spec() -> dict:
    chip = _heavy_hex().with_defects(
        DefectSpec(dead_tiles=((4, 0),), disabled_segments=(("e", 1, 9),))
    )
    return chip_to_dict(chip)


def _v1_defective_spec() -> dict:
    chip = Chip.four_x(DD, 9, 3).with_defects(
        DefectSpec(
            dead_tiles=((1, 2),),
            disabled_segments=(("h", 1, 1),),
            bandwidth_overrides=((("v", 2, 3), 1),),
        )
    )
    return chip_to_dict(chip)


BASES = (_v1_spec(), _v1_defective_spec(), _v2_spec())

#: Values any field may be replaced with: wrong types, out-of-range
#: integers, non-integers and non-finite floats.
ODD_VALUES = st.one_of(
    st.integers(-3, 40),
    st.sampled_from([10**6, 10**400, -(10**400)]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1.5, "3", "x", "", None, True, [], {}, [1, 2], [[1]], {"a": 1}]),
)
NUMBER = st.one_of(
    st.integers(-3, 40),
    st.sampled_from([10**6, 10**400, -(10**400), 1.5, math.nan, math.inf, -math.inf, "3", "x"]),
)
INDEX = st.one_of(st.integers(-2, 20), st.sampled_from([1.5, math.nan, math.inf, "2", None]))
SEGMENT = st.tuples(st.sampled_from(["h", "v", "e", "x", ""]), INDEX, INDEX).map(list)


@st.composite
def mutated_specs(draw) -> dict:
    spec = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        mutation = draw(
            st.sampled_from(
                [
                    "replace",
                    "number",
                    "delete",
                    "unknown",
                    "dead",
                    "disable",
                    "override",
                    "reverse",
                    "block",
                ]
            )
        )
        defects = spec.setdefault("defects", {})
        if not isinstance(defects, dict):
            defects = spec["defects"] = {}

        def entries(field: str) -> list:
            if not isinstance(defects.get(field), list):
                defects[field] = []
            return defects[field]

        if mutation == "replace":
            spec[draw(st.sampled_from(sorted(spec)))] = draw(ODD_VALUES)
        elif mutation == "number":
            spec[draw(st.sampled_from(["code_distance", "side", "tile_rows", "tile_cols"]))] = draw(
                NUMBER
            )
        elif mutation == "delete":
            spec.pop(draw(st.sampled_from(sorted(spec))))
        elif mutation == "unknown":
            spec[draw(st.sampled_from(["colour", "geometry", "tile_rows", "bandwidth"]))] = 1
        elif mutation == "dead":
            entries("dead_tiles").append([draw(INDEX), draw(INDEX)])
        elif mutation == "disable":
            entries("disabled_segments").append(draw(SEGMENT))
        elif mutation == "override":
            entries("bandwidth_overrides").append([draw(SEGMENT), draw(INDEX)])
        elif mutation == "reverse" and "geometry" in spec:
            edges = spec["geometry"].get("edges") if isinstance(spec["geometry"], dict) else None
            if edges:
                a, b, _lanes = edges[draw(st.integers(0, len(edges) - 1))]
                entries("disabled_segments").append(["e", b, a])
        elif mutation == "block":
            field = draw(
                st.sampled_from(["dead_tiles", "disabled_segments", "bandwidth_overrides", "kind"])
            )
            defects[field] = draw(ODD_VALUES)
    return spec


@settings(max_examples=300, deadline=None)
@given(mutated_specs())
def test_fuzzed_chip_specs_parse_or_name_the_chip_field(spec):
    try:
        request = parse_compile_request({"circuit": "bv_n10", "chip": spec})
    except SchemaError as exc:
        assert {error["field"] for error in exc.errors} == {"chip"}, exc.errors
        return
    assert isinstance(request, CompileRequest)
    RoutingGraph(request.chip)
    assert request.chip.bandwidth >= 0


def test_huge_tile_array_parses_in_bounded_memory():
    rows = 600
    spec = {
        "format": "repro-chip-spec",
        "version": 1,
        "model": "double_defect",
        "code_distance": 3,
        "tile_rows": rows,
        "tile_cols": rows,
        "h_bandwidths": [1] * (rows + 1),
        "v_bandwidths": [1] * (rows + 1),
        "side": rows * 15,
        "defects": {"dead_tiles": [[rows - 1, rows - 1]]},
    }
    tracemalloc.start()
    try:
        request = parse_compile_request({"circuit": "bv_n10", "chip": spec})
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert request.chip.num_alive_tile_slots == rows * rows - 1
    assert peak < 20 * 1024 * 1024, f"parsing peaked at {peak / 2**20:.1f} MB"
