"""Defect-aware chips: spec model, routing graph, placement, pipeline, validator."""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracle import reference_compile

from repro.chip import (
    Chip,
    DefectSpec,
    RoutingGraph,
    SurfaceCodeModel,
    chip_from_dict,
    chip_is_routable,
    chip_to_dict,
    load_chip_spec,
    random_defects,
    save_chip_spec,
)
from repro.chip.chip import TileSlot
from repro.circuits.generators import standard
from repro.core.mapping import determine_shape, establish_placement
from repro.errors import ChipError, MappingError, RoutingError
from repro.pipeline.batch import BatchJob
from repro.pipeline.registry import run_pipeline_method
from repro.verify import validate_encoded_circuit

DD = SurfaceCodeModel.DOUBLE_DEFECT
LS = SurfaceCodeModel.LATTICE_SURGERY


def _chip(model=DD, rows=4, cols=4, bandwidth=2) -> Chip:
    return Chip.with_tile_array(model, 3, rows, cols, bandwidth=bandwidth)


# ------------------------------------------------------------------ DefectSpec
class TestDefectSpec:
    def test_canonicalisation_and_equality(self):
        a = DefectSpec(
            dead_tiles=((1, 2), (0, 0), (1, 2)),
            disabled_segments=(("v", 1, 0), ("h", 0, 1)),
            bandwidth_overrides=((("h", 2, 0), 1), (("h", 2, 0), 1)),
        )
        b = DefectSpec(
            dead_tiles=((0, 0), (1, 2)),
            disabled_segments=(("h", 0, 1), ("v", 1, 0)),
            bandwidth_overrides=((("h", 2, 0), 1),),
        )
        assert a == b
        assert hash(a) == hash(b)

    def test_zero_override_counts_as_disabled(self):
        spec = DefectSpec(bandwidth_overrides=((("h", 0, 0), 0),))
        assert ("h", 0, 0) in spec.disabled_set()

    def test_empty_spec(self):
        assert DefectSpec().is_empty
        assert not DefectSpec(dead_tiles=((0, 0),)).is_empty

    def test_out_of_range_defects_rejected(self):
        chip = _chip()
        with pytest.raises(ChipError, match="dead tile"):
            chip.with_defects(DefectSpec(dead_tiles=((9, 0),)))
        with pytest.raises(ChipError, match="segment"):
            chip.with_defects(DefectSpec(disabled_segments=(("h", 0, 4),)))
        with pytest.raises(ChipError, match="kind"):
            chip.with_defects(DefectSpec(disabled_segments=(("x", 0, 0),)))

    def test_negative_override_rejected(self):
        with pytest.raises(ChipError, match=">= 0"):
            DefectSpec(bandwidth_overrides=((("h", 0, 0), -1),))

    def test_dict_roundtrip(self):
        spec = DefectSpec(
            dead_tiles=((1, 1),),
            disabled_segments=(("v", 0, 2),),
            bandwidth_overrides=((("h", 1, 0), 1),),
        )
        assert DefectSpec.from_dict(spec.to_dict()) == spec


# ------------------------------------------------------------------------ Chip
class TestDefectiveChip:
    def test_alive_slots_and_describe(self):
        chip = _chip().with_defects(DefectSpec(dead_tiles=((0, 0), (3, 3))))
        assert chip.num_alive_tile_slots == 14
        assert TileSlot(0, 0) not in chip.alive_tile_slots()
        assert chip.is_dead_slot(TileSlot(0, 0))
        assert not chip.is_dead_slot(TileSlot(1, 1))
        assert "2 dead tiles" in chip.describe()

    def test_bandwidth_reflects_overrides_not_disabled_segments(self):
        chip = _chip(bandwidth=2)
        degraded = chip.with_defects(DefectSpec(bandwidth_overrides=((("h", 0, 0), 1),)))
        assert chip.bandwidth == 2
        assert degraded.bandwidth == 1
        # A disabled segment is excluded from the minimum, not counted as 0.
        disabled = chip.with_defects(DefectSpec(disabled_segments=(("h", 0, 0),)))
        assert disabled.bandwidth == 2

    def test_override_cannot_exceed_nominal_bandwidth(self):
        # Overrides model degraded hardware: a spec claiming more lanes than
        # the physical corridor has is clamped, not honored.
        chip = _chip(bandwidth=1).with_defects(DefectSpec(bandwidth_overrides=((("h", 0, 0), 99),)))
        assert chip.segment_capacity(("h", 0, 0)) == 1
        assert chip.bandwidth == 1
        assert RoutingGraph(chip).capacity(("j", 0, 0), ("j", 0, 1)) == 1

    def test_segment_capacity(self):
        chip = _chip(bandwidth=2).with_defects(
            DefectSpec(
                disabled_segments=(("h", 0, 0),),
                bandwidth_overrides=((("v", 1, 1), 1),),
            )
        )
        assert chip.segment_capacity(("h", 0, 0)) == 0
        assert chip.segment_capacity(("v", 1, 1)) == 1
        assert chip.segment_capacity(("h", 1, 1)) == 2

    def test_spec_file_roundtrip(self, tmp_path):
        chip = _chip(model=LS).with_defects(
            DefectSpec(dead_tiles=((2, 1),), disabled_segments=(("v", 0, 1),))
        )
        path = save_chip_spec(chip, tmp_path / "chip.json")
        assert load_chip_spec(path) == chip
        assert chip_from_dict(chip_to_dict(chip)) == chip

    def test_spec_file_errors(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(ChipError, match="cannot read"):
            load_chip_spec(missing)
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        with pytest.raises(ChipError, match="not valid JSON"):
            load_chip_spec(bad)
        bad.write_text("[1, 2]")
        with pytest.raises(ChipError, match="JSON object"):
            load_chip_spec(bad)
        with pytest.raises(ChipError, match="format"):
            chip_from_dict({"format": "something-else"})
        with pytest.raises(ChipError, match="missing"):
            chip_from_dict({"model": "double_defect"})

    def test_spec_with_malformed_field_types(self):
        good = chip_to_dict(_chip())
        for field, value in (
            ("h_bandwidths", 5),
            ("defects", "oops"),
            ("version", "not-a-number"),
            ("model", 17),
            ("defects", {"dead_tiles": 3}),
        ):
            payload = dict(good)
            payload[field] = value
            with pytest.raises(ChipError):
                chip_from_dict(payload)


# ---------------------------------------------------------------- RoutingGraph
class TestDefectiveRoutingGraph:
    def test_dead_tiles_have_no_node(self):
        chip = _chip().with_defects(DefectSpec(dead_tiles=((1, 1),)))
        graph = RoutingGraph(chip)
        assert ("t", 1, 1) not in graph.nodes
        assert ("t", 1, 1) not in graph.tile_nodes()
        assert len(graph.tile_nodes()) == 15

    def test_dead_tile_has_no_capacity(self):
        # Regression: node_capacity answered a dead or off-array tile with
        # the unbounded tile sentinel instead of rejecting it.
        graph = RoutingGraph(_chip().with_defects(DefectSpec(dead_tiles=((1, 1),))))
        for missing in (("t", 1, 1), ("t", 9, 9)):
            with pytest.raises(RoutingError, match="unknown node"):
                graph.node_capacity(missing)

    @pytest.mark.parametrize("missing", [("t", 1, 1), ("t", 9, 9)])
    def test_router_rejects_tile_the_graph_lacks(self, missing):
        # Regression: a dead (1, 1) or off-array (9, 9) endpoint leaked a
        # KeyError out of the router instead of a named RoutingError.
        from repro.routing.fast_router import FastRouter
        from repro.routing.paths import CapacityUsage

        chip = Chip.with_tile_array(DD, 3, 2, 2).with_defects(DefectSpec(dead_tiles=((1, 1),)))
        graph = RoutingGraph(chip)
        router = FastRouter(graph)
        for source, target in ((("t", 0, 0), missing), (missing, ("t", 0, 0))):
            with pytest.raises(RoutingError, match=rf"tile \('t', {missing[1]}, {missing[2]}\)"):
                router.find(CapacityUsage(), graph.tile_id(source), graph.tile_id(target))

    def test_disconnected_pair_counts_one_failure_per_query(self):
        # Regression: the first loaded query of a statically disconnected
        # pair counted its failure twice (the static answer, then the cached
        # None); a repeat counted once.
        from repro.profiling import EngineCounters
        from repro.routing.fast_router import FastRouter
        from repro.routing.paths import CapacityUsage

        chip = _chip(LS, rows=3, cols=3)
        segments = tuple(key for key, _ in chip.corridor_segments())
        graph = RoutingGraph(chip.with_defects(DefectSpec(disabled_segments=segments)))
        router = FastRouter(graph)
        usage = CapacityUsage()
        usage.used[0] = 1  # any reservation makes the query a loaded one
        source, target = graph.tile_id(("t", 0, 0)), graph.tile_id(("t", 0, 2))
        for _query in range(2):
            stats = EngineCounters()
            assert router.find(usage, source, target, stats=stats) is None
            assert stats.route_failures == 1

    def test_disabled_segment_removed(self):
        chip = _chip().with_defects(DefectSpec(disabled_segments=(("h", 2, 1),)))
        graph = RoutingGraph(chip)
        assert not graph.has_edge(("j", 2, 1), ("j", 2, 2))
        pristine = RoutingGraph(_chip())
        assert pristine.has_edge(("j", 2, 1), ("j", 2, 2))

    def test_bandwidth_override_applied(self):
        chip = _chip(bandwidth=3).with_defects(DefectSpec(bandwidth_overrides=((("v", 1, 2), 1),)))
        graph = RoutingGraph(chip)
        assert graph.capacity(("j", 1, 2), ("j", 2, 2)) == 1
        assert graph.capacity(("j", 0, 2), ("j", 1, 2)) == 3

    def test_junction_capacity_uses_enabled_segments(self):
        # Junction (1, 1) with all four incident segments overridden to 1
        # provides only one through-lane even though the corridors claim 3.
        overrides = tuple(
            (key, 1) for key in (("h", 1, 0), ("h", 1, 1), ("v", 0, 1), ("v", 1, 1))
        )
        chip = _chip(bandwidth=3).with_defects(DefectSpec(bandwidth_overrides=overrides))
        graph = RoutingGraph(chip)
        assert graph.node_capacity(("j", 1, 1)) == 1
        assert RoutingGraph(_chip(bandwidth=3)).node_capacity(("j", 1, 1)) == 3

    def test_routability_check(self):
        chip = _chip(rows=1, cols=3, bandwidth=1)
        assert chip_is_routable(chip)
        all_segments = tuple(key for key, _ in chip.corridor_segments())
        isolated = chip.with_defects(DefectSpec(disabled_segments=all_segments))
        assert not chip_is_routable(isolated)

    def test_routability_respects_junction_through_capacity(self):
        # Tiles (0, 0) and (0, 1) share only the corner junctions (0, 1) and
        # (1, 1).  Disabling every corridor segment incident to those two
        # junctions leaves their tile-access edges in place, but no path may
        # pass *through* a zero-capacity junction, so the tiles are
        # unroutable — the check must not be fooled by the access edges.
        chip = _chip(rows=1, cols=2, bandwidth=1)
        blocked = chip.with_defects(
            DefectSpec(
                disabled_segments=(
                    ("h", 0, 0), ("h", 0, 1), ("h", 1, 0), ("h", 1, 1), ("v", 0, 1),
                )
            )
        )
        assert not chip_is_routable(blocked)

    def test_routability_agrees_with_find_path(self):
        # Ground truth: chip_is_routable must match pairwise find_path
        # feasibility, including on heavily degraded chips (the historical
        # failure mode was a generated "routable" chip with an unroutable
        # tile pair, seen at rate 0.7 seed 7 on a 5x5 bandwidth-1 chip).
        from oracle import ReferenceUsage, find_path

        chip = _chip(rows=5, cols=5, bandwidth=1)
        for seed in (7, 45, 3):
            spec = random_defects(chip, 0.7, seed=seed, min_alive_tiles=4)
            defective = chip.with_defects(spec)
            graph = RoutingGraph(defective)
            tiles = graph.tile_nodes()
            pairwise = all(
                find_path(graph, ReferenceUsage(), a, b) is not None
                for a in tiles
                for b in tiles
                if a < b
            )
            assert chip_is_routable(defective)
            assert pairwise, f"seed {seed}: generated spec left an unroutable tile pair"


# ------------------------------------------------------------- random_defects
class TestRandomDefects:
    def test_deterministic_and_routable(self):
        chip = _chip()
        a = random_defects(chip, 0.25, seed=7, min_alive_tiles=8)
        b = random_defects(chip, 0.25, seed=7, min_alive_tiles=8)
        assert a == b
        assert chip_is_routable(chip.with_defects(a))

    def test_respects_min_alive(self):
        chip = _chip()
        spec = random_defects(chip, 1.0, seed=0, min_alive_tiles=10)
        assert chip.num_tile_slots - len(spec.dead_tiles) >= 10

    def test_zero_rate_is_pristine(self):
        assert random_defects(_chip(), 0.0, seed=1).is_empty

    def test_composes_with_existing_chip_defects(self):
        # A chip loaded from a measured spec keeps its declared defects when
        # degraded further: the generated spec is a superset of chip.defects.
        base = DefectSpec(dead_tiles=((0, 0), (2, 3)), disabled_segments=(("h", 1, 1),))
        chip = _chip().with_defects(base)
        spec = random_defects(chip, 0.2, seed=5, min_alive_tiles=8)
        assert set(base.dead_tiles) <= set(spec.dead_tiles)
        assert set(base.disabled_segments) <= set(spec.disabled_set())
        assert chip_is_routable(chip.with_defects(spec))

    def test_invalid_inputs(self):
        with pytest.raises(ChipError, match="rate"):
            random_defects(_chip(), 1.5)
        with pytest.raises(ChipError, match="alive"):
            random_defects(_chip(), 0.1, min_alive_tiles=17)


# ------------------------------------------------------------------- placement
class TestDefectAwarePlacement:
    @pytest.mark.parametrize("strategy", ["ecmas", "metis", "trivial", "spectral", "random"])
    def test_strategies_avoid_dead_tiles(self, strategy):
        circuit = standard.qft(8)
        graph = circuit.communication_graph()
        dead = frozenset({(0, 0), (1, 1), (2, 2)})
        placement = establish_placement(graph, (3, 4), strategy=strategy, dead=dead)
        assert placement.num_qubits() == 8
        occupied = {(s.row, s.col) for s in placement.slots()}
        assert not occupied & dead

    def test_chip_error_when_defects_starve_the_circuit(self):
        circuit = standard.qft(8)
        chip = _chip(rows=3, cols=3).with_defects(
            DefectSpec(dead_tiles=((0, 0), (1, 1)))
        )
        with pytest.raises(ChipError, match="alive"):
            determine_shape(circuit.num_qubits, chip)

    def test_determine_shape_widens_around_dead_tiles(self):
        chip = _chip(rows=4, cols=4)
        assert determine_shape(8, chip) == (3, 3)
        # Two dead tiles inside the 3x3 window push the shape wider.
        defective = chip.with_defects(DefectSpec(dead_tiles=((0, 0), (1, 1))))
        rows, cols = determine_shape(8, defective)
        dead = defective.defects.dead_set()
        alive = rows * cols - sum(1 for r, c in dead if r < rows and c < cols)
        assert alive >= 8

    def test_placement_validate_rejects_dead_slot(self):
        chip = _chip().with_defects(DefectSpec(dead_tiles=((0, 0),)))
        placement = establish_placement(
            standard.qft(4).communication_graph(), (2, 2), strategy="trivial"
        )
        with pytest.raises(MappingError, match="dead"):
            placement.validate(chip)


# ------------------------------------------------------------------- pipeline
class TestDefectivePipeline:
    @pytest.mark.parametrize("method", ["ecmas_dd_min", "ecmas_ls_min"])
    def test_end_to_end_valid_on_defective_chip(self, method):
        circuit = standard.qft(8)
        model = DD if "dd" in method else LS
        chip = _chip(model=model, bandwidth=2)
        spec = random_defects(chip, 0.2, seed=3, min_alive_tiles=8)
        result = run_pipeline_method(circuit, method, chip=chip.with_defects(spec))
        report = validate_encoded_circuit(circuit, result.encoded)
        assert report.valid, report.errors[:3]
        assert not result.encoded.chip.defects.is_empty

    def test_defects_param_applies_to_built_chip(self):
        circuit = standard.ghz_state(8)
        spec = DefectSpec(dead_tiles=((0, 0),))
        result = run_pipeline_method(circuit, "ecmas_dd_min", defects=spec)
        assert result.encoded.chip.defects == spec
        occupied = {(s.row, s.col) for s in result.encoded.placement.slots()}
        assert (0, 0) not in occupied
        validate_encoded_circuit(circuit, result.encoded).raise_if_invalid()

    def test_fully_disabled_corridor_grid_reports_capacity_zero(self):
        # A chip whose every corridor segment is disabled has no
        # communication capacity; a gate-free circuit still compiles (nothing
        # to route) instead of crashing in the scheduler-selection pass.
        from repro.circuits import Circuit
        from repro.core.metrics import chip_communication_capacity

        chip = _chip(rows=2, cols=2)
        dark = chip.with_defects(
            DefectSpec(disabled_segments=tuple(key for key, _ in chip.corridor_segments()))
        )
        assert dark.bandwidth == 0
        assert chip_communication_capacity(dark) == 0
        result = run_pipeline_method(Circuit(1), "ecmas", chip=dark)
        assert result.encoded.num_cycles == 0

    def test_resu_on_defective_sufficient_chip(self):
        circuit = standard.qft(8)
        parallelism = 4
        chip = Chip.sufficient(DD, 8, 3, parallelism)
        spec = DefectSpec(bandwidth_overrides=((("h", 1, 0), max(1, chip.bandwidth - 1)),))
        result = run_pipeline_method(
            circuit, "ecmas_dd_resu", chip=chip.with_defects(spec), scheduler="resu"
        )
        validate_encoded_circuit(circuit, result.encoded).raise_if_invalid()


# ------------------------------------------------------------------- validator
class TestDefectValidation:
    def _encoded_crossing(self, chip, path_nodes):
        from repro.core.schedule import EncodedCircuit, OperationKind, ScheduledOperation
        from repro.partition.placement import Placement
        from repro.routing.paths import RoutedPath

        pristine_graph = RoutingGraph(chip.with_defects(DefectSpec()))
        path = RoutedPath.from_nodes(pristine_graph, path_nodes)
        placement = Placement({0: TileSlot(0, 0), 1: TileSlot(0, 2)})
        from repro.circuits import Circuit

        circuit = Circuit(2)
        circuit.cx(0, 1)
        encoded = EncodedCircuit(
            model=chip.model,
            chip=chip,
            placement=placement,
            initial_cut_types=None,
            operations=[
                ScheduledOperation(
                    kind=OperationKind.CNOT_BRAID,
                    start_cycle=0,
                    duration=1,
                    qubits=(0, 1),
                    gate_node=0,
                    path=path,
                )
            ],
        )
        return circuit, encoded

    def test_path_across_disabled_segment_flagged(self):
        chip = _chip(model=LS, rows=1, cols=3, bandwidth=1).with_defects(
            DefectSpec(disabled_segments=(("h", 0, 1),))
        )
        circuit, encoded = self._encoded_crossing(
            chip, [("t", 0, 0), ("j", 0, 1), ("j", 0, 2), ("t", 0, 2)]
        )
        report = validate_encoded_circuit(circuit, encoded)
        assert not report.valid
        assert any("disabled corridor segment" in e for e in report.errors)

    def test_operation_on_dead_tile_flagged(self):
        chip = _chip(model=LS, rows=1, cols=3, bandwidth=1).with_defects(
            DefectSpec(dead_tiles=((0, 0),))
        )
        circuit, encoded = self._encoded_crossing(
            chip, [("t", 0, 0), ("j", 0, 1), ("j", 0, 2), ("t", 0, 2)]
        )
        report = validate_encoded_circuit(circuit, encoded)
        assert not report.valid
        assert any("dead tile" in e for e in report.errors)


# ----------------------------------------------------------- cache fingerprints
class TestDefectFingerprints:
    def test_defects_change_the_job_fingerprint(self):
        circuit = standard.ghz_state(4)
        base = BatchJob(circuit, "ecmas_dd_min")
        spec = DefectSpec(dead_tiles=((0, 0),))
        assert base.fingerprint() != BatchJob(circuit, "ecmas_dd_min", defects=spec).fingerprint()

    def test_defective_chip_changes_the_fingerprint(self):
        circuit = standard.ghz_state(4)
        chip = _chip(rows=2, cols=2)
        spec = DefectSpec(disabled_segments=(("h", 0, 0),))
        pristine = BatchJob(circuit, "ecmas_dd_min", chip=chip)
        defective = BatchJob(circuit, "ecmas_dd_min", chip=chip.with_defects(spec))
        assert pristine.fingerprint() != defective.fingerprint()

    def test_batch_cache_roundtrip_with_defects(self, tmp_path):
        from repro.pipeline.batch import ResultCache, run_batch

        circuit = standard.ghz_state(8)
        job = BatchJob(circuit, "ecmas_dd_min", defects=DefectSpec(dead_tiles=((0, 0),)))
        cache = ResultCache(tmp_path)
        first = run_batch([job], cache=cache)
        second = run_batch([job], cache=cache)
        assert first.cache_hits == 0 and second.cache_hits == 1
        assert first.records[0].cycles == second.records[0].cycles


# ----------------------------------------- hypothesis: reference-engine parity
def _all_segments(chip: Chip) -> list:
    return [key for key, _ in chip.corridor_segments()]


@st.composite
def defect_specs(draw, chip: Chip, max_dead: int) -> DefectSpec:
    """Random defect sets over ``chip``: dead tiles, disabled and degraded segments."""
    slots = [(r, c) for r in range(chip.tile_rows) for c in range(chip.tile_cols)]
    dead = draw(st.sets(st.sampled_from(slots), max_size=max_dead))
    segments = _all_segments(chip)
    disabled = draw(st.sets(st.sampled_from(segments), max_size=5))
    degraded = draw(st.sets(st.sampled_from(segments), max_size=5))
    return DefectSpec(
        dead_tiles=tuple(dead),
        disabled_segments=tuple(disabled),
        bandwidth_overrides=tuple((key, 1) for key in degraded),
    )


@pytest.mark.parametrize("method,model", [("ecmas_dd_min", DD), ("ecmas_ls_min", LS)])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_engines_identical_on_defective_chips(method, model, data):
    """Differential parity extends to defective chips: production == reference, bit for bit."""
    chip = _chip(model=model, bandwidth=2)
    spec = data.draw(defect_specs(chip, max_dead=4))
    defective = chip.with_defects(spec)
    assume(chip_is_routable(defective))
    circuit = standard.qft(8)
    production = run_pipeline_method(circuit, method, chip=defective)
    reference = reference_compile(circuit, method, chip=defective)
    assert production.encoded.operations == reference.encoded.operations
    report = validate_encoded_circuit(circuit, production.encoded)
    assert report.valid, report.errors[:3]
