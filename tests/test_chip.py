"""Tests for the Chip model."""

import pytest

from repro.chip import Chip, SurfaceCodeModel, TileSlot
from repro.errors import ChipError

DD = SurfaceCodeModel.DOUBLE_DEFECT
LS = SurfaceCodeModel.LATTICE_SURGERY


def test_minimum_viable_chip_has_bandwidth_one():
    chip = Chip.minimum_viable(DD, 8, 3)
    assert chip.tile_rows == chip.tile_cols == 3
    assert chip.bandwidth == 1
    assert chip.communication_capacity == 3


def test_four_x_chip_has_more_bandwidth():
    chip_min = Chip.minimum_viable(DD, 16, 3)
    chip_4x = Chip.four_x(DD, 16, 3)
    assert chip_4x.side == 2 * chip_min.side
    assert chip_4x.bandwidth > chip_min.bandwidth


def test_for_bandwidth_reaches_target():
    for target in (1, 2, 3, 5):
        chip = Chip.for_bandwidth(DD, 9, 3, target)
        assert chip.bandwidth >= target


def test_sufficient_chip_capacity_covers_parallelism():
    for parallelism in (1, 3, 5, 9):
        chip = Chip.sufficient(DD, 16, 3, parallelism)
        assert chip.communication_capacity >= parallelism


def test_tile_slots_row_major_and_contains():
    chip = Chip.with_tile_array(DD, 3, 2, 3)
    slots = chip.tile_slots()
    assert len(slots) == 6
    assert slots[0] == TileSlot(0, 0)
    assert slots[-1] == TileSlot(1, 2)
    assert chip.contains_slot(TileSlot(1, 2))
    assert not chip.contains_slot(TileSlot(2, 0))


def test_manhattan_distance():
    assert TileSlot(0, 0).manhattan_distance(TileSlot(2, 3)) == 5


def test_with_bandwidths_validates_budget():
    chip = Chip.four_x(DD, 9, 3)
    h_budget, v_budget = chip.lane_budget_per_axis()
    corridors = chip.tile_rows + 1
    # A valid redistribution: all budget on one corridor, one lane elsewhere.
    h_new = [1] * corridors
    h_new[1] = h_budget - (corridors - 1)
    adjusted = chip.with_bandwidths(h_new, list(chip.v_bandwidths))
    assert adjusted.h_bandwidths[1] == h_budget - (corridors - 1)
    with pytest.raises(ChipError):
        chip.with_bandwidths([h_budget + 1] + [1] * (corridors - 1), list(chip.v_bandwidths))
    with pytest.raises(ChipError):
        chip.with_bandwidths([0] + [1] * (corridors - 1), list(chip.v_bandwidths))


def test_with_bandwidths_requires_matching_lengths():
    chip = Chip.minimum_viable(DD, 9, 3)
    with pytest.raises(ChipError):
        chip.with_bandwidths([1, 1], list(chip.v_bandwidths))


def test_chip_constructor_validation():
    with pytest.raises(ChipError):
        Chip(DD, 3, 0, 1, (1,), (1, 1), 10)
    with pytest.raises(ChipError):
        Chip(DD, 3, 1, 1, (1,), (1, 1), 10)
    with pytest.raises(ChipError):
        Chip(DD, 3, 1, 1, (1, 0), (1, 1), 10)


def test_describe_mentions_model_and_bandwidth():
    chip = Chip.minimum_viable(LS, 10, 3)
    text = chip.describe()
    assert "lattice_surgery" in text
    assert "bandwidth=1" in text


def test_physical_qubits():
    chip = Chip.minimum_viable(DD, 4, 3)
    assert chip.physical_qubits == chip.side**2
