"""Physical-qubit accounting for surface-code chips.

This module turns the paper's geometric statements (Section III and Fig. 5)
into arithmetic:

Double defect model
    * a tile block is a square of ``5d × 5d`` physical qubits containing a
      ``2d``-wide defect core plus half-channels on each side (Fig. 5a),
    * a braiding lane needs a channel width of ``2.5d`` physical qubits,
    * the bandwidth of a channel of width ``W`` is ``⌊W / 2.5d⌋``.

Lattice surgery model
    * a tile is ``⌈√2·d⌉ × ⌈√2·d⌉`` physical qubits (rotated surface code,
      Fig. 5b),
    * channels are built from ancilla tiles, so a lane is exactly one tile
      wide and the bandwidth of a channel of width ``W`` is ``⌊W / ⌈√2·d⌉⌋``.

The minimum viable chip of the paper (``l = ⌈√n⌉·5d`` for double defect and
``l = ⌈√n⌉·⌈√2·d⌉`` for lattice surgery) corresponds to bandwidth 1 in the
double defect model and to the densest packing in lattice surgery; the "4x"
chip doubles the side length.  :func:`corridor_widths` distributes the
leftover physical width across the ``rows + 1`` channel corridors, which is
the quantity the *bandwidth adjusting* step of Ecmas redistributes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.errors import ChipError


class SurfaceCodeModel(enum.Enum):
    """The two logical-qubit encodings the paper studies."""

    DOUBLE_DEFECT = "double_defect"
    LATTICE_SURGERY = "lattice_surgery"


#: Tile block side in units of the code distance ``d`` (double defect).
DD_TILE_BLOCK_FACTOR = 5.0
#: Defect-core side in units of ``d``; the rest of the block is channel margin.
DD_TILE_CORE_FACTOR = 2.0
#: Braiding-lane width in units of ``d``.
DD_LANE_FACTOR = 2.5


def tile_side(model: SurfaceCodeModel, code_distance: int) -> int:
    """Physical-qubit side length of one tile *core* (the logical patch itself)."""
    check_distance(code_distance)
    if model is SurfaceCodeModel.DOUBLE_DEFECT:
        return int(math.ceil(DD_TILE_CORE_FACTOR * code_distance))
    return int(math.ceil(math.sqrt(2.0) * code_distance))


def tile_block_side(model: SurfaceCodeModel, code_distance: int) -> int:
    """Side length of a tile *block*: the core plus its share of channels.

    The minimum viable chip packs one block per logical qubit.
    """
    check_distance(code_distance)
    if model is SurfaceCodeModel.DOUBLE_DEFECT:
        return int(math.ceil(DD_TILE_BLOCK_FACTOR * code_distance))
    # Lattice surgery: one data tile plus one ancilla-channel tile per block
    # (EDPCI-style layout: qubit tiles separated by single-tile corridors).
    return 2 * tile_side(model, code_distance)


def lane_width(model: SurfaceCodeModel, code_distance: int) -> float:
    """Channel width consumed by one communication lane."""
    check_distance(code_distance)
    if model is SurfaceCodeModel.DOUBLE_DEFECT:
        return DD_LANE_FACTOR * code_distance
    return float(tile_side(model, code_distance))


def channel_bandwidth(model: SurfaceCodeModel, code_distance: int, width: float) -> int:
    """Bandwidth ``⌊W / lane⌋`` of a channel of physical width ``width``."""
    if width < 0:
        raise ChipError(f"channel width must be non-negative, got {width}")
    return int(width // lane_width(model, code_distance))


def minimum_viable_side(model: SurfaceCodeModel, num_qubits: int, code_distance: int) -> int:
    """Side length ``l`` of the paper's minimum viable chip ``L_{l×l}``."""
    _check_qubits(num_qubits)
    tiles_per_side = int(math.ceil(math.sqrt(num_qubits)))
    if model is SurfaceCodeModel.DOUBLE_DEFECT:
        return tiles_per_side * int(math.ceil(DD_TILE_BLOCK_FACTOR * code_distance))
    return tiles_per_side * tile_side(model, code_distance)


def four_x_side(model: SurfaceCodeModel, num_qubits: int, code_distance: int) -> int:
    """Side length of the paper's "4x" resource configuration.

    For the lattice surgery model the paper defines the 4x chip as
    ``l = ⌈√n⌉ · 5d`` (the double defect minimum); for double defect it is a
    chip with four times the physical qubits, i.e. double the side.
    """
    tiles_per_side = int(math.ceil(math.sqrt(num_qubits)))
    if model is SurfaceCodeModel.LATTICE_SURGERY:
        return tiles_per_side * int(math.ceil(DD_TILE_BLOCK_FACTOR * code_distance))
    return 2 * minimum_viable_side(model, num_qubits, code_distance)


def corridor_widths(
    model: SurfaceCodeModel,
    code_distance: int,
    tiles_per_side: int,
    side: int,
) -> list[float]:
    """Split the free width of a chip side into ``tiles_per_side + 1`` corridors.

    The tile cores occupy ``tiles_per_side * tile_side`` physical columns;
    whatever remains is channel width, distributed as evenly as possible over
    the corridors between and around the tile columns.  Bandwidth adjusting
    later redistributes this same total width non-uniformly.
    """
    if tiles_per_side <= 0:
        raise ChipError("a chip needs at least one tile per side")
    free = side - check_side(model, code_distance, tiles_per_side, side)
    corridors = tiles_per_side + 1
    base = free / corridors
    return [base] * corridors


def check_side(model: SurfaceCodeModel, code_distance: int, tiles_per_side: int, side: int) -> int:
    """Width the tile cores of one side occupy; raises when ``side`` is narrower."""
    core = tile_side(model, code_distance)
    if side < tiles_per_side * core:
        raise ChipError(
            f"chip side {side} cannot hold {tiles_per_side} tiles of core width {core}"
        )
    return tiles_per_side * core


def total_lane_budget(
    model: SurfaceCodeModel,
    code_distance: int,
    tiles_per_side: int,
    side: int,
) -> int:
    """Total number of lanes available along one axis of the chip.

    Computed as the free width (side minus tile cores) divided by the lane
    width, with a floor of one lane per corridor: the paper's minimum viable
    chips support single-lane braiding everywhere by construction (each tile
    block reserves its half-channels, Fig. 5a), even though the even split of
    the leftover width alone would round down to zero.
    """
    widths = corridor_widths(model, code_distance, tiles_per_side, side)
    lane = lane_width(model, code_distance)
    corridors = tiles_per_side + 1
    return max(corridors, int(sum(widths) // lane))


def uniform_bandwidths(
    model: SurfaceCodeModel,
    code_distance: int,
    tiles_per_side: int,
    side: int,
) -> list[int]:
    """Per-corridor bandwidths for an evenly laid-out chip.

    The total lane budget of the axis is spread as evenly as possible over the
    ``tiles_per_side + 1`` corridors; when it does not divide evenly the inner
    corridors receive the extra lanes first (they carry the most traffic).
    """
    corridors = tiles_per_side + 1
    total = total_lane_budget(model, code_distance, tiles_per_side, side)
    base, extra = divmod(total, corridors)
    bandwidths = [base] * corridors
    # Hand the remainder to the innermost corridors first.
    order = sorted(range(corridors), key=lambda i: abs(i - corridors / 2.0 + 0.5))
    for i in order[:extra]:
        bandwidths[i] += 1
    return [max(1, b) for b in bandwidths]


def total_physical_qubits(side: int) -> int:
    """Number of physical qubits of a square chip of side ``side``."""
    if side <= 0:
        raise ChipError(f"chip side must be positive, got {side}")
    return side * side


def side_for_bandwidth(
    model: SurfaceCodeModel,
    num_qubits: int,
    code_distance: int,
    bandwidth: int,
) -> int:
    """Smallest square chip side giving every corridor at least ``bandwidth`` lanes.

    Used for the chip-size sweeps of Figure 12, where the paper scales the
    chip so the average bandwidth per channel rises from 1 to 5.
    """
    if bandwidth < 1:
        raise ChipError(f"bandwidth must be at least 1, got {bandwidth}")
    tiles_per_side = int(math.ceil(math.sqrt(num_qubits)))
    core = tile_side(model, code_distance)
    lane = lane_width(model, code_distance)
    corridors = tiles_per_side + 1
    free = bandwidth * lane * corridors
    side = tiles_per_side * core + int(math.ceil(free))
    return max(side, minimum_viable_side(model, num_qubits, code_distance))


def sufficient_bandwidth(parallelism: int) -> int:
    """Smallest bandwidth whose communication capacity covers ``parallelism``.

    Inverts Theorem 2: capacity ``⌊(b-1)/2⌋ + 3 ≥ PM`` requires
    ``b ≥ 2·(PM - 3) + 1`` for PM > 3 and ``b = 1`` otherwise.
    """
    if parallelism < 1:
        raise ChipError(f"parallelism must be at least 1, got {parallelism}")
    if parallelism <= 3:
        return 1
    return 2 * (parallelism - 3) + 1


def communication_capacity(bandwidth: int) -> int:
    """Chip communication capacity ``⌊(b-1)/2⌋ + 3`` (Theorem 2)."""
    if bandwidth < 1:
        raise ChipError(f"bandwidth must be at least 1, got {bandwidth}")
    return (bandwidth - 1) // 2 + 3


@dataclass(frozen=True)
class ChipBudget:
    """Total channel-width budget of a chip along one dimension.

    ``total_width`` is the physical width available to corridors along one
    axis (free width plus the per-block margins); bandwidth adjusting may
    redistribute it between corridors but never exceed it.
    """

    model: SurfaceCodeModel
    code_distance: int
    corridors: int
    total_width: float

    def max_total_lanes(self) -> int:
        """Upper bound on the sum of corridor bandwidths along this axis."""
        return int(self.total_width // lane_width(self.model, self.code_distance))


def axis_budget(
    model: SurfaceCodeModel,
    code_distance: int,
    tiles_per_side: int,
    side: int,
) -> ChipBudget:
    """Channel-width budget along one axis of a square chip."""
    lanes = total_lane_budget(model, code_distance, tiles_per_side, side)
    total = lanes * lane_width(model, code_distance)
    return ChipBudget(model, code_distance, tiles_per_side + 1, total)


def check_distance(code_distance: int) -> None:
    """Raise :class:`ChipError` unless ``code_distance`` is at least one."""
    if code_distance < 1:
        raise ChipError(f"code distance must be positive, got {code_distance}")


def _check_qubits(num_qubits: int) -> None:
    if num_qubits < 1:
        raise ChipError(f"need at least one logical qubit, got {num_qubits}")
