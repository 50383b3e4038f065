"""JSON chip-spec files: persist a :class:`Chip` including its defects.

A chip spec is a small JSON document describing a concrete device — model,
code distance, geometry, bandwidths and defect list — so that a defective
chip measured once (or synthesised for an experiment) can be compiled against
repeatedly, from the CLI (``repro compile --chip-spec``) or programmatically.

**Version 1** describes the paper's square lattice::

    {
      "format": "repro-chip-spec",
      "version": 1,
      "model": "double_defect",
      "code_distance": 3,
      "tile_rows": 4,
      "tile_cols": 4,
      "h_bandwidths": [1, 1, 1, 1, 1],
      "v_bandwidths": [1, 1, 1, 1, 1],
      "side": 60,
      "defects": {
        "dead_tiles": [[1, 2]],
        "disabled_segments": [["h", 0, 1]],
        "bandwidth_overrides": [[["v", 2, 3], 1]]
      }
    }

**Version 2** describes an arbitrary tile graph (heavy-hex, degree-3,
sparse — see :mod:`repro.chip.tile_graph`): the tile array and corridor
vectors are replaced by a ``geometry`` block, and defect keys use graph
addressing (dead tiles ``[node, 0]``, segments ``["e", a, b]``)::

    {
      "format": "repro-chip-spec",
      "version": 2,
      "model": "double_defect",
      "code_distance": 3,
      "geometry": {
        "name": "heavy_hex_3x3",
        "nodes": [[0.0, 0.0], [1.0, 0.0], ...],
        "edges": [[0, 9, 1], [1, 9, 1], ...],
        "node_budgets": [2, 3, ...]
      },
      "side": 60,
      "defects": {"dead_tiles": [[4, 0]], "disabled_segments": [["e", 0, 9]]}
    }

The ``defects`` block is optional in both versions; omitted, the chip is
pristine.  ``side`` is optional in version 2 (derived from the geometry when
absent).  Unknown fields are rejected by name — a spec written by a newer
tool fails loudly instead of silently dropping what it doesn't understand.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from repro.chip.chip import Chip
from repro.chip.defects import DefectSpec
from repro.chip.geometry import SurfaceCodeModel
from repro.chip.tile_graph import TileGraph
from repro.errors import ChipError

#: Spec-file format marker and the newest version this build understands.
CHIP_SPEC_FORMAT = "repro-chip-spec"
CHIP_SPEC_VERSION = 2

#: Field → expected-type contract per spec version (hardening: any other
#: field is rejected by name, and type mismatches name the field).
_V1_FIELDS = {
    "format": (str, "a string"),
    "version": (int, "an integer"),
    "model": (str, "a surface-code model name"),
    "code_distance": (int, "an integer"),
    "tile_rows": (int, "an integer"),
    "tile_cols": (int, "an integer"),
    "h_bandwidths": (list, "a list of integers"),
    "v_bandwidths": (list, "a list of integers"),
    "side": (int, "an integer"),
    "defects": (dict, "an object"),
}
_V2_FIELDS = {
    "format": (str, "a string"),
    "version": (int, "an integer"),
    "model": (str, "a surface-code model name"),
    "code_distance": (int, "an integer"),
    "geometry": (dict, "an object"),
    "side": (int, "an integer"),
    "defects": (dict, "an object"),
}
_DEFECT_FIELDS = ("dead_tiles", "disabled_segments", "bandwidth_overrides")


def chip_to_dict(chip: Chip) -> dict:
    """JSON-able dict describing ``chip`` (inverse of :func:`chip_from_dict`).

    Square chips emit version 1 (byte-compatible with pre-graph releases);
    graph chips emit version 2 with a ``geometry`` block.
    """
    if chip.tile_graph is not None:
        payload = {
            "format": CHIP_SPEC_FORMAT,
            "version": 2,
            "model": chip.model.value,
            "code_distance": chip.code_distance,
            "geometry": chip.tile_graph.to_dict(),
            "side": chip.side,
        }
    else:
        payload = {
            "format": CHIP_SPEC_FORMAT,
            "version": 1,
            "model": chip.model.value,
            "code_distance": chip.code_distance,
            "tile_rows": chip.tile_rows,
            "tile_cols": chip.tile_cols,
            "h_bandwidths": list(chip.h_bandwidths),
            "v_bandwidths": list(chip.v_bandwidths),
            "side": chip.side,
        }
    if not chip.defects.is_empty:
        payload["defects"] = chip.defects.to_dict()
    return payload


def _require(payload: dict, field: str, fields: dict):
    """Fetch a required field, checking its declared type."""
    if field not in payload:
        raise ChipError(f"chip spec is missing the {field!r} field")
    return _typed(payload, field, fields)


def _typed(payload: dict, field: str, fields: dict):
    """Type-check one present field against the version's contract."""
    value = payload[field]
    expected, description = fields[field]
    if expected is int:
        # JSON has no int/float split worth fighting over; accept numeric
        # strings too (legacy tolerance) but name the field when they fail.
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise ChipError(
                f"chip spec field {field!r} must be {description}, "
                f"got {type(value).__name__}"
            )
        try:
            return int(value)
        except (ValueError, OverflowError) as exc:
            raise ChipError(
                f"chip spec field {field!r} must be {description}, got {value!r}"
            ) from exc
    if not isinstance(value, expected):
        raise ChipError(
            f"chip spec field {field!r} must be {description}, got {type(value).__name__}"
        )
    return value


def _int_list(payload: dict, field: str, fields: dict) -> tuple[int, ...]:
    values = _require(payload, field, fields)
    try:
        return tuple(int(b) for b in values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ChipError(
            f"chip spec field {field!r} must be a list of integers: {exc}"
        ) from exc


def _model(payload: dict, fields: dict) -> SurfaceCodeModel:
    name = _require(payload, "model", fields)
    try:
        return SurfaceCodeModel(name)
    except ValueError as exc:
        raise ChipError(
            f"chip spec field 'model' must be a surface-code model name, got {name!r}"
        ) from exc


def _defects(payload: dict, fields: dict) -> DefectSpec:
    block = _typed(payload, "defects", fields) if "defects" in payload else {}
    for field in sorted(block):
        if field not in _DEFECT_FIELDS:
            raise ChipError(
                f"chip spec defects block has unknown field {field!r}; "
                f"expected one of {sorted(_DEFECT_FIELDS)}"
            )
    try:
        return DefectSpec.from_dict(block)
    except ChipError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ChipError(f"chip spec field 'defects' is malformed: {exc}") from exc


def chip_from_dict(payload: dict) -> Chip:
    """Build a :class:`Chip` from a spec dict, with clear errors on bad input.

    Accepts versions 1 (square lattice) and 2 (tile graph).  Every failure is
    a :class:`ChipError` naming the offending field and its expected type;
    unknown fields are rejected rather than ignored.
    """
    if not isinstance(payload, dict):
        raise ChipError(f"chip spec must be a JSON object, got {type(payload).__name__}")
    if payload.get("format", CHIP_SPEC_FORMAT) != CHIP_SPEC_FORMAT:
        raise ChipError(f"not a chip spec: format is {payload.get('format')!r}")
    version = (
        _typed(payload, "version", _V1_FIELDS) if "version" in payload else 1
    )
    if version not in (1, 2):
        raise ChipError(
            f"chip spec version {version} is not supported "
            f"(this build reads versions 1..{CHIP_SPEC_VERSION})"
        )
    fields = _V1_FIELDS if version == 1 else _V2_FIELDS
    for field in sorted(payload):
        if field not in fields:
            raise ChipError(
                f"chip spec (version {version}) has unknown field {field!r}; "
                f"expected one of {sorted(fields)}"
            )
    model = _model(payload, fields)
    code_distance = _require(payload, "code_distance", fields)
    defects = _defects(payload, fields)
    try:
        if version == 1:
            return Chip(
                model=model,
                code_distance=code_distance,
                tile_rows=_require(payload, "tile_rows", fields),
                tile_cols=_require(payload, "tile_cols", fields),
                h_bandwidths=_int_list(payload, "h_bandwidths", fields),
                v_bandwidths=_int_list(payload, "v_bandwidths", fields),
                side=_require(payload, "side", fields),
                defects=defects,
            )
        graph = TileGraph.from_dict(_require(payload, "geometry", fields))
        chip = Chip.from_tile_graph(model, code_distance, graph, defects=defects)
    except OverflowError as exc:
        # The physical accounting is floating point; a distance or width
        # beyond float range cannot describe a chip.
        raise ChipError(f"chip spec numbers are out of range: {exc}") from exc
    if "side" in payload:
        chip = replace(chip, side=_typed(payload, "side", fields))
    return chip


def save_chip_spec(chip: Chip, path: Path | str) -> Path:
    """Write ``chip`` as a JSON spec file; returns the path written."""
    path = Path(path)
    path.write_text(json.dumps(chip_to_dict(chip), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def load_chip_spec(path: Path | str) -> Chip:
    """Read a chip from a JSON spec file."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ChipError(f"cannot read chip spec {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ChipError(f"chip spec {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ChipError(f"chip spec {path} must contain a JSON object")
    return chip_from_dict(payload)
