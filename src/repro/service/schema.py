"""The compile service's frozen, versioned request/response schema.

Everything the HTTP API accepts or emits is defined here — field tables,
validation, and the serialisers for records, schedules and jobs — so the
daemon (:mod:`repro.service.server`), the client
(:mod:`repro.service.client`) and the documentation generator
(:mod:`repro.service.docs`) all share one source of truth.  The docs site's
HTTP API reference is generated field-by-field from the tables in this
module; if you change a field here, regenerate ``docs/http-api.md`` (see
``python -m repro.service.docs``).

Versioning
----------
:data:`API_VERSION` identifies the wire format.  Every response carries
``api_version``; requests may include it, and a request pinned to a version
this build does not speak is rejected with a schema error instead of being
misinterpreted.  Version 1 is frozen: fields may be *added* in later
versions, never renamed or repurposed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.chip.chip import Chip
from repro.chip.spec import chip_from_dict
from repro.circuits import qasm
from repro.circuits.circuit import Circuit
from repro.circuits.generators import get_benchmark
from repro.core.ecmas import EcmasOptions
from repro.core.schedule import EncodedCircuit, ScheduledOperation
from repro.errors import ReproError
from repro.pipeline.batch import BatchJob, build_batch_jobs
from repro.pipeline.registry import validate_methods

#: The wire-format version of every request and response in this module.
API_VERSION = 1

#: Hard ceiling on synchronous ``wait`` requests, seconds.
MAX_WAIT_SECONDS = 600.0

#: Most placement attempts one request may ask for (16x the default of 4).
#: The library's :class:`~repro.core.ecmas.EcmasOptions` stays unbounded;
#: the daemon bounds the work one request can demand of its worker.
MAX_PLACEMENT_ATTEMPTS = 64

#: Values the retired ``engine`` request field still accepts (and ignores).
ACCEPTED_ENGINE_VALUES = ("reference", "fast")


class SchemaError(ReproError):
    """A request failed validation; ``errors`` lists every offending field.

    Each entry is ``{"field": <dotted path>, "message": <what is wrong>}``.
    The server maps this to an HTTP 400 whose body carries the same list, so
    clients see every problem at once instead of fixing them one by one.
    """

    def __init__(self, errors: list[dict]):
        self.errors = list(errors)
        summary = "; ".join(f"{e['field']}: {e['message']}" for e in self.errors)
        super().__init__(f"invalid request: {summary}")


@dataclass(frozen=True)
class FieldSpec:
    """One documented field of a request or response payload."""

    name: str
    type: str
    description: str
    required: bool = False
    default: object = None


# --------------------------------------------------------------------------
# Field tables (the documented wire format; docs.py renders these verbatim)
# --------------------------------------------------------------------------

#: Fields shared by ``/compile`` and ``/batch`` requests.
COMMON_REQUEST_FIELDS: tuple[FieldSpec, ...] = (
    FieldSpec(
        "api_version",
        "int",
        f"Wire-format version the client speaks.  Optional; when present it must "
        f"equal {API_VERSION}.",
        default=API_VERSION,
    ),
    FieldSpec(
        "engine",
        "string",
        'Accepted for API v1 compatibility and ignored: `"reference"` or '
        '`"fast"`.  Every compile runs the one production scheduler, so both '
        "values and an omitted field give the same record and share one "
        "result-cache entry.  Any other value is rejected.",
        default="reference",
    ),
    FieldSpec(
        "code_distance",
        "int",
        "Surface-code distance of the target chip (default 3).",
        default=3,
    ),
    FieldSpec(
        "chip",
        "object",
        "Inline chip spec (the `repro-chip-spec` JSON format, including "
        "defects) pinning the target chip.  Omitted, each method builds its "
        "registered resource configuration.",
        default=None,
    ),
    FieldSpec(
        "options",
        "object",
        "Ecmas tuning knobs (`placement_strategy`, `cut_initialisation`, "
        "`cut_strategy`, `priority`, `adjust_bandwidth`, `placement_attempts`, "
        "`seed`).  Unknown keys are rejected; `placement_attempts` is capped "
        f"at {MAX_PLACEMENT_ATTEMPTS}.  Omitted, the paper's defaults apply.",
        default=None,
    ),
    FieldSpec(
        "validate",
        "bool",
        "Replay the schedule through the validator after compiling "
        "(validation time is not counted as compile time).",
        default=False,
    ),
    FieldSpec(
        "use_cache",
        "bool",
        "Serve and persist this request through the daemon's result cache "
        "(default true).  Identical repeat requests then return the cached "
        "record, observable as a `result_cache.hits` increment in `/stats`.",
        default=True,
    ),
    FieldSpec(
        "wait",
        "bool",
        "Block the HTTP response until the job finishes and inline its "
        "result, instead of returning `202 Accepted` immediately.",
        default=False,
    ),
    FieldSpec(
        "timeout_seconds",
        "number",
        f"With `wait`: give up waiting after this many seconds (the job keeps "
        f"running; poll `/jobs/<id>`).  Capped at {MAX_WAIT_SECONDS:.0f}.",
        default=60.0,
    ),
)

#: ``POST /compile`` request fields (in addition to the common fields).
COMPILE_REQUEST_FIELDS: tuple[FieldSpec, ...] = (
    FieldSpec(
        "circuit",
        "string",
        "Name of a built-in benchmark circuit (e.g. `qft_n10`; see "
        "`repro suite`).  Exactly one of `circuit` / `qasm` is required.",
    ),
    FieldSpec(
        "qasm",
        "string",
        "Inline OpenQASM 2.0 source to compile.  Exactly one of `circuit` / "
        "`qasm` is required.",
    ),
    FieldSpec(
        "name",
        "string",
        "Display name stamped on the result record (defaults to the "
        "benchmark name, or `qasm` for inline source).",
        default=None,
    ),
    FieldSpec(
        "method",
        "string",
        'Compile configuration: `"ecmas"` (default), a Table I method such as '
        "`ecmas_dd_min` / `autobraid` / `edpci_min`, or an ablation "
        "`<family>:<value>`.",
        default="ecmas",
    ),
    FieldSpec(
        "include_schedule",
        "bool",
        "Inline the full operation list of the encoded circuit in the "
        "result.  Schedule payloads are never served from the result cache: "
        "the request always compiles (through the daemon's warm per-chip "
        "state) so the operations are exact.",
        default=False,
    ),
) + COMMON_REQUEST_FIELDS

#: ``POST /batch`` request fields (in addition to the common fields).
BATCH_REQUEST_FIELDS: tuple[FieldSpec, ...] = (
    FieldSpec(
        "circuits",
        "array",
        "Non-empty list of circuits: each entry is a built-in benchmark name "
        'or an object `{"name": string, "qasm": string}` with inline OpenQASM.',
        required=True,
    ),
    FieldSpec(
        "methods",
        "array",
        "Non-empty list of method names; the job matrix is circuits × "
        "methods, ordered circuit-major.",
        required=True,
    ),
) + COMMON_REQUEST_FIELDS

#: ``GET /jobs/<id>`` (and inlined job) response fields.
JOB_RESPONSE_FIELDS: tuple[FieldSpec, ...] = (
    FieldSpec("api_version", "int", "Wire-format version of this response."),
    FieldSpec("job_id", "string", "Opaque job identifier, unique per daemon."),
    FieldSpec("kind", "string", '`"compile"` or `"batch"`.'),
    FieldSpec(
        "status",
        "string",
        '`"queued"` → `"running"` → `"done"` | `"failed"`.',
    ),
    FieldSpec("submitted_at", "number", "Unix timestamp the job was accepted."),
    FieldSpec(
        "started_at",
        "number|null",
        "Unix timestamp compilation started (null while queued).",
    ),
    FieldSpec(
        "finished_at",
        "number|null",
        "Unix timestamp the job reached a terminal status.",
    ),
    FieldSpec(
        "result",
        "object|null",
        "Terminal `done` payload: for compile jobs a record object (plus "
        "`schedule` when requested and `cached` marking a result-cache hit); "
        "for batch jobs `records`, `failures`, `cache_hits`, `cache_misses`.",
    ),
    FieldSpec(
        "error",
        "object|null",
        'Terminal `failed` payload: `{"error": string, "detail": string}`.',
    ),
)

#: ``GET /healthz`` response fields.
HEALTH_RESPONSE_FIELDS: tuple[FieldSpec, ...] = (
    FieldSpec("api_version", "int", "Wire-format version of this response."),
    FieldSpec("status", "string", '`"ok"` whenever the daemon can answer at all.'),
    FieldSpec("version", "string", "The `repro` library version serving requests."),
    FieldSpec("uptime_seconds", "number", "Seconds since the daemon started."),
)

#: ``GET /stats`` response fields.
STATS_RESPONSE_FIELDS: tuple[FieldSpec, ...] = (
    FieldSpec("api_version", "int", "Wire-format version of this response."),
    FieldSpec("uptime_seconds", "number", "Seconds since the daemon started."),
    FieldSpec(
        "jobs",
        "object",
        "Job counters: `submitted`, `completed`, `failed`, `queued`, "
        "`running`, `kept` (jobs retained for `/jobs/<id>`).",
    ),
    FieldSpec(
        "result_cache",
        "object|null",
        "Result-cache counters (`directory`, `memory_entries`, `hits`, "
        "`misses`; with `?scan=1` also the disk tier's `entries`, `bytes` "
        "and `shards` — an O(cache-size) walk, so opt-in), or null when the "
        "daemon runs cache-less.",
    ),
    FieldSpec(
        "warm_state",
        "object",
        "The process's routing-graph store, which keeps every chip's routing "
        "graph and one topology (with its memo of hop tables and unloaded "
        "paths) per chip shape: held `chips`, `topologies`, `landmark_tables` "
        "and `static_paths`; `held_cells` against `budget_cells`; and `hits`, "
        "`misses` and `evictions`, counted per chip.",
    ),
    FieldSpec(
        "engine_counters",
        "object",
        "Aggregate scheduling counters across every compile served "
        "(`route_calls`, `nodes_expanded`, `cycles_simulated`, …).",
    ),
    FieldSpec(
        "methods",
        "object",
        "The method catalogue this build serves: every plain method with its "
        "model / resources / scheduler, plus the ablation-family grammar.",
    ),
)

#: Error response fields (HTTP 400 / 404 / 405 / 500).
ERROR_RESPONSE_FIELDS: tuple[FieldSpec, ...] = (
    FieldSpec("api_version", "int", "Wire-format version of this response."),
    FieldSpec(
        "error",
        "string",
        'Machine-readable category: `"schema_error"`, `"not_found"`, '
        '`"method_not_allowed"`, `"internal_error"`.',
    ),
    FieldSpec("message", "string", "Human-readable summary."),
    FieldSpec(
        "errors",
        "array",
        'For `schema_error`: every offending field as `{"field", "message"}`.',
    ),
)


# --------------------------------------------------------------------------
# Parsed request objects
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CompileRequest:
    """A validated ``POST /compile`` request (see :data:`COMPILE_REQUEST_FIELDS`)."""

    circuit: Circuit
    name: str
    method: str = "ecmas"
    code_distance: int = 3
    chip: Chip | None = None
    options: EcmasOptions | None = None
    validate: bool = False
    use_cache: bool = True
    include_schedule: bool = False
    wait: bool = False
    timeout_seconds: float = 60.0

    def to_job(self) -> BatchJob:
        """The batch-engine job this request compiles as (fingerprint included)."""
        return BatchJob(
            circuit=self.circuit,
            method=self.method,
            circuit_name=self.name,
            code_distance=self.code_distance,
            chip=self.chip,
            options=self.options,
            validate=self.validate,
        )


@dataclass(frozen=True)
class BatchRequest:
    """A validated ``POST /batch`` request (see :data:`BATCH_REQUEST_FIELDS`)."""

    circuits: tuple[tuple[str, Circuit], ...]
    methods: tuple[str, ...]
    code_distance: int = 3
    chip: Chip | None = None
    options: EcmasOptions | None = None
    validate: bool = False
    use_cache: bool = True
    wait: bool = False
    timeout_seconds: float = 60.0

    def to_jobs(self) -> list[BatchJob]:
        """The circuits × methods job matrix, circuit-major."""
        return build_batch_jobs(
            list(self.circuits),
            list(self.methods),
            code_distance=self.code_distance,
            validate=self.validate,
            chip=self.chip,
            options=self.options,
        )


# --------------------------------------------------------------------------
# Validation
# --------------------------------------------------------------------------


class _Errors:
    """Collects ``(field, message)`` pairs and raises one SchemaError at the end."""

    def __init__(self) -> None:
        self.items: list[dict] = []

    def add(self, field_name: str, message: str) -> None:
        self.items.append({"field": field_name, "message": message})

    def raise_if_any(self) -> None:
        if self.items:
            raise SchemaError(self.items)


def decode_body(raw: bytes) -> object:
    """Decode a request body's JSON, raising :class:`SchemaError` when it is empty or invalid."""
    if not raw:
        raise SchemaError([{"field": "", "message": "request body is empty"}])
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError([{"field": "", "message": f"request body is not valid JSON: {exc}"}])


def _require_object(payload: object) -> dict:
    if not isinstance(payload, dict):
        raise SchemaError(
            [{"field": "", "message": f"request body must be a JSON object, got {type(payload).__name__}"}]
        )
    return payload


def _check_unknown(payload: dict, specs: tuple[FieldSpec, ...], errors: _Errors) -> None:
    known = {spec.name for spec in specs}
    for key in payload:
        if key not in known:
            errors.add(key, "unknown field")


def _typed(payload: dict, name: str, kinds, default, errors: _Errors, label: str):
    value = payload.get(name, default)
    if value is default:
        return default
    if isinstance(value, bool) and bool not in (kinds if isinstance(kinds, tuple) else (kinds,)):
        errors.add(name, f"must be {label}, got a boolean")
        return default
    if not isinstance(value, kinds):
        errors.add(name, f"must be {label}, got {type(value).__name__}")
        return default
    return value


def _parse_api_version(payload: dict, errors: _Errors) -> None:
    version = _typed(payload, "api_version", int, API_VERSION, errors, "an integer")
    if version != API_VERSION:
        errors.add("api_version", f"this daemon speaks version {API_VERSION}, got {version}")


def _parse_common(payload: dict, errors: _Errors) -> dict:
    """Parse the fields shared by compile and batch requests."""
    out: dict = {}
    _parse_api_version(payload, errors)

    engine = _typed(payload, "engine", str, "reference", errors, "a string")
    if engine not in ACCEPTED_ENGINE_VALUES:
        errors.add(
            "engine", f"must be one of {', '.join(ACCEPTED_ENGINE_VALUES)}; got {engine!r}"
        )

    code_distance = _typed(payload, "code_distance", int, 3, errors, "an integer")
    if code_distance < 1:
        errors.add("code_distance", f"must be a positive integer, got {code_distance}")
        code_distance = 3
    out["code_distance"] = code_distance

    chip_payload = _typed(payload, "chip", dict, None, errors, "a chip-spec object")
    out["chip"] = None
    if chip_payload is not None:
        try:
            out["chip"] = chip_from_dict(chip_payload)
        except ReproError as exc:
            errors.add("chip", str(exc))

    options_payload = _typed(payload, "options", dict, None, errors, "an options object")
    out["options"] = None
    if options_payload is not None:
        unknown = set(options_payload) - set(EcmasOptions.field_names())
        if unknown:
            errors.add(
                "options",
                f"unknown option(s) {', '.join(sorted(unknown))}; valid options: "
                f"{', '.join(EcmasOptions.field_names())}",
            )
        else:
            try:
                options = EcmasOptions(**options_payload)
            except (ReproError, TypeError) as exc:
                errors.add("options", str(exc))
            else:
                if options.placement_attempts > MAX_PLACEMENT_ATTEMPTS:
                    errors.add(
                        "options",
                        f"placement_attempts is capped at {MAX_PLACEMENT_ATTEMPTS} per request,"
                        f" got {options.placement_attempts}",
                    )
                else:
                    out["options"] = options

    out["validate"] = _typed(payload, "validate", bool, False, errors, "a boolean")
    out["use_cache"] = _typed(payload, "use_cache", bool, True, errors, "a boolean")
    out["wait"] = _typed(payload, "wait", bool, False, errors, "a boolean")
    timeout = _typed(payload, "timeout_seconds", (int, float), 60.0, errors, "a number")
    if timeout <= 0:
        errors.add("timeout_seconds", f"must be positive, got {timeout}")
        timeout = 60.0
    out["timeout_seconds"] = min(float(timeout), MAX_WAIT_SECONDS)
    return out


def _load_named_circuit(name: str, field_name: str, errors: _Errors) -> Circuit | None:
    try:
        return get_benchmark(name).build()
    except ReproError as exc:
        errors.add(field_name, str(exc))
        return None


def _load_qasm_circuit(source: str, field_name: str, errors: _Errors) -> Circuit | None:
    try:
        return qasm.loads(source)
    except ReproError as exc:
        errors.add(field_name, str(exc))
        return None


def _check_method(method: str, field_name: str, errors: _Errors) -> None:
    try:
        validate_methods([method])
    except ReproError as exc:
        errors.add(field_name, str(exc))


def parse_compile_request(payload: object) -> CompileRequest:
    """Validate a ``/compile`` body, raising :class:`SchemaError` on any problem."""
    payload = _require_object(payload)
    errors = _Errors()
    _check_unknown(payload, COMPILE_REQUEST_FIELDS, errors)
    common = _parse_common(payload, errors)

    circuit_name = _typed(payload, "circuit", str, None, errors, "a string")
    qasm_source = _typed(payload, "qasm", str, None, errors, "a string")
    display_name = _typed(payload, "name", str, None, errors, "a string")
    circuit: Circuit | None = None
    if (circuit_name is None) == (qasm_source is None):
        errors.add("circuit", "exactly one of 'circuit' and 'qasm' is required")
    elif circuit_name is not None:
        circuit = _load_named_circuit(circuit_name, "circuit", errors)
    else:
        circuit = _load_qasm_circuit(qasm_source, "qasm", errors)

    method = _typed(payload, "method", str, "ecmas", errors, "a string")
    _check_method(method, "method", errors)
    include_schedule = _typed(payload, "include_schedule", bool, False, errors, "a boolean")

    errors.raise_if_any()
    assert circuit is not None  # errors.raise_if_any() fired otherwise
    return CompileRequest(
        circuit=circuit,
        name=display_name or circuit_name or circuit.name or "qasm",
        method=method,
        include_schedule=include_schedule,
        **common,
    )


def parse_batch_request(payload: object) -> BatchRequest:
    """Validate a ``/batch`` body, raising :class:`SchemaError` on any problem."""
    payload = _require_object(payload)
    errors = _Errors()
    _check_unknown(payload, BATCH_REQUEST_FIELDS, errors)
    common = _parse_common(payload, errors)

    circuits: list[tuple[str, Circuit]] = []
    entries = payload.get("circuits")
    if not isinstance(entries, list) or not entries:
        errors.add("circuits", "must be a non-empty array")
        entries = []
    for index, entry in enumerate(entries):
        field_name = f"circuits[{index}]"
        if isinstance(entry, str):
            circuit = _load_named_circuit(entry, field_name, errors)
            if circuit is not None:
                circuits.append((entry, circuit))
        elif isinstance(entry, dict):
            unknown = set(entry) - {"name", "qasm"}
            if unknown:
                errors.add(field_name, f"unknown key(s) {', '.join(sorted(unknown))}")
                continue
            source = entry.get("qasm")
            if not isinstance(source, str):
                errors.add(field_name, "inline circuits need a 'qasm' string")
                continue
            circuit = _load_qasm_circuit(source, field_name, errors)
            if circuit is not None:
                circuits.append((str(entry.get("name") or circuit.name or "qasm"), circuit))
        else:
            errors.add(field_name, "must be a benchmark name or {name, qasm} object")

    methods = payload.get("methods")
    if not isinstance(methods, list) or not methods or not all(isinstance(m, str) for m in methods):
        errors.add("methods", "must be a non-empty array of method names")
        methods = []
    else:
        try:
            validate_methods(methods)
        except ReproError as exc:
            errors.add("methods", str(exc))

    errors.raise_if_any()
    return BatchRequest(circuits=tuple(circuits), methods=tuple(methods), **common)


# --------------------------------------------------------------------------
# Response serialisation
# --------------------------------------------------------------------------


def operation_payload(op: ScheduledOperation) -> dict:
    """JSON-able form of one scheduled operation (lossless for comparison)."""
    return {
        "kind": op.kind.value,
        "start_cycle": op.start_cycle,
        "duration": op.duration,
        "qubits": list(op.qubits),
        "gate_node": op.gate_node,
        "path": [list(node) for node in op.path.nodes] if op.path is not None else None,
        "lanes": op.lanes,
        "new_cut": op.new_cut.value if op.new_cut is not None else None,
    }


def schedule_payload(encoded: EncodedCircuit) -> dict:
    """JSON-able form of a full encoded circuit's schedule.

    This is the payload compared bit-for-bit against the in-process
    :func:`repro.compile_circuit` path by the service round-trip test.
    """
    return {
        "model": encoded.model.value,
        "method": encoded.method,
        "num_cycles": encoded.num_cycles,
        "operations": [operation_payload(op) for op in encoded.operations],
    }


def error_payload(category: str, message: str, errors: list[dict] | None = None) -> dict:
    """The uniform error body (see :data:`ERROR_RESPONSE_FIELDS`)."""
    payload = {"api_version": API_VERSION, "error": category, "message": message}
    if errors is not None:
        payload["errors"] = errors
    return payload
