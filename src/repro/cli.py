"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``profile``
    Print circuit statistics (qubits, CNOTs, depth, parallelism degree) for a
    QASM file or a named built-in benchmark.  With ``--method`` it also
    compiles the circuit once and prints the compile's per-stage timings and
    scheduler counters.
``compile``
    Run the Ecmas pipeline (or a baseline) and print the schedule summary,
    optionally with the placement, a cycle timeline and per-stage timings.
    ``--chip-spec FILE`` compiles onto a chip loaded from a JSON spec
    (including its defects); ``--defect-rate R`` degrades the target chip
    with random, connectivity-preserving defects.
``table``
    Regenerate one of the paper's tables (1-5) on the standard suites,
    optionally fanning the per-cell compilations across worker processes
    (``--jobs``) with an on-disk result cache (disable with ``--no-cache``).
``batch``
    Compile a list of circuits with a list of methods through the batch
    engine and print one record per (circuit, method) pair.  Failed jobs are
    reported individually (exit code 1) while their siblings complete, and
    ``--progress`` streams live ``done/failed/cached`` counts to stderr.
``cache``
    Inspect or clean the on-disk result cache: ``stats`` (entries, bytes,
    shards), ``clear``, and ``prune --older-than DAYS``.
``serve``
    Run the persistent compile daemon: a local HTTP+JSON API
    (``/compile``, ``/batch``, ``/jobs/<id>``, ``/healthz``, ``/stats``)
    that keeps per-chip routing state warm across requests and serves
    repeats from the result cache.  See ``docs/http-api.md``.
``submit``
    Submit a compile request to a running daemon and print the result —
    the client half of ``serve``.
``suite``
    List the built-in benchmark circuits and their statistics.
``lint``
    Run the repository's static-analysis rules (determinism, fingerprint
    completeness, fork/thread safety, docstring coverage) over ``src/``.
    Exit codes follow the CLI convention: 0 clean, 1 findings, 2 usage
    error.  See ``docs/static-analysis.md``.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from repro.chip.geometry import SurfaceCodeModel
from repro.circuits.circuit import Circuit
from repro.circuits.generators import default_suite, get_benchmark
from repro.core import circuit_parallelism_degree
from repro.errors import ReproError
from repro.pipeline.registry import run_pipeline_method, validate_methods

# The evaluation tables, the batch engine, the QASM front end, the validator
# and the renderers are imported inside the handlers that use them, so a
# command loads only what it runs.
if TYPE_CHECKING:
    from repro.pipeline.batch import BatchProgress, ResultCache

_MODELS = {
    "dd": SurfaceCodeModel.DOUBLE_DEFECT,
    "double-defect": SurfaceCodeModel.DOUBLE_DEFECT,
    "ls": SurfaceCodeModel.LATTICE_SURGERY,
    "lattice-surgery": SurfaceCodeModel.LATTICE_SURGERY,
}

#: The paper tables ``repro table`` regenerates (see :func:`_cmd_table`).
_TABLE_NUMBERS = ("1", "2", "3", "4", "5")


def _load_circuit(spec: str) -> Circuit:
    """Load a circuit from a QASM path or a built-in benchmark name."""
    if spec.endswith(".qasm"):
        from repro.circuits import qasm

        return qasm.load(spec)
    return get_benchmark(spec).build()


def _check_jobs(jobs: int | None) -> None:
    """Surface a bad ``--jobs`` value as a clean CLI error before any work."""
    from repro.pipeline.batch import resolve_workers

    try:
        resolve_workers(jobs)
    except ValueError as exc:
        raise ReproError(str(exc)) from None


def _make_cache(args: argparse.Namespace) -> ResultCache | None:
    """Build the result cache requested by ``--cache-dir`` / ``--no-cache``.

    ``--cache-dir`` defaults to ``None``, so :class:`ResultCache` resolves
    ``$REPRO_CACHE_DIR`` at construction time rather than at import time.
    """
    from repro.pipeline.batch import ResultCache

    if getattr(args, "no_cache", False):
        return None
    return ResultCache(args.cache_dir)


class _ProgressReporter:
    """Batch progress hook: collects failures, optionally printing live counts."""

    def __init__(self, echo: bool):
        self.echo = echo
        self.failures: list = []

    def __call__(self, snapshot: BatchProgress) -> None:
        if snapshot.last_failure is not None:
            self.failures.append(snapshot.last_failure)
        if self.echo:
            print(
                f"batch {snapshot.finished}/{snapshot.total}: "
                f"{snapshot.done} compiled, {snapshot.cached} cached, "
                f"{snapshot.failed} failed",
                file=sys.stderr,
            )


def _cmd_profile(args: argparse.Namespace) -> int:
    circuit = _load_circuit(args.circuit)
    print(f"circuit        : {circuit.name}")
    print(f"logical qubits : {circuit.num_qubits}")
    print(f"total gates    : {len(circuit)}")
    print(f"CNOT gates (g) : {circuit.num_cnots}")
    print(f"CNOT depth (α) : {circuit.depth()}")
    print(f"parallelism PM : {circuit_parallelism_degree(circuit)}")
    if args.method is None:
        return 0

    result = run_pipeline_method(circuit, args.method, code_distance=args.code_distance)
    print()
    print(f"method          : {args.method}")
    print(f"cycles          : {result.encoded.num_cycles}")
    print(f"compile time    : {result.compile_seconds * 1000:.1f} ms")
    _print_stages(result)
    if args.cprofile:
        _dump_cprofile(circuit, args.method, args.code_distance, args.cprofile)
    return 0


def _print_stages(result) -> None:
    """Print a compile's per-stage timings, placement and scheduler counters."""
    print()
    print("per-stage timings:")
    for name, seconds in result.timings_dict().items():
        print(f"  {name:<16} {seconds * 1000:8.2f} ms")
    for title, counters in (
        ("placement counters", result.placement_counters),
        ("scheduler counters", result.counters),
    ):
        if counters:
            print(f"{title}:")
            for name, value in counters.items():
                print(f"  {name:<22} {value}")


def _dump_cprofile(circuit, method: str, code_distance: int, out_path: str) -> None:
    """Profile one compile, dump ``.pstats``, print the top 10.

    The dump is a standard :mod:`pstats` file (load with
    ``pstats.Stats(path)`` or ``snakeviz``), so perf PRs can cite real
    profiles instead of guessing at hot spots.
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    run_pipeline_method(circuit, method, code_distance=code_distance)
    profiler.disable()
    profiler.dump_stats(out_path)
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    print()
    print(f"cProfile dump   : {out_path}")
    print("top 10 functions by cumulative time:")
    stats.print_stats(10)


def _cmd_compile(args: argparse.Namespace) -> int:
    from repro.chip import Chip, builtin_tile_graph, load_chip_spec
    from repro.verify import validate_encoded_circuit

    circuit = _load_circuit(args.circuit)
    model = _MODELS[args.model] if args.model is not None else SurfaceCodeModel.DOUBLE_DEFECT
    # --chip-spec pins the target chip (including its declared defects);
    # --geometry builds one from a built-in tile-graph family instead;
    # --defect-rate degrades whatever chip the pipeline targets — supplied or
    # built by BuildChip for the method's own resource configuration.
    if args.chip_spec and args.geometry:
        raise ReproError("--chip-spec and --geometry both pin the chip; pass only one")
    chip = load_chip_spec(args.chip_spec) if args.chip_spec else None
    if args.geometry:
        chip = Chip.from_tile_graph(model, args.code_distance, builtin_tile_graph(args.geometry))
    if chip is not None and args.model is not None and chip.model is not model:
        raise ReproError(
            f"--model {args.model} conflicts with the chip spec's model "
            f"{chip.model.value!r}; drop --model or use a matching spec"
        )
    if args.method == "ecmas":
        result = run_pipeline_method(
            circuit,
            "ecmas",
            model=chip.model if chip is not None else model,
            chip=chip,
            resources=args.resources,
            scheduler=args.scheduler,
            placement=args.placement,
            window=args.window,
            defect_rate=args.defect_rate,
            defect_seed=args.defect_seed,
        )
    else:
        result = run_pipeline_method(
            circuit,
            args.method,
            chip=chip,
            placement=args.placement,
            window=args.window,
            defect_rate=args.defect_rate,
            defect_seed=args.defect_seed,
        )
    encoded = result.encoded
    report = validate_encoded_circuit(circuit, encoded)
    print(f"method          : {encoded.method}")
    print(f"chip            : {encoded.chip.describe()}")
    print(f"cycles          : {encoded.num_cycles}")
    print(f"CNOTs scheduled : {encoded.num_cnots}")
    print(f"cut operations  : {encoded.num_cut_modifications}")
    print(f"compile time    : {encoded.compile_seconds * 1000:.1f} ms")
    print(f"schedule valid  : {report.valid}")
    if not report.valid:
        for error in report.errors[:5]:
            print(f"  error: {error}")
    if args.stages:
        _print_stages(result)
    if args.show_placement or args.timeline or args.gantt:
        from repro import viz
    if args.show_placement:
        print()
        print(viz.render_placement(encoded.chip, encoded.placement))
    if args.timeline:
        print()
        print(viz.render_schedule_timeline(encoded, max_cycles=args.timeline))
    if args.gantt:
        print()
        print(viz.render_gantt(encoded))
    return 0 if report.valid else 1


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.eval import (
        format_table,
        table1_overview,
        table2_location,
        table3_cut_initialisation,
        table4_gate_scheduling,
        table5_cut_scheduling,
    )

    builder, title = {
        "1": (table1_overview, "Table I — Overview of experiment results"),
        "2": (table2_location, "Table II — Location initialisation"),
        "3": (table3_cut_initialisation, "Table III — Cut-type initialisation"),
        "4": (table4_gate_scheduling, "Table IV — Gate scheduling"),
        "5": (table5_cut_scheduling, "Table V — Cut-type scheduling"),
    }[args.number]
    cache = _make_cache(args)
    _check_jobs(args.jobs)
    reporter = _ProgressReporter(echo=args.progress)
    rows = builder(jobs=args.jobs, cache=cache, progress=reporter)
    print(format_table(rows, title=title))
    if cache is not None:
        print(f"cache: {cache.hits} hits, {cache.misses} misses ({cache.directory})")
    if reporter.failures:
        for failure in reporter.failures:
            print(
                f"failed cell: {failure.circuit} x {failure.method} — {failure.error}",
                file=sys.stderr,
            )
        print(
            f"error: {len(reporter.failures)} cell(s) failed to compile (shown as '-')",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.eval import format_table
    from repro.pipeline.batch import build_batch_jobs, run_batch

    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ReproError("--methods needs at least one method name")
    validate_methods(methods)  # a typo must fail fast, not per job in the pool
    _check_jobs(args.jobs)
    # Load each distinct spec once; duplicates in the argument list still
    # produce one job per occurrence, as before.
    circuits = {spec: _load_circuit(spec) for spec in dict.fromkeys(args.circuits)}
    jobs = build_batch_jobs(
        [(spec, circuits[spec]) for spec in args.circuits],
        methods,
        code_distance=args.code_distance,
        validate=args.validate,
        placement=args.placement,
    )
    cache = _make_cache(args)
    reporter = _ProgressReporter(echo=args.progress)
    result = run_batch(jobs, workers=args.jobs, cache=cache, progress=reporter)
    rows = [
        {
            "circuit": record.circuit,
            "method": record.method,
            "n": record.num_qubits,
            "alpha": record.alpha,
            "g": record.num_cnots,
            "cycles": record.cycles,
            "compile_s": round(record.compile_seconds, 4),
        }
        for record in result.records
        if record is not None
    ]
    print(format_table(rows, title=f"Batch results ({result.workers} workers)"))
    if cache is not None:
        print(
            f"cache: {result.cache_hits} hits, {result.cache_misses} misses, "
            f"{result.recompilations} compiled ({cache.directory})"
        )
    for failure in result.failures:
        print(
            f"failed: {failure.circuit} x {failure.method} after "
            f"{failure.seconds:.2f}s — {failure.error}",
            file=sys.stderr,
        )
    return 0 if result.ok else 1


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.pipeline.batch import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.cache_command == "stats":
        stats = cache.stats()
        print(f"directory : {stats['directory']}")
        print(f"entries   : {stats['entries']}")
        print(f"bytes     : {stats['bytes']}")
        print(f"shards    : {stats['shards']}")
        return 0
    if args.cache_command == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached record(s) from {cache.directory}")
        return 0
    if args.cache_command == "prune":
        if args.older_than < 0:
            raise ReproError("--older-than must be a non-negative number of days")
        removed = cache.prune(args.older_than * 86400.0)
        print(
            f"pruned {removed} record(s) older than {args.older_than:g} day(s) "
            f"from {cache.directory}"
        )
        return 0
    raise ReproError(f"unknown cache command {args.cache_command!r}")  # pragma: no cover


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import create_server

    _check_jobs(args.jobs)
    cache = _make_cache(args)
    try:
        server = create_server(
            host=args.host,
            port=args.port,
            cache=cache,
            workers=args.jobs,
            quiet=args.quiet,
        )
    except OSError as exc:
        raise ReproError(f"cannot bind {args.host}:{args.port}: {exc}") from None
    host, port = server.server_address[:2]
    print(f"repro compile daemon listening on http://{host}:{port}", file=sys.stderr)
    print(
        f"cache: {cache.directory if cache is not None else 'disabled'}; "
        f"batch workers: {server.service.workers}",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.close()
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    client = ServiceClient(args.host, args.port, timeout=args.timeout)
    request: dict = {
        "method": args.method,
        "code_distance": args.code_distance,
        "validate": args.validate,
        "use_cache": not args.no_cache,
        "wait": True,
        "timeout_seconds": args.timeout,
    }
    if args.circuit.endswith(".qasm"):
        from pathlib import Path

        try:
            request["qasm"] = Path(args.circuit).read_text(encoding="utf-8")
        except OSError as exc:
            raise ReproError(f"cannot read {args.circuit}: {exc}") from None
        request["name"] = args.circuit
    else:
        request["circuit"] = args.circuit
    try:
        job = client.compile(**request)
    finally:
        client.close()
    if job["status"] != "done":
        error = job.get("error") or {}
        raise ReproError(
            f"job {job['job_id']} {job['status']}: "
            f"{error.get('detail') or error.get('error') or 'not finished in time'}"
        )
    record = job["result"]
    print(f"job             : {job['job_id']}")
    print(f"circuit         : {record['circuit']}")
    print(f"method          : {record['method']}")
    print(f"chip            : {record['chip']}")
    print(f"cycles          : {record['cycles']}")
    print(f"CNOTs scheduled : {record['num_cnots']}")
    print(f"compile time    : {record['compile_seconds'] * 1000:.1f} ms")
    print(f"served from     : {'result cache' if record.get('cached') else 'fresh compile'}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json as json_mod

    from repro.analysis import Analyzer, rule_catalog

    if args.list_rules:
        if args.json:
            print(json_mod.dumps({"rules": rule_catalog()}, indent=2))
        else:
            for rule in rule_catalog():
                scope = ", ".join(rule["scope"]) if rule["scope"] else "all linted files"
                print(f"{rule['id']}  {rule['title']}  [{rule['severity']}; scope: {scope}]")
        return 0
    rules = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
        if not rules:
            raise ReproError("--rules needs at least one rule id")
    analyzer = Analyzer(root=args.root, config_path=args.baseline, rules=rules)
    report = analyzer.run(args.paths or None)
    if args.json:
        print(json_mod.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render_text())
    return report.exit_code


def _cmd_suite(args: argparse.Namespace) -> int:
    from repro.eval import format_table

    rows = []
    for spec in default_suite(include_large=args.large):
        circuit = spec.build()
        rows.append(
            {
                "name": spec.name,
                "qubits": circuit.num_qubits,
                "alpha": circuit.depth(),
                "cnots": circuit.num_cnots,
                "paper_alpha": spec.paper_alpha,
                "paper_g": spec.paper_g,
            }
        )
    print(format_table(rows, title="Built-in benchmark suite"))
    return 0


def _add_placement_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--placement",
        choices=["reference", "fast"],
        default="reference",
        help="placement bisection core; 'fast' uses multilevel coarsening with "
        "FM gain buckets (near-linear mapping for n >= 500 circuits; placements "
        "may differ from the reference within parity-harness quality bounds)",
    )


def _add_batch_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the batch engine (0 = one per CPU; default 1)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache (results are keyed by circuit, method, "
        "options and the repro version — use this after editing the compiler itself)",
    )
    _add_cache_dir_flag(parser)
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print live done/failed/cached counts to stderr as jobs complete",
    )


def _add_cache_dir_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result cache location (default: $REPRO_CACHE_DIR, resolved when "
        "the command runs, or ~/.cache/repro)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Ecmas surface-code mapping and scheduling (CGO 2024 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    profile = sub.add_parser(
        "profile", help="print circuit statistics and, with --method, one compile's stage timings"
    )
    profile.add_argument("circuit", help="QASM file path or built-in benchmark name (e.g. qft_n10)")
    profile.add_argument(
        "--method",
        default=None,
        metavar="M",
        help="also compile with this method and print its per-stage timings and "
        "scheduler counters (e.g. ecmas_dd_min)",
    )
    profile.add_argument("--code-distance", type=int, default=3, metavar="D")
    profile.add_argument(
        "--cprofile",
        metavar="OUT.pstats",
        default=None,
        help="profile one compile of --method, dump pstats to this "
        "path and print the top-10 cumulative functions",
    )
    profile.set_defaults(func=_cmd_profile)

    compile_cmd = sub.add_parser("compile", help="compile a circuit and summarise the schedule")
    compile_cmd.add_argument("circuit", help="QASM file path or built-in benchmark name")
    compile_cmd.add_argument(
        "--model",
        choices=sorted(_MODELS),
        default=None,
        help="surface-code model (default dd; conflicts with a --chip-spec of the other model)",
    )
    compile_cmd.add_argument("--resources", choices=["minimum", "4x", "sufficient"], default="minimum")
    compile_cmd.add_argument("--scheduler", choices=["auto", "limited", "resu"], default="auto")
    compile_cmd.add_argument(
        "--method",
        default="ecmas",
        help="'ecmas' (default) or an evaluation method name such as autobraid / edpci_min",
    )
    _add_placement_flag(compile_cmd)
    compile_cmd.add_argument(
        "--chip-spec",
        metavar="FILE",
        help="compile onto the chip described by this JSON spec file "
        "(model, tile array, bandwidths and defects; see README)",
    )
    compile_cmd.add_argument(
        "--geometry",
        metavar="SPEC",
        help="compile onto a built-in tile-graph geometry: 'heavy_hex:RxC', "
        "'hex:RxC', 'square:RxC' or 'sparse3:N[:SEED]' (conflicts with "
        "--chip-spec; see docs/geometries.md)",
    )
    compile_cmd.add_argument(
        "--code-distance",
        type=int,
        default=3,
        metavar="D",
        help="surface-code distance for --geometry chips (default 3)",
    )
    compile_cmd.add_argument(
        "--defect-rate",
        type=float,
        default=0.0,
        metavar="R",
        help="degrade the target chip with random defects: kill a fraction R of "
        "tile slots and degrade/disable a fraction R of corridor segments "
        "(connectivity-preserving; composes with --chip-spec)",
    )
    compile_cmd.add_argument(
        "--defect-seed",
        type=int,
        default=0,
        metavar="S",
        help="random seed for --defect-rate (default 0)",
    )
    compile_cmd.add_argument(
        "--window",
        type=int,
        default=None,
        metavar="N",
        help="bound the scheduler's working set to a sliding window of N ready "
        "gates (for very large circuits; the schedule may differ from the "
        "full-frontier one but stays validator-clean)",
    )
    compile_cmd.add_argument("--stages", action="store_true", help="print per-stage pipeline timings")
    compile_cmd.add_argument("--show-placement", action="store_true", help="render the tile placement")
    compile_cmd.add_argument("--timeline", type=int, metavar="N", help="print the first N cycles")
    compile_cmd.add_argument("--gantt", action="store_true", help="print a per-qubit occupancy chart")
    compile_cmd.set_defaults(func=_cmd_compile)

    table = sub.add_parser("table", help="regenerate one of the paper's tables")
    table.add_argument("number", choices=_TABLE_NUMBERS, help="table number (1-5)")
    _add_batch_flags(table)
    table.set_defaults(func=_cmd_table)

    batch = sub.add_parser("batch", help="compile circuits x methods through the batch engine")
    batch.add_argument("circuits", nargs="+", help="QASM file paths or built-in benchmark names")
    batch.add_argument(
        "--methods",
        default="ecmas_dd_min",
        help="comma-separated method names (e.g. autobraid,ecmas_dd_min,edpci_min)",
    )
    batch.add_argument("--code-distance", type=int, default=3, metavar="D")
    batch.add_argument("--validate", action="store_true", help="validate every schedule")
    _add_batch_flags(batch)
    _add_placement_flag(batch)
    batch.set_defaults(func=_cmd_batch)

    cache_cmd = sub.add_parser("cache", help="inspect or clean the on-disk result cache")
    cache_sub = cache_cmd.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser("stats", help="print entry/size/shard counters")
    cache_clear = cache_sub.add_parser("clear", help="delete every cached record")
    cache_prune = cache_sub.add_parser("prune", help="delete records older than a cutoff")
    cache_prune.add_argument(
        "--older-than",
        type=float,
        required=True,
        metavar="DAYS",
        help="delete records not rewritten in the last DAYS days (fractions allowed)",
    )
    for cache_parser in (cache_stats, cache_clear, cache_prune):
        _add_cache_dir_flag(cache_parser)
        cache_parser.set_defaults(func=_cmd_cache)

    serve = sub.add_parser(
        "serve",
        help="run the persistent compile daemon (HTTP+JSON; see docs/http-api.md)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument(
        "--port",
        type=int,
        default=8752,
        help="TCP port (default 8752; 0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for /batch fan-out (1 keeps every compile in the "
        "daemon process where the warm chip state lives; 0 = one per CPU)",
    )
    serve.add_argument(
        "--no-cache", action="store_true", help="serve without the on-disk result cache"
    )
    _add_cache_dir_flag(serve)
    serve.add_argument("--quiet", action="store_true", help="suppress per-request access logs")
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit a compile to a running daemon and print the result"
    )
    submit.add_argument("circuit", help="QASM file path or built-in benchmark name")
    submit.add_argument(
        "--method",
        default="ecmas",
        help="'ecmas' (default) or an evaluation method name such as autobraid / edpci_min",
    )
    submit.add_argument("--code-distance", type=int, default=3, metavar="D")
    submit.add_argument("--validate", action="store_true", help="validate the schedule server-side")
    submit.add_argument(
        "--no-cache", action="store_true", help="bypass the daemon's result cache"
    )
    submit.add_argument("--host", default="127.0.0.1", help="daemon address (default 127.0.0.1)")
    submit.add_argument("--port", type=int, default=8752, help="daemon port (default 8752)")
    submit.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        metavar="S",
        help="give up after S seconds (default 120)",
    )
    submit.set_defaults(func=_cmd_submit)

    lint = sub.add_parser(
        "lint",
        help="run the static-analysis rules (determinism, fingerprint, fork safety, docs)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint, relative to --root "
        "(default: the config file's paths, normally src)",
    )
    lint.add_argument(
        "--root",
        default=".",
        metavar="DIR",
        help="repository root: configs and reported paths are relative to it (default .)",
    )
    lint.add_argument(
        "--rules",
        default=None,
        metavar="IDS",
        help="comma-separated rule ids to run (default: all rules the config enables)",
    )
    lint.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="config/baseline file (default: <root>/.reprolint.toml when present)",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable report (findings, suppression counts, and "
        "per-rule metadata such as the fingerprint rule's extracted field lists)",
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    lint.set_defaults(func=_cmd_lint)

    suite = sub.add_parser("suite", help="list the built-in benchmark circuits")
    suite.add_argument("--large", action="store_true", help="include the very large circuits")
    suite.set_defaults(func=_cmd_suite)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
