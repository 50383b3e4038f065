"""The in-process compile workloads: ``table1`` and ``geometry``.

Each workload is a list of :class:`Job` s built from the workload seed.  A
pass compiles every job once through ``run_pipeline_method``: the first pass
in list order, later ones in an order shuffled by the seed.  Passes repeat
until the next one would overrun the time budget; each job's time is its
median over the passes, scaled to the reference speed of :mod:`measure`.  Only knobs that change results are passed; the scheduling
engine is always the library default.
"""

from __future__ import annotations

import gc
import itertools
import random
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

from measure import (
    Outcome,
    add_counters,
    at_reference_speed,
    counter_layers,
    gauge,
    geomean,
    median_by_key,
    median_rows,
    p90,
)
from repro.chip import Chip, SurfaceCodeModel, degree3_sparse, heavy_hex
from repro.circuits.circuit import Circuit
from repro.circuits.generators import default_suite
from repro.circuits.generators.random_parallel import random_parallel_circuit
from repro.pipeline.registry import run_pipeline_method
from repro.verify import validate_encoded_circuit
from tracing import SPAN_LAYERS, NullTracer, Tracer, busy_and_self, traced_passes

#: The seven method columns of Table I.
TABLE1_METHODS = (
    "autobraid",
    "ecmas_dd_min",
    "ecmas_dd_resu",
    "edpci_min",
    "edpci_4x",
    "ecmas_ls_min",
    "ecmas_ls_4x",
)

#: Parallelism strata of the seeded Figure-11 QUEKO group (49 qubits, depth
#: 50).  One circuit per stratum, its parallelism drawn inside the stratum,
#: keeps the group's cost steady from seed to seed; four circuits keep the
#: group's seed-to-seed spread a small share of the pass.  The strata are
#: narrow because these compiles are the slowest of the workload: with
#: strata five wide, the draw moved them across the p90 by 15%.
QUEKO_STRATA = ((3, 4), (8, 9), (13, 14), (18, 19))

#: The methods the ``geometry`` workload compiles with, and their chip models.
GEOMETRY_METHODS = {
    "ecmas_dd_min": SurfaceCodeModel.DOUBLE_DEFECT,
    "ecmas_ls_min": SurfaceCodeModel.LATTICE_SURGERY,
}


@dataclass
class Job:
    """One compile: a circuit, a method and the knobs that change its result."""

    label: str
    method: str
    circuit: Circuit
    knobs: dict = field(default_factory=dict)


def table1_jobs(rng: random.Random) -> list[Job]:
    """The 19 non-large Table I circuits x 7 methods, plus a seeded QUEKO group."""
    jobs = []
    for spec in default_suite():
        circuit = spec.build()
        jobs += [Job(f"{spec.name}/{m}", m, circuit) for m in TABLE1_METHODS]
    for low, high in QUEKO_STRATA:
        parallelism, circuit_seed = rng.randint(low, high), rng.randrange(2**31)
        circuit = random_parallel_circuit(49, 50, parallelism, seed=circuit_seed)
        name = f"queko_p{parallelism}_s{circuit_seed}"
        jobs += [Job(f"{name}/{m}", m, circuit) for m in ("ecmas_dd_min", "ecmas_ls_min")]
    return jobs


def geometry_jobs(seed: int) -> list[Job]:
    """Table I circuits on heavy-hex and seeded sparse chips, and on defective squares."""
    suite = [spec.build() for spec in default_suite()]
    graphs = {"heavy_hex_3x3": heavy_hex(3, 3), f"sparse24_s{seed}": degree3_sparse(24, seed=seed)}
    jobs = []
    for graph_name, graph in graphs.items():
        for method, model in GEOMETRY_METHODS.items():
            chip = Chip.from_tile_graph(model, 3, graph)
            jobs += [
                Job(f"{c.name}/{method}@{graph_name}", method, c, knobs={"chip": chip})
                for c in suite
                if c.num_qubits <= graph.num_nodes
            ]
    defects = {"defect_rate": 0.1, "defect_seed": seed}
    for method in GEOMETRY_METHODS:
        jobs += [Job(f"{c.name}/{method}@defects", method, c, knobs=defects) for c in suite]
    return jobs


class InProcessWorkload:
    """Compiles a job list in passes and checks every schedule it produced."""

    def __init__(self, jobs: list[Job], rng: random.Random):
        self.jobs = jobs
        self.rng = rng
        self.times: list[list[float]] = [[] for _ in jobs]
        self.cycles: dict[int, int] = {}
        self.passes = 0
        self.peak_rss_mb: float | None = None
        self.traced_layers: list[dict[str, float]] = []
        self.traced_rows: list[dict[str, tuple[float, float]]] = []
        self.outcome = Outcome()

    def close(self) -> None:
        """Nothing to release: every compile runs in this process."""

    def _pass(self, tracer, record_times: bool) -> tuple[float, dict]:
        """Compile every job once; returns the pass's compile seconds and summed counters."""
        order = list(range(len(self.jobs)))
        if self.passes:  # every pass but the first runs in a seeded order
            self.rng.shuffle(order)
        self.passes += 1
        counters: dict[str, float] = {}
        timed: list[int] = []
        measured: list[float] = []
        gauges: list[float] = []
        for index in order:
            job = self.jobs[index]
            self.outcome.attempted += 1
            gc.collect()  # every compile starts from the same collector state
            gauge_seconds = gauge()
            job_start = time.perf_counter()
            try:
                with tracer.span("run_pipeline_method", job=job.label):
                    result = run_pipeline_method(job.circuit, job.method, **job.knobs)
            except Exception:  # a failing compile is counted, the run goes on
                self.outcome.failures.append(f"{job.label}: {traceback.format_exc()}")
                continue
            measured.append(time.perf_counter() - job_start)
            timed.append(index)
            gauges.append(gauge_seconds)
            add_counters(counters, result.counters)
            cycles = result.encoded.num_cycles
            if index not in self.cycles:
                self.cycles[index] = cycles
                self._validate(job, result.encoded)
            elif self.cycles[index] != cycles:
                self.outcome.failures.append(
                    f"{job.label}: {cycles} cycles, an earlier pass gave {self.cycles[index]}"
                )
        if record_times:
            for index, scaled in zip(timed, at_reference_speed(measured, gauges)):
                self.times[index].append(scaled)
        return sum(measured), counters

    def _full_pass(self, tracer=None) -> float:
        """Compile every job once, traced when ``tracer`` is given; returns compile seconds."""
        if tracer is None:
            wall, _ = self._pass(NullTracer(), record_times=True)
        else:
            first = len(tracer.spans)
            with traced_passes(tracer):
                wall, counters = self._pass(tracer, record_times=False)
            layers, rows = _span_layers(tracer.spans[first:])
            layers.update(counter_layers(counters))
            self.traced_layers.append(layers)
            self.traced_rows.append(rows)
        return wall

    def run(self, seconds: float, trace: bool) -> Outcome:
        """Time the jobs for about ``seconds``; the first schedule of each job is validated.

        The first pass compiles the jobs in list order and sets
        ``peak_rss_mb``, so memory does not depend on a shuffled order;
        later passes shuffle.  Untraced, at least three passes run and
        ``suite_s`` sums each job's median time, which leaves out the first
        pass's first-call costs.  Traced, untraced and traced passes
        alternate (U T T U ...), at least three untraced and one traced; the
        tracing overhead is the difference of their median compile seconds.
        """
        tracer = Tracer()
        plan = itertools.cycle((False, True, True, False) if trace else (False,))
        walls: dict[bool, list[float]] = {False: [], True: []}
        started = time.perf_counter()
        while True:
            traced = next(plan)
            pass_started = time.perf_counter()
            walls[traced].append(self._full_pass(tracer if traced else None))
            if self.peak_rss_mb is None:
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            now = time.perf_counter()
            enough = len(walls[False]) >= 3 and (bool(walls[True]) or not trace)
            if enough and now - started + (now - pass_started) > seconds:
                break

        per_job_ms = [statistics.median(t) * 1e3 for t in self.times if t]
        out = self.outcome
        out.metrics = {
            "suite_s": sum(per_job_ms) / 1e3,
            "compile_ms_geomean": geomean(per_job_ms),
            "compile_ms_p90": p90(per_job_ms),
            "cycles_total": float(sum(self.cycles.values())),
            "peak_rss_mb": self.peak_rss_mb,
        }
        out.notes.append(
            f"{len(self.jobs)} compiles per pass, {len(walls[False])} untraced and "
            f"{len(walls[True])} traced passes; untraced pass seconds "
            + " ".join(f"{w:.3f}" for w in walls[False])
        )
        if trace:
            out.layers = median_by_key(self.traced_layers)
            out.traced_suite_s = statistics.median(walls[True])
            out.layers["trace.overhead_s"] = out.traced_suite_s - statistics.median(walls[False])
            out.layer_rows = median_rows(self.traced_rows)
            out.spans = tracer.spans
        return out

    def _validate(self, job: Job, encoded) -> None:
        """Replay one schedule through the validator, outside the timed compile.

        Validating right away, instead of keeping schedules for later, keeps
        the process's peak memory independent of the compile order.
        """
        report = validate_encoded_circuit(job.circuit, encoded)
        if not report.valid:
            self.outcome.failures.append(f"{job.label}: invalid schedule: {report.errors[:3]}")


def _span_layers(spans) -> tuple[dict[str, float], dict[str, tuple[float, float]]]:
    """Layer metrics and (busy, self) rows of one traced pass's spans."""
    busy, own = busy_and_self(spans)
    layers = {f"{SPAN_LAYERS[n]}.busy_s": s for n, s in busy.items() if n in SPAN_LAYERS}
    if "run_pipeline_method" in own:
        layers["pipeline.self_s"] = own["run_pipeline_method"]
    rows = {name: (busy[name], own[name]) for name in busy}
    return layers, rows
