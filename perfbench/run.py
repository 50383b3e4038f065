"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 32 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs untraced and traced passes side by side, prints every
per-layer metric, the layer table and the tracing overhead, and writes the
spans to ``.perfbench_out/trace-<workload>-seed<seed>.json`` (Chrome
trace-event JSON).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every compile or request succeeded and checked out.
"""

import time

_STARTED = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402 - the clock above must start first
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from measure import speed_factor  # noqa: E402
from tracing import write_chrome_trace  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("table1", "geometry", "service")

#: How many times a run sets the workload up; ``setup_s`` is the median.
SETUP_REPEATS = 5


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set the workload up, print the set-up seconds as JSON and exit",
    )
    return parser.parse_args(argv)


def set_up(workload: str, seed: int, workdir: Path):
    """Import the compiler and build the workload's inputs (and daemon)."""
    sys.path.insert(0, str(ROOT / "src"))
    rng = random.Random(seed)
    if workload == "service":
        import servicebench

        bench = servicebench.ServiceWorkload(ROOT, workdir, servicebench.make_stream(rng))
        bench.start()
        return bench
    import inprocess

    if workload == "table1":
        jobs = inprocess.table1_jobs(rng)
    else:
        jobs = inprocess.geometry_jobs(seed)
    return inprocess.InProcessWorkload(jobs, rng)


def repeat_set_up(args: argparse.Namespace) -> list[float]:
    """Set-up seconds of fresh processes doing only the set-up."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--setup-only",
    ]
    times = []
    for _ in range(SETUP_REPEATS - 1):
        # A session of its own lets an interrupted run kill the child and
        # any daemon it booted in one go.
        child = subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            stdout, stderr = child.communicate(timeout=120)
        except BaseException:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            raise
        if child.returncode != 0:
            raise RuntimeError(f"set-up run failed:\n{stderr}")
        times.append(json.loads(stdout.splitlines()[-1])["setup_s"])
    return times


def environment(args: argparse.Namespace) -> dict:
    """Versions, CPU count, commit and run parameters, printed with every result."""
    import numpy

    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        commit = head.stdout.strip() if head.returncode == 0 else "unknown"
    except OSError:
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def print_end_to_end(specs: list[dict], values: dict[str, float]) -> None:
    print(f"{'end-to-end metric':<22} {'value':>14}  {'unit':<8} better")
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        print(f"{name:<22} {values[name]:>14.4f}  {unit:<8} {spec['better']}")


def print_layers(outcome, specs: list[dict]) -> None:
    suite = outcome.traced_suite_s
    print(f"\n{'span':<22} {'busy s':>9} {'self s':>9} {'share':>7}")
    for name, busy, own in outcome.layer_rows:
        print(f"{name:<22} {busy:>9.4f} {own:>9.4f} {busy / suite:>7.1%}")
    print(f"(share of traced suite_s = {suite:.4f} s)")
    print(f"\n{'per-layer metric':<34} {'value':>14}  unit")
    for spec in specs:
        name = spec["name"]
        shown = f"{outcome.layers[name]:>14.4f}" if name in outcome.layers else f"{'absent':>14}"
        print(f"{name:<34} {shown}  {spec['unit']}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print("perfbench: run from a checkout holding src/repro and BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # Turn a termination request into SystemExit so every daemon and
    # temporary directory is cleaned up by the ``finally`` blocks below.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "cache")
    try:
        bench = set_up(args.workload, args.seed, workdir)
        try:
            setup_s = (time.perf_counter() - _STARTED) * speed_factor()
            if args.setup_only:
                print(json.dumps({"setup_s": setup_s}))
                return 0
            outcome = bench.run(args.seconds, trace=bool(args.trace))
        finally:
            bench.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args)
    print("environment", json.dumps(env))
    for note in outcome.notes:
        print(note)
    if args.trace:
        specs = spec["per_layer"]
        values = {s["name"]: outcome.layers.get(s["name"], 0.0) for s in specs}
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        write_chrome_trace(trace_path, outcome.spans, env)
        print_end_to_end([s for s in spec["end_to_end"] if s["name"] in outcome.metrics],
                         outcome.metrics)
        print_layers(outcome, specs)
        print(f"trace written to {trace_path.relative_to(ROOT)}")
    else:
        specs = spec["end_to_end"]
        outcome.metrics["setup_s"] = statistics.median([setup_s] + repeat_set_up(args))
        values = outcome.metrics
        print_end_to_end(specs, values)
    failed = len(outcome.failures)
    for failure in outcome.failures[:10]:
        print("FAILED", failure, file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
