#!/usr/bin/env python3
"""Record perfbench runs of a parent and a head checkout as a ``BENCH_*.json`` ledger.

The ledger holds, for each run, perfbench's own ``environment`` block and
its final JSON result line, for both checkouts, so a change's effect is
read from the benchmark's own output.  This script measures nothing itself:
it runs ``python3 perfbench/run.py --workload W --seed 1 --seconds 32
--trace X`` inside each checkout, alternating which side runs first, and
summarizes every metric as parent and head medians and quartiles, the
median of the per-pair head/parent ratios, and the pairs the head won
(by the ``better`` direction in ``BENCHMARK.json``; per-layer metrics of
traced runs are raw seconds and counts, compare them only pair by pair).
``--control LAYER`` names a traced layer the change leaves alone: each
traced metric then also gets ``median_ratio_vs_control``, the median over
pairs of its head/parent ratio divided by the control layer's ratio in the
same pair, which cancels the host's speed drift between the two runs of a
pair; the traced ratios are also printed as a table.
``--setup-pairs N`` adds N alternating pairs of ``perfbench/run.py
--setup-only`` runs, each a fresh process that imports the compiler, builds
the workload's inputs (and boots the daemon for ``service``) and prints its
``setup_s``, as a ``setup`` section of the same shape.  A run that exits
non-zero, including one whose result says ``"correct": false``, stops the
script: a ledger only records runs whose every operation succeeded.

Both sides run from fresh copies: by default the head side is ``git
archive HEAD`` of this repository, extracted into a temporary directory
that is removed afterwards, so build leftovers and untracked files in the
working checkout cannot colour one side.  Commit the change first, or pass
``--head`` a fresh copy of the tree to measure.

Usage, from the root of the head checkout::

    git clone . ../parent && git -C ../parent checkout <parent-commit>
    python3 tools/bench_ledger.py --workload table1 --parent ../parent \\
        --pairs 10 --traced-pairs 5 --setup-pairs 20 \\
        --control partition.placement.busy_s

writes ``BENCH_table1.json`` at the root of this checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Every ledger run uses perfbench's seed 1 and its 32-second budget.
SEED = 1
SECONDS = 32


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent", type=Path, required=True, help="the parent commit's checkout")
    parser.add_argument(
        "--head", type=Path, help="the change's checkout (default: a fresh copy of HEAD)"
    )
    parser.add_argument("--pairs", type=int, default=1, help="untraced parent/head pairs")
    parser.add_argument("--traced-pairs", type=int, default=0, help="traced parent/head pairs")
    parser.add_argument(
        "--setup-pairs", type=int, default=0, help="parent/head pairs of --setup-only runs"
    )
    parser.add_argument(
        "--control",
        metavar="LAYER",
        help="a traced layer the change leaves alone; traced ratios are also given against it",
    )
    parser.add_argument(
        "--out", type=Path, help="default: BENCH_<workload>.json at the root of this checkout"
    )
    return parser.parse_args(argv)


def fresh_copy(rev: str, into: Path) -> None:
    """Extract commit ``rev`` of this repository into the new directory ``into``."""
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)


def run_perfbench(checkout: Path, workload: str, trace: int | None) -> dict:
    """One perfbench run: its environment block and its final result line.

    ``trace=None`` is a ``--setup-only`` run; it prints no environment
    block, and its ``setup_s`` is returned as a one-metric result.
    """
    if trace is None:
        mode = ["--seconds", "0", "--setup-only"]
    else:
        mode = ["--seconds", str(SECONDS), "--trace", str(trace)]
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED), *mode,
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    environment = next(
        (json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("environment ")),
        None,
    )
    if done.returncode != 0 or not lines or (environment is None and trace is not None):
        last = lines[-1] if lines else ""
        raise RuntimeError(
            f"perfbench exited {done.returncode} in {checkout}:\n{last}\n{done.stderr}"
        )
    if trace is None:
        setup_s = json.loads(lines[-1])["setup_s"]
        return {"result": {"metrics": {"setup_s": {"value": setup_s, "unit": "s"}}}}
    return {"environment": environment, "result": json.loads(lines[-1])}


def run_pairs(args: argparse.Namespace, pairs: int, trace: int | None) -> list[dict]:
    """``pairs`` alternating parent/head runs, parent first in odd pairs."""
    runs = []
    label = "setup-only" if trace is None else f"trace={trace}"
    for pair in range(1, pairs + 1):
        order = ("parent", "head") if pair % 2 else ("head", "parent")
        for side in order:
            checkout = args.parent if side == "parent" else args.head
            print(f"{args.workload} {label} pair {pair}: {side}", file=sys.stderr, flush=True)
            result = run_perfbench(checkout, args.workload, trace)
            runs.append({"pair": pair, "side": side, **result})
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (a single value repeats)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs: list[dict], better: dict[str, str], control: str | None = None) -> dict:
    """Per metric: parent and head quartiles, pair ratios and head wins.

    With a ``control`` metric, each metric also gets the median over pairs
    of its head/parent ratio divided by the control's ratio in that pair.
    """
    by_pair: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["result"]["metrics"]
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        pairs = [
            (sides["parent"][name]["value"], sides["head"][name]["value"])
            for sides in by_pair.values()
        ]
        lower = better.get(name, "lower") == "lower"
        p_q1, p_med, p_q3 = quartiles([p for p, _ in pairs])
        h_q1, h_med, h_q3 = quartiles([h for _, h in pairs])
        ratios = [h / p for p, h in pairs if p]
        entry = summary[name] = {
            "parent_median": p_med,
            "parent_iqr": [p_q1, p_q3],
            "head_median": h_med,
            "head_iqr": [h_q1, h_q3],
            "median_ratio": statistics.median(ratios) if ratios else None,
            "head_wins": sum(1 for p, h in pairs if (h < p if lower else h > p)),
            "pairs": len(pairs),
        }
        if control is not None:
            controlled = [
                (sides["head"][name]["value"] / sides["parent"][name]["value"])
                / (sides["head"][control]["value"] / sides["parent"][control]["value"])
                for sides in by_pair.values()
                if control in sides["parent"]
                and control in sides["head"]
                and sides["parent"][name]["value"]
                and sides["parent"][control]["value"]
                and sides["head"][control]["value"]
            ]
            entry["median_ratio_vs_control"] = (
                statistics.median(controlled) if controlled else None
            )
    return summary


def print_ratios(summary: dict, control: str) -> None:
    """The traced metrics' median pair ratios, raw and against ``control``."""
    print(f"{'traced metric':<40} {'ratio':>8} {'vs ' + control:>34}", file=sys.stderr)
    for name, entry in summary.items():
        ratio, controlled = entry["median_ratio"], entry["median_ratio_vs_control"]
        cells = [f"{value:.3f}" if value is not None else "-" for value in (ratio, controlled)]
        print(f"{name:<40} {cells[0]:>8} {cells[1]:>34}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bench-ledger-") as scratch:
        if args.head is None:
            args.head = Path(scratch) / "head"
            fresh_copy("HEAD", args.head)
        ledger = record(args)
    out = args.out or ROOT / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(ledger, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


def record(args: argparse.Namespace) -> dict:
    """Run the requested pairs and return the ledger document."""
    spec = json.loads((args.head / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.control and args.control not in {m["name"] for m in spec["per_layer"]}:
        raise SystemExit(f"--control {args.control!r} is no per-layer metric of BENCHMARK.json")
    ledger: dict = {
        "workload": args.workload,
        "seed": SEED,
        "seconds": SECONDS,
        "command": (
            f"python3 perfbench/run.py --workload {args.workload} --seed {SEED} "
            f"--seconds {SECONDS} --trace <0|1>"
        ),
    }
    if args.control:
        ledger["control"] = args.control
    if args.setup_pairs:
        ledger["setup_command"] = (
            f"python3 perfbench/run.py --workload {args.workload} --seed {SEED} "
            "--seconds 0 --setup-only"
        )
    sections = (
        ("untraced", args.pairs, 0),
        ("traced", args.traced_pairs, 1),
        ("setup", args.setup_pairs, None),
    )
    for key, pairs, trace in sections:
        if pairs:
            runs = run_pairs(args, pairs, trace)
            control = args.control if key == "traced" else None
            summary = summarize(runs, better, control)
            ledger[key] = {"summary": summary, "runs": runs}
            if control is not None:
                print_ratios(summary, control)
    return ledger


if __name__ == "__main__":
    sys.exit(main())
