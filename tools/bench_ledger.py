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
A run that exits non-zero, including one whose result says ``"correct":
false``, stops the script: a ledger only records runs whose every
operation succeeded.

Usage, from the root of the head checkout::

    git clone . ../parent && git -C ../parent checkout <parent-commit>
    python3 tools/bench_ledger.py --workload table1 --parent ../parent \\
        --pairs 10 --traced-pairs 5

writes ``BENCH_table1.json`` at the root of the head checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Every ledger run uses perfbench's seed 1 and its 32-second budget.
SEED = 1
SECONDS = 32


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent", type=Path, required=True, help="the parent commit's checkout")
    parser.add_argument("--head", type=Path, default=ROOT, help="the change's checkout")
    parser.add_argument("--pairs", type=int, default=1, help="untraced parent/head pairs")
    parser.add_argument("--traced-pairs", type=int, default=0, help="traced parent/head pairs")
    parser.add_argument("--out", type=Path, help="default: BENCH_<workload>.json in --head")
    return parser.parse_args(argv)


def run_perfbench(checkout: Path, args: argparse.Namespace, trace: int) -> dict:
    """One perfbench run: its environment block and its final result line."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", args.workload,
        "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    environment = next(
        (json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("environment ")),
        None,
    )
    if done.returncode != 0 or not lines or environment is None:
        last = lines[-1] if lines else ""
        raise RuntimeError(
            f"perfbench exited {done.returncode} in {checkout}:\n{last}\n{done.stderr}"
        )
    return {"environment": environment, "result": json.loads(lines[-1])}


def run_pairs(args: argparse.Namespace, pairs: int, trace: int) -> list[dict]:
    """``pairs`` alternating parent/head runs, parent first in odd pairs."""
    runs = []
    for pair in range(1, pairs + 1):
        order = ("parent", "head") if pair % 2 else ("head", "parent")
        for side in order:
            checkout = args.parent if side == "parent" else args.head
            print(f"{args.workload} trace={trace} pair {pair}: {side}", file=sys.stderr, flush=True)
            runs.append({"pair": pair, "side": side, **run_perfbench(checkout, args, trace)})
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (a single value repeats)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: parent and head quartiles, pair ratios and head wins."""
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
        summary[name] = {
            "parent_median": p_med,
            "parent_iqr": [p_q1, p_q3],
            "head_median": h_med,
            "head_iqr": [h_q1, h_q3],
            "median_ratio": statistics.median(ratios) if ratios else None,
            "head_wins": sum(1 for p, h in pairs if (h < p if lower else h > p)),
            "pairs": len(pairs),
        }
    return summary


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    spec = json.loads((args.head / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    ledger: dict = {
        "workload": args.workload,
        "seed": SEED,
        "seconds": SECONDS,
        "command": (
            f"python3 perfbench/run.py --workload {args.workload} --seed {SEED} "
            f"--seconds {SECONDS} --trace <0|1>"
        ),
    }
    for key, pairs, trace in (("untraced", args.pairs, 0), ("traced", args.traced_pairs, 1)):
        if pairs:
            runs = run_pairs(args, pairs, trace)
            ledger[key] = {"summary": summarize(runs, better), "runs": runs}
    out = args.out or args.head / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(ledger, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
