"""The ledger script's summary: pair ratios, raw and against a control layer."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_ledger.py"


@pytest.fixture(scope="module")
def ledger():
    spec = importlib.util.spec_from_file_location("bench_ledger", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(pair: int, side: str, **values: float) -> dict:
    metrics = {name: {"value": value, "unit": "s"} for name, value in values.items()}
    return {"pair": pair, "side": side, "result": {"metrics": metrics}}


def test_control_ratio_cancels_a_drift_shared_by_both_layers(ledger):
    # Pair 1: the head host runs 10% slow; pair 2: 10% fast.  The touched
    # layer is 20% faster on the head in both, the control untouched.
    runs = [
        _run(1, "parent", touched=1.0, control=2.0),
        _run(1, "head", touched=0.88, control=2.2),
        _run(2, "parent", touched=1.0, control=2.0),
        _run(2, "head", touched=0.72, control=1.8),
    ]
    summary = ledger.summarize(runs, {}, control="control")
    assert summary["touched"]["median_ratio"] == pytest.approx(0.8)
    assert summary["touched"]["median_ratio_vs_control"] == pytest.approx(0.8)
    assert summary["control"]["median_ratio_vs_control"] == pytest.approx(1.0)
    assert summary["touched"]["head_wins"] == 2


def test_no_control_column_without_a_control(ledger):
    runs = [_run(1, "parent", touched=1.0), _run(1, "head", touched=0.5)]
    assert "median_ratio_vs_control" not in ledger.summarize(runs, {})["touched"]
