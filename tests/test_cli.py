"""Tests for the command-line interface."""

import pytest

from repro.circuits import qasm
from repro.circuits.generators import standard
from repro.cli import build_parser, main


def test_profile_builtin_benchmark(capsys):
    assert main(["profile", "qft_n10"]) == 0
    out = capsys.readouterr().out
    assert "CNOT depth" in out
    assert "parallelism PM" in out


def test_profile_qasm_file(tmp_path, capsys):
    path = tmp_path / "ghz.qasm"
    qasm.dump(standard.ghz_state(5), path)
    assert main(["profile", str(path)]) == 0
    out = capsys.readouterr().out
    assert "logical qubits : 5" in out


def test_profile_method_prints_one_compile(capsys):
    assert main(["profile", "dnn_n8", "--method", "ecmas_dd_min"]) == 0
    out = capsys.readouterr().out
    assert "cycles          : 60" in out
    assert "per-stage timings:" in out and "schedule" in out
    assert "route_calls" in out


def test_compile_stages_prints_placement_and_scheduler_counters(capsys):
    assert main(["compile", "qft_n10", "--stages"]) == 0
    out = capsys.readouterr().out
    placement = out[out.index("placement counters:"):out.index("scheduler counters:")]
    assert "  attempts               4" in placement
    assert "fast_path_regions" in placement and "coarsening_levels" in placement
    assert "route_calls" in out[out.index("scheduler counters:"):]


def test_compile_ecmas_default(capsys):
    assert main(["compile", "ghz_state_n23", "--model", "ls", "--scheduler", "limited"]) == 0
    out = capsys.readouterr().out
    assert "schedule valid  : True" in out
    assert "cycles          : 22" in out


def test_compile_with_baseline_method(capsys):
    assert main(["compile", "bv_n10", "--method", "autobraid"]) == 0
    out = capsys.readouterr().out
    assert "autobraid" in out


def test_compile_with_placement_and_timeline(capsys):
    assert main(["compile", "dnn_n8", "--scheduler", "limited", "--show-placement", "--timeline", "3", "--gantt"]) == 0
    out = capsys.readouterr().out
    assert "chip:" in out
    assert "cycle    0" in out or "cycle 0" in out.replace("   ", " ")
    assert "occupancy" in out


def test_compile_with_defect_rate(capsys):
    assert main(["compile", "qft_n10", "--defect-rate", "0.15", "--defect-seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "defects:" in out
    assert "schedule valid  : True" in out


def test_compile_with_defect_rate_and_fast_engine_agree(capsys):
    """The CLI compile on a degraded chip matches the reference engine's schedule."""
    from oracle import reference_compile

    from repro.circuits.generators import get_benchmark

    assert main(["compile", "dnn_n8", "--defect-rate", "0.1"]) == 0
    out = capsys.readouterr().out
    reference = reference_compile(get_benchmark("dnn_n8").build(), "ecmas", defect_rate=0.1)
    assert f"cycles          : {reference.encoded.num_cycles}" in out


def test_compile_with_chip_spec(tmp_path, capsys):
    from repro.chip import Chip, DefectSpec, SurfaceCodeModel, save_chip_spec

    chip = Chip.with_tile_array(SurfaceCodeModel.DOUBLE_DEFECT, 3, 4, 4, bandwidth=2)
    chip = chip.with_defects(DefectSpec(dead_tiles=((0, 0),)))
    path = save_chip_spec(chip, tmp_path / "chip.json")
    assert main(["compile", "qft_n10", "--chip-spec", str(path)]) == 0
    out = capsys.readouterr().out
    assert "1 dead tiles" in out
    assert "schedule valid  : True" in out


def test_compile_chip_spec_defects_survive_defect_rate(tmp_path, capsys):
    from repro.chip import Chip, DefectSpec, SurfaceCodeModel, save_chip_spec

    chip = Chip.with_tile_array(SurfaceCodeModel.DOUBLE_DEFECT, 3, 4, 4, bandwidth=2)
    chip = chip.with_defects(DefectSpec(dead_tiles=((0, 0), (3, 3))))
    path = save_chip_spec(chip, tmp_path / "chip.json")
    assert main(
        ["compile", "qft_n10", "--chip-spec", str(path), "--defect-rate", "0.05"]
    ) == 0
    out = capsys.readouterr().out
    # The spec file's two dead tiles must survive the extra random defects.
    assert "2 dead tiles" in out


def test_compile_defect_rate_keeps_method_resources(capsys):
    from repro.circuits.generators import get_benchmark
    from repro.core.ecmas import default_chip
    from repro.chip import SurfaceCodeModel

    circuit = get_benchmark("qft_n10").build()
    sufficient = default_chip(circuit, SurfaceCodeModel.DOUBLE_DEFECT, resources="sufficient")
    assert main(["compile", "qft_n10", "--method", "ecmas_dd_resu", "--defect-rate", "0.05"]) == 0
    out = capsys.readouterr().out
    # The degraded chip must still be the method's sufficient chip, not the
    # CLI default "minimum" configuration.
    assert f"L{sufficient.side}x{sufficient.side}" in out


def test_compile_chip_spec_conflicting_model_errors(tmp_path, capsys):
    from repro.chip import Chip, SurfaceCodeModel, save_chip_spec

    chip = Chip.with_tile_array(SurfaceCodeModel.DOUBLE_DEFECT, 3, 4, 4, bandwidth=2)
    path = save_chip_spec(chip, tmp_path / "chip.json")
    assert main(["compile", "qft_n10", "--chip-spec", str(path), "--model", "ls"]) == 2
    assert "conflicts" in capsys.readouterr().err
    # An explicitly matching --model is fine.
    assert main(["compile", "qft_n10", "--chip-spec", str(path), "--model", "dd"]) == 0


def test_compile_with_missing_chip_spec(capsys):
    assert main(["compile", "qft_n10", "--chip-spec", "/nonexistent.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_table_command(capsys):
    assert main(["table", "4"]) == 0
    out = capsys.readouterr().out
    assert "circuit_order" in out


def test_suite_command(capsys):
    assert main(["suite"]) == 0
    out = capsys.readouterr().out
    assert "dnn_n8" in out
    assert "quantum_walk_n11" not in out
    assert main(["suite", "--large"]) == 0
    assert "quantum_walk_n11" in capsys.readouterr().out


def test_batch_command_with_progress_and_cache(tmp_path, capsys):
    args = ["batch", "dnn_n8", "--methods", "autobraid,ecmas_dd_min",
            "--cache-dir", str(tmp_path / "c"), "--progress"]
    assert main(args) == 0
    captured = capsys.readouterr()
    assert "Batch results" in captured.out
    assert "2 compiled, 0 cached, 0 failed" in captured.err
    # Warm rerun: everything served from the cache, reported live.
    assert main(args) == 0
    captured = capsys.readouterr()
    assert "0 compiled, 2 cached, 0 failed" in captured.err


def test_batch_command_rejects_unknown_method_before_the_pool(capsys):
    assert main(["batch", "dnn_n8", "--methods", "autobraid,not_a_method"]) == 2
    err = capsys.readouterr().err
    assert "unknown evaluation method(s): not_a_method" in err


def test_batch_command_reports_failures_and_exits_nonzero(tmp_path, capsys):
    assert main([
        "batch", "dnn_n8", "--methods", "autobraid,cut_init:bogus",
        "--cache-dir", str(tmp_path / "c"),
    ]) == 1
    captured = capsys.readouterr()
    assert "autobraid" in captured.out  # the sibling record still printed
    assert "failed: dnn_n8 x cut_init:bogus" in captured.err


def test_negative_jobs_is_a_clean_error(capsys):
    assert main(["batch", "dnn_n8", "--methods", "autobraid", "--jobs", "-3"]) == 2
    assert "error: workers must be a positive integer" in capsys.readouterr().err
    assert main(["table", "4", "--jobs", "-3"]) == 2
    assert "error: workers must be a positive integer" in capsys.readouterr().err


def test_table_command_names_failed_cells(tmp_path, monkeypatch, capsys):
    import repro.eval
    from repro.circuits.generators import get_benchmark
    from repro.eval import table1_overview

    suite = [get_benchmark("dnn_n8")]

    def builder(jobs=1, cache=None, progress=None):
        return table1_overview(
            suite=suite,
            methods=("autobraid", "cut_init:bogus"),
            jobs=jobs,
            cache=cache,
            progress=progress,
        )

    # ``table`` looks its builder up in repro.eval when it runs.
    monkeypatch.setattr(repro.eval, "table1_overview", builder)
    assert main(["table", "1", "--cache-dir", str(tmp_path / "c")]) == 1
    captured = capsys.readouterr()
    assert "-" in captured.out  # the failed cell renders as a hole, not a crash
    assert "failed cell: dnn_n8 x cut_init:bogus" in captured.err
    assert "1 cell(s) failed to compile" in captured.err


def test_cache_stats_clear_and_prune(tmp_path, capsys):
    cache_dir = str(tmp_path / "c")
    assert main(["batch", "dnn_n8", "--methods", "autobraid", "--cache-dir", cache_dir]) == 0
    capsys.readouterr()

    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "entries   : 1" in out
    assert "shards    : 1" in out

    assert main(["cache", "prune", "--older-than", "7", "--cache-dir", cache_dir]) == 0
    assert "pruned 0 record(s)" in capsys.readouterr().out

    assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
    assert "removed 1 cached record(s)" in capsys.readouterr().out
    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    assert "entries   : 0" in capsys.readouterr().out


def test_cache_prune_rejects_negative_cutoff(tmp_path, capsys):
    assert main(["cache", "prune", "--older-than", "-1",
                 "--cache-dir", str(tmp_path / "c")]) == 2
    assert "non-negative" in capsys.readouterr().err


def test_cache_dir_defaults_to_env_var_at_run_time(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "late"))
    assert main(["cache", "stats"]) == 0
    assert str(tmp_path / "late") in capsys.readouterr().out


def test_unknown_benchmark_returns_error(capsys):
    assert main(["profile", "not_a_benchmark"]) == 2
    assert "error:" in capsys.readouterr().err


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
