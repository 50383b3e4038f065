"""Tests for the ``repro lint`` static-analysis subsystem.

The fixture tree under ``tests/fixtures/lint/tree`` is a miniature repo
whose violations carry ``# expect: RULE`` tags on the offending lines; the
tests scan the tags and assert the analyzer's finding set matches them
*exactly* — every tagged line fires and nothing untagged does.  On top of
that: pragma/baseline suppression, the FPR001 fingerprint cross-check
against doctored copies of the real pipeline files, config parsing, CLI
exit codes, and the meta-test that the real ``src/`` tree lints clean.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
from pathlib import Path

import pytest

from repro.analysis import Analyzer, LintConfig, LintUsageError, load_config, registry
from repro.analysis.config import LintConfigError, _parse_toml_subset
from repro.analysis.docstrings import measure
from repro.cli import main
from repro.pipeline.batch import BatchJob
from repro.pipeline.framework import PassContext

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURE_TREE = Path(__file__).resolve().parent / "fixtures" / "lint" / "tree"

#: The file rules exercised by the fixture tree (FPR001/DOC001 are
#: project-scoped and tested separately against doctored copies).
FILE_RULES = ["DET001", "DET002", "DET003", "DET004", "FRK001", "FRK002"]

_EXPECT_RE = re.compile(r"#\s*expect:\s*([A-Z]{3}\d{3})")


def expected_findings(tree: Path) -> set[tuple[str, int, str]]:
    """``(relative path, line, rule)`` for every ``# expect:`` tag in ``tree``."""
    expected = set()
    for path in sorted(tree.rglob("*.py")):
        rel = path.relative_to(tree).as_posix()
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            match = _EXPECT_RE.search(line)
            if match:
                expected.add((rel, lineno, match.group(1)))
    return expected


def run_fixture(rules=None, config=None):
    return Analyzer(root=FIXTURE_TREE, config=config, rules=rules or FILE_RULES).run()


# ---------------------------------------------------------------------------
# exact rule/line matching against the fixture tree


def test_fixture_tags_are_nonempty_and_cover_every_rule():
    expected = expected_findings(FIXTURE_TREE)
    assert expected, "fixture tree lost its # expect: tags"
    assert {rule for _, _, rule in expected} == set(FILE_RULES)


def test_fixture_findings_match_tags_exactly():
    report = run_fixture()
    got = {(f.path, f.line, f.rule) for f in report.findings}
    assert got == expected_findings(FIXTURE_TREE)


def test_det001_is_scoped_to_hot_path_packages():
    # clock_ok.py lives under src/repro/service/ and iterates a set — DET001
    # must not fire there, while DET004 (repo-wide) must.
    report = run_fixture()
    service = [f for f in report.findings if "clock_ok" in f.path]
    assert {f.rule for f in service} == {"DET004"}


def test_hot_path_scope_covers_topology_module():
    # The tile-graph topology core feeds placement and routing identity, so
    # DET001/DET002 must keep it in scope alongside the rest of repro.chip.
    from repro.analysis.determinism import HOT_PATH_SCOPE

    path = "src/repro/chip/tile_graph.py"
    assert any(path.startswith(prefix) for prefix in HOT_PATH_SCOPE)


def test_severity_and_location_rendering():
    report = run_fixture(rules=["DET003"])
    assert report.findings, "fixture has DET003 violations"
    line = report.render_text().splitlines()[0]
    assert re.match(r"^src/repro/core/unordered\.py:\d+:\d+: DET003 error: ", line)


# ---------------------------------------------------------------------------
# suppression: pragmas and the baseline


def test_pragma_suppresses_on_the_same_line():
    report = run_fixture(rules=["DET001"])
    suppressed = {(f.path, f.rule) for f in report.pragma_suppressed}
    assert ("src/repro/core/unordered.py", "DET001") in suppressed
    assert all("ok_pragma" not in f.message for f in report.findings)


def test_pragma_in_comment_block_above_suppresses():
    report = run_fixture(rules=["DET004"])
    # clock_ok.py has two time.time() calls: one tagged, one pragma'd via the
    # comment block above it.
    clock = [f for f in report.findings if "clock_ok" in f.path]
    assert len(clock) == 1
    assert any("clock_ok" in f.path for f in report.pragma_suppressed)


def test_baseline_whole_file_and_exact_line():
    full = run_fixture(rules=["DET002", "DET003"])
    det3_line = next(f.line for f in full.findings if f.rule == "DET003")
    config = LintConfig(
        baseline=frozenset(
            {
                "DET002:src/repro/core/unordered.py",
                f"DET003:src/repro/core/unordered.py:{det3_line}",
            }
        )
    )
    report = run_fixture(rules=["DET002", "DET003"], config=config)
    assert {f.rule for f in report.baseline_suppressed} == {"DET002", "DET003"}
    assert not any(f.rule == "DET002" for f in report.findings)
    # Only the baselined line is forgiven; the other DET003 still fires.
    assert sum(1 for f in report.findings if f.rule == "DET003") == len(
        [f for f in full.findings if f.rule == "DET003"]
    ) - 1


def test_disabled_rule_skipped_unless_named_explicitly():
    config = LintConfig(rule_options={"DET003": {"enabled": False}})
    report = Analyzer(root=FIXTURE_TREE, config=config).run()
    assert "DET003" not in report.rules_run
    named = Analyzer(root=FIXTURE_TREE, config=config, rules=["DET003"]).run()
    assert named.rules_run == ("DET003",)
    assert named.findings


def test_unknown_rule_is_a_usage_error():
    with pytest.raises(LintUsageError):
        Analyzer(root=FIXTURE_TREE, rules=["NOP999"])


def test_syntax_error_becomes_a_finding(tmp_path):
    bad = tmp_path / "src"
    bad.mkdir()
    (bad / "broken.py").write_text("def oops(:\n")
    report = Analyzer(root=tmp_path, rules=["DET001"]).run()
    assert [(f.rule, f.path) for f in report.findings] == [("SYN000", "src/broken.py")]
    assert report.exit_code == 1


# ---------------------------------------------------------------------------
# FPR001: fingerprint completeness against doctored copies of the real files


def _copy_pipeline(tmp_path: Path) -> tuple[Path, Path]:
    """Copy the real framework.py/batch.py into tmp_path, same relative layout."""
    dest = tmp_path / "src" / "repro" / "pipeline"
    dest.mkdir(parents=True)
    framework = dest / "framework.py"
    batch = dest / "batch.py"
    framework.write_text((REPO_ROOT / "src/repro/pipeline/framework.py").read_text())
    batch.write_text((REPO_ROOT / "src/repro/pipeline/batch.py").read_text())
    return framework, batch


def test_fpr001_clean_on_real_pipeline():
    report = Analyzer(root=REPO_ROOT, rules=["FPR001"]).run(
        paths=["src/repro/pipeline/framework.py"]
    )
    assert report.clean, report.render_text()


def test_fpr001_fires_when_a_request_field_skips_the_fingerprint(tmp_path):
    framework, _ = _copy_pipeline(tmp_path)
    text = framework.read_text()
    assert text.count("validate: bool = False") == 1
    framework.write_text(
        text.replace(
            "validate: bool = False",
            "validate: bool = False\n    frobnication: int = 0",
        )
    )
    report = Analyzer(root=tmp_path, rules=["FPR001"]).run(paths=["src"])
    assert len(report.findings) == 1
    finding = report.findings[0]
    assert finding.rule == "FPR001"
    assert "frobnication" in finding.message
    assert finding.path == "src/repro/pipeline/framework.py"


def test_fpr001_fires_when_a_derived_claim_goes_stale(tmp_path):
    # 'window' is declared derived ("not expressible through BatchJob"); if
    # BatchJob grows a window field without fingerprinting it, the exclusion
    # is a lie and the rule must say so.
    _, batch = _copy_pipeline(tmp_path)
    text = batch.read_text()
    assert text.count("validate: bool = False") >= 1
    batch.write_text(
        text.replace(
            "validate: bool = False",
            "validate: bool = False\n    window: int = 0",
            1,
        )
    )
    report = Analyzer(root=tmp_path, rules=["FPR001"]).run(paths=["src"])
    assert any(
        f.rule == "FPR001" and "window" in f.message and "derived" in f.message
        for f in report.findings
    ), report.render_text()


def test_fpr001_metadata_matches_live_dataclasses():
    report = Analyzer(root=REPO_ROOT, rules=["FPR001"]).run(
        paths=["src/repro/pipeline/framework.py"]
    )
    meta = report.metadata["FPR001"]
    assert meta["pass_context_fields"] == [f.name for f in dataclasses.fields(PassContext)]
    assert meta["batch_job_fields"] == [f.name for f in dataclasses.fields(BatchJob)]
    # Every request field reaches the payload through the alias map.
    aliases = meta["aliases"]
    derived = set(meta["derived_fields"])
    for name in meta["request_fields"]:
        if name not in derived:
            assert aliases.get(name, name) in meta["payload_keys"]


# ---------------------------------------------------------------------------
# DOC001


def test_doc001_threshold(tmp_path):
    pkg = tmp_path / "src" / "mypkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text('"""A package."""\n')
    (pkg / "mod.py").write_text(
        '"""A module."""\n\n\ndef documented():\n    """Doc."""\n\n\ndef bare():\n    pass\n'
    )
    options = {"package": "src/mypkg", "src_root": "src", "fail_under": 100.0}
    config = LintConfig(rule_options={"DOC001": options})
    report = Analyzer(root=tmp_path, config=config, rules=["DOC001"]).run(paths=["src"])
    assert len(report.findings) == 1
    assert report.findings[0].rule == "DOC001"
    assert "bare" in report.metadata["DOC001"]["missing"][0]

    config = LintConfig(rule_options={"DOC001": {**options, "fail_under": 50.0}})
    report = Analyzer(root=tmp_path, config=config, rules=["DOC001"]).run(paths=["src"])
    assert report.clean


def test_measure_agrees_with_doc001_metadata():
    documented, total, _ = measure(REPO_ROOT / "src" / "repro", REPO_ROOT / "src")
    assert total > 0
    report = Analyzer(root=REPO_ROOT, rules=["DOC001"]).run(
        paths=["src/repro/analysis/docstrings.py"]
    )
    meta = report.metadata["DOC001"]
    assert (meta["documented"], meta["total"]) == (documented, total)


# ---------------------------------------------------------------------------
# config parsing (tomllib and the 3.10 fallback subset parser)


def test_parse_toml_subset_matches_real_config():
    text = (REPO_ROOT / ".reprolint.toml").read_text()
    parsed = _parse_toml_subset(text, "in .reprolint.toml")
    assert parsed["lint"]["paths"] == ["src"]
    assert parsed["lint"]["baseline"] == []
    assert parsed["rules"]["DOC001"]["fail_under"] == 80.0
    try:
        import tomllib
    except ModuleNotFoundError:
        return
    assert parsed == tomllib.loads(text)


def test_parse_toml_subset_shapes():
    parsed = _parse_toml_subset(
        '[lint]\npaths = ["a", "b"]  # trailing\nbaseline = [\n  "DET001:x.py",\n'
        '  "DET002:y.py:3",\n]\n\n[rules.DET004]\nenabled = false\nseverity = "warning"\n'
        "threshold = 2\nratio = 0.5\n",
        "inline",
    )
    assert parsed["lint"]["paths"] == ["a", "b"]
    assert parsed["lint"]["baseline"] == ["DET001:x.py", "DET002:y.py:3"]
    assert parsed["rules"]["DET004"] == {
        "enabled": False,
        "severity": "warning",
        "threshold": 2,
        "ratio": 0.5,
    }


def test_parse_toml_subset_rejects_garbage():
    with pytest.raises(LintConfigError):
        _parse_toml_subset("not toml at all\n", "inline")
    with pytest.raises(LintConfigError):
        _parse_toml_subset('[lint]\nbaseline = [\n  "open...\n', "inline")


def test_load_config_from_file_and_defaults(tmp_path):
    assert load_config(tmp_path).paths == ("src",)
    cfg = tmp_path / "lint.toml"
    cfg.write_text('[lint]\npaths = ["pkg"]\nbaseline = ["DET001:pkg/a.py"]\n')
    config = load_config(tmp_path, cfg)
    assert config.paths == ("pkg",)
    assert config.baseline == frozenset({"DET001:pkg/a.py"})
    with pytest.raises(LintConfigError):
        load_config(tmp_path, tmp_path / "absent.toml")


# ---------------------------------------------------------------------------
# CLI: exit codes 0/1/2, --json, --list-rules


def test_cli_exit_zero_on_clean_real_tree():
    assert main(["lint", "--root", str(REPO_ROOT)]) == 0


def test_cli_exit_one_on_findings(capsys):
    rules = ",".join(FILE_RULES)
    assert main(["lint", "--root", str(FIXTURE_TREE), "--rules", rules]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out and "FRK002" in out


def test_cli_exit_two_on_unknown_rule(capsys):
    assert main(["lint", "--root", str(FIXTURE_TREE), "--rules", "NOP999"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_exit_two_on_missing_path(capsys):
    assert main(["lint", "--root", str(FIXTURE_TREE), "no/such/dir"]) == 2


def test_cli_json_document(capsys):
    rules = ",".join(FILE_RULES)
    assert main(["lint", "--root", str(FIXTURE_TREE), "--rules", rules, "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["clean"] is False
    assert set(data["rules"]) == set(FILE_RULES)
    got = {(f["path"], f["line"], f["rule"]) for f in data["findings"]}
    assert got == expected_findings(FIXTURE_TREE)
    assert data["suppressed"]["pragma"] >= 2


def test_cli_json_exposes_fingerprint_field_lists(capsys):
    assert (
        main(["lint", "--root", str(REPO_ROOT), "--rules", "FPR001", "--json",
              "src/repro/pipeline/framework.py"])
        == 0
    )
    data = json.loads(capsys.readouterr().out)
    meta = data["metadata"]["FPR001"]
    assert meta["pass_context_fields"] == [f.name for f in dataclasses.fields(PassContext)]
    assert "placement_engine" in meta["aliases"]


def test_cli_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in registry.ids():
        assert rule_id in out
    assert main(["lint", "--list-rules", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert {r["id"] for r in data["rules"]} == set(registry.ids())


# ---------------------------------------------------------------------------
# meta-test: the real tree lints clean with zero baseline entries


def test_mypy_strict_on_analysis_package():
    """mypy (CI-only dependency) must pass under mypy.ini when present."""
    mypy = shutil.which("mypy")
    if mypy is None:
        pytest.skip("mypy not installed; the lint CI job runs it")
    proc = subprocess.run(
        [mypy, "--config-file", "mypy.ini", "src/repro"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_real_src_tree_lints_clean():
    analyzer = Analyzer(root=REPO_ROOT)
    assert analyzer.config.baseline == frozenset(), (
        "the baseline must stay empty: fix or pragma new findings instead"
    )
    report = analyzer.run()
    assert report.clean, report.render_text()
    assert report.files_checked > 50
    assert set(report.rules_run) == set(registry.ids())
