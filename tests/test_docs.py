"""Docs-site guarantees: generated API reference in sync, offline build
clean, docstring-coverage gate above threshold.

These run in the tier-1 suite (they are cheap) so docs drift fails locally,
not just in the ``docs-build`` CI job.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import build_docs  # noqa: E402  (tools/ is not a package)

from repro.analysis.docstrings import measure  # noqa: E402


def test_http_api_reference_matches_schema():
    """docs/http-api.md must be exactly what the generator produces today."""
    from repro.service.docs import render_api_reference

    committed = (ROOT / "docs" / "http-api.md").read_text(encoding="utf-8")
    assert committed == render_api_reference(), (
        "docs/http-api.md is stale; regenerate with "
        "`PYTHONPATH=src python -m repro.service.docs > docs/http-api.md`"
    )


def test_offline_docs_build_is_warning_free(tmp_path):
    """The stdlib site builder renders every nav page without a single problem."""
    problems = build_docs.build_site(tmp_path)
    assert problems == []
    nav = build_docs.read_nav(ROOT / "mkdocs.yml")
    assert len(nav) >= 7
    for _, name in nav:
        page = tmp_path / (name[:-3] + ".html")
        assert page.is_file() and page.stat().st_size > 0


def test_offline_builder_catches_broken_links(tmp_path):
    problems: list[str] = []
    build_docs.render_markdown(
        "see [missing](no-such-page.md)", "test.md", {"index.md"}, problems
    )
    assert problems and "broken internal link" in problems[0]


def test_docstring_coverage_gate():
    """The interrogate-style gate holds at >= 80% repo-wide (and 100% where promised)."""
    documented, total, missing = measure(ROOT / "src" / "repro", ROOT / "src")
    coverage = 100.0 * documented / total
    assert coverage >= 80.0, f"docstring coverage fell to {coverage:.1f}%: {missing}"
    for package in ("pipeline", "routing", "chip", "service"):
        documented, total, missing = measure(ROOT / "src" / "repro" / package, ROOT / "src")
        assert documented == total, f"repro.{package} lost docstrings: {missing}"


def test_readme_is_not_stale():
    """Pin the README claims this PR fixed (cache v3, default_cache_dir, CLI table)."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    from repro.pipeline.batch import CACHE_FORMAT_VERSION

    assert f"cache format v{CACHE_FORMAT_VERSION}" in readme
    assert "DEFAULT_CACHE_DIR" not in readme
    assert "default_cache_dir()" in readme
    for command in ("repro cache", "repro serve", "repro submit"):
        assert command in readme, f"README CLI docs lost {command!r}"
