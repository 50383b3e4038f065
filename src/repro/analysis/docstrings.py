"""DOC001: docstring coverage, enforced by ``repro lint``.

A stdlib equivalent of interrogate's count, so docstring coverage,
determinism and fingerprint checks run under one command with one
baseline/pragma format; :func:`measure` is also what the test suite calls.

Counted definitions: modules, public classes, and public functions/methods.
A leading underscore marks something private; dunders, nested functions and
ellipsis-only stubs are exempt — exactly the historical gate's contract.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.framework import Finding, Rule, registry


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _is_stub(node: ast.AST) -> bool:
    """True for ellipsis-only bodies (protocol/overload stubs need no docstring)."""
    body = getattr(node, "body", [])
    return (
        len(body) == 1
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and body[0].value.value is Ellipsis
    )


def inspect_file(path: Path, src_root: Path) -> list[tuple[str, bool]]:
    """``(qualified name, has docstring)`` for every checkable definition in a file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    module = path.relative_to(src_root).as_posix().removesuffix(".py").replace("/", ".")
    if module.endswith(".__init__"):
        module = module.removesuffix(".__init__")
    results: list[tuple[str, bool]] = [(module, ast.get_docstring(tree) is not None)]

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_public(child.name):
                    results.append(
                        (f"{prefix}.{child.name}", ast.get_docstring(child) is not None)
                    )
                    visit(child, f"{prefix}.{child.name}")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_public(child.name) and not _is_stub(child):
                    results.append(
                        (f"{prefix}.{child.name}", ast.get_docstring(child) is not None)
                    )
                # Nested functions are implementation detail: not descended into.

    visit(tree, module)
    return results


def measure(package: Path, src_root: Path) -> tuple[int, int, list[str]]:
    """(documented, total, missing names) across every ``.py`` under ``package``."""
    documented = total = 0
    missing: list[str] = []
    for path in sorted(package.rglob("*.py")):
        for name, has_doc in inspect_file(path, src_root):
            total += 1
            if has_doc:
                documented += 1
            else:
                missing.append(name)
    return documented, total, missing


@registry.register
class DocstringCoverageRule(Rule):
    """DOC001: public-docstring coverage below the configured threshold."""

    id = "DOC001"
    title = "docstring coverage below threshold"
    severity = "error"
    rationale = (
        "The docs site generates its API reference from docstrings, and the "
        "docs-build CI job gates on >= 80% coverage; folding the gate into "
        "repro lint keeps one command and one baseline for every repo "
        "contract.  Threshold and package are configurable via "
        "[rules.DOC001] fail_under / package."
    )

    def __init__(self, options: dict | None = None) -> None:
        super().__init__(options)
        #: Coverage numbers from the last run (``--json`` metadata).
        self.measured: dict = {}

    def check_project(self, root: Path) -> list[Finding]:
        """Measure coverage over the configured package; one finding when short."""
        package_rel = str(self.option("package", "src/repro"))
        src_rel = str(self.option("src_root", "src"))
        fail_under = float(self.option("fail_under", 80.0))
        package = root / package_rel
        if not package.is_dir():
            return [self.finding(package_rel, 0, f"no package at {package_rel} to measure")]
        documented, total, missing = measure(package, root / src_rel)
        coverage = 100.0 * documented / total if total else 100.0
        self.measured = {
            "documented": documented,
            "total": total,
            "coverage": round(coverage, 2),
            "fail_under": fail_under,
            "missing": missing,
        }
        if coverage >= fail_under:
            return []
        preview = ", ".join(missing[:5]) + ("…" if len(missing) > 5 else "")
        return [
            self.finding(
                package_rel,
                0,
                f"docstring coverage {documented}/{total} = {coverage:.1f}% is "
                f"below the {fail_under:.1f}% threshold; undocumented: {preview}",
            )
        ]

    def metadata(self) -> dict | None:
        """Coverage numbers (populated after a run)."""
        return dict(self.measured) if self.measured else None
