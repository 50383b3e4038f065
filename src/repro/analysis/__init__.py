"""Static analysis: the ``repro lint`` rule framework and rule catalog.

This package enforces the compiler's correctness contracts at lint time
instead of after a parity test flakes:

* determinism of the compilation hot paths (``DET001``-``DET004``),
* completeness of the batch-cache fingerprint (``FPR001``),
* fork/thread safety of module state (``FRK001``-``FRK002``),
* docstring coverage (``DOC001``).

Importing this package registers every rule; the
:class:`~repro.analysis.analyzer.Analyzer` is the entry point used by the
``repro lint`` CLI command and the test suite.  See
``docs/static-analysis.md`` for the rule catalog with rationale, and
``.reprolint.toml`` for the repository's configuration and baseline.
"""

from repro.analysis import determinism, docstrings, fingerprint, forksafety  # noqa: F401
from repro.analysis.analyzer import Analyzer, LintReport, LintUsageError, rule_catalog
from repro.analysis.config import CONFIG_FILE_NAME, LintConfig, LintConfigError, load_config
from repro.analysis.framework import Finding, Rule, SourceFile, registry

__all__ = [
    "Analyzer",
    "CONFIG_FILE_NAME",
    "Finding",
    "LintConfig",
    "LintConfigError",
    "LintReport",
    "LintUsageError",
    "Rule",
    "SourceFile",
    "load_config",
    "registry",
    "rule_catalog",
]
