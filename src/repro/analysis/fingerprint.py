"""FPR001: every compilation-affecting field must reach the cache fingerprint.

The batch cache (:mod:`repro.pipeline.batch`) serves results across runs and
processes keyed by ``BatchJob.fingerprint()``.  Twice already a new
``PassContext`` request knob landed without joining the fingerprint payload,
and the stale-cache near-miss forced a ``CACHE_FORMAT_VERSION`` bump after
the fact (the ``engine`` field in PR 3's era, the ``placement`` knob in
PR 7).  This rule makes the contract machine-checked at lint time:

1. parse ``pipeline/framework.py`` and extract the ``PassContext`` fields;
   subtract the explicit *artifact* exclusion list (fields passes produce
   rather than the request) and the *derived* list (fields the registry
   encodes into the fingerprinted ``method``/``options``, or that
   ``BatchJob`` cannot express at all);
2. parse ``pipeline/batch.py`` and extract the ``BatchJob`` fields and the
   literal dict keys of the payload built inside ``fingerprint()``;
3. report any remaining request field (via the alias map, e.g.
   ``placement_engine`` → ``placement``) missing from the payload, any
   ``BatchJob`` field missing from the payload that is not declared
   presentation metadata, and any *derived* claim contradicted by ``BatchJob``
   actually growing a field of that name.

The extracted field lists are exposed through ``repro lint --json`` so the
test suite can assert them against the live dataclasses directly.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.framework import Finding, Rule, registry

#: PassContext fields that are artifacts produced *by* passes — never part
#: of the request, hence legitimately absent from the fingerprint.
DEFAULT_ARTIFACT_FIELDS = (
    "dag",
    "comm_graph",
    "scheme",
    "cut_types",
    "shape",
    "placement",
    "mapping_cost",
    "mapping",
    "use_resu",
    "priority_fn",
    "cut_strategy_fn",
    "congestion_weight",
    "method_label",
    "encoded",
    "artifacts",
)

#: Request fields that never reach a BatchJob, with the reason.  The rule
#: cross-checks each claim: if BatchJob ever grows a field of this name the
#: exclusion stops being true and FPR001 fires.
DEFAULT_DERIVED_FIELDS = {
    "model": "selected by the method registry; encoded in the fingerprinted 'method'/'options'",
    "resources": "encoded into the fingerprinted 'method' name by the registry",
    "scheduler": "encoded into the fingerprinted 'method' name by the registry",
    "window": "not expressible through BatchJob; windowed compiles never enter the batch cache",
    "defect_rate": "CLI convenience resolved into the fingerprinted 'defects' spec",
    "defect_seed": "CLI convenience resolved into the fingerprinted 'defects' spec",
}

#: PassContext request field -> fingerprint payload key, where names differ.
DEFAULT_ALIASES = {"placement_engine": "placement"}

#: BatchJob fields that are presentation metadata, restamped on every cache
#: hit (see ResultCache.get) and therefore deliberately outside the payload.
DEFAULT_PRESENTATION_FIELDS = ("circuit_name", "paper_cycles")


def _class_def(tree: ast.Module, name: str) -> ast.ClassDef | None:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _dataclass_fields(class_def: ast.ClassDef) -> list[tuple[str, int]]:
    """``(field name, line)`` for every annotated class-body assignment."""
    fields: list[tuple[str, int]] = []
    for node in class_def.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            fields.append((node.target.id, node.lineno))
    return fields


def _payload_keys(class_def: ast.ClassDef, method: str) -> tuple[list[str], int] | None:
    """The literal string keys of the dict(s) built in ``method``, plus its line."""
    for node in class_def.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == method:
            keys: list[str] = []
            for child in ast.walk(node):
                if isinstance(child, ast.Dict):
                    for key in child.keys:
                        if isinstance(key, ast.Constant) and isinstance(key.value, str):
                            keys.append(key.value)
            return keys, node.lineno
    return None


@registry.register
class FingerprintCompletenessRule(Rule):
    """FPR001: request-affecting fields missing from ``BatchJob.fingerprint()``."""

    id = "FPR001"
    title = "compilation-affecting field missing from the cache fingerprint"
    severity = "error"
    rationale = (
        "A PassContext request field that does not reach the "
        "BatchJob.fingerprint() payload lets the cache serve stale results "
        "for jobs that differ in that field — the exact silent-staleness "
        "class that forced CACHE_FORMAT_VERSION bumps twice.  Artifact "
        "fields are excluded explicitly; everything else must be "
        "fingerprinted (or declared derived, which the rule cross-checks)."
    )

    def __init__(self, options: dict | None = None) -> None:
        super().__init__(options)
        #: Field lists extracted by the last :meth:`check_project` run,
        #: surfaced through ``repro lint --json`` for the sync tests.
        self.extracted: dict = {}

    def check_project(self, root: Path) -> list[Finding]:
        """Cross-check PassContext / BatchJob / fingerprint payload."""
        framework_rel = str(self.option("framework", "src/repro/pipeline/framework.py"))
        batch_rel = str(self.option("batch", "src/repro/pipeline/batch.py"))
        artifact_fields = set(self.option("artifact_fields", DEFAULT_ARTIFACT_FIELDS))
        derived = dict(self.option("derived_fields", DEFAULT_DERIVED_FIELDS))
        aliases = dict(self.option("aliases", DEFAULT_ALIASES))
        presentation = set(self.option("presentation_fields", DEFAULT_PRESENTATION_FIELDS))

        findings: list[Finding] = []
        trees: dict[str, ast.Module] = {}
        for rel in (framework_rel, batch_rel):
            path = root / rel
            if not path.is_file():
                findings.append(self.finding(rel, 0, f"cannot check fingerprints: {rel} not found"))
                continue
            trees[rel] = ast.parse(path.read_text(encoding="utf-8"), filename=rel)
        if len(trees) != 2:
            return findings

        pass_context = _class_def(trees[framework_rel], "PassContext")
        batch_job = _class_def(trees[batch_rel], "BatchJob")
        if pass_context is None:
            findings.append(self.finding(framework_rel, 0, "no PassContext class found"))
        if batch_job is None:
            findings.append(self.finding(batch_rel, 0, "no BatchJob class found"))
        if pass_context is None or batch_job is None:
            return findings

        context_fields = _dataclass_fields(pass_context)
        job_fields = _dataclass_fields(batch_job)
        payload = _payload_keys(batch_job, "fingerprint")
        if payload is None:
            findings.append(
                self.finding(batch_rel, batch_job.lineno, "BatchJob has no fingerprint() method")
            )
            return findings
        payload_keys, payload_line = payload

        request_fields = [
            (name, line) for name, line in context_fields if name not in artifact_fields
        ]
        self.extracted = {
            "pass_context_fields": [name for name, _ in context_fields],
            "request_fields": [name for name, _ in request_fields],
            "artifact_fields": sorted(artifact_fields),
            "derived_fields": dict(sorted(derived.items())),
            "aliases": dict(sorted(aliases.items())),
            "presentation_fields": sorted(presentation),
            "batch_job_fields": [name for name, _ in job_fields],
            "payload_keys": payload_keys,
        }

        job_field_names = {name for name, _ in job_fields}
        for name, line in request_fields:
            if name in derived:
                continue
            key = aliases.get(name, name)
            if key not in payload_keys:
                findings.append(
                    self.finding(
                        framework_rel,
                        line,
                        f"PassContext request field {name!r} (fingerprint key "
                        f"{key!r}) is missing from the BatchJob.fingerprint() "
                        "payload — the cache would serve stale results across "
                        f"values of {name!r}; add it to the payload (and bump "
                        "CACHE_FORMAT_VERSION) or declare it artifact/derived",
                    )
                )
        for name, line in job_fields:
            if name in presentation:
                continue
            if name not in payload_keys:
                findings.append(
                    self.finding(
                        batch_rel,
                        line,
                        f"BatchJob field {name!r} is missing from the "
                        "fingerprint() payload — two jobs differing only in "
                        f"{name!r} would collide in the cache; add it to the "
                        "payload or declare it presentation metadata",
                    )
                )
        for name, reason in sorted(derived.items()):
            if name in job_field_names:
                findings.append(
                    self.finding(
                        batch_rel,
                        payload_line,
                        f"field {name!r} is declared derived ({reason}) but "
                        "BatchJob now defines it — the exclusion is stale; "
                        "fingerprint the field and drop it from derived_fields",
                    )
                )
        return findings

    def metadata(self) -> dict | None:
        """The extracted field lists (populated after a run)."""
        return dict(self.extracted) if self.extracted else None
