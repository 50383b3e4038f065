"""Fork/thread-safety rules: FRK001 and FRK002.

The batch engine forks :mod:`multiprocessing` pool workers and the compile
daemon serves requests from :class:`http.server.ThreadingHTTPServer` handler
threads, so module-level mutable state is shared twice over: copied (possibly
mid-update, along with any held locks) into every forked worker, and read
concurrently by every handler thread.  PR 5's inherited-lock deadlock was
exactly this class of bug.  The sanctioned patterns are:

* state behind an explicit seam with a locked owner object — the routing
  provider (:func:`repro.routing.fast_router.set_routing_provider` backed by the
  ``WarmStateCache`` and its instance lock);
* genuinely constant module attributes, spelled ``ALL_CAPS`` (leading
  underscores ignored), which the rules treat as frozen by convention;
* everything else pragma'd with an explicit justification.

**FRK001** flags ``global`` statements in functions (module state mutated
from code reachable by workers/handlers) and module-level bindings of
mutable containers or synchronisation primitives to non-constant names.
**FRK002** flags :class:`multiprocessing.Pool` construction while a lock is
held — forked children inherit the lock state, and a worker waiting on a
lock the parent holds deadlocks forever.
"""

from __future__ import annotations

import ast

from repro.analysis.determinism import module_imports
from repro.analysis.framework import Finding, Rule, SourceFile, registry

#: Constructors whose module-level result is mutable shared state.
_MUTABLE_CONSTRUCTORS = {
    "dict", "list", "set", "bytearray",
    "OrderedDict", "defaultdict", "deque", "Counter", "ChainMap",
}

#: threading/multiprocessing synchronisation primitives: module-level
#: instances cross fork boundaries in whatever state the fork caught them.
_SYNC_CONSTRUCTORS = {
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore", "Event", "Barrier",
}


def _constant_name(name: str) -> bool:
    """True for ``ALL_CAPS`` (frozen-by-convention) and dunder module attributes.

    Dunders (``__all__`` and friends) are interface declarations the import
    system owns, not program state.
    """
    if name.startswith("__") and name.endswith("__"):
        return True
    stripped = name.lstrip("_")
    return bool(stripped) and stripped == stripped.upper()


def _callee_terminal(func: ast.expr) -> str | None:
    """The final attribute/name of a callee (``threading.Lock`` → ``Lock``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_mutable_binding(value: ast.expr) -> str | None:
    """Describe why ``value`` is mutable module state, or ``None`` when it isn't."""
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "a dict"
    if isinstance(value, (ast.List, ast.ListComp)):
        return "a list"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "a set"
    if isinstance(value, ast.Call):
        callee = _callee_terminal(value.func)
        if callee in _MUTABLE_CONSTRUCTORS:
            return f"a {callee}"
        if callee in _SYNC_CONSTRUCTORS:
            return f"a {callee} (synchronisation primitive)"
    return None


@registry.register
class ModuleStateRule(Rule):
    """FRK001: mutable module-level state reachable by workers and handler threads."""

    id = "FRK001"
    title = "mutable module-level state (fork/thread hazard)"
    severity = "error"
    rationale = (
        "Pool workers fork a copy of every module global (mid-update state "
        "and held locks included) and daemon handler threads read them "
        "concurrently; a mutable module attribute is therefore silently "
        "process- and thread-unsafe.  Route mutable state through an owner "
        "object behind a seam (see routing/fast_router.set_routing_provider + "
        "WarmStateCache), spell genuine constants ALL_CAPS, or pragma the "
        "line with the reason it is safe."
    )

    def check_file(self, src: SourceFile) -> list[Finding]:
        """Flag ``global`` statements and module-level mutable bindings."""
        findings: list[Finding] = []
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Global):
                names = ", ".join(node.names)
                findings.append(
                    self.finding(
                        src.rel,
                        node.lineno,
                        f"'global {names}' mutates module state from a function — "
                        "forked workers and handler threads share it unsynchronised; "
                        "use an owner object behind a seam, or pragma the sanctioned "
                        "seam itself",
                        node.col_offset,
                    )
                )
        for stmt in src.tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None:
                continue
            described = _is_mutable_binding(value)
            if described is None:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and not _constant_name(target.id):
                    findings.append(
                        self.finding(
                            src.rel,
                            stmt.lineno,
                            f"module attribute {target.id!r} binds {described} at import "
                            "time — mutable module state is copied into forked workers "
                            "and shared across handler threads; move it behind an owner "
                            "object / provider seam or rename it ALL_CAPS if it is "
                            "genuinely frozen after import",
                            stmt.col_offset,
                        )
                    )
        return findings


def _lockish(expr: ast.expr) -> bool:
    """Heuristic: the expression names a lock (``self._lock``, ``cache.lock``…)."""
    if isinstance(expr, ast.Call):
        callee = _callee_terminal(expr.func)
        return callee in _SYNC_CONSTRUCTORS
    terminal = None
    if isinstance(expr, ast.Name):
        terminal = expr.id
    elif isinstance(expr, ast.Attribute):
        terminal = expr.attr
    return terminal is not None and "lock" in terminal.lower()


def _is_pool_call(node: ast.Call, module_aliases: dict, imported_names: dict) -> str | None:
    """Describe a worker-pool construction, or ``None``."""
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in {"Pool", "ProcessPoolExecutor"}:
        return func.attr
    if isinstance(func, ast.Name):
        origin = imported_names.get(func.id)
        if origin and origin[1] in {"Pool", "ProcessPoolExecutor"}:
            return origin[1]
    return None


@registry.register
class LockedPoolRule(Rule):
    """FRK002: a worker pool constructed while a lock is held."""

    id = "FRK002"
    title = "worker pool constructed under a held lock"
    severity = "error"
    rationale = (
        "Forked pool workers inherit every lock in the state the fork caught "
        "it in: constructing a Pool inside 'with lock:' (or between acquire "
        "and release) hands children a permanently-held copy, and any worker "
        "that later touches the same lock deadlocks — the PR 5 "
        "inherited-lock incident.  Construct pools outside critical "
        "sections."
    )

    def check_file(self, src: SourceFile) -> list[Finding]:
        """Flag pool constructions lexically inside lock-holding regions."""
        module_aliases, imported_names = module_imports(src.tree)
        findings: list[Finding] = []

        def flag(node: ast.Call, pool: str, how: str) -> None:
            findings.append(
                self.finding(
                    src.rel,
                    node.lineno,
                    f"{pool} constructed {how} — forked workers inherit the held "
                    "lock and deadlock on first contention; build the pool "
                    "outside the critical section",
                    node.col_offset,
                )
            )

        for node in ast.walk(src.tree):
            if isinstance(node, (ast.With, ast.AsyncWith)) and any(
                _lockish(item.context_expr) for item in node.items
            ):
                for child in ast.walk(node):
                    if isinstance(child, ast.Call):
                        pool = _is_pool_call(child, module_aliases, imported_names)
                        if pool is not None:
                            flag(child, pool, "inside a 'with <lock>:' block")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                acquires: list[int] = []
                releases: list[int] = []
                pools: list[tuple[int, ast.Call, str]] = []
                for child in ast.walk(node):
                    if isinstance(child, ast.Call):
                        callee = _callee_terminal(child.func)
                        if callee == "acquire" and isinstance(child.func, ast.Attribute) and _lockish(
                            child.func.value
                        ):
                            acquires.append(child.lineno)
                        elif callee == "release" and isinstance(
                            child.func, ast.Attribute
                        ) and _lockish(child.func.value):
                            releases.append(child.lineno)
                        else:
                            pool = _is_pool_call(child, module_aliases, imported_names)
                            if pool is not None:
                                pools.append((child.lineno, child, pool))
                if acquires and pools:
                    first_acquire = min(acquires)
                    last_release = max(releases) if releases else None
                    for lineno, call, pool in pools:
                        if lineno > first_acquire and (
                            last_release is None or lineno < last_release
                        ):
                            flag(call, pool, "between lock.acquire() and release()")
        return _dedupe_frk(findings)


def _dedupe_frk(findings: list[Finding]) -> list[Finding]:
    """Drop duplicates (a pool in a nested with-block is walked twice)."""
    seen: set[tuple] = set()
    out: list[Finding] = []
    for finding in findings:
        key = (finding.rule, finding.path, finding.line, finding.col)
        if key not in seen:
            seen.add(key)
            out.append(finding)
    return out
