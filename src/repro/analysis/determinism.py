"""Determinism rules: DET001-DET004.

The compiler's headline contract is bit-identical reproducibility: the
scheduler must emit the same schedule as the test oracle's reference engine
(``tests/test_differential_engines.py``), and the batch cache serves
results across processes on the premise that a compile is a pure function
of its fingerprint.  Anything order- or clock-dependent in a compilation path breaks
that silently, so these rules flag the four ways it has nearly happened:

* **DET001** — iterating a ``set`` (or ``dict.keys()`` view) in the
  scheduler / routing / partition / chip packages without ``sorted(...)``.
  Set iteration order depends on insertion/deletion history; a tie-broken
  best-candidate scan over a set can change placements between two
  otherwise identical runs.
* **DET002** — ``os.listdir`` / ``os.scandir`` in the same packages without
  ``sorted(...)``: directory order is filesystem-dependent.
* **DET003** — module-level :mod:`random` (or ``numpy.random``) calls: the
  shared global generator is cross-contaminated by any other caller and by
  fork timing; every randomised algorithm here threads an explicit
  ``random.Random(seed)``.
* **DET004** — wall-clock reads (``time.time`` / ``datetime.now`` / …)
  anywhere outside the explicitly pragma'd service/batch bookkeeping:
  a clock read inside a compilation path makes output depend on when it
  ran.  (``time.perf_counter`` is fine — timings are reported, never used
  as inputs.)
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.framework import Finding, Rule, SourceFile, registry

#: The compilation hot-path packages where iteration order becomes schedule
#: and placement identity (DET001/DET002's default scope).
HOT_PATH_SCOPE = (
    "src/repro/core/",
    "src/repro/routing/",
    "src/repro/partition/",
    "src/repro/chip/",
)


def module_imports(tree: ast.Module) -> tuple[dict[str, str], dict[str, tuple[str, str]]]:
    """Resolve a module's import aliases.

    Returns ``(module_aliases, imported_names)`` where ``module_aliases``
    maps a local name to the dotted module it refers to (``import numpy as
    np`` → ``{"np": "numpy"}``) and ``imported_names`` maps a local name to
    ``(module, original_name)`` (``from time import time as now`` →
    ``{"now": ("time", "time")}``).
    """
    module_aliases: dict[str, str] = {}
    imported_names: dict[str, tuple[str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                module_aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                imported_names[alias.asname or alias.name] = (node.module, alias.name)
    return module_aliases, imported_names


def _call_name(node: ast.expr) -> str | None:
    """The simple callee name of a call expression (``None`` when dotted)."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id
    return None


_SET_ANNOTATIONS = {"set", "frozenset", "Set", "FrozenSet", "MutableSet", "AbstractSet"}


def _is_set_annotation(node: ast.expr | None) -> bool:
    """True for ``set``/``set[int]``/``typing.Set[...]``-shaped annotations."""
    if node is None:
        return False
    if isinstance(node, ast.Subscript):
        return _is_set_annotation(node.value)
    if isinstance(node, ast.Name):
        return node.id in _SET_ANNOTATIONS
    if isinstance(node, ast.Attribute):
        return node.attr in _SET_ANNOTATIONS
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # String annotations: good enough to look at the leading name.
        head = node.value.split("[", 1)[0].strip()
        return head.rsplit(".", 1)[-1] in _SET_ANNOTATIONS
    return False


class _SetTypeTracker(ast.NodeVisitor):
    """Track which local names are set-typed within one scope, in textual order.

    Deliberately simple flow-insensitive-within-a-statement tracking: a name
    becomes set-typed when assigned a set-producing expression (or annotated
    as a set, including parameters) and loses the mark when rebound to
    anything else.  Over-approximation is acceptable — pragmas exist — but in
    practice the hot-path code assigns sets to dedicated names.
    """

    def __init__(self) -> None:
        self.set_names: set[str] = set()

    def is_set_expr(self, node: ast.expr | None) -> bool:
        """True when ``node`` syntactically produces a set."""
        if node is None:
            return False
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            if _call_name(node) in {"set", "frozenset"}:
                return True
            # s.union(...), s.copy(), … on a known set name stays a set.
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr
                in {"union", "intersection", "difference", "symmetric_difference", "copy"}
                and self.is_set_expr(node.func.value)
            ):
                return True
            return False
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        if isinstance(node, ast.IfExp):
            return self.is_set_expr(node.body) or self.is_set_expr(node.orelse)
        return False

    def bind(self, target: ast.expr, is_set: bool) -> None:
        """Record one assignment target's new set-ness."""
        if isinstance(target, ast.Name):
            if is_set:
                self.set_names.add(target.id)
            else:
                self.set_names.discard(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self.bind(element, is_set)

    def observe(self, node: ast.stmt) -> None:
        """Update the tracked names for one statement."""
        if isinstance(node, ast.Assign):
            is_set = self.is_set_expr(node.value)
            if (
                isinstance(node.value, ast.Tuple)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Tuple)
                and len(node.targets[0].elts) == len(node.value.elts)
            ):
                # a, b = set(x), set(y) — track each pair independently.
                for target, value in zip(node.targets[0].elts, node.value.elts):
                    self.bind(target, self.is_set_expr(value))
                return
            for target in node.targets:
                self.bind(target, is_set)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            self.bind(
                node.target, _is_set_annotation(node.annotation) or self.is_set_expr(node.value)
            )


def _function_scopes(tree: ast.Module) -> Iterator[tuple[ast.AST, list[ast.stmt]]]:
    """Yield ``(scope_node, body_statements)`` for the module and each function."""
    yield tree, tree.body
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, node.body


def _ordered_statements(body: list[ast.stmt]) -> Iterator[ast.stmt]:
    """Every statement in ``body``, in source order, descending into blocks
    but not into nested function/class definitions (those are their own
    scopes)."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for attr in ("body", "orelse", "finalbody"):
            blocks = getattr(stmt, attr, None)
            if isinstance(blocks, list):
                yield from _ordered_statements([s for s in blocks if isinstance(s, ast.stmt)])
        for handler in getattr(stmt, "handlers", None) or []:
            yield from _ordered_statements(handler.body)


def _own_expressions(stmt: ast.stmt) -> Iterator[ast.expr]:
    """The expression children of ``stmt`` itself, excluding nested statement
    blocks (those are visited as their own statements)."""
    for _, value in ast.iter_fields(stmt):
        if isinstance(value, ast.expr):
            yield value
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, ast.expr):
                    yield item


_ORDERED_WRAPPERS = {"sorted", "min", "max", "sum", "len", "any", "all"}
_TRANSPARENT_WRAPPERS = {"enumerate", "reversed", "list", "tuple", "iter"}
#: Callables whose result does not depend on their argument's iteration
#: order — a comprehension consumed whole by one of these is exempt.
_ORDER_INSENSITIVE_REDUCERS = {"sum", "min", "max", "any", "all", "len", "set", "frozenset"}


def _reducer_consumed(expr: ast.expr) -> set[int]:
    """Node ids of comprehensions that are the sole argument of a reducer call."""
    consumed: set[int] = set()
    for node in ast.walk(expr):
        if (
            isinstance(node, ast.Call)
            and _call_name(node) in _ORDER_INSENSITIVE_REDUCERS
            and node.args
            and isinstance(node.args[0], (ast.ListComp, ast.GeneratorExp, ast.SetComp))
        ):
            # min/max with a key= break ties by encounter order — those stay
            # order-sensitive and are not exempted.
            if _call_name(node) in {"min", "max"} and node.keywords:
                continue
            consumed.add(id(node.args[0]))
    return consumed


@registry.register
class UnorderedIterationRule(Rule):
    """DET001: iteration over an unordered collection in a hot-path package."""

    id = "DET001"
    title = "unordered iteration in a compilation hot path"
    severity = "error"
    scope = HOT_PATH_SCOPE
    rationale = (
        "Set iteration order depends on hash-table history, so a "
        "best-candidate scan or route order driven by a bare set can differ "
        "between two runs that must be bit-identical (the fast/reference "
        "parity harness and the batch cache both assume compiles are pure "
        "functions of their fingerprint).  Wrap the iterable in sorted(...) "
        "to pin a canonical order, or pragma the line when order provably "
        "cannot reach the output."
    )

    def _iter_findings(
        self, src: SourceFile, tracker: _SetTypeTracker, iter_expr: ast.expr
    ) -> Iterator[Finding]:
        expr = iter_expr
        while (
            isinstance(expr, ast.Call)
            and _call_name(expr) in _TRANSPARENT_WRAPPERS
            and expr.args
        ):
            expr = expr.args[0]
        if isinstance(expr, ast.Call) and _call_name(expr) in _ORDERED_WRAPPERS:
            return
        if isinstance(expr, ast.Subscript):
            # Slicing a list of set-typed provenance is list-ordered: fine.
            return
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "keys"
        ):
            yield self.finding(
                src.rel,
                expr.lineno,
                "iteration over dict.keys() in a hot path — iterate "
                "sorted(...) (or the dict itself if insertion order is the "
                "canonical order) so the traversal order is explicit",
                expr.col_offset,
            )
            return
        if tracker.is_set_expr(expr):
            described = (
                f"set {expr.id!r}" if isinstance(expr, ast.Name) else "a set expression"
            )
            yield self.finding(
                src.rel,
                expr.lineno,
                f"iteration over {described} in a hot path — set order is "
                "hash-history-dependent; wrap in sorted(...) to make the "
                "traversal canonical",
                expr.col_offset,
            )

    def check_file(self, src: SourceFile) -> list[Finding]:
        """Scan every scope of ``src`` for unordered iteration."""
        findings: list[Finding] = []
        for scope, body in _function_scopes(src.tree):
            tracker = _SetTypeTracker()
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = scope.args
                for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                    if _is_set_annotation(arg.annotation):
                        tracker.set_names.add(arg.arg)
            for stmt in _ordered_statements(body):
                tracker.observe(stmt)
                if isinstance(stmt, (ast.For, ast.AsyncFor)):
                    findings.extend(self._iter_findings(src, tracker, stmt.iter))
                for expr in _own_expressions(stmt):
                    reduced = _reducer_consumed(expr)
                    for child in ast.walk(expr):
                        # A set comprehension's own result is unordered, so
                        # its traversal order cannot reach the output; a
                        # comprehension consumed whole by an order-insensitive
                        # reducer (sum/min/max/any/all/len) is equally safe.
                        if isinstance(child, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
                            if id(child) in reduced:
                                continue
                            for generator in child.generators:
                                findings.extend(self._iter_findings(src, tracker, generator.iter))
        return _dedupe(findings)


@registry.register
class DirectoryOrderRule(Rule):
    """DET002: ``os.listdir`` / ``os.scandir`` without ``sorted`` in a hot path."""

    id = "DET002"
    title = "filesystem-ordered directory listing in a compilation hot path"
    severity = "error"
    scope = HOT_PATH_SCOPE
    rationale = (
        "os.listdir and os.scandir return entries in filesystem order, which "
        "differs across machines and filesystems; any compilation decision "
        "derived from one must be wrapped in sorted(...) to stay canonical."
    )

    def check_file(self, src: SourceFile) -> list[Finding]:
        """Flag unsorted directory listings."""
        module_aliases, imported_names = module_imports(src.tree)
        sorted_args: set[int] = set()
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Call) and _call_name(node) == "sorted" and node.args:
                for child in ast.walk(node.args[0]):
                    sorted_args.add(id(child))
        findings: list[Finding] = []
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call) or id(node) in sorted_args:
                continue
            name: str | None = None
            if isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Name):
                if module_aliases.get(node.func.value.id) == "os":
                    name = node.func.attr
            elif isinstance(node.func, ast.Name):
                origin = imported_names.get(node.func.id)
                if origin and origin[0] == "os":
                    name = origin[1]
            if name in {"listdir", "scandir"}:
                findings.append(
                    self.finding(
                        src.rel,
                        node.lineno,
                        f"os.{name} returns entries in filesystem order — wrap "
                        "in sorted(...) before any compilation decision "
                        "depends on it",
                        node.col_offset,
                    )
                )
        return findings


#: Functions on the ``random`` module that read or mutate the shared global
#: generator (``Random``/``SystemRandom`` construct independent instances).
_GLOBAL_RANDOM_FNS = {
    "seed", "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "triangular", "betavariate", "expovariate", "gauss",
    "normalvariate", "lognormvariate", "vonmisesvariate", "paretovariate",
    "weibullvariate", "getrandbits", "randbytes", "setstate", "getstate",
}

#: ``numpy.random`` constructors that take (or are) an explicit seeded state.
_NUMPY_SEEDED = {"default_rng", "Generator", "RandomState", "SeedSequence", "BitGenerator"}


@registry.register
class GlobalRandomRule(Rule):
    """DET003: a call that touches the process-global random generator."""

    id = "DET003"
    title = "module-level random call (unseeded shared generator)"
    severity = "error"
    rationale = (
        "The module-level random generator is shared process-global state: "
        "its sequence depends on every other caller and on fork timing, so "
        "results stop being a function of the declared seed.  Every "
        "randomised algorithm here threads an explicit random.Random(seed) "
        "instance instead (see chip/defects.py, partition/kl.py)."
    )

    def check_file(self, src: SourceFile) -> list[Finding]:
        """Flag global-generator calls, for both import styles."""
        module_aliases, imported_names = module_imports(src.tree)
        findings: list[Finding] = []
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                if (
                    module_aliases.get(func.value.id) == "random"
                    and func.attr in _GLOBAL_RANDOM_FNS
                ):
                    findings.append(
                        self.finding(
                            src.rel,
                            node.lineno,
                            f"random.{func.attr} uses the shared global generator — "
                            "construct a random.Random(seed) and call it there",
                            node.col_offset,
                        )
                    )
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Attribute):
                # np.random.<fn>(...) on a numpy module alias.
                inner = func.value
                if (
                    isinstance(inner.value, ast.Name)
                    and module_aliases.get(inner.value.id) == "numpy"
                    and inner.attr == "random"
                    and func.attr not in _NUMPY_SEEDED
                ):
                    findings.append(
                        self.finding(
                            src.rel,
                            node.lineno,
                            f"numpy.random.{func.attr} uses the shared global "
                            "generator — use numpy.random.default_rng(seed)",
                            node.col_offset,
                        )
                    )
            elif isinstance(func, ast.Name):
                origin = imported_names.get(func.id)
                if origin and origin[0] == "random" and origin[1] in _GLOBAL_RANDOM_FNS:
                    findings.append(
                        self.finding(
                            src.rel,
                            node.lineno,
                            f"{func.id} (random.{origin[1]}) uses the shared global "
                            "generator — construct a random.Random(seed) instead",
                            node.col_offset,
                        )
                    )
        return findings


#: Wall-clock reads.  ``time.perf_counter``/``monotonic`` are deliberately
#: absent: elapsed-time measurement is reported, never a compilation input.
_WALL_CLOCK_TIME_FNS = {"time", "time_ns", "ctime", "localtime", "gmtime"}
_WALL_CLOCK_DATETIME_FNS = {"now", "utcnow", "today"}


@registry.register
class WallClockRule(Rule):
    """DET004: a wall-clock read outside the pragma'd service/batch set."""

    id = "DET004"
    title = "wall-clock read in library code"
    severity = "error"
    rationale = (
        "A compile must be a pure function of its fingerprint: a clock read "
        "on a compilation path makes output (or cache identity) depend on "
        "when it ran.  The only sanctioned uses are service bookkeeping "
        "(uptime, job timestamps) and cache prune cutoffs, each carrying an "
        "explicit '# lint: disable=DET004' pragma at the call site."
    )

    def check_file(self, src: SourceFile) -> list[Finding]:
        """Flag ``time.time``-family and ``datetime.now``-family calls."""
        module_aliases, imported_names = module_imports(src.tree)
        findings: list[Finding] = []

        def flag(node: ast.Call, described: str) -> None:
            findings.append(
                self.finding(
                    src.rel,
                    node.lineno,
                    f"{described} reads the wall clock — compilation paths must "
                    "not depend on when they run; if this is service/batch "
                    "bookkeeping, add '# lint: disable=DET004' with a reason",
                    node.col_offset,
                )
            )

        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                owner = func.value.id
                if module_aliases.get(owner) == "time" and func.attr in _WALL_CLOCK_TIME_FNS:
                    flag(node, f"time.{func.attr}()")
                elif func.attr in _WALL_CLOCK_DATETIME_FNS:
                    origin = imported_names.get(owner)
                    if (origin and origin[0] == "datetime") or module_aliases.get(
                        owner
                    ) == "datetime":
                        flag(node, f"{owner}.{func.attr}()")
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Attribute):
                # datetime.datetime.now() / datetime.date.today().
                inner = func.value
                if (
                    isinstance(inner.value, ast.Name)
                    and module_aliases.get(inner.value.id) == "datetime"
                    and inner.attr in {"datetime", "date"}
                    and func.attr in _WALL_CLOCK_DATETIME_FNS
                ):
                    flag(node, f"datetime.{inner.attr}.{func.attr}()")
            elif isinstance(func, ast.Name):
                origin = imported_names.get(func.id)
                if origin and origin[0] == "time" and origin[1] in _WALL_CLOCK_TIME_FNS:
                    flag(node, f"{func.id} (time.{origin[1]})")
        return findings


def _dedupe(findings: list[Finding]) -> list[Finding]:
    """Drop exact-duplicate findings (comprehensions walked from two scopes)."""
    seen: set[tuple] = set()
    out: list[Finding] = []
    for finding in findings:
        key = (finding.rule, finding.path, finding.line, finding.col, finding.message)
        if key not in seen:
            seen.add(key)
            out.append(finding)
    return out
