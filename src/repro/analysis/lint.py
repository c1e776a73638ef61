"""Repo-invariant linter: AST checks for the rules the tree lives by.

The repo enforces several invariants that ordinary tooling cannot see:

* **layering** — the Fig.-5-derived module layering (state < pathres <
  fsops < osapi < ... < cli).  Deeper than the architecture test's
  import walk: literal ``importlib.import_module("...")`` /
  ``__import__("...")`` edges count too.
* **lock-discipline** — a class that guards an attribute with its
  ``self._lock`` somewhere must guard it everywhere (outside
  ``__init__``): one unlocked ``append`` silently loses the hits
  :meth:`CoverageRegistry.hit` was made thread-safe to keep.
* **determinism** — no unseeded module-level ``random.*`` calls
  anywhere in ``src`` (all randomness flows through seeded
  ``random.Random`` instances), and no ``json.dumps`` without
  ``sort_keys=True`` in byte-stable modules (the store's
  content-addressing and artifact exports compare bytes).
* **pickle-safety** — modules whose types cross shard/process
  boundaries must not hold locks, threads, or lambdas.
* **clause-consistency** — every literal ``cover(name)`` names a
  declared clause; every ``declare``\\ d reachable clause has a cover
  site; an explicit ``platforms=`` annotation must not list a platform
  the dead-clause analysis proves the clause unreachable on.
* **unused-import** — an imported name that nothing in the module
  reads is dead weight that hides what the module depends on.
  ``__init__.py`` re-exports, ``from __future__`` imports and names
  listed in ``__all__`` are exempt.

``repro lint src/repro`` runs all rules and is a CI gate (clean on the
current tree).  Suppress a finding by appending ``# lint:
ignore[rule-name]`` to the flagged line.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: module prefix -> layer index (higher may import lower, not the
#: converse).  Order matters: the first matching prefix wins, so more
#: specific prefixes ("repro.service.pool") precede their parents.
LAYERS: Dict[str, int] = {
    "repro.util": 0,
    "repro.core": 1,
    "repro.state": 2,
    "repro.perms": 3,
    "repro.pathres": 4,
    "repro.fsops": 5,
    "repro.osapi": 6,
    "repro.engine": 7,
    "repro.checker": 8,
    "repro.script": 8,
    "repro.fsimpl": 9,
    "repro.executor": 10,
    "repro.testgen": 10,
    "repro.oracle": 10,
    # Static analysis reads the spec layers below and serves the fuzz /
    # store / cli layers above.
    "repro.analysis": 10,
    "repro.gen": 11,
    "repro.harness": 11,
    "repro.store": 11,
    "repro.service.pool": 11,
    "repro.api": 12,
    "repro.service": 13,
    "repro.fuzz": 13,
    "repro.cli": 14,
}

#: Modules whose on-disk/JSON output must be byte-stable (content
#: addressing, artifact diffing): json.dumps must sort keys.
BYTE_STABLE_PREFIXES = (
    "repro.store",
    "repro.api.artifact",
    "repro.fuzz.view",
    "repro.harness",
)

#: Modules defining types that cross shard/process boundaries.
WIRE_MODULES = frozenset({
    "repro.core.commands", "repro.core.labels", "repro.core.values",
    "repro.script.ast", "repro.fsimpl.quirks", "repro.oracle.verdict",
    "repro.osapi.os_state", "repro.osapi.process",
    "repro.store.records",
})

#: Module-level random functions that draw from the unseeded global
#: generator (``random.Random(seed)`` instances are the sanctioned way).
_UNSEEDED_RANDOM = frozenset({
    "random", "randint", "choice", "choices", "shuffle", "sample",
    "randrange", "uniform", "getrandbits", "gauss", "betavariate",
})

#: Methods that mutate their receiver in place.
_MUTATOR_METHODS = frozenset({
    "append", "add", "pop", "clear", "update", "setdefault",
    "discard", "remove", "insert", "extend", "popitem",
})

ALL_RULES = ("layering", "lock-discipline", "determinism",
             "pickle-safety", "clause-consistency", "unused-import")


@dataclasses.dataclass(frozen=True)
class Finding:
    """One lint violation."""

    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def render_findings(findings: Sequence[Finding]) -> str:
    if not findings:
        return "lint: clean"
    lines = [finding.render() for finding in findings]
    lines.append(f"lint: {len(findings)} finding(s)")
    return "\n".join(lines)


def layer_of(module: str) -> Optional[int]:
    """The layer index of a dotted module name, or None if unlayered."""
    for prefix, layer in LAYERS.items():
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


def _module_name(path: pathlib.Path) -> Optional[str]:
    """Dotted module name for a file under a ``repro`` package root."""
    parts = list(path.with_suffix("").parts)
    if "repro" not in parts:
        return None
    idx = len(parts) - 1 - parts[::-1].index("repro")
    module = ".".join(parts[idx:])
    if module.endswith(".__init__"):
        module = module[: -len(".__init__")]
    return module


# ---------------------------------------------------------------------------
# rule: layering
# ---------------------------------------------------------------------------

def _iter_imports(tree: ast.AST) -> Iterable[Tuple[str, int]]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.level == 0:
            yield node.module, node.lineno
        elif isinstance(node, ast.Call):
            # Literal dynamic imports count as edges too.
            func = node.func
            dynamic = (isinstance(func, ast.Name)
                       and func.id == "__import__") or (
                isinstance(func, ast.Attribute)
                and func.attr == "import_module"
                and isinstance(func.value, ast.Name)
                and func.value.id == "importlib")
            if dynamic and node.args and isinstance(
                    node.args[0], ast.Constant) and isinstance(
                    node.args[0].value, str):
                yield node.args[0].value, node.lineno


def _rule_layering(module: str, path: str,
                   tree: ast.AST) -> List[Finding]:
    my_layer = layer_of(module)
    if my_layer is None:
        return []
    findings = []
    for imported, lineno in _iter_imports(tree):
        dep_layer = layer_of(imported)
        if dep_layer is not None and dep_layer > my_layer:
            findings.append(Finding(
                "layering", path, lineno,
                f"{module} (layer {my_layer}) imports {imported} "
                f"(layer {dep_layer}); dependencies must point "
                "downward"))
    return findings


# ---------------------------------------------------------------------------
# rule: lock-discipline
# ---------------------------------------------------------------------------

def _self_attr(node: ast.AST) -> Optional[str]:
    """``self.X`` -> ``X`` (descending through subscripts)."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and isinstance(
            node.value, ast.Name) and node.value.id == "self":
        return node.attr
    return None


def _own_nodes(stmt: ast.stmt) -> Iterable[ast.AST]:
    """``ast.walk`` over ``stmt``'s own expressions only: its nested
    statements are left to the caller's recursion, which knows whether
    they run under the lock."""
    for child in ast.iter_child_nodes(stmt):
        if not isinstance(child, (ast.stmt, ast.excepthandler,
                                  ast.match_case)):
            yield from ast.walk(child)


def _iter_events(body: List[ast.stmt], lock_attr: str,
                 held: bool) -> Iterable[Tuple[str, str, int, bool]]:
    """Yield ``("mutate"|"call", name, lineno, under_lock)`` events:
    self-attribute mutations and ``self.method(...)`` call sites."""
    for stmt in body:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            now_held = held or any(
                _self_attr(item.context_expr) == lock_attr
                for item in stmt.items)
            yield from _iter_events(stmt.body, lock_attr, now_held)
            continue
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        # Direct mutations and self-calls in this statement...
        if isinstance(stmt, (ast.Assign, ast.AugAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            for target in targets:
                attr = _self_attr(target)
                if attr is not None:
                    yield "mutate", attr, stmt.lineno, held
        for node in _own_nodes(stmt):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr in _MUTATOR_METHODS:
                attr = _self_attr(func.value)
                if attr is not None:
                    yield "mutate", attr, node.lineno, held
            elif isinstance(func.value, ast.Name) and \
                    func.value.id == "self":
                yield "call", func.attr, node.lineno, held
        # ...and recursion into compound statements.
        for field in ("body", "orelse", "finalbody"):
            inner = getattr(stmt, field, None)
            if inner:
                yield from _iter_events(inner, lock_attr, held)
        for handler in getattr(stmt, "handlers", []) or []:
            yield from _iter_events(handler.body, lock_attr, held)
        for case in getattr(stmt, "cases", []) or []:
            yield from _iter_events(case.body, lock_attr, held)


def _lock_safe_methods(methods, events_of) -> set:
    """Methods whose bodies only ever run with the lock held.

    A private method qualifies when every in-class call site is under
    the lock, inside ``__init__`` (the object is not yet shared), or
    inside another qualifying method — computed as a fixpoint.  Public
    methods never qualify: external callers are unknowable.
    """
    names = {m.name for m in methods}
    callers: Dict[str, List[Tuple[str, bool]]] = {n: [] for n in names}
    for method in methods:
        for kind, name, _, held in events_of(method):
            if kind == "call" and name in callers:
                callers[name].append((method.name, held))
    safe: set = set()
    changed = True
    while changed:
        changed = False
        for method in methods:
            name = method.name
            if name in safe or not name.startswith("_") or \
                    name.startswith("__"):
                continue
            sites = callers[name]
            if sites and all(
                    held or caller in ("__init__", "__new__")
                    or caller in safe
                    for caller, held in sites):
                safe.add(name)
                changed = True
    return safe


def _rule_lock_discipline(module: str, path: str,
                          tree: ast.AST) -> List[Finding]:
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        methods = [n for n in node.body
                   if isinstance(n, (ast.FunctionDef,
                                     ast.AsyncFunctionDef))]
        lock_attrs = set()
        for method in methods:
            for stmt in ast.walk(method):
                if isinstance(stmt, ast.Assign) and isinstance(
                        stmt.value, ast.Call):
                    func = stmt.value.func
                    if isinstance(func, ast.Attribute) and \
                            func.attr in ("Lock", "RLock"):
                        for target in stmt.targets:
                            attr = _self_attr(target)
                            if attr is not None:
                                lock_attrs.add(attr)
        for lock_attr in sorted(lock_attrs):
            def events_of(method, _lock=lock_attr):
                return list(_iter_events(method.body, _lock, False))

            lock_held_only = _lock_safe_methods(methods, events_of)
            # Attributes mutated under the lock anywhere are "guarded";
            # mutating them without it (outside __init__ and outside
            # methods only ever entered with the lock held) is the bug.
            guarded = set()
            for method in methods:
                body_held = method.name in lock_held_only
                for kind, attr, _, held in events_of(method):
                    if kind == "mutate" and (held or body_held) \
                            and attr != lock_attr:
                        guarded.add(attr)
            for method in methods:
                if method.name in ("__init__", "__new__") or \
                        method.name in lock_held_only:
                    continue
                for kind, attr, lineno, held in events_of(method):
                    if kind == "mutate" and attr in guarded \
                            and not held:
                        findings.append(Finding(
                            "lock-discipline", path, lineno,
                            f"{node.name}.{method.name} mutates "
                            f"self.{attr} outside `with self."
                            f"{lock_attr}:` although other methods "
                            "guard it"))
    return findings


# ---------------------------------------------------------------------------
# rule: determinism
# ---------------------------------------------------------------------------

def _rule_determinism(module: str, path: str,
                      tree: ast.AST) -> List[Finding]:
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(
                func.value, ast.Name):
            if func.value.id == "random" and \
                    func.attr in _UNSEEDED_RANDOM:
                findings.append(Finding(
                    "determinism", path, node.lineno,
                    f"call to unseeded random.{func.attr}(); use a "
                    "seeded random.Random instance"))
            if func.value.id == "json" and func.attr == "dumps" and \
                    module is not None and module.startswith(
                        BYTE_STABLE_PREFIXES):
                sort_kw = [kw for kw in node.keywords
                           if kw.arg == "sort_keys"]
                sorted_ok = any(
                    isinstance(kw.value, ast.Constant)
                    and kw.value.value is True for kw in sort_kw)
                if not sorted_ok:
                    findings.append(Finding(
                        "determinism", path, node.lineno,
                        "json.dumps without sort_keys=True in a "
                        f"byte-stable module ({module})"))
    return findings


# ---------------------------------------------------------------------------
# rule: pickle-safety
# ---------------------------------------------------------------------------

def _rule_pickle_safety(module: str, path: str,
                        tree: ast.AST) -> List[Finding]:
    if module not in WIRE_MODULES:
        return []
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(
                node.value, ast.Name) and node.value.id == "threading":
            findings.append(Finding(
                "pickle-safety", path, node.lineno,
                f"threading.{node.attr} in wire module {module}: "
                "values of this module cross process boundaries and "
                "must stay picklable"))
        elif isinstance(node, ast.Lambda):
            findings.append(Finding(
                "pickle-safety", path, node.lineno,
                f"lambda in wire module {module}: lambdas do not "
                "pickle across shard boundaries"))
    return findings


# ---------------------------------------------------------------------------
# rule: unused-import
# ---------------------------------------------------------------------------

def _rule_unused_import(module: str, path: str,
                        tree: ast.AST) -> List[Finding]:
    if pathlib.Path(path).name == "__init__.py":
        return []  # a package's imports are its re-exports
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__"
                for target in node.targets):
            read.update(elt.value for elt in ast.walk(node.value)
                        if isinstance(elt, ast.Constant))
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound != "*" and bound not in read:
                findings.append(Finding(
                    "unused-import", path, alias.lineno,
                    f"{bound!r} is imported but nothing in the module "
                    "reads it"))
    return findings


# ---------------------------------------------------------------------------
# rule: clause-consistency
# ---------------------------------------------------------------------------

def _cover_literals(tree: ast.AST) -> List[Tuple[str, int]]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            is_cover = (isinstance(func, ast.Name)
                        and func.id == "cover") or (
                isinstance(func, ast.Attribute) and func.attr == "hit")
            if is_cover and node.args and isinstance(
                    node.args[0], ast.Constant) and isinstance(
                    node.args[0].value, str):
                names.append((node.args[0].value, node.lineno))
    return names


def _declare_literals(tree: ast.AST
                      ) -> List[Tuple[str, int, Optional[tuple]]]:
    """``(name, lineno, platforms-or-None)`` for literal declares."""
    declares = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Name) and node.func.id == "declare" \
                and node.args and isinstance(
                    node.args[0], ast.Constant) and isinstance(
                    node.args[0].value, str):
            platforms = None
            for kw in node.keywords:
                if kw.arg == "platforms" and isinstance(
                        kw.value, (ast.Tuple, ast.List)):
                    elts = kw.value.elts
                    if all(isinstance(e, ast.Constant) for e in elts):
                        platforms = tuple(e.value for e in elts)
            declares.append((node.args[0].value, node.lineno,
                             platforms))
    return declares


def _rule_clause_consistency(
        parsed: List[Tuple[str, str, ast.AST]]) -> List[Finding]:
    """Cross-file rule: cover/declare names vs the live registry.

    Imports the spec modules (registering every declared clause) and
    the dead-clause analysis lazily, so plain per-file lints stay
    cheap.
    """
    from repro.analysis.dead import dead_clause_report
    from repro.core.coverage import REGISTRY

    report = dead_clause_report()  # imports every spec module
    declarations = REGISTRY.declarations()
    covered_anywhere = {site.clause for site in report.sites}
    for _, _, tree in parsed:
        covered_anywhere.update(name for name, _ in
                                _cover_literals(tree))
    findings = []
    for module, path, tree in parsed:
        local_declares = _declare_literals(tree)
        local_names = {name for name, _, _ in local_declares}
        for name, lineno in _cover_literals(tree):
            if name not in declarations and name not in local_names:
                findings.append(Finding(
                    "clause-consistency", path, lineno,
                    f"cover({name!r}) names an undeclared clause"))
        for name, lineno, platforms in local_declares:
            reachable, _ = declarations.get(name, (True, None))
            if reachable and name not in covered_anywhere:
                findings.append(Finding(
                    "clause-consistency", path, lineno,
                    f"clause {name!r} is declared reachable but no "
                    "cover() site hits it"))
            if platforms is None:
                continue
            for platform in platforms:
                verdicts = report.verdicts.get(platform, {})
                if verdicts.get(name) == "dead":
                    findings.append(Finding(
                        "clause-consistency", path, lineno,
                        f"clause {name!r} is annotated for platform "
                        f"{platform!r} but the dead-clause analysis "
                        "proves it unreachable there"))
    return findings


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------

_PER_FILE_RULES = {
    "layering": _rule_layering,
    "lock-discipline": _rule_lock_discipline,
    "determinism": _rule_determinism,
    "pickle-safety": _rule_pickle_safety,
    "unused-import": _rule_unused_import,
}


def _suppressed(finding: Finding,
                lines: Dict[str, List[str]]) -> bool:
    source = lines.get(finding.path, [])
    if 1 <= finding.line <= len(source):
        return f"lint: ignore[{finding.rule}]" in \
            source[finding.line - 1]
    return False


def lint_paths(paths: Iterable[str | pathlib.Path],
               rules: Optional[Sequence[str]] = None) -> List[Finding]:
    """Lint python files under ``paths`` with the selected rules.

    Returns surviving findings (inline ``# lint: ignore[rule]``
    pragmas suppress), sorted by path/line.
    """
    selected = tuple(rules) if rules is not None else ALL_RULES
    files: List[pathlib.Path] = []
    for entry in paths:
        entry = pathlib.Path(entry)
        if entry.is_dir():
            files.extend(sorted(entry.rglob("*.py")))
        else:
            files.append(entry)

    parsed: List[Tuple[str, str, ast.AST]] = []
    source_lines: Dict[str, List[str]] = {}
    findings: List[Finding] = []
    for file_path in files:
        text = file_path.read_text()
        try:
            tree = ast.parse(text)
        except SyntaxError as exc:
            findings.append(Finding(
                "syntax", str(file_path), exc.lineno or 0,
                f"cannot parse: {exc.msg}"))
            continue
        module = _module_name(file_path)
        source_lines[str(file_path)] = text.splitlines()
        parsed.append((module or "", str(file_path), tree))

    for module, path, tree in parsed:
        for rule in selected:
            check = _PER_FILE_RULES.get(rule)
            if check is not None:
                findings.extend(check(module, path, tree))
    if "clause-consistency" in selected:
        findings.extend(_rule_clause_consistency(parsed))

    findings = [f for f in findings
                if not _suppressed(f, source_lines)]
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings
