"""Rule engine for the BlindFL static invariant checker.

The repo's trust story rests on invariants that are cheap to state and
easy to erode one refactor at a time: private keys never reach a wire or
a pickle, every protocol module is seeded-deterministic, disabled
telemetry costs one global read per kernel call, the wire codec encodes
exactly what it decodes, and transport errors pick a side of the
retryable/fatal split.  This module provides the machinery the rules in
this package share:

* a **module walker** (:func:`analyze_paths`)
  that parses each file once into a :class:`ModuleInfo` and hands it to
  every registered rule, then hands the whole :class:`Program` — every
  scanned module, the checkout code that may call into them, and the API
  manifest — to each rule's one whole-program hook;
* **scope and alias resolution**: :class:`_ImportMap` resolves dotted
  call targets through ``import``/``from-import`` aliases (``np.random.
  rand`` -> ``numpy.random.rand``), :func:`iter_scopes` yields each
  function body exactly once (nested defs are their own scope), and
  :func:`tainted_names` does forward assignment-alias propagation for
  the custody taint rule;
* the **per-rule visitor registry** (:class:`Rule`, :data:`RULES`,
  :func:`register`) — a rule is one object with a ``code``, a one-line
  ``rationale`` and a ``check(module) -> list[Finding]``;
* :class:`Finding` — ``(file, line, rule_code, severity, message)``,
  formatted as clickable ``file:line`` text;
* **pragma suppressions**: ``# repro: <tag>`` comments suppress one
  rule's findings on the statement they annotate (same line, or a
  standalone comment directly above), and a pragma that suppresses
  nothing is itself reported (:data:`UNUSED_PRAGMA_CODE`) so stale
  allowances cannot accumulate.

Rules key their file scoping off :attr:`ModuleInfo.subpath`, the path
relative to the ``repro`` package root (``crypto/paillier.py``), so the
checker works from any checkout layout and fixtures can impersonate any
module by the path they are analyzed under.
"""

from __future__ import annotations

import ast
import io
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "PRAGMA_PREFIX",
    "PRAGMA_TAGS",
    "PARSE_ERROR_CODE",
    "UNUSED_PRAGMA_CODE",
    "Finding",
    "ModuleInfo",
    "Program",
    "Rule",
    "RULES",
    "register",
    "dotted_name",
    "iter_scopes",
    "scope_calls",
    "tainted_names",
    "analyze_paths",
]

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

PARSE_ERROR_CODE = "BF000"
UNUSED_PRAGMA_CODE = "BF006"

# Pragma tags -> the rule they suppress.  One tag per rule keeps every
# suppression self-describing at the site (`# repro: nondeterministic-ok
# <reason>`); the reason text is free-form but strongly encouraged.
PRAGMA_PREFIX = "repro:"
PRAGMA_TAGS = {
    "custody-ok": "BF001",
    "nondeterministic-ok": "BF002",
    "telemetry-ok": "BF003",
    "wire-ok": "BF004",
    "transport-ok": "BF005",
    "seam-ok": "BF007",
    "api-ok": "BF008",
}


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a clickable ``file:line``."""

    file: str
    line: int
    rule_code: str
    severity: str
    message: str
    end_line: int = 0  # statement extent, used only for pragma matching

    def format(self) -> str:
        return f"{self.file}:{self.line}: {self.rule_code} [{self.severity}] {self.message}"

    def to_dict(self) -> dict:
        return {
            "file": self.file,
            "line": self.line,
            "rule_code": self.rule_code,
            "severity": self.severity,
            "message": self.message,
        }


@dataclass
class _Pragma:
    """One ``# repro: <tag>`` suppression comment."""

    comment_line: int  # where the comment physically sits
    target_line: int  # the code line it suppresses
    tag: str
    rule_code: str | None  # None for an unknown tag
    reason: str
    used: bool = False


def _parse_pragmas(source: str) -> list[_Pragma]:
    """Extract pragmas with tokenize so strings containing '# repro:' don't count."""
    comments: list[tuple[int, str]] = []
    code_lines: set[int] = set()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type == tokenize.COMMENT:
                comments.append((tok.start[0], tok.string))
            elif tok.type not in (
                tokenize.NL,
                tokenize.NEWLINE,
                tokenize.INDENT,
                tokenize.DEDENT,
                tokenize.ENDMARKER,
                tokenize.ENCODING,
            ):
                for line in range(tok.start[0], tok.end[0] + 1):
                    code_lines.add(line)
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return []
    pragmas: list[_Pragma] = []
    for line, text in comments:
        body = text.lstrip("#").strip()
        if not body.startswith(PRAGMA_PREFIX):
            continue
        rest = body[len(PRAGMA_PREFIX) :].strip()
        tag, _, reason = rest.partition(" ")
        if line in code_lines:
            target = line
        else:
            later = [c for c in code_lines if c > line]
            target = min(later) if later else line
        pragmas.append(
            _Pragma(
                comment_line=line,
                target_line=target,
                tag=tag,
                rule_code=PRAGMA_TAGS.get(tag),
                reason=reason.strip(),
            )
        )
    return pragmas


# ---------------------------------------------------------------------------
# Scope and alias resolution.


class _ImportMap:
    """Resolves local names through the module's import aliases.

    ``import numpy as np`` maps ``np -> numpy``; ``from repro.obs import
    tracer as _obs`` maps ``_obs -> repro.obs.tracer``; ``from pickle
    import dumps`` maps ``dumps -> pickle.dumps``.  :meth:`resolve`
    rewrites a dotted expression's first segment through the map, so a
    rule can match call targets by canonical module path no matter how
    the file spelled its imports.
    """

    def __init__(self, tree: ast.AST):
        self._alias: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self._alias[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self._alias[local] = f"{node.module}.{alias.name}"

    def resolve(self, dotted: str | None) -> str | None:
        if not dotted:
            return None
        head, _, tail = dotted.partition(".")
        head = self._alias.get(head, head)
        return f"{head}.{tail}" if tail else head

    def resolve_call(self, call: ast.Call) -> str | None:
        """Canonical dotted target of a call, or None for computed targets."""
        return self.resolve(dotted_name(call.func))


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a pure Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def iter_scopes(tree: ast.Module) -> Iterator[tuple[str, ast.AST, list[ast.stmt]]]:
    """Yield ``(qualname, node, body)`` for the module and every function.

    Each function body is yielded exactly once under its own qualname;
    statements inside nested defs belong to the nested scope only.
    """
    yield "<module>", tree, tree.body
    stack: list[tuple[str, ast.AST]] = [("", tree)]
    while stack:
        prefix, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNCTION_NODES):
                qual = f"{prefix}{child.name}"
                yield qual, child, child.body
                stack.append((f"{qual}.", child))
            elif isinstance(child, ast.ClassDef):
                stack.append((f"{prefix}{child.name}.", child))
            elif not isinstance(child, ast.Lambda):
                stack.append((prefix, child))


def scope_calls(body: list[ast.stmt]) -> Iterator[tuple[ast.Call, bool]]:
    """Yield ``(call, in_loop)`` for calls belonging to this scope.

    Does not descend into nested function/class definitions (those are
    separate scopes); ``in_loop`` is True inside for/while bodies and
    comprehensions, which rules like BF003 treat as per-element sites.
    """
    work: list[tuple[ast.AST, bool]] = [(stmt, False) for stmt in body]
    while work:
        node, in_loop = work.pop()
        if isinstance(node, (*_FUNCTION_NODES, ast.ClassDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            yield node, in_loop
        child_in_loop = in_loop or isinstance(
            node,
            (ast.For, ast.AsyncFor, ast.While, ast.comprehension),
        ) or isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp))
        for child in ast.iter_child_nodes(node):
            work.append((child, child_in_loop))


def _target_names(target: ast.AST) -> Iterator[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, ast.Starred):
        yield from _target_names(target.value)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _target_names(elt)


def tainted_names(
    scope_node: ast.AST,
    body: list[ast.stmt],
    is_source,
    seed: Iterable[str] = (),
) -> set[str]:
    """Forward alias propagation: names assigned from tainted expressions.

    ``is_source(expr, tainted) -> bool`` decides whether an expression is
    tainted given the current alias set.  Runs the assignment sweep to a
    fixpoint (bounded) so chained aliases like ``a = src; b = a`` resolve
    regardless of statement interleaving.  Parameters are pre-seeded by
    the caller via ``seed``.
    """
    tainted = set(seed)
    for _ in range(4):  # chains deeper than this don't occur in practice
        before = len(tainted)
        for node in ast.walk(scope_node):
            if isinstance(node, _FUNCTION_NODES) and node is not scope_node:
                continue
            value = None
            targets: list[ast.AST] = []
            if isinstance(node, ast.Assign):
                value, targets = node.value, node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value, targets = node.value, [node.target]
            elif isinstance(node, ast.AugAssign):
                value, targets = node.value, [node.target]
            elif isinstance(node, ast.NamedExpr):
                value, targets = node.value, [node.target]
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                value, targets = node.iter, [node.target]
            elif isinstance(node, ast.withitem) and node.optional_vars is not None:
                value, targets = node.context_expr, [node.optional_vars]
            if value is not None and is_source(value, tainted):
                for target in targets:
                    tainted.update(_target_names(target))
        if len(tainted) == before:
            break
    return tainted


# ---------------------------------------------------------------------------
# Rule registry.


class Rule:
    """Base class: one invariant, one code, a ``check`` pass per module
    and a ``check_program`` pass over the whole scan."""

    code: str = "BF???"
    name: str = "unnamed"
    rationale: str = ""

    def check(self, module: "ModuleInfo") -> list[Finding]:
        return []

    def check_program(self, program: "Program") -> list[Finding] | None:
        """Findings over the whole scan; ``None`` when the scan gives the
        rule nothing to judge (its pragmas then go unchecked too)."""
        return []

    def finding(
        self,
        module: "ModuleInfo",
        node: ast.AST,
        message: str,
        severity: str = SEVERITY_ERROR,
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        return Finding(
            file=module.path,
            line=line,
            rule_code=self.code,
            severity=severity,
            message=message,
            end_line=getattr(node, "end_lineno", line) or line,
        )


RULES: dict[str, Rule] = {}


def register(rule: Rule) -> Rule:
    if rule.code in RULES:
        raise ValueError(f"duplicate rule code {rule.code}")
    RULES[rule.code] = rule
    return rule


# ---------------------------------------------------------------------------
# Module loading and the analysis driver.


@dataclass
class ModuleInfo:
    """One parsed module plus everything rules need to scope themselves."""

    path: str  # display path (clickable, as given by the caller)
    subpath: str  # '/'-joined path below the repro package root
    tree: ast.Module = field(repr=False, default=None)
    source: str = field(repr=False, default="")
    imports: _ImportMap = field(repr=False, default=None)
    pragmas: list[_Pragma] = field(default_factory=list)

    @property
    def package_dir(self) -> str:
        """First path component below the package root ('crypto', 'comm', ...)."""
        return self.subpath.split("/", 1)[0] if "/" in self.subpath else ""


def _subpath_for(path: str) -> str:
    """Path below the last ``repro`` component, '/'-joined ('' if absent)."""
    parts = Path(path).as_posix().split("/")
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i + 1 :])
    return parts[-1]


@dataclass
class Program:
    """Every scanned module at once, for rules that judge across modules.

    ``callers`` are the checkout's other modules (``src/``, ``benchmarks/``,
    ``examples/``): read for references, never checked themselves.
    ``manifest`` is the declared public API; ``None`` when the scan has no
    checkout around it, and a rule that needs one then stays silent.
    """

    modules: list[ModuleInfo]
    callers: list[ModuleInfo]
    manifest: frozenset[str] | None


def _active_rules(rules: Iterable[Rule] | None) -> list[Rule]:
    if rules is None:
        # Import for side effect: rule modules register themselves.
        from repro import analysis as _pkg  # noqa: F401

        return [RULES[code] for code in sorted(RULES)]
    return list(rules)


def _apply_pragmas(
    module: ModuleInfo, findings: list[Finding], active_codes: set[str]
) -> list[Finding]:
    """Drop suppressed findings; report unknown and unused pragmas."""
    kept: list[Finding] = []
    for finding in findings:
        suppressed = False
        for pragma in module.pragmas:
            if pragma.rule_code != finding.rule_code:
                continue
            if finding.line <= pragma.target_line <= (finding.end_line or finding.line):
                pragma.used = True
                suppressed = True
        if not suppressed:
            kept.append(finding)
    for pragma in module.pragmas:
        if pragma.rule_code is None:
            known = ", ".join(sorted(PRAGMA_TAGS))
            kept.append(
                Finding(
                    file=module.path,
                    line=pragma.comment_line,
                    rule_code=UNUSED_PRAGMA_CODE,
                    severity=SEVERITY_ERROR,
                    message=f"unknown pragma tag {pragma.tag!r} (known: {known})",
                )
            )
        elif not pragma.used and pragma.rule_code in active_codes:
            kept.append(
                Finding(
                    file=module.path,
                    line=pragma.comment_line,
                    rule_code=UNUSED_PRAGMA_CODE,
                    severity=SEVERITY_WARNING,
                    message=(
                        f"pragma 'repro: {pragma.tag}' suppresses nothing on "
                        f"line {pragma.target_line} — remove it or fix the site"
                    ),
                )
            )
    return kept


def _parse(source: str, path: str) -> ModuleInfo | Finding:
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return Finding(
            file=path,
            line=exc.lineno or 1,
            rule_code=PARSE_ERROR_CODE,
            severity=SEVERITY_ERROR,
            message=f"file does not parse: {exc.msg}",
        )
    return ModuleInfo(
        path=path,
        subpath=_subpath_for(path),
        tree=tree,
        source=source,
        imports=_ImportMap(tree),
        pragmas=_parse_pragmas(source),
    )


def _analyze(
    sources: Iterable[tuple[str, str]],
    rules: Iterable[Rule] | None,
    callers: Iterable[tuple[str, str]] = (),
    manifest: Iterable[str] | None = None,
) -> list[Finding]:
    """Per-module passes, then the whole-program pass, then pragmas."""
    active = _active_rules(rules)
    findings: list[Finding] = []
    modules: list[ModuleInfo] = []
    for path, source in sources:
        parsed = _parse(source, path)
        if isinstance(parsed, Finding):
            findings.append(parsed)
        else:
            modules.append(parsed)
    raw = {module.path: [f for rule in active for f in rule.check(module)] for module in modules}
    program = Program(
        modules=modules,
        callers=[m for m in (_parse(src, path) for path, src in callers) if isinstance(m, ModuleInfo)],
        manifest=None if manifest is None else frozenset(manifest),
    )
    codes = {rule.code for rule in active}
    for rule in active:
        found = rule.check_program(program)
        if found is None:
            codes.discard(rule.code)
        for finding in found or ():
            raw[finding.file].append(finding)
    for module in modules:
        findings.extend(_apply_pragmas(module, raw[module.path], codes))
    return sorted(findings, key=lambda f: (f.file, f.line, f.rule_code))


def _iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(p for p in path.rglob("*.py") if p.is_file())
        elif path.suffix == ".py":
            yield path
        else:
            raise FileNotFoundError(f"not a Python file or directory: {path}")


# Where a checkout keeps the code that may call into ``src/repro``, and the
# one API manifest (its ``SURFACES`` table).
_CALLER_DIRS = ("src", "benchmarks", "examples")
_MANIFEST_FILE = Path("tests") / "test_public_api.py"
_MANIFEST_NAME = "SURFACES"


def _checkout_of(files: list[Path]) -> Path | None:
    """The checkout a scan of ``src/repro`` sits in, if it has a manifest."""
    for file in files:
        parts = file.resolve().parts
        for i in range(len(parts) - 1, 0, -1):
            if parts[i] == "repro" and parts[i - 1] == "src":
                root = Path(*parts[: i - 1])
                return root if (root / _MANIFEST_FILE).is_file() else None
    return None


def _manifest_names(path: Path) -> frozenset[str]:
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == _MANIFEST_NAME for t in node.targets
        ):
            surfaces = ast.literal_eval(node.value)
            return frozenset(name for names in surfaces.values() for name in names)
    raise ValueError(f"{path} defines no {_MANIFEST_NAME} table")


def analyze_paths(
    paths: Iterable[str | Path],
    rules: Iterable[Rule] | None = None,
) -> tuple[list[Finding], int]:
    """Analyze every ``.py`` file under ``paths``.

    When the files sit in a checkout's ``src/repro``, the whole-program
    pass also reads that checkout's other modules and its API manifest.
    Returns ``(findings, files_scanned)``; findings are sorted by
    ``(file, line, rule_code)`` for stable, diffable output.
    """
    files = list(_iter_python_files(paths))
    root = _checkout_of(files)
    callers: list[tuple[str, str]] = []
    manifest = None
    if root is not None:
        scanned = {file.resolve() for file in files}
        callers = [
            (str(file), file.read_text(encoding="utf-8"))
            for file in _iter_python_files(
                root / d for d in _CALLER_DIRS if (root / d).is_dir()
            )
            if file.resolve() not in scanned
        ]
        manifest = _manifest_names(root / _MANIFEST_FILE)
    sources = [(str(file), file.read_text(encoding="utf-8")) for file in files]
    return _analyze(sources, rules, callers, manifest), len(files)
