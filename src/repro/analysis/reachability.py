"""BF008 — every public name has a caller.

A public top-level function or class in ``src/repro`` is surface someone
has to keep working, so it has to earn its place.  It passes when one of
these holds:

* another module of the checkout (``src/``, ``benchmarks/``,
  ``examples/``) imports it, reads it as an attribute, or names it in a
  string (``"pkg.mod.Name.method"``, as a span table does).  A package
  ``__init__`` re-export is not a caller, and neither is ``tests/``;
* it is listed in the API manifest, ``SURFACES`` in
  ``tests/test_public_api.py``;
* it carries ``# repro: api-ok <reason>``.

The same holds for the defaulted parameters of public functions and of
public classes' ``__init__``: a default that no call outside ``tests/``
overrides (by keyword, by position, or through ``*args`` / ``**kw``) is a
setting with no user, and goes the same way.  A call counts by the name it
calls, so a subclass's ``super().__init__(...)`` and a classmethod's
``cls(...)`` call the class.

References are matched by name, so a name shared with an unrelated
attribute reads as used: the rule can miss dead surface, never flag live
surface.  The rule judges only a scan that sits in a checkout with a
manifest (:class:`~repro.analysis.engine.Program`); a bare copy of the
package gets no BF008 findings, and its ``api-ok`` pragmas go unchecked.
"""

from __future__ import annotations

import ast
import re
from pathlib import PurePath

from repro.analysis.engine import Finding, ModuleInfo, Program, Rule, register

_DOTTED = re.compile(r"\*?[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _in_package(module: ModuleInfo) -> bool:
    return "repro" in PurePath(module.path).parts[:-1]


def _is_init(module: ModuleInfo) -> bool:
    return PurePath(module.path).name == "__init__.py"


def _references(module: ModuleInfo) -> set[str]:
    """Names a module imports and uses, reads as attributes, or spells in
    strings.  An import the module never uses calls nothing."""
    names = {node.id for node in ast.walk(module.tree) if isinstance(node, ast.Name)}
    refs: set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.alias):
            if (node.asname or node.name) in names:
                refs.add(node.name)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _DOTTED.fullmatch(node.value):
                refs.update(node.value.lstrip("*").split("."))
    return refs


def _name_of(node: ast.AST) -> str | None:
    """``f`` of ``f`` or ``x.f``."""
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _calls(module: ModuleInfo):
    """Yield ``(name, call)`` for every call in a module, by the name it
    calls: ``f(...)`` and ``x.f(...)``; inside a class, ``cls(...)`` calls
    the class and ``super().__init__(...)`` each of its bases."""
    work: list[tuple[ast.AST, ast.ClassDef | None]] = [(module.tree, None)]
    while work:
        node, owner = work.pop()
        if isinstance(node, ast.Call):
            names = [_name_of(node.func)]
            if owner is not None and names == ["cls"]:
                names = [owner.name]
            elif owner is not None and names == ["__init__"] and (
                _name_of(getattr(getattr(node.func, "value", None), "func", None)) == "super"
            ):
                names = [_name_of(base) for base in owner.bases]
            yield from ((name, node) for name in names if name)
        inner = node if isinstance(node, ast.ClassDef) else owner
        work.extend((child, inner) for child in ast.iter_child_nodes(node))


def _defaulted(fn: ast.FunctionDef | ast.AsyncFunctionDef, skip_self: bool):
    """Yield ``(arg, positional index or None)`` for each defaulted parameter."""
    positional = [*fn.args.posonlyargs, *fn.args.args][1 if skip_self else 0 :]
    for index in range(len(positional) - len(fn.args.defaults), len(positional)):
        if index >= 0:
            yield positional[index], index
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg, None


def _passes(call: ast.Call, arg: ast.arg, index: int | None) -> bool:
    if any(kw.arg is None or kw.arg == arg.arg for kw in call.keywords):
        return True
    if index is None:
        return False
    return len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)


class _ReachabilityRule(Rule):
    code = "BF008"
    name = "reachability"
    rationale = (
        "a public def/class in src/repro has a caller outside tests/, is in "
        "the SURFACES manifest, or says api-ok; so does each defaulted parameter"
    )

    def _at(self, module: ModuleInfo, node: ast.AST, message: str) -> Finding:
        # Anchor on the signature, not the whole body, so a pragma inside
        # the function cannot suppress a finding on its name.
        first = min([d.lineno for d in getattr(node, "decorator_list", [])] + [node.lineno])
        return Finding(module.path, first, self.code, "error", message, end_line=node.lineno)

    def check_program(self, program: Program) -> list[Finding] | None:
        if program.manifest is None:
            return None
        everyone = [*program.modules, *program.callers]
        refs = {m.path: _references(m) for m in everyone if not _is_init(m)}
        calls: dict[str, list[ast.Call]] = {}
        for module in everyone:
            for name, call in _calls(module):
                calls.setdefault(name, []).append(call)
        findings: list[Finding] = []
        for module in program.modules:
            if not _in_package(module):
                continue
            for node in module.tree.body:
                if not isinstance(node, _DEFS) or node.name.startswith("_"):
                    continue
                used = node.name in program.manifest or any(
                    node.name in names for path, names in refs.items() if path != module.path
                )
                if not used:
                    kind = "class" if isinstance(node, ast.ClassDef) else "function"
                    findings.append(self._at(module, node, (
                        f"public {kind} {node.name!r} has no caller outside tests/ — "
                        "delete it, make it private, list it in SURFACES, or mark "
                        "it '# repro: api-ok <reason>'"
                    )))
                    continue
                # A caller sets a def's defaults, or a class's __init__'s.
                is_class = isinstance(node, ast.ClassDef)
                fn = next((item for item in node.body if isinstance(item, ast.FunctionDef)
                           and item.name == "__init__"), None) if is_class else node
                sites = calls.get(node.name, [])
                for arg, index in _defaulted(fn, is_class) if fn else ():
                    if not any(_passes(call, arg, index) for call in sites):
                        findings.append(self._at(module, arg, (
                            f"parameter {arg.arg!r} of {node.name}() is set by no "
                            "call outside tests/ — fold its default into the body, "
                            "or mark it '# repro: api-ok <reason>'"
                        )))
        return findings


register(_ReachabilityRule())
