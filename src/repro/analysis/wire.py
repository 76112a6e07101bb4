"""BF004 — wire-format coverage and codec exception discipline.

The codec's "Complete" property (its own module docstring) is a pairing
invariant: every payload type code that can be *encoded* must be
*decodable* and vice versa, and every code must have a human-readable
name in the type table — otherwise a frame written by one version of
the tree is unreadable garbage to another (checkpoints make this a
persistence problem, not just a wire one).  The same applies to
``MessageKind``: every enum member needs a stable wire code.

Statically checked, on ``comm/codec.py``:

* every module-level ``T_*`` type-code constant appears in at least one
  ``encode``-family function, at least one ``decode``-family function,
  and as a key of the ``_TYPE_NAMES`` table — both directions (a ``T_*``
  used by an encoder/decoder but never defined is a NameError anyway);
* every ``raise`` in the codec uses the codec taxonomy — a subclass of
  ``WireFormatError`` (structural/integrity failures) or
  ``UnsupportedWireType`` (the custody/type refusal branch) — so callers
  can classify failures without string-matching, and the transport can
  tell retryable corruption from protocol bugs.

And on ``comm/message.py``: every ``MessageKind`` member has an entry in
``_WIRE_CODES`` (the reverse table is derived, so one direction
suffices for it), and every ``_WIRE_CODES`` key is a live member.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import (
    Finding,
    ModuleInfo,
    Rule,
    dotted_name,
    register,
)

CODEC_SUBPATH = "comm/codec.py"
MESSAGE_SUBPATH = "comm/message.py"
TYPE_TABLE = "_TYPE_NAMES"
WIRE_CODE_TABLE = "_WIRE_CODES"
KIND_CLASS = "MessageKind"

# Roots of the codec exception taxonomy.  WireFormatError covers the
# structural/integrity branch; UnsupportedWireType is the deliberate
# type-refusal branch (a TypeError, so accidental sends fail loudly at
# the call site).  Subclasses defined in the module are resolved
# statically and inherit permission.
CODEC_EXC_ROOTS = {"WireFormatError", "UnsupportedWireType"}


def _module_assign_names(tree: ast.Module, prefix: str) -> dict[str, int]:
    names: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id.startswith(prefix):
                    names[target.id] = node.lineno
    return names


def _names_in_functions(tree: ast.Module, name_part: str, prefix: str) -> set[str]:
    """``prefix``-named identifiers used inside functions whose name contains
    ``name_part`` (leading underscores ignored)."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if name_part not in node.name.lstrip("_"):
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id.startswith(prefix):
                used.add(sub.id)
    return used


def _dict_key_names(tree: ast.Module, table: str) -> set[str] | None:
    """Last-segment names keying a module-level dict literal."""
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == table for t in node.targets
            )
            and isinstance(node.value, ast.Dict)
        ):
            keys: set[str] = set()
            for key in node.value.keys:
                name = dotted_name(key) if key is not None else None
                if name:
                    keys.add(name.split(".")[-1] if "." in name else name)
            return keys
    return None


def _local_subclasses(tree: ast.Module, roots: set[str]) -> set[str]:
    """Names of classes statically subclassing any root (fixpoint)."""
    allowed = set(roots)
    bases: dict[str, set[str]] = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            bases[node.name] = {
                dotted_name(b).split(".")[-1]
                for b in node.bases
                if dotted_name(b)
            }
    for _ in range(len(bases) + 1):
        grew = False
        for cls, cls_bases in bases.items():
            if cls not in allowed and cls_bases & allowed:
                allowed.add(cls)
                grew = True
        if not grew:
            break
    return allowed


class _WireCoverageRule(Rule):
    code = "BF004"
    name = "wire-coverage"
    rationale = (
        "every encodable payload type / MessageKind must be decodable and "
        "named, and codec raise sites must use the codec exception taxonomy"
    )

    def check(self, module: ModuleInfo) -> list[Finding]:
        if module.subpath == CODEC_SUBPATH:
            return self._check_codec(module)
        if module.subpath == MESSAGE_SUBPATH:
            return self._check_message(module)
        return []

    # -- comm/codec.py -----------------------------------------------------

    def _check_codec(self, module: ModuleInfo) -> list[Finding]:
        findings: list[Finding] = []
        tree = module.tree
        defined = _module_assign_names(tree, "T_")
        encoders = _names_in_functions(tree, "encode", "T_")
        decoders = _names_in_functions(tree, "decode", "T_")
        table = _dict_key_names(tree, TYPE_TABLE)
        for name, lineno in sorted(defined.items(), key=lambda kv: kv[1]):
            site = _LineAnchor(lineno)
            if name not in encoders:
                findings.append(
                    self.finding(
                        module, site, f"payload type code {name} has no encoder"
                    )
                )
            if name not in decoders:
                findings.append(
                    self.finding(
                        module,
                        site,
                        f"payload type code {name} is encoded but has no "
                        f"decoder — frames written with it are unreadable",
                    )
                )
            if table is not None and name not in table:
                findings.append(
                    self.finding(
                        module,
                        site,
                        f"payload type code {name} missing from {TYPE_TABLE}",
                    )
                )
        if table is None:
            findings.append(
                self.finding(
                    module,
                    _LineAnchor(1),
                    f"codec defines no {TYPE_TABLE} dict literal",
                )
            )
        findings.extend(self._check_codec_raises(module))
        return findings

    def _check_codec_raises(self, module: ModuleInfo) -> list[Finding]:
        findings: list[Finding] = []
        allowed = _local_subclasses(module.tree, CODEC_EXC_ROOTS)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            name = dotted_name(exc)
            if name is None:
                continue  # re-raise of a bound exception variable
            last = name.split(".")[-1]
            if last not in allowed:
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"codec raises {last}; only the codec taxonomy "
                        f"(WireFormatError subclasses / UnsupportedWireType) "
                        f"is allowed so callers can classify failures",
                    )
                )
        return findings

    # -- comm/message.py ---------------------------------------------------

    def _check_message(self, module: ModuleInfo) -> list[Finding]:
        findings: list[Finding] = []
        members: dict[str, int] = {}
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef) and node.name == KIND_CLASS:
                for stmt in node.body:
                    if isinstance(stmt, ast.Assign):
                        for target in stmt.targets:
                            if (
                                isinstance(target, ast.Name)
                                and target.id.isupper()
                            ):
                                members[target.id] = stmt.lineno
        table = _dict_key_names(module.tree, WIRE_CODE_TABLE)
        if table is None:
            findings.append(
                self.finding(
                    module,
                    _LineAnchor(1),
                    f"message module defines no {WIRE_CODE_TABLE} dict literal",
                )
            )
            return findings
        for name, lineno in sorted(members.items(), key=lambda kv: kv[1]):
            if name not in table:
                findings.append(
                    self.finding(
                        module,
                        _LineAnchor(lineno),
                        f"MessageKind.{name} has no wire code in "
                        f"{WIRE_CODE_TABLE} — it cannot cross a channel",
                    )
                )
        for name in sorted(table - set(members)):
            findings.append(
                self.finding(
                    module,
                    _LineAnchor(1),
                    f"{WIRE_CODE_TABLE} maps unknown member "
                    f"MessageKind.{name}",
                )
            )
        return findings


class _LineAnchor:
    """Minimal node stand-in so findings can anchor to a known line."""

    def __init__(self, lineno: int):
        self.lineno = lineno
        self.end_lineno = lineno


register(_WireCoverageRule())
