"""BF001 — private-key custody taint.

The custody boundary: the Paillier primes ``(p, q)`` may exist only in the
key-owning party's OS process.  The runtime already enforces this
at two choke points — ``PaillierPrivateKey.__reduce__`` raises and the
wire codec refuses private-key carriers — but both are *dynamic*: a new
call site that ships key material over a channel, into a pickle, into a
checkpoint frame, or as a worker-pool argument only fails when that code
path actually runs.  This rule makes the invariant static: any dataflow
from private-key material into one of those sinks is flagged at analysis
time.

**Taint sources** (with forward alias propagation per scope):

* ``<x>.psquare`` / ``qsquare`` / ``p_inverse`` / ``hp`` / ``hq`` — the
  private key's CRT constants, each derived from the primes (``p`` and
  ``q`` themselves are too generic to match by name; they stay covered
  through the key object that holds them);
* ``<x>.private_key`` / ``<x>._private_key`` attribute reads;
* ``PaillierPrivateKey(...)`` constructor results;
* parameters named/annotated as private keys.

Referencing the *class* (e.g. in an ``isinstance`` refusal check) is not
a source — only values that can expose the primes are.

**Sinks**: ``*.send(...)`` (every channel tier), the codec's
``encode_*`` family (wire frames and checkpoint frames), ``pickle`` /
``copyreg``, checkpoint writers, and ``multiprocessing`` constructors or
pool-submission methods (``Pool``/``Process`` args and ``initargs``,
``apply``/``map``/``starmap``/... arguments).

**No allowlist**: every decryption runs in the key owner's process, so no
flow of key material into a sink is sanctioned — not even a worker pool's
``initargs`` to the owner's own children.  An exception would need a
``# repro: custody-ok <reason>`` pragma, which this rule's tier-1 gate
keeps at zero in the live tree.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import (
    Finding,
    ModuleInfo,
    Rule,
    dotted_name,
    iter_scopes,
    register,
    scope_calls,
    tainted_names,
)

PRIVATE_CLASS = "PaillierPrivateKey"
SOURCE_ATTRS = {"psquare", "qsquare", "p_inverse", "hp", "hq"}
PRIVATE_NAME_HINTS = {"private_key", "_private_key", "priv_key"}

ENCODE_SINKS = {
    "encode_payload",
    "encode_message",
    "encode_payload_frame",
    "encode_hello",
}
PICKLE_MODULES = ("pickle.", "cPickle.", "copyreg.", "dill.", "cloudpickle.")
CHECKPOINT_SINKS = {"save_checkpoint", "write_checkpoint"}
MP_CONSTRUCTORS = {"Pool", "Process"}
MP_SUBMITS = {
    "apply",
    "apply_async",
    "map",
    "map_async",
    "starmap",
    "starmap_async",
    "imap",
    "imap_unordered",
    "submit",
}

# Blessed sinks, (module subpath, enclosing function, keyword): none.
ALLOWED_SINKS: set[tuple[str, str, str]] = set()


def _is_private_ctor(call: ast.Call) -> bool:
    name = dotted_name(call.func)
    return bool(name) and name.split(".")[-1] == PRIVATE_CLASS


def _expr_tainted(expr: ast.AST, tainted: set[str]) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, ast.Attribute) and (
            node.attr in SOURCE_ATTRS or node.attr in PRIVATE_NAME_HINTS
        ):
            return True
        if isinstance(node, ast.Name) and node.id in tainted:
            return True
        if isinstance(node, ast.Call) and _is_private_ctor(node):
            return True
    return False


def _param_seed(scope_node: ast.AST) -> set[str]:
    """Parameters that carry private-key material by name or annotation."""
    seed: set[str] = set()
    args = getattr(scope_node, "args", None)
    if args is None:
        return seed
    all_args = [
        *args.posonlyargs,
        *args.args,
        *args.kwonlyargs,
        *([args.vararg] if args.vararg else []),
        *([args.kwarg] if args.kwarg else []),
    ]
    for arg in all_args:
        if arg.arg in PRIVATE_NAME_HINTS:
            seed.add(arg.arg)
        elif arg.annotation is not None and PRIVATE_CLASS in ast.dump(arg.annotation):
            seed.add(arg.arg)
    return seed


def _sink_kind(call: ast.Call, module: ModuleInfo) -> str | None:
    """Classify a call as a custody sink, or None."""
    func = call.func
    attr = func.attr if isinstance(func, ast.Attribute) else None
    resolved = module.imports.resolve_call(call) or ""
    last = resolved.split(".")[-1] if resolved else (attr or "")
    if attr == "send":
        return "Channel.send"
    if last in ENCODE_SINKS or (
        last.lstrip("_").startswith("encode") and ".codec." in f".{resolved}."
    ):
        return f"codec.{last}"
    if resolved.startswith(PICKLE_MODULES) or resolved in ("pickle", "copyreg"):
        return resolved
    if last in CHECKPOINT_SINKS:
        return f"checkpoint writer {last}"
    if last in MP_CONSTRUCTORS or (attr in MP_CONSTRUCTORS):
        return f"multiprocessing {last or attr}"
    if attr in MP_SUBMITS:
        return f"worker-pool {attr}()"
    return None


class _CustodyTaintRule(Rule):
    code = "BF001"
    name = "custody-taint"
    rationale = (
        "private-key material (PaillierPrivateKey, (p, q), its CRT "
        "constants) must never flow into a Channel, the wire codec, a "
        "pickle, a checkpoint, or worker-pool arguments"
    )

    def check(self, module: ModuleInfo) -> list[Finding]:
        findings: list[Finding] = []
        for qualname, scope_node, body in iter_scopes(module.tree):
            seed = _param_seed(scope_node)
            tainted = tainted_names(scope_node, body, _expr_tainted, seed)
            scope_name = qualname.split(".")[-1]
            for call, _ in scope_calls(body):
                kind = _sink_kind(call, module)
                if kind is None:
                    continue
                for arg_expr, keyword in self._sink_args(call, kind):
                    if not _expr_tainted(arg_expr, tainted):
                        continue
                    if (module.subpath, scope_name, keyword) in ALLOWED_SINKS:
                        continue
                    findings.append(
                        self.finding(
                            module,
                            call,
                            f"private-key material flows into {kind} "
                            f"(in {qualname}); (p, q) must never leave the "
                            f"key owner's process",
                        )
                    )
                    break  # one finding per sink call
        return findings

    @staticmethod
    def _sink_args(call: ast.Call, kind: str):
        """Candidate argument expressions for a sink, with keyword names."""
        if kind.startswith("multiprocessing"):
            # Constructors: taint can ride positionally or via initargs/args.
            for arg in call.args:
                yield arg, ""
            for kw in call.keywords:
                if kw.arg in (None, "initargs", "args", "kwargs", "initializer", "target"):
                    yield kw.value, kw.arg or ""
            return
        for arg in call.args:
            yield arg, ""
        for kw in call.keywords:
            yield kw.value, kw.arg or ""


register(_CustodyTaintRule())
