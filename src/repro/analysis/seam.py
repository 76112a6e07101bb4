"""BF007 — the arithmetic seam.

Every modular multiplication, exponentiation and inversion of the crypto
substrate goes through a ring of :mod:`repro.crypto.bigint`; that is what
lets one module choose between Python operators and OpenSSL by modulus
size, free every native handle it allocates, and keep the two
implementations bit-identical under test.  The seam only holds while
nothing reaches around it, so two things are findings:

* ``ctypes`` imported anywhere but ``crypto/bigint.py`` — a second
  foreign-function binding is a second place native pointers, ``argtypes``
  and GIL decisions have to be right;
* a 3-argument ``pow`` (or ``pow(..., mod=...)``) inside ``crypto/``
  anywhere but the reference ring, ``PythonRing`` — a residue computed
  there is one the size rule, the native ring and the ring tests never see.

A justified exception takes ``# repro: seam-ok <reason>``.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import Finding, ModuleInfo, Rule, register

SEAM_SUBPATH = "crypto/bigint.py"
REFERENCE_RING = "PythonRing"


def _is_modular_pow(call: ast.Call) -> bool:
    return (
        isinstance(call.func, ast.Name)
        and call.func.id == "pow"
        and (len(call.args) >= 3 or any(kw.arg == "mod" for kw in call.keywords))
    )


class _ArithmeticSeamRule(Rule):
    code = "BF007"
    name = "arithmetic-seam"
    rationale = (
        "residue arithmetic goes through repro.crypto.bigint: ctypes is "
        "imported only there, 3-argument pow in crypto/ lives only in "
        "PythonRing"
    )

    def check(self, module: ModuleInfo) -> list[Finding]:
        findings: list[Finding] = []
        in_seam = module.subpath == SEAM_SUBPATH
        if not in_seam:
            for node in ast.walk(module.tree):
                names = (
                    [alias.name for alias in node.names] if isinstance(node, ast.Import)
                    else [node.module or ""] if isinstance(node, ast.ImportFrom)
                    else []
                )
                if any(name.split(".")[0] == "ctypes" for name in names):
                    findings.append(
                        self.finding(
                            module,
                            node,
                            "ctypes imported outside crypto/bigint.py — bind "
                            "foreign functions behind the ring seam",
                        )
                    )
        if module.package_dir != "crypto":
            return findings
        reference = {
            id(node)
            for cls in module.tree.body
            if in_seam and isinstance(cls, ast.ClassDef) and cls.name == REFERENCE_RING
            for node in ast.walk(cls)
        }
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and _is_modular_pow(node) and id(node) not in reference:
                findings.append(
                    self.finding(
                        module,
                        node,
                        "3-argument pow outside PythonRing — residues go "
                        "through a ring of repro.crypto.bigint",
                    )
                )
        return findings


register(_ArithmeticSeamRule())
