"""BF002 — seeded determinism.

Everything downstream of a protocol RNG assumes seeded reproducibility:
golden transcripts pin exact bytes, fault replay re-runs a chaos schedule
bit-for-bit, checkpoints resume float-exact, and every fabric endpoint
derives the same public keys and batch order from the shared seed, so a
run split across processes lands on the single-process trajectory.  One
call to a global-state or OS-entropy RNG anywhere in that chain silently
breaks all four.  This rule flags, tree-wide:

* global-state RNG calls — ``random.random()``, ``random.shuffle()``,
  ``np.random.rand()``, ``np.random.seed()``, ... (anything drawing from
  or mutating the shared module state instead of an explicit seeded
  ``Generator`` from :mod:`repro.utils.rng`);
* **unseeded** constructors — ``random.Random()`` /
  ``np.random.default_rng()`` with no seed argument;
* OS-entropy sources — ``random.SystemRandom``.

and, inside the protocol core (``crypto/``, ``comm/``, ``core/``):

* wall-clock reads (``time.time()``, ``time.monotonic()``,
  ``time.perf_counter()`` and their ``_ns`` variants) — control flow
  hanging off these diverges across replays, and between the endpoints
  of a federation that must agree on every public draw.  ``time.sleep`` is allowed (it delays, it doesn't decide).

Sites that are *deliberately* nondeterministic — production keygen
entropy, socket deadline bookkeeping, seeded-backoff timers — carry a
``# repro: nondeterministic-ok <reason>`` pragma instead; the engine
reports any pragma that stops matching, so allowances can't go stale.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import (
    Finding,
    ModuleInfo,
    Rule,
    iter_scopes,
    register,
    scope_calls,
)

# Directories (below the repro package root) forming the protocol core,
# where time-dependent control flow is also a determinism hazard.
TIME_SCOPED_DIRS = {"crypto", "comm", "core"}

# numpy.random attributes that are *not* global state: seeded-generator
# and bit-generator constructors, which this repo's utils/rng wraps.
NP_RANDOM_SAFE = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
    "RandomState",  # constructor; flagged separately below when unseeded
}

TIME_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
}


def _has_seed_argument(call: ast.Call) -> bool:
    if call.args:
        return not (
            isinstance(call.args[0], ast.Constant) and call.args[0].value is None
        )
    for kw in call.keywords:
        if kw.arg in (None, "seed", "x"):  # random.Random's positional is 'x'
            return not (
                isinstance(kw.value, ast.Constant) and kw.value.value is None
            )
    return False


class _DeterminismRule(Rule):
    code = "BF002"
    name = "determinism"
    rationale = (
        "global-state / unseeded RNG calls and (in crypto/comm/core) "
        "wall-clock reads break golden transcripts, fault replay and "
        "cross-endpoint agreement; seed through utils/rng or pragma the site"
    )

    def check(self, module: ModuleInfo) -> list[Finding]:
        findings: list[Finding] = []
        time_scoped = module.package_dir in TIME_SCOPED_DIRS
        for qualname, _, body in iter_scopes(module.tree):
            for call, _ in scope_calls(body):
                resolved = module.imports.resolve_call(call)
                if not resolved:
                    continue
                message = self._classify(resolved, call, time_scoped)
                if message is not None:
                    findings.append(
                        self.finding(module, call, f"{message} (in {qualname})")
                    )
        return findings

    @staticmethod
    def _classify(resolved: str, call: ast.Call, time_scoped: bool) -> str | None:
        head, _, tail = resolved.partition(".")
        if head == "random" and tail:
            fn = tail
            if fn == "SystemRandom":
                return (
                    "random.SystemRandom draws OS entropy — nondeterministic "
                    "across runs"
                )
            if fn == "Random":
                if not _has_seed_argument(call):
                    return "unseeded random.Random() — pass an explicit seed"
                return None
            if "." not in fn:
                # Module-level function => the shared global-state generator.
                return (
                    f"global-state RNG call random.{fn}() — use an explicit "
                    f"seeded random.Random / utils.rng generator"
                )
            return None
        if resolved.startswith("numpy.random.") or resolved == "numpy.random":
            fn = resolved.split("numpy.random.", 1)[-1]
            if fn in ("default_rng", "RandomState"):
                if not _has_seed_argument(call):
                    return (
                        f"unseeded np.random.{fn}() — pass an explicit seed "
                        f"(see utils/rng.new_rng)"
                    )
                return None
            if fn in NP_RANDOM_SAFE or "." in fn:
                return None
            return (
                f"global-state RNG call np.random.{fn}() — use an explicit "
                f"seeded Generator from utils/rng"
            )
        if time_scoped and resolved in TIME_CALLS:
            return (
                f"{resolved}()-dependent control flow in the protocol core "
                f"diverges across replays and endpoints"
            )
        return None


register(_DeterminismRule())
