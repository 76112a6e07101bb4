"""Smoke tests: every example script imports cleanly and exposes main().

Most examples are exercised end-to-end manually (they take ~30-60 s each
with real crypto); here we guard against import rot and API drift so a
refactor cannot silently break the documented entry points — every script
is compiled and imported, and the sub-second ``trace_quickstart`` is run.
"""

import ast
import importlib.util
import json
import pathlib

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
)


def test_examples_exist():
    names = {p.stem for p in EXAMPLES}
    assert {
        "quickstart",
        "credit_risk_wdl",
        "recommendation_dlrm",
        "privacy_attacks_demo",
        "multiparty_lr",
        "two_process_sockets",
        "trace_quickstart",
    } <= names


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_parses_and_has_main(path):
    tree = ast.parse(path.read_text())
    func_names = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert "main" in func_names
    # Must be import-safe (no work at module scope beyond imports).
    guarded = any(
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and getattr(node.test.left, "id", "") == "__name__"
        for node in tree.body
    )
    assert guarded, f"{path.name} lacks an __main__ guard"


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_imports_resolve(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # runs imports + defs only (guarded main)
    assert callable(module.main)


def test_trace_quickstart_runs_and_reconciles(capsys, tmp_path):
    """The one example cheap enough to *run* in tier-1 (well under a second):
    its ``traced N B == channel ledger N B`` lines are the ledger-delta
    reconciliation, asserted inside ``main()`` before they are printed, and
    the Chrome timeline it writes loads with one lane per party."""
    path = next(p for p in EXAMPLES if p.stem == "trace_quickstart")
    spec = importlib.util.spec_from_file_location("example_trace_quickstart_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    chrome = tmp_path / "trace.json"
    module.main(str(chrome))
    out = capsys.readouterr().out
    for party in ("A", "B"):
        assert f"party {party}: traced " in out and " B == channel ledger " in out
    assert "total modular exponentiations" in out
    events = json.loads(chrome.read_text())["traceEvents"]
    assert any(e["ph"] == "X" and e["name"] == "batch" for e in events)
    lanes = {e["args"]["name"] for e in events if e["name"] == "thread_name"}
    assert lanes == {"-", "A", "B"}
