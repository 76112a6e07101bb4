"""Tier-1 gate for the ``repro.analysis`` static invariant checker.

Three layers of coverage:

1. **The gate itself** — ``src/repro`` must produce zero findings.  Any
   new custody leak, unseeded RNG, per-loop tracer consult, codec
   coverage gap, or off-taxonomy transport raise fails ``pytest -x -q``
   with a clickable ``file:line`` message.
2. **Self-test fixtures** — every rule is pinned in *both* directions by
   snippets under ``tests/data/analysis_fixtures/``.  Each fixture's
   first line declares the virtual in-repo path it impersonates and the
   exact rule codes it must (or must not) raise, so a rule that goes
   blind *or* trigger-happy breaks the suite, not just the lint run.  A
   whole-program fixture (BF008) also declares the API manifest
   (``manifest=a,b``; present but empty is an empty manifest) and appends
   the checkout modules that call into it, each after a
   ``# analysis-caller: path=<virtual path>`` line.
3. **CLI semantics** — exit 0 on a clean tree, 1 on findings (with the
   right rule code on a deliberately re-introduced violation), 2 on
   usage errors; JSON output shape; pragma suppression incl. the BF006
   unused/unknown-pragma check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    RULES,
    UNUSED_PRAGMA_CODE,
    analyze_paths,
    analyze_program,
    analyze_source,
)
from repro.analysis.__main__ import main as lint_main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_TREE = REPO_ROOT / "src" / "repro"
FIXTURE_DIR = REPO_ROOT / "tests" / "data" / "analysis_fixtures"

pytestmark = pytest.mark.analysis


# ---------------------------------------------------------------------------
# 1. The gate: the live tree is clean.
# ---------------------------------------------------------------------------


def test_src_tree_has_zero_findings():
    findings, files_scanned = analyze_paths([SRC_TREE])
    assert files_scanned > 50, "analyzer saw suspiciously few files"
    assert findings == [], "\n" + "\n".join(f.format() for f in findings)


def test_cli_exits_zero_on_src_tree(capsys):
    assert lint_main([str(SRC_TREE)]) == 0
    capsys.readouterr()


def test_all_rules_registered():
    assert sorted(RULES) == ["BF001", "BF002", "BF003", "BF004", "BF005", "BF007", "BF008"]


# ---------------------------------------------------------------------------
# 2. Fixtures: each rule pinned in both directions.
# ---------------------------------------------------------------------------


CALLER_MARK = "# analysis-caller: path="


def _load_fixture(path: Path):
    """``(source, virtual path, expected codes, checkout kwargs)``."""
    text, *callers = path.read_text().split(CALLER_MARK)
    header = text.splitlines()[0]
    assert header.startswith("# analysis-fixture:"), (
        f"{path.name} missing '# analysis-fixture:' header"
    )
    fields = dict(
        part.split("=", 1) for part in header.split(":", 1)[1].split()
    )
    expected = sorted(code for code in fields["expect"].split(",") if code)
    checkout = {}
    if "manifest" in fields:
        checkout["manifest"] = [name for name in fields["manifest"].split(",") if name]
        checkout["callers"] = dict(caller.split("\n", 1) for caller in callers)
    return text, fields["path"], expected, checkout


FIXTURES = sorted(FIXTURE_DIR.glob("*.py"))


def test_fixture_corpus_covers_every_rule_both_ways():
    flagged, passed = set(), set()
    for fixture in FIXTURES:
        _, _, expected, _ = _load_fixture(fixture)
        (flagged if expected else passed).update(
            expected or {fixture.stem.split("_")[0].upper()}
        )
    for code in RULES:
        assert code in flagged, f"no must-flag fixture for {code}"
        assert code in passed, f"no must-pass fixture for {code}"


@pytest.mark.parametrize(
    "fixture", FIXTURES, ids=lambda p: p.stem
)
def test_fixture(fixture):
    text, virtual_path, expected, checkout = _load_fixture(fixture)
    findings = (
        analyze_program({virtual_path: text}, **checkout) if checkout
        else analyze_source(text, path=virtual_path)
    )
    got = sorted(f.rule_code for f in findings)
    detail = "\n".join(f.format() for f in findings)
    assert got == expected, (
        f"{fixture.name} impersonating {virtual_path}: "
        f"expected {expected}, got {got}\n{detail}"
    )


# ---------------------------------------------------------------------------
# 3. CLI semantics: both acceptance directions, JSON, exit codes, pragmas.
# ---------------------------------------------------------------------------


def _copy_tree_with(tmp_path, rel_path, mutate):
    """Copy src/repro to tmp and rewrite one file through ``mutate``."""
    import shutil

    tree = tmp_path / "repro"
    shutil.copytree(SRC_TREE, tree)
    target = tree / rel_path
    target.write_text(mutate(target.read_text()))
    return tree


def _run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", *map(str, args)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        cwd=REPO_ROOT,
    )
    return proc


def test_reintroduced_custody_leak_fails_with_bf001(tmp_path):
    tree = _copy_tree_with(
        tmp_path,
        Path("crypto") / "paillier.py",
        lambda src: src
        + (
            "\n\ndef _leak(channel, private_key):\n"
            "    channel.send('a', 'b', 'leak', None, private_key.p)\n"
        ),
    )
    proc = _run_cli("--json", tree)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    report = json.loads(proc.stdout)
    codes = {f["rule_code"] for f in report["findings"]}
    assert codes == {"BF001"}


def test_reintroduced_unseeded_random_fails_with_bf002(tmp_path):
    tree = _copy_tree_with(
        tmp_path,
        Path("crypto") / "paillier.py",
        lambda src: src
        + (
            "\n\ndef _jitter():\n"
            "    import random\n"
            "    return random.random()\n"
        ),
    )
    proc = _run_cli("--json", tree)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    report = json.loads(proc.stdout)
    codes = {f["rule_code"] for f in report["findings"]}
    assert codes == {"BF002"}


def test_reintroduced_dead_helper_fails_with_bf008(tmp_path):
    """Positive control for the whole-program pass: a checkout copy whose
    math_utils regains ``lcm`` (a helper only tests ever called) reports
    exactly that one name."""
    import shutil

    for part in ("src", "benchmarks", "examples"):
        shutil.copytree(REPO_ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "tests").mkdir()
    shutil.copy(REPO_ROOT / "tests" / "test_public_api.py", tmp_path / "tests")
    target = tmp_path / "src" / "repro" / "crypto" / "math_utils.py"
    target.write_text(
        target.read_text() + "\n\ndef lcm(a: int, b: int) -> int:\n    return a * b\n"
    )
    proc = _run_cli("--json", tmp_path / "src" / "repro")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    findings = json.loads(proc.stdout)["findings"]
    assert [(f["rule_code"], Path(f["file"]).name) for f in findings] == [
        ("BF008", "math_utils.py")
    ]
    assert "'lcm'" in findings[0]["message"]


def test_cli_json_shape_and_summary(tmp_path):
    tree = _copy_tree_with(
        tmp_path,
        Path("crypto") / "paillier.py",
        lambda src: src + "\n\nimport random\n_X = random.random()\n",
    )
    proc = _run_cli("--json", tree)
    report = json.loads(proc.stdout)
    assert set(report) == {"files_scanned", "findings", "rules"}
    assert report["files_scanned"] > 0
    assert "BF002" in report["rules"]
    finding = report["findings"][0]
    assert set(finding) == {"file", "line", "rule_code", "severity", "message"}
    assert finding["line"] > 0


def test_cli_text_output_is_clickable(tmp_path):
    snippet = tmp_path / "repro" / "crypto" / "bad.py"
    snippet.parent.mkdir(parents=True)
    snippet.write_text("import random\nx = random.random()\n")
    proc = _run_cli(snippet.parent.parent)
    assert proc.returncode == 1
    line = proc.stdout.strip().splitlines()[0]
    # file:line: CODE [severity] message — clickable in editors/terminals
    assert f"{snippet}:2: BF002 [error]" in line


def test_cli_usage_errors_exit_two(tmp_path):
    assert _run_cli("--rules", "BF999", SRC_TREE).returncode == 2
    assert _run_cli(tmp_path / "does-not-exist").returncode == 2


def test_cli_rule_filter(tmp_path):
    snippet = tmp_path / "repro" / "crypto" / "bad.py"
    snippet.parent.mkdir(parents=True)
    snippet.write_text("import random\nx = random.random()\n")
    # Filtering to an unrelated rule silences the BF002 finding.
    proc = _run_cli("--rules", "BF005", snippet.parent.parent)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_pragma_suppresses_and_unused_pragma_reports_bf006():
    suppressed = (
        "import random\n"
        "# repro: nondeterministic-ok fixture jitter\n"
        "x = random.random()\n"
    )
    findings = analyze_source(suppressed, path="src/repro/crypto/demo.py")
    assert findings == []

    unused = (
        "# repro: nondeterministic-ok nothing nondeterministic here\n"
        "x = 1\n"
    )
    findings = analyze_source(unused, path="src/repro/crypto/demo.py")
    assert [f.rule_code for f in findings] == [UNUSED_PRAGMA_CODE]
    assert findings[0].severity == "warning"

    unknown = "# repro: totally-made-up-tag because reasons\nx = 1\n"
    findings = analyze_source(unknown, path="src/repro/crypto/demo.py")
    assert [f.rule_code for f in findings] == [UNUSED_PRAGMA_CODE]
    assert findings[0].severity == "error"


def test_syntax_error_reports_bf000():
    findings = analyze_source("def broken(:\n", path="src/repro/crypto/x.py")
    assert [f.rule_code for f in findings] == ["BF000"]
