"""Tier-1 checks of the end-to-end benchmark (collected by ``pytest -x -q``).

Two ``--quick`` sets (2 + 4 steps per run) run side by side and must emit
every workload and metric ``BENCHMARK.json`` names, agree exactly on every
counted metric, and pass their output checks; the span shims must leave
every ``repro.*`` callable as they found it.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import instrument
import run as bench
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
COUNTED = re.compile(r"wire_bytes_per_step|crypto\.pow\..*|crypto\.ct\..*|comm\.channel\.frames")


def test_benchmark_json_names_what_the_runner_emits():
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["run_seconds"] == bench.DEFAULT_SECONDS
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.SPECS)
    for section, emitted in (("end_to_end", bench.END_TO_END), ("per_layer", bench.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in SPEC[section]} == emitted
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", metric["name"])


def test_two_quick_sets_emit_everything_and_agree_on_counts(tmp_path):
    outs = [tmp_path / f"{tag}.json" for tag in "ab"]
    procs = [
        subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(out)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        for out in outs
    ]
    logs = [proc.communicate(timeout=170)[0] for proc in procs]
    for proc, log in zip(procs, logs):
        assert proc.returncode == 0, log
        last = json.loads(log.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
    docs = [json.loads(out.read_text()) for out in outs]
    expected = set(bench.END_TO_END) | set(bench.PER_LAYER)
    runs = [doc["runs"][0] for doc in docs]
    for run in runs:
        assert {"git_sha", "cpu_count", "python", "machine", "gmpy2", "seed"} <= set(run["meta"])
        assert run["meta"]["workloads"]["lr_dense_mem"]["key_bits"] == 512
        results = run["results"]
        assert list(results) == list(workloads.SPECS)
        for name, result in results.items():
            assert result["correct"] and result["failed"] == 0, result["reasons"]
            assert result["failed_step_share"] == 0
            assert set(result["metrics"]) == expected, name
    for name in workloads.SPECS:
        a, b = (run["results"][name]["metrics"] for run in runs)
        for metric in filter(COUNTED.fullmatch, expected):
            assert a[metric] == b[metric], (name, metric)
        assert a["crypto.pow.mul"] > 0 and a["wire_bytes_per_step"] > 0


def test_shims_leave_every_callable_rebound_to_its_original():
    instrument.load_all()
    targets = {
        (modname, target.lstrip("*")): target.lstrip("*").split(".")
        for modname, spans in instrument.SPANS.items()
        for target in spans
    }

    def resolve(modname, path):
        owner = sys.modules[modname]
        for part in path[:-1]:
            owner = getattr(owner, part)
        return vars(owner)[path[-1]]

    before = {key: resolve(key[0], path) for key, path in targets.items()}
    from repro.core import matmul_layer
    from repro.crypto import crypto_tensor

    alias = matmul_layer.matmul_plain_cipher
    with instrument.instrumented(instrument.Recorder()):
        assert instrument.leaked_shims()
        # The from-imported alias is rebound, not just the defining module.
        assert matmul_layer.matmul_plain_cipher is crypto_tensor.matmul_plain_cipher
        assert matmul_layer.matmul_plain_cipher is not alias
    assert instrument.leaked_shims() == []
    assert matmul_layer.matmul_plain_cipher is alias
    for key, path in targets.items():
        assert resolve(key[0], path) is before[key], key


def test_self_times_of_nested_spans_add_up_to_the_root():
    recorder = instrument.Recorder()
    inner = recorder.shim(lambda: sum(range(2000)), "inner", None)
    outer = recorder.shim(lambda: [inner() for _ in range(3)], "outer", "outer.all")
    outer()
    (root,) = [s for s in recorder.spans if s[3] == "outer"]
    folded = instrument.fold(recorder.spans, 0.0, float("inf"), root[2])
    assert set(folded["self"]) == {"inner", "outer"} and not folded["off_thread"]
    assert sum(folded["self"].values()) == pytest.approx(root[6] - root[5])
    assert folded["inclusive"] == {"outer.all": pytest.approx(root[6] - root[5])}


@pytest.mark.parametrize(
    "base, cand, better, expected",
    [
        ([1.0] * 5, [1.05] * 5, "lower", "pass"),
        ([1.0] * 5, [1.2] * 5, "lower", "regressed"),
        ([1.0] * 5, [0.8] * 5, "higher", "regressed"),
        ([1.0] * 5, [0.8] * 5, "lower", "pass"),
        ([0.8, 0.9, 1.0, 1.1, 1.2], [1.3] * 5, "lower", "unresolved"),
    ],
)
def test_compare_verdicts(base, cand, better, expected):
    assert compare.verdict(base, cand, better, bound=0.1)[0] == expected


def test_epoch_plans_run_exactly_the_steps_asked_for():
    for total in (5, 6, 22, 51, 102, 23):
        epochs, per_epoch = workloads.plan_epochs(total, 17)
        assert epochs * per_epoch == total and per_epoch <= 17
