"""Tiny-size smoke test of the benchmark command.

    python3 -m pytest perfbench/tests -q

Runs every workload for one second, a traced run twice at one seed, and the
command in a directory without the package.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(*args, cwd=ROOT):
    cmd = [sys.executable if a == "python3" else a for a in SPEC["command"]]
    return subprocess.run(
        [*cmd, *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    return out


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_prints_every_end_to_end_metric(workload):
    out = result(bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0"))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_runs_repeat_their_call_counts():
    args = ("--workload", "ladder", "--seed", "7", "--seconds", "1", "--trace", "1")
    first, second = result(bench(*args)), result(bench(*args))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected

    def calls(out):
        return {k: v["value"] for k, v in out["metrics"].items() if k.endswith(".calls")}

    assert calls(first) == calls(second)
    assert all(v > 0 for v in calls(first).values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = bench("--workload", "laws", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
