"""Smoke check of the benchmark: every workload once at small sizes.

Run from the repository root (about a minute on 2 cores):

    python3 -m pytest perfbench/test_smoke.py -q

It is not part of the ``tests/`` suite; it checks that the benchmark
still runs against the current package and reports every metric that
BENCHMARK.json names.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = run_bench(
        ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
        "--trace", trace, "--smoke",
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1, proc.stderr
    expected = PER_LAYER if trace == "1" else END_TO_END
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected

    record = json.loads(
        (ROOT / ".perfbench_out" / f"{workload}-seed0-smoke" / "results.json").read_text()
    )
    named = set(END_TO_END) | {"fail_frac"}
    if workload == "droplet":
        named.add("angle_err_deg")
    assert set(record["metrics"]) == named
    assert record["metrics"]["fail_frac"]["value"] == 0.0
    if workload == "droplet":
        assert 0.0 < record["metrics"]["angle_err_deg"]["value"] < 2.5
    if trace == "1":
        assert set(record["layers"]) == set(PER_LAYER)
    assert len(record["digest"]) == 64
    assert len(record["setup_samples"]) >= 9
    assert set(record["env"]) == {"python", "numpy", "scipy", "nproc", "cpu", "threads"}
    assert record["env"]["threads"]["AMBO_THREADS"] == str(record["env"]["nproc"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "ball3d", "--seed", "0", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
