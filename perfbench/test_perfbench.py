"""Tests of the benchmark itself; run from the repository root with

    python3 -m pytest perfbench

Tiny-size runs must print every named metric with its unit for every
workload, and a wrong reference value fed to a check must count as a
failure, so that the checks cannot pass vacuously.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", metrics.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    specs = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m.name: m.unit for m in metrics.declared(specs)}
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
               if len(line.split()) > 2}
    for spec in specs:
        assert printed.get(spec.name) == spec.unit, spec.name
    assert any(line.startswith("fail_frac ") for line in lines)
    if trace:
        assert "traced and untraced reports byte-identical: yes" in lines


def test_benchmark_json_lists_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS)
    for key, specs in (("end_to_end", metrics.END_TO_END),
                       ("per_layer", metrics.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == \
            [(m.name, m.unit, m.better) for m in metrics.declared(specs)]


def test_wrong_pin_counts_as_failure(tmp_path, monkeypatch):
    wl = workloads.Tables(seed=5, tiny=True, workdir=tmp_path / "work")
    op = next(o for o in wl.ops if o.name == "compare --table IV")
    assert not run.run_ops([op]).failures
    wrong = dict(checks.PINS, IV=((0.3, 0.1540),) + checks.PINS["IV"][1:])
    monkeypatch.setattr(checks, "PINS", wrong)
    failures = run.run_ops([op]).failures
    assert len(failures) == 1
    assert failures[0][1].startswith(workloads.CHECK_FAILED + "table IV")


def test_wrong_character_sum_counts_as_failure(tmp_path, monkeypatch):
    wl = workloads.Large(seed=5, tiny=True, workdir=tmp_path)
    wl.setup()
    ops = wl.ops[:2]  # one subgroup frame and its random baseline
    assert not run.run_ops(ops).failures
    right = workloads.character_sum
    monkeypatch.setattr(workloads, "character_sum",
                        lambda *a: right(*a) + 1e-6)
    assert len(run.run_ops(ops).failures) == 2


def test_wrong_route_tolerance_counts_as_failure(tmp_path, monkeypatch):
    wl = workloads.Sweep(seed=5, tiny=True, workdir=tmp_path)
    wl.setup()
    assert not run.run_ops(wl.ops).failures
    # a negative tolerance rejects even an exact agreement of the routes
    monkeypatch.setattr(checks, "ROUTE_TOL", -1.0)
    assert len(run.run_ops(wl.ops).failures) == len(wl.ops)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
