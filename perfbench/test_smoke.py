"""Smoke test of the benchmark: every workload's operations and checks run
once at tiny sizes, traced and untraced, and print exactly the metrics that
BENCHMARK.json names.  Not part of the package's test suite; run it with

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run(cwd, *extra):
    return subprocess.run([sys.executable, "perfbench/run.py", *extra],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload, trace):
    out = run(BENCH.parent, "--workload", workload, "--seed", "1", "--seconds", "1",
              "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == \
        {name: m["unit"] for name, m in result["metrics"].items()}


def test_refuses_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    out = run(tmp_path, "--workload", "regularity", "--seed", "1", "--seconds", "1",
              "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""


def test_host_speed_region():
    sys.path.insert(0, str(BENCH))
    import hostspeed

    clock = hostspeed.HostSpeed(interval=0.005)
    with clock.region() as region:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(region.samples) >= 5
    # the handler's time is taken out of the region's
    assert 0.0 < region.seconds < 0.2 - 0.9 * sum(region.samples)
    assert hostspeed.scale([hostspeed.KERNEL_REF_S] * 3) == pytest.approx(1.0)
    assert hostspeed.scale([2 * hostspeed.KERNEL_REF_S]) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        hostspeed.scale([])
