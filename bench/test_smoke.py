"""Smoke check of the benchmark itself: every workload, untraced and traced, at
tiny sizes.  It is not part of the tier-1 suite; run it with

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "bench"))
from run import WORKLOADS  # noqa: E402  -- BENCHMARK.json's and cli_default
COUNTS = (".calls", ".points", ".bytes")


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", "--tiny", "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result(*args):
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    res = result("--workload", workload, "--seed", "3", "--trace", "0")
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 5
    assert list(res["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = (result("--workload", workload, "--seed", "4", "--trace", "1")
                     for _ in range(2))
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    counts = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(COUNTS)}
    again = {k: v["value"] for k, v in second["metrics"].items() if k.endswith(COUNTS)}
    # report JSON embeds a float timing whose printed length varies
    counts.pop("serialize.write_report_json.bytes")
    again.pop("serialize.write_report_json.bytes")
    assert counts == again
    assert counts["spectra.eigensystem_two_band.points"] > 0
    if workload.startswith("cli_"):
        silent = [k for k, v in first["metrics"].items()
                  if v["value"] == 0 and not k.endswith(".errors")]
        assert silent == []


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = bench("--workload", "cli_default", "--seed", "0", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
