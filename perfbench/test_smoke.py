"""Fast checks of the benchmark itself, at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run._import_program()

import sidforge.quantizer  # noqa: E402  (needs the path set up by run)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_workload_emits_every_metric(workload, trace, tmp_path):
    result, report = run.measure(workload, seed=1, seconds=0.0, trace=trace,
                                 size="tiny", out_dir=tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, report["problems"]
    assert result["attempted"] >= 1
    expected = _units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        assert (tmp_path / f"trace-{workload}-seed1.jsonl").is_file()
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_outputs(workload, tmp_path):
    from tracing import NullTracer
    from workloads import WORKLOADS as BY_NAME

    wl = BY_NAME[workload]
    runs = [wl.repeat(wl.setup(5, "tiny", tmp_path / str(i)), NullTracer()) for i in range(2)]
    assert [op[2] for op in runs[0].ops] == [op[2] for op in runs[1].ops]


def test_injected_bad_output_is_counted(monkeypatch, tmp_path):
    real = sidforge.quantizer.encode_batch

    def corrupt(vectors, codebook):
        sids = real(vectors, codebook)
        bad = sidforge.Sid(sids[0].rq, (codebook.opq.code_sizes[0],) + sids[0].opq[1:])
        return [bad] + sids[1:]

    monkeypatch.setattr(sidforge.quantizer, "encode_batch", corrupt)
    result, report = run.measure("fit-m", seed=1, seconds=0.0, trace=False,
                                 size="tiny", out_dir=tmp_path)
    assert not result["correct"]
    assert report["error_rate"] > 0
    assert result["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit-m", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
