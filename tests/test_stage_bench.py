"""scripts/stage_bench.py on tiny versions of the benchmark workloads."""

import dataclasses
import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("stage_bench", ROOT / "scripts" / "stage_bench.py")
stage_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(stage_bench)  # puts perfbench/ on sys.path

import workloads  # noqa: E402
from dmdmotion import pipeline  # noqa: E402

TINY = {
    "sweep": {"height": 16, "width": 16, "n_frames": 60, "rect_size": (4, 4),
              "run": {"chunk_length": 30, "k": 5}},
    "fixed": {"height": 24, "width": 32, "n_frames": 60, "rect_size": (6, 8),
              "run": {"tau": 0.18, "chunk_length": 20, "k": 5}},
    "kernel": {"height": 24, "width": 32, "n_frames": 60, "rect_size": (6, 8),
               "run": {**workloads.WORKLOADS["kernel"].run, "chunk_length": 10, "k": 3}},
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_stage_that_ran_reads_above_zero(monkeypatch, capsys, name):
    # A fixed tau has no grid pass; a sweep's masks are made once the best
    # tau is known, as run-level work.
    tiny = dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])
    monkeypatch.setitem(workloads.WORKLOADS, name, tiny)
    stage_bench.main(["--workload", name, "--seed", "1", "--calls", "2"])
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert (result["workload"], result["seed"], result["calls"]) == (name, 1, 2)
    stages = list(result["stages"])
    assert stages == list(pipeline._StageTimer.STAGES)
    ran = set(stages) - ({"grid"} if "tau" in tiny.run else set())
    for stage, s in result["stages"].items():
        assert (s["median"] > 0) == (stage in ran), stage
        assert s["q1"] <= s["median"] <= s["q3"]
    assert result["frames_per_s"] == pytest.approx(60 / result["call"]["median"])
    assert result["ru_maxrss_mb"] > 0
    assert len(lines) == 2 + len(stages) + 3
