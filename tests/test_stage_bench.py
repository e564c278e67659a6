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
from dmdmotion.io_formats import save_frames  # noqa: E402
from dmdmotion.synthetic import MovingRect, SyntheticSpec, generate_synthetic  # noqa: E402

TINY = {
    "sweep": {"height": 16, "width": 16, "n_frames": 60, "rect_size": (4, 4),
              "run": {"chunk_length": 30, "k": 5}},
    "fixed": {"height": 24, "width": 32, "n_frames": 60, "rect_size": (6, 8),
              "run": {"tau": 0.18, "chunk_length": 20, "k": 5}},
    "kernel": {"height": 24, "width": 32, "n_frames": 60, "rect_size": (6, 8),
               "run": {**workloads.WORKLOADS["kernel"].run, "chunk_length": 10, "k": 3}},
    "hd": {"height": 18, "width": 32, "n_frames": 60, "rect_size": (3, 4),
           "run": {**stage_bench.HD.run, "chunk_length": 20, "k": 5}},
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_stage_that_ran_reads_above_zero(monkeypatch, capsys, name):
    # A fixed tau has no grid pass; a sweep's masks are made once the best
    # tau is known, as run-level work.
    if name == stage_bench.HD.name:
        monkeypatch.setattr(stage_bench, "HD", dataclasses.replace(stage_bench.HD, **TINY[name]))
        tiny = stage_bench.HD
    else:
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


def test_rendered_frames_are_the_bytes_of_the_whole_video(tmp_path):
    # Background, texture, clipped rectangles and noise drawn a frame at a
    # time give the files that the whole video, saved at once, gives.
    spec = SyntheticSpec(frame_height=13, frame_width=17, n_frames=9, base_level=0.4,
                         texture_amplitude=0.2, texture_period=5.0, noise_sigma=0.1,
                         objects=(MovingRect(-2.0, 3.0, 5, 4, 0.9, (1.3, 1.7)),
                                  MovingRect(6.0, -1.5, 3, 30, 0.05, (0.0, 0.5))),
                         seed=11)
    whole = save_frames(str(tmp_path / "whole"), generate_synthetic(spec)[0])
    stage_bench.render_frames(spec, str(tmp_path / "rendered"))
    assert sorted(p.name for p in (tmp_path / "rendered").iterdir()) == [
        pathlib.Path(p).name for p in whole]
    for path in whole:
        name = pathlib.Path(path).name
        assert (tmp_path / "rendered" / name).read_bytes() == pathlib.Path(path).read_bytes()
