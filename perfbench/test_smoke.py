"""Smoke test of the benchmark itself on tiny versions of its workloads.

Run from the repository root: python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from workloads import WORKLOADS

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

TINY = {
    "sweep": dataclasses.replace(
        WORKLOADS["sweep"], height=16, width=16, n_frames=60, rect_size=(4, 4),
        f_floor=0.0, run={"chunk_length": 30, "k": 5},
    ),
    "fixed": dataclasses.replace(
        WORKLOADS["fixed"], height=24, width=32, n_frames=60, rect_size=(6, 8),
        f_floor=0.0, run={"tau": 0.18, "chunk_length": 20, "k": 5},
    ),
    "kernel": dataclasses.replace(
        WORKLOADS["kernel"], height=24, width=32, n_frames=60, rect_size=(6, 8),
        f_floor=0.0, run={**WORKLOADS["kernel"].run, "chunk_length": 10, "k": 3},
    ),
}

# Exact call counts for one run of each tiny workload (60 frames).
COUNTS = {
    "sweep": {
        # 51 thresholds, each filtering all 60 frames, plus the final masks.
        "background.median_filter.calls": 52 * 60,
        # 51 each: raw sweep, filtered sweep, ROC, metrics.csv, roc.csv; plus 1.
        "evaluation.confusion.calls": 256,
        "linalg.rsvd.calls": 2,
        "io_formats.load_pgm.calls": 120,
        "io_formats.save_pgm.calls": 60,
    },
    "fixed": {
        "background.median_filter.calls": 60,
        "evaluation.confusion.calls": 0,
        "linalg.rsvd.calls": 3,
        "io_formats.load_pgm.calls": 60,
        "io_formats.save_pgm.calls": 60,
        "io_formats.save_matrix.calls": 9,
    },
    "kernel": {
        "background.median_filter.calls": 0,
        "linalg.rsvd.calls": 6,
        "io_formats.save_pgm.calls": 0,
    },
}


def _names(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload(name):
    plain, plain_info = run.measure(TINY[name], seed=3, seconds=0.0, trace=0)
    traced, traced_info = run.measure(TINY[name], seed=3, seconds=0.0, trace=1)
    for result, section in ((plain, "end_to_end"), (traced, "per_layer")):
        assert result["correct"], (plain_info["problems"], traced_info["problems"])
        assert result["failed"] == 0 and result["attempted"] >= 2
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == _names(section)
    for metric, expected in COUNTS[name].items():
        assert traced["metrics"][metric]["value"] == expected, metric
    assert traced_info["digests"] == plain_info["digests"]
    assert plain_info["failed_frac"]["value"] == 0.0
    assert all(v["value"] > 0 for v in plain["metrics"].values())


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(run.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
