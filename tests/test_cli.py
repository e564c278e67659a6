"""Command-line interface, run in process through main(argv)."""

import contextlib
import csv
import glob
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.linalg import lapack_lite
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dmdmotion
from dmdmotion import cli, io_formats
from dmdmotion.cli import main
from dmdmotion.io_formats import load_decomposition, load_masks, load_pgm, save_pgm
from dmdmotion.pipeline import RunConfig, run_bgsub
from dmdmotion.synthetic import MovingRect, SyntheticSpec
from helpers import reference_synth, tree_bytes


def synth_args(out, frames=24, extra=()):
    return [
        "synth", "--out", str(out), "--height", "16", "--width", "16",
        "--frames", str(frames), "--noise", "0.03",
        "--rect", "5,1,4,4,1.0,0,0.25", "--seed", "7", *extra,
    ]


def test_synth_writes_frames_and_truth(tmp_path, capsys):
    assert main(synth_args(tmp_path)) == 0
    frames = sorted(os.listdir(tmp_path / "frames"))
    truth = sorted(os.listdir(tmp_path / "truth"))
    assert len(frames) == 24 and len(truth) == 24
    assert frames[0] == "frame_00000.pgm"
    assert "wrote 24 frames" in capsys.readouterr().out


def test_synth_deterministic(tmp_path):
    main(synth_args(tmp_path / "a"))
    main(synth_args(tmp_path / "b"))
    for sub in ("frames", "truth"):
        names = sorted(os.listdir(tmp_path / "a" / sub))
        for name in names:
            a = (tmp_path / "a" / sub / name).read_bytes()
            b = (tmp_path / "b" / sub / name).read_bytes()
            assert a == b


def test_synth_rect_with_negative_corner(tmp_path):
    # "--rect -1,..." is a rectangle, not an option; it equals the "--rect=" form.
    base = ["synth", "--height", "8", "--width", "8", "--frames", "4", "--seed", "1"]
    assert main([*base, "--out", str(tmp_path / "a"), "--rect", "-1,0,3,3,1.0,0,0.5"]) == 0
    assert main([*base, "--out", str(tmp_path / "b"), "--rect=-1,0,3,3,1.0,0,0.5"]) == 0
    truth = load_masks(str(tmp_path / "a" / "truth" / "*.pgm")).masks
    assert truth[0, :2, :3].all() and truth[0].sum() == 6
    for sub in ("frames", "truth"):
        for name in sorted(os.listdir(tmp_path / "a" / sub)):
            assert (tmp_path / "a" / sub / name).read_bytes() == (
                tmp_path / "b" / sub / name).read_bytes()


def test_synth_into_a_used_out_exits_2_and_changes_nothing(tmp_path, capsys):
    # A shorter video over a longer one would leave the longer one's last
    # frames and masks beside it, and a later bgsub would decompose both.
    small = ["--height", "16", "--width", "16"]
    out = tmp_path / "v"
    assert main(["synth", "--out", str(out), *small, "--frames", "40", "--seed", "1"]) == 0
    capsys.readouterr()

    def files():
        return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}

    before = files()
    assert len(before) == 80
    assert main(["synth", "--out", str(out), *small, "--frames", "30", "--seed", "2"]) == 2
    assert capsys.readouterr() == (
        "", f"error (invalid input): {out / 'frames'} already holds files\n")
    assert files() == before
    # Either directory holding an entry is refused; empty ones are written.
    (tmp_path / "w" / "frames").mkdir(parents=True)
    (tmp_path / "w" / "truth").mkdir()
    (tmp_path / "w" / "truth" / "stray").write_bytes(b"")
    assert main(["synth", "--out", str(tmp_path / "w"), *small, "--frames", "30",
                 "--seed", "2"]) == 2
    assert capsys.readouterr().err == (
        f"error (invalid input): {tmp_path / 'w' / 'truth'} already holds files\n")
    assert os.listdir(tmp_path / "w" / "frames") == []
    (tmp_path / "w" / "truth" / "stray").unlink()
    for fresh in (tmp_path / "w", tmp_path / "fresh"):
        assert main(["synth", "--out", str(fresh), *small, "--frames", "30", "--seed", "2"]) == 0
        assert len(os.listdir(fresh / "frames")) == len(os.listdir(fresh / "truth")) == 30


@pytest.mark.parametrize("args, spec", [
    (["--height", "24", "--width", "32", "--frames", "41", "--base-level", "0.4",
      "--texture-amplitude", "0.2", "--texture-period", "5", "--noise", "0.1",
      "--rect", "-2,3,5,4,0.9,1.3,1.7", "--rect", "6,-1.5,3,30,0.05,0,0.5", "--seed", "11"],
     SyntheticSpec(24, 32, 41, base_level=0.4, texture_amplitude=0.2, texture_period=5.0,
                   noise_sigma=0.1, objects=(MovingRect(-2.0, 3.0, 5, 4, 0.9, (1.3, 1.7)),
                                             MovingRect(6.0, -1.5, 3, 30, 0.05, (0.0, 0.5))),
                   seed=11)),
    (["--height", "16", "--width", "16", "--frames", "30", "--base-level", "0",
      "--rect", "5,1,4,4,0.0,0,0.25", "--seed", "7"],
     SyntheticSpec(16, 16, 30, base_level=0.0,
                   objects=(MovingRect(5.0, 1.0, 4, 4, 0.0, (0.0, 0.25)),), seed=7)),
    (["--height", "64", "--width", "64", "--frames", "200", "--noise", "0.05",
      "--rect", "26,4,10,10,0.8,0,0.25", "--seed", "123"],
     SyntheticSpec(64, 64, 200, noise_sigma=0.05,
                   objects=(MovingRect(26.0, 4.0, 10, 10, 0.8, (0.0, 0.25)),), seed=123)),
], ids=["texture_noise_clipped", "all_black", "readme"])
def test_synth_writes_the_files_of_the_whole_video(tmp_path, args, spec):
    # Frames written as they are drawn, and the truth kept for its masks,
    # give the files of the video drawn whole and then saved.
    assert main(["synth", "--out", str(tmp_path / "synth"), *args]) == 0
    reference_synth(spec, tmp_path / "whole")
    ours, whole = tree_bytes(tmp_path / "synth"), tree_bytes(tmp_path / "whole")
    assert len(whole) == 2 * spec.n_frames
    assert ours == whole


def test_synth_holds_the_truth_but_not_the_video(tmp_path):
    # 1 byte of truth per pixel-frame is kept; a drawn frame is freed once
    # its file is written. The whole video took 9 bytes per pixel-frame.
    tracemalloc.start()
    try:
        assert main(["synth", "--out", str(tmp_path / "vid"), "--height", "48", "--width", "64",
                     "--frames", "400", "--noise", "0.03", "--rect", "10,2,8,8,0.8,0,0.5",
                     "--seed", "7"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 48 * 64 * 400, peak / (48 * 64 * 400)


def test_one_chunk_bgsub_writes_manifest_and_table(tmp_path, capsys):
    # A run of one chunk over every frame writes the whole video's
    # decomposition to chunk_000/ and prints its eigenvalue table.
    main(synth_args(tmp_path / "vid"))
    code = main([
        "bgsub", "--frames", str(tmp_path / "vid" / "frames" / "*.pgm"),
        "--out", str(tmp_path / "run"), "--chunk-length", "24", "--tau", "0.2",
        "--k", "4", "--p", "2", "--q", "1", "--seed", "3",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "|lambda|   |omega|    role" in out
    chunk = tmp_path / "run" / "chunk_000"
    assert sorted(os.listdir(chunk)) == [
        "amplitudes.cpx", "eigenvalues.cpx", "manifest.txt", "modes.cpx"]
    dec = load_decomposition(str(chunk))
    assert 1 <= dec.rank <= 4
    assert (dec.n_pixels, dec.n_frames, dec.seed, dec.anchor) == (256, 24, 3, "median")
    assert f"chunk 0: frames [0, 24), seed 3, rank {dec.rank}," in out
    assert not (tmp_path / "run" / "chunk_001").exists()


@pytest.mark.parametrize("kind", ["16-bit", "8-bit and 16-bit"])
def test_16_bit_and_mixed_maxval_frames_run_to_masks_and_a_decomposition(tmp_path, capsys,
                                                                          kind):
    # Frames at maxval 1000, all of them or every other one, take the float64
    # partition to the median anchor instead of the 8-bit exchange network.
    main(synth_args(tmp_path / "vid", frames=30))
    frames = tmp_path / "frames"
    frames.mkdir()
    for t, path in enumerate(sorted((tmp_path / "vid" / "frames").iterdir())):
        if kind == "16-bit" or t % 2:
            img, _ = load_pgm(str(path))
            save_pgm(str(frames / path.name), (img.astype(int) * 1000 + 127) // 255, 1000)
        else:
            shutil.copy(path, frames / path.name)
    for chunk_length in ("15", "30"):
        out = tmp_path / f"run{chunk_length}"
        assert main(["bgsub", "--frames", str(frames / "*.pgm"), "--out", str(out),
                     "--chunk-length", chunk_length, "--tau", "0.2", "--k", "4",
                     "--seed", "5"]) == 0
        assert len(os.listdir(out / "masks")) == 30
    dec = load_decomposition(str(tmp_path / "run30" / "chunk_000"))
    assert (dec.n_pixels, dec.n_frames, dec.anchor) == (256, 30, "median")
    assert 1 <= dec.rank <= 4


def test_bgsub_fixed_tau(tmp_path, capsys):
    main(synth_args(tmp_path / "vid", frames=30))
    code = main([
        "bgsub", "--frames", str(tmp_path / "vid" / "frames" / "*.pgm"),
        "--out", str(tmp_path / "out"), "--chunk-length", "30",
        "--k", "4", "--p", "2", "--q", "1", "--tau", "0.3", "--seed", "5",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "chunk 0" in out
    assert (tmp_path / "out" / "report.txt").exists()
    masks = load_masks(str(tmp_path / "out" / "masks" / "*.pgm"))
    assert masks.n_frames == 30
    assert masks.masks.any()


def test_a_failed_mask_write_exits_4_with_no_report(tmp_path, capsys):
    # The run writes each chunk's masks once they are final. A directory
    # where one mask file goes fails that write, which ends the run before
    # report.txt: exit 4 naming the path.
    main(synth_args(tmp_path / "vid", frames=30))
    capsys.readouterr()
    args = ["bgsub", "--frames", str(tmp_path / "vid" / "frames" / "*.pgm"),
            "--chunk-length", "10", "--k", "4", "--tau", "0.3", "--seed", "5"]
    blocked = tmp_path / "bad" / "masks" / "frame_00015_mask.pgm"
    blocked.mkdir(parents=True)
    assert main(args + ["--out", str(tmp_path / "bad")]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(blocked) in err
    assert not (tmp_path / "bad" / "report.txt").exists()
    assert main(args + ["--out", str(tmp_path / "good")]) == 0
    assert len(os.listdir(tmp_path / "good" / "masks")) == 30


@pytest.mark.parametrize("args, message", [
    (["bgsub", "--frames", "{frames}", "--tau", "0.2", "--chunk-length", "15", "--k", "4",
      "--seed", "5"], "output_dir must name a directory, got an empty path"),
    (["synth", "--height", "16", "--width", "16", "--frames", "30", "--seed", "7"],
     "argument --out: must name a directory, got an empty path"),
], ids=["bgsub", "synth"])
def test_an_empty_out_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch, args, message):
    # An empty output directory would put the command's files in the working
    # one. It is refused before a frame is read or drawn.
    main(synth_args(tmp_path / "vid", frames=30))
    capsys.readouterr()
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)

    def no_frames(*args, **kwargs):
        raise AssertionError("frames were read or drawn")

    for name in ("_frames", "run_bgsub"):
        monkeypatch.setattr(cli, name, no_frames)
    frames = str(tmp_path / "vid" / "frames" / "*.pgm")
    assert main([a.format(frames=frames) for a in args] + ["--out", ""]) == 2
    assert capsys.readouterr().err == f"error (invalid input): {message}\n"
    assert os.listdir(work) == []


def test_bgsub_into_a_directory_with_a_report_exits_2_and_changes_nothing(tmp_path, capsys):
    # A one-chunk fixed-tau run over a two-chunk sweep's outputs would leave
    # the sweep's chunk_001/, metrics.csv and roc.csv beside its own report.
    main(synth_args(tmp_path / "vid", frames=30))
    frames = str(tmp_path / "vid" / "frames" / "*.pgm")
    out = tmp_path / "run"
    assert main(["bgsub", "--frames", frames, "--truth", str(tmp_path / "vid" / "truth" / "*.pgm"),
                 "--out", str(out), "--chunk-length", "15", "--k", "4", "--seed", "5"]) == 0
    capsys.readouterr()

    def files():
        return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}

    before = files()
    assert {"chunk_001/modes.cpx", "metrics.csv", "roc.csv"} <= {str(p) for p in before}
    code = main(["bgsub", "--frames", frames, "--out", str(out), "--tau", "0.2",
                 "--chunk-length", "30", "--k", "4", "--seed", "5"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error (invalid input): output directory {out} already holds a report.txt\n"
    assert files() == before


def test_bgsub_into_a_failed_runs_directory_exits_2_and_changes_nothing(tmp_path, capsys,
                                                                        monkeypatch):
    # A failed run leaves chunk_NNN/ and masks but no report. A shorter rerun
    # into that directory would leave the failed run's later chunk and masks
    # beside a report that lists none of them.
    main(synth_args(tmp_path / "vid", frames=60))
    out = tmp_path / "run"
    (out / "masks" / "frame_00045_mask.pgm").mkdir(parents=True)
    args = ["--tau", "0.2", "--chunk-length", "30", "--k", "4", "--seed", "5", "--out", str(out)]
    frames = str(tmp_path / "vid" / "frames")
    assert main(["bgsub", "--frames", os.path.join(frames, "*.pgm"), *args]) == 4
    assert sorted(os.listdir(out)) == ["chunk_000", "chunk_001", "masks"]
    capsys.readouterr()

    def files():
        return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}

    def no_scan(*args, **kwargs):
        raise AssertionError("frames were scanned")

    before = files()
    monkeypatch.setattr(io_formats, "scan_frames", no_scan)
    assert main(["bgsub", "--frames", os.path.join(frames, "frame_000[0-2]?.pgm"), *args]) == 2
    err = capsys.readouterr().err
    assert err == f"error (invalid input): output directory {out} already holds a chunk_000\n"
    assert files() == before


def test_bgsub_into_a_file_exits_4_before_the_frames_are_scanned(tmp_path, capsys,
                                                                   monkeypatch):
    # A file, or a path through one, cannot hold the run's outputs. It is
    # refused before a frame is scanned, naming the path, and left as it was.
    (tmp_path / "afile").write_bytes(b"kept")

    def no_scan(*args, **kwargs):
        raise AssertionError("frames were scanned")

    monkeypatch.setattr(io_formats, "scan_frames", no_scan)
    for out in (tmp_path / "afile", tmp_path / "afile" / "run"):
        assert main(["bgsub", "--frames", str(tmp_path / "*.pgm"), "--out", str(out),
                     "--tau", "0.2", "--seed", "5"]) == 4
        out_text, err = capsys.readouterr()
        assert out_text == ""
        assert err == f"error (file system): [Errno 20] Not a directory: {str(out)!r}\n"
    assert (tmp_path / "afile").read_bytes() == b"kept"


def test_bgsub_sweep_with_truth(tmp_path):
    main(synth_args(tmp_path / "vid", frames=30))
    code = main([
        "bgsub", "--frames", str(tmp_path / "vid" / "frames" / "*.pgm"),
        "--truth", str(tmp_path / "vid" / "truth" / "*.pgm"),
        "--out", str(tmp_path / "out"), "--chunk-length", "30",
        "--k", "4", "--p", "2", "--q", "1", "--seed", "5",
    ])
    assert code == 0
    assert (tmp_path / "out" / "roc.csv").exists()
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "threshold: sweep -> tau=" in report
    assert "f_measure=" in report


def run_python(code, *args):
    """stdout of code run in a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(dmdmotion.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_import_loads_no_scipy():
    out = run_python(
        "import sys, dmdmotion; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    assert out.strip() == "[]"


def test_import_loads_neither_io_formats_nor_cli():
    # pipeline imports io_formats inside the functions that read or write, so
    # that a fresh `import dmdmotion` compiles neither module.
    out = run_python("import sys, dmdmotion; print(sorted(set(sys.modules) & "
                     "{'dmdmotion.io_formats', 'dmdmotion.cli'}))")
    assert out.strip() == "[]"


def filtered_sweep_args(vid, out):
    return [
        "bgsub", "--frames", str(vid / "frames" / "*.pgm"),
        "--truth", str(vid / "truth" / "*.pgm"), "--out", str(out),
        "--chunk-length", "15", "--k", "4", "--seed", "5", "--median-kernel", "3",
    ]


# With None in sys.modules, every import of scipy raises ImportError.
_NO_SCIPY_MAIN = """
import json, sys
sys.modules["scipy"] = None
from dmdmotion.cli import main
print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_synth_and_a_filtered_sweep_run_without_scipy(tmp_path):
    runs = [synth_args(tmp_path / "vid", frames=30),
            filtered_sweep_args(tmp_path / "vid", tmp_path / "out")]
    assert run_python(_NO_SCIPY_MAIN, json.dumps(runs)).splitlines()[-1] == "[0, 0]"
    # The same run in this process gives the same report and masks.
    assert main(filtered_sweep_args(tmp_path / "vid", tmp_path / "ref")) == 0
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "threshold: sweep -> tau=" in report
    assert report == (tmp_path / "ref" / "report.txt").read_text()
    masks = sorted(os.listdir(tmp_path / "out" / "masks"))
    assert len(masks) == 30 and masks == sorted(os.listdir(tmp_path / "ref" / "masks"))
    for name in masks:
        assert (tmp_path / "out" / "masks" / name).read_bytes() == (
            tmp_path / "ref" / "masks" / name).read_bytes()


def test_bgsub_options_reach_run_config(tmp_path, monkeypatch):
    # Each flag given sets its RunConfig field; each flag left out takes the
    # RunConfig default.
    configs = []
    monkeypatch.setattr(cli, "run_bgsub", lambda cfg: configs.append(cfg) or run_bgsub(cfg))
    main(synth_args(tmp_path / "vid", frames=30))
    frames = str(tmp_path / "vid" / "frames" / "*.pgm")
    truth = str(tmp_path / "vid" / "truth" / "*.pgm")
    assert main(["bgsub", "--frames", frames, "--tau", "0.3",
                 "--out", str(tmp_path / "a"), "--seed", "5"]) == 0
    assert main(["bgsub", "--frames", frames, "--truth", truth, "--out", str(tmp_path / "b"),
                 "--chunk-length", "15", "--k", "4", "--p", "1", "--q", "2",
                 "--n-background", "2", "--anchor", "first", "--median-kernel", "5",
                 "--save-residuals", "--seed", "6"]) == 0
    assert main(["bgsub", "--frames", frames, "--tau", "0.3", "--out", str(tmp_path / "c"),
                 "--anchor", "5", "--seed", "5"]) == 0
    assert configs == [
        RunConfig(frames=frames, tau=0.3, output_dir=str(tmp_path / "a"), seed=5),
        RunConfig(frames=frames, truth=truth, output_dir=str(tmp_path / "b"),
                  chunk_length=15, k=4, p=1, q=2, n_background=2, anchor="first",
                  median_kernel=5, save_residuals=True, seed=6),
        RunConfig(frames=frames, tau=0.3, output_dir=str(tmp_path / "c"), anchor=5, seed=5),
    ]
    assert type(configs[2].anchor) is int
    assert (tmp_path / "b" / "chunk_001" / "residual.mat").exists()


def test_bgsub_sweep_without_truth_exits_2(tmp_path, capsys):
    main(synth_args(tmp_path / "vid", frames=30))
    code = main([
        "bgsub", "--frames", str(tmp_path / "vid" / "frames" / "*.pgm"),
        "--out", str(tmp_path / "out"), "--chunk-length", "30",
        "--k", "4", "--p", "2", "--q", "1", "--seed", "5",
    ])
    assert code == 2
    assert "invalid input" in capsys.readouterr().err


def test_bgsub_degenerate_video_exits_3(tmp_path, capsys):
    frames_dir = tmp_path / "zeros"
    os.makedirs(frames_dir)
    for t in range(12):
        save_pgm(str(frames_dir / f"z_{t:03d}.pgm"), np.zeros((8, 8), dtype=np.uint8))
    code = main([
        "bgsub", "--frames", str(frames_dir / "*.pgm"),
        "--out", str(tmp_path / "out"), "--chunk-length", "12",
        "--k", "3", "--p", "2", "--q", "1", "--tau", "0.2", "--seed", "0",
    ])
    assert code == 3
    assert "degenerate" in capsys.readouterr().err


def test_bgsub_lapack_failure_in_every_chunk_exits_3(tmp_path, capsys, monkeypatch):
    assert main(synth_args(tmp_path / "vid")) == 0
    capsys.readouterr()

    def dorgqr(*args):
        return {"info": 2}

    monkeypatch.setattr(lapack_lite, "dorgqr", dorgqr)
    code = main([
        "bgsub", "--frames", str(tmp_path / "vid" / "frames" / "*.pgm"),
        "--out", str(tmp_path / "out"), "--chunk-length", "12",
        "--k", "3", "--p", "2", "--q", "1", "--tau", "0.2", "--seed", "0",
    ])
    assert code == 3
    assert "degenerate" in capsys.readouterr().err
    report = (tmp_path / "out" / "report.txt").read_text()
    assert report.count("FAILED LinAlgError: dorgqr returns 2") == 2
    # A numerical failure outside any chunk is the command's: exit 5.

    def failing_run(cfg):
        raise np.linalg.LinAlgError("dorgqr returns 2")

    monkeypatch.setattr(cli, "run_bgsub", failing_run)
    code = main([
        "bgsub", "--frames", str(tmp_path / "vid" / "frames" / "*.pgm"),
        "--out", str(tmp_path / "run"), "--tau", "0.2", "--seed", "0",
    ])
    assert code == 5
    assert capsys.readouterr() == ("", "error (numerical): dorgqr returns 2\n")
    assert not (tmp_path / "run").exists()


def test_bgsub_sweep_all_chunks_failed_exits_3(tmp_path, capsys):
    for sub in ("zeros", "truth"):
        os.makedirs(tmp_path / sub)
    for t in range(12):
        save_pgm(str(tmp_path / "zeros" / f"z_{t:03d}.pgm"), np.zeros((8, 8), dtype=np.uint8))
        truth = np.zeros((8, 8), dtype=np.uint8)
        truth[2:4, t % 8] = 255
        save_pgm(str(tmp_path / "truth" / f"t_{t:03d}.pgm"), truth)
    code = main([
        "bgsub", "--frames", str(tmp_path / "zeros" / "*.pgm"),
        "--truth", str(tmp_path / "truth" / "*.pgm"),
        "--out", str(tmp_path / "out"), "--chunk-length", "12",
        "--k", "3", "--p", "2", "--q", "1", "--seed", "0",
    ])
    assert code == 3
    out, err = capsys.readouterr()
    assert err == "error (degenerate data): every chunk failed; see the report for diagnostics\n"
    # The report and timings are written, and the report names the reason.
    report = (tmp_path / "out" / "report.txt").read_text()
    assert report == out
    assert "chunk 0: frames [0, 12) FAILED DegenerateDataError" in report
    assert (tmp_path / "out" / "timings.csv").exists()
    assert not (tmp_path / "out" / "masks").exists()


def test_a_sweep_whose_chunks_that_ran_hold_one_truth_class_exits_3(tmp_path, capsys):
    # Chunk 0 is all black, so it fails, and holds the truth's only moving
    # square; chunk 1 runs, but its truth is all background. Its counts give
    # no curve to choose a tau from, so the run ends as one whose every
    # chunk failed: its report, metrics and timings, but no masks or roc.csv.
    for name, extra in (("a", ["--base-level", "0", "--rect", "5,1,4,4,0.0,0,0.25",
                               "--seed", "7"]),
                        ("b", ["--noise", "0.03", "--seed", "8"])):
        assert main(["synth", "--out", str(tmp_path / name), "--height", "16",
                     "--width", "16", "--frames", "30", *extra]) == 0
    for sub in ("frames", "truth"):
        os.makedirs(tmp_path / "mixed" / sub)
        for name in ("a", "b"):
            for path in (tmp_path / name / sub).iterdir():
                shutil.copy(path, tmp_path / "mixed" / sub / f"{name}_{path.name}")
    capsys.readouterr()
    frames, truth = (str(tmp_path / "mixed" / sub / "*.pgm") for sub in ("frames", "truth"))
    out = tmp_path / "out"
    assert main(["bgsub", "--frames", frames, "--truth", truth, "--out", str(out),
                 "--chunk-length", "30", "--k", "4", "--seed", "5"]) == 3
    text, err = capsys.readouterr()
    assert err == ("error (degenerate data): the chunks that ran hold only one truth class, "
                   "so the sweep has no curve; see the report\n")
    assert text == (out / "report.txt").read_text()
    assert "chunk 0: frames [0, 30) FAILED DegenerateDataError" in text
    assert sorted(os.listdir(out)) == ["chunk_001", "metrics.csv", "report.txt", "timings.csv"]
    report = run_bgsub(RunConfig(frames=frames, truth=truth, chunk_length=30, k=4, seed=5))
    assert [c.ok for c in report.chunks] == [False, True]
    assert report.tau is None and report.masks is None and report.summary is None


@pytest.mark.parametrize("extra, reason", [
    (["--seed", "-1", "--tau", "0.2"], "seed must be >= 0, got -1"),
    (["--seed", "-5"], "seed must be >= 0, got -5"),
    (["--seed", "5", "--tau", "nan"], "tau must be finite and nonnegative, got nan"),
    (["--seed", "5", "--tau", "inf"], "tau must be finite and nonnegative, got inf"),
])
def test_bgsub_bad_seed_or_tau_exits_2(tmp_path, capsys, extra, reason):
    main(synth_args(tmp_path / "vid", frames=30))
    capsys.readouterr()
    code = main([
        "bgsub", "--frames", str(tmp_path / "vid" / "frames" / "*.pgm"),
        "--truth", str(tmp_path / "vid" / "truth" / "*.pgm"),
        "--out", str(tmp_path / "out"), "--chunk-length", "30", "--k", "4", *extra,
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error (invalid input): {reason}\n"
    assert not (tmp_path / "out").exists()


def first_files(src, dst, n):
    os.makedirs(dst)
    for name in sorted(os.listdir(src))[:n]:
        shutil.copy(src / name, dst / name)
    return str(dst / "*.pgm")


@pytest.mark.parametrize("n_frames, n_masks", [(60, 30), (30, 60)])
def test_bgsub_truth_count_mismatch_exits_2(tmp_path, capsys, n_frames, n_masks):
    main(synth_args(tmp_path / "vid", frames=60))
    capsys.readouterr()
    code = main([
        "bgsub",
        "--frames", first_files(tmp_path / "vid" / "frames", tmp_path / "f", n_frames),
        "--truth", first_files(tmp_path / "vid" / "truth", tmp_path / "t", n_masks),
        "--out", str(tmp_path / "out"), "--chunk-length", "30",
        "--k", "4", "--p", "2", "--q", "1", "--seed", "5",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert f"truth has {n_masks} masks of 16x16 for {n_frames} frames" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


def renamed_files(src, dst, name):
    """src's files copied to dst, file t of the sorted listing named name(t)."""
    os.makedirs(dst)
    for t, path in enumerate(sorted(src.iterdir())):
        shutil.copy(path, dst / name(t))
    return str(dst / "*.pgm")


def test_truth_numbered_off_its_frames_exits_2(tmp_path, capsys):
    # Truth gt000010..gt000039 for frames frame_00000..frame_00029 pairs
    # by position but not by number: bgsub and eval both exit 2, naming the
    # first pair, before any chunk runs.
    main(synth_args(tmp_path / "vid", frames=30))
    frames = str(tmp_path / "vid" / "frames" / "*.pgm")
    shifted = renamed_files(tmp_path / "vid" / "truth", tmp_path / "gt",
                            lambda t: f"gt{t + 10:06d}.pgm")
    first = (f"mask {tmp_path / 'gt' / 'gt000010.pgm'} (number 10) is paired with "
             f"{tmp_path / 'vid' / 'frames' / 'frame_00000.pgm'} (number 0)")
    for tau in ([], ["--tau", "0.2"]):
        capsys.readouterr()
        code = main(["bgsub", "--frames", frames, "--truth", shifted,
                     "--out", str(tmp_path / "out"), "--chunk-length", "30", "--k", "4",
                     "--seed", "5", *tau])
        assert code == 2
        err = capsys.readouterr().err
        assert first in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()
    assert main(["bgsub", "--frames", frames, "--out", str(tmp_path / "run"),
                 "--chunk-length", "30", "--k", "4", "--seed", "5", "--tau", "0.2"]) == 0
    capsys.readouterr()
    assert main(["eval", "--masks", str(tmp_path / "run" / "masks" / "*.pgm"),
                 "--truth", shifted]) == 2
    err = capsys.readouterr().err
    assert f"mask {tmp_path / 'gt' / 'gt000010.pgm'} (number 10) is paired with " in err
    assert err.count("\n") == 1


def test_a_truth_pixel_neither_0_nor_maxval_exits_2(tmp_path, capsys):
    # Change-detection labels such as 85 (outside the region of interest) and
    # 170 (unknown motion, once read as foreground) are rejected, the first
    # one and its file named, before any chunk runs.
    main(synth_args(tmp_path / "vid", frames=30))
    masks = first_files(tmp_path / "vid" / "truth", tmp_path / "masks", 30)
    frames, truth = (str(tmp_path / "vid" / d / "*.pgm") for d in ("frames", "truth"))
    bad = tmp_path / "vid" / "truth" / "mask_00002.pgm"
    img, _ = load_pgm(str(bad))
    img[3, 4:8] = 0, 85, 170, 255
    save_pgm(str(bad), img)
    capsys.readouterr()
    for args in (["bgsub", "--frames", frames, "--out", str(tmp_path / "out"),
                  "--chunk-length", "30", "--k", "4", "--seed", "5"], ["eval", "--masks", masks]):
        assert main([*args, "--truth", truth]) == 2
        assert capsys.readouterr() == (
            "", f"error (invalid input): {bad}: mask pixel 85 is neither 0 nor maxval 255\n")
    assert not (tmp_path / "out").exists()


def test_names_without_digits_pair_by_position(tmp_path, capsys):
    # Frames or truth named without digits pair by sorted position, as
    # before: the sweep reports what the numbered files report.
    main(synth_args(tmp_path / "vid", frames=30))
    letters = lambda prefix: lambda t: f"{prefix}_{chr(97 + t // 26)}{chr(97 + t % 26)}.pgm"
    numbered_truth = str(tmp_path / "vid" / "truth" / "*.pgm")
    lettered_truth = renamed_files(tmp_path / "vid" / "truth", tmp_path / "t", letters("gt"))
    lettered_frames = renamed_files(tmp_path / "vid" / "frames", tmp_path / "f", letters("in"))
    runs = {"numbered": (str(tmp_path / "vid" / "frames" / "*.pgm"), numbered_truth),
            "lettered truth": (str(tmp_path / "vid" / "frames" / "*.pgm"), lettered_truth),
            "lettered frames": (lettered_frames, numbered_truth)}
    for i, (frames, truth) in enumerate(runs.values()):
        assert main(["bgsub", "--frames", frames, "--truth", truth,
                     "--out", str(tmp_path / f"out{i}"), "--chunk-length", "30", "--k", "4",
                     "--seed", "5"]) == 0
    reports = [(tmp_path / f"out{i}" / "report.txt").read_text() for i in range(len(runs))]
    assert reports[1] == reports[0] and reports[2] == reports[0]
    capsys.readouterr()
    assert main(["eval", "--masks", str(tmp_path / "out0" / "masks" / "*.pgm"),
                 "--truth", lettered_truth]) == 0
    assert "tp=" in capsys.readouterr().out


@pytest.mark.parametrize("n_frames, anchor, shortest", [(60, 500, 30), (75, 20, 15)])
def test_bgsub_anchor_outside_a_chunk_exits_2(tmp_path, capsys, n_frames, anchor, shortest):
    # 75 frames make chunks of 30, 30 and 15: anchor 20 fits the first two only.
    main(synth_args(tmp_path / "vid", frames=n_frames))
    capsys.readouterr()
    for tau in (["--tau", "0.2"], []):
        code = main([
            "bgsub", "--frames", str(tmp_path / "vid" / "frames" / "*.pgm"),
            "--truth", str(tmp_path / "vid" / "truth" / "*.pgm"),
            "--out", str(tmp_path / "out"), "--chunk-length", "30",
            "--k", "5", "--p", "2", "--q", "1", "--anchor", str(anchor),
            "--seed", "0", *tau,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"anchor frame {anchor} outside [0, {shortest - 1})" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "out").exists()


def test_bad_sketch_configuration_exits_2(tmp_path, capsys):
    main(synth_args(tmp_path / "vid", frames=20))
    code = main([
        "bgsub", "--frames", str(tmp_path / "vid" / "frames" / "*.pgm"),
        "--out", str(tmp_path / "out"), "--chunk-length", "10",
        "--k", "20", "--p", "2", "--q", "1", "--tau", "0.2", "--seed", "0",
    ])
    assert code == 2
    assert "invalid input" in capsys.readouterr().err


def test_bgsub_sketch_larger_than_a_frame_exits_2(tmp_path, capsys):
    # 3x3 frames hold 9 pixels, fewer than the default k+p = 13.
    main(["synth", "--out", str(tmp_path / "vid"), "--height", "3", "--width", "3",
          "--frames", "30", "--seed", "7"])
    capsys.readouterr()
    for tau in (["--tau", "0.2"], []):
        code = main([
            "bgsub", "--frames", str(tmp_path / "vid" / "frames" / "*.pgm"),
            "--truth", str(tmp_path / "vid" / "truth" / "*.pgm"),
            "--out", str(tmp_path / "out"), "--chunk-length", "30", "--seed", "0", *tau,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "k+p = 13 exceeds the 9 pixels of a frame" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "out").exists()


def test_blocked_output_path_exits_4(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    code = main(synth_args(blocker / "sub"))
    assert code == 4
    assert "file system" in capsys.readouterr().err


def test_eval_self_comparison(tmp_path, capsys):
    main(synth_args(tmp_path / "vid", frames=20))
    truth_glob = str(tmp_path / "vid" / "truth" / "*.pgm")
    csv_path = str(tmp_path / "m.csv")
    code = main(["eval", "--masks", truth_glob, "--truth", truth_glob,
                 "--out", csv_path])
    assert code == 0
    out = capsys.readouterr().out
    assert "recall=1.000000" in out
    assert "fp=0" in out
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["fn"] == "0" and rows[0]["tau"] == "nan"


def test_eval_disjoint_masks_warns_on_zero_denominator(tmp_path, capsys):
    os.makedirs(tmp_path / "a")
    os.makedirs(tmp_path / "b")
    for t in range(2):
        save_pgm(str(tmp_path / "a" / f"m_{t}.pgm"),
                 np.zeros((4, 4), dtype=np.uint8))
        save_pgm(str(tmp_path / "b" / f"m_{t}.pgm"),
                 np.full((4, 4), 255, dtype=np.uint8))
    code = main(["eval", "--masks", str(tmp_path / "a" / "*.pgm"),
                 "--truth", str(tmp_path / "b" / "*.pgm")])
    assert code == 0
    out = capsys.readouterr().out
    assert "zero denominator" in out


@pytest.mark.parametrize("predicted, truth, noted", [
    ("zeros", "half", True),   # tp + fp = 0: precision
    ("ones", "zeros", True),   # tp + fn = 0: recall
    ("ones", "ones", True),    # tn + fp = 0: specificity
    ("half", "half", False),
])
def test_eval_notes_each_zero_denominator(tmp_path, capsys, predicted, truth, noted):
    fills = {"zeros": np.zeros((4, 4)), "ones": np.ones((4, 4)),
             "half": np.repeat([[0], [1]], 2, axis=0) * np.ones((1, 4))}
    for name, fill in (("a", predicted), ("b", truth)):
        os.makedirs(tmp_path / name)
        save_pgm(str(tmp_path / name / "m_0.pgm"), (fills[fill] * 255).astype(np.uint8))
    code = main(["eval", "--masks", str(tmp_path / "a" / "*.pgm"),
                 "--truth", str(tmp_path / "b" / "*.pgm")])
    assert code == 0
    assert ("zero denominator" in capsys.readouterr().out) == noted


@pytest.mark.parametrize("args, reason", [
    (["bgsub", "--frames", "f/*.pgm", "--out", "out", "--seed", "5", "--tau", "abc"],
     "argument --tau: invalid float value: 'abc'"),
    (["synth", "--out", "out", "--seed", "7", "--rect=1,2,3"],
     "argument --rect: rect format: top,left,height,width,intensity,vy,vx"),
    (["bgsub", "--frames", "f/*.pgm", "--seed", "5"],
     "the following arguments are required: --out"),
    (["bgsub", "--frames", "f/*.pgm", "--out", "out", "--seed", "5", "--bogus"],
     "unrecognized arguments: --bogus"),
    # RunConfig checks the anchor, before the frames are scanned.
    (["bgsub", "--frames", "f/*.pgm", "--out", "out", "--seed", "5", "--anchor", "last"],
     "anchor must be 'first', 'median' or a frame index >= 0, got 'last'"),
    (["bgsub", "--frames", "f/*.pgm", "--out", "out", "--seed", "5", "--anchor", "-1"],
     "anchor must be 'first', 'median' or a frame index >= 0, got -1"),
    (["synth", "--out", "out", "--seed", "7", "--rect=1,2,x,3,1.0,0,0"],
     "argument --rect: bad rect '1,2,x,3,1.0,0,0'"),
])
def test_a_malformed_or_missing_option_exits_2_with_one_line(tmp_path, capsys, monkeypatch,
                                                             args, reason):
    # Each ends in main's one-line report, not in argparse's usage block and SystemExit.
    monkeypatch.chdir(tmp_path)
    assert main(args) == 2
    assert capsys.readouterr() == ("", f"error (invalid input): {reason}\n")
    assert os.listdir(tmp_path) == []


def test_svd_is_no_longer_a_subcommand(capsys):
    # The SVD timing experiment is scripts/svd_experiment.py. argparse's
    # wording after the choice differs between Python versions.
    assert main(["svd", "--out", "x.csv"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error (invalid input): argument command: invalid choice: 'svd'")


def test_decompose_is_no_longer_a_subcommand(capsys):
    # A one-chunk bgsub writes what decompose wrote, to chunk_000/.
    assert main(["decompose", "--frames", "f/*.pgm", "--out", "dec", "--seed", "5"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error (invalid input): argument command: invalid choice: 'decompose'")


def test_help_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bgsub", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: dmdmotion bgsub")


@pytest.mark.parametrize("noise", ["0", "0.1"])
def test_synth_negative_seed_exits_2(tmp_path, capsys, noise):
    # At noise 0 the seed draws nothing, and it is still rejected.
    code = main(["synth", "--out", str(tmp_path / "vid"), "--height", "8", "--width", "8",
                 "--frames", "4", "--noise", noise, "--seed", "-1"])
    assert code == 2
    assert capsys.readouterr().err == "error (invalid input): seed must be >= 0, got -1\n"
    assert not (tmp_path / "vid").exists()


@pytest.mark.parametrize("option, reason", [
    ("--rect=inf,0,2,2,0.5,0,0", "rectangle top must be finite, got inf"),
    ("--rect=0,-inf,2,2,0.5,0,0", "rectangle left must be finite, got -inf"),
    ("--rect=0,0,2,2,0.5,nan,0", "rectangle velocity must be finite, got (nan, 0.0)"),
    # 3 x 1e308 overflows by the last frame, though each number is finite.
    ("--rect=0,0,2,2,0.5,1e308,0", "objects[0] corner at frame 3 is not finite: (inf, 0.0)"),
    ("--rect=0,0,2,2,2.0,0,0", "intensity 2.0 outside [0, 1]"),
    ("--texture-amplitude=nan", "texture_amplitude must be finite, got nan"),
    ("--texture-period=inf", "texture_period must be finite, got inf"),
    ("--noise=nan", "noise_sigma must be finite, got nan"),
    ("--base-level=nan", "base_level must be finite, got nan"),
])
def test_synth_non_finite_or_out_of_range_values_exit_2(tmp_path, capsys, option, reason):
    # Each once ended in a traceback or wrote a video; NaN fails every
    # range comparison, so a NaN texture amplitude wrote a flat one.
    code = main(["synth", "--out", str(tmp_path / "vid"), "--height", "8", "--width", "8",
                 "--frames", "4", "--seed", "1", option])
    assert code == 2
    assert capsys.readouterr().err == f"error (invalid input): {reason}\n"
    assert not (tmp_path / "vid").exists()


def test_out_of_memory_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    # An allocation too large to make: its MemoryError, raised here by the
    # first frame's drawing without allocating, is reported like any other
    # bad configuration, and no file or directory is made.
    def frames(spec):
        raise MemoryError("Unable to allocate 149. GiB for an array with shape "
                          "(10000000000, 2) and data type float64")
        yield  # a generator: the error comes with the first frame

    monkeypatch.setattr(cli, "_frames", frames)
    code = main(["synth", "--out", str(tmp_path / "vid"), "--height", "100",
                 "--width", "100", "--frames", "2", "--seed", "1"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error (out of memory): Unable to allocate 149. GiB for an array with shape "
        "(10000000000, 2) and data type float64\n")
    assert not (tmp_path / "vid").exists()


@pytest.fixture(scope="module")
def video_48x64x120(tmp_path_factory):
    """Frames and truth globs of a 48x64, 120-frame synthetic video."""
    out = tmp_path_factory.mktemp("video_48x64x120")
    assert main(["synth", "--out", str(out), "--height", "48", "--width", "64",
                 "--frames", "120", "--noise", "0.03", "--rect", "10,2,8,8,0.8,0,0.5",
                 "--seed", "7"]) == 0
    return str(out / "frames" / "*.pgm"), str(out / "truth" / "*.pgm")


@pytest.mark.parametrize("kernel", [99999, 23])
def test_sweep_refuses_a_median_network_larger_than_a_chunk(tmp_path, capsys, video_48x64x120,
                                                            kernel):
    # One frame's network, 48*64*(kernel**2 + 8) bytes, against the float64
    # matrix of a 60-frame chunk, 8*48*64*60 = 1474560 bytes: refused before
    # the first chunk, so nothing is written.
    frames, truth = video_48x64x120
    capsys.readouterr()
    start = time.perf_counter()
    code = main(["bgsub", "--frames", frames, "--truth", truth, "--out", str(tmp_path / "run"),
                 "--chunk-length", "60", "--median-kernel", str(kernel), "--seed", "5"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    network = 48 * 64 * (kernel**2 + 8)
    assert capsys.readouterr().err == (
        f"error (invalid input): median_kernel {kernel} needs a {network}-byte median "
        f"network per frame in a sweep, more than the 1474560-byte float64 matrix of the "
        f"longest chunk\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("kernel, tau", [(21, None), (23, "0.2")])
def test_sweep_kernel_bound_admits_a_network_within_a_chunk(tmp_path, video_48x64x120, kernel,
                                                            tau):
    # 48*64*(21**2 + 8) = 1379328 bytes fit a 60-frame chunk's matrix; a
    # fixed tau builds no network, so its kernel is not bounded by it.
    frames, truth = video_48x64x120
    code = main(["bgsub", "--frames", frames, "--truth", truth, "--out", str(tmp_path / "run"),
                 "--chunk-length", "60", "--median-kernel", str(kernel), "--seed", "5",
                 *([] if tau is None else ["--tau", tau])])
    assert code == 0
    assert len(os.listdir(tmp_path / "run" / "masks")) == 120


@pytest.mark.parametrize("kernel, tau, code", [
    (2**32 + 1, "0.2", 2), (2**32 + 1, None, 2), (2**32 - 1, "0.2", 0),
])
def test_median_kernel_is_bounded_below_2_to_the_32(tmp_path, capsys, kernel, tau, code):
    # Below 2**32 the box sums of a fixed tau count kernel**2 votes in a
    # uint64; above it they would run on Python ints, about 10 us per pixel
    # of every frame. The refusal comes before the frames are scanned.
    main(synth_args(tmp_path / "vid", frames=30))
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["bgsub", "--frames", str(tmp_path / "vid" / "frames" / "*.pgm"),
                 "--truth", str(tmp_path / "vid" / "truth" / "*.pgm"),
                 "--out", str(tmp_path / "run"), "--chunk-length", "30", "--k", "4",
                 "--median-kernel", str(kernel), "--seed", "5",
                 *([] if tau is None else ["--tau", tau])]) == code
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    if code:
        assert err == (f"error (invalid input): median_kernel must be odd, >= 1 and < 2**32, "
                       f"got {kernel}\n")
        assert not (tmp_path / "run").exists()
    else:
        assert err == "" and len(os.listdir(tmp_path / "run" / "masks")) == 30


@st.composite
def tiny_runs(draw):
    """synth and bgsub arguments for a few tiny frames with random settings."""
    h, w, n = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(2, 40))
    coord, speed = st.integers(-2, 6), st.sampled_from([-0.5, 0.0, 0.25, 1.0])
    rects = [
        f"{draw(coord)},{draw(coord)},{draw(st.integers(1, 4))},{draw(st.integers(1, 4))},"
        f"{draw(st.sampled_from([0.0, 0.3, 1.0]))},{draw(speed)},{draw(speed)}"
        for _ in range(draw(st.integers(0, 2)))
    ]
    synth = ["--height", str(h), "--width", str(w), "--frames", str(n),
             "--noise", draw(st.sampled_from(["0", "0.05"])),
             "--seed", str(draw(st.integers(0, 3)))]
    for r in rects:
        synth += ["--rect", r]
    bgsub = ["--chunk-length", str(draw(st.integers(2, 40))),
             "--k", str(draw(st.integers(1, 6))), "--p", str(draw(st.integers(0, 2))),
             "--q", str(draw(st.integers(0, 2))),
             "--n-background", str(draw(st.integers(1, 3))),
             "--anchor", draw(st.sampled_from(["first", "median", "0", "4"])),
             "--median-kernel", draw(st.sampled_from(["1", "3"])),
             "--seed", str(draw(st.integers(0, 3)))]
    tau = draw(st.sampled_from([None, "0", "0.1"]))
    if tau is not None:
        bgsub += ["--tau", tau]
    return (n, h, w), synth, bgsub


@settings(deadline=None, max_examples=50)
@given(tiny_runs())
def test_fuzzed_tiny_runs_exit_cleanly_with_one_mask_per_frame(run):
    shape, synth, bgsub = run
    with tempfile.TemporaryDirectory() as tmp:
        assert main(["synth", "--out", tmp, *synth]) == 0
        code = main(["bgsub", "--frames", os.path.join(tmp, "frames", "*.pgm"),
                     "--truth", os.path.join(tmp, "truth", "*.pgm"),
                     "--out", os.path.join(tmp, "out"), *bgsub])
        assert code in (0, 2, 3)
        if code == 0:
            masks = load_masks(os.path.join(tmp, "out", "masks", "*.pgm"))
            assert masks.masks.shape == shape



def corrupt(path, fault, wide):
    """Rewrite one 16x16 frame or mask file with one fault, in 16 bits if wide."""
    maxval = 1000 if wide else 200
    raster = np.full((16, 16), 100, dtype=">u2" if wide else np.uint8)
    if fault == "pixel above maxval":
        raster[7, 9] = maxval + 1
    header = f"P5\n16 16\n{maxval}\n".encode()
    if fault == "directory":
        os.remove(path)
        os.mkdir(path)
    elif fault == "geometry change":
        save_pgm(path, np.zeros((16, 15), dtype=np.uint16), maxval)
    else:
        open(path, "wb").write({
            "non-numeric header": b"P5\n16 x\n255\n" + raster.tobytes(),
            "truncated header": b"P5\n16 16\n",
            "non-P5 header": b"P2" + header[2:] + raster.tobytes(),
            "truncated raster": header + raster.tobytes()[:-1],
            "pixel above maxval": header + raster.tobytes(),
            "zero-byte file": b"",
        }[fault])


@pytest.mark.parametrize("fault", [
    "non-numeric header", "truncated header", "non-P5 header", "truncated raster",
    "pixel above maxval", "geometry change", "zero-byte file", "directory",
])
@settings(deadline=None, max_examples=8)
@given(in_truth=st.booleans(), index=st.integers(0, 23), wide=st.booleans(),
       sweep=st.booleans())
def test_a_corrupt_input_file_exits_with_its_path_and_writes_nothing(fault, in_truth, index,
                                                                     wide, sweep):
    # One file of a valid 24-frame set or of its truth is corrupted in one
    # way; the frames are 8-bit or maxval 1000. The run stops before its
    # first chunk with the documented exit code (4 for a directory, which
    # cannot be read as a file; 2 for every other fault) and one stderr line
    # that names the file. A first file of another geometry is named by the
    # second, which differs from it.
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        assert main(synth_args(tmp)) == 0
        frames = sorted(glob.glob(os.path.join(tmp, "frames", "*.pgm")))
        truth = sorted(glob.glob(os.path.join(tmp, "truth", "*.pgm")))
        if wide:
            for p in frames:
                img, _ = load_pgm(p)
                save_pgm(p, np.rint(img * (1000 / 255)).astype(np.uint16), 1000)
        files = truth if in_truth else frames
        corrupt(files[index], fault, wide and not in_truth)
        named = files[1 if fault == "geometry change" and index == 0 else index]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["bgsub", "--frames", os.path.join(tmp, "frames", "*.pgm"),
                         "--truth", os.path.join(tmp, "truth", "*.pgm"),
                         "--out", os.path.join(tmp, "out"), "--chunk-length", "12",
                         "--k", "4", "--p", "2", "--q", "1", "--seed", "0",
                         *([] if sweep else ["--tau", "0.2"])])
        assert code == (4 if fault == "directory" else 2)
        assert err.getvalue().count("\n") == 1 and named in err.getvalue()
        assert not os.path.exists(os.path.join(tmp, "out", "chunk_000"))
        assert not os.path.exists(os.path.join(tmp, "out", "masks"))


def test_svd_benchmark_csv(tmp_path, capsys, svd_experiment):
    # The SVD timing experiment is scripts/svd_experiment.py: one CSV row per q.
    path = tmp_path / "bench.csv"
    assert svd_experiment.main(["--out", str(path)]) == 0
    assert capsys.readouterr().out.endswith(f"wrote 3 rows to {path}\n")
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["rows", "cols", "k", "q", "deterministic_seconds",
                             "randomized_seconds", "deterministic_error", "randomized_error"]
    assert [(r["rows"], r["cols"], r["k"], r["q"]) for r in rows] == [
        ("80", "40", "5", "0"), ("80", "40", "5", "1"), ("80", "40", "5", "2")
    ]


def test_moving_square_experiment_csv(tmp_path, capsys, moving_square_experiment):
    # One CSV row per noise level of scripts/moving_square_experiment.py.
    path = tmp_path / "square.csv"
    assert moving_square_experiment.main(["--out", str(path)]) == 0
    assert capsys.readouterr().out.endswith(f"wrote {path}\n")
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["sigma", "best_f_raw", "best_f_filtered", "auc", "best_tau_raw",
                             "seconds"]
    assert [float(r["sigma"]) for r in rows] == list(moving_square_experiment.SIGMAS)
    for r in rows:
        assert all(0 <= float(r[key]) <= 1 for key in ("best_f_raw", "best_f_filtered", "auc"))


@pytest.mark.parametrize("q, code", [(11, 0), (12, 2)])
def test_subspace_iterations_are_bounded_by_the_snapshot_pairs(tmp_path, capsys, q, code):
    # Chunks of 12 frames have 11 snapshot pairs; one more iteration is
    # refused before the first chunk, so nothing is written.
    main(synth_args(tmp_path / "vid"))
    assert main(["bgsub", "--frames", str(tmp_path / "vid" / "frames" / "*.pgm"),
                 "--out", str(tmp_path / "run"), "--chunk-length", "12", "--tau", "0.2",
                 "--k", "4", "--p", "2", "--q", str(q), "--seed", "3"]) == code
    if code:
        assert capsys.readouterr().err == (
            f"error (invalid input): q = {q} subspace iterations exceed the 11 snapshot "
            f"pairs of the shortest chunk (12 frames)\n")
        assert not (tmp_path / "run").exists()


# Boundary values of every option: none of them makes a large array, since
# 2**63 frames or pixels cannot be allocated at all. An option may also take
# one of its listed choices, such as an input's glob.
FUZZ_VALUES = ["0", "1", "-1", str(2**63), "nan", "inf", "", "abc"]
FUZZ_OPTIONS = {
    "synth": {"--out": ["<fresh>"], "--seed": ["0", "1"], "--height": [], "--width": [],
              "--frames": [], "--base-level": [], "--noise": [], "--texture-amplitude": [],
              "--texture-period": [], "--rect": []},
    "bgsub": {"--frames": ["<frames>", "<bad frames>"], "--truth": ["<truth>", "<bad truth>"],
              "--out": ["<fresh>"], "--seed": ["0", "1"], "--chunk-length": [], "--k": [],
              "--p": [], "--q": [], "--n-background": [], "--anchor": ["first", "median"],
              "--tau": [], "--median-kernel": [str(2**32 - 1), str(2**32 + 1)],
              "--save-residuals": None},
    "eval": {"--masks": ["<truth>", "<bad truth>", "<frames>"],
             "--truth": ["<truth>", "<bad truth>"], "--out": ["<fresh>"]},
}
# Given in every example, so that most of them get past the parser.
FUZZ_REQUIRED = {"synth": 2, "bgsub": 4, "eval": 2}


class _Timeout(BaseException):
    """Raised on SIGALRM; main catches only Exception subclasses, so it escapes."""


def _raise_timeout(signum, frame):
    raise _Timeout


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Globs of a 16x16x40 video, its truth, and copies with one file mutated."""
    root = tmp_path_factory.mktemp("fuzz_inputs")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(synth_args(root, frames=40)) == 0
    shutil.copytree(root / "frames", root / "bad_frames")
    shutil.copytree(root / "truth", root / "bad_truth")
    raster = np.full((16, 16), 100, dtype=np.uint8).tobytes()
    (root / "bad_frames" / "frame_00017.pgm").write_bytes(b"P5\n16 x\n255\n" + raster)
    (root / "bad_truth" / "frame_00023.pgm").write_bytes(b"P5\n16 16\n255\n" + raster)
    return {f"<{name.replace('_', ' ')}>": str(root / name / "*.pgm")
            for name in ("frames", "truth", "bad_frames", "bad_truth")}


@st.composite
def fuzzed_argv(draw):
    """A subcommand, its first FUZZ_REQUIRED options and up to three more, with values.

    An option with choices takes one of them three times in four.
    """
    command = draw(st.sampled_from(sorted(FUZZ_OPTIONS)))
    options = list(FUZZ_OPTIONS[command])
    required, optional = options[:FUZZ_REQUIRED[command]], options[FUZZ_REQUIRED[command]:]
    argv = [command]
    value = st.sampled_from(FUZZ_VALUES)
    for option in required + draw(st.lists(st.sampled_from(optional), max_size=3, unique=True)):
        inputs = FUZZ_OPTIONS[command][option]
        if inputs is None:
            argv.append(option)
        elif option == "--rect" and draw(st.booleans()):
            argv += [option, ",".join(draw(value) for _ in range(7))]
        elif inputs and draw(st.integers(0, 3)) < 3:
            argv += [option, draw(st.sampled_from(inputs))]
        else:
            argv += [option, draw(value)]
    return argv


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(fuzzed_argv())
@example(["bgsub", "--frames", "<frames>", "--truth", "<truth>", "--out", "<fresh>", "--seed", "0"])
@example(["bgsub", "--frames", "<frames>", "--out", "<fresh>", "--seed", "1", "--tau", "0",
          "--median-kernel", "1", "--save-residuals"])
@example(["bgsub", "--frames", "<frames>", "--truth", "<truth>", "--out", "<fresh>",
          "--seed", str(2**63), "--q", str(2**63), "--chunk-length", str(2**63)])
@example(["bgsub", "--frames", "<frames>", "--truth", "<truth>", "--out", "<fresh>",
          "--seed", "0", "--median-kernel", str(2**63 + 1)])
@example(["bgsub", "--frames", "<frames>", "--out", "<fresh>", "--seed", "0", "--tau", "1",
          "--median-kernel", str(2**63 + 1)])
@example(["bgsub", "--frames", "<frames>", "--out", "<fresh>", "--seed", "0", "--tau", "1",
          "--median-kernel", str(2**32 + 1)])
@example(["bgsub", "--frames", "<frames>", "--out", "<fresh>", "--seed", "0", "--tau", "1",
          "--median-kernel", str(2**32 - 1)])
def test_fuzzed_options_end_in_a_documented_exit_within_10_seconds(fuzz_inputs, argv):
    # Whatever the values, each call returns a documented exit code within
    # 10 s, with at most one stderr line and no warning, and no exception
    # escapes main. Relative outputs land in the example's own directory.
    # The explicit examples are a sweep and a fixed tau that succeed, and the
    # largest values of the options that set a loop's length; the kernel
    # 2**63 + 1 is the odd neighbour of 2**63, which is refused as even, and
    # 2**32 - 1 and 2**32 + 1 are the kernels on either side of its bound.
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        argv = [{**fuzz_inputs, "<fresh>": os.path.join(tmp, "out")}.get(a, a) for a in argv]
        err = io.StringIO()
        previous = signal.signal(signal.SIGALRM, _raise_timeout)
        os.chdir(tmp)
        try:
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                signal.alarm(10)
                code = main(argv)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            os.chdir(cwd)
    assert code in (0, 2, 3, 4, 5), argv
    assert len(err.getvalue().splitlines()) <= 1, argv
    assert not caught, (argv, [str(w.message) for w in caught])
