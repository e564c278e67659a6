"""End-to-end pipeline: chunking, sweeps, outputs."""

import csv
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import weakref
from dataclasses import astuple, replace

import numpy as np
import pytest
from numpy.linalg import lapack_lite

import dmdmotion
from dmdmotion import evaluation as ev
from dmdmotion import dmd, io_formats, linalg, pipeline
from dmdmotion.background import ForegroundMaskSequence, ResidualSequence
from dmdmotion.cli import main
from dmdmotion.dmd import SnapshotMatrix, rdmd
from dmdmotion.errors import DegenerateDataError
from dmdmotion.io_formats import (
    load_masks,
    load_matrix,
    load_pgm,
    save_frames,
    save_masks,
    save_pgm,
)
from dmdmotion.linalg import SketchConfig
from dmdmotion.pipeline import RunConfig, chunk_bounds, render_report, run_bgsub
from dmdmotion.synthetic import MovingRect, SyntheticSpec, generate_synthetic

from helpers import (
    median_filter,
    output_files,
    partition_sweep_counts,
    reference_run,
    searchsorted_ranks,
    threshold_mask,
    window_medians_by_partition,
)

SQUARE = SyntheticSpec(
    frame_height=24,
    frame_width=24,
    n_frames=60,
    noise_sigma=0.04,
    objects=(MovingRect(9.0, 2.0, 5, 5, 1.0, (0.0, 0.3)),),
    seed=21,
)


# ------------------------------------------------------------------ config

def test_config_requires_exactly_one_input():
    with pytest.raises(ValueError, match="exactly one"):
        RunConfig()
    with pytest.raises(ValueError, match="exactly one"):
        RunConfig(frames="*.pgm", synthetic=SQUARE)
    # Synthetic input brings its own truth; a truth glob beside it would go unread.
    with pytest.raises(ValueError, match="truth is for frames"):
        RunConfig(synthetic=SQUARE, truth="/nonexistent/*.pgm")


def test_config_rejects_residuals_without_an_output_dir():
    # Such a run once ended normally and wrote no residual.
    with pytest.raises(ValueError, match="save_residuals needs an output_dir"):
        RunConfig(synthetic=SQUARE, save_residuals=True)
    assert RunConfig(synthetic=SQUARE, save_residuals=True, output_dir="out").save_residuals


def test_config_validates_sketch_against_chunk():
    with pytest.raises(ValueError, match="chunk_length"):
        RunConfig(synthetic=SQUARE, chunk_length=10, k=9, p=2)
    with pytest.raises(ValueError, match="chunk_length must be >= 2, got 1"):
        RunConfig(synthetic=SQUARE, chunk_length=1)
    for bad in ({"k": 0}, {"p": -1}, {"q": -1}):
        with pytest.raises(ValueError, match="need k >= 1, p >= 0, q >= 0"):
            RunConfig(synthetic=SQUARE, **bad)
    with pytest.raises(ValueError, match="n_background must be >= 1"):
        RunConfig(synthetic=SQUARE, n_background=0)
    # A float or bool count would pass the range checks and fail inside numpy.
    for name, bad in (("k", 2.5), ("p", 1.0), ("q", True), ("chunk_length", 20.5),
                      ("n_background", True), ("n_background", "3")):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {bad!r}"):
            RunConfig(synthetic=SQUARE, **{name: bad})
    cfg = RunConfig(synthetic=SQUARE, k=np.int64(4), chunk_length=np.int32(30))
    assert (cfg.k, cfg.chunk_length) == (4, 30)
    # A bool tau would run and report "threshold: True"; a string failed in numpy.
    for tau in (True, np.bool_(False), "0.2", 0.2j):
        with pytest.raises(ValueError, match=f"tau must be a real number, got {tau!r}"):
            RunConfig(synthetic=SQUARE, tau=tau)
    for tau in (0, 0.2, np.float32(0.5), np.int64(1)):
        assert RunConfig(synthetic=SQUARE, tau=tau).tau == tau


@pytest.mark.parametrize("fields", [
    {"frames": 123}, {"frames": "f/*.pgm", "truth": b"t/*.pgm"},
    {"frames": "f/*.pgm", "output_dir": 5}, {"synthetic": "abc"},
    {"synthetic": SQUARE, "output_dir": "out", "save_residuals": 1},
])
def test_config_rejects_a_field_of_the_wrong_type(fields):
    # frames 123 once ended in a TypeError from glob, synthetic "abc" in an
    # AttributeError.
    name, bad = list(fields.items())[-1]
    with pytest.raises(ValueError, match=f"^{name} must be .*, got {re.escape(repr(bad))}$"):
        RunConfig(**fields)


def test_config_accepts_a_path_as_output_dir(tmp_path):
    assert RunConfig(synthetic=SQUARE, output_dir=tmp_path).output_dir == tmp_path


def test_report_spells_tau_as_a_float():
    # report.txt spells tau by repr: np.float64(0.2) once wrote
    # "threshold: np.float64(0.2) -> tau=np.float64(0.2)" and 1 "threshold: 1 -> tau=1".
    spec = replace(SQUARE, frame_height=16, frame_width=16, n_frames=40)
    reports = [run_bgsub(RunConfig(synthetic=spec, k=3, chunk_length=40, tau=tau))
               for tau in (0.2, np.float64(0.2), 1)]
    lines = [render_report(r).splitlines()[2] for r in reports]
    assert lines == ["threshold: 0.2 -> tau=0.2"] * 2 + ["threshold: 1.0 -> tau=1.0"]
    assert np.array_equal(reports[0].masks.masks, reports[1].masks.masks)


def test_config_rejects_more_background_modes_than_k():
    # With k 3, n_background 30 made every retained mode background.
    with pytest.raises(ValueError, match="n_background = 30 exceeds k = 3"):
        RunConfig(synthetic=SQUARE, k=3, n_background=30)
    assert RunConfig(synthetic=SQUARE, k=3, n_background=3).n_background == 3


def test_rank_collapsed_chunk_clamps_its_background_modes():
    # A chunk that retains fewer usable modes than n_background takes all of
    # them: a property of its data, not a config error.
    spec = replace(SQUARE, objects=(), noise_sigma=0.0)
    report = run_bgsub(RunConfig(synthetic=spec, k=5, n_background=4, tau=0.1,
                                 chunk_length=20))
    for c in report.chunks:
        assert c.ok and c.retained_rank < 4
        assert c.background_indices == tuple(range(c.retained_rank))


def test_config_rejects_even_kernel():
    with pytest.raises(ValueError, match="odd"):
        RunConfig(synthetic=SQUARE, median_kernel=4)
    with pytest.raises(ValueError, match=re.escape(
            f"median_kernel must be odd, >= 1 and < 2**32, got {2**32 + 1}")):
        RunConfig(synthetic=SQUARE, median_kernel=2**32 + 1)
    assert RunConfig(synthetic=SQUARE, median_kernel=2**32 - 1).median_kernel == 2**32 - 1
    for kernel in (3.0, False):
        with pytest.raises(ValueError, match=f"median_kernel must be an integer, got {kernel!r}"):
            RunConfig(synthetic=SQUARE, median_kernel=kernel)


def test_config_rejects_unknown_anchor():
    for anchor in ("middle", "", -1, 2.0, True, False):
        with pytest.raises(ValueError, match="anchor must be"):
            RunConfig(synthetic=SQUARE, anchor=anchor)
    for anchor in ("first", "median", 0, np.int64(3)):
        assert RunConfig(synthetic=SQUARE, anchor=anchor).anchor == anchor


def test_config_rejects_negative_seed_and_bad_tau():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        RunConfig(synthetic=SQUARE, seed=-1)
    for seed in (1.5, True):
        with pytest.raises(ValueError, match=f"seed must be an integer, got {seed!r}"):
            RunConfig(synthetic=SQUARE, seed=seed)
    for tau in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tau must be finite and nonnegative"):
            RunConfig(synthetic=SQUARE, tau=tau)


# ------------------------------------------------------------------ chunking

def test_chunk_bounds_exact_division():
    assert chunk_bounds(100, 50, 10) == [(0, 50), (50, 100)]


def test_chunk_bounds_keeps_long_tail():
    assert chunk_bounds(120, 50, 10) == [(0, 50), (50, 100), (100, 120)]


def test_chunk_bounds_merges_short_tail():
    # 5-frame tail is below min_frames=10, so it joins the previous chunk
    assert chunk_bounds(105, 50, 10) == [(0, 50), (50, 105)]


def test_chunk_bounds_single_short_sequence_raises():
    with pytest.raises(ValueError, match="at least"):
        chunk_bounds(5, 50, 10)


# ------------------------------------------------------------------ runs

def test_static_video_fixed_tau_gives_empty_masks(tmp_path):
    cfg = RunConfig(
        synthetic=SyntheticSpec(frame_height=12, frame_width=12, n_frames=40, seed=0),
        k=3, p=2, q=1, tau=0.25, chunk_length=40,
        output_dir=str(tmp_path),
    )
    report = run_bgsub(cfg)
    assert report.masks is not None
    assert not report.masks.masks.any()
    assert len(report.chunks) == 1
    assert report.chunks[0].ok
    # constant video: one retained mode, zero frequency
    assert report.chunks[0].retained_rank == 1
    assert abs(report.chunks[0].omega[0]) <= 1e-10
    # truth has no foreground at all, so metrics exist but no curve does
    assert (tmp_path / "metrics.csv").exists()
    assert not (tmp_path / "roc.csv").exists()


def test_sweep_with_single_class_truth_rejected(tmp_path, monkeypatch):
    # Truth of one class gives no ROC to sweep. The run is rejected before any
    # chunk is decomposed, so it writes nothing.
    def no_rdmd(*args, **kwargs):
        raise AssertionError("a chunk was decomposed")

    monkeypatch.setattr(pipeline, "rdmd", no_rdmd)
    # A static video's truth has no foreground.
    cfg = RunConfig(
        synthetic=SyntheticSpec(frame_height=12, frame_width=12, n_frames=40, seed=0),
        k=3, p=2, q=1, chunk_length=40, output_dir=str(tmp_path / "out"),
    )
    with pytest.raises(ValueError, match="truth contains no foreground pixels"):
        run_bgsub(cfg)
    D, _ = generate_synthetic(SQUARE)
    save_frames(str(tmp_path / "frames"), D)
    save_masks(str(tmp_path / "truth"), ForegroundMaskSequence(np.ones((60, 24, 24))))
    cfg = RunConfig(frames=str(tmp_path / "frames" / "*.pgm"),
                    truth=str(tmp_path / "truth" / "*.pgm"),
                    k=5, p=2, q=1, chunk_length=30, output_dir=str(tmp_path / "out"))
    with pytest.raises(ValueError, match="truth contains no background pixels"):
        run_bgsub(cfg)
    assert not (tmp_path / "out").exists()


def test_sweep_without_truth_rejected(tmp_path):
    D, _ = generate_synthetic(SQUARE)
    save_frames(str(tmp_path), D)
    cfg = RunConfig(frames=str(tmp_path / "frame_*.pgm"),
                    k=5, p=2, q=1, chunk_length=60)
    with pytest.raises(ValueError, match="ground truth"):
        run_bgsub(cfg)


def test_sweep_summary_and_final_metrics():
    cfg = RunConfig(synthetic=SQUARE, k=5, p=2, q=1, chunk_length=60)
    report = run_bgsub(cfg)
    assert report.tau is not None
    s = report.summary
    for key in ("best_tau_raw", "best_f_raw", "best_tau_filtered",
                "best_f_filtered", "auc", "recall", "precision",
                "specificity", "f_measure"):
        assert key in s
    assert s["best_f_raw"] > 0.5
    assert s["auc"] > 0.9
    # the final masks are the ones whose counts chose the filtered optimum
    assert s["f_measure"] == s["best_f_filtered"]
    _, truth = generate_synthetic(SQUARE)
    rates = ev.rates(ev.confusion(report.masks, truth))
    for key in ("recall", "precision", "specificity", "f_measure"):
        assert s[key] == rates[key]


def test_sweep_equals_per_threshold_loop_over_saved_residuals(tmp_path):
    # The summary and metrics.csv of a two-chunk run equal the per-threshold
    # mask loop over the pooled residuals read back from residual.mat.
    cfg = RunConfig(synthetic=SQUARE, k=5, p=2, q=1, chunk_length=30,
                    output_dir=str(tmp_path / "run"), save_residuals=True)
    s = run_bgsub(cfg).summary
    _, truth = generate_synthetic(SQUARE)
    S = ResidualSequence(
        np.concatenate([load_matrix(str(tmp_path / "run" / f"chunk_{i:03d}" / "residual.mat"))
                        for i in range(2)], axis=1),
        SQUARE.frame_height, SQUARE.frame_width,
    )
    taus = ev.tau_grid(float(S.values.max()))

    def counts(tau, kernel):
        masks = threshold_mask(S, float(tau)).masks
        if kernel > 1:
            masks = np.stack([median_filter(frame, kernel) for frame in masks])
        return ev.confusion(ForegroundMaskSequence(masks), truth)

    def best(kernel):
        best_tau, best_f = 0.0, -1.0
        for tau in np.unique(taus):
            f = ev.rates(counts(tau, kernel))["f_measure"]
            if f > best_f:
                best_tau, best_f = float(tau), f
        return best_tau, best_f

    fpr = [0.0] + [1.0 - ev.rates(counts(t, 1))["specificity"] for t in taus[::-1]] + [1.0]
    tpr = [0.0] + [ev.rates(counts(t, 1))["recall"] for t in taus[::-1]] + [1.0]
    assert (s["best_tau_raw"], s["best_f_raw"]) == best(1)
    assert (s["best_tau_filtered"], s["best_f_filtered"]) == best(cfg.median_kernel)
    assert s["auc"] == float(np.trapezoid(tpr, fpr))
    ev.write_metrics_csv(str(tmp_path / "loop.csv"), taus,
                         [astuple(counts(t, 1)) for t in taus])
    assert (tmp_path / "run" / "metrics.csv").read_bytes() == (
        tmp_path / "loop.csv").read_bytes()


@pytest.mark.parametrize("kernel", [1, 3, 5])
def test_sweep_outputs_equal_the_partition_oracle(tmp_path, monkeypatch, kernel):
    # Three chunks: the first with empty truth, the second with all-true
    # truth, the third with the square's. The oracle sweeps the float64
    # residual, filtered by partitioning each window, one tau at a time.
    D, truth = generate_synthetic(SQUARE)
    masks = truth.masks.copy()
    masks[:20], masks[20:40] = False, True
    save_frames(str(tmp_path / "frames"), D)
    save_masks(str(tmp_path / "truth"), ForegroundMaskSequence(masks))

    def run(name):
        run_bgsub(RunConfig(frames=str(tmp_path / "frames" / "*.pgm"),
                            truth=str(tmp_path / "truth" / "*.pgm"), k=5, chunk_length=20,
                            median_kernel=kernel, output_dir=str(tmp_path / name)))
        return tmp_path / name

    def oracle_sweep_counts(S, t, taus, k, ranks=None):
        if ranks is not None:
            ranks[...] = searchsorted_ranks(S, taus)
            if k > 1:
                ranks[...] = window_medians_by_partition(ranks, k)
        return partition_sweep_counts(S, t, taus), partition_sweep_counts(S, t, taus, k)

    new = run("new")
    monkeypatch.setattr(ev, "sweep_counts", oracle_sweep_counts)
    oracle = run("oracle")
    names = ["metrics.csv", "roc.csv", "report.txt"] + [
        os.path.join("masks", f) for f in sorted(os.listdir(oracle / "masks"))]
    assert len(names) == 3 + SQUARE.n_frames
    for name in names:
        assert (new / name).read_bytes() == (oracle / name).read_bytes(), name


def test_only_a_fixed_tau_run_filters_masks(monkeypatch):
    # A sweep's masks are the filtered ranks that it scored, so it never
    # calls filter_masks; a fixed tau filters each chunk that ran, once.
    def no_filter(seq, kernel=3):
        raise AssertionError("a sweep filtered its masks again")

    monkeypatch.setattr(pipeline.bg, "filter_masks", no_filter)
    for kernel in (1, 3, 5):
        report = run_bgsub(RunConfig(synthetic=SQUARE, k=5, p=2, q=1, chunk_length=20,
                                     median_kernel=kernel))
        assert report.summary["f_measure"] == report.summary["best_f_filtered"]

    def rdmd_failing_chunk_1(D, sketch, anchor):
        if sketch.seed == 1:
            raise DegenerateDataError("chunk 1 fails")
        return rdmd(D, sketch, anchor=anchor)

    calls = []
    monkeypatch.setattr(pipeline.bg, "filter_masks",
                        lambda seq, kernel=3, out=None: calls.append(kernel) or seq)
    monkeypatch.setattr(pipeline, "rdmd", rdmd_failing_chunk_1)
    report = run_bgsub(RunConfig(synthetic=SQUARE, k=5, p=2, q=1, chunk_length=20, tau=0.2))
    assert [c.ok for c in report.chunks] == [True, False, True]
    assert calls == [3, 3]


def test_rerun_is_bit_identical(tmp_path):
    def run(sub):
        out = tmp_path / sub
        cfg = RunConfig(synthetic=SQUARE, k=5, p=2, q=1, chunk_length=60,
                        output_dir=str(out))
        run_bgsub(cfg)
        return out

    a, b = run("a"), run("b")
    assert (a / "report.txt").read_bytes() == (b / "report.txt").read_bytes()
    masks_a = sorted(os.listdir(a / "masks"))
    assert masks_a == sorted(os.listdir(b / "masks"))
    for name in masks_a:
        assert (a / "masks" / name).read_bytes() == (b / "masks" / name).read_bytes()
    assert (a / "roc.csv").read_bytes() == (b / "roc.csv").read_bytes()
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()


# One sweep at the default settings, run in a fresh interpreter so the BLAS
# thread count set in its environment takes effect.
_SWEEP_RUN = """
import hashlib, json
from dmdmotion.pipeline import RunConfig, run_bgsub
from dmdmotion.synthetic import MovingRect, SyntheticSpec
spec = SyntheticSpec(frame_height=64, frame_width=64, n_frames=200, noise_sigma=0.1,
                     objects=(MovingRect(24.0, 2.0, 8, 8, 0.8, (0.0, 0.3)),), seed=3)
r = run_bgsub(RunConfig(synthetic=spec))
print(json.dumps({"tau": r.tau, "f": r.summary["f_measure"], "auc": r.summary["auc"],
                  "masks": hashlib.sha256(r.masks.masks.tobytes()).hexdigest()}))
"""


def test_masks_do_not_depend_on_the_blas_thread_count():
    # Floats are reproducible at one thread count only: the BLAS may sum in a
    # different order with more threads. Masks must not change.
    src = os.path.dirname(os.path.dirname(dmdmotion.__file__))
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", _SWEEP_RUN], env=env, check=True,
                             capture_output=True, text=True).stdout
        runs.append(json.loads(out))
    one, two = runs
    assert one["masks"] == two["masks"]
    assert abs(one["tau"] - two["tau"]) <= 1e-12 * one["tau"]
    assert abs(one["f"] - two["f"]) <= 1e-12
    assert abs(one["auc"] - two["auc"]) <= 1e-12


# rsvd's factors of one matrix at two sketch sizes (the second above LAPACK's
# 32-column block), against the same call with every thin QR taken by
# np.linalg.qr, in a fresh interpreter so its BLAS thread count takes effect.
_QR_RUN = """
import hashlib, json
import numpy as np
from dmdmotion import linalg
from helpers import reference_range_finder
A = np.random.default_rng(8).uniform(size=(20000, 99))
cfgs = [linalg.SketchConfig(rank=20, oversampling=2, subspace_iters=2, seed=1),
        linalg.SketchConfig(rank=40, oversampling=2, subspace_iters=1, seed=2)]
def digests():
    out = []
    for cfg in cfgs:
        f = linalg.rsvd(A, cfg)
        out.append([hashlib.sha256(x.tobytes()).hexdigest()
                    for x in (f.U, f.singular_values, f.V)])
    return out
lapack = digests()
linalg._range_finder = reference_range_finder
print(json.dumps({"lapack": lapack, "reference": digests()}))
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_rsvd_factors_equal_the_numpy_qr_reference(threads):
    paths = [os.path.dirname(os.path.dirname(dmdmotion.__file__)), os.path.dirname(__file__)]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join(filter(None, [*paths, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _QR_RUN], env=env, check=True,
                         capture_output=True, text=True).stdout
    run = json.loads(out)
    assert run["lapack"] == run["reference"]


def test_a_lapack_failure_fails_its_chunk_and_the_run_continues(monkeypatch):
    # dgeqrf reports info=1 on every factorization of chunk 1 only.
    real = lapack_lite.dgeqrf

    def failing(*args):
        return {**real(*args), "info": 1} if args[-2] != -1 else real(*args)

    failing.__name__ = "dgeqrf"

    def rdmd_failing_chunk_1(D, sketch, anchor):
        with monkeypatch.context() as patch:
            if sketch.seed == 1:
                patch.setattr(lapack_lite, "dgeqrf", failing)
            return rdmd(D, sketch, anchor=anchor)

    monkeypatch.setattr(pipeline, "rdmd", rdmd_failing_chunk_1)
    report = run_bgsub(RunConfig(synthetic=SQUARE, k=5, chunk_length=20, tau=0.3))
    assert [c.ok for c in report.chunks] == [True, False, True]
    assert report.chunks[1].error == "LinAlgError: dgeqrf returns 1"
    assert not report.masks.masks[20:40].any()
    assert report.masks.masks[:20].any() and report.masks.masks[40:].any()


def test_each_decomposition_is_freed_once_it_is_written(tmp_path, monkeypatch):
    # The run writes each chunk's outputs before it reads the next chunk, so
    # when a chunk is decomposed every earlier decomposition is dead.
    refs = []

    def tracked_rdmd(*args, **kwargs):
        assert all(ref() is None for ref in refs)
        dec = rdmd(*args, **kwargs)
        refs.append(weakref.ref(dec))
        return dec

    monkeypatch.setattr(pipeline, "rdmd", tracked_rdmd)
    cfg = RunConfig(synthetic=SQUARE, k=5, p=2, q=1, chunk_length=20,
                    output_dir=str(tmp_path), save_residuals=True)
    report = run_bgsub(cfg)
    assert len(refs) == 3 and all(c.ok for c in report.chunks)
    assert all(ref() is None for ref in refs)
    assert (tmp_path / "chunk_002" / "residual.mat").exists()


def test_written_masks_equal_the_reports_masks_over_ten_chunks(tmp_path):
    # Each of ten chunks writes its frames of the run's masks once they are
    # final, and the files equal the masks that the report returns.
    report = run_bgsub(RunConfig(synthetic=SQUARE, k=3, p=2, q=1, chunk_length=6, tau=0.05,
                                 output_dir=str(tmp_path)))
    assert len(report.chunks) == 10
    assert len(list(tmp_path.glob("chunk_*"))) == sum(c.ok for c in report.chunks)
    assert report.masks.masks.any(axis=(1, 2)).sum() > 40
    written = load_masks(str(tmp_path / "masks" / "*.pgm"))
    assert np.array_equal(written.masks, report.masks.masks)


@pytest.mark.parametrize("tau", [None, 0.05])
def test_every_output_is_written_on_the_calling_thread(tmp_path, monkeypatch, tau):
    # A chunk's decomposition and fixed-tau masks, and a sweep's masks, are
    # all written by the run itself.
    calls = []

    def on_this_thread(fn):
        def call(*args, **kwargs):
            calls.append((fn.__name__, threading.get_ident()))
            return fn(*args, **kwargs)
        return call

    for name in ("save_masks", "save_decomposition"):
        monkeypatch.setattr(io_formats, name, on_this_thread(getattr(io_formats, name)))
    report = run_bgsub(RunConfig(synthetic=SQUARE, k=3, p=2, q=1, chunk_length=20, tau=tau,
                                 output_dir=str(tmp_path)))
    assert all(c.ok for c in report.chunks)
    assert sorted(calls) == sorted([("save_decomposition", threading.get_ident())] * 3
                                   + [("save_masks", threading.get_ident())] * 3)


def track_residuals(monkeypatch):
    """Weakrefs to each residual the run forms, in order."""
    refs = []
    residual = pipeline.bg.factor_residual

    def tracked_residual(*args, **kwargs):
        S = residual(*args, **kwargs)
        refs.append(weakref.ref(S))
        return S

    monkeypatch.setattr(pipeline.bg, "factor_residual", tracked_residual)
    return refs


@pytest.mark.parametrize("with_truth", [False, True])
def test_fixed_tau_drops_each_residual_before_the_next_chunk(tmp_path, monkeypatch,
                                                            with_truth):
    # Without truth (output written), or with truth but no output directory,
    # nothing needs the tau grid, so each chunk's residual dies with its chunk.
    if with_truth:
        cfg = RunConfig(synthetic=SQUARE, k=5, chunk_length=20, tau=0.3)
        expected = run_bgsub(cfg)
    else:
        D, _ = generate_synthetic(SQUARE)
        save_frames(str(tmp_path / "frames"), D)
        cfg = RunConfig(frames=str(tmp_path / "frames" / "*.pgm"), k=5, chunk_length=20,
                        tau=0.3, output_dir=str(tmp_path / "out"))
        expected = run_bgsub(replace(cfg, output_dir=str(tmp_path / "reference")))
    refs = track_residuals(monkeypatch)

    def checked_rdmd(*args, **kwargs):
        assert all(ref() is None for ref in refs)
        return rdmd(*args, **kwargs)

    monkeypatch.setattr(pipeline, "rdmd", checked_rdmd)
    report = run_bgsub(cfg)
    assert len(refs) == 3 and all(c.ok for c in report.chunks)
    assert all(ref() is None for ref in refs)
    assert np.array_equal(report.masks.masks, expected.masks.masks)
    assert report.summary == expected.summary


@pytest.mark.parametrize("tau", [None, 0.3])
def test_each_chunk_is_freed_before_the_next_is_read(monkeypatch, tau):
    # Without an output directory nothing holds a chunk's frames or
    # decomposition past its turn, not even a chunk that fails after rdmd
    # returned: both are dead when the next chunk is decomposed.
    refs = []

    def tracked_rdmd(D, *args, **kwargs):
        assert all(ref() is None for ref in refs)
        dec = rdmd(D, *args, **kwargs)
        refs.extend([weakref.ref(D), weakref.ref(dec)])
        return dec

    factors_of = pipeline.bg.background_factors

    def failing_chunk_0(dec, indices):
        if dec.seed == 0:
            raise DegenerateDataError("chunk 0 fails")
        return factors_of(dec, indices)

    monkeypatch.setattr(pipeline, "rdmd", tracked_rdmd)
    monkeypatch.setattr(pipeline.bg, "background_factors", failing_chunk_0)
    report = run_bgsub(RunConfig(synthetic=SQUARE, k=5, chunk_length=20, tau=tau))
    assert [c.ok for c in report.chunks] == [False, True, True]
    assert len(refs) == 6


def test_fixed_tau_with_truth_and_output_holds_no_residual_past_its_pass(tmp_path,
                                                                        monkeypatch):
    # metrics.csv and roc.csv score every tau of a grid that spans the largest
    # residual of the run. Each chunk keeps only its background factors, and
    # its residual is rebuilt from them once the grid is known, so at most one
    # residual is alive at a time and none when the outputs are written.
    refs = []
    residual = pipeline.bg.factor_residual

    def tracked_residual(*args, **kwargs):
        assert all(ref() is None for ref in refs)
        S = residual(*args, **kwargs)
        refs.append(weakref.ref(S))
        return S

    render = pipeline.render_report

    def checked_render(report):
        assert all(ref() is None for ref in refs)
        return render(report)

    monkeypatch.setattr(pipeline.bg, "factor_residual", tracked_residual)
    monkeypatch.setattr(pipeline, "render_report", checked_render)
    out = tmp_path / "run"
    cfg = RunConfig(synthetic=SQUARE, k=5, chunk_length=20, tau=0.3,
                    output_dir=str(out), save_residuals=True)
    run_bgsub(cfg)
    assert len(refs) == 6  # one per chunk in each pass
    _, truth = generate_synthetic(SQUARE)
    S = ResidualSequence(
        np.concatenate([load_matrix(str(out / f"chunk_{i:03d}" / "residual.mat"))
                        for i in range(3)], axis=1),
        SQUARE.frame_height, SQUARE.frame_width,
    )
    taus = ev.tau_grid(float(S.values.max()))
    counts, _ = ev.sweep_counts(S, truth, taus)
    ev.write_metrics_csv(str(tmp_path / "metrics.csv"), taus, counts)
    ev.write_roc_csv(str(tmp_path / "roc.csv"), ev.RocCurve.from_counts(taus, counts))
    for name in ("metrics.csv", "roc.csv"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()


def test_every_residual_is_written_over_its_chunk(tmp_path, monkeypatch):
    # A fixed tau with truth and an output directory takes both the chunk
    # pass and the replay pass; each builds its residual in its chunk's
    # frames, in-memory video or not.
    cfg = RunConfig(synthetic=SQUARE, k=5, chunk_length=20, tau=0.3,
                    output_dir=str(tmp_path / "plain"))
    expected = run_bgsub(cfg)
    in_place = []
    residual = pipeline.bg.factor_residual

    def tracked_residual(*args, **kwargs):
        in_place.append(kwargs.get("out") is args[0].data)
        return residual(*args, **kwargs)

    monkeypatch.setattr(pipeline.bg, "factor_residual", tracked_residual)
    report = run_bgsub(replace(cfg, output_dir=str(tmp_path / "tracked")))
    assert in_place == [True] * 6  # one per chunk in each pass
    assert np.array_equal(report.masks.masks, expected.masks.masks)
    assert report.summary == expected.summary


def test_chunks_match_standalone_decompositions():
    spec = SyntheticSpec(frame_height=16, frame_width=16, n_frames=80,
                         noise_sigma=0.04,
                         objects=(MovingRect(5.0, 1.0, 4, 4, 1.0, (0.0, 0.25)),),
                         seed=13)
    cfg = RunConfig(synthetic=spec, k=5, p=2, q=1, chunk_length=40, tau=0.3, seed=100)
    report = run_bgsub(cfg)
    assert len(report.chunks) == 2
    D, _ = generate_synthetic(spec)
    for c in report.chunks:
        sub = SnapshotMatrix(D.data[:, c.start:c.stop], 16, 16)
        dec = rdmd(sub, SketchConfig(rank=5, oversampling=2, subspace_iters=1,
                                     seed=100 + c.index))
        assert np.array_equal(dec.eigenvalues, c.eigenvalues)


def test_pgm_run_checks_each_chunk_once_and_chunks_share_no_memory(tmp_path, monkeypatch):
    D, _ = generate_synthetic(SQUARE)
    paths = save_frames(str(tmp_path / "frames"), D)
    files = io_formats.scan_frames(str(tmp_path / "frames" / "*.pgm"))
    video = files.columns(0, files.n_frames)
    checked, chunks, frames, scans, reads = [], [], [], [], []
    post_init, decompose = SnapshotMatrix.__post_init__, pipeline.rdmd
    as_matrix = linalg._as_matrix
    read_pgm = io_formats._read_pgm

    def counted_post_init(self):
        checked.append(self.data.shape)
        post_init(self)

    def recorded_rdmd(sub, *args, **kwargs):
        chunks.append(sub)
        frames.append(sub.data.tobytes())
        return decompose(sub, *args, **kwargs)

    def counted_as_matrix(A):
        scans.append(np.shape(A))
        return as_matrix(A)

    def counted_read_pgm(path, check_only=False):
        reads.append((path, check_only))
        return read_pgm(path, check_only)

    monkeypatch.setattr(SnapshotMatrix, "__post_init__", counted_post_init)
    monkeypatch.setattr(pipeline, "rdmd", recorded_rdmd)
    monkeypatch.setattr(linalg, "_as_matrix", counted_as_matrix)
    monkeypatch.setattr(io_formats, "_read_pgm", counted_read_pgm)
    report = run_bgsub(RunConfig(frames=str(tmp_path / "frames" / "*.pgm"),
                                 k=5, chunk_length=20, tau=0.3))
    assert len(report.chunks) == 3 and all(c.ok for c in report.chunks)
    # Each frame's header is checked by the scan, and its raster against its
    # maxval as its chunk is read into its own contiguous matrix. Neither
    # that matrix nor rdmd's sketch scans the chunk for finiteness again,
    # and the eigensolver gets the reduced operator unscanned.
    assert reads == [(p, True) for p in paths] + [(p, False) for p in paths]
    assert checked == []
    for c, sub, data in zip(report.chunks, chunks, frames):
        assert sub.data.flags.c_contiguous
        assert data == np.ascontiguousarray(video.data[:, c.start:c.stop]).tobytes()
        assert (sub.frame_height, sub.frame_width) == (24, 24)
    for i, a in enumerate(chunks):
        for b in chunks[i + 1:]:
            assert not np.shares_memory(a.data, b.data)
    assert scans == []


def test_non_finite_reduced_operator_fails_its_chunk(monkeypatch):
    # numpy's eigensolver rejects it with LinAlgError, which fails the chunk
    # and lets the other chunks run.
    reduced_operator, calls = dmd._reduced_operator, []

    def poisoned(factors, Y):
        M = reduced_operator(factors, Y)
        calls.append(None)
        if len(calls) == 2:
            M[0, 0] = np.nan
        return M

    monkeypatch.setattr(dmd, "_reduced_operator", poisoned)
    report = run_bgsub(RunConfig(synthetic=SQUARE, k=5, chunk_length=20, tau=0.3))
    assert [c.ok for c in report.chunks] == [True, False, True]
    assert report.chunks[1].error.startswith("LinAlgError: ")
    assert not report.masks.masks[20:40].any()


def exact_background(level):
    """An rdmd stand-in whose background is level in every pixel and frame, exactly."""
    def decompose(D, sketch, anchor):
        return dmdmotion.DmdDecomposition(
            modes=np.full((D.n_pixels, 1), level + 0j), eigenvalues=np.array([1.0 + 0j]),
            amplitudes=np.ones(1, dtype=np.complex128), n_frames=D.n_frames,
            frame_height=D.frame_height, frame_width=D.frame_width, anchor=anchor,
            seed=sketch.seed)
    return decompose


@pytest.mark.parametrize("case", ["sweep k1", "sweep k3", "sweep k5", "fixed tau with truth",
                                  "static chunk", "failed chunk", "ties at a grid tau"])
def test_outputs_equal_the_whole_video_reference_run(tmp_path, monkeypatch, case):
    # Three chunks of PGM frames, each written to disk with its residual.
    # Truth is empty in the first chunk and all foreground in the second.
    D, truth = generate_synthetic(SQUARE)
    masks = truth.masks.copy()
    masks[:20], masks[20:40] = False, True
    opts = {"k": 5, "chunk_length": 20, "save_residuals": True}
    maxval = 255
    if case.startswith("sweep"):
        opts["median_kernel"] = int(case[-1])
    elif case == "fixed tau with truth":
        opts["tau"] = 0.3
    elif case == "static chunk":
        # Every residual is exactly zero, so the grid spans [0, 1].
        D = SnapshotMatrix(np.full(D.data.shape, 0.5), 24, 24)
        maxval = 2
        monkeypatch.setattr(pipeline, "rdmd", exact_background(0.5))
    elif case == "failed chunk":
        D = SnapshotMatrix(np.concatenate([np.zeros((576, 20)), D.data[:, 20:]], axis=1),
                           24, 24)
    else:
        # Residuals k/50 against a zero background: most lie on the grid j/50.
        D = SnapshotMatrix(np.random.default_rng(3).integers(0, 51, D.data.shape) / 50, 24, 24)
        maxval = 50
        monkeypatch.setattr(pipeline, "rdmd", exact_background(0.0))
    save_frames(str(tmp_path / "frames"), D, maxval=maxval)
    save_masks(str(tmp_path / "truth"), ForegroundMaskSequence(masks))
    cfg = RunConfig(frames=str(tmp_path / "frames" / "*.pgm"),
                    truth=str(tmp_path / "truth" / "*.pgm"), output_dir=str(tmp_path / "new"),
                    **opts)
    report = run_bgsub(cfg)
    reference_run(replace(cfg, output_dir=str(tmp_path / "reference")))
    new, reference = output_files(tmp_path / "new"), output_files(tmp_path / "reference")
    assert sorted(new) == sorted(reference)
    assert {"report.txt", "metrics.csv", "roc.csv", "masks/frame_00059_mask.pgm",
            "chunk_002/modes.cpx", "chunk_002/residual.mat"} <= set(new)
    for name in reference:
        assert new[name] == reference[name], name
    taus = [float(row["tau"]) for row in csv.DictReader(open(tmp_path / "new" / "metrics.csv"))]
    if case == "static chunk":
        assert taus[-1] == 1.0
    if case == "failed chunk":
        assert not report.chunks[0].ok and all(c.ok for c in report.chunks[1:])
    if case == "ties at a grid tau":
        S = load_matrix(str(tmp_path / "new" / "chunk_000" / "residual.mat"))
        assert np.isin(S, taus).mean() > 0.5


@pytest.mark.parametrize("chunk_length", [20, 21])
@pytest.mark.parametrize("threshold", ["sweep", "fixed tau", "fixed tau, kernel 1"])
def test_outputs_are_equal_on_both_sides_of_the_network_rule(
    tmp_path, monkeypatch, chunk_length, threshold
):
    # 8-bit frames whose median anchor goes through the float64 partition,
    # with the rasters dropped from each chunk that ingest reads, then
    # through the exchange network. Chunks of 20 frames have left sequences
    # of 19; chunks of 21, 21 and 18 have 20 and 17.
    D, truth = generate_synthetic(SQUARE)
    save_frames(str(tmp_path / "frames"), D)
    save_masks(str(tmp_path / "truth"), truth)
    opts = {"sweep": {}, "fixed tau": {"tau": 0.3},
            "fixed tau, kernel 1": {"tau": 0.3, "median_kernel": 1}}[threshold]
    cfg = RunConfig(frames=str(tmp_path / "frames" / "*.pgm"),
                    truth=str(tmp_path / "truth" / "*.pgm"), k=5, chunk_length=chunk_length,
                    **opts)
    network = dmd._network_median
    calls = []

    def counted(raw, maxval):
        calls.append(raw.shape)
        return network(raw, maxval)

    columns = io_formats.FrameFiles.columns
    reads = {"partition": [], "network": []}

    def read(self, start, stop):
        D = columns(self, start, stop)
        if side == "partition":
            del vars(D)["_rasters"]
        reads[side].append(D)
        return D

    monkeypatch.setattr(dmd, "_network_median", counted)
    monkeypatch.setattr(io_formats.FrameFiles, "columns", read)
    outputs = {}
    for side in reads:
        report = run_bgsub(replace(cfg, output_dir=str(tmp_path / side), save_residuals=True))
        assert all(c.ok for c in report.chunks)
        outputs[side] = output_files(tmp_path / side)
    bounds = chunk_bounds(60, chunk_length, 7)
    assert calls == [(stop - start, 576) for start, stop in bounds]
    # Every chunk that the chunk pass read has given up its rasters; each
    # read again by the grid pass keeps them until it is freed.
    for side, chunks in reads.items():
        assert len(chunks) == 2 * len(bounds)
        assert not any(hasattr(D, "_rasters") for D in chunks[: len(bounds)])
    assert all(hasattr(D, "_rasters") for D in reads["network"][len(bounds):])
    assert sorted(outputs["network"]) == sorted(outputs["partition"])
    for name, data in outputs["partition"].items():
        assert outputs["network"][name] == data, name


@pytest.mark.parametrize("fault, reason", [
    ("truncated raster", "truncated PGM raster"),
    ("pixel above maxval", "pixel value exceeds maxval 200"),
    ("16-bit pixel above maxval", "pixel value exceeds maxval 1000"),
    ("geometry change", "frame geometry (24, 23) differs from first frame (24, 24)"),
    ("non-numeric header", "invalid PGM header"),
])
def test_a_bad_last_frame_exits_2_before_any_chunk_runs(tmp_path, capsys, fault, reason):
    D, _ = generate_synthetic(SQUARE)
    last = save_frames(str(tmp_path / "frames"), D)[-1]
    if fault == "truncated raster":
        data = open(last, "rb").read()
        open(last, "wb").write(data[:-1])
    elif fault == "pixel above maxval":
        raster = np.full(576, 100, dtype=np.uint8)
        raster[300] = 201
        open(last, "wb").write(b"P5\n24 24\n200\n" + raster.tobytes())
    elif fault == "16-bit pixel above maxval":
        raster = np.full(576, 100, dtype=">u2")
        raster[300] = 1001
        open(last, "wb").write(b"P5\n24 24\n1000\n" + raster.tobytes())
    elif fault == "non-numeric header":
        open(last, "wb").write(b"P5 24 x 255\n" + bytes(576))
    else:
        save_pgm(last, np.zeros((24, 23), dtype=np.uint8))
    code = main(["bgsub", "--frames", str(tmp_path / "frames" / "*.pgm"),
                 "--out", str(tmp_path / "out"), "--chunk-length", "20",
                 "--k", "4", "--tau", "0.2", "--seed", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{last}: {reason}" in err
    assert not (tmp_path / "out" / "chunk_000").exists()


def test_sweep_memory_grows_by_bytes_per_pixel_not_by_chunks(tmp_path):
    # Six chunks hold one chunk's frames and residual at a time, as two do;
    # what grows with the video is one byte per pixel of truth and of masks
    # (which hold the sweep's ranks until tau is chosen), and each chunk's
    # background factors (48 bytes per pixel for three modes, half a byte
    # per pixel of a 100-frame chunk): 2.5 bytes per pixel-frame. A separate
    # ranks array would add one more; the video and every residual 16.
    D, truth = generate_synthetic(SyntheticSpec(
        frame_height=48, frame_width=64, n_frames=600, noise_sigma=0.04,
        objects=(MovingRect(9.0, 2.0, 8, 8, 1.0, (0.0, 0.3)),), seed=5))
    save_frames(str(tmp_path / "frames"), D)
    save_masks(str(tmp_path / "truth"), truth)
    del D, truth
    peaks = []
    for n_frames in (200, 600):
        cfg = RunConfig(frames=str(tmp_path / "frames" / "*.pgm"),
                        truth=str(tmp_path / "truth" / "*.pgm"), chunk_length=100)
        if n_frames < 600:
            for kind in ("frames", "truth"):
                os.makedirs(tmp_path / f"{kind}_{n_frames}", exist_ok=True)
                for name in sorted(os.listdir(tmp_path / kind))[:n_frames]:
                    os.link(tmp_path / kind / name, tmp_path / f"{kind}_{n_frames}" / name)
            cfg = replace(cfg, frames=str(tmp_path / f"frames_{n_frames}" / "*.pgm"),
                          truth=str(tmp_path / f"truth_{n_frames}" / "*.pgm"))
        tracemalloc.start()
        try:
            run_bgsub(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    two, six = peaks
    assert six - two <= 3 * 400 * 48 * 64


def test_fixed_tau_carries_nothing_of_a_chunk_into_the_next(monkeypatch, tmp_path):
    # At a fixed tau with nothing to replay, a chunk's masks are filtered
    # straight into the run's masks and its background factors are dropped
    # with it, so every chunk starts its decomposition with the memory of
    # the first. Three modes of the 5120-pixel frames are 245,760 bytes,
    # and one chunk's masks 256,000. A sweep, and a fixed tau with truth and
    # an output directory, keep each chunk's background factors for the tau
    # grid: a later chunk may start with exactly those arrays more.
    spec = SyntheticSpec(frame_height=64, frame_width=80, n_frames=150, noise_sigma=0.04,
                         objects=(MovingRect(9.0, 2.0, 8, 8, 1.0, (0.0, 0.3)),), seed=5)
    factors_of = pipeline.bg.background_factors
    runs = [  # (tau, output directory, factors kept)
        (0.3, None, False),
        (None, None, True),
        (0.3, tmp_path / "out", True),
    ]
    for tau, out, keeps in runs:
        cfg = RunConfig(synthetic=spec, k=5, chunk_length=50, tau=tau,
                        output_dir=None if out is None else str(out))
        # Warm-up: one-time allocations of numpy and the package.
        run_bgsub(cfg if out is None else replace(cfg, output_dir=str(tmp_path / "warm-up")))
        entries, kept = [], []

        def traced_rdmd(*args, **kwargs):
            entries.append(tracemalloc.get_traced_memory()[0])
            return rdmd(*args, **kwargs)

        def traced_factors(*args):
            factors = factors_of(*args)
            kept.append(sum(f.nbytes for f in factors))
            return factors

        monkeypatch.setattr(pipeline, "rdmd", traced_rdmd)
        monkeypatch.setattr(pipeline.bg, "background_factors", traced_factors)
        tracemalloc.start()
        try:
            report = run_bgsub(cfg)
        finally:
            tracemalloc.stop()
            monkeypatch.undo()
        assert len(entries) == 3 and all(c.ok for c in report.chunks)
        for i in (1, 2):
            assert entries[i] - entries[0] < keeps * sum(kept[:i]) + 16 * 1024


def test_snapshot_columns_rejects_a_single_frame():
    # A chunk is its own contiguous copy, which its residual may overwrite.
    D, _ = generate_synthetic(SQUARE)
    chunk = D.columns(10, 12)
    assert chunk.n_frames == 2
    assert chunk.data.flags.c_contiguous and chunk.data.flags.owndata
    assert not np.shares_memory(chunk.data, D.data)
    with pytest.raises(ValueError, match="at least 2 frames"):
        D.columns(10, 11)


def test_failed_chunk_is_contained(tmp_path):
    # first half of the sequence is identically zero, so its chunk cannot be
    # decomposed; the second half carries a moving object and must still run.
    # Both a fixed tau and a sweep, which thresholds every chunk's ranks in
    # place, the failed chunk's zero bytes included.
    spec = SyntheticSpec(frame_height=10, frame_width=10, n_frames=30,
                         objects=(MovingRect(3.0, 1.0, 3, 3, 1.0, (0.0, 0.25)),),
                         seed=2)
    D, truth = generate_synthetic(spec)
    frames = np.concatenate([np.zeros_like(D.data), D.data], axis=1)
    stacked = SnapshotMatrix(frames, 10, 10)
    save_frames(str(tmp_path / "frames"), stacked)
    # truth marks the object in both halves, so scoring the failed chunk's
    # empty masks would add false negatives
    save_masks(str(tmp_path / "truth"), ForegroundMaskSequence(
        np.concatenate([truth.masks, truth.masks])))
    for tau in (0.3, None):
        out = tmp_path / f"out_{tau}"
        cfg = RunConfig(frames=str(tmp_path / "frames" / "frame_*.pgm"),
                        truth=str(tmp_path / "truth" / "*.pgm"),
                        k=4, p=2, q=1, chunk_length=30, tau=tau, output_dir=str(out))
        report = run_bgsub(cfg)
        assert len(report.chunks) == 2
        assert not report.chunks[0].ok
        assert "DegenerateDataError" in report.chunks[0].error
        assert report.chunks[1].ok
        assert report.masks is not None
        assert not report.masks.masks[:30].any()  # failed chunk yields empty masks
        assert report.masks.masks[30:].any()
        assert "FAILED" in (out / "report.txt").read_text()
        assert len(os.listdir(out / "masks")) == 60
        # the final rates score only the frames of the chunks that ran
        rates = ev.rates(ev.confusion(ForegroundMaskSequence(report.masks.masks[30:]), truth))
        for key in ("recall", "precision", "specificity", "f_measure"):
            assert report.summary[key] == rates[key]


def test_sweep_with_every_chunk_failed_returns_its_report(tmp_path):
    # An all-black video cannot be decomposed; the sweep still reports why.
    frames = SnapshotMatrix(np.zeros((100, 24)), 10, 10)
    save_frames(str(tmp_path / "frames"), frames)
    truth = np.zeros((24, 10, 10), dtype=bool)
    truth[:, 2:4, 3] = True
    save_masks(str(tmp_path / "truth"), ForegroundMaskSequence(truth))
    cfg = RunConfig(frames=str(tmp_path / "frames" / "*.pgm"),
                    truth=str(tmp_path / "truth" / "*.pgm"),
                    k=3, p=2, q=1, chunk_length=12, output_dir=str(tmp_path / "out"))
    report = run_bgsub(cfg)
    assert len(report.chunks) == 2 and not any(c.ok for c in report.chunks)
    assert report.tau is None and report.masks is None and report.summary is None
    text = (tmp_path / "out" / "report.txt").read_text()
    assert text == render_report(report)
    assert text.count("FAILED DegenerateDataError") == 2
    with open(tmp_path / "out" / "timings.csv") as fh:
        assert [row["chunk"] for row in csv.DictReader(fh)] == ["0", "1", "total"]
    assert sorted(os.listdir(tmp_path / "out")) == ["report.txt", "timings.csv"]


def test_mask_files_named_after_input_frames(tmp_path):
    spec = SyntheticSpec(frame_height=8, frame_width=8, n_frames=12,
                         objects=(MovingRect(2.0, 1.0, 3, 3, 1.0, (0.0, 0.3)),),
                         seed=4)
    D, _ = generate_synthetic(spec)
    save_frames(str(tmp_path / "in"), D)
    # tau 0.2 without a filter gives masks that differ between frames
    cfg = RunConfig(frames=str(tmp_path / "in" / "frame_*.pgm"),
                    k=4, p=2, q=1, chunk_length=12, tau=0.2, median_kernel=1,
                    output_dir=str(tmp_path / "out"))
    report = run_bgsub(cfg)
    produced = sorted(os.listdir(tmp_path / "out" / "masks"))
    assert produced[0] == "frame_00000_mask.pgm"
    assert len(produced) == 12
    # each file holds the mask of the frame it is named after
    for t in range(12):
        img, _ = load_pgm(str(tmp_path / "out" / "masks" / f"frame_{t:05d}_mask.pgm"))
        assert np.array_equal(img > 0, report.masks.masks[t])


def test_frames_of_one_name_in_two_directories_are_rejected(tmp_path, monkeypatch):
    # cams/a and cams/b hold frames of one set of names; their masks would share files.
    def no_rdmd(*args, **kwargs):
        raise AssertionError("a chunk was decomposed")

    monkeypatch.setattr(pipeline, "rdmd", no_rdmd)
    D, _ = generate_synthetic(SQUARE)
    save_frames(str(tmp_path / "cams" / "a"), D.columns(0, 30))
    save_frames(str(tmp_path / "cams" / "b"), D.columns(30, 60))
    code = main(["bgsub", "--frames", str(tmp_path / "cams" / "*" / "*.pgm"),
                 "--out", str(tmp_path / "out"), "--chunk-length", "30",
                 "--k", "4", "--tau", "0.2", "--seed", "0"])
    assert code == 2
    assert not (tmp_path / "out").exists()
    cfg = RunConfig(frames=str(tmp_path / "cams" / "*" / "*.pgm"), k=4, chunk_length=30,
                    tau=0.2)
    a = str(tmp_path / "cams" / "a" / "frame_00000.pgm")
    b = str(tmp_path / "cams" / "b" / "frame_00000.pgm")
    with pytest.raises(ValueError, match=re.escape(f"frames {a} and {b} would both write")):
        run_bgsub(cfg)


def test_a_configuration_error_inside_a_chunk_exits_2(tmp_path, monkeypatch, capsys):
    # Only data errors fail a chunk; a ValueError ends the run with exit 2
    # rather than being recorded as FAILED (which exits 3 once every chunk
    # has failed).
    def misconfigured_rdmd(*args, **kwargs):
        raise ValueError("a configuration error")

    monkeypatch.setattr(pipeline, "rdmd", misconfigured_rdmd)
    D, _ = generate_synthetic(SQUARE)
    save_frames(str(tmp_path / "frames"), D)
    code = main(["bgsub", "--frames", str(tmp_path / "frames" / "*.pgm"),
                 "--out", str(tmp_path / "out"), "--chunk-length", "30",
                 "--k", "4", "--tau", "0.2", "--seed", "0"])
    assert code == 2
    assert "a configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("eigenvalue, reason", [
    (1e3, "background overflows over 200 frames"),
    (0.0, "no usable modes: every eigenvalue is near zero"),
])
def test_chunk_with_an_unusable_spectrum_fails_on_its_data(monkeypatch, eigenvalue, reason):
    def spectrum_rdmd(D, cfg, anchor):
        return dmdmotion.DmdDecomposition(
            modes=np.full((D.n_pixels, 1), 0.1 + 0j), eigenvalues=np.array([eigenvalue + 0j]),
            amplitudes=np.ones(1, dtype=np.complex128), n_frames=D.n_frames,
            frame_height=D.frame_height, frame_width=D.frame_width)

    monkeypatch.setattr(pipeline, "rdmd", spectrum_rdmd)
    spec = SyntheticSpec(frame_height=6, frame_width=6, n_frames=200, seed=0)
    report = run_bgsub(RunConfig(synthetic=spec, k=3, p=2, q=1, tau=0.2))
    assert len(report.chunks) == 1
    assert report.chunks[0].error == f"DegenerateDataError: {reason}"
    assert report.masks is None


def test_report_renders_deterministically():
    cfg = RunConfig(synthetic=SQUARE, k=5, p=2, q=1, chunk_length=60, tau=0.2)
    report = run_bgsub(cfg)
    text = render_report(report)
    assert text == render_report(report)
    assert "chunk 0" in text
    assert "threshold: 0.2" in text
    assert "background" in text


def test_outputs_include_decomposition_dirs(tmp_path):
    cfg = RunConfig(synthetic=SQUARE, k=5, p=2, q=1, chunk_length=60, tau=0.2,
                    output_dir=str(tmp_path), save_residuals=True)
    run_bgsub(cfg)
    assert (tmp_path / "chunk_000" / "manifest.txt").exists()
    assert (tmp_path / "chunk_000" / "modes.cpx").exists()
    assert (tmp_path / "chunk_000" / "residual.mat").exists()
    # Seconds per stage for each chunk and in total, and the peak RSS so far.
    with open(tmp_path / "timings.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["chunk", "ingest_seconds", "decompose_seconds",
                             "residual_seconds", "masks_seconds", "grid_seconds",
                             "write_seconds", "peak_rss_so_far_kib"]
    assert [row["chunk"] for row in rows] == ["0", "total"]
    assert all(float(v) >= 0 for row in rows for k, v in row.items() if k != "chunk")
    assert int(rows[0]["peak_rss_so_far_kib"]) <= int(rows[1]["peak_rss_so_far_kib"])
    assert float(rows[1]["grid_seconds"]) > 0 and float(rows[1]["write_seconds"]) > 0
    # The chunk's row books the time of the chunk's own writes.
    assert float(rows[0]["write_seconds"]) > 0
    # synthetic input carries its own truth, so the sweep files appear too
    assert (tmp_path / "roc.csv").exists()
    assert (tmp_path / "metrics.csv").exists()


def test_benchmark_rows_and_csv(tmp_path, svd_experiment):
    rows = svd_experiment.run()
    assert [row[3] for row in rows] == [0, 1, 2]
    errors = [(row[6], row[7]) for row in rows]
    for det, rnd in errors:
        assert math.isfinite(det) and math.isfinite(rnd) and det >= 0.0
        # Eckart-Young: no rank-k approximation beats the truncated full SVD.
        assert rnd >= det * (1 - 1e-12)
    # Subspace iterations sharpen the sketch.
    assert errors[2][1] <= errors[0][1] + 1e-12
    path = tmp_path / "bench.csv"
    assert svd_experiment.main(["--out", str(path)]) == 0
    with open(path, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == 3
    # errors are seeded, and floats are written with repr, so they read back exactly
    for (det, rnd), text in zip(errors, parsed):
        assert (float(text["deterministic_error"]), float(text["randomized_error"])) == (det, rnd)
        assert float(text["deterministic_seconds"]) > 0 and float(text["randomized_seconds"]) > 0
        for col in ("deterministic_seconds", "randomized_seconds",
                    "deterministic_error", "randomized_error"):
            assert repr(float(text[col])) == text[col]
