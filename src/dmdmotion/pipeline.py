"""End-to-end background subtraction runs.

A run splits the input video into chunks, decomposes each chunk on its own
(seeded independently, so chunk results do not depend on processing order),
models the background per chunk, and assembles masks 1:1 with the input
frames. A chunk that fails records its diagnostic and contributes empty
masks; the other chunks proceed.

run_bgsub reads top to bottom: load the input, check it, the chunk pass, the
tau-grid loop (when a sweep or metrics.csv needs the grid over the run's
largest residual), choose tau, build the report, write. Both passes read a
chunk at a time into one _ChunkReader's buffers, and the grid loop rebuilds
each chunk's residual from the background factors that the chunk pass kept.
A fixed tau masks each chunk in the chunk pass. A sweep's grid loop writes
each chunk's median-filtered ranks into the bytes of the run's masks, which
become the masks in one pass once the best tau is chosen.
"""

from __future__ import annotations

import os
import re
import time
from dataclasses import astuple, dataclass, replace

import numpy as np

from . import background as bg
from . import evaluation as ev
from .dmd import MEDIAN_FRAME, SnapshotMatrix, _check_anchor, _decompose
from .errors import DegenerateDataError
from .linalg import SketchConfig, _check_integers, _unscanned, rsvd
from .synthetic import SyntheticSpec, generate_synthetic

__all__ = [
    "RunConfig",
    "ChunkResult",
    "RunReport",
    "chunk_bounds",
    "run_bgsub",
    "render_report",
]


@dataclass(frozen=True)
class RunConfig:
    """Everything a background-subtraction run needs.

    Exactly one of frames (a PGM glob pattern) and synthetic must be set;
    truth (a glob of mask PGMs) goes with frames, as synthetic input has its own.
    tau fixes the threshold; leaving it None sweeps the thresholds of
    evaluation.tau_grid, which requires ground truth to pick the best one.
    """

    frames: str | None = None
    synthetic: SyntheticSpec | None = None
    truth: str | None = None
    chunk_length: int = 200
    k: int = 11
    p: int = 2
    q: int = 1
    seed: int = 0
    n_background: int = 3
    anchor: str | int = MEDIAN_FRAME
    tau: float | None = None
    median_kernel: int = 3
    output_dir: str | None = None
    save_residuals: bool = False

    def __post_init__(self) -> None:
        for name, kinds in (("frames", (str,)), ("truth", (str,)),
                            ("output_dir", (str, os.PathLike)), ("synthetic", (SyntheticSpec,))):
            value = getattr(self, name)
            if value is not None and not isinstance(value, kinds):
                kind = " or ".join(k.__name__ for k in kinds)
                raise ValueError(f"{name} must be {kind} or None, got {value!r}")
        if self.output_dir is not None and not os.fspath(self.output_dir):
            raise ValueError("output_dir must name a directory, got an empty path")
        if not isinstance(self.save_residuals, bool):
            raise ValueError(f"save_residuals must be a bool, got {self.save_residuals!r}")
        if (self.frames is None) == (self.synthetic is None):
            raise ValueError("exactly one of frames and synthetic must be given")
        if self.synthetic is not None and self.truth is not None:
            raise ValueError("truth is for frames; synthetic input brings its own")
        if self.save_residuals and self.output_dir is None:
            raise ValueError("save_residuals needs an output_dir to write the residuals to")
        _check_integers(self, ("chunk_length", "k", "p", "q", "seed", "n_background",
                               "median_kernel"))
        if self.chunk_length < 2:
            raise ValueError(f"chunk_length must be >= 2, got {self.chunk_length}")
        if self.k < 1 or self.p < 0 or self.q < 0:
            raise ValueError("need k >= 1, p >= 0, q >= 0")
        if self.k + self.p > self.chunk_length - 1:
            raise ValueError(
                f"k+p = {self.k + self.p} exceeds chunk_length-1 = {self.chunk_length - 1}"
            )
        if self.n_background < 1:
            raise ValueError("n_background must be >= 1")
        # A chunk can retain fewer modes than k and clamps to them; more
        # background modes than k could never be retained at all.
        if self.n_background > self.k:
            raise ValueError(f"n_background = {self.n_background} exceeds k = {self.k}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.tau is not None:
            real = (int, float, np.integer, np.floating)
            if isinstance(self.tau, bool) or not isinstance(self.tau, real):
                raise ValueError(f"tau must be a real number, got {self.tau!r}")
            if not (np.isfinite(self.tau) and self.tau >= 0):
                raise ValueError(f"tau must be finite and nonnegative, got {self.tau}")
            # report.txt spells tau by repr, which would spell out its type.
            object.__setattr__(self, "tau", float(self.tau))
        bg._check_kernel(self.median_kernel, "median_kernel")
        _check_anchor(self.anchor)


@dataclass(frozen=True)
class ChunkResult:
    index: int
    start: int
    stop: int
    seed: int
    retained_rank: int | None = None
    eigenvalues: np.ndarray | None = None
    omega: np.ndarray | None = None
    background_indices: tuple[int, ...] | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class RunReport:
    config: RunConfig
    frame_height: int
    frame_width: int
    n_frames: int
    chunks: tuple[ChunkResult, ...]
    tau: float | None
    masks: bg.ForegroundMaskSequence | None
    summary: dict[str, float] | None


def chunk_bounds(n_frames: int, chunk_length: int, min_frames: int) -> list[tuple[int, int]]:
    """[start, stop) per chunk; a too-short tail merges into the previous chunk."""
    if n_frames < min_frames:
        raise ValueError(f"{n_frames} frames, but a chunk needs at least {min_frames}")
    bounds = [
        (s, min(s + chunk_length, n_frames)) for s in range(0, n_frames, chunk_length)
    ]
    if len(bounds) > 1 and bounds[-1][1] - bounds[-1][0] < min_frames:
        _, stop = bounds.pop()
        start, _ = bounds.pop()
        bounds.append((start, stop))
    return bounds


def _peak_rss_kib() -> int:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class _StageTimer:
    """Wall seconds per stage of each timings.csv row, and peak RSS so far.

    mark(row, stage) books the time since the previous mark to that stage
    of the row (a chunk index, or "run" for run-level work) and records
    ru_maxrss, a high-water mark, as the row's peak so far.
    """

    STAGES = ("ingest", "decompose", "residual", "masks", "grid", "write")

    def __init__(self) -> None:
        self.rows: dict[int | str, dict[str, float]] = {}
        self.last = time.perf_counter()

    def mark(self, row: int | str, stage: str) -> None:
        now = time.perf_counter()
        entry = self.rows.setdefault(row, dict.fromkeys(self.STAGES, 0.0))
        entry[stage] += now - self.last
        entry["peak"] = _peak_rss_kib()
        self.last = now

    def csv(self) -> str:
        """One line per chunk, then a total line that adds the run-level work."""
        total = {stage: sum(e[stage] for e in self.rows.values()) for stage in self.STAGES}
        total["peak"] = _peak_rss_kib()
        rows = [(row, e) for row, e in self.rows.items() if row != "run"] + [("total", total)]
        lines = ["chunk," + ",".join(f"{stage}_seconds" for stage in self.STAGES)
                 + ",peak_rss_so_far_kib"]
        for row, e in rows:
            lines.append(",".join([str(row), *(repr(e[s]) for s in self.STAGES), str(e["peak"])]))
        return "\n".join(lines) + "\n"


def _load_input(cfg: RunConfig, timer: _StageTimer):
    """The frames, truth if given, and the stem of each frame's mask file.

    PGM frames come back as io_formats.FrameFiles, every file checked and
    read a chunk at a time, their masks named after the frame files;
    synthetic frames as their SnapshotMatrix, their masks mask_NNNNN.
    """
    if cfg.synthetic is not None:
        video, truth = generate_synthetic(cfg.synthetic)
        timer.mark("run", "ingest")
        return video, truth, [f"mask_{t:05d}" for t in range(video.n_frames)]
    # Here, not at the top: `import dmdmotion` stays without io_formats.
    from .io_formats import load_masks, scan_frames

    video = scan_frames(cfg.frames)
    truth = load_masks(cfg.truth, video.paths) if cfg.truth is not None else None
    # Masks all go to one directory, so two frames of one file name (in two
    # directories) would write one mask file.
    stems: dict[str, str] = {}
    for path in video.paths:
        stem = os.path.splitext(os.path.basename(path))[0] + "_mask"
        if stem in stems:
            raise ValueError(f"frames {stems[stem]} and {path} would both write mask {stem}")
        stems[stem] = path
    timer.mark("run", "ingest")
    return video, truth, list(stems)


class _ChunkReader:
    """Reads each chunk into buffers sized for the longest chunk, which each read overwrites.

    A chunk of n frames of m pixels is the first m n float64 entries, a
    C-contiguous (m, n) matrix: a column slice's strides could change bytes.
    """

    def __init__(self, video, bounds: list[tuple[int, int]]) -> None:
        self.video, self.raw = video, None
        self.m, self.longest = video.frame_height * video.frame_width, max(b - a for a, b in bounds)
        self.frames = np.empty(self.m * self.longest)

    def _rows(self, n: int) -> np.ndarray:
        if self.raw is None:
            self.raw = np.empty((self.longest, self.m), dtype=np.uint8)
        return self.raw[:n]

    def read(self, start: int, stop: int):
        """Frames [start, stop) as a SnapshotMatrix, and the rasters of FrameFiles._fill or None."""
        video, data = self.video, self.frames[: self.m * (stop - start)].reshape(self.m, -1)
        D = _unscanned(SnapshotMatrix, data, video.frame_height, video.frame_width)
        if isinstance(video, SnapshotMatrix):
            data[...] = video.data[:, start:stop]
            return D, None
        return D, video._fill(start, stop, data, self._rows)


def _check_inputs(cfg: RunConfig, video, truth) -> list[tuple[int, int]]:
    """The chunk bounds, once every check that needs no chunk has passed."""
    if cfg.tau is None and truth is None:
        raise ValueError("threshold sweep needs ground truth; pass a fixed tau instead")
    shape = (video.n_frames, video.frame_height, video.frame_width)
    if truth is not None and truth.masks.shape != shape:
        n, h, w = truth.masks.shape
        raise ValueError(
            f"truth has {n} masks of {h}x{w} for {shape[0]} frames of {shape[1]}x{shape[2]}"
        )
    n_pixels = video.frame_height * video.frame_width
    if cfg.k + cfg.p > n_pixels:
        raise ValueError(f"k+p = {cfg.k + cfg.p} exceeds the {n_pixels} pixels of a frame")
    # A chunk of n frames exposes n-1 snapshot pairs; the sketch needs k+p.
    bounds = chunk_bounds(video.n_frames, cfg.chunk_length, cfg.k + cfg.p + 1)
    # An integer anchor addresses a frame of each chunk's left sequence, which
    # is one frame shorter than the chunk.
    shortest = min(stop - start for start, stop in bounds)
    _check_anchor(cfg.anchor, shortest - 1)
    # Each subspace iteration is two passes over a chunk. At most one per
    # snapshot pair bounds the sketch of n frames of m pixels at about
    # 2 m n^2 (k+p) multiply-adds, where an unbounded q would never end.
    if cfg.q > shortest - 1:
        raise ValueError(
            f"q = {cfg.q} subspace iterations exceed the {shortest - 1} snapshot pairs "
            f"of the shortest chunk ({shortest} frames)"
        )
    # A sweep's median network takes a block of at least one frame (see
    # sweep_counts). The run holds one chunk's float64 matrix at a time, so a
    # one-frame network larger than the longest chunk's matrix is refused.
    if cfg.tau is None:
        network = ev._network_bytes(n_pixels, cfg.median_kernel)
        matrix = 8 * n_pixels * max(stop - start for start, stop in bounds)
        if network > matrix:
            raise ValueError(
                f"median_kernel {cfg.median_kernel} needs a {network}-byte median network "
                f"per frame in a sweep, more than the {matrix}-byte float64 matrix of "
                f"the longest chunk"
            )
    # A sweep's curve needs both truth classes. Chunk outputs are written as
    # each chunk runs, so this is checked before the first one.
    if cfg.tau is None and not truth.masks.any():
        raise ValueError("truth contains no foreground pixels")
    if cfg.tau is None and truth.masks.all():
        raise ValueError("truth contains no background pixels")
    return bounds


def _chunk_pass(cfg, reader, truth, bounds, masks: np.ndarray, stems, timer: _StageTimer):
    """Read, decompose and model each chunk, and write its outputs.

    A chunk that fails on its data (DegenerateDataError or LinAlgError; any
    other error propagates) records its reason and nothing else. At a fixed
    tau, a chunk's frames of the run's masks are one ForegroundMaskSequence
    at that tau: thresholded as the residual is formed over the chunk's
    frames, filtered in place and scored. With an output directory, the
    chunk's chunk_NNN/ and, at a fixed tau, its mask files are then written.
    Returns the chunk records, the (tp, fp, tn, fn) row of the fixed-tau
    masks against the truth and, when the run needs the tau grid, each
    chunk that ran with its background factors and largest residual.
    """
    need_grid = truth is not None and (cfg.tau is None or cfg.output_dir is not None)
    chunks: list[ChunkResult] = []
    counts = np.zeros(4, dtype=np.int64)
    ran = []
    for i, (start, stop) in enumerate(bounds):
        c = ChunkResult(index=i, start=start, stop=stop, seed=cfg.seed + i)
        seq = None if cfg.tau is None else bg.ForegroundMaskSequence(masks[start:stop], cfg.tau)
        D, rasters = reader.read(start, stop)
        timer.mark(i, "ingest")
        try:
            sketch = SketchConfig(rank=cfg.k, oversampling=cfg.p, subspace_iters=cfg.q,
                                  seed=c.seed)
            svd = rsvd(D.data[:, :-1], sketch, check_finite=False)  # checked as it was read
            dec = _decompose(D, svd, cfg.anchor, c.seed, rasters)
            omega = bg.fourier_modes(dec)
            # A near-static chunk can retain fewer usable modes than requested;
            # take what is there rather than failing the chunk (none fails it).
            n_bg = min(cfg.n_background, np.count_nonzero(np.isfinite(omega)))
            background_indices = bg.partition_modes(omega, n_bg)
            factors = bg.background_factors(dec, background_indices)
            timer.mark(i, "decompose")
            S = bg.factor_residual(D, *factors, out=D.data, masks=seq)
            timer.mark(i, "residual")
        except (DegenerateDataError, np.linalg.LinAlgError) as exc:
            timer.mark(i, "decompose")
            chunks.append(replace(c, error=f"{type(exc).__name__}: {exc}"))
            D = rasters = dec = factors = None  # it may have failed after _decompose returned
            continue
        c = replace(c, retained_rank=dec.rank, eigenvalues=dec.eigenvalues, omega=omega,
                    background_indices=background_indices)
        chunks.append(c)
        if seq is not None:
            bg.filter_masks(seq, cfg.median_kernel, out=seq.masks)
            if truth is not None:
                chunk_truth = bg.ForegroundMaskSequence(truth.masks[start:stop])
                counts += astuple(ev.confusion(seq, chunk_truth))
            timer.mark(i, "masks")
        if cfg.output_dir is not None:
            # Here, not at the top: `import dmdmotion` stays without io_formats.
            from .io_formats import save_decomposition, save_masks, save_matrix

            chunk_dir = os.path.join(cfg.output_dir, f"chunk_{i:03d}")
            save_decomposition(chunk_dir, dec)
            if cfg.save_residuals:
                save_matrix(os.path.join(chunk_dir, "residual.mat"), S.values)
            if seq is not None:
                save_masks(os.path.join(cfg.output_dir, "masks"), seq, stems[start:stop])
            timer.mark(i, "write")
        if need_grid:
            ran.append((c, factors, float(S.values.max())))
        del D, rasters, S, dec, factors  # before the next chunk is read
    return chunks, counts, ran


def run_bgsub(cfg: RunConfig) -> RunReport:
    """Decompose, model, threshold and evaluate; see the module docstring.

    Memory is one buffer of the longest chunk's frames, which each chunk's
    residual overwrites, one chunk's decomposition at a time, dropped before
    the next chunk is read, one byte per pixel of the video for the masks
    and one for the truth, and each chunk's background factors when the run
    needs the tau grid. A sweep's masks hold its chunks' filtered ranks
    until the best tau is chosen and are then ranks > j, in place, for the
    index j of that tau: the masks that its filtered counts scored, which
    give its summary rates.

    With an output directory, the run writes each chunk's chunk_NNN/ and,
    at a fixed tau, its mask files as soon as that chunk's outputs are
    final, before the next chunk is read; a write's error propagates at once.
    """
    # Another run's outputs, whole or partial, would sit beside this run's
    # and be described by neither report. Each begins with a chunk_NNN/ or
    # a report.txt, so a run writes only where neither is yet. A file, or a
    # path through one, fails the listing with a NotADirectoryError that
    # names the path.
    if cfg.output_dir is not None:
        try:
            names = sorted(os.listdir(cfg.output_dir))
        except FileNotFoundError:
            names = []
        held = [n for n in names if n == "report.txt"]
        held += [n for n in names if re.fullmatch(r"chunk_\d{3,}", n)]
        if held:
            raise ValueError(f"output directory {cfg.output_dir} already holds a {held[0]}")
    timer = _StageTimer()
    video, truth, stems = _load_input(cfg, timer)
    bounds = _check_inputs(cfg, video, truth)
    masks = np.zeros((video.n_frames, video.frame_height, video.frame_width), dtype=bool)
    reader = _ChunkReader(video, bounds)
    chunks, counts, ran = _chunk_pass(cfg, reader, truth, bounds, masks, stems, timer)
    tau = cfg.tau

    # The tau grid spans the run's largest residual. Each chunk's frames are
    # read again and its residual rebuilt from its background factors, the
    # same bytes as in the chunk pass. filtered counts the masks filtered by
    # the median kernel (the raw ones at a fixed tau); in a sweep, each
    # chunk's filtered ranks are written over the bytes of its masks.
    taus = raw = roc = summary = None
    if ran:
        taus = ev.tau_grid(max(top for _, _, top in ran))
        kernel = cfg.median_kernel if tau is None else 1
        raw = np.zeros((taus.size, 4), dtype=np.int64)
        filtered = np.zeros_like(raw)
        for c, factors, _ in ran:
            D, _ = reader.read(c.start, c.stop)
            timer.mark(c.index, "ingest")
            S = bg.factor_residual(D, *factors, out=D.data)
            timer.mark(c.index, "residual")
            ranks = masks[c.start : c.stop].view(np.uint8) if tau is None else None
            chunk_truth = bg.ForegroundMaskSequence(truth.masks[c.start : c.stop])
            chunk_raw, chunk_filtered = ev.sweep_counts(S, chunk_truth, taus, kernel, ranks)
            del D, S  # S is D's frames, which the next read overwrites
            raw += chunk_raw
            filtered += chunk_filtered
            timer.mark(c.index, "grid")
        # A curve needs both truth classes in the chunks that ran. Without
        # one, the run writes no roc.csv and a sweep chooses no tau.
        tp, fp, tn, fn = raw[0].tolist()
        if tp + fn > 0 and tn + fp > 0:
            roc = ev.RocCurve.from_counts(taus, raw)
    # A sweep without a curve (every chunk failed, or the chunks that ran
    # hold one truth class) keeps tau, masks and summary None; its report
    # still lists each chunk's reason.
    if tau is None and roc is not None:
        best_tau, best_f = ev.best_f_from_counts(taus, raw)
        tau, filt_f = ev.best_f_from_counts(taus, filtered)
        summary = {
            "best_tau_raw": best_tau,
            "best_f_raw": best_f,
            "best_tau_filtered": tau,
            "best_f_filtered": filt_f,
            "auc": roc.auc,
        }
        # The filtered [S > tau] is [ranks > j] for the index j of tau in
        # the ascending grid, and filtered[j] counts those masks. A failed
        # chunk's ranks are 0, so its masks stay empty.
        j = int(np.searchsorted(taus, tau, side="left"))
        np.greater(masks.view(np.uint8), j, out=masks)
        counts = filtered[j]
        timer.mark("run", "masks")
    masked = tau is not None and any(c.ok for c in chunks)
    if masked and truth is not None:
        summary = {**(summary or {}), **ev.rates(counts)}

    report = RunReport(
        config=cfg,
        frame_height=video.frame_height,
        frame_width=video.frame_width,
        n_frames=video.n_frames,
        chunks=tuple(chunks),
        tau=tau,
        masks=bg.ForegroundMaskSequence(masks, tau=tau) if masked else None,
        summary=summary,
    )
    if cfg.output_dir is None:
        return report
    # The masks of a sweep (cfg.tau; tau holds the chosen one) and of failed
    # chunks, then timings.csv last, whose run row books these writes.
    # Here, not at the top: `import dmdmotion` stays without io_formats.
    from .io_formats import save_masks

    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "report.txt"), "w") as fh:
        fh.write(render_report(report))
    if masked:
        for c in chunks:
            if cfg.tau is None or not c.ok:
                save_masks(os.path.join(out, "masks"),
                           bg.ForegroundMaskSequence(masks[c.start : c.stop]),
                           stems[c.start : c.stop])
    if raw is not None:
        ev.write_metrics_csv(os.path.join(out, "metrics.csv"), taus, raw)
    if roc is not None:
        ev.write_roc_csv(os.path.join(out, "roc.csv"), roc)
    timer.mark("run", "write")
    with open(os.path.join(out, "timings.csv"), "w") as fh:
        fh.write(timer.csv())
    return report


def render_report(report: RunReport) -> str:
    """Human-readable run description; deterministic (timings live in the CSV)."""
    cfg = report.config
    lines = [
        f"run: {report.n_frames} frames of "
        f"{report.frame_height}x{report.frame_width}, {len(report.chunks)} chunks",
        f"config: k={cfg.k} p={cfg.p} q={cfg.q} chunk_length={cfg.chunk_length} "
        f"n_background={cfg.n_background} anchor={cfg.anchor} "
        f"median_kernel={cfg.median_kernel} seed={cfg.seed}",
        "threshold: " + ("sweep" if cfg.tau is None else repr(cfg.tau))
        + (f" -> tau={report.tau!r}" if report.tau is not None else ""),
        "",
    ]
    for c in report.chunks:
        if not c.ok:
            lines.append(f"chunk {c.index}: frames [{c.start}, {c.stop}) FAILED {c.error}")
            lines.append("")
            continue
        lines.append(
            f"chunk {c.index}: frames [{c.start}, {c.stop}), seed {c.seed}, "
            f"rank {c.retained_rank}, background modes {list(c.background_indices)}"
        )
        lines.append("  idx  eigenvalue                     |lambda|   |omega|    role")
        bg_set = set(c.background_indices)
        for j, (lam, om) in enumerate(zip(c.eigenvalues, c.omega)):
            mod = "excluded" if not np.isfinite(om) else f"{abs(om):.6f}"
            role = "background" if j in bg_set else (
                "excluded" if not np.isfinite(om) else "foreground"
            )
            lines.append(
                f"  {j:<4d} {lam.real:+.6f}{lam.imag:+.6f}j "
                f"   {abs(lam):.6f}   {mod:<9s}  {role}"
            )
        lines.append("")
    if report.summary is not None:
        parts = [f"{k}={v:.6f}" for k, v in sorted(report.summary.items())]
        lines.append("summary: " + " ".join(parts))
        lines.append("")
    return "\n".join(lines)
