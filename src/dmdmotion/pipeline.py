"""End-to-end background subtraction runs.

A run splits the input video into chunks, decomposes each chunk on its own
(seeded independently, so chunk results do not depend on processing order),
models the background per chunk, and assembles masks 1:1 with the input
frames. A chunk that fails records its diagnostic and contributes empty
masks; the other chunks proceed.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace

import numpy as np

from . import background as bg
from . import evaluation as ev
from .dmd import FIRST_FRAME, MEDIAN_FRAME, SnapshotMatrix, rdmd
from .errors import DegenerateDataError
from .linalg import SketchConfig
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

    Exactly one of frames (a PGM glob pattern) and synthetic must be set.
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
        if (self.frames is None) == (self.synthetic is None):
            raise ValueError("exactly one of frames and synthetic must be given")
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.tau is not None and not (np.isfinite(self.tau) and self.tau >= 0):
            raise ValueError(f"tau must be finite and nonnegative, got {self.tau}")
        if self.median_kernel < 1 or self.median_kernel % 2 == 0:
            raise ValueError("median_kernel must be odd and >= 1")
        if self.anchor not in (FIRST_FRAME, MEDIAN_FRAME) and not (
            isinstance(self.anchor, (int, np.integer)) and self.anchor >= 0
        ):
            raise ValueError(
                f"anchor must be {FIRST_FRAME!r}, {MEDIAN_FRAME!r} or a frame index "
                f">= 0, got {self.anchor!r}"
            )

    @property
    def min_chunk_frames(self) -> int:
        # A chunk of n frames exposes n-1 snapshot pairs; the sketch needs k+p.
        return self.k + self.p + 1


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
    decompose_seconds: float = 0.0
    mask_seconds: float = 0.0

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
    total_seconds: float


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


def _load_input(
    cfg: RunConfig,
) -> tuple[SnapshotMatrix, bg.ForegroundMaskSequence | None, list[str] | None]:
    """Frames, truth if given, and mask file stems named after the frame files."""
    if cfg.synthetic is not None:
        return *generate_synthetic(cfg.synthetic), None
    from .io_formats import load_frames, load_masks

    D, paths = load_frames(cfg.frames)
    truth = load_masks(cfg.truth) if cfg.truth is not None else None
    # Masks all go to one directory, so two frames of one file name (in two
    # directories) would write one mask file.
    stems: dict[str, str] = {}
    for path in paths:
        stem = os.path.splitext(os.path.basename(path))[0] + "_mask"
        if stem in stems:
            raise ValueError(f"frames {stems[stem]} and {path} would both write mask {stem}")
        stems[stem] = path
    return D, truth, list(stems)


def _run_chunk(
    D: SnapshotMatrix, cfg: RunConfig, index: int, start: int, stop: int
) -> tuple[ChunkResult, bg.ResidualSequence | None]:
    """Decompose one chunk, model its background and write its outputs.

    Returns the chunk's record with its residual, or with None when the chunk
    failed on its data (DegenerateDataError or LinAlgError; any other error
    propagates). With an output directory, the decomposition (and,
    under save_residuals, the residual) goes to chunk_NNN/ here, so no
    decomposition outlives its chunk.
    """
    t0 = time.perf_counter()
    try:
        sub = D.columns(start, stop)
        sketch = SketchConfig(
            rank=cfg.k,
            oversampling=cfg.p,
            subspace_iters=cfg.q,
            seed=cfg.seed + index,
        )
        dec = rdmd(sub, sketch, anchor=cfg.anchor)
        omega = bg.fourier_modes(dec)
        # A near-static chunk can retain fewer usable modes than requested; take
        # what is there rather than failing the chunk (none fails it).
        n_bg = min(cfg.n_background, np.count_nonzero(np.isfinite(omega)))
        background_indices = bg.partition_modes(omega, n_bg)
        S = bg.background_residual(sub, dec, background_indices)
    except (DegenerateDataError, np.linalg.LinAlgError) as exc:
        failed = ChunkResult(
            index=index,
            start=start,
            stop=stop,
            seed=cfg.seed + index,
            error=f"{type(exc).__name__}: {exc}",
            decompose_seconds=time.perf_counter() - t0,
        )
        return failed, None
    result = ChunkResult(
        index=index,
        start=start,
        stop=stop,
        seed=cfg.seed + index,
        retained_rank=dec.rank,
        eigenvalues=dec.eigenvalues,
        omega=omega,
        background_indices=background_indices,
        decompose_seconds=time.perf_counter() - t0,
    )
    if cfg.output_dir is not None:
        from .io_formats import save_decomposition, save_matrix

        chunk_dir = os.path.join(cfg.output_dir, f"chunk_{index:03d}")
        save_decomposition(chunk_dir, dec)
        if cfg.save_residuals:
            save_matrix(os.path.join(chunk_dir, "residual.mat"), S.values)
    return result, S


def run_bgsub(cfg: RunConfig) -> RunReport:
    """Decompose, model, threshold and evaluate; see the module docstring."""
    t_run = time.perf_counter()
    D, truth, stems = _load_input(cfg)
    if cfg.tau is None and truth is None:
        raise ValueError("threshold sweep needs ground truth; pass a fixed tau instead")
    if truth is not None and truth.masks.shape != (D.n_frames, D.frame_height, D.frame_width):
        n, h, w = truth.masks.shape
        raise ValueError(
            f"truth has {n} masks of {h}x{w} for {D.n_frames} frames of "
            f"{D.frame_height}x{D.frame_width}"
        )
    n_pixels = D.frame_height * D.frame_width
    if cfg.k + cfg.p > n_pixels:
        raise ValueError(f"k+p = {cfg.k + cfg.p} exceeds the {n_pixels} pixels of a frame")
    bounds = chunk_bounds(D.n_frames, cfg.chunk_length, cfg.min_chunk_frames)
    # An integer anchor addresses a frame of each chunk's left sequence, which
    # is one frame shorter than the chunk.
    shortest = min(stop - start for start, stop in bounds)
    if isinstance(cfg.anchor, (int, np.integer)) and cfg.anchor >= shortest - 1:
        raise ValueError(
            f"anchor frame {cfg.anchor} outside [0, {shortest - 1}) of the "
            f"shortest chunk ({shortest} frames)"
        )
    # A sweep's curve needs both truth classes. Chunk outputs are written as
    # each chunk runs, so this is checked before the first one.
    if cfg.tau is None and not truth.masks.any():
        raise ValueError("truth contains no foreground pixels")
    if cfg.tau is None and truth.masks.all():
        raise ValueError("truth contains no background pixels")

    def truth_of(c: ChunkResult) -> bg.ForegroundMaskSequence:
        return bg.ForegroundMaskSequence(truth.masks[c.start : c.stop])

    mask_frames = np.zeros((D.n_frames, D.frame_height, D.frame_width), dtype=bool)
    final_counts = ev.ConfusionCounts(0, 0, 0, 0)

    def make_masks(c: ChunkResult, S: bg.ResidualSequence, tau: float) -> ChunkResult:
        """Threshold and filter one chunk's masks into mask_frames and score them."""
        nonlocal final_counts
        t0 = time.perf_counter()
        chunk_masks = bg.filter_masks(bg.threshold_mask(S, tau), cfg.median_kernel)
        bg._copy_frames(mask_frames[c.start : c.stop], chunk_masks.masks)
        c = replace(c, mask_seconds=time.perf_counter() - t0)
        if truth is not None:
            final_counts += ev.confusion(chunk_masks, truth_of(c))
        return c

    # A fixed tau masks each chunk as soon as it runs. Its residual is then
    # dropped before the next chunk, unless metrics.csv and roc.csv need it:
    # their tau grid spans the largest residual of the whole run.
    keep = cfg.tau is None or (truth is not None and cfg.output_dir is not None)
    chunks: list[ChunkResult] = []
    ran: list[tuple[ChunkResult, bg.ResidualSequence]] = []
    for i, (start, stop) in enumerate(bounds):
        c, S = _run_chunk(D, cfg, i, start, stop)
        if S is not None and cfg.tau is not None:
            c = make_masks(c, S, cfg.tau)
        if S is not None and keep:
            ran.append((c, S))
        chunks.append(c)
        del S
    any_ok = any(c.ok for c in chunks)
    tau = cfg.tau

    # Confusion counts at every grid tau, summed over the chunks that ran, of
    # the raw masks and, when sweeping with a filter, of the filtered ones
    # (with kernel 1 the two sweeps are one). Each chunk is ranked once for
    # both.
    taus = raw = filtered = None
    if truth is not None and ran:
        taus = ev.tau_grid(max(float(S.values.max()) for _, S in ran))
        kernel = cfg.median_kernel if tau is None else 1
        raw = np.zeros((taus.size, 4), dtype=np.int64)
        filtered = np.zeros_like(raw)
        for c, S in ran:
            chunk_raw, chunk_filtered = ev._raw_and_filtered_counts(
                S, truth_of(c), taus, kernel
            )
            raw += chunk_raw
            filtered += chunk_filtered

    # A curve needs both truth classes in the chunks that ran. Without one, a
    # sweep fails in from_counts and a fixed-tau run writes no roc.csv.
    roc = None
    if raw is not None:
        tp, fp, tn, fn = raw[0].tolist()
        if tau is None or (tp + fn > 0 and tn + fp > 0):
            roc = ev.RocCurve.from_counts(taus, raw)

    # A sweep in which every chunk failed has no counts; its report keeps
    # tau, masks and summary None and still lists each chunk's reason.
    summary: dict[str, float] | None = None
    if tau is None and raw is not None:
        best_tau, best_f = ev.best_f_from_counts(taus, raw)
        tau, filt_f = ev.best_f_from_counts(taus, filtered)
        summary = {
            "best_tau_raw": best_tau,
            "best_f_raw": best_f,
            "best_tau_filtered": tau,
            "best_f_filtered": filt_f,
            "auc": roc.auc,
        }
        for c, S in ran:
            chunks[c.index] = make_masks(c, S, tau)
    masks = bg.ForegroundMaskSequence(mask_frames, tau=tau) if any_ok else None
    if any_ok and truth is not None:
        summary = {**(summary or {}), **ev.rates(final_counts)}

    report = RunReport(
        config=cfg,
        frame_height=D.frame_height,
        frame_width=D.frame_width,
        n_frames=D.n_frames,
        chunks=tuple(chunks),
        tau=tau,
        masks=masks,
        summary=summary,
        total_seconds=time.perf_counter() - t_run,
    )
    if cfg.output_dir is not None:
        _write_outputs(cfg, report, stems, taus, raw, roc)
    return report


def _write_outputs(cfg, report, stems, taus, raw, roc) -> None:
    """Run-level files; each chunk_NNN/ was written by its chunk step."""
    from .io_formats import save_masks

    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "report.txt"), "w") as fh:
        fh.write(render_report(report))
    with open(os.path.join(out, "timings.csv"), "w") as fh:
        fh.write("chunk,decompose_seconds,mask_seconds\n")
        for c in report.chunks:
            fh.write(f"{c.index},{c.decompose_seconds!r},{c.mask_seconds!r}\n")
        fh.write(f"total,{report.total_seconds!r},0.0\n")
    if report.masks is not None:
        save_masks(os.path.join(out, "masks"), report.masks, stems)
    if raw is not None:
        rows = [
            ev.metrics_row(float(t), ev.ConfusionCounts(*row))
            for t, row in zip(taus, raw.tolist())
        ]
        ev.write_metrics_csv(os.path.join(out, "metrics.csv"), rows)
    if roc is not None:
        ev.write_roc_csv(os.path.join(out, "roc.csv"), roc)


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
