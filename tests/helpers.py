"""Shared oracles for the test suite."""

from __future__ import annotations

import os
from dataclasses import astuple, dataclass

import numpy as np
import scipy.ndimage
from numpy.lib.stride_tricks import sliding_window_view

from dmdmotion.background import ForegroundMaskSequence
from dmdmotion.dmd import MEDIAN_FRAME, DmdDecomposition, SnapshotMatrix, _decompose
from dmdmotion.linalg import SvdFactors, _as_matrix, _fix_signs, _unscanned


def hausdorff_distance(a, b) -> float:
    """Symmetric set distance between two collections of complex numbers."""
    a = np.asarray(a, dtype=np.complex128).ravel()
    b = np.asarray(b, dtype=np.complex128).ravel()
    if a.size == 0 or b.size == 0:
        raise ValueError("hausdorff distance needs nonempty sets")
    d = np.abs(a[:, None] - b[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def frobenius_gap(A: np.ndarray, B: np.ndarray) -> float:
    return float(np.linalg.norm(A - B))


def principal_angle_cos(u: np.ndarray, v: np.ndarray) -> float:
    """|cos| of the angle between two complex vectors."""
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(abs(np.vdot(u, v)) / (nu * nv))


def deterministic_svd(A: np.ndarray, k: int) -> SvdFactors:
    """Top-k factors of the full SVD of A, signed as rsvd signs its; the exactness oracle.

    Frobenius reconstruction error equals sqrt(sum of squared singular values
    beyond the k-th).
    """
    A = _as_matrix(A)
    m, n = A.shape
    if not 1 <= k <= min(m, n):
        raise ValueError(f"k={k} outside [1, min(m, n)={min(m, n)}]")
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    U, V = _fix_signs(U[:, :k], Vt[:k, :].T)
    return _unscanned(SvdFactors, U, s[:k].copy(), V)


def deterministic_dmd(
    D: SnapshotMatrix,
    rank: int,
    anchor: str | int = MEDIAN_FRAME,
) -> DmdDecomposition:
    """Reference decomposition from the full SVD of D's left sequence; the rdmd oracle."""
    factors = deterministic_svd(D.data[:, :-1], rank)
    return _decompose(D, factors, anchor, seed=0)


@dataclass(frozen=True)
class PlantedSystem:
    """A snapshot sequence built from known modes, eigenvalues and amplitudes.

    component(indices) rebuilds the contribution of a mode subset, so a test
    can compare a fitted background against the schedule that generated it.
    """

    snapshots: SnapshotMatrix
    modes: np.ndarray
    eigenvalues: np.ndarray
    amplitudes: np.ndarray

    def component(self, indices: tuple[int, ...] | list[int] | None = None) -> np.ndarray:
        if indices is None:
            idx = np.arange(self.eigenvalues.size)
        else:
            idx = np.asarray(sorted(set(indices)), dtype=np.intp)
        n = self.snapshots.n_frames
        t = np.arange(n, dtype=np.float64)
        dynamics = self.amplitudes[idx, None] * self.eigenvalues[idx, None] ** t[None, :]
        return self.modes[:, idx] @ dynamics


def _conjugate_partner(lam: np.ndarray, i: int, used: set[int]) -> int | None:
    for j in range(lam.size):
        if j == i or j in used:
            continue
        if abs(lam[j] - np.conj(lam[i])) < 1e-12 * max(1.0, abs(lam[i])):
            return j
    return None


def planted_linear_snapshots(
    eigenvalues,
    frame_shape: tuple[int, int],
    n_frames: int,
    amplitudes=None,
    seed: int = 0,
    carrier_range: tuple[float, float] = (0.3, 0.7),
    mode_scale: float = 0.05,
) -> PlantedSystem:
    """Exact-rank data f_t = sum_i b_i lam_i^t phi_i with a known spectrum.

    The first eigenvalue's mode is a positive carrier with entries uniform in
    carrier_range; remaining modes are random with max magnitude mode_scale.
    Conjugate eigenvalue pairs share a conjugated mode and amplitude so the
    data stays real. Raises if the result leaves [0, 1]; shrink mode_scale or
    the amplitudes in that case.
    """
    lam = np.asarray(eigenvalues, dtype=np.complex128)
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError("eigenvalues must be a nonempty vector")
    k = lam.size
    if amplitudes is None:
        b = np.ones(k, dtype=np.complex128)
    else:
        b = np.asarray(amplitudes, dtype=np.complex128)
        if b.shape != lam.shape:
            raise ValueError("amplitudes must align with eigenvalues")
    h, w = frame_shape
    m = h * w
    rng = np.random.default_rng(seed)
    modes = np.zeros((m, k), dtype=np.complex128)
    used: set[int] = set()
    for i in range(k):
        if i in used:
            continue
        used.add(i)
        if i == 0:
            lo, hi = carrier_range
            modes[:, 0] = rng.uniform(lo, hi, size=m)
            continue
        if abs(lam[i].imag) < 1e-12:
            vec = rng.standard_normal(m)
        else:
            j = _conjugate_partner(lam, i, used)
            if j is None:
                raise ValueError(
                    f"eigenvalue {lam[i]} has no conjugate partner; real data needs one"
                )
            vec = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            scale = mode_scale / np.abs(vec).max()
            modes[:, i] = vec * scale
            modes[:, j] = np.conj(modes[:, i])
            if abs(b[j] - np.conj(b[i])) > 1e-12 * max(1.0, abs(b[i])):
                raise ValueError("amplitudes of a conjugate pair must be conjugate")
            used.add(j)
            continue
        modes[:, i] = vec * (mode_scale / np.abs(vec).max())
    t = np.arange(n_frames, dtype=np.float64)
    data_c = modes @ (b[:, None] * lam[:, None] ** t[None, :])
    if np.abs(data_c.imag).max() > 1e-10:
        raise ValueError("planted data came out complex; eigenvalue set is not conjugate-closed")
    data = np.ascontiguousarray(data_c.real)
    if data.min() < 0.0 or data.max() > 1.0:
        raise ValueError(
            f"planted data spans [{data.min():.3f}, {data.max():.3f}]; "
            "reduce mode_scale or amplitudes to stay in [0, 1]"
        )
    snapshots = SnapshotMatrix(data=data, frame_height=h, frame_width=w)
    return PlantedSystem(snapshots, modes, lam, b)


def reference_synthetic(spec):
    """generate_synthetic drawn over the whole video at once.

    The oracle of the frame-at-a-time generate_synthetic: one 3-D array,
    one noise draw of the whole video's shape, then a transposed copy.
    """
    h, w, n = spec.frame_height, spec.frame_width, spec.n_frames
    frames = np.full((n, h, w), spec.base_level, dtype=np.float64)
    if spec.texture_amplitude > 0.0:
        t = np.arange(n, dtype=np.float64)[:, None, None]
        phase = 2.0 * np.pi * np.arange(w, dtype=np.float64) / w
        frames += spec.texture_amplitude * np.sin(
            2.0 * np.pi * t / spec.texture_period + phase[None, None, :]
        )
    truth = np.zeros((n, h, w), dtype=bool)
    for t_idx in range(n):
        for rect in spec.objects:
            rows, cols = rect.footprint(t_idx, h, w)
            frames[t_idx, rows, cols] = rect.intensity
            truth[t_idx, rows, cols] = True
    if spec.noise_sigma > 0.0:
        rng = np.random.default_rng(spec.seed)
        frames += rng.normal(0.0, spec.noise_sigma, size=frames.shape)
    np.clip(frames, 0.0, 1.0, out=frames)
    data = frames.reshape(n, h * w).T.copy()
    snapshots = SnapshotMatrix(data=data, frame_height=h, frame_width=w)
    return snapshots, ForegroundMaskSequence(masks=truth, tau=None)


def reference_range_finder(A: np.ndarray, l: int, q: int, seed: int) -> np.ndarray:
    """linalg._range_finder with every thin QR taken by np.linalg.qr.

    The oracle of _orthonormal_columns inside rsvd: patched in for
    linalg._range_finder, it must give rsvd the same factor bytes.
    """
    omega = np.random.default_rng(seed).standard_normal((A.shape[1], l))
    Q, _ = np.linalg.qr(A @ omega)
    for _ in range(q):
        Z, _ = np.linalg.qr(A.T @ Q)
        Q, _ = np.linalg.qr(A @ Z)
    return Q


def rsvd_error_bound(sigma_k_plus_1: float, m: int, n: int, k: int, q: int) -> float:
    """Expected spectral-norm error bound of the sketched SVD at target rank k >= 2.

    sigma_{k+1} * [1 + 4 sqrt(2 min(m,n) / (k-1))] ** (1 / (2q+1)), from
    Halko, Martinsson & Tropp (2011), eq. (1.11): a bound on E ||A - Q Q^T A||_2
    for a sketch of 2k columns (oversampling equal to k) and q subspace
    iterations; at other sketch sizes it is simply evaluated.
    """
    base = 1.0 + 4.0 * np.sqrt(2.0 * min(m, n) / (k - 1.0))
    return float(sigma_k_plus_1 * base ** (1.0 / (2.0 * q + 1.0)))


def reference_residual(D, dec, indices):
    """|D - Re(modes @ temporal)| from the whole complex background at once.

    modes and temporal are background_factors(dec, indices). The oracle
    of background.factor_residual, which forms the same product one block
    of pixels at a time and must give the same bytes.
    """
    from dmdmotion.background import ResidualSequence, background_factors

    modes, temporal = background_factors(dec, indices)
    values = np.abs(D.data - (modes @ temporal).real)
    return ResidualSequence(values, D.frame_height, D.frame_width)


def threshold_mask(S, tau: float):
    """Foreground where the residual strictly exceeds tau, as a transposed view.

    The oracle of the masks that a fixed-tau run thresholds inside its
    residual loop: one pass over the whole residual into an (n_pixels,
    n_frames) bool array, viewed frame-major.
    """
    from dmdmotion.background import ForegroundMaskSequence

    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    masks = (S.values > tau).T.reshape(S.n_frames, S.frame_height, S.frame_width)
    return ForegroundMaskSequence(masks=masks, tau=float(tau))


def median_filter(mask: np.ndarray, kernel: int = 3) -> np.ndarray:
    """Majority vote in each kernel x kernel neighborhood of a binary frame.

    The per-frame oracle for filter_masks and the filtered sweep. Borders
    replicate the edge pixel; kernel 1 is the identity.
    """
    if kernel < 1 or kernel % 2 == 0:
        raise ValueError(f"kernel must be odd and >= 1, got {kernel}")
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError("median_filter expects a single 2-d mask frame")
    if kernel == 1:
        return mask.copy()
    filtered = scipy.ndimage.median_filter(mask.astype(np.uint8), size=kernel, mode="nearest")
    return filtered.astype(bool)


def box_sum_by_shifts(src: np.ndarray, out: np.ndarray, radius: int) -> None:
    """background._box_sum by one step of shifted adds per unit of radius.

    Its reference: _box_sum adds the shifts past the axis length at once.
    Here a shift is clamped at the axis length, where it adds the two edge
    pixels to every entry.
    """
    n = src.shape[-1]
    out[...] = src
    for d in range(1, radius + 1):
        d = min(d, n)
        out[..., : n - d] += src[..., d:]
        out[..., n - d :] += src[..., -1:]
        out[..., d:] += src[..., : n - d]
        out[..., :d] += src[..., :1]


def window_medians_by_partition(frames: np.ndarray, kernel: int) -> np.ndarray:
    """Median of every kernel x kernel window in each of frames (b, h, w).

    Edges are replicated. The oracle of evaluation._window_medians, and how
    the sweep once filtered: every window is copied out and partitioned.
    """
    r = kernel // 2
    padded = np.pad(frames, ((0, 0), (r, r), (r, r)), mode="edge")
    windows = sliding_window_view(padded, (kernel, kernel), axis=(1, 2))
    windows = windows.reshape(*frames.shape, kernel * kernel)
    return np.partition(windows, kernel * kernel // 2, axis=-1)[..., kernel * kernel // 2]


def partition_sweep_counts(S, truth, taus, kernel: int = 1) -> np.ndarray:
    """sweep_counts from float64 window medians, one threshold at a time.

    The residual frames are filtered by window_medians_by_partition, and
    each tau's row counts the masks [median > tau] against the truth, so no
    rank or histogram is shared with the code under test.
    """
    frames = S.values.T.reshape(S.n_frames, S.frame_height, S.frame_width)
    if kernel > 1:
        frames = window_medians_by_partition(frames, kernel)
    t = truth.masks
    rows = []
    for tau in taus:
        p = frames > tau
        tp, n_p, n_t = np.count_nonzero(p & t), np.count_nonzero(p), np.count_nonzero(t)
        rows.append((tp, n_p - tp, p.size - n_p - n_t + tp, n_t - tp))
    return np.array(rows, dtype=np.int64).reshape(len(rows), 4)


def searchsorted_ranks(S, taus) -> np.ndarray:
    """Ranks of S against the sorted taus by np.searchsorted, one frame per row.

    The oracle of evaluation._rank, in the (n_frames, height, width) layout
    of the ranks buffer that evaluation.sweep_counts fills.
    """
    ranks = np.searchsorted(np.sort(np.asarray(taus, dtype=np.float64)), S.values, side="left")
    return ranks.T.reshape(S.n_frames, S.frame_height, S.frame_width).astype(
        np.min_scalar_type(len(taus)))


def reference_run(cfg) -> None:
    """run_bgsub as it ran with the whole video in memory; writes cfg.output_dir.

    Every chunk is a copy of the loaded video's frames, its residual is
    reference_residual, formed from the whole complex background and held
    until the tau grid
    is known, the counts are partition_sweep_counts and the masks the
    per-frame median_filter of [S > tau]. Chunks are decomposed by
    pipeline.rdmd, so a test that patches it patches both runs. Every
    output but timings.csv is written, for a byte comparison with the
    pipeline's.
    """
    from dmdmotion import background as bg
    from dmdmotion import evaluation as ev
    from dmdmotion import pipeline
    from dmdmotion.errors import DegenerateDataError
    from dmdmotion.io_formats import (
        load_masks, save_decomposition, save_masks, save_matrix, scan_frames)
    from dmdmotion.linalg import SketchConfig
    from dmdmotion.synthetic import generate_synthetic

    stems = None
    if cfg.synthetic is not None:
        D, truth = generate_synthetic(cfg.synthetic)
    else:
        files = scan_frames(cfg.frames)
        D, paths = files.columns(0, files.n_frames), files.paths
        truth = load_masks(cfg.truth) if cfg.truth is not None else None
        stems = [os.path.splitext(os.path.basename(p))[0] + "_mask" for p in paths]
    chunks, ran = [], []
    for i, (start, stop) in enumerate(
            pipeline.chunk_bounds(D.n_frames, cfg.chunk_length, cfg.k + cfg.p + 1)):
        sub = D.columns(start, stop)
        try:
            dec = pipeline.rdmd(sub, SketchConfig(rank=cfg.k, oversampling=cfg.p,
                                                  subspace_iters=cfg.q, seed=cfg.seed + i),
                                anchor=cfg.anchor)
            omega = bg.fourier_modes(dec)
            part = bg.partition_modes(omega, min(cfg.n_background,
                                                 np.count_nonzero(np.isfinite(omega))))
            S = reference_residual(sub, dec, part)
        except (DegenerateDataError, np.linalg.LinAlgError) as exc:
            chunks.append(pipeline.ChunkResult(i, start, stop, cfg.seed + i,
                                               error=f"{type(exc).__name__}: {exc}"))
            continue
        chunks.append(pipeline.ChunkResult(i, start, stop, cfg.seed + i, dec.rank,
                                           dec.eigenvalues, omega, part))
        ran.append((chunks[-1], S))
        chunk_dir = os.path.join(cfg.output_dir, f"chunk_{i:03d}")
        save_decomposition(chunk_dir, dec)
        if cfg.save_residuals:
            save_matrix(os.path.join(chunk_dir, "residual.mat"), S.values)

    def truth_of(c):
        return bg.ForegroundMaskSequence(truth.masks[c.start:c.stop])

    tau, taus, raw, roc, summary = cfg.tau, None, None, None, None
    if truth is not None and ran:
        taus = ev.tau_grid(max(float(S.values.max()) for _, S in ran))
        raw = sum(partition_sweep_counts(S, truth_of(c), taus) for c, S in ran)
        tp, fp, tn, fn = raw[0].tolist()
        if tau is None or (tp + fn > 0 and tn + fp > 0):
            roc = ev.RocCurve.from_counts(taus, raw)
    if tau is None and raw is not None:
        filtered = sum(partition_sweep_counts(S, truth_of(c), taus, cfg.median_kernel)
                       for c, S in ran)
        best_tau, best_f = ev.best_f_from_counts(taus, raw)
        tau, filt_f = ev.best_f_from_counts(taus, filtered)
        summary = {"best_tau_raw": best_tau, "best_f_raw": best_f,
                   "best_tau_filtered": tau, "best_f_filtered": filt_f, "auc": roc.auc}
    masks = None
    if ran and tau is not None:
        masks = np.zeros((D.n_frames, D.frame_height, D.frame_width), dtype=bool)
        for c, S in ran:
            masks[c.start:c.stop] = [median_filter(frame, cfg.median_kernel)
                                     for frame in threshold_mask(S, tau).masks]
        if truth is not None:
            counts = sum(np.array(astuple(ev.confusion(
                bg.ForegroundMaskSequence(masks[c.start:c.stop]), truth_of(c)))) for c, _ in ran)
            summary = {**(summary or {}), **ev.rates(counts)}
        masks = bg.ForegroundMaskSequence(masks, tau=tau)
    report = pipeline.RunReport(cfg, D.frame_height, D.frame_width, D.n_frames, tuple(chunks),
                                tau, masks, summary)
    os.makedirs(cfg.output_dir, exist_ok=True)
    with open(os.path.join(cfg.output_dir, "report.txt"), "w") as fh:
        fh.write(pipeline.render_report(report))
    if masks is not None:
        save_masks(os.path.join(cfg.output_dir, "masks"), masks, stems)
    if raw is not None:
        ev.write_metrics_csv(os.path.join(cfg.output_dir, "metrics.csv"), taus, raw)
    if roc is not None:
        ev.write_roc_csv(os.path.join(cfg.output_dir, "roc.csv"), roc)


def output_files(directory) -> dict[str, bytes]:
    """Every file under directory by relative path, timings.csv excepted."""
    files = {}
    for base, _, names in os.walk(directory):
        for name in names:
            if name != "timings.csv":
                path = os.path.join(base, name)
                with open(path, "rb") as fh:
                    files[os.path.relpath(path, directory)] = fh.read()
    return files
