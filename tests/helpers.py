"""Shared oracles for the test suite."""

from __future__ import annotations

import numpy as np
import scipy.ndimage
from numpy.lib.stride_tricks import sliding_window_view


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


def reference_range_finder(A: np.ndarray, l: int, q: int, seed: int) -> np.ndarray:
    """linalg._range_finder with every thin QR taken by np.linalg.qr.

    The oracle of _orthonormal_columns inside rsvd: patched in for
    linalg._range_finder, it must give rsvd the same factor bytes.
    """
    from dmdmotion.linalg import random_gaussian

    omega = random_gaussian(A.shape[1], l, seed)
    Q, _ = np.linalg.qr(A @ omega)
    for _ in range(q):
        Z, _ = np.linalg.qr(A.T @ Q)
        Q, _ = np.linalg.qr(A @ Z)
    return Q


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
