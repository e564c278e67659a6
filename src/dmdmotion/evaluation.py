"""Pixel-level detection metrics and ROC sweeps for mask sequences.

Counts are pooled over all frames before any rate is formed, so frames with
no true foreground contribute to the totals without producing divide-by-zero
frames of their own. Every rate is formed by rates, for one row of counts
or for an array of rows; a rate with a zero denominator is reported as 0.
"""

from __future__ import annotations

import csv
from dataclasses import astuple, dataclass
from typing import Sequence

import numpy as np

from .background import ForegroundMaskSequence, ResidualSequence, _check_kernel
from .dmd import _block_length, _exchanged

# Bytes _rank holds per entry at its peak: the float64 guess, the intp rank
# and two bool masks.
_RANK_BYTES = 18
# Thresholds of a sweep's grid.
TAU_GRID_SIZE = 51

__all__ = [
    "ConfusionCounts",
    "RocCurve",
    "confusion",
    "rates",
    "tau_grid",
    "sweep_counts",
    "best_f_from_counts",
    "write_roc_csv",
    "write_metrics_csv",
]


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion counts must be nonnegative")


@dataclass(frozen=True)
class RocCurve:
    """Operating points ordered by descending tau, (0,0) and (1,1) appended.

    taus, fpr (1 - specificity) and tpr (recall) are parallel arrays; the
    virtual endpoints sit at tau = +inf and -inf.
    """

    taus: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float

    def __post_init__(self) -> None:
        for coords in (self.fpr, self.tpr):
            if not np.all((coords >= 0.0) & (coords <= 1.0)):
                raise ValueError("ROC coordinates must lie in [0, 1]")
        if np.any(np.diff(self.taus) > 0):
            raise ValueError("ROC points must be ordered by descending tau")
        if not -1e-12 <= self.auc <= 1.0 + 1e-12:
            raise ValueError(f"auc {self.auc} outside [0, 1]")

    @classmethod
    def from_counts(cls, taus: Sequence[float], counts: np.ndarray) -> "RocCurve":
        """Curve through the rows of a sweep_counts array, one point per distinct tau.

        Points are ordered by descending tau, which makes both coordinates
        nondecreasing along the curve; (0, 0) and (1, 1) are appended as
        virtual endpoints for the infinite and zero-threshold extremes. The
        area comes from the trapezoidal rule.
        """
        unique, first = np.unique(np.asarray(taus, dtype=np.float64), return_index=True)
        rows = counts[first[::-1]]
        tp, fp, tn, fn = rows.T
        if unique.size and tp[0] + fn[0] == 0:
            raise ValueError("truth contains no foreground pixels")
        if unique.size and tn[0] + fp[0] == 0:
            raise ValueError("truth contains no background pixels")
        if unique.size < 2:
            raise ValueError(f"need at least 2 distinct thresholds, got {unique.size}")
        r = rates(rows)
        fpr = np.concatenate([[0.0], 1.0 - r["specificity"], [1.0]])
        tpr = np.concatenate([[0.0], r["recall"], [1.0]])
        taus = np.concatenate([[np.inf], unique[::-1], [-np.inf]])
        return cls(taus, fpr, tpr, float(np.trapezoid(tpr, fpr)))


def confusion(
    predicted: ForegroundMaskSequence, truth: ForegroundMaskSequence
) -> ConfusionCounts:
    """Pixel counts pooled over every frame of the two sequences."""
    if predicted.masks.shape != truth.masks.shape:
        raise ValueError(
            f"mask shapes differ: {predicted.masks.shape} vs {truth.masks.shape}"
        )
    p = predicted.masks
    t = truth.masks
    # One mask-sized temporary: the other three counts follow from tp and
    # the two class sizes.
    tp = int(np.count_nonzero(p & t))
    n_p = int(np.count_nonzero(p))
    n_t = int(np.count_nonzero(t))
    return ConfusionCounts(tp, n_p - tp, p.size - n_p - n_t + tp, n_t - tp)


def rates(counts) -> dict:
    """Recall, precision, specificity and F of counts; a zero-denominator rate is 0.

    counts is a ConfusionCounts or one (tp, fp, tn, fn) row, whose rates are
    floats, or a 2-D array of such rows, whose rates are float64 arrays with
    one entry per row. F is the harmonic mean of recall and precision, 0
    when both vanish.
    """
    if isinstance(counts, ConfusionCounts):
        counts = astuple(counts)
    counts = np.asarray(counts, dtype=np.int64)
    tp, fp, tn, fn = counts.T
    den = np.array([tp + fn, tp + fp, tn + fp], dtype=np.float64)
    r, p, s = np.divide([tp, tp, tn], den, out=np.zeros_like(den), where=den != 0)
    den = r + p
    f = np.divide(2.0 * r * p, den, out=np.zeros_like(den), where=den != 0)
    out = {"recall": r, "precision": p, "specificity": s, "f_measure": f}
    return {k: float(v) for k, v in out.items()} if counts.ndim == 1 else out


def tau_grid(top: float) -> np.ndarray:
    """TAU_GRID_SIZE thresholds evenly spaced over [0, top]; a zero top spans [0, 1]."""
    if top == 0.0:
        top = 1.0
    return np.linspace(0.0, top, TAU_GRID_SIZE)


def _network_bytes(n_pixels: int, kernel: int, n_taus: int = TAU_GRID_SIZE) -> int:
    """Bytes of a sweep's median network for one frame: kernel**2 rank frames, an intp key."""
    rank_bytes = np.min_scalar_type(n_taus).itemsize
    return n_pixels * (kernel * kernel * rank_bytes + np.dtype(np.intp).itemsize)


def _window_medians(frames: np.ndarray, kernel: int) -> np.ndarray:
    """Median of every pixel's kernel x kernel window in each of frames (b, h, w).

    Edges are replicated. The kernel**2 shifted views of the edge-padded
    frames are copied into contiguous frames, with a spare one after them,
    which _exchanged then orders in place.
    """
    b, h, w = frames.shape
    r = kernel // 2
    n = kernel * kernel
    padded = np.pad(frames, ((0, 0), (r, r), (r, r)), mode="edge")
    values = np.empty((n + 1, b, h, w), dtype=frames.dtype)
    for i in range(n):
        dy, dx = divmod(i, kernel)
        values[i] = padded[:, dy : dy + h, dx : dx + w]
    return _exchanged(values)[n // 2]


def _counts(hist: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Counts per tau, in the order given, from a histogram over (rank, truth).

    hist[2 r + t] counts the pixels of rank r and truth bit t. A pixel of
    rank r exceeds the r smallest taus, so the j-th smallest tau (from 0)
    marks foreground exactly the pixels of rank >= j + 1.
    """
    # above[r] = pixels of rank >= r, split by truth bit: (false, true).
    above = np.cumsum(hist.reshape(-1, 2)[::-1], axis=0)[::-1]
    fp, tp = above[1:, 0], above[1:, 1]
    negatives, positives = above[0]
    counts = np.empty((order.size, 4), dtype=np.int64)
    counts[order] = np.column_stack([tp, fp, negatives - fp, positives - tp])
    return counts


def _rank(values: np.ndarray, sorted_taus: np.ndarray) -> np.ndarray:
    """np.searchsorted(sorted_taus, values, side="left"), as intp: taus below each value.

    A value v of rank r lies in (tau_{r-1}, tau_r], with -inf and +inf past
    the ends. On a grid spaced evenly up to its largest tau, r is
    ceil(v (n - 1) / tau_max), clipped to [0, n]; that guess is checked
    against its two neighbouring taus, and every entry that fails, as on an
    uneven grid, is searched, so any sorted taus, duplicates included, give
    searchsorted's ranks.
    """
    n = sorted_taus.size
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scale = (n - 1) / sorted_taus[-1] if n else np.nan
        if not (np.isfinite(scale) and scale > 0):
            return np.searchsorted(sorted_taus, values, side="left")
        buf = np.multiply(values, scale)
        np.ceil(buf, out=buf)
    np.clip(buf, 0, n, out=buf)
    rank = buf.astype(np.intp)
    edges = np.concatenate([[-np.inf], sorted_taus, [np.inf]])
    # rank is right where edges[rank] < v <= edges[rank + 1]. Every rank is
    # in range, and mode="clip" writes out directly, where "raise" buffers it.
    high = np.greater_equal(np.take(edges, rank, out=buf, mode="clip"), values)
    low = np.less(np.take(edges[1:], rank, out=buf, mode="clip"), values)
    del buf
    wrong = np.flatnonzero(np.logical_or(high, low, out=low))
    if wrong.size:
        rank.reshape(-1)[wrong] = np.searchsorted(
            sorted_taus, values.reshape(-1)[wrong], side="left")
    return rank


def sweep_counts(
    S: ResidualSequence,
    truth: ForegroundMaskSequence,
    taus: Sequence[float],
    kernel: int = 1,
    ranks: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(raw, filtered) confusion counts of the masks [S > tau] at every tau, in one pass.

    Each is an int64 array of shape (len(taus), 4) with columns tp, fp, tn,
    fn, one row per tau in the order given. Each residual is ranked once by
    how many thresholds lie strictly below it, in the smallest unsigned type
    that holds len(taus); one histogram over (rank, truth) and a reverse
    cumulative sum give the raw counts at every threshold.

    filtered scores the median-filtered masks of filter_masks instead, from
    the histogram of the kernel x kernel window medians of the ranks (edges
    replicated); at kernel 1, raw and filtered are the same array. Blocks of
    entries are ranked in BLOCK_BYTES, at _RANK_BYTES per entry, and blocks
    of frames are filtered in BLOCK_BYTES, at kernel**2 r + 8 bytes per
    pixel for ranks of r bytes: the network's frames and an intp key.

    A ranks buffer, a contiguous (n_frames, height, width) array of
    np.min_scalar_type(len(taus)), if given receives the ranks of S against
    the sorted taus, median-filtered by kernel: the filtered mask at tau_j
    is [ranks > j] for the first index j of tau_j among them (see _counts).
    At kernel 1 it holds the ranks themselves. Without one, a kernel above
    1 holds the ranks of the whole of S.
    """
    _check_kernel(kernel)
    n, h, w = shape = (S.n_frames, S.frame_height, S.frame_width)
    if truth.masks.shape != shape:
        raise ValueError(f"mask shapes differ: {shape} vs {truth.masks.shape}")
    taus = np.asarray(taus, dtype=np.float64)
    order = np.argsort(taus, kind="stable")
    sorted_taus = taus[order]
    dtype = np.min_scalar_type(taus.size)
    if ranks is None and kernel > 1:
        ranks = np.empty(shape, dtype=dtype)
    elif ranks is not None and ranks.dtype != dtype:
        # Another type would cast the ranks; bool would truncate them to 0 and 1.
        raise ValueError(f"ranks must be {dtype} for {taus.size} taus, got {ranks.dtype}")
    raw = np.zeros(2 * (taus.size + 1), dtype=np.int64)
    # Ranks of a block of contiguous pixel rows, over all frames, with the
    # matching truth; the histogram does not depend on the pixel order.
    m = h * w
    truth_by_pixel = truth.masks.reshape(n, m).T
    rows = _block_length(_RANK_BYTES * n)
    for start in range(0, m, rows):
        key = _rank(S.values[start : start + rows], sorted_taus)
        if ranks is not None:
            ranks.reshape(n, m)[:, start : start + rows] = key.T
        key *= 2
        key += truth_by_pixel[start : start + rows]
        raw += np.bincount(key.ravel(), minlength=raw.size)
        del key  # before the next block's ranks are allocated
    if kernel == 1:
        counts = _counts(raw, order)
        return counts, counts
    # A rank is monotone in the residual, so the window median of the ranks
    # is the rank of the window median. The majority of [S > tau] over a
    # window is [window median of S > tau] (threshold decomposition), so one
    # median filter of the ranks serves every threshold.
    filtered = np.zeros_like(raw)
    block = _block_length(_network_bytes(m, kernel, taus.size))
    for start in range(0, n, block):
        # A window lies within its frame, so no later block reads these ranks.
        frames = ranks[start : start + block]
        frames[...] = _window_medians(frames, kernel)
        # bincount counts intp keys, so the key is formed in that type.
        key = np.multiply(frames, 2, dtype=np.intp)
        key += truth.masks[start : start + block]
        filtered += np.bincount(key.ravel(), minlength=filtered.size)
    return _counts(raw, order), _counts(filtered, order)


def best_f_from_counts(taus: Sequence[float], counts: np.ndarray) -> tuple[float, float]:
    """(tau, F) maximizing F over rows of sweep_counts' counts; ties keep the smallest tau."""
    unique, first = np.unique(np.asarray(taus, dtype=np.float64), return_index=True)
    if not unique.size:
        return 0.0, -1.0
    f = rates(counts[first])["f_measure"]
    best = int(np.argmax(f))
    return float(unique[best]), float(f[best])


def write_roc_csv(path: str, curve: RocCurve) -> None:
    """Point list in CSV columns (tau, 1-specificity, recall), AUC summary last."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tau", "one_minus_specificity", "recall"])
        for row in zip(curve.taus.tolist(), curve.fpr.tolist(), curve.tpr.tolist()):
            writer.writerow([repr(v) for v in row])
        fh.write(f"# auc={curve.auc!r}\n")


def write_metrics_csv(path: str, taus: Sequence[float], counts) -> None:
    """One row per tau: its (tp, fp, tn, fn) row of counts and their rates, in fixed columns."""
    cols = ["tau", "tp", "fp", "tn", "fn", "recall", "precision", "specificity", "f_measure"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        rate_columns = (v.tolist() for v in rates(counts).values())
        for tau, row, *values in zip(taus, np.asarray(counts).tolist(), *rate_columns):
            writer.writerow([repr(v) for v in (float(tau), *row, *values)])
