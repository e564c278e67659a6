"""Low-rank dynamic mode decomposition of video snapshot matrices.

A snapshot matrix holds consecutive grayscale frames as columns. The one-step
linear operator relating each frame to the next is reduced onto the leading
left singular subspace of the left snapshot sequence, as linalg's randomized
SVD sketches it; its eigendecomposition yields spatial modes, eigenvalues
describing each mode's temporal evolution, and complex amplitudes fitted to
an anchor frame by least squares.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateDataError
from .linalg import (
    SketchConfig,
    SvdFactors,
    _all_finite,
    _is_integer,
    _unscanned,
    rsvd,
)

__all__ = [
    "SnapshotMatrix",
    "DmdDecomposition",
    "FIRST_FRAME",
    "MEDIAN_FRAME",
    "rdmd",
]

# Anchor frame selectors for the amplitude fit. An integer anchor addresses an
# explicit frame of the left sequence.
FIRST_FRAME = "first"
MEDIAN_FRAME = "median"

# Relative cutoff below which singular values are treated as zero when the
# pseudo-inverse is formed. Near-singular chunks (static scenes) would blow up
# otherwise.
PINV_RCOND = 1e-12

# Bytes that every blocked pass over a chunk holds or touches per block,
# whatever the chunk's length; see _block_length.
BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class SnapshotMatrix:
    """m x n matrix of n consecutive frames, each flattened row-major.

    Intensities are normalized to [0, 1] at ingestion so tolerances are
    scale-free. Consecutive frames are one time step apart.
    """

    data: np.ndarray
    frame_height: int
    frame_width: int

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=np.float64)
        object.__setattr__(self, "data", data)
        self._check_shape()
        # min and max propagate NaN, so two reductions check finiteness too.
        lo, hi = data.min(), data.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("snapshot data contains non-finite entries")
        if lo < 0.0 or hi > 1.0:
            raise ValueError("snapshot intensities must lie in [0, 1]")

    def _check_shape(self) -> None:
        if self.data.ndim != 2:
            raise ValueError("snapshot data must be 2-dimensional")
        m, n = self.data.shape
        if n < 2:
            raise ValueError(f"need at least 2 frames, got {n}")
        if self.frame_height * self.frame_width != m:
            raise ValueError(
                f"frame geometry {self.frame_height}x{self.frame_width} "
                f"does not match {m} pixels"
            )

    @property
    def n_pixels(self) -> int:
        return self.data.shape[0]

    @property
    def n_frames(self) -> int:
        return self.data.shape[1]

    def frame(self, t: int) -> np.ndarray:
        """Frame t as a (height, width) image."""
        return self.data[:, t].reshape(self.frame_height, self.frame_width)


def _block_length(item_bytes: int) -> int:
    """Items per block of a pass that holds item_bytes per item: at least 1."""
    return max(1, BLOCK_BYTES // max(item_bytes, 1))


def _parse_anchor(text: str) -> str | int:
    """The anchor that bgsub --anchor or a manifest spells: int(text) if it parses, else text."""
    try:
        return int(text)
    except ValueError:
        return text


def _check_anchor(anchor, n_left: int | None = None) -> None:
    """ValueError unless anchor is an anchor rule or a frame index >= 0, below n_left if given."""
    if anchor not in (FIRST_FRAME, MEDIAN_FRAME) and not (_is_integer(anchor) and anchor >= 0):
        raise ValueError(f"anchor must be {FIRST_FRAME!r}, {MEDIAN_FRAME!r} or a frame index "
                         f">= 0, got {anchor!r}")
    if n_left is not None and _is_integer(anchor) and anchor >= n_left:
        raise ValueError(f"anchor frame {anchor} outside [0, {n_left}) of a chunk of "
                         f"{n_left + 1} frames")


@dataclass(frozen=True)
class DmdDecomposition:
    """Modes, eigenvalues and amplitudes of a fitted decomposition.

    modes: (m, k) complex spatial modes, one column per eigenvalue.
    eigenvalues: (k,) complex, ordered background-first (ascending |log|).
    amplitudes: (k,) complex weights fitted to the anchor frame.
    """

    modes: np.ndarray
    eigenvalues: np.ndarray
    amplitudes: np.ndarray
    n_frames: int
    frame_height: int
    frame_width: int
    anchor: str | int = MEDIAN_FRAME
    seed: int = 0

    def __post_init__(self) -> None:
        self._check_shape()
        if not _all_finite(self.modes):
            raise ValueError("modes contain non-finite entries")

    def _check_shape(self) -> None:
        # The k eigenvalues are scanned here too; the m x k modes are the
        # scan that _unscanned skips.
        k = self.eigenvalues.shape[0]
        if k < 1:
            raise ValueError("decomposition must retain at least one mode")
        if self.modes.shape != (self.modes.shape[0], k) or self.amplitudes.shape != (k,):
            raise ValueError("mode/eigenvalue/amplitude shapes are inconsistent")
        for name in ("frame_height", "frame_width"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.frame_height * self.frame_width != self.modes.shape[0]:
            raise ValueError(f"frame_height x frame_width = {self.frame_height}x"
                             f"{self.frame_width} does not match {self.modes.shape[0]} pixels")
        if self.n_frames < 2:
            raise ValueError(f"n_frames must be >= 2, got {self.n_frames}")
        _check_anchor(self.anchor)
        if not (_is_integer(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not _all_finite(self.eigenvalues):
            raise ValueError("eigenvalues contain non-finite entries")

    @property
    def rank(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def n_pixels(self) -> int:
        return self.modes.shape[0]


def _reduced_operator(factors: SvdFactors, Y: np.ndarray) -> np.ndarray:
    """One-step operator projected onto the retained left singular subspace.

    Computes U^T Y V diag(s)^-1 over the singular values above PINV_RCOND
    times the largest, so near-zero ones never enter the inversion. The
    operator's size is the retained rank.
    """
    s = factors.singular_values
    if s.size == 0 or s[0] <= 0.0:
        raise DegenerateDataError("all singular values are zero; data has no signal")
    r = int(np.count_nonzero(s > PINV_RCOND * s[0]))
    return (factors.U[:, :r].T @ Y @ factors.V[:, :r]) / s[:r]


def _modes(Y: np.ndarray, V: np.ndarray, singular_values: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Exact spatial modes Y V diag(s)^-1 W, one column per eigenvector.

    Columns keep the scale this product produces; no renormalization.
    Y V diag(s)^-1 is divided straight into the real part of a zeroed
    complex buffer, the operand that a real-by-complex product would cast
    it to, so the product with W has the bytes of (Y @ V / s) @ W.
    """
    A = np.zeros((Y.shape[0], V.shape[1]), dtype=np.complex128)
    np.divide(Y @ V, singular_values, out=A.real)
    return A @ W


@lru_cache(maxsize=None)
def _median_network(n: int) -> tuple[tuple[int, int, bool, bool], ...]:
    """The compare-exchanges that take n inputs to their median.

    The median is the output at index n // 2 and, for an even n, the one at
    n // 2 - 1 as well. Each exchange is (i, j, low, high), i < j: it leaves
    the smaller of inputs i and j at i and the larger at j, and low and high
    say which of the two is read later. They are the comparators of
    Batcher's merge exchange sort (Knuth, TAOCP vol. 3, 5.2.2, Algorithm M)
    that the middle outputs depend on, found by walking the sort backwards
    from them.
    """
    pairs = []
    top = (1 << (n - 1).bit_length()) >> 1  # the largest power of 2 below n
    p = top
    while p > 0:
        q, r, d = top, 0, p
        while True:
            pairs.extend((i, i + d) for i in range(n - d) if i & p == r)
            if q == p:
                break
            d, q, r = q - p, q >> 1, p
        p >>= 1
    needed = {n // 2} if n % 2 else {n // 2 - 1, n // 2}
    network = []
    for i, j in reversed(pairs):
        low, high = i in needed, j in needed
        if low or high:
            network.append((i, j, low, high))
            needed |= {i, j}
    return tuple(reversed(network))


def _exchanged(values: np.ndarray) -> list[np.ndarray]:
    """The first n rows of (n + 1)-row values, ordered by _median_network(n).

    The exchanges run in place by np.minimum and np.maximum, with the last
    row as the spare that takes each exchange's minimum, so values is
    consumed. Returns the n slots, a row of values each, whose middle ones
    hold the median's order statistics.
    """
    n = values.shape[0] - 1
    slots, spare = list(values[:n]), values[n]
    for i, j, low, high in _median_network(n):
        if low and high:
            np.minimum(slots[i], slots[j], out=spare)
            np.maximum(slots[i], slots[j], out=slots[j])
            slots[i], spare = spare, slots[i]
        elif low:
            np.minimum(slots[i], slots[j], out=slots[i])
        else:
            np.maximum(slots[i], slots[j], out=slots[j])
    return slots


def _network_median(raw: np.ndarray, maxval: int) -> np.ndarray:
    """np.median(raw[:-1] / maxval, axis=0) of (n + 1, m) uint8 rasters, n >= 1.

    The rows go through _exchanged, which consumes raw. The middle rasters
    are then mapped through arange(256) / maxval: dividing by maxval is
    exact per value and monotone, so the order statistics, and the mean of
    the middle two for an even n, have the bytes of the float64 frames' own.
    """
    n = raw.shape[0] - 1
    slots = _exchanged(raw)
    value = np.arange(256) / maxval
    out = value[slots[n // 2]]
    if n % 2 == 0:
        out += value[slots[n // 2 - 1]]
        out /= 2
    return out


def _anchor_frame(D: SnapshotMatrix, anchor: str | int, rasters=None) -> np.ndarray:
    """The amplitude fit's target: the first, the per-pixel median or an indexed left frame.

    rasters, when given, are D's frames as (raw, maxval), the (n, m) uint8
    rasters of one maxval that ingest read them from; the median is then
    _network_median's, which consumes raw.
    """
    X = D.data[:, :-1]
    _check_anchor(anchor, X.shape[1])
    if anchor == FIRST_FRAME:
        return X[:, 0]
    if anchor == MEDIAN_FRAME:
        if rasters is not None:
            return _network_median(*rasters)
        # np.median without its NaN scan (SnapshotMatrix rules NaN out): one
        # partition, then the middle element or the mean of the middle two,
        # formed as np.median forms it. Blocks of pixels are copied into one
        # reused buffer of n float64s per pixel and partitioned there in place.
        m, n = X.shape
        mid = n // 2
        out = np.empty(m)
        block = _block_length(8 * n)
        buf = np.empty((min(block, m), n))
        for start in range(0, m, block):
            stop = min(start + block, m)
            P = buf[: stop - start]
            P[...] = X[start:stop]
            P.partition(mid, axis=1)
            if n % 2:
                out[start:stop] = P[:, mid]
            else:
                out[start:stop] = (P[:, :mid].max(axis=1) + P[:, mid]) / 2
        return out
    return X[:, anchor]


def _background_first_order(lam: np.ndarray) -> np.ndarray:
    # Sort ascending by |log lam| so quasi-static modes come first; zero
    # eigenvalues (log undefined) sort last. Ties, conjugate pairs included,
    # break by ascending imaginary part so ordering is deterministic.
    with np.errstate(divide="ignore", invalid="ignore"):
        key = np.abs(np.log(lam))
    key = np.where(np.isfinite(key), key, np.inf)
    return np.lexsort((lam.imag, key))


def _decompose(D: SnapshotMatrix, factors: SvdFactors, anchor: str | int, seed: int,
               rasters=None) -> DmdDecomposition:
    """The decomposition of D from its left sequence's factors; rasters go to _anchor_frame.

    Phi is scanned once, before the amplitude fit, and the decomposition is
    built without a second scan.
    """
    Y = D.data[:, 1:]
    M_tilde = _reduced_operator(factors, Y)
    r = M_tilde.shape[0]
    lam, W = np.linalg.eig(M_tilde)
    # Complex even for a real spectrum, so that it sorts and serializes alike.
    lam, W = lam.astype(np.complex128, copy=False), W.astype(np.complex128, copy=False)
    order = _background_first_order(lam)
    lam = lam[order]
    W = W[:, order]
    Phi = _modes(Y, factors.V[:, :r], factors.singular_values[:r], W)
    if not _all_finite(Phi):
        raise DegenerateDataError("modes contain non-finite entries")
    # Least squares on the anchor frame; a degenerate Phi gets the minimum-norm fit.
    target = _anchor_frame(D, anchor, rasters).astype(np.complex128)
    b = np.linalg.lstsq(Phi, target, rcond=None)[0]
    return _unscanned(DmdDecomposition, Phi, lam, b, D.n_frames, D.frame_height,
                      D.frame_width, anchor, seed)


def rdmd(
    D: SnapshotMatrix,
    cfg: SketchConfig,
    anchor: str | int = MEDIAN_FRAME,
) -> DmdDecomposition:
    """Randomized decomposition: sketched SVD of the left sequence feeds the fit.

    Deterministic for a fixed cfg.seed. The retained rank can fall below
    cfg.rank when trailing singular values are negligible (static scenes).
    D's frames were checked when it was built, so rsvd does not scan them
    again.
    """
    factors = rsvd(D.data[:, :-1], cfg, check_finite=False)
    return _decompose(D, factors, anchor, cfg.seed)
