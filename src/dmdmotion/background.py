"""Background model, residuals and foreground masks from a decomposition.

Each eigenvalue maps to a per-frame frequency via the principal complex
logarithm; modes whose frequency modulus is near zero evolve slowly and model
the background. The background video is the mode-subset reconstruction, the
residual is the per-pixel distance to it, and masks come from thresholding
the residual, optionally cleaned with a majority (median) filter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dmd import DmdDecomposition, SnapshotMatrix, _block_length
from .errors import DegenerateDataError
from .linalg import _unscanned

__all__ = [
    "ResidualSequence",
    "ForegroundMaskSequence",
    "fourier_modes",
    "partition_modes",
    "background_factors",
    "factor_residual",
    "filter_masks",
]

# Eigenvalues below this magnitude have no usable logarithm; the modes they
# describe are one-step transients and never enter the background set.
ZERO_EIGENVALUE_CUTOFF = 1e-12

# Two frequency moduli within this relative tolerance are treated as tied, so
# conjugate pairs are selected or rejected together.
_TIE_RTOL = 1e-9


@dataclass(frozen=True)
class ResidualSequence:
    """Per-pixel nonnegative residual magnitudes, one column per frame."""

    values: np.ndarray
    frame_height: int
    frame_width: int

    def __post_init__(self) -> None:
        self._check_shape()
        # min and max propagate NaN, so two reductions check finiteness too.
        if not (self.values.min() >= 0.0 and self.values.max() < np.inf):
            raise ValueError("residuals must be finite and nonnegative")

    def _check_shape(self) -> None:
        if self.values.ndim != 2:
            raise ValueError("residual values must be 2-dimensional")
        if self.values.shape[0] != self.frame_height * self.frame_width:
            raise ValueError("residual geometry does not match pixel count")

    @property
    def n_frames(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class ForegroundMaskSequence:
    """Binary masks, shape (n_frames, height, width); tau is the threshold used.

    tau is None for ground-truth masks that were not produced by thresholding.
    """

    masks: np.ndarray
    tau: float | None = None

    def __post_init__(self) -> None:
        masks = np.asarray(self.masks, dtype=bool)
        object.__setattr__(self, "masks", masks)
        if masks.ndim != 3:
            raise ValueError("masks must have shape (n_frames, height, width)")

    @property
    def n_frames(self) -> int:
        return self.masks.shape[0]


def fourier_modes(dec: DmdDecomposition) -> np.ndarray:
    """Principal-branch frequencies log(lam), one per mode.

    A mode whose eigenvalue is near zero has no usable frequency; its entry
    is inf, and the mode belongs to neither background nor foreground.
    """
    lam = dec.eigenvalues
    with np.errstate(divide="ignore", invalid="ignore"):
        omega = np.log(lam)
    return np.where(np.abs(lam) < ZERO_EIGENVALUE_CUTOFF, np.inf + 0j, omega)


def partition_modes(omega: np.ndarray, n_background: int) -> tuple[int, ...]:
    """Sorted indices of the n_background usable modes of smallest |omega|.

    Ordering ties break by ascending index. When the cut would separate modes
    of equal modulus (a complex-conjugate pair), the whole tied group is kept,
    so the background can exceed n_background rather than split a pair.
    """
    usable = np.flatnonzero(np.isfinite(omega))
    if usable.size == 0:
        raise DegenerateDataError("no usable modes: every eigenvalue is near zero")
    if not 1 <= n_background <= usable.size:
        raise ValueError(
            f"n_background={n_background} outside [1, {usable.size} usable modes]"
        )
    mod = np.abs(omega[usable])
    order = np.lexsort((usable, mod))
    ranked = usable[order]
    ranked_mod = mod[order]
    cut = n_background
    while cut < ranked.size and np.isclose(
        ranked_mod[cut], ranked_mod[cut - 1], rtol=_TIE_RTOL, atol=0.0
    ):
        cut += 1
    return tuple(sorted(int(i) for i in ranked[:cut]))


def background_factors(dec: DmdDecomposition, mode_indices) -> tuple[np.ndarray, np.ndarray]:
    """The selected modes phi_i and their temporal factor b_i lam_i**t, checked not to overflow.

    The factor has one column per frame, and the product of the two is the
    sum of b_i phi_i lam_i**t over the selected modes: the background video
    for the background modes, the retained-rank approximation of D for
    range(dec.rank), zeros for an empty selection. A finite bound on its
    entries means that neither the powers nor the product overflow; one
    that overflows raises DegenerateDataError.
    """
    idx = np.unique(np.asarray(list(mode_indices), dtype=np.intp))
    if idx.size and (idx.min() < 0 or idx.max() >= dec.rank):
        raise ValueError(f"mode indices outside [0, {dec.rank})")
    times = np.arange(dec.n_frames, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        temporal = dec.amplitudes[idx, None] * dec.eigenvalues[idx, None] ** times[None, :]
        modes = dec.modes[:, idx]
        bound = len(temporal) * np.abs(modes).max(initial=0.0) * np.abs(temporal).max(initial=0.0)
    if not np.isfinite(bound):
        raise DegenerateDataError(f"background overflows over {dec.n_frames} frames")
    return modes, temporal


def factor_residual(
    D: SnapshotMatrix,
    modes: np.ndarray,
    temporal: np.ndarray,
    out: np.ndarray | None = None,
    masks: ForegroundMaskSequence | None = None,
) -> ResidualSequence:
    """Per-pixel distance |d - Re(l)| to the background l = modes @ temporal.

    The imaginary part of l is discarded. The residual is formed in
    contiguous blocks of pixels, bit for bit equal to the whole product's,
    but the complex background, 16 n bytes per pixel, exists one block of
    BLOCK_BYTES at a time, never as the whole m x n chunk. The same factors
    give the same bytes on every call, so a residual can be dropped and
    rebuilt. out, when given, takes the residual's values; it may be D.data
    itself, whose frames are then overwritten. The factors are
    background_factors', whose product is checked not to overflow, so the
    residual of D's checked frames is finite and nonnegative and is not
    scanned again.

    masks, when given, are D's (n_frames, height, width) masks at their
    tau, whose C-contiguous array, such as a chunk's frames of a run's
    masks, takes each block's [residual > masks.tau]. Each block is
    compared in its own pixel-major layout, into one reused bool block, and
    copied into its pixels of every frame while it is in cache, so the
    masks are made without a pass over the whole residual.
    """
    if (modes.shape[0], temporal.shape[1]) != D.data.shape:
        raise ValueError(
            f"background shape {(modes.shape[0], temporal.shape[1])} does not match "
            f"video {D.data.shape}"
        )
    # A one-pixel block would be a vector-matrix product, which rounds
    # differently from the matrix product, so a block has at least 2 pixels
    # and a last block of one pixel more than a block is kept whole.
    block = max(2, _block_length(16 * D.n_frames))
    edges = [*range(0, max(D.n_pixels - 1, 1), block), D.n_pixels]
    if masks is not None:
        shape = (D.n_frames, D.frame_height, D.frame_width)
        if masks.tau is None:
            raise ValueError("masks to threshold into need a tau")
        if masks.masks.shape != shape:
            raise ValueError(f"masks of shape {masks.masks.shape} do not match video {shape}")
        if not masks.masks.flags.c_contiguous:
            raise ValueError("masks to threshold into must be C-contiguous")
        foreground = masks.masks.reshape(D.n_frames, D.n_pixels)
        above = np.empty((min(block + 1, D.n_pixels), D.n_frames), dtype=bool)
    values = np.empty(D.data.shape) if out is None else out
    for start, stop in zip(edges, edges[1:]):
        out = values[start:stop]
        np.subtract(D.data[start:stop], (modes[start:stop] @ temporal).real, out=out)
        np.abs(out, out=out)
        if masks is not None:
            np.greater(out, masks.tau, out=above[: stop - start])
            foreground[:, start:stop] = above[: stop - start].T
    return _unscanned(ResidualSequence, values, D.frame_height, D.frame_width)


def _check_kernel(kernel: int, name: str = "kernel") -> None:
    """ValueError unless kernel is odd and in [1, 2**32), where box sums of kernel**2 fit uint64."""
    if not (1 <= kernel < 2**32 and kernel % 2):
        raise ValueError(f"{name} must be odd, >= 1 and < 2**32, got {kernel}")


def _box_sum(src: np.ndarray, out: np.ndarray, radius: int) -> None:
    """out = sum of src over [x - radius, x + radius] along the last axis.

    Edges are replicated: a neighbour past an edge reads the edge pixel, so
    each shift beyond the axis length adds the two edge pixels to every
    entry, and those shifts are added in one step.
    """
    n = src.shape[-1]
    out[...] = src
    for d in range(1, min(radius, n) + 1):
        out[..., : n - d] += src[..., d:]
        out[..., n - d :] += src[..., -1:]
        out[..., d:] += src[..., : n - d]
        out[..., :d] += src[..., :1]
    if radius > n:
        edges = np.add(src[..., :1], src[..., -1:], dtype=out.dtype)
        edges *= radius - n
        out += edges


def filter_masks(
    seq: ForegroundMaskSequence, kernel: int = 3, out: np.ndarray | None = None
) -> ForegroundMaskSequence:
    """Median-filter every frame of a mask sequence, edges replicated.

    A binary median is a majority vote, so each frame's kernel x kernel box
    count (a horizontal and a vertical box sum of shifted integer adds) is
    compared against half the window. seq is first copied into the output,
    unless it is the output already, whose frames are then counted in
    blocks and written over; a block's two counts, in a type that holds
    kernel**2, span BLOCK_BYTES (at least one frame) and are reused from
    block to block. out, when given, is a bool array of
    seq's shape that takes the filtered masks; it may be seq.masks itself,
    which is then filtered in place. Without it a kernel of 1 returns seq
    itself.
    """
    _check_kernel(kernel)
    if kernel == 1 and out is None:
        return seq
    masks = np.empty(seq.masks.shape, dtype=bool) if out is None else out
    if masks is not seq.masks:
        masks[...] = seq.masks
    if kernel == 1:
        return ForegroundMaskSequence(masks=masks, tau=seq.tau)
    n_frames, height, width = masks.shape
    votes = masks.view(np.uint8)
    acc = np.min_scalar_type(kernel * kernel)
    block = _block_length(2 * height * width * acc.itemsize)
    rows = np.empty((min(block, n_frames), height, width), dtype=acc)
    count = np.empty(rows.shape, dtype=acc)
    for start in range(0, n_frames, block):
        stop = min(start + block, n_frames)
        b = stop - start
        _box_sum(votes[start:stop], rows[:b], kernel // 2)
        _box_sum(rows[:b].swapaxes(1, 2), count[:b].swapaxes(1, 2), kernel // 2)
        np.greater_equal(count[:b], (kernel * kernel + 1) // 2, out=masks[start:stop])
    return ForegroundMaskSequence(masks=masks, tau=seq.tau)
