"""Synthetic test videos with ground truth, and matrices of a known spectrum.

The video generator composes a background (flat, or a sinusoidal texture
whose phase varies across the frame so the data is an exact rank-3 linear
system), moving rectangles drawn on top, and optional Gaussian pixel noise.
Ground-truth masks mark exactly the pixels each rectangle overwrites.

decaying_spectrum_matrix builds a dense matrix of prescribed singular values,
against which the randomized SVD is measured.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .background import ForegroundMaskSequence
from .dmd import SnapshotMatrix
from .linalg import _check_integers

__all__ = [
    "MovingRect",
    "SyntheticSpec",
    "generate_synthetic",
    "decaying_spectrum_matrix",
]


@dataclass(frozen=True)
class MovingRect:
    """A constant-intensity rectangle translating at fixed velocity.

    Positions are (row, col) of the top-left corner; parts of the rectangle
    leaving the frame are clipped.
    """

    top: float
    left: float
    height: int
    width: int
    intensity: float
    velocity: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        _check_integers(self, ("height", "width"))
        for name in ("top", "left", "velocity"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"rectangle {name} must be finite, got {getattr(self, name)}")
        if self.height < 1 or self.width < 1:
            raise ValueError("rectangle sides must be >= 1")
        if not 0.0 <= self.intensity <= 1.0:
            raise ValueError(f"intensity {self.intensity} outside [0, 1]")

    def footprint(self, t: int, frame_height: int, frame_width: int) -> tuple[slice, slice]:
        """Row and column slices covered at frame t, clipped to the frame."""
        r0 = int(round(self.top + t * self.velocity[0]))
        c0 = int(round(self.left + t * self.velocity[1]))
        rows = slice(max(r0, 0), min(r0 + self.height, frame_height))
        cols = slice(max(c0, 0), min(c0 + self.width, frame_width))
        return rows, cols


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic grayscale sequence.

    texture_amplitude 0 gives a flat background at base_level; a positive
    amplitude adds base + A*sin(2*pi*t/period + phase(col)), with the phase
    advancing one full cycle across the frame width. noise_sigma adds i.i.d.
    Gaussian noise to every pixel, after which values clip to [0, 1].
    """

    frame_height: int
    frame_width: int
    n_frames: int
    base_level: float = 0.5
    texture_amplitude: float = 0.0
    texture_period: float = 0.0
    noise_sigma: float = 0.0
    objects: tuple[MovingRect, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        _check_integers(self, ("frame_height", "frame_width", "n_frames", "seed"))
        if self.frame_height < 1 or self.frame_width < 1:
            raise ValueError("frame geometry must be at least 1x1")
        if self.n_frames < 2:
            raise ValueError("need at least 2 frames")
        # NaN fails every comparison below, so it is ruled out first.
        for name in ("base_level", "texture_amplitude", "texture_period", "noise_sigma"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 <= self.base_level <= 1.0:
            raise ValueError(f"base_level {self.base_level} outside [0, 1]")
        if self.texture_amplitude < 0.0:
            raise ValueError("texture_amplitude must be nonnegative")
        if self.texture_amplitude > 0.0:
            if self.texture_period <= 1.0:
                raise ValueError("texture_period must exceed 1 frame")
            lo = self.base_level - self.texture_amplitude
            hi = self.base_level + self.texture_amplitude
            if lo < 0.0 or hi > 1.0:
                raise ValueError("texture swings outside [0, 1]")
        if self.noise_sigma < 0.0:
            raise ValueError("noise_sigma must be nonnegative")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "objects", tuple(self.objects))
        # A corner moves monotonically, so it is finite in every frame if it
        # is in the last.
        last = self.n_frames - 1
        for i, rect in enumerate(self.objects):
            corner = (rect.top + last * rect.velocity[0], rect.left + last * rect.velocity[1])
            if not np.all(np.isfinite(corner)):
                raise ValueError(f"objects[{i}] corner at frame {last} is not finite: {corner}")


def _frames(spec: SyntheticSpec):
    """Yield (frame, truth) for each frame t, as (height, width) float64 and bool.

    Order per frame: background, rectangles drawn over it (truth = their
    union), then noise and clipping. The noise comes from one Generator
    stream, whose draws in consecutive blocks are the values of one draw
    over the whole video, so no more than a frame is ever held here.
    """
    h, w = spec.frame_height, spec.frame_width
    phase = 2.0 * np.pi * np.arange(w, dtype=np.float64) / w
    rng = np.random.default_rng(spec.seed)
    for t in range(spec.n_frames):
        frame = np.full((h, w), spec.base_level, dtype=np.float64)
        if spec.texture_amplitude > 0.0:
            frame += spec.texture_amplitude * np.sin(
                2.0 * np.pi * np.float64(t) / spec.texture_period + phase)
        truth = np.zeros((h, w), dtype=bool)
        for rect in spec.objects:
            rows, cols = rect.footprint(t, h, w)
            frame[rows, cols] = rect.intensity
            truth[rows, cols] = True
        if spec.noise_sigma > 0.0:
            frame += rng.normal(0.0, spec.noise_sigma, size=frame.shape)
        np.clip(frame, 0.0, 1.0, out=frame)
        yield frame, truth


def generate_synthetic(spec: SyntheticSpec) -> tuple[SnapshotMatrix, ForegroundMaskSequence]:
    """Render the sequence and its ground-truth foreground masks.

    Deterministic for a given spec. Frames are drawn one at a time into the
    snapshot matrix, so the video is held once: 9 bytes per pixel-frame,
    8 of data and 1 of truth.
    """
    h, w, n = spec.frame_height, spec.frame_width, spec.n_frames
    data = np.empty((h * w, n), dtype=np.float64)
    truth = np.empty((n, h, w), dtype=bool)
    for t, (frame, mask) in enumerate(_frames(spec)):
        data[:, t] = frame.ravel()
        truth[t] = mask
    return SnapshotMatrix(data, frame_height=h, frame_width=w), ForegroundMaskSequence(truth)


def decaying_spectrum_matrix(
    m: int, n: int, spectrum, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Dense matrix with prescribed singular values and random singular vectors.

    Returns (A, s) where s is the full spectrum, descending, padded with zeros
    up to min(m, n).
    """
    s = np.sort(np.asarray(spectrum, dtype=np.float64))[::-1]
    if s.size > min(m, n) or s.size == 0 or s[-1] < 0:
        raise ValueError("spectrum must be nonnegative with length <= min(m, n)")
    full = np.zeros(min(m, n))
    full[: s.size] = s
    U, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((m, min(m, n))))
    V, _ = np.linalg.qr(np.random.default_rng(seed + 1).standard_normal((n, min(m, n))))
    return (U * full) @ V.T, full
