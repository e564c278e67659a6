"""Synthetic test videos with ground truth, and planted linear systems.

The video generator composes a background (flat, or a sinusoidal texture
whose phase varies across the frame so the data is an exact rank-3 linear
system), moving rectangles drawn on top, and optional Gaussian pixel noise.
Ground-truth masks mark exactly the pixels each rectangle overwrites.

The planted-system helpers build data with a known spectrum so decomposition
results can be compared against the quantities that generated them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .background import ForegroundMaskSequence
from .dmd import SnapshotMatrix
from .linalg import random_gaussian

__all__ = [
    "MovingRect",
    "SyntheticSpec",
    "generate_synthetic",
    "PlantedSystem",
    "planted_linear_snapshots",
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
        if self.frame_height < 1 or self.frame_width < 1:
            raise ValueError("frame geometry must be at least 1x1")
        if self.n_frames < 2:
            raise ValueError("need at least 2 frames")
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


def generate_synthetic(spec: SyntheticSpec) -> tuple[SnapshotMatrix, ForegroundMaskSequence]:
    """Render the sequence and its ground-truth foreground masks.

    Deterministic for a given spec. Order per frame: background, rectangles
    drawn over it (truth = their union), then noise and clipping.
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
    U, _ = np.linalg.qr(random_gaussian(m, min(m, n), seed))
    V, _ = np.linalg.qr(random_gaussian(n, min(m, n), seed + 1))
    return (U * full) @ V.T, full
