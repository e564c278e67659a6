"""Benchmark workloads: seeded synthetic videos and the run each one times.

Every workload renders moving rectangles over a flat background with
Gaussian pixel noise. Rectangle i enters from the left edge at the start of
the i-th equal time window and crosses the frame within it, so every chunk
of the run sees motion. The seed draws the noise only: with the geometry
fixed, F varied by under 5% across seeds in trials, where seeded rows and
entry times moved it by up to 15%.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from dmdmotion.io_formats import save_frames, save_masks
from dmdmotion.pipeline import RunConfig
from dmdmotion.synthetic import MovingRect, SyntheticSpec, generate_synthetic


@dataclass(frozen=True)
class Workload:
    """One benchmark input shape plus the RunConfig fields it runs with.

    intensities holds one rectangle intensity each, over a 0.5 background.
    truth_to_program passes the truth glob to the run (a threshold sweep
    needs it); otherwise the benchmark alone scores the masks. f_floor is
    the lowest F of the final masks that counts as a correct run.
    """

    name: str
    height: int
    width: int
    n_frames: int
    rect_size: tuple[int, int]
    intensities: tuple[float, ...]
    noise_sigma: float
    truth_to_program: bool
    write_outputs: bool
    f_floor: float
    run: dict = field(default_factory=dict)

    @property
    def megapixels(self) -> float:
        return self.height * self.width * self.n_frames / 1e6


WORKLOADS = {
    w.name: w
    for w in (
        # Default RunConfig with truth: the tuning run. The best-F sweep and the
        # per-frame mask filter do nearly all the work, the decomposition <1%.
        Workload(
            name="sweep",
            height=64,
            width=64,
            n_frames=400,
            rect_size=(12, 12),
            intensities=(0.8, 0.15),
            noise_sigma=0.05,
            truth_to_program=True,
            write_outputs=True,
            f_floor=0.5,
        ),
        # Fixed-tau deployment at a realistic frame size with every output
        # written; the largest memory, so the peak-RSS workload.
        Workload(
            name="fixed",
            height=240,
            width=320,
            n_frames=600,
            rect_size=(48, 64),
            intensities=(0.85, 0.15, 0.75),
            noise_sigma=0.03,
            truth_to_program=False,
            write_outputs=True,
            f_floor=0.3,
            run={"tau": 0.18},
        ),
        # fixed's frames in short chunks with no filter, sweep or writes, so the
        # sketched SVD and DMD take the largest share.
        Workload(
            name="kernel",
            height=240,
            width=320,
            n_frames=600,
            rect_size=(48, 64),
            intensities=(0.85, 0.15, 0.75),
            noise_sigma=0.03,
            truth_to_program=False,
            write_outputs=False,
            f_floor=0.2,
            run={"tau": 0.18, "chunk_length": 100, "k": 20, "q": 2, "median_kernel": 1},
        ),
    )
}


def synthetic_spec(w: Workload, seed: int) -> SyntheticSpec:
    h, wd = w.rect_size
    n = len(w.intensities)
    window = w.n_frames / n
    speed = (w.width + wd) / (0.85 * window)
    rects = tuple(
        MovingRect(
            float((i + 1) * (w.height - h) // (n + 1)),
            -wd - speed * i * window,
            h,
            wd,
            intensity,
            (0.0, speed),
        )
        for i, intensity in enumerate(w.intensities)
    )
    return SyntheticSpec(
        frame_height=w.height,
        frame_width=w.width,
        n_frames=w.n_frames,
        noise_sigma=w.noise_sigma,
        objects=rects,
        seed=seed,
    )


def write_inputs(w: Workload, seed: int, directory: str) -> dict[str, str | None]:
    """Render the seeded video into directory as PGM frames.

    Truth goes to truth.npy for the benchmark's own scoring and, when the
    program gets it, to PGM masks as well. Returns the paths a run needs.
    """
    D, truth = generate_synthetic(synthetic_spec(w, seed))
    save_frames(os.path.join(directory, "frames"), D)
    del D
    truth_glob = None
    if w.truth_to_program:
        save_masks(os.path.join(directory, "truth"), truth)
        truth_glob = os.path.join(directory, "truth", "*.pgm")
    truth_path = os.path.join(directory, "truth.npy")
    np.save(truth_path, truth.masks)
    return {
        "frames": os.path.join(directory, "frames", "*.pgm"),
        "truth": truth_glob,
        "truth_npy": truth_path,
    }


def run_config(w: Workload, inputs: dict[str, str | None], output_dir: str | None) -> RunConfig:
    return RunConfig(
        frames=inputs["frames"],
        truth=inputs["truth"],
        output_dir=output_dir if w.write_outputs else None,
        **w.run,
    )
