import importlib.util
import pathlib

import numpy as np
import pytest

from dmdmotion import MovingRect, SyntheticSpec, generate_synthetic

from helpers import planted_linear_snapshots

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_script(name):
    """scripts/<name>.py as a module."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def svd_experiment(monkeypatch):
    """scripts/svd_experiment.py with its grid cut to 80x40, k 5, 1 repeat."""
    module = load_script("svd_experiment")
    monkeypatch.setattr(module, "SHAPE", (80, 40))
    monkeypatch.setattr(module, "RANK", 5)
    monkeypatch.setattr(module, "REPEATS", 1)
    return module


@pytest.fixture
def moving_square_experiment():
    """scripts/moving_square_experiment.py, at its full size."""
    return load_script("moving_square_experiment")


@pytest.fixture(scope="session")
def moving_square():
    """32x32, 100 frames, a bright 6x6 square drifting right, mild noise."""
    spec = SyntheticSpec(
        frame_height=32,
        frame_width=32,
        n_frames=100,
        noise_sigma=0.05,
        objects=(MovingRect(12.0, 2.0, 6, 6, 1.0, (0.0, 0.25)),),
        seed=42,
    )
    return generate_synthetic(spec)


@pytest.fixture(scope="session")
def planted_three_mode():
    """Static carrier plus a decaying rotating pair; exact rank 3."""
    lam = [1.0, 0.95 * np.exp(0.3j), 0.95 * np.exp(-0.3j)]
    return planted_linear_snapshots(
        lam, frame_shape=(16, 16), n_frames=60, amplitudes=[1.0, 0.5, 0.5], seed=11
    )
