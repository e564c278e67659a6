import numpy as np
import pytest

from dmdmotion import MovingRect, SyntheticSpec, generate_synthetic

from helpers import planted_linear_snapshots


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
