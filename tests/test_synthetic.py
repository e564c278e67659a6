"""Synthetic video generators and planted linear systems."""

import re
import tracemalloc

import numpy as np
import pytest

from dmdmotion.dmd import rdmd
from dmdmotion.linalg import SketchConfig
from dmdmotion.synthetic import (
    MovingRect,
    SyntheticSpec,
    decaying_spectrum_matrix,
    generate_synthetic,
)
from helpers import (
    deterministic_svd,
    hausdorff_distance,
    planted_linear_snapshots,
    reference_synthetic,
)


def test_no_objects_static_video():
    spec = SyntheticSpec(frame_height=8, frame_width=8, n_frames=20, seed=0)
    data, truth = generate_synthetic(spec)
    assert not truth.masks.any()
    frames = data.data.T.reshape(20, 8, 8)
    assert np.allclose(frames, frames[0])
    assert np.allclose(frames[0], 0.5)


def test_square_occupies_expected_pixels():
    rect = MovingRect(top=4.0, left=2.0, height=4, width=4,
                      intensity=1.0, velocity=(0.0, 1.0))
    spec = SyntheticSpec(frame_height=16, frame_width=16, n_frames=8,
                         objects=(rect,), seed=1)
    data, truth = generate_synthetic(spec)
    # one pixel per frame to the right, fully inside the frame throughout
    for t in range(8):
        mask = truth.masks[t]
        assert mask.sum() == 16
        rows, cols = np.nonzero(mask)
        assert rows.min() == 4 and rows.max() == 7
        assert cols.min() == 2 + t and cols.max() == 5 + t
    frames = data.data.T.reshape(8, 16, 16)
    assert np.allclose(frames[0][truth.masks[0]], 1.0)


def test_object_clipped_at_border():
    rect = MovingRect(top=0.0, left=6.0, height=3, width=3,
                      intensity=0.9, velocity=(0.0, 1.0))
    spec = SyntheticSpec(frame_height=8, frame_width=8, n_frames=6,
                         objects=(rect,), seed=2)
    _, truth = generate_synthetic(spec)
    # 3x3 block slides off the right edge: footprint shrinks, never wraps
    counts = [int(truth.masks[t].sum()) for t in range(6)]
    assert counts == [6, 3, 0, 0, 0, 0]
    assert not truth.masks[:, :, 0].any()


def test_texture_spawns_conjugate_pair():
    period = 20
    spec = SyntheticSpec(frame_height=16, frame_width=16, n_frames=100,
                         base_level=0.5, texture_amplitude=0.2,
                         texture_period=period, seed=3)
    data, _ = generate_synthetic(spec)
    dec = rdmd(data, SketchConfig(rank=3, oversampling=2, subspace_iters=1, seed=0))
    lam = dec.eigenvalues
    expected = np.array([1.0,
                         np.exp(2j * np.pi / period),
                         np.exp(-2j * np.pi / period)])
    assert hausdorff_distance(lam, expected) < 1e-3
    assert np.all(np.abs(np.abs(lam) - 1.0) < 1e-3)


def test_generation_deterministic():
    spec = SyntheticSpec(frame_height=10, frame_width=12, n_frames=15,
                         noise_sigma=0.05,
                         objects=(MovingRect(2.0, 2.0, 3, 3, 1.0, (0.1, 0.2)),),
                         seed=9)
    a, ta = generate_synthetic(spec)
    b, tb = generate_synthetic(spec)
    assert np.array_equal(a.data, b.data)
    assert np.array_equal(ta.masks, tb.masks)


def test_values_stay_in_unit_interval():
    spec = SyntheticSpec(frame_height=8, frame_width=8, n_frames=30,
                         base_level=0.5, texture_amplitude=0.3,
                         texture_period=7, noise_sigma=0.5, seed=4)
    data, _ = generate_synthetic(spec)
    assert data.data.min() >= 0.0
    assert data.data.max() <= 1.0


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(frame_height=0, frame_width=8, n_frames=10, seed=0)
    with pytest.raises(ValueError):
        SyntheticSpec(frame_height=8, frame_width=8, n_frames=1, seed=0)
    with pytest.raises(ValueError):
        # texture swings outside [0, 1]
        SyntheticSpec(frame_height=8, frame_width=8, n_frames=10,
                      base_level=0.9, texture_amplitude=0.2,
                      texture_period=10, seed=0)
    with pytest.raises(ValueError):
        SyntheticSpec(frame_height=8, frame_width=8, n_frames=10,
                      texture_amplitude=0.1, texture_period=1, seed=0)
    for field, value, reason in [
        ("base_level", 1.5, r"base_level 1.5 outside \[0, 1\]"),
        ("base_level", -0.25, r"base_level -0.25 outside \[0, 1\]"),
        ("texture_amplitude", -0.1, "texture_amplitude must be nonnegative"),
        ("noise_sigma", -0.1, "noise_sigma must be nonnegative"),
    ]:
        with pytest.raises(ValueError, match=f"^{reason}$"):
            SyntheticSpec(frame_height=8, frame_width=8, n_frames=10, seed=0, **{field: value})
    for height, width in [(0, 2), (2, 0)]:
        with pytest.raises(ValueError, match="^rectangle sides must be >= 1$"):
            MovingRect(0.0, 0.0, height, width, 1.0)
    # A wrong-typed integer field is named, not left to fail inside numpy
    # (a float) or pass as 1 (a bool).
    for field, value in [("frame_height", 8.5), ("frame_width", np.float64(8.0)),
                         ("n_frames", 3.0), ("seed", 1.5), ("seed", True)]:
        fields = {"frame_height": 8, "frame_width": 8, "n_frames": 3, "seed": 0, field: value}
        reason = f"{field} must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
            SyntheticSpec(**fields)
    for field, value in [("height", 2.0), ("width", True)]:
        fields = {"top": 0.0, "left": 0.0, "height": 2, "width": 2, "intensity": 1.0,
                  field: value}
        reason = f"{field} must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
            MovingRect(**fields)


@pytest.mark.parametrize("spec", [
    # texture plus noise, under a rectangle entering at the top left
    SyntheticSpec(frame_height=13, frame_width=17, n_frames=9, base_level=0.4,
                  texture_amplitude=0.2, texture_period=5.0, noise_sigma=0.1,
                  objects=(MovingRect(-2.0, -3.0, 5, 4, 0.9, (1.3, 1.7)),), seed=11),
    # one rectangle leaving at the right, one wholly outside the frame
    SyntheticSpec(frame_height=8, frame_width=10, n_frames=12, noise_sigma=0.05,
                  objects=(MovingRect(2.0, 6.0, 3, 3, 1.0, (0.0, 1.0)),
                           MovingRect(20.0, -9.0, 4, 4, 0.2, (0.5, -0.5))), seed=3),
    # noise 0: no draw at all
    SyntheticSpec(frame_height=6, frame_width=7, n_frames=5, texture_amplitude=0.3,
                  texture_period=3.0, objects=(MovingRect(1.0, 1.0, 2, 2, 0.0),), seed=0),
    SyntheticSpec(frame_height=5, frame_width=4, n_frames=2, noise_sigma=0.5, seed=2),
    SyntheticSpec(frame_height=1, frame_width=1, n_frames=6, base_level=0.9,
                  noise_sigma=0.2, objects=(MovingRect(0.0, -1.0, 1, 1, 0.1, (0.0, 0.4)),),
                  seed=5),
], ids=["texture_noise_entering", "leaving_and_outside", "noise_0", "two_frames", "1x1"])
def test_frames_drawn_one_at_a_time_are_the_bytes_of_the_whole_video(spec):
    data, truth = generate_synthetic(spec)
    ref_data, ref_truth = reference_synthetic(spec)
    assert data.data.flags.c_contiguous
    assert data.data.tobytes() == ref_data.data.tobytes()
    assert (data.frame_height, data.frame_width) == (ref_data.frame_height, ref_data.frame_width)
    assert truth.masks.tobytes() == ref_truth.masks.tobytes()
    assert truth.masks.shape == ref_truth.masks.shape and truth.tau is None


def test_generation_holds_the_video_once():
    # 8 bytes of data and 1 of truth per pixel-frame; the whole-video
    # drawing held about 3 times the data (frames, noise, transposed copy).
    spec = SyntheticSpec(frame_height=64, frame_width=64, n_frames=200, noise_sigma=0.05,
                         objects=(MovingRect(20.0, -10.0, 10, 10, 0.8, (0.0, 0.5)),), seed=1)
    video_bytes = 9 * 64 * 64 * 200
    tracemalloc.start()
    try:
        result = generate_synthetic(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result[0].data.nbytes + result[1].masks.nbytes == video_bytes
    assert peak <= 1.25 * video_bytes, peak / video_bytes


def test_planted_snapshots_round_trip():
    lam = np.array([1.0, 0.9 * np.exp(0.4j), 0.9 * np.exp(-0.4j)])
    planted = planted_linear_snapshots(lam, frame_shape=(12, 12), n_frames=50,
                                       amplitudes=[1.0, 0.3, 0.3], seed=5)
    assert planted.snapshots.data.shape == (144, 50)
    # snapshots really follow x_t = sum_j b_j lam_j^t phi_j
    t = np.arange(50)
    rebuilt = planted.modes @ (
        planted.amplitudes[:, None] * planted.eigenvalues[:, None] ** t[None, :]
    )
    assert np.max(np.abs(rebuilt.imag)) < 1e-10
    assert np.allclose(planted.snapshots.data, rebuilt.real, atol=1e-12)


def test_planted_component_splits_additively():
    lam = np.array([1.0, 0.8 * np.exp(0.5j), 0.8 * np.exp(-0.5j)])
    planted = planted_linear_snapshots(lam, frame_shape=(8, 8), n_frames=30, seed=6)
    static = planted.component([0])
    pair = planted.component([1, 2])
    assert np.allclose(static + pair, planted.snapshots.data, atol=1e-12)
    assert np.max(np.abs(np.diff(static, axis=1))) < 1e-12


def test_planted_rejects_unpaired_complex_eigenvalue():
    with pytest.raises(ValueError, match="conjugate"):
        planted_linear_snapshots(np.array([1.0, 0.9 * np.exp(0.3j)]),
                                 frame_shape=(8, 8), n_frames=20, seed=0)


def test_planted_rejects_out_of_range_data():
    # huge amplitude pushes pixel values far outside [0, 1]
    with pytest.raises(ValueError, match="mode_scale or amplitudes"):
        planted_linear_snapshots(np.array([1.0]), frame_shape=(8, 8),
                                 n_frames=20, amplitudes=[50.0], seed=0)


def test_decaying_spectrum_matrix_matches_svd():
    spectrum = 2.0 ** -np.arange(12)
    A, full = decaying_spectrum_matrix(40, 30, spectrum, seed=7)
    assert A.shape == (40, 30)
    s = np.linalg.svd(A, compute_uv=False)
    assert np.allclose(s[:12], spectrum, atol=1e-12)
    assert np.allclose(s[12:], 0.0, atol=1e-12)
    assert np.allclose(full[:12], spectrum)
    fac = deterministic_svd(A, 12)
    assert np.allclose(fac.singular_values, spectrum, atol=1e-12)


@pytest.mark.parametrize("spectrum", [[], [1.0] * 5, [1.0, -0.5]])
def test_decaying_spectrum_matrix_rejects_a_spectrum_it_cannot_hold(spectrum):
    with pytest.raises(ValueError,
                       match=r"^spectrum must be nonnegative with length <= min\(m, n\)$"):
        decaying_spectrum_matrix(6, 4, spectrum)


def test_spec_and_gaussian_reject_a_negative_seed():
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        SyntheticSpec(frame_height=4, frame_width=4, n_frames=3, seed=-1)
    # SketchConfig's seed is the seed of the Gaussian sketch.
    with pytest.raises(ValueError, match="^seed must be >= 0, got -2$"):
        SketchConfig(rank=1, seed=-2)
