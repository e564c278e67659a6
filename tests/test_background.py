"""Frequency partition, background model, residuals, masks, filtering."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dmdmotion import dmd
from dmdmotion.background import (
    ForegroundMaskSequence,
    ResidualSequence,
    _box_sum,
    background_factors,
    factor_residual,
    filter_masks,
    fourier_modes,
    partition_modes,
)
from dmdmotion.dmd import (
    FIRST_FRAME,
    MEDIAN_FRAME,
    DmdDecomposition,
    SnapshotMatrix,
    rdmd,
)
from dmdmotion.errors import DegenerateDataError
from dmdmotion.evaluation import sweep_counts, tau_grid
from dmdmotion.io_formats import save_pgm, scan_frames
from dmdmotion.linalg import SketchConfig

from helpers import (
    box_sum_by_shifts,
    deterministic_dmd,
    median_filter,
    read_chunk,
    reference_residual,
    threshold_mask,
)


def make_decomposition(eigenvalues):
    """Minimal decomposition carrying the given spectrum; modes are axes."""
    lam = np.asarray(eigenvalues, dtype=np.complex128)
    k = lam.size
    modes = np.eye(max(k, 2), k, dtype=np.complex128)
    return DmdDecomposition(
        modes=modes,
        eigenvalues=lam,
        amplitudes=np.ones(k, dtype=np.complex128),
        n_frames=5,
        frame_height=1,
        frame_width=max(k, 2),
    )


# ---------------------------------------------------------------- fourier modes

def test_omega_of_unit_eigenvalue_is_zero():
    omega = fourier_modes(make_decomposition([1.0]))
    assert abs(omega[0]) <= 1e-14
    assert np.isfinite(omega[0])


def test_omega_inverts_exponential():
    lam = np.exp(0.1 + 0.2j)
    omega = fourier_modes(make_decomposition([lam]))
    assert abs(omega[0] - (0.1 + 0.2j)) <= 1e-12


def test_zero_eigenvalue_excluded():
    omega = fourier_modes(make_decomposition([1.0, 0.0]))
    assert list(np.isfinite(omega)) == [True, False]
    assert omega[1] == np.inf


# ---------------------------------------------------------------- partition

def test_partition_smallest_omega_wins():
    lam = np.exp(np.array([0.0, 0.9 + 0.1j, 2.0]))
    assert partition_modes(fourier_modes(make_decomposition(lam)), 1) == (0,)


def test_partition_all_modes_background():
    lam = np.exp(np.array([0.0, 0.9 + 0.1j, 2.0]))
    assert partition_modes(fourier_modes(make_decomposition(lam)), 3) == (0, 1, 2)


def test_partition_keeps_conjugate_pairs_together():
    # asking for 2 of {static, conjugate pair} must not split the pair
    lam = [1.0, 0.9 * np.exp(0.4j), 0.9 * np.exp(-0.4j)]
    assert partition_modes(fourier_modes(make_decomposition(lam)), 2) == (0, 1, 2)


def test_partition_excluded_modes_in_neither_set():
    lam = [1.0, 0.0, np.exp(1.0)]
    omega = fourier_modes(make_decomposition(lam))
    # Mode 1 is excluded: never background, and not foreground either, since
    # the foreground is the usable (finite-omega) modes outside the background.
    for n_background in (1, 2):
        assert 1 not in partition_modes(omega, n_background)
    assert not np.isfinite(omega[1])


def test_partition_rejects_bad_count():
    omega = fourier_modes(make_decomposition([1.0, np.exp(1.0)]))
    with pytest.raises(ValueError):
        partition_modes(omega, 0)
    with pytest.raises(ValueError):
        partition_modes(omega, 3)


def test_partition_no_usable_modes():
    omega = fourier_modes(make_decomposition([0.0, 0.0]))
    with pytest.raises(DegenerateDataError):
        partition_modes(omega, 1)


# ---------------------------------------------------------------- background model

def static_video(value=0.5, pixels=60, frames=12):
    return SnapshotMatrix(np.full((pixels, frames), value), 6, pixels // 6)


def test_static_background_reproduces_video():
    D = static_video(0.4)
    dec = deterministic_dmd(D, rank=1)
    L = np.matmul(*background_factors(dec, partition_modes(fourier_modes(dec), 1)))
    rel = np.linalg.norm(D.data - L.real) / np.linalg.norm(D.data)
    assert rel <= 1e-6


def test_background_matches_planted_component(planted_three_mode):
    # the planted pair decays with |lambda| = 0.95, so the static carrier is
    # the single smallest-|omega| mode
    sys = planted_three_mode
    dec = deterministic_dmd(sys.snapshots, rank=3, anchor=FIRST_FRAME)
    background_indices = partition_modes(fourier_modes(dec), 1)
    assert len(background_indices) == 1
    L = np.matmul(*background_factors(dec, background_indices))
    planted_bg = sys.component([0]).real
    for t in range(sys.snapshots.n_frames):
        rel = np.linalg.norm(L[:, t].real - planted_bg[:, t]) / np.linalg.norm(planted_bg[:, t])
        assert rel <= 0.02


def test_background_constant_iff_omega_zero():
    D = static_video()
    dec = deterministic_dmd(D, rank=1)
    L = np.matmul(*background_factors(dec, partition_modes(fourier_modes(dec), 1)))
    assert np.allclose(L, L[:, :1], atol=1e-10)


def test_background_partition_bounds():
    dec = make_decomposition([1.0])
    with pytest.raises(ValueError, match=r"mode indices outside \[0, 1\)"):
        background_factors(dec, (1,))


def test_additivity_of_partition(planted_three_mode):
    dec = deterministic_dmd(planted_three_mode.snapshots, rank=3)
    omega = fourier_modes(dec)
    background_indices = partition_modes(omega, 1)
    foreground_indices = [
        i for i in np.flatnonzero(np.isfinite(omega)) if i not in background_indices
    ]
    assert len(background_indices) + len(foreground_indices) == dec.rank
    whole = np.matmul(*background_factors(dec, range(dec.rank)))
    split = (np.matmul(*background_factors(dec, background_indices))
             + np.matmul(*background_factors(dec, foreground_indices)))
    assert np.max(np.abs(whole - split)) <= 1e-10


def test_background_set_conjugate_closed(moving_square):
    D, _ = moving_square
    dec = rdmd(D, SketchConfig(rank=7, oversampling=2, subspace_iters=1, seed=6))
    lam = dec.eigenvalues
    bg = set(partition_modes(fourier_modes(dec), 3))
    for i in bg:
        if abs(lam[i].imag) <= 1e-10:
            continue
        partners = [
            j for j in range(dec.rank) if abs(lam[j] - np.conj(lam[i])) <= 1e-8
        ]
        assert any(j in bg for j in partners)


# ---------------------------------------------------------------- residual

# factor_residual of a background L given whole, as the factors L and I.

def test_residual_of_exact_model_is_zero():
    D = static_video(0.3)
    S = factor_residual(D, D.data.astype(np.complex128), np.eye(D.n_frames, dtype=complex))
    assert not S.values.any()


def test_residual_single_pixel():
    D = static_video(0.5, pixels=6, frames=2)
    L = D.data.astype(np.complex128).copy()
    L[2, 1] += 0.5
    S = factor_residual(D, L, np.eye(2, dtype=complex))
    assert S.values[2, 1] == pytest.approx(0.5)
    assert np.count_nonzero(S.values) == 1


def test_residual_ignores_imaginary_part():
    D = static_video(0.5, pixels=6, frames=2)
    L = D.data + 1j * np.ones_like(D.data)
    S = factor_residual(D, L, np.eye(2, dtype=complex))
    assert not S.values.any()


def test_residual_sequence_checks_values():
    for bad in (np.nan, np.inf, -np.inf, -0.25):
        values = np.full((4, 3), 0.5)
        values[2, 1] = bad
        with pytest.raises(ValueError, match="residuals must be finite and nonnegative"):
            ResidualSequence(values, 2, 2)
    with pytest.raises(ValueError, match="residual values must be 2-dimensional"):
        ResidualSequence(np.zeros(4), 2, 2)
    with pytest.raises(ValueError, match="^residual geometry does not match pixel count$"):
        ResidualSequence(np.zeros((5, 3)), 2, 2)


@pytest.mark.parametrize("shape", [(4,), (2, 3), (1, 2, 3, 4)])
def test_mask_sequence_rejects_masks_that_are_not_3d(shape):
    with pytest.raises(ValueError, match=r"^masks must have shape \(n_frames, height, width\)$"):
        ForegroundMaskSequence(np.zeros(shape, dtype=bool))


def test_public_constructors_scan_what_the_package_builds_unscanned(tmp_path):
    # factor_residual and the chunk reader build entries that are valid by
    # construction and skip the scan; the public constructors still scan a
    # NaN out, here in a residual and in frames the package built.
    dec = pair_decomposition(6, 5)
    D = SnapshotMatrix(np.full((6, 5), 0.5), 2, 3)
    S = factor_residual(D, *background_factors(dec, (0,)))
    values = S.values.copy()
    values[3, 2] = np.nan
    with pytest.raises(ValueError, match="residuals must be finite and nonnegative"):
        ResidualSequence(values, 2, 3)
    for t in range(2):
        save_pgm(str(tmp_path / f"f_{t}.pgm"), np.full((2, 3), 7, dtype=np.uint8))
    files = scan_frames(str(tmp_path / "f_*.pgm"))
    data = read_chunk(files)[0].data
    data[3, 1] = np.nan
    with pytest.raises(ValueError, match="snapshot data contains non-finite entries"):
        SnapshotMatrix(data, 2, 3)
    # rdmd scans its modes before the amplitude fit and builds its
    # decomposition unscanned; the public constructor scans them.
    D = SnapshotMatrix(np.random.default_rng(4).uniform(size=(6, 8)), 2, 3)
    dec = rdmd(D, SketchConfig(rank=2, seed=0))
    modes = dec.modes.copy()
    modes[5, 1] = np.nan
    with pytest.raises(ValueError, match="modes contain non-finite entries"):
        DmdDecomposition(modes, dec.eigenvalues, dec.amplitudes, dec.n_frames, 2, 3)


def test_residual_sequence_check_allocates_no_per_pixel_array():
    values = np.random.default_rng(0).uniform(size=(2000, 500))
    tracemalloc.start()
    try:
        ResidualSequence(values, 40, 50)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < values.shape[0] * values.shape[1]


def pair_decomposition(n_pixels, n_frames, seed=0):
    """A static mode, a conjugate pair and a fast mode over random modes."""
    rng = np.random.default_rng(seed)
    lam = np.array([1.0, 0.99 * np.exp(0.05j), 0.99 * np.exp(-0.05j), 0.5 * np.exp(2.0j)])
    modes = rng.normal(size=(n_pixels, 4)) + 1j * rng.normal(size=(n_pixels, 4))
    amplitudes = rng.normal(size=4) + 1j * rng.normal(size=4)
    return DmdDecomposition(modes=0.1 * modes, eigenvalues=lam, amplitudes=amplitudes,
                            n_frames=n_frames, frame_height=1, frame_width=n_pixels)


@pytest.mark.parametrize("n_frames", [15, 16, 17, 33])
@pytest.mark.parametrize("n_pixels", [1, 15, 16, 17, 33])
def test_background_residual_is_bit_identical_to_residual_of_model(
    monkeypatch, n_pixels, n_frames
):
    # Blocks of 16 pixels (16 n bytes each), so a block boundary falls
    # inside the frame and 17 and 33 pixels leave a one-pixel tail; then a
    # budget of one byte, whose blocks are the smallest, 2 pixels.
    dec = pair_decomposition(n_pixels, n_frames)
    background_indices = partition_modes(fourier_modes(dec), 2)
    assert background_indices == (0, 1, 2)  # the pair joins the static mode
    D = SnapshotMatrix(np.random.default_rng(1).uniform(size=(n_pixels, n_frames)),
                       1, n_pixels)
    expected = reference_residual(D, dec, background_indices).values
    for budget in (16 * 16 * n_frames, 1):
        monkeypatch.setattr(dmd, "BLOCK_BYTES", budget)
        S = factor_residual(D, *background_factors(dec, background_indices))
        assert S.values.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n_frames", [15, 16, 17, 33])
def test_background_residual_of_static_rank_collapsed_chunk(monkeypatch, n_frames):
    # Blocks of 512 pixels and a frame of 1025 give two full blocks and a tail.
    monkeypatch.setattr(dmd, "BLOCK_BYTES", 512 * 16 * n_frames)
    frame = np.random.default_rng(2).uniform(size=2 * 512 + 1)
    D = SnapshotMatrix(np.repeat(frame[:, None], n_frames, axis=1), 1, frame.size)
    dec = rdmd(D, SketchConfig(rank=4, oversampling=2, subspace_iters=1, seed=3))
    assert dec.rank == 1
    background_indices = partition_modes(fourier_modes(dec), 1)
    expected = reference_residual(D, dec, background_indices).values
    S = factor_residual(D, *background_factors(dec, background_indices))
    assert S.values.tobytes() == expected.tobytes()


def test_background_residual_never_holds_the_complex_background():
    n_frames = 40
    n_pixels = 8 * dmd._block_length(16 * n_frames)
    dec = pair_decomposition(n_pixels, n_frames)
    background_indices = partition_modes(fourier_modes(dec), 2)
    D = SnapshotMatrix(np.full((n_pixels, n_frames), 0.5), 1, n_pixels)
    tracemalloc.start()
    try:
        S = factor_residual(D, *background_factors(dec, background_indices))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The residual plus one block; the whole complex background is twice the
    # residual's size.
    assert peak < 1.5 * S.values.nbytes


@pytest.mark.parametrize("n_frames", [100, 400])
def test_every_blocked_pass_holds_a_bounded_multiple_of_the_block_budget(n_frames):
    # Each pass's traced scratch, beyond its inputs and outputs, on a 48x64
    # chunk; the fixed-tau residual adds a bool block of 1/16 of a budget.
    # A block of a fixed pixel count would grow with the chunk length: 512
    # residual pixels hold 3.1 budgets at 400 frames. The
    # sweep's median network holds kernel**2 + 1 rank frames and a padded
    # one, where its block is sized for kernel**2 frames and an intp key.
    h, w = 48, 64
    m = h * w
    rng = np.random.default_rng(n_frames)
    D = SnapshotMatrix(rng.uniform(size=(m, n_frames)), h, w)
    modes = rng.normal(size=(m, 3)) + 1j * rng.normal(size=(m, 3))
    temporal = rng.normal(size=(3, n_frames)) + 0j
    S = ResidualSequence(rng.uniform(size=(m, n_frames)), h, w)
    seq = threshold_mask(S, 0.5)
    truth = ForegroundMaskSequence(rng.uniform(size=(n_frames, h, w)) < 0.1)
    masks = np.empty((n_frames, h, w), dtype=bool)
    ranks = np.empty((n_frames, h, w), dtype=np.uint8)

    def scratch(call):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / dmd.BLOCK_BYTES

    # The anchor's output, one float64 per pixel, is not its scratch. An
    # 8-bit chunk's network consumes the rasters that it carries.
    assert scratch(lambda: dmd._anchor_frame(D, MEDIAN_FRAME)) - 8 * m / dmd.BLOCK_BYTES <= 1.1
    for n_left in (n_frames - 1, n_frames - 2):
        raw = rng.integers(0, 256, size=(n_left + 1, m), dtype=np.uint8)
        D8 = SnapshotMatrix(raw.T / 255, h, w)
        held = scratch(lambda: dmd._anchor_frame(D8, MEDIAN_FRAME, (raw, 255)))
        assert held - 8 * m / dmd.BLOCK_BYTES <= 1.1
    assert scratch(lambda: factor_residual(D, modes, temporal, out=D.data)) <= 1.1
    half = ForegroundMaskSequence(masks, 0.5)
    assert scratch(lambda: factor_residual(D, modes, temporal, out=D.data, masks=half)) <= 1.1
    # Without an out, the filtered masks are the output, one bool per pixel
    # of every frame, and not the filter's scratch.
    fresh = n_frames * m / dmd.BLOCK_BYTES
    for kernel in (3, 17):
        assert scratch(lambda: filter_masks(seq, kernel, out=masks)) <= 1.1
        assert scratch(lambda: filter_masks(seq, kernel)) - fresh <= 1.1
    for kernel in (1, 3, 5):
        assert scratch(
            lambda: sweep_counts(S, truth, tau_grid(1.0), kernel, ranks)) <= 1.25


def test_background_residual_checks_its_inputs():
    dec = pair_decomposition(6, 5)
    D = SnapshotMatrix(np.full((6, 4), 0.5), 2, 3)
    with pytest.raises(ValueError, match="does not match video"):
        factor_residual(D, *background_factors(dec, (0,)))
    D = SnapshotMatrix(np.full((6, 5), 0.5), 2, 3)
    with pytest.raises(ValueError, match=r"mode indices outside \[0, 4\)"):
        factor_residual(D, *background_factors(dec, (4,)))


@pytest.mark.parametrize("case", ["no tau", "another shape", "transposed view"])
def test_factor_residual_rejects_masks_it_cannot_threshold_into(case):
    # Residuals of 0.5 against a zero background lie above the tau of 0.1,
    # so masks that took them would not stay empty. A transposed view is
    # one that reshape would copy, and the copy would take the masks.
    D = SnapshotMatrix(np.full((6, 4), 0.5), 2, 3)
    modes, temporal = np.zeros((6, 1), complex), np.zeros((1, 4), complex)
    masks, reason = {
        "no tau": (ForegroundMaskSequence(np.zeros((4, 2, 3), dtype=bool)),
                   "masks to threshold into need a tau"),
        "another shape": (ForegroundMaskSequence(np.zeros((4, 3, 2), dtype=bool), 0.1),
                          r"masks of shape \(4, 3, 2\) do not match video \(4, 2, 3\)"),
        "transposed view": (ForegroundMaskSequence(np.zeros((3, 2, 4), dtype=bool).T, 0.1),
                            "masks to threshold into must be C-contiguous"),
    }[case]
    with pytest.raises(ValueError, match=reason):
        factor_residual(D, modes, temporal, masks=masks)
    assert not masks.masks.any()


@pytest.mark.parametrize("n_frames, mode_scale", [(200, 1.0), (100, 1e20)])
def test_background_residual_of_an_overflowing_background_is_degenerate_data(
    n_frames, mode_scale
):
    # 1e3 ** 199 overflows float64; 1e3 ** 99 does not, but times 1e20 it does.
    dec = DmdDecomposition(modes=np.full((4, 1), mode_scale + 0j),
                           eigenvalues=np.array([1e3 + 0j]),
                           amplitudes=np.ones(1, dtype=np.complex128),
                           n_frames=n_frames, frame_height=2, frame_width=2)
    D = SnapshotMatrix(np.full((4, n_frames), 0.5), 2, 2)
    with pytest.raises(DegenerateDataError, match=f"overflows over {n_frames} frames"):
        factor_residual(D, *background_factors(dec, (0,)))


# ---------------------------------------------------------------- threshold

RESIDUAL_CASES = {
    # (residual values, tau); a residual of 0.25 on a 0.25 tau is background.
    "on the tau": (lambda rng, shape: rng.integers(0, 5, shape) / 8, 0.25),
    "tau zero": (lambda rng, shape: rng.integers(0, 3, shape) / 4, 0.0),
    "uniform": (lambda rng, shape: rng.uniform(size=shape), 0.5),
}


@pytest.mark.parametrize("case", sorted(RESIDUAL_CASES))
@pytest.mark.parametrize("n_pixels", [1, 15, 16, 17, 33])
def test_masks_thresholded_in_the_residual_loop_equal_the_oracle(monkeypatch, case, n_pixels):
    # Blocks of 16 pixels, so that block boundaries fall inside the frame,
    # and a one-pixel tail at 17 and 33 pixels. The residual is D itself
    # under an all-zero background, so each case sets it exactly; it still
    # lands in out, and no pixel outside the chunk's frames is written.
    n_frames = 9
    monkeypatch.setattr(dmd, "BLOCK_BYTES", 16 * 16 * n_frames)
    values, tau = RESIDUAL_CASES[case]
    data = values(np.random.default_rng(n_pixels), (n_pixels, n_frames))
    D = SnapshotMatrix(data, 1, n_pixels)
    modes, temporal = np.zeros((n_pixels, 1), complex), np.zeros((1, n_frames), complex)
    run = np.ones((n_frames + 3, 1, n_pixels), dtype=bool)
    S = factor_residual(D, modes, temporal, out=D.data,
                        masks=ForegroundMaskSequence(run[2:-1], tau))
    assert S.values is D.data and S.values.tobytes() == data.tobytes()
    expected = threshold_mask(ResidualSequence(data, 1, n_pixels), tau).masks
    assert run[2:-1].tobytes() == np.ascontiguousarray(expected).tobytes()
    assert run[:2].all() and run[-1:].all()


@pytest.mark.parametrize("n_frames", [15, 16])
def test_masks_of_a_static_rank_collapsed_chunk_equal_the_oracle(n_frames):
    frame = np.random.default_rng(2).uniform(size=2 * 512 + 1)
    D = SnapshotMatrix(np.repeat(frame[:, None], n_frames, axis=1), 25, 41)
    dec = rdmd(D, SketchConfig(rank=4, oversampling=2, subspace_iters=1, seed=3))
    assert dec.rank == 1
    factors = background_factors(dec, (0,))
    S = factor_residual(D, *factors)
    for tau in (0.0, float(np.median(S.values)), float(S.values.max())):
        masks = np.empty((n_frames, 25, 41), dtype=bool)
        factor_residual(D, *factors, masks=ForegroundMaskSequence(masks, tau))
        assert masks.tobytes() == np.ascontiguousarray(threshold_mask(S, tau).masks).tobytes()


def test_threshold_zero_on_positive_residual():
    S = ResidualSequence(np.full((4, 3), 0.2), 2, 2)
    masks = threshold_mask(S, 0.0)
    assert masks.masks.all()
    assert masks.tau == 0.0


def test_threshold_above_max_empty():
    S = ResidualSequence(np.full((4, 3), 0.2), 2, 2)
    assert not threshold_mask(S, 0.2).masks.any()  # strict inequality
    assert not threshold_mask(S, 0.5).masks.any()


def test_threshold_rejects_negative():
    S = ResidualSequence(np.zeros((4, 2)), 2, 2)
    with pytest.raises(ValueError):
        threshold_mask(S, -0.1)


@settings(deadline=None, max_examples=30)
@given(
    tau1=st.floats(0.0, 0.5),
    tau2=st.floats(0.0, 0.5),
    seed=st.integers(0, 1000),
)
def test_threshold_monotone(tau1, tau2, seed):
    lo, hi = sorted((tau1, tau2))
    rng = np.random.default_rng(seed)
    S = ResidualSequence(rng.uniform(0, 1, size=(12, 4)), 3, 4)
    tight = threshold_mask(S, hi).masks
    loose = threshold_mask(S, lo).masks
    assert not (tight & ~loose).any()


# ---------------------------------------------------------------- median filter

def test_median_filter_kernel_one_identity():
    rng = np.random.default_rng(0)
    mask = rng.uniform(size=(9, 9)) > 0.5
    assert np.array_equal(median_filter(mask, 1), mask)


def test_median_filter_removes_salt():
    mask = np.zeros((7, 7), dtype=bool)
    mask[3, 3] = True
    assert not median_filter(mask, 3).any()


def test_median_filter_solid_block_interior_survives_corners_erode():
    mask = np.zeros((8, 8), dtype=bool)
    mask[2:6, 2:6] = True
    out = median_filter(mask, 3)
    assert out[3, 3]
    assert not out[2, 2]  # a free-standing corner has only 4 of 9 neighbors set


def test_median_filter_edge_replication_preserves_frame_corner():
    # flush against the frame corner, replication pads with foreground and the
    # corner pixel keeps a majority
    mask = np.zeros((8, 8), dtype=bool)
    mask[0:4, 0:4] = True
    out = median_filter(mask, 3)
    assert out[0, 0]


def test_median_filter_rejects_even_kernel():
    with pytest.raises(ValueError):
        median_filter(np.zeros((4, 4), dtype=bool), 2)


def test_median_filter_idempotent_on_uniform():
    for frame in (np.zeros((5, 5), dtype=bool), np.ones((5, 5), dtype=bool)):
        once = median_filter(frame, 3)
        assert np.array_equal(median_filter(once, 3), once)


def test_filter_masks_applies_per_frame():
    masks = np.zeros((2, 7, 7), dtype=bool)
    masks[0, 3, 3] = True
    masks[1, 1:6, 1:6] = True
    seq = filter_masks(ForegroundMaskSequence(masks, tau=0.5), 3)
    assert not seq.masks[0].any()
    assert seq.masks[1, 3, 3]
    assert seq.tau == 0.5


@settings(deadline=None, max_examples=150)
@given(
    masks=st.tuples(st.integers(1, 3), st.integers(1, 20), st.integers(1, 20)).flatmap(
        lambda shape: arrays(np.bool_, shape)
    ),
    kernel=st.sampled_from([1, 3, 5, 17]),
)
# 289 of 289 votes: an 8-bit count would wrap to 33 and lose the majority.
@example(masks=np.ones((1, 20, 20), dtype=bool), kernel=17)
def test_filter_masks_equals_per_frame_median_filter(masks, kernel):
    seq = filter_masks(ForegroundMaskSequence(masks, tau=0.5), kernel)
    reference = np.stack([median_filter(frame, kernel) for frame in masks])
    assert np.array_equal(seq.masks, reference)
    assert seq.tau == 0.5


@pytest.mark.parametrize("shape", [(1, 3), (4, 1), (7, 9), (12, 10)])
@pytest.mark.parametrize("kernel", [3, 5, 17])
@pytest.mark.parametrize("block_frames", [1, 2, 5])
@pytest.mark.parametrize("out_offset", [2, None])
def test_filter_masks_of_a_threshold_view_equals_the_oracle(
    monkeypatch, shape, kernel, block_frames, out_offset
):
    # threshold_mask returns a transposed view whose frame axis is the
    # contiguous one. It is copied into a fresh output, or into frames
    # [2, 7) of a longer array, and counted there in blocks of 1, 2 (with a
    # one-frame tail) and all 5 frames of two counts each; kernel 17 is
    # larger than every frame, so every shift clamps, and its counts are
    # uint16.
    h, w = shape
    rng = np.random.default_rng(h * w * kernel)
    seq = threshold_mask(ResidualSequence(rng.uniform(size=(h * w, 5)), h, w), 0.5)
    assert not seq.masks.flags.c_contiguous
    frame_bytes = 2 * h * w * np.min_scalar_type(kernel * kernel).itemsize
    monkeypatch.setattr(dmd, "BLOCK_BYTES", block_frames * frame_bytes)
    run = np.ones((9, h, w), dtype=bool)
    out = None if out_offset is None else run[out_offset : out_offset + 5]
    filtered = filter_masks(seq, kernel, out=out)
    reference = np.stack([median_filter(frame, kernel) for frame in seq.masks])
    assert np.array_equal(filtered.masks, reference)
    assert filtered.tau == 0.5
    if out is not None:
        assert filtered.masks is out
        assert run[:2].all() and run[7:].all()


@pytest.mark.parametrize("kernel", [1, 3, 5])
def test_filter_masks_into_a_slice_equals_the_fresh_masks(monkeypatch, kernel):
    # The pipeline filters each chunk in its frames of the run's masks: the
    # same bytes as a fresh filter, in blocks of 2 frames (of two uint8
    # counts each) with a one-frame tail, and nothing outside the slice is
    # written.
    monkeypatch.setattr(dmd, "BLOCK_BYTES", 2 * 7 * 9 * 2)
    S = ResidualSequence(np.random.default_rng(kernel).uniform(size=(7 * 9, 5)), 7, 9)
    seq = threshold_mask(S, 0.5)
    run = np.ones((9, 7, 9), dtype=bool)
    filtered = filter_masks(seq, kernel, out=run[2:7])
    assert np.shares_memory(filtered.masks, run[2:7])
    assert filtered.tau == 0.5
    assert run[2:7].tobytes() == np.ascontiguousarray(filter_masks(seq, kernel).masks).tobytes()
    assert run[:2].all() and run[7:].all()
    # A fixed-tau run's masks are already in its frames, filtered in place.
    in_place = np.ones((9, 7, 9), dtype=bool)
    frames = in_place[2:7]
    frames[...] = seq.masks
    filtered = filter_masks(ForegroundMaskSequence(frames, tau=0.5), kernel, out=frames)
    assert filtered.masks is frames
    assert in_place.tobytes() == run.tobytes()


def test_filter_masks_rejects_even_kernel():
    with pytest.raises(ValueError, match="odd"):
        filter_masks(ForegroundMaskSequence(np.zeros((1, 4, 4), dtype=bool)), 2)


@pytest.mark.parametrize("kernel", [0, -1, 2**32 + 1])
def test_filter_masks_rejects_a_kernel_outside_1_to_2_to_the_32(kernel):
    # At 2**32 + 1, kernel**2 votes outgrow uint64 and the box sums would
    # run on Python ints.
    reason = f"kernel must be odd, >= 1 and < 2**32, got {kernel}"
    with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
        filter_masks(ForegroundMaskSequence(np.zeros((1, 4, 4), dtype=bool)), kernel)


# Radii below, at and past each axis of the frames below, as far as a count
# of (2 * radius + 1)**2 votes fits the type that holds it.
BOX_SUMS = [(acc, radius) for acc in (np.uint16, np.uint32, np.uint64)
            for radius in (1, 3, 4, 5, 6, 7, 40, 127, 3000)
            if (2 * radius + 1) ** 2 <= np.iinfo(acc).max]


@pytest.mark.parametrize("shape", [(1, 1), (1, 6), (5, 1), (4, 7)])
@pytest.mark.parametrize("acc, radius", BOX_SUMS)
def test_box_sum_adds_the_shifts_past_the_edge_at_once(shape, acc, radius):
    # filter_masks's two passes: uint8 votes into the count type along the
    # rows, then those counts along the columns. Beyond the axis length a
    # shift adds only the two edge pixels, so the bounded loop and one
    # multiply give the one-step-per-unit loop's sums; a product of 2999
    # and a uint8 edge sum would not fit in the votes' own type.
    votes = np.random.default_rng(radius).integers(0, 2, size=(3, *shape), dtype=np.uint8)
    votes[2] = 1
    sums = {}
    for box_sum in (_box_sum, box_sum_by_shifts):
        rows = np.empty(votes.shape, dtype=acc)
        count = np.empty(votes.shape, dtype=acc)
        box_sum(votes, rows, radius)
        box_sum(rows.swapaxes(1, 2), count.swapaxes(1, 2), radius)
        sums[box_sum] = (rows.tobytes(), count.tobytes())
    assert sums[_box_sum] == sums[box_sum_by_shifts]
    assert np.all(count[2] == (2 * radius + 1) ** 2)


# ---------------------------------------------------------------- determinism

def test_mask_determinism(moving_square):
    D, _ = moving_square
    dec = rdmd(D, SketchConfig(rank=5, oversampling=2, subspace_iters=1, seed=1))
    S = factor_residual(D, *background_factors(dec, partition_modes(fourier_modes(dec), 3)))
    m1 = threshold_mask(S, 0.25)
    m2 = threshold_mask(S, 0.25)
    assert np.array_equal(m1.masks, m2.masks)
