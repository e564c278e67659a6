"""Decomposition against planted linear systems and its own algebra."""

import re
import tracemalloc

import numpy as np
import pytest

from dmdmotion import dmd, linalg
from dmdmotion.background import background_factors
from dmdmotion.dmd import (
    FIRST_FRAME,
    MEDIAN_FRAME,
    SnapshotMatrix,
    _modes,
    _reduced_operator,
    rdmd,
)
from dmdmotion.errors import DegenerateDataError
from dmdmotion.linalg import SketchConfig

from helpers import (
    deterministic_dmd,
    deterministic_svd,
    hausdorff_distance,
    planted_linear_snapshots,
    principal_angle_cos,
)


def static_video(value=0.5, pixels=100, frames=20):
    data = np.full((pixels, frames), value)
    return SnapshotMatrix(data, frame_height=10, frame_width=pixels // 10)


# ---------------------------------------------------------------- snapshot type

def test_snapshot_matrix_validation():
    with pytest.raises(ValueError):
        SnapshotMatrix(np.ones((4, 1)), 2, 2)  # one frame
    with pytest.raises(ValueError):
        SnapshotMatrix(np.ones((4, 3)), 3, 2)  # geometry mismatch
    for data in (np.full(4, 0.5), np.full((4, 3, 1), 0.5)):
        with pytest.raises(ValueError, match="^snapshot data must be 2-dimensional$"):
            SnapshotMatrix(data, 2, 2)


@pytest.mark.parametrize("bad, reason", [
    (np.nan, "non-finite entries"),
    (np.inf, "non-finite entries"),
    (-np.inf, "non-finite entries"),
    (1.5, r"must lie in \[0, 1\]"),
    (-0.25, r"must lie in \[0, 1\]"),
])
def test_snapshot_matrix_value_checks(bad, reason):
    data = np.full((4, 3), 0.5)
    data[2, 1] = bad
    with pytest.raises(ValueError, match=reason):
        SnapshotMatrix(data, 2, 2)


def test_snapshot_matrix_check_allocates_no_per_pixel_array():
    data = np.random.default_rng(0).uniform(size=(2000, 500))
    tracemalloc.start()
    try:
        SnapshotMatrix(data, 40, 50)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < data.shape[0] * data.shape[1]


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, np.inf)])
def test_decomposition_rejects_non_finite_eigenvalues(bad):
    with pytest.raises(ValueError, match="eigenvalues contain non-finite entries"):
        dmd.DmdDecomposition(
            modes=np.eye(2, dtype=np.complex128),
            eigenvalues=np.array([1.0, bad], dtype=np.complex128),
            amplitudes=np.ones(2, dtype=np.complex128),
            n_frames=3, frame_height=1, frame_width=2,
        )


@pytest.mark.parametrize("fields, reason", [
    ({"frame_height": 0, "frame_width": 4}, "frame_height must be >= 1, got 0"),
    ({"frame_width": -2}, "frame_width must be >= 1, got -2"),
    ({"frame_height": 7, "frame_width": 1}, "frame_height x frame_width = 7x1 does not match 4 pixels"),
    ({"n_frames": 1}, "n_frames must be >= 2, got 1"),
    ({"modes": np.ones((4, 0), complex), "eigenvalues": np.ones(0, complex),
      "amplitudes": np.ones(0, complex)}, "decomposition must retain at least one mode"),
    ({"modes": np.ones((4, 2), complex)}, "mode/eigenvalue/amplitude shapes are inconsistent"),
    ({"amplitudes": np.ones(2, complex)}, "mode/eigenvalue/amplitude shapes are inconsistent"),
])
def test_decomposition_rejects_bad_geometry_or_frame_count(fields, reason):
    with pytest.raises(ValueError, match=f"^{reason}$"):
        dmd.DmdDecomposition(**{
            "modes": np.ones((4, 1), dtype=np.complex128),
            "eigenvalues": np.ones(1, dtype=np.complex128),
            "amplitudes": np.ones(1, dtype=np.complex128),
            "n_frames": 3, "frame_height": 2, "frame_width": 2, **fields,
        })


@pytest.mark.parametrize("fields, reason", [
    ({"anchor": True}, "anchor must be 'first', 'median' or a frame index >= 0, got True"),
    ({"anchor": "last"}, "anchor must be 'first', 'median' or a frame index >= 0, got 'last'"),
    ({"anchor": -1}, "anchor must be 'first', 'median' or a frame index >= 0, got -1"),
    ({"seed": 1.5}, "seed must be an integer >= 0, got 1.5"),
    ({"seed": False}, "seed must be an integer >= 0, got False"),
])
def test_decomposition_rejects_an_anchor_or_seed_no_fit_uses(fields, reason):
    with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
        dmd.DmdDecomposition(
            modes=np.ones((4, 1), dtype=np.complex128),
            eigenvalues=np.ones(1, dtype=np.complex128),
            amplitudes=np.ones(1, dtype=np.complex128),
            n_frames=3, frame_height=2, frame_width=2, **fields,
        )


NON_FINITE = [complex(bad, 0.5) for bad in (np.nan, np.inf, -np.inf)] + [
    complex(0.5, bad) for bad in (np.nan, np.inf, -np.inf)
]


@pytest.mark.parametrize("bad", NON_FINITE)
def test_decomposition_rejects_non_finite_modes(bad):
    modes = np.ones((4, 2), dtype=np.complex128)
    modes[3, 1] = bad
    with pytest.raises(ValueError, match="^modes contain non-finite entries$"):
        dmd.DmdDecomposition(
            modes=modes,
            eigenvalues=np.ones(2, dtype=np.complex128),
            amplitudes=np.ones(2, dtype=np.complex128),
            n_frames=3, frame_height=2, frame_width=2,
        )


def test_decomposition_checks_its_modes_under_a_byte_per_entry():
    rng = np.random.default_rng(2)
    modes = rng.standard_normal((20000, 20)) + 1j * rng.standard_normal((20000, 20))
    tracemalloc.start()
    try:
        dmd.DmdDecomposition(
            modes=modes,
            eigenvalues=np.ones(20, dtype=np.complex128),
            amplitudes=np.ones(20, dtype=np.complex128),
            n_frames=3, frame_height=100, frame_width=200,
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < modes.size


def test_non_finite_modes_are_degenerate_data(planted_three_mode, monkeypatch):
    def nan_modes(*args):
        Phi = _modes(*args)
        Phi[0, 0] = np.nan
        return Phi

    monkeypatch.setattr(dmd, "_modes", nan_modes)
    with pytest.raises(DegenerateDataError, match="modes contain non-finite entries"):
        deterministic_dmd(planted_three_mode.snapshots, rank=3)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_each_non_finite_mode_entry_is_degenerate_data(planted_three_mode, monkeypatch, bad):
    def nan_modes(*args):
        Phi = _modes(*args)
        Phi[5, 1] = bad
        return Phi

    monkeypatch.setattr(dmd, "_modes", nan_modes)
    with pytest.raises(DegenerateDataError, match="modes contain non-finite entries"):
        deterministic_dmd(planted_three_mode.snapshots, rank=3)


def test_snapshot_frame_view():
    data = np.linspace(0, 1, 12).reshape(6, 2)
    D = SnapshotMatrix(data, 2, 3)
    assert np.array_equal(D.frame(1), data[:, 1].reshape(2, 3))


# ---------------------------------------------------------------- left and right sequences

def test_rdmd_sketches_a_view_of_the_left_sequence(monkeypatch):
    rng = np.random.default_rng(1)
    D = SnapshotMatrix(rng.uniform(size=(30, 12)), 5, 6)
    seen = []

    def recorded_rsvd(A, cfg, **kwargs):
        seen.append(A)
        return linalg.rsvd(A, cfg, **kwargs)

    monkeypatch.setattr(dmd, "rsvd", recorded_rsvd)
    rdmd(D, SketchConfig(rank=3, oversampling=2, subspace_iters=1, seed=0))
    (X,) = seen
    assert np.shares_memory(X, D.data)
    assert np.array_equal(X, D.data[:, :-1])


def _left_and_right_sequences(D, monkeypatch):
    """Record the (X, Y) pair that rdmd and deterministic_dmd each fit."""
    pairs = []

    def recorded(svd):
        def run(A, *args, **kwargs):
            pairs.append([A])
            return svd(A, *args, **kwargs)
        return run

    def recorded_reduced_operator(factors, Y):
        pairs[-1].append(Y)
        return _reduced_operator(factors, Y)

    monkeypatch.setattr(dmd, "rsvd", recorded(linalg.rsvd))
    monkeypatch.setattr("helpers.deterministic_svd", recorded(deterministic_svd))
    monkeypatch.setattr(dmd, "_reduced_operator", recorded_reduced_operator)
    rdmd(D, SketchConfig(rank=1, oversampling=0, seed=0))
    deterministic_dmd(D, 1)
    assert len(pairs) == 2 and all(len(pair) == 2 for pair in pairs)
    return pairs


def test_split_basic(monkeypatch):
    data = np.column_stack([np.full(4, 0.1), np.full(4, 0.2), np.full(4, 0.3)])
    for X, Y in _left_and_right_sequences(SnapshotMatrix(data, 2, 2), monkeypatch):
        assert np.array_equal(X, data[:, :2])
        assert np.array_equal(Y, data[:, 1:])


def test_split_two_frames(monkeypatch):
    D = SnapshotMatrix(np.ones((4, 2)) * 0.5, 2, 2)
    for X, Y in _left_and_right_sequences(D, monkeypatch):
        assert X.shape == (4, 1) and Y.shape == (4, 1)


def test_split_overlap_identity(monkeypatch):
    rng = np.random.default_rng(1)
    D = SnapshotMatrix(rng.uniform(size=(6, 5)), 2, 3)
    for X, Y in _left_and_right_sequences(D, monkeypatch):
        assert np.array_equal(X[:, 1:], Y[:, :-1])


def test_rdmd_checks_its_svd_factors_once(planted_three_mode, monkeypatch):
    # Their rank and singular values, once; the public constructor's
    # orthonormality products are skipped, as the sketch's factors are
    # orthonormal by construction.
    checks, constructed = [], []
    check_shape = linalg.SvdFactors._check_shape

    def counted_check_shape(self):
        checks.append(self.rank)
        check_shape(self)

    monkeypatch.setattr(linalg.SvdFactors, "_check_shape", counted_check_shape)
    monkeypatch.setattr(linalg.SvdFactors, "__post_init__", lambda self: constructed.append(self))
    rdmd(planted_three_mode.snapshots, SketchConfig(rank=3, oversampling=2, seed=0))
    assert checks == [3]
    assert constructed == []


# ---------------------------------------------------------------- reduced operator

def test_reduced_operator_static_is_identity():
    D = static_video()
    X, Y = D.data[:, :-1], D.data[:, 1:]
    factors = deterministic_svd(X, 1)
    M = _reduced_operator(factors, Y)
    assert M.shape == (1, 1)
    assert abs(M[0, 0] - 1.0) < 1e-10


def test_reduced_operator_recovers_planted_spectrum(planted_three_mode):
    D = planted_three_mode.snapshots
    X, Y = D.data[:, :-1], D.data[:, 1:]
    factors = deterministic_svd(X, 3)
    lam = np.linalg.eigvals(_reduced_operator(factors, Y))
    assert hausdorff_distance(lam, planted_three_mode.eigenvalues) <= 1e-8


def test_reduced_operator_scale_invariant(planted_three_mode):
    D = planted_three_mode.snapshots
    X, Y = D.data[:, :-1], D.data[:, 1:]
    M1 = _reduced_operator(deterministic_svd(X, 3), Y)
    c = 0.37
    M2 = _reduced_operator(deterministic_svd(c * X, 3), c * Y)
    # the two SVDs may disagree on column signs, so compare spectra
    assert hausdorff_distance(np.linalg.eigvals(M1), np.linalg.eigvals(M2)) <= 1e-10


def test_reduced_operator_degenerate_zero_data():
    X = np.zeros((8, 4))
    factors = deterministic_svd(X, 2)
    with pytest.raises(DegenerateDataError):
        _reduced_operator(factors, X)


# ---------------------------------------------------------------- modes

@pytest.mark.parametrize("m", [1, 37, 1000, 76800])
@pytest.mark.parametrize("r", [1, 3, 20])
@pytest.mark.parametrize("spectrum", ["real", "complex"])
def test_modes_equal_the_product_of_the_real_temporaries(m, r, spectrum):
    # _modes divides into a complex buffer; (Y @ V / s) @ W casts the
    # real quotient to complex for the product. A symmetric operator has a
    # real spectrum, whose eigenvectors are cast to complex as in _decompose;
    # a skew-symmetric one plus a diagonal has complex pairs.
    rng = np.random.default_rng(m * r)
    n = r + 5
    Y = rng.uniform(size=(m, n))
    V = np.linalg.qr(rng.standard_normal((n, r)))[0]
    s = np.sort(rng.uniform(0.5, 2.0, size=r))[::-1]
    M = rng.standard_normal((r, r))
    lam, W = np.linalg.eig(M + M.T if spectrum == "real" else M - M.T + np.diag(s))
    W = W.astype(np.complex128)
    assert np.iscomplexobj(lam) == (spectrum == "complex" and r > 1)
    assert _modes(Y, V, s, W).tobytes() == ((Y @ V / s) @ W).tobytes()


def test_modes_static_video_proportional_to_frame():
    D = static_video(0.4)
    X, Y = D.data[:, :-1], D.data[:, 1:]
    f = deterministic_svd(X, 1)
    _, W = np.linalg.eig(_reduced_operator(f, Y))
    Phi = _modes(Y, f.V, f.singular_values, W)
    assert Phi.shape == (100, 1)
    assert principal_angle_cos(Phi[:, 0], D.data[:, 0]) >= 1 - 1e-10


def test_modes_match_planted_directions(planted_three_mode):
    sys = planted_three_mode
    X, Y = sys.snapshots.data[:, :-1], sys.snapshots.data[:, 1:]
    f = deterministic_svd(X, 3)
    lam, W = np.linalg.eig(_reduced_operator(f, Y))
    Phi = _modes(Y, f.V, f.singular_values, W)
    for i, lam_i in enumerate(lam):
        j = int(np.argmin(np.abs(sys.eigenvalues - lam_i)))
        assert principal_angle_cos(Phi[:, i], sys.modes[:, j]) >= 1 - 1e-6


# ---------------------------------------------------------------- amplitudes

def test_amplitudes_single_mode_unit():
    # One mode at eigenvalue 1: its amplitude scales it onto the anchor frame,
    # so the reconstruction is the static video itself.
    D = static_video(0.6)
    dec = deterministic_dmd(D, 1, anchor=FIRST_FRAME)
    assert np.allclose(dec.eigenvalues, [1.0])
    assert np.allclose(np.matmul(*background_factors(dec, range(dec.rank))), D.data, atol=1e-10)


def test_amplitudes_static_any_anchor_reconstructs_frame():
    D = static_video(0.3)
    sketch = SketchConfig(rank=1, oversampling=0, subspace_iters=0, seed=0)
    for anchor in (FIRST_FRAME, MEDIAN_FRAME, 5):
        for dec in (deterministic_dmd(D, 1, anchor=anchor), rdmd(D, sketch, anchor=anchor)):
            assert np.linalg.norm(dec.modes @ dec.amplitudes - D.data[:, 0]) <= 1e-8


def test_amplitudes_recover_planted_values():
    # A mode's scale is arbitrary, so each fitted term b_i phi_i is compared
    # with the planted term of the nearest planted eigenvalue.
    sys = planted_linear_snapshots(
        [1.0, 0.9],
        frame_shape=(8, 8),
        n_frames=30,
        amplitudes=[2.0, 0.5],
        seed=3,
        carrier_range=(0.15, 0.3),
        mode_scale=0.08,
    )
    dec = deterministic_dmd(sys.snapshots, 2, anchor=FIRST_FRAME)
    for i, lam_i in enumerate(dec.eigenvalues):
        j = int(np.argmin(np.abs(sys.eigenvalues - lam_i)))
        planted = sys.amplitudes[j] * sys.modes[:, j]
        fitted = dec.amplitudes[i] * dec.modes[:, i]
        assert np.linalg.norm(fitted - planted) <= 1e-6 * np.linalg.norm(planted)


def test_amplitudes_minimum_norm_for_degenerate_modes(monkeypatch, planted_three_mode):
    # Two equal mode columns leave the fit rank-deficient: it returns the
    # minimum-norm amplitudes, which split the weight evenly, not an error.
    modes = dmd._modes

    def duplicated(*args):
        Phi = modes(*args)
        Phi[:, 1] = Phi[:, 0]
        return Phi

    monkeypatch.setattr(dmd, "_modes", duplicated)
    D = planted_three_mode.snapshots
    dec = deterministic_dmd(D, 2, anchor=FIRST_FRAME)
    expected = np.linalg.pinv(dec.modes) @ D.data[:, 0]
    assert np.allclose(dec.amplitudes, expected, atol=1e-10)
    assert abs(dec.amplitudes[0] - dec.amplitudes[1]) <= 1e-10 * abs(dec.amplitudes[0])


def test_modes_are_scanned_for_finiteness_once(monkeypatch, planted_three_mode):
    # Once before the amplitude fit: the fit does not scan them again, and
    # the decomposition is built through _unscanned.
    scanned = []
    all_finite = linalg._all_finite

    def counted(A):
        scanned.append(A)
        return all_finite(A)

    monkeypatch.setattr(dmd, "_all_finite", counted)
    monkeypatch.setattr(linalg, "_all_finite", counted)
    D = planted_three_mode.snapshots
    dec = rdmd(D, SketchConfig(rank=3, seed=0))
    modes = [A for A in scanned if A.shape[0] == D.n_pixels and np.iscomplexobj(A)]
    assert len(modes) == 1
    assert modes[0] is dec.modes


@pytest.mark.parametrize("n_frames", [2, 3, 8, 9, 200, 201, 1001])
@pytest.mark.parametrize("tied", [False, True])
def test_median_anchor_equals_np_median(n_frames, tied):
    # The left sequence has n_frames - 1 columns: odd and even lengths, and a
    # 2-frame chunk's single column. Tied values repeat across a row. At 1000
    # columns some rows' partition leaves a smaller value just left of the
    # middle than the largest of the lower half.
    values = np.random.default_rng(n_frames).uniform(size=(2000, n_frames))
    if tied:
        values = np.round(values * 4) / 4
    D = SnapshotMatrix(values, 40, 50)
    expected = np.median(values[:, :-1], axis=1)
    assert dmd._anchor_frame(D, MEDIAN_FRAME).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n_pixels", [1, 1023, 1024, 1025])
@pytest.mark.parametrize("n_frames", [8, 9])
@pytest.mark.parametrize("tied", [False, True])
def test_blocked_median_anchor_equals_np_median(monkeypatch, n_pixels, n_frames, tied):
    # Blocks of 1024 pixels, of 8 bytes per left-sequence frame each: one
    # pixel, one short of a block, exactly one, and one pixel into the
    # second; left sequences of odd (7) and even (8) length.
    monkeypatch.setattr(dmd, "BLOCK_BYTES", 1024 * 8 * (n_frames - 1))
    values = np.random.default_rng(n_pixels + n_frames).uniform(size=(n_pixels, n_frames))
    if tied:
        values = np.round(values * 3) / 3
    D = SnapshotMatrix(values, 1, n_pixels)
    expected = np.median(values[:, :-1], axis=1)
    assert dmd._anchor_frame(D, MEDIAN_FRAME).tobytes() == expected.tobytes()


def _rasters(n_frames, n_pixels, maxval, kind, seed=0):
    rng = np.random.default_rng(seed)
    if kind == "constant":
        return np.full((n_frames, n_pixels), maxval // 2, dtype=np.uint8)
    top = min(3, maxval) if kind == "tied" else maxval
    return rng.integers(0, top + 1, size=(n_frames, n_pixels), dtype=np.uint8)


@pytest.mark.parametrize("n_frames", [2, 3, 4, 9, 10, 34, 100, 101, 200, 201, 602, 603])
@pytest.mark.parametrize("maxval", [1, 100, 255])
@pytest.mark.parametrize("kind", ["uniform", "tied", "constant"])
def test_network_median_equals_the_partition_anchor(n_frames, maxval, kind):
    # Left sequences of odd and even length, down to a 2-frame chunk's one
    # frame and up to more than 600; maxval 1 holds only 0 and 1, and "tied"
    # only 0 to 3.
    raw = _rasters(n_frames, 300, maxval, kind, seed=n_frames + maxval)
    D = SnapshotMatrix(raw.T / maxval, 15, 20)
    expected = dmd._anchor_frame(D, MEDIAN_FRAME)
    assert expected.tobytes() == np.median(D.data[:, :-1], axis=1).tobytes()
    assert dmd._network_median(raw.copy(), maxval).tobytes() == expected.tobytes()


def test_the_anchor_consumes_the_rasters_a_chunk_carries():
    # The rasters are taken from the chunk whatever the anchor, so a second
    # decomposition of the same chunk goes through the partition, and gets
    # the same bytes.
    raw = _rasters(41, 600, 255, "uniform")
    D = SnapshotMatrix(raw.T / 255, 20, 30)
    expected = np.median(D.data[:, :-1], axis=1)
    for anchor in (FIRST_FRAME, MEDIAN_FRAME):
        object.__setattr__(D, "_rasters", (raw.copy(), 255))
        dmd._anchor_frame(D, anchor)
        assert not hasattr(D, "_rasters")
    object.__setattr__(D, "_rasters", (raw.copy(), 255))
    cfg = SketchConfig(rank=4, seed=2)
    with_rasters = rdmd(D, cfg)
    assert not hasattr(D, "_rasters")
    assert dmd._anchor_frame(D, MEDIAN_FRAME).tobytes() == expected.tobytes()
    for name in ("modes", "eigenvalues", "amplitudes"):
        assert getattr(with_rasters, name).tobytes() == getattr(rdmd(D, cfg), name).tobytes()


@pytest.mark.parametrize("text, anchor", [
    ("first", "first"), ("median", "median"), ("last", "last"), ("", ""),
    ("0", 0), ("5", 5), ("-1", -1), ("1.5", "1.5"),
])
def test_parse_anchor_gives_an_index_or_the_text(text, anchor):
    parsed = dmd._parse_anchor(text)
    assert parsed == anchor and type(parsed) is type(anchor)


@pytest.mark.parametrize("anchor, n_left, reason", [
    (19, 19, "anchor frame 19 outside [0, 19) of a chunk of 20 frames"),
    (np.int64(4), 3, "anchor frame 4 outside [0, 3) of a chunk of 4 frames"),
    (-1, 19, "anchor must be 'first', 'median' or a frame index >= 0, got -1"),
])
def test_check_anchor_bounds_an_index_by_the_left_frames(anchor, n_left, reason):
    with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
        dmd._check_anchor(anchor, n_left)
    for ok in ("first", "median", 0, n_left - 1):
        dmd._check_anchor(ok, n_left)
    dmd._check_anchor(2**63)  # without a length, any index >= 0


def test_amplitudes_anchor_bounds():
    D = static_video()
    # The left sequence has 19 frames, 0..18; a bool is not a frame index.
    for anchor in (19, -1, "nonsense", True, False):
        with pytest.raises(ValueError):
            deterministic_dmd(D, 1, anchor=anchor)


# ---------------------------------------------------------------- rdmd end to end

def test_rdmd_static_video_unit_eigenvalue():
    D = static_video(0.5, pixels=100, frames=20)
    dec = rdmd(D, SketchConfig(rank=1, oversampling=0, subspace_iters=0, seed=0))
    assert dec.rank == 1
    assert abs(dec.eigenvalues[0] - 1.0) <= 1e-8


def test_rdmd_recovers_planted_spectrum(planted_three_mode):
    cfg = SketchConfig(rank=3, oversampling=2, subspace_iters=1, seed=0)
    dec = rdmd(planted_three_mode.snapshots, cfg)
    assert hausdorff_distance(dec.eigenvalues, planted_three_mode.eigenvalues) <= 1e-6


def test_rdmd_matches_deterministic_dmd(planted_three_mode):
    cfg = SketchConfig(rank=3, oversampling=2, subspace_iters=1, seed=5)
    randomized = rdmd(planted_three_mode.snapshots, cfg)
    reference = deterministic_dmd(planted_three_mode.snapshots, rank=3)
    assert hausdorff_distance(randomized.eigenvalues, reference.eigenvalues) <= 1e-4


@pytest.mark.parametrize("p", [0, 2])
@pytest.mark.parametrize("q", [0, 1, 2])
def test_rdmd_spectrum_recovery_all_p_q(planted_three_mode, p, q):
    cfg = SketchConfig(rank=3, oversampling=p, subspace_iters=q, seed=1)
    dec = rdmd(planted_three_mode.snapshots, cfg)
    assert hausdorff_distance(dec.eigenvalues, planted_three_mode.eigenvalues) <= 1e-6


def test_rdmd_conjugate_pairing(moving_square):
    D, _ = moving_square
    dec = rdmd(D, SketchConfig(rank=6, oversampling=2, subspace_iters=1, seed=2))
    lam = dec.eigenvalues
    complex_ones = lam[np.abs(lam.imag) > 1e-8]
    for value in complex_ones:
        assert np.min(np.abs(complex_ones - np.conj(value))) <= 1e-8


def test_rdmd_determinism(planted_three_mode):
    cfg = SketchConfig(rank=3, oversampling=2, subspace_iters=1, seed=9)
    d1 = rdmd(planted_three_mode.snapshots, cfg)
    d2 = rdmd(planted_three_mode.snapshots, cfg)
    assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
    assert np.array_equal(d1.modes, d2.modes)
    assert np.array_equal(d1.amplitudes, d2.amplitudes)


def test_rdmd_eigenvalues_ordered_background_first(moving_square):
    D, _ = moving_square
    dec = rdmd(D, SketchConfig(rank=6, oversampling=2, subspace_iters=1, seed=3))
    keys = np.abs(np.log(dec.eigenvalues))
    assert np.all(np.diff(keys) >= -1e-12)


def test_rdmd_shift_moves_only_static_mode(planted_three_mode):
    base = planted_three_mode.snapshots
    shifted = SnapshotMatrix(
        np.clip(base.data + 0.1, 0, 1), base.frame_height, base.frame_width
    )
    cfg = SketchConfig(rank=3, oversampling=2, subspace_iters=1, seed=4)
    lam_base = rdmd(base, cfg).eigenvalues
    lam_shift = rdmd(shifted, cfg).eigenvalues
    nonunit_base = lam_base[np.abs(lam_base - 1) > 1e-6]
    nonunit_shift = lam_shift[np.abs(lam_shift - 1) > 1e-6]
    assert hausdorff_distance(nonunit_base, nonunit_shift) <= 1e-6


# ---------------------------------------------------------------- reconstruction

def test_reconstruct_round_trip(planted_three_mode):
    D = planted_three_mode.snapshots
    dec = deterministic_dmd(D, rank=3, anchor=FIRST_FRAME)
    approx = np.matmul(*background_factors(dec, range(dec.rank)))
    assert np.linalg.norm(D.data - approx.real) <= 1e-6 * np.linalg.norm(D.data)


def test_reconstruct_empty_set_is_zero(planted_three_mode):
    dec = deterministic_dmd(planted_three_mode.snapshots, rank=3)
    out = np.matmul(*background_factors(dec, mode_indices=()))
    assert out.shape == (dec.n_pixels, dec.n_frames)
    assert not out.any()


def test_reconstruct_static_mode_columns_identical():
    D = static_video(0.7)
    dec = deterministic_dmd(D, rank=1)
    out = np.matmul(*background_factors(dec, mode_indices=[0]))
    assert np.allclose(out, out[:, :1], atol=1e-10)


def test_reconstruct_bounds_checks(planted_three_mode):
    dec = deterministic_dmd(planted_three_mode.snapshots, rank=3)
    with pytest.raises(ValueError):
        background_factors(dec, mode_indices=[3])


def test_reconstruction_error_bounded_by_svd_tail(planted_three_mode):
    # The tail+fit bound presumes the data follow linear dynamics and the
    # amplitudes anchor an actual frame, so it is asserted on a noisy linear
    # system with the first-frame anchor. A moving object breaks the premise.
    rng = np.random.default_rng(0)
    base = planted_three_mode.snapshots
    noisy = SnapshotMatrix(
        np.clip(base.data + rng.normal(0.0, 0.01, base.data.shape), 0, 1),
        base.frame_height,
        base.frame_width,
    )
    dec = deterministic_dmd(noisy, rank=3, anchor=FIRST_FRAME)
    X = noisy.data[:, :-1]
    factors = deterministic_svd(X, 3)
    svd_tail = np.linalg.norm(X - factors.reconstruct())
    fit_residual = np.linalg.norm(dec.modes @ dec.amplitudes - X[:, 0])
    gap = np.linalg.norm(X - np.matmul(*background_factors(dec, range(dec.rank)))[:, :-1].real)
    assert gap <= 1.1 * (svd_tail + fit_residual) + 1e-9
