"""Randomized SVD kernel against its deterministic oracle."""

import tracemalloc

import numpy as np
import pytest
from numpy.linalg import lapack_lite
from hypothesis import given, settings
from hypothesis import strategies as st

from dmdmotion import linalg
from dmdmotion.linalg import (
    SketchConfig,
    SvdFactors,
    _all_finite,
    _as_matrix,
    _fix_signs,
    _orthonormal_columns,
    _range_finder,
    rsvd,
)
from dmdmotion.synthetic import decaying_spectrum_matrix

from helpers import deterministic_svd, rsvd_error_bound


# ---------------------------------------------------------------- deterministic_svd

def test_det_svd_diagonal():
    A = np.diag([3.0, 2.0, 1.0])
    f = deterministic_svd(A, 3)
    assert np.allclose(f.singular_values, [3.0, 2.0, 1.0])
    # U and V are the identity up to per-column sign, and the sign convention
    # makes the dominant entry positive, so they are exactly the identity here.
    assert np.allclose(f.U, np.eye(3), atol=1e-12)
    assert np.allclose(f.V, np.eye(3), atol=1e-12)


def test_det_svd_rank_one_outer_product():
    u = np.array([3.0, 4.0]) / 5.0
    v = np.array([1.0, 2.0, 2.0]) / 3.0
    f = deterministic_svd(np.outer(u, v), 1)
    assert abs(f.singular_values[0] - 1.0) < 1e-12
    assert np.linalg.norm(np.outer(u, v) - f.reconstruct()) < 1e-12


def test_det_svd_full_rank_reconstruction():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((8, 5))
    f = deterministic_svd(A, 5)
    assert np.linalg.norm(A - f.reconstruct()) <= 1e-10


def test_det_svd_rejects_oversized_rank():
    with pytest.raises(ValueError):
        deterministic_svd(np.eye(3), 4)


def test_det_svd_rejects_nonfinite():
    A = np.eye(3)
    A[0, 0] = np.nan
    with pytest.raises(ValueError):
        deterministic_svd(A, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_as_matrix_rejects_each_non_finite_value(bad):
    A = np.ones((3, 4))
    A[1, 2] = bad
    with pytest.raises(ValueError, match="^A contains non-finite entries$"):
        _as_matrix(A)


def test_as_matrix_check_allocates_no_per_entry_array():
    A = np.random.default_rng(0).uniform(size=(2000, 500))
    tracemalloc.start()
    try:
        _as_matrix(A)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < A.size


# ---------------------------------------------------------------- thin QR
# _orthonormal_columns calls LAPACK's dgeqrf and dorgqr through
# numpy.linalg.lapack_lite, as np.linalg.qr does under its wrapper.

def _gaussian(rows, cols, seed=0):
    return np.random.default_rng(seed).standard_normal((rows, cols))


def _static_sketch():
    # A static chunk repeats one frame, so its sketch has rank 1.
    frame = np.random.default_rng(1).uniform(size=(4096, 1))
    return np.repeat(frame, 99, axis=1) @ _gaussian(99, 13)


QR_INPUTS = {
    "tall-76800x22": lambda: _gaussian(76800, 22),
    "tall-4096x13": lambda: _gaussian(4096, 13),
    # dgeqrf and dorgqr switch to their blocked code above 32 columns.
    "blocked-l33": lambda: _gaussian(300, 33),
    "blocked-l64": lambda: _gaussian(400, 64),
    "blocked-l100": lambda: _gaussian(500, 100),
    "square": lambda: _gaussian(40, 40),
    "one-column": lambda: _gaussian(50, 1),
    "all-zero": lambda: np.zeros((4096, 13)),
    "rank-one": _static_sketch,
    "duplicated-columns": lambda: _gaussian(1000, 6)[:, [0, 1, 2, 3, 4, 5, 0, 3, 3, 5]],
    "fortran-ordered": lambda: np.asfortranarray(_gaussian(2000, 22)),
    "strided-view": lambda: _gaussian(4000, 44)[::2, 1::2],
    # The copy into Fortran layout goes in strips of 2048 rows: one short of
    # a strip, exactly one, one row into the second, at 1 and 40 columns.
    "strip-2047x1": lambda: _gaussian(2047, 1),
    "strip-2048x1": lambda: _gaussian(2048, 1),
    "strip-2049x1": lambda: _gaussian(2049, 1),
    "strip-2047x40": lambda: _gaussian(2047, 40),
    "strip-2048x40": lambda: _gaussian(2048, 40),
    "strip-4097x40": lambda: _gaussian(4097, 40),
}


@pytest.mark.parametrize("name", QR_INPUTS)
def test_orthonormal_columns_is_byte_equal_to_numpy_qr(name):
    Y = QR_INPUTS[name]()
    before = Y.copy()
    Q = _orthonormal_columns(Y)
    reference = np.linalg.qr(Y)[0]
    assert Q.shape == reference.shape == Y.shape
    assert Q.tobytes() == reference.tobytes()
    assert Q.flags.c_contiguous
    assert Y.tobytes() == before.tobytes()


@pytest.mark.parametrize("name", QR_INPUTS)
def test_orthonormal_columns_in_short_strips_is_byte_equal_to_numpy_qr(monkeypatch, name):
    # Strips of 7 rows, so that every input but the one-row ones ends on a
    # short strip.
    monkeypatch.setattr(linalg, "_QR_STRIP", 7)
    Y = QR_INPUTS[name]()
    assert _orthonormal_columns(Y).tobytes() == np.linalg.qr(Y)[0].tobytes()


@pytest.mark.parametrize("seed", range(5))
def test_fix_signs_takes_the_first_of_tied_maxima(seed):
    # Entries of -3/3 to 3/3 tie within and across signs in every column;
    # the last column is all zeros, whose sign stays +1. The flip follows
    # the first row of largest magnitude, np.argmax(np.abs(U), axis=0).
    rng = np.random.default_rng(seed)
    U = rng.integers(-3, 4, size=(60, 8)) / 3
    U[:, -1] = 0.0
    V = rng.standard_normal((9, 8))
    idx = np.argmax(np.abs(U), axis=0)
    signs = np.sign(U[idx, np.arange(8)])
    signs[signs == 0] = 1.0
    fixed_U, fixed_V = _fix_signs(U, V)
    assert fixed_U.tobytes() == (U * signs).tobytes()
    assert fixed_V.tobytes() == (V * signs).tobytes()


@pytest.mark.parametrize("routine", ["dgeqrf", "dorgqr"])
@pytest.mark.parametrize("query", [True, False])
def test_orthonormal_columns_raises_on_a_lapack_failure(monkeypatch, routine, query):
    # A nonzero info from the workspace query or from the factorization is a
    # LinAlgError, which fails a chunk on its data.
    real = getattr(lapack_lite, routine)

    def failing(*args):
        result = real(*args)
        return {**result, "info": 1} if (args[-2] == -1) == query else result

    failing.__name__ = routine
    monkeypatch.setattr(lapack_lite, routine, failing)
    with pytest.raises(np.linalg.LinAlgError, match=f"^{routine} returns 1$"):
        _orthonormal_columns(_gaussian(100, 5))


# ---------------------------------------------------------------- range finder
# rsvd's private sketch step; SketchConfig and rsvd check its preconditions.

def test_range_finder_captures_exact_rank():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((20, 2)) @ rng.standard_normal((2, 15))
    Q = _range_finder(A, l=2, q=0, seed=0)
    assert np.linalg.norm(A - Q @ (Q.T @ A)) <= 1e-8


def test_range_finder_identity_full_range():
    Q = _range_finder(np.eye(4), l=4, q=0, seed=5)
    assert np.max(np.abs(Q @ Q.T - np.eye(4))) <= 1e-10


def test_range_finder_noisy_low_rank_vs_oracle():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((60, 5)) @ rng.standard_normal((5, 40))
    A = A + 1e-3 * rng.standard_normal(A.shape)
    Q = _range_finder(A, l=10, q=2, seed=1)
    err = np.linalg.norm(A - Q @ (Q.T @ A))
    s = np.linalg.svd(A, compute_uv=False)
    optimal_tail = np.sqrt((s[10:] ** 2).sum())
    assert err <= 10.0 * optimal_tail


def test_range_finder_rejects_large_l():
    # The sketch size l = rank + oversampling may reach min(m, n), not pass it.
    assert rsvd(np.eye(4), SketchConfig(rank=3, oversampling=1, subspace_iters=0)).rank == 3
    with pytest.raises(ValueError, match="exceeds min"):
        rsvd(np.eye(4), SketchConfig(rank=4, oversampling=1, subspace_iters=0))


# ---------------------------------------------------------------- rsvd

def test_rsvd_exact_rank_spectrum():
    A = np.zeros((6, 5))
    A[:5, :5] = np.diag([5.0, 4.0, 3.0, 0.0, 0.0])
    f = rsvd(A, SketchConfig(rank=3, oversampling=2, subspace_iters=0, seed=2))
    assert np.allclose(f.singular_values, [5.0, 4.0, 3.0], atol=1e-8)


def test_rsvd_oracle_dominance_worst_case_over_seeds():
    spectrum = 2.0 ** -np.arange(1, 101, dtype=np.float64)
    A, _ = decaying_spectrum_matrix(200, 100, spectrum, seed=0)
    det = deterministic_svd(A, 10)
    det_err = np.linalg.norm(A - det.reconstruct())
    worst = 0.0
    for seed in range(20):
        f = rsvd(A, SketchConfig(rank=10, oversampling=2, subspace_iters=1, seed=seed))
        worst = max(worst, np.linalg.norm(A - f.reconstruct()))
    assert worst <= 1.5 * det_err


def test_rsvd_more_iterations_help_on_average():
    spectrum = 1.0 / np.arange(1, 61, dtype=np.float64)
    A, _ = decaying_spectrum_matrix(80, 60, spectrum, seed=4)
    errs = {q: [] for q in (0, 2)}
    for q in errs:
        for seed in range(20):
            f = rsvd(A, SketchConfig(rank=8, oversampling=2, subspace_iters=q, seed=seed))
            errs[q].append(np.linalg.norm(A - f.reconstruct()))
    assert np.mean(errs[2]) <= np.mean(errs[0])


def test_rsvd_rejects_oversized_sketch():
    with pytest.raises(ValueError):
        rsvd(np.eye(4), SketchConfig(rank=3, oversampling=2, subspace_iters=0, seed=0))


@pytest.mark.parametrize("A, reason", [
    (np.ones(4), "A must be 2-dimensional, got ndim=1"),
    (np.ones((4, 3, 2)), "A must be 2-dimensional, got ndim=3"),
    (np.ones((0, 3)), "A must have at least one row and one column"),
])
def test_rsvd_rejects_an_input_that_is_not_a_matrix(A, reason):
    with pytest.raises(ValueError, match=f"^{reason}$"):
        rsvd(A, SketchConfig(rank=1, oversampling=0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rsvd_rejects_each_non_finite_value(bad):
    # rdmd skips this scan (check_finite=False) for frames checked when they
    # were loaded; by default rsvd keeps it.
    A = np.ones((6, 5))
    A[2, 3] = bad
    with pytest.raises(ValueError, match="^A contains non-finite entries$"):
        rsvd(A, SketchConfig(rank=2, oversampling=1, subspace_iters=1, seed=0))


def test_rsvd_without_the_finite_check_gives_the_same_bytes():
    # A strided view, as rdmd passes a chunk's left sequence.
    A, _ = decaying_spectrum_matrix(60, 41, 1.0 / np.arange(1, 42), seed=3)
    cfg = SketchConfig(rank=4, oversampling=2, subspace_iters=1, seed=5)
    checked, unchecked = rsvd(A[:, :-1], cfg), rsvd(A[:, :-1], cfg, check_finite=False)
    for name in ("U", "singular_values", "V"):
        assert getattr(checked, name).tobytes() == getattr(unchecked, name).tobytes()


def test_rsvd_determinism_bit_identical():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((30, 20))
    cfg = SketchConfig(rank=5, oversampling=3, subspace_iters=1, seed=123)
    f1 = rsvd(A, cfg)
    f2 = rsvd(A, cfg)
    assert np.array_equal(f1.U, f2.U)
    assert np.array_equal(f1.singular_values, f2.singular_values)
    assert np.array_equal(f1.V, f2.V)


@settings(deadline=None, max_examples=25)
@given(
    m=st.integers(6, 40),
    n=st.integers(6, 40),
    k=st.integers(1, 5),
    q=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_rsvd_factor_orthonormality(m, n, k, q, seed):
    A = _gaussian(m, n, seed=seed % 1000)
    k = min(k, min(m, n) - 1)
    f = rsvd(A, SketchConfig(rank=k, oversampling=1, subspace_iters=q, seed=seed))
    assert np.max(np.abs(f.U.T @ f.U - np.eye(k))) <= 1e-8
    assert np.max(np.abs(f.V.T @ f.V - np.eye(k))) <= 1e-8
    assert np.all(np.diff(f.singular_values) <= 1e-12)


@settings(deadline=None, max_examples=20)
@given(p=st.integers(0, 4), q=st.integers(0, 2), seed=st.integers(0, 100))
def test_rsvd_exact_rank_recovery_any_p_q(p, q, seed):
    rng = np.random.default_rng(17)
    A = rng.standard_normal((25, 4)) @ rng.standard_normal((4, 18))
    k = 4
    if k + p > 18:
        p = 18 - k
    f = rsvd(A, SketchConfig(rank=k, oversampling=p, subspace_iters=q, seed=seed))
    assert np.linalg.norm(A - f.reconstruct()) <= 1e-6 * np.linalg.norm(A)


# ---------------------------------------------------------------- error bound

def test_error_bound_zero_tail():
    assert rsvd_error_bound(0.0, 100, 100, k=2, q=0) == 0.0


def test_error_bound_hand_point():
    # sigma * (1 + 4*sqrt(2*min(m,n)/(k-1)))**(1/(2q+1)) at sigma=1, m=n=100,
    # k=2, q=0 collapses to 1 + 4*sqrt(200).
    expected = 1.0 + 4.0 * np.sqrt(200.0)
    assert abs(rsvd_error_bound(1.0, 100, 100, k=2, q=0) - expected) < 1e-12
    assert abs(expected - 57.568542494923804) < 1e-12


def test_error_bound_monotone_in_q():
    values = [rsvd_error_bound(0.7, 300, 200, k=12, q=q) for q in range(4)]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


SPECTRA = {
    "geometric": 0.8 ** np.arange(120),
    "harmonic": 1.0 / np.arange(1, 121),
    "flat tail": np.where(np.arange(120) < 8, 0.5 ** np.arange(120), 0.01),
}


@pytest.mark.parametrize("spectrum", sorted(SPECTRA))
@pytest.mark.parametrize("k", [5, 10])
@pytest.mark.parametrize("q", [0, 1, 2])
def test_rsvd_spectral_error_is_within_the_hmt_bound(spectrum, k, q):
    # The bound is on the spectral norm; the Frobenius error of the flat
    # tail exceeds it several times over. The worst case here reads about
    # 0.6 of the bound.
    for seed in range(5):
        A, s = decaying_spectrum_matrix(300, 120, SPECTRA[spectrum], seed=seed)
        f = rsvd(A, SketchConfig(rank=k, oversampling=k, subspace_iters=q, seed=seed))
        error = np.linalg.norm(A - f.reconstruct(), 2)
        assert error <= rsvd_error_bound(s[k], 300, 120, k, q)


# ---------------------------------------------------------------- finiteness

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize("layout", ["contiguous", "fortran", "strided"])
def test_lstsq_rejects_non_finite_entries(bad, part, layout):
    # The check that keeps a non-finite mode matrix from the amplitude fit's
    # lstsq finds one bad part of one entry in every layout.
    A = np.ones((6, 4), dtype=np.complex128)
    A[4, 2] = complex(bad, 1.0) if part == "real" else complex(1.0, bad)
    A = {"contiguous": A, "fortran": np.asfortranarray(A), "strided": A[:, ::2]}[layout]
    assert not _all_finite(A)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_an_empty_array_is_finite(dtype):
    assert _all_finite(np.empty((0, 3), dtype=dtype))


@pytest.mark.parametrize("layout", ["contiguous", "fortran", "strided"])
def test_finiteness_check_allocates_under_a_byte_per_entry(layout):
    rng = np.random.default_rng(5)
    A = rng.standard_normal((20000, 40)) + 1j * rng.standard_normal((20000, 40))
    A = {"contiguous": A, "fortran": np.asfortranarray(A), "strided": A[:, ::2]}[layout]
    tracemalloc.start()
    try:
        assert _all_finite(A)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < A.size


# ---------------------------------------------------------------- factors type

def test_svd_factors_validation():
    with pytest.raises(ValueError):
        SvdFactors(
            U=np.ones((4, 2)),  # not orthonormal
            singular_values=np.array([2.0, 1.0]),
            V=np.linalg.qr(np.random.default_rng(0).standard_normal((3, 2)))[0],
        )
    eye = np.eye(3)[:, :2]
    for fields, reason in [
        ({"V": np.ones((3, 2))}, "V columns are not orthonormal"),
        ({"V": np.eye(3)}, "factor shapes disagree on the rank"),
        ({"singular_values": np.array([1.0, 2.0])},
         "singular values must be nonnegative and nonincreasing"),
        ({"singular_values": np.array([1.0, -0.5])},
         "singular values must be nonnegative and nonincreasing"),
    ]:
        with pytest.raises(ValueError, match=f"^{reason}$"):
            SvdFactors(**{"U": eye, "singular_values": np.array([2.0, 1.0]), "V": eye, **fields})


@pytest.mark.parametrize("spectrum", ["geometric", "rank 3", "zero"])
@pytest.mark.parametrize("factorize", ["rsvd", "deterministic_svd"])
def test_returned_factors_are_orthonormal_without_the_constructor_check(
    monkeypatch, factorize, spectrum
):
    # Both build their factors past the public constructor, whose U.T @ U
    # and V.T @ V checks they skip; their factors pass those checks anyway,
    # on a fast-decaying, a rank-deficient and an all-zero matrix.
    values = {"geometric": 2.0 ** -np.arange(30), "rank 3": [3.0, 2.0, 1.0], "zero": [0.0]}
    A, _ = decaying_spectrum_matrix(80, 30, values[spectrum], seed=1)
    checks = []
    monkeypatch.setattr(SvdFactors, "__post_init__", lambda self: checks.append(self))
    if factorize == "rsvd":
        f = rsvd(A, SketchConfig(rank=6, oversampling=4, subspace_iters=2, seed=3))
    else:
        f = deterministic_svd(A, 6)
    assert checks == []
    eye = np.eye(6)
    assert np.max(np.abs(f.U.T @ f.U - eye)) <= 1e-10
    assert np.max(np.abs(f.V.T @ f.V - eye)) <= 1e-10


@pytest.mark.parametrize("name, bad", [
    ("rank", True), ("rank", 2.5), ("oversampling", False), ("subspace_iters", 1.0),
    ("seed", "0"),
])
def test_sketch_config_rejects_a_non_integer_field(name, bad):
    # rank True once ran at rank 1, and rank 2.5 failed inside numpy.
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad!r}$"):
        SketchConfig(**{"rank": 2, name: bad})
    assert SketchConfig(rank=np.int64(2), seed=np.uint32(1)).rank == 2


def test_sketch_config_validation():
    with pytest.raises(ValueError):
        SketchConfig(rank=0)
    with pytest.raises(ValueError):
        SketchConfig(rank=2, oversampling=-1)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SketchConfig(rank=2, seed=-1)
    with pytest.raises(ValueError, match="^subspace_iters must be >= 0, got -1$"):
        SketchConfig(rank=2, subspace_iters=-1)
    cfg = SketchConfig(rank=3, oversampling=2)
    with pytest.raises(ValueError, match=r"rank \+ oversampling = 5 exceeds min\(m, n\) = 4"):
        rsvd(np.eye(4), cfg)
