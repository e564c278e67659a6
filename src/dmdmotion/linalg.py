"""Dense-matrix kernel: randomized low-rank SVD.

The randomized path follows the two-stage sketch-and-project scheme: a
Gaussian sketch captures an approximate range, optional subspace iterations
sharpen it against slowly decaying spectra, and a small deterministic SVD on
the projected matrix recovers the factors.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from numpy.linalg import lapack_lite

__all__ = [
    "SvdFactors",
    "SketchConfig",
    "rsvd",
]


def _all_finite(A: np.ndarray) -> bool:
    """Whether every entry of a real or complex array is finite.

    min and max propagate NaN, so two reductions check finiteness without an
    entry-sized temporary. A complex array is reduced through its float view,
    or through its real and imaginary parts when it has none.
    """
    if A.size == 0:
        return True
    if np.iscomplexobj(A):
        parts = (A.view(A.real.dtype),) if A.flags.c_contiguous else (A.real, A.imag)
    else:
        parts = (A,)
    return all(np.isfinite(p.min()) and np.isfinite(p.max()) for p in parts)


def _unscanned(cls, *values):
    """cls(*values) with its shape checked but its entries not scanned.

    For entries valid by construction, such as frames divided by a maxval
    that their rasters were checked against, the residual of checked
    background factors, or the orthonormal factors of an SVD. The public
    constructors scan every entry.
    """
    obj = object.__new__(cls)
    for field, value in zip(fields(cls), values):
        object.__setattr__(obj, field.name, value)
    obj._check_shape()
    return obj


def _is_integer(value) -> bool:
    """Whether value is a Python or numpy integer; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_integers(obj, names) -> None:
    """ValueError naming the first of obj's fields names that is not an integer."""
    for name in names:
        value = getattr(obj, name)
        if not _is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _as_matrix(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError(f"A must be 2-dimensional, got ndim={A.ndim}")
    if A.shape[0] < 1 or A.shape[1] < 1:
        raise ValueError("A must have at least one row and one column")
    if not _all_finite(A):
        raise ValueError("A contains non-finite entries")
    return A


@dataclass(frozen=True)
class SvdFactors:
    """Truncated rank-k factors U diag(s) V^T with orthonormal U, V columns."""

    U: np.ndarray                # (m, k)
    singular_values: np.ndarray  # (k,), nonincreasing, nonnegative
    V: np.ndarray                # (n, k)

    def __post_init__(self) -> None:
        self._check_shape()
        eye = np.eye(self.rank)
        if np.max(np.abs(self.U.T @ self.U - eye)) > 1e-10:
            raise ValueError("U columns are not orthonormal")
        if np.max(np.abs(self.V.T @ self.V - eye)) > 1e-10:
            raise ValueError("V columns are not orthonormal")

    def _check_shape(self) -> None:
        # The k singular values are checked here too; the orthonormality of
        # U and V is the check that _unscanned skips.
        s = self.singular_values
        k = s.shape[0]
        if self.U.ndim != 2 or self.V.ndim != 2 or self.U.shape[1] != k or self.V.shape[1] != k:
            raise ValueError("factor shapes disagree on the rank")
        if np.any(s < 0.0) or np.any(np.diff(s) > 0.0):
            raise ValueError("singular values must be nonnegative and nonincreasing")

    @property
    def rank(self) -> int:
        return self.singular_values.shape[0]

    def reconstruct(self) -> np.ndarray:
        """Dense rank-k approximation U diag(s) V^T."""
        return (self.U * self.singular_values) @ self.V.T


@dataclass(frozen=True)
class SketchConfig:
    """Parameters of the randomized sketch.

    rank: number of factors returned.
    oversampling: extra sketch columns beyond rank (raises the probability of
        capturing the true range).
    subspace_iters: alternating re-orthonormalized passes with the matrix and
        its transpose, sharpening the sketch on slowly decaying spectra.
    seed: seed of the Gaussian sketch; equal seeds give equal factors.
    """

    rank: int
    oversampling: int = 2
    subspace_iters: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        _check_integers(self, ("rank", "oversampling", "subspace_iters", "seed"))
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.oversampling < 0:
            raise ValueError(f"oversampling must be >= 0, got {self.oversampling}")
        if self.subspace_iters < 0:
            raise ValueError(f"subspace_iters must be >= 0, got {self.subspace_iters}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _fix_signs(U: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Deterministic sign convention: largest-magnitude entry of each U column
    # is made positive; V is flipped to match so the product is unchanged.
    # The first row that attains its column's maximum, as np.argmax(A, axis=0)
    # finds it, without that strided argmax over the floats.
    A = np.abs(U)
    idx = np.argmax(A == A.max(axis=0), axis=0)
    signs = np.sign(U[idx, np.arange(U.shape[1])])
    signs[signs == 0] = 1.0
    return U * signs, V * signs


def _lapack(routine, *args) -> None:
    """Call a lapack_lite routine whose last arguments are work, lwork, info.

    A workspace query comes first; the call then gets the larger of the
    optimal size and the column count args[1], as np.linalg.qr sizes it.
    """

    def call(work: np.ndarray, lwork: int) -> None:
        info = routine(*args, work, lwork, 0)["info"]
        if info != 0:
            raise np.linalg.LinAlgError(f"{routine.__name__} returns {info}")

    query = np.empty(1)
    call(query, -1)
    lwork = max(1, args[1], int(query[0]))
    call(np.empty(lwork), lwork)


# Rows of the tall matrix per strip of _orthonormal_columns' transposed copy.
_QR_STRIP = 2048


def _orthonormal_columns(Y: np.ndarray) -> np.ndarray:
    """Q of the thin QR of a finite float64 (m, l) matrix, m >= l; C-contiguous.

    Byte-equal to np.linalg.qr(Y)[0]: the same dgeqrf and dorgqr calls, with
    one copy into Fortran layout and one out, where the wrapper adds a cast
    copy and two transposed copies of fresh temporaries. The copy in is made
    in strips of _QR_STRIP rows of Y, whose transposes stay in cache.
    """
    m, l = Y.shape
    a = np.empty((l, m))
    for start in range(0, m, _QR_STRIP):
        a[:, start : start + _QR_STRIP] = Y[start : start + _QR_STRIP].T
    tau = np.empty(l)
    _lapack(lapack_lite.dgeqrf, m, l, a, m, tau)
    _lapack(lapack_lite.dorgqr, m, l, l, a, m, tau)
    return np.ascontiguousarray(a.T)


def _range_finder(A: np.ndarray, l: int, q: int, seed: int) -> np.ndarray:
    """Orthonormal (m, l) basis Q approximately spanning the range of A.

    Starts from a Gaussian sketch A @ Omega. Each of the q iterations applies
    A^T then A with a thin QR after every application (subspace iteration;
    plain power iteration loses the small singular directions to roundoff).
    A must be finite with 1 <= l <= min(A.shape) and q >= 0, as rsvd ensures.
    """
    omega = np.random.default_rng(seed).standard_normal((A.shape[1], l))
    Q = _orthonormal_columns(A @ omega)
    for _ in range(q):
        Z = _orthonormal_columns(A.T @ Q)
        Q = _orthonormal_columns(A @ Z)
    return Q


def rsvd(A: np.ndarray, cfg: SketchConfig, check_finite: bool = True) -> SvdFactors:
    """Randomized truncated SVD: sketch, project, small SVD, recover, trim.

    Computes rank + oversampling factors internally and returns the leading
    `cfg.rank`. Two passes over A plus two per subspace iteration.
    check_finite False skips the scan of A for non-finite entries, for a
    float64 A whose entries were checked when it was built (the frames of a
    SnapshotMatrix); a non-finite entry then gives undefined factors.
    """
    if check_finite:
        A = _as_matrix(A)
    m, n = A.shape
    l = cfg.rank + cfg.oversampling
    if l > min(m, n):
        raise ValueError(
            f"rank + oversampling = {l} exceeds min(m, n) = {min(m, n)} for a {m}x{n} matrix"
        )
    Q = _range_finder(A, l, cfg.subspace_iters, cfg.seed)
    B = Q.T @ A
    Ub, s, Vt = np.linalg.svd(B, full_matrices=False)
    k = cfg.rank
    U, V = _fix_signs(Q @ Ub[:, :k], Vt[:k, :].T)
    return _unscanned(SvdFactors, U, s[:k].copy(), V)
