"""Wall-clock and accuracy of the randomized SVD against a full SVD.

Times np.linalg.svd and rsvd (RANK factors, oversampling 2, q subspace
iterations for each q of QS) on one SHAPE matrix whose singular values decay
as 1 / i**2, so the error columns respond to q. Times are medians of REPEATS
calls after one warm-up; errors are the relative Frobenius errors of the
rank-RANK reconstructions. Writes one CSV row per q.

Usage: python scripts/svd_experiment.py --out svd.csv
"""

import argparse
import csv
import sys
import time

import numpy as np

from dmdmotion.linalg import SketchConfig, rsvd
from dmdmotion.synthetic import decaying_spectrum_matrix

SHAPE = (2000, 500)
RANK = 20
QS = (0, 1, 2)
REPEATS = 5
SEED = 0
COLUMNS = ("rows", "cols", "k", "q", "deterministic_seconds", "randomized_seconds",
           "deterministic_error", "randomized_error")


def median_seconds(fn) -> tuple[float, object]:
    """The median wall time of REPEATS calls of fn after one warm-up, and fn's result."""
    result = fn()
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times)), result


def run() -> list[tuple]:
    """One row of COLUMNS per q."""
    m, n = SHAPE
    A, _ = decaying_spectrum_matrix(m, n, 1.0 / np.arange(1, min(m, n) + 1) ** 2, SEED)
    norm = np.linalg.norm(A)
    t_det, (U, s, Vt) = median_seconds(lambda: np.linalg.svd(A, full_matrices=False))
    err_det = float(np.linalg.norm(A - (U[:, :RANK] * s[:RANK]) @ Vt[:RANK]) / norm)
    rows = []
    for q in QS:
        sketch = SketchConfig(rank=RANK, oversampling=2, subspace_iters=q, seed=SEED)
        t_rnd, factors = median_seconds(lambda: rsvd(A, sketch))
        err_rnd = float(np.linalg.norm(A - factors.reconstruct()) / norm)
        rows.append((m, n, RANK, q, t_det, t_rnd, err_det, err_rnd))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="CSV path")
    args = parser.parse_args(argv)

    rows = run()
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        writer.writerows(rows)
    for m, n, k, q, t_det, t_rnd, err_det, err_rnd in rows:
        print(f"{m}x{n} k={k} q={q}: deterministic {t_det:.4f}s (err {err_det:.2e}), "
              f"randomized {t_rnd:.4f}s (err {err_rnd:.2e})")
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
