"""Release gate: one check per shipped guarantee, each printing PASS or FAIL.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
Every check states its measured numbers so a failure is diagnosable from the
log alone. Thresholds are part of the contract; do not loosen them to make
a red check green.
"""

import os
import time

import numpy as np

from dmdmotion import background as bg
from dmdmotion import evaluation as ev
from dmdmotion.dmd import FIRST_FRAME, rdmd
from dmdmotion.linalg import SketchConfig, rsvd
from dmdmotion.pipeline import RunConfig, run_bgsub
from dmdmotion.synthetic import (
    MovingRect,
    SyntheticSpec,
    decaying_spectrum_matrix,
    generate_synthetic,
)
from helpers import (
    deterministic_dmd,
    deterministic_svd,
    hausdorff_distance,
    planted_linear_snapshots,
    rsvd_error_bound,
    threshold_mask,
)


def check(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{name}: {detail}"


SQUARE_SPEC = SyntheticSpec(
    frame_height=64,
    frame_width=64,
    n_frames=200,
    noise_sigma=0.05,
    objects=(MovingRect(26.0, 4.0, 10, 10, 0.8, (0.0, 0.25)),),
    seed=123,
)

_cache: dict = {}


def square_report():
    if "square" not in _cache:
        _cache["square"] = run_bgsub(RunConfig(synthetic=SQUARE_SPEC, seed=5))
    return _cache["square"]


def test_rsvd_oracle():
    t0 = time.perf_counter()
    spectrum = 2.0 ** -np.arange(1, 101)
    worst = 0.0
    for seed in range(20):
        A, _ = decaying_spectrum_matrix(200, 100, spectrum, seed=seed)
        cfg = SketchConfig(rank=10, oversampling=5, subspace_iters=2, seed=seed)
        err_rnd = np.linalg.norm(A - rsvd(A, cfg).reconstruct())
        err_det = np.linalg.norm(A - deterministic_svd(A, 10).reconstruct())
        worst = max(worst, err_rnd / err_det)
    exact_worst = 0.0
    for seed in range(3):
        A, _ = decaying_spectrum_matrix(200, 100, spectrum[:8], seed=100 + seed)
        cfg = SketchConfig(rank=10, oversampling=5, subspace_iters=2, seed=seed)
        rel = np.linalg.norm(A - rsvd(A, cfg).reconstruct()) / np.linalg.norm(A)
        exact_worst = max(exact_worst, rel)
    elapsed = time.perf_counter() - t0
    check(
        "rsvd-oracle",
        worst <= 1.5 and exact_worst <= 1e-6 and elapsed < 5.0,
        f"worst error ratio {worst:.4f} (<= 1.5), exact-rank residual "
        f"{exact_worst:.2e} (<= 1e-6), {elapsed:.2f}s (< 5s)",
    )


def test_error_bound_formula():
    hand = float(1.0 + 4.0 * np.sqrt(200.0))
    got = rsvd_error_bound(1.0, 100, 100, k=2, q=0)
    exact = abs(got - hand) <= 1e-12 * hand
    bounds = [rsvd_error_bound(1.0, 100, 100, k=2, q=q) for q in range(6)]
    monotone = all(a >= b - 1e-15 for a, b in zip(bounds, bounds[1:]))
    check(
        "error-bound-formula",
        exact and monotone,
        f"hand point {got!r} vs {hand!r}, q-sequence "
        + " >= ".join(f"{b:.4f}" for b in bounds[:4]),
    )


def test_spectrum_recovery():
    lam = np.array(
        [1.0, 0.95 * np.exp(0.3j), 0.95 * np.exp(-0.3j)], dtype=np.complex128
    )
    planted = planted_linear_snapshots(
        lam, frame_shape=(64, 64), n_frames=150, amplitudes=[1.0, 0.5, 0.5], seed=17
    )
    dec = rdmd(
        planted.snapshots,
        SketchConfig(rank=3, oversampling=2, subspace_iters=1, seed=29),
    )
    det = deterministic_dmd(planted.snapshots, 3)
    planted_dist = hausdorff_distance(dec.eigenvalues, lam)
    oracle_dist = hausdorff_distance(dec.eigenvalues, det.eigenvalues)
    check(
        "spectrum-recovery",
        planted_dist <= 1e-6 and oracle_dist <= 1e-4,
        f"planted set distance {planted_dist:.2e} (<= 1e-6), "
        f"vs deterministic {oracle_dist:.2e} (<= 1e-4)",
    )


def test_static_background():
    static = SyntheticSpec(frame_height=64, frame_width=64, n_frames=120, seed=31)
    results = []
    for tau in (1e-6, 0.25):
        report = run_bgsub(
            RunConfig(synthetic=static, tau=tau, chunk_length=120, seed=7)
        )
        c = report.chunks[0]
        results.append(
            c.retained_rank == 1
            and abs(c.omega[0]) <= 1e-10
            and abs(c.eigenvalues[0] - 1.0) <= 1e-10
            and not report.masks.masks.any()
            and report.summary["specificity"] == 1.0
        )
    report = run_bgsub(RunConfig(synthetic=static, tau=1e-6, chunk_length=120, seed=7))
    check(
        "static-background",
        all(results),
        f"rank {report.chunks[0].retained_rank} (== 1), "
        f"|omega| {abs(report.chunks[0].omega[0]):.2e} (<= 1e-10), "
        f"masks empty at tau 1e-6 and 0.25, specificity "
        f"{report.summary['specificity']} (== 1)",
    )


def test_end_to_end_detection():
    t0 = time.perf_counter()
    s = square_report().summary
    texture = SyntheticSpec(
        frame_height=64,
        frame_width=64,
        n_frames=200,
        base_level=0.5,
        texture_amplitude=0.2,
        texture_period=40,
        noise_sigma=0.01,
        objects=(MovingRect(26.0, 1.0, 6, 6, 1.0, (0.0, 3.0)),),
        seed=321,
    )
    D, truth = generate_synthetic(texture)
    dec = rdmd(
        D,
        SketchConfig(rank=11, oversampling=2, subspace_iters=1, seed=9),
        anchor=FIRST_FRAME,
    )
    fm = bg.fourier_modes(dec)
    fp = {}
    for n_bg in (3, 1):
        part = bg.partition_modes(fm, n_bg)
        S = bg.factor_residual(D, *bg.background_factors(dec, part))
        fp[n_bg] = ev.confusion(threshold_mask(S, 0.12), truth).fp
    elapsed = time.perf_counter() - t0
    check(
        "end-to-end-detection",
        s["best_f_raw"] >= 0.9 and s["auc"] >= 0.95 and fp[3] < fp[1] and elapsed < 30.0,
        f"best F {s['best_f_raw']:.4f} (>= 0.9), AUC {s['auc']:.4f} (>= 0.95), "
        f"texture false positives {fp[3]} with 3 background modes vs {fp[1]} "
        f"with the zero mode only (strictly fewer), {elapsed:.1f}s (< 30s)",
    )


def test_median_filter_improvement():
    s = square_report().summary
    # same comparison at one shared threshold: filter the raw-optimal masks
    D, truth = generate_synthetic(SQUARE_SPEC)
    dec = rdmd(D, SketchConfig(rank=11, oversampling=2, subspace_iters=1, seed=5))
    part = bg.partition_modes(bg.fourier_modes(dec), 3)
    S = bg.factor_residual(D, *bg.background_factors(dec, part))
    raw = threshold_mask(S, s["best_tau_raw"])
    f_filtered_same_tau = ev.rates(ev.confusion(bg.filter_masks(raw, 3), truth))["f_measure"]
    check(
        "median-filter-improvement",
        s["best_f_filtered"] >= s["best_f_raw"]
        and f_filtered_same_tau >= s["best_f_raw"],
        f"filtered best F {s['best_f_filtered']:.4f} >= raw best F "
        f"{s['best_f_raw']:.4f}; at the raw-optimal threshold filtering gives "
        f"{f_filtered_same_tau:.4f}",
    )


def test_metric_fidelity():
    # recall 63909 / 78900 = 0.810 and precision 63909 / 81000 = 0.789
    f = ev.rates(ev.ConfusionCounts(tp=63909, fp=17091, tn=0, fn=14991))["f_measure"]
    rng = np.random.default_rng(7)
    n = 100_000
    S = bg.ResidualSequence(rng.uniform(size=n).reshape(n, 1), n, 1)
    truth = bg.ForegroundMaskSequence(
        (rng.uniform(size=n) < 0.5).reshape(1, n, 1), tau=None
    )
    taus = ev.tau_grid(float(S.values.max()))
    auc = ev.RocCurve.from_counts(taus, ev.sweep_counts(S, truth, taus)[0]).auc
    check(
        "metric-fidelity",
        abs(f - 0.799) <= 1e-3 and abs(auc - 0.5) <= 0.02,
        f"F(0.810, 0.789) = {f:.4f} (0.799 +/- 0.001), "
        f"random-residual AUC {auc:.4f} (0.5 +/- 0.02)",
    )


def _median_seconds(fn, repeats=3):
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def test_svd_speed_direction():
    spectrum = 1.0 / np.arange(1, 501) ** 2
    A, _ = decaying_spectrum_matrix(2000, 500, spectrum, seed=3)
    cfg = SketchConfig(rank=20, oversampling=2, subspace_iters=1, seed=3)
    t_det = _median_seconds(lambda: deterministic_svd(A, 20))
    t_rnd = _median_seconds(lambda: rsvd(A, cfg))
    check(
        "svd-speed-direction",
        t_rnd < t_det,
        f"randomized {t_rnd * 1e3:.1f}ms < deterministic {t_det * 1e3:.1f}ms "
        f"at 2000x500 rank 20",
    )


def test_determinism(tmp_path):
    spec = SyntheticSpec(
        frame_height=32,
        frame_width=32,
        n_frames=80,
        noise_sigma=0.05,
        objects=(MovingRect(12.0, 2.0, 6, 6, 0.9, (0.0, 0.3)),),
        seed=77,
    )

    def run(sub):
        out = tmp_path / sub
        run_bgsub(
            RunConfig(
                synthetic=spec,
                k=5,
                chunk_length=40,
                seed=19,
                output_dir=str(out),
                save_residuals=True,
            )
        )
        return out

    a, b = run("a"), run("b")
    compared = 0
    mismatched = []
    for root, _, files in os.walk(a):
        for name in files:
            if name == "timings.csv":  # wall-clock, not a seeded output
                continue
            rel = os.path.relpath(os.path.join(root, name), a)
            compared += 1
            if (a / rel).read_bytes() != (b / rel).read_bytes():
                mismatched.append(rel)
    check(
        "determinism",
        compared > 0 and not mismatched,
        f"{compared} serialized files bit-identical across reruns"
        + (f"; MISMATCH {mismatched}" if mismatched else ""),
    )
