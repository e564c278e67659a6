"""Pipeline benchmark: time run_bgsub on a seeded workload and check its outputs.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep|fixed|kernel --seed N \
        --seconds S --trace 0|1

The benchmark writes the workload's seeded frames as PGM files into a
temporary directory under .bench_tmp/, runs them through run_bgsub in a
fresh child process (perfbench/runner.py) in a closed loop, one client and
one call at a time, and deletes the inputs at the end. BLAS threads are
capped at min(2, nproc).

--trace 0 measures the end-to-end metrics with tracing off: median warm
run_bgsub seconds over the window (outputs written included), megapixel
frames per second, peak RSS of the child after its first call, the median
of five fresh-interpreter import times, and F of the final masks.
--trace 1 alternates untraced and traced calls and reports per-layer self
seconds, exact call counts and computed output MB; the spans of the last
traced call go to .bench_out/trace-<workload>.json.

Every call counts as a failed run if it raises, has a failed chunk, returns
masks that are not (frames, H, W), scores below the workload's F floor, or
produces mask, report.txt or output-file digests other than the first
call's. The second-to-last stdout line records digests, samples and machine
details; the last line is the result JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = str(min(2, NPROC))
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = BLAS_THREADS
sys.path.insert(0, SRC)

import dmdmotion  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402

from workloads import WORKLOADS, Workload, write_inputs  # noqa: E402

SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150

# Per-layer metrics reported by --trace 1: "<module>.self_s" sums a layer,
# "<module>.<function>.<stat>" is one public function.
LAYER_METRICS = (
    "io_formats.self_s",
    "linalg.self_s",
    "dmd.self_s",
    "background.self_s",
    "evaluation.self_s",
    "pipeline.self_s",
    "background.filter_masks.self_s",
    "background.filter_masks.calls",
    "background.median_filter.self_s",
    "background.median_filter.calls",
    "background.threshold_mask.self_s",
    "background.threshold_mask.calls",
    "background.threshold_mask.out_mb",
    "background.background_model.self_s",
    "background.background_model.out_mb",
    "background.residual.self_s",
    "background.residual.out_mb",
    "evaluation.confusion.self_s",
    "evaluation.confusion.calls",
    "evaluation.best_f_over_thresholds.self_s",
    "evaluation.best_f_over_thresholds.calls",
    "evaluation.roc_curve.self_s",
    "evaluation.roc_curve.calls",
    "evaluation.write_metrics_csv.self_s",
    "evaluation.write_roc_csv.self_s",
    "linalg.rsvd.self_s",
    "linalg.rsvd.calls",
    "linalg.randomized_range_finder.self_s",
    "linalg.eig.self_s",
    "linalg.least_squares.self_s",
    "dmd.rdmd.self_s",
    "dmd.rdmd.calls",
    "dmd.reduced_operator.self_s",
    "dmd.dmd_modes.self_s",
    "dmd.dmd_modes.out_mb",
    "dmd.dmd_amplitudes.self_s",
    "dmd.reconstruct.self_s",
    "io_formats.load_frames.self_s",
    "io_formats.load_frames.out_mb",
    "io_formats.load_pgm.self_s",
    "io_formats.load_pgm.calls",
    "io_formats.load_masks.self_s",
    "io_formats.save_masks.self_s",
    "io_formats.save_pgm.self_s",
    "io_formats.save_pgm.calls",
    "io_formats.save_decomposition.self_s",
    "io_formats.save_matrix.self_s",
    "io_formats.save_matrix.calls",
    "pipeline.run_bgsub.self_s",
    "pipeline.render_report.self_s",
    "trace.overhead_s",
    "trace.spans",
)
UNITS = {"self_s": "s", "overhead_s": "s", "calls": "count", "spans": "count",
         "out_mb": "MB_computed"}


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def setup_seconds() -> list[float]:
    """Wall time for fresh interpreters to import dmdmotion, one per sample."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import dmdmotion"], env=_child_env(),
                       check=True, timeout=CHILD_TIMEOUT_S)
        samples.append(time.perf_counter() - t0)
    return samples


def layer_metrics(layers: dict, overhead_s: float, spans: int) -> dict:
    totals = {}
    for name, entry in layers.items():
        module = name.split(".")[0]
        totals[f"{module}.self_s"] = totals.get(f"{module}.self_s", 0.0) + entry["self_s"]
    metrics = {}
    for metric in LAYER_METRICS:
        func, _, stat = metric.rpartition(".")
        if metric == "trace.overhead_s":
            value = overhead_s
        elif metric == "trace.spans":
            value = spans
        elif "." not in func:
            value = totals.get(metric, 0.0)
        else:
            value = layers.get(func, {}).get(stat, 0)
        metrics[metric] = {"value": value, "unit": UNITS[stat]}
    return metrics


def measure(w: Workload, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(result, info): the result JSON and the record printed before it."""
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    info: dict = {"workload": w.name, "seed": seed, "seconds": seconds, "trace": trace}
    if not trace:
        info["setup_s_samples"] = setup_seconds()
    with tempfile.TemporaryDirectory(dir=tmp_root) as work:
        t0 = time.perf_counter()
        inputs = write_inputs(w, seed, work)
        info["generate_s"] = time.perf_counter() - t0
        params = {
            "workload": vars(w),
            "inputs": inputs,
            "work_dir": work,
            "seconds": seconds,
            "trace": trace,
            "trace_path": os.path.join(ROOT, ".bench_out", f"trace-{w.name}.json"),
        }
        if trace:
            os.makedirs(os.path.dirname(params["trace_path"]), exist_ok=True)
        params_path = os.path.join(work, "params.json")
        with open(params_path, "w") as fh:
            json.dump(params, fh)
        child = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "runner.py"), params_path],
            env=_child_env(), stdout=subprocess.PIPE, text=True, check=True,
            timeout=CHILD_TIMEOUT_S,
        )
    try:
        os.rmdir(tmp_root)
    except OSError:  # another run still holds inputs there
        pass
    out = json.loads(child.stdout.strip().splitlines()[-1])

    summary = out["summary"] or {}
    info.update(
        run_s_samples=out["run_s"],
        run_s_n=len(out["run_s"]),
        traced_s_samples=out["traced_s"],
        failed_frac={"value": out["failed"] / out["attempted"], "unit": "ratio"},
        problems=out["problems"],
        digests=out["digests"],
        sweep_summary={k: summary[k] for k in ("best_f_raw", "best_f_filtered", "auc",
                                               "best_tau_raw", "best_tau_filtered")
                       if k in summary},
        machine={
            "nproc": NPROC,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": out["blas"],
            "blas_threads_requested": int(BLAS_THREADS),
        },
    )
    run_s = statistics.median(out["run_s"])
    if trace:
        overhead = statistics.median(out["traced_s"]) - run_s
        metrics = layer_metrics(out["layers"], overhead, out["spans"])
    else:
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "mpix_per_s": {"value": w.megapixels / run_s, "unit": "Mpx/s"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(info["setup_s_samples"]), "unit": "s"},
            "f_measure": {"value": out["f_measure"], "unit": "ratio"},
        }
    result = {
        "correct": out["failed"] == 0 and not out["problems"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }
    return result, info


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if os.path.dirname(os.path.abspath(dmdmotion.__file__)) != os.path.join(SRC, "dmdmotion"):
        sys.exit(f"dmdmotion imported from {dmdmotion.__file__}, not from {SRC}")
    result, info = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    print(json.dumps({"info": info}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
