"""Timed run_bgsub calls in a fresh process that did not generate the inputs.

Usage: python3 perfbench/runner.py PARAMS_JSON

run.py writes PARAMS_JSON and starts this script. It imports the package,
makes one warm-up call, takes ru_maxrss as peak memory (a high-water mark,
so nothing else may have run in this process yet), then calls run_bgsub in
a closed loop, one call after another, until the measuring window has
passed. With tracing on, untraced and traced calls alternate. Every call is
checked; the last stdout line is a JSON summary.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import json
import os
import resource
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from dmdmotion import pipeline  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Workload, run_config  # noqa: E402


def f_measure(masks: np.ndarray, truth: np.ndarray) -> float:
    """F of pooled pixel counts, computed here rather than by the package."""
    tp = np.count_nonzero(masks & truth)
    fp = np.count_nonzero(masks & ~truth)
    fn = np.count_nonzero(~masks & truth)
    r = tp / (tp + fn) if tp + fn else 0.0
    p = tp / (tp + fp) if tp + fp else 0.0
    return 2.0 * r * p / (r + p) if r + p else 0.0


def tree_digest(directory: str) -> str:
    """sha256 over every output file's path and bytes, timings.csv excepted."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(files):
            if name == "timings.csv":  # wall-clock, differs on every run
                continue
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, directory).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def inspect_report(w: Workload, report, out_dir: str | None, truth: np.ndarray) -> dict:
    """Digests, F and the problems that make this call a failed run."""
    problems = [f"chunk {c.index} failed: {c.error}" for c in report.chunks if not c.ok]
    shape = (w.n_frames, w.height, w.width)
    if report.masks is None or report.masks.masks.shape != shape:
        got = None if report.masks is None else report.masks.masks.shape
        return {"problems": problems + [f"masks have shape {got}, expected {shape}"]}
    masks = report.masks.masks
    f = f_measure(masks, truth)
    if f < w.f_floor:
        problems.append(f"F {f:.4f} below floor {w.f_floor}")
    summary = report.summary or {}
    if w.truth_to_program and abs(summary.get("f_measure", -1.0) - f) > 1e-12:
        problems.append(f"summary F {summary.get('f_measure')} disagrees with masks F {f}")
    if out_dir is not None:
        with open(os.path.join(out_dir, "report.txt"), "rb") as fh:
            report_txt = fh.read()
    else:
        report_txt = pipeline.render_report(report).encode()
    return {
        "problems": problems,
        "f_measure": f,
        "summary": summary,
        "digests": {
            "masks": hashlib.sha256(np.ascontiguousarray(masks).tobytes()).hexdigest(),
            "report_txt": hashlib.sha256(report_txt).hexdigest(),
            "outputs": tree_digest(out_dir) if out_dir is not None else None,
        },
    }


def blas_info() -> dict:
    """OpenBLAS version and thread count, queried from the library numpy loaded."""
    info = {"library": None, "config": None, "threads": None}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                       and line.split()[-1].startswith("/")})
    if not libs:
        return info
    lib = ctypes.CDLL(libs[0])
    info["library"] = os.path.basename(libs[0])
    for suffix in ("", "64_"):
        for prefix in ("openblas_", "scipy_openblas_"):
            config = getattr(lib, f"{prefix}get_config{suffix}", None)
            threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.restype = ctypes.c_char_p
                info["config"] = config().decode()
                info["threads"] = int(threads())
                return info
    return info


def main(params_path: str) -> None:
    with open(params_path) as fh:
        params = json.load(fh)
    w = Workload(**params["workload"])
    inputs, work, trace = params["inputs"], params["work_dir"], params["trace"]

    def call(i: int, tracer: Tracer | None = None):
        out_dir = os.path.join(work, f"out_{i}") if w.write_outputs else None
        cfg = run_config(w, inputs, out_dir)
        t0 = time.perf_counter()
        try:
            with tracer or contextlib.nullcontext():
                report = pipeline.run_bgsub(cfg)
        except Exception as exc:  # a raising call is a failed run, not a crash
            return time.perf_counter() - t0, None, out_dir, f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - t0, report, out_dir, None

    problems: list[str] = []
    calls = {"attempted": 0, "failed": 0}
    first = None
    truth = None

    def check(report, out_dir, error) -> None:
        nonlocal first
        calls["attempted"] += 1
        label = f"call {calls['attempted']}"
        found = [f"raised {error}"] if error is not None else []
        if report is not None:
            result = inspect_report(w, report, out_dir, truth)
            found += result["problems"]
            if first is None:
                first = result
            elif result.get("digests") != first.get("digests"):
                found.append("output digests differ from the first call")
        if out_dir is not None:
            shutil.rmtree(out_dir, ignore_errors=True)
        calls["failed"] += bool(found)
        problems.extend(f"{label}: {p}" for p in found)

    _, report, out_dir, error = call(0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    truth = np.load(inputs["truth_npy"])
    check(report, out_dir, error)
    del report

    run_s: list[float] = []
    traced_s: list[float] = []
    layer_runs: list[dict] = []
    last_tracer = None
    start = time.perf_counter()
    while True:
        tracer = Tracer() if trace and len(traced_s) < len(run_s) else None
        elapsed, report, out_dir, error = call(calls["attempted"], tracer)
        check(report, out_dir, error)
        del report
        if tracer is None:
            run_s.append(elapsed)
        else:
            traced_s.append(elapsed)
            layer_runs.append(tracer.stats())
            last_tracer = tracer
        if time.perf_counter() - start >= params["seconds"] and (traced_s or not trace):
            break

    layers = {}
    if trace:
        shapes = [{k: (v["calls"], v["out_mb"]) for k, v in run.items()} for run in layer_runs]
        if any(s != shapes[0] for s in shapes):
            problems.append("call counts or output sizes differ between traced calls")
        for name, entry in layer_runs[0].items():
            layers[name] = dict(
                entry, self_s=float(np.median([run[name]["self_s"] for run in layer_runs]))
            )
        last_tracer.write(params["trace_path"])
    print(json.dumps({
        "attempted": calls["attempted"],
        "failed": calls["failed"],
        "problems": problems,
        "run_s": run_s,
        "traced_s": traced_s,
        "peak_rss_mb": peak_rss_mb,
        "f_measure": first["f_measure"] if first else None,
        "summary": first["summary"] if first else None,
        "digests": first["digests"] if first else None,
        "layers": layers,
        "spans": len(last_tracer.names) if last_tracer else 0,
        "blas": blas_info(),
    }))


if __name__ == "__main__":
    main(sys.argv[1])
