"""Per-stage timings of run_bgsub on a benchmark workload, read from timings.csv.

Writes the workload's seeded frames with perfbench/workloads.py in one
short-lived child process, then runs one warm-up call and C timed calls of
run_bgsub on them in a second, each with an output directory that is
removed after the call. Linux carries a process's peak RSS across exec, so
the calls' child starts from this small process, not from the one that
rendered the video.
Prints the median and quartiles of every stage of the timed calls'
timings.csv total rows and of the whole calls, frames per second at the
median call, and the child's ru_maxrss after the warm-up call. The last
stdout line is the same as JSON.

Usage, from the repository root:

    python scripts/stage_bench.py --workload sweep|fixed|kernel --seed N --calls C

Every workload writes its outputs here, kernel included, since timings.csv
is one of them. BLAS threads default to min(2, nproc), as in perfbench.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, os.path.join(ROOT, "perfbench")]

def _child(params: dict) -> None:
    """Write the inputs, or run the warm-up and the calls.

    The calls print one JSON line each: call seconds, and the seconds of
    every stage that timings.csv has a *_seconds column for.
    """
    import resource

    from dmdmotion.pipeline import RunConfig, run_bgsub
    from workloads import Workload, write_inputs

    if "workload" in params:
        print(json.dumps(write_inputs(Workload(**params["workload"]), params["seed"],
                                      params["directory"])))
        return
    out = params["output_dir"]
    for i in range(params["calls"] + 1):
        cfg = RunConfig(frames=params["frames"], truth=params["truth"], output_dir=out,
                        **params["run"])
        t0 = time.perf_counter()
        run_bgsub(cfg)
        record = {"call": time.perf_counter() - t0}
        with open(os.path.join(out, "timings.csv")) as fh:
            total = [row for row in csv.DictReader(fh) if row["chunk"] == "total"][0]
        record["stages"] = {name.removesuffix("_seconds"): float(value)
                            for name, value in total.items() if name.endswith("_seconds")}
        if i == 0:
            record["ru_maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        shutil.rmtree(out)
        print(json.dumps(record), flush=True)


def _summary(samples: list[float]) -> dict[str, float]:
    if len(samples) == 1:
        q1 = q3 = samples[0]
    else:
        q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": statistics.median(samples), "q1": q1, "q3": q3}


def measure(workload, seed: int, calls: int) -> dict:
    """Stage and call summaries of `calls` calls on one perfbench Workload."""
    if calls < 1:
        raise ValueError(f"calls must be >= 1, got {calls}")
    env = dict(os.environ, PYTHONPATH=SRC)
    threads = str(min(2, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, threads)

    def child(params: dict) -> str:
        run = subprocess.run([sys.executable, os.path.abspath(__file__), "--child",
                              json.dumps(params)], env=env, capture_output=True, text=True)
        if run.returncode != 0:
            raise RuntimeError(f"child process failed:\n{run.stderr}")
        return run.stdout

    with tempfile.TemporaryDirectory(prefix="stage_bench_") as work:
        inputs = json.loads(child({"workload": asdict(workload), "seed": seed,
                                   "directory": os.path.join(work, "inputs")}))
        lines = child({"frames": inputs["frames"], "truth": inputs["truth"], "run": workload.run,
                       "output_dir": os.path.join(work, "out"), "calls": calls})
    warm_up, *records = [json.loads(line) for line in lines.splitlines()]
    call = _summary([r["call"] for r in records])
    return {
        "workload": workload.name,
        "seed": seed,
        "calls": calls,
        "blas_threads": env["OPENBLAS_NUM_THREADS"],
        "stages": {stage: _summary([r["stages"][stage] for r in records])
                   for stage in records[0]["stages"]},
        "call": call,
        "frames_per_s": workload.n_frames / call["median"],
        "ru_maxrss_mb": warm_up["ru_maxrss_mb"],
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("sweep", "fixed", "kernel"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--calls", type=int, default=5)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        _child(json.loads(args.child))
        return
    if args.workload is None:
        parser.error("--workload is required")
    from workloads import WORKLOADS

    result = measure(WORKLOADS[args.workload], args.seed, args.calls)
    print(f"{args.workload}, seed {args.seed}, {args.calls} calls, "
          f"{result['blas_threads']} BLAS threads: median [q1, q3] seconds")
    for name, s in [*result["stages"].items(), ("call", result["call"])]:
        print(f"  {name:<10s} {s['median']:.4f} [{s['q1']:.4f}, {s['q3']:.4f}]")
    print(f"  frames/s   {result['frames_per_s']:.1f}")
    print(f"  ru_maxrss  {result['ru_maxrss_mb']:.1f} MB after the warm-up call")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
