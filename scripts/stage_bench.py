"""Per-stage timings of run_bgsub on a benchmark workload, read from timings.csv.

Writes the workload's seeded frames in one short-lived child process (a
run without truth saves each frame as it is drawn), then runs one warm-up
call and C timed calls of run_bgsub on them in a second, each with an output
directory that is removed after the call. Linux carries a process's peak RSS
across exec, so the calls' child starts from this small process, not from
the one that wrote the video.
Prints the median and quartiles of every stage of the timed calls'
timings.csv total rows, of the whole calls and of each call's minor page
faults (its ru_minflt delta in the child), frames per second at the median
call against the 30 of real-time video, and the child's ru_maxrss after the
warm-up call. The last stdout line is the same as JSON.

Usage, from the repository root:

    python scripts/stage_bench.py --workload sweep|fixed|kernel|hd --seed N --calls C

sweep, fixed and kernel are perfbench/workloads.py's; hd is 720p video at a
fixed tau with every output written (HD below). Every workload writes its
outputs here, kernel included, since timings.csv is one of them. BLAS
threads default to min(2, nproc), as in perfbench.
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

from dmdmotion.io_formats import save_frames  # noqa: E402
from dmdmotion.synthetic import _frames  # noqa: E402
from workloads import WORKLOADS, Workload, synthetic_spec, write_inputs  # noqa: E402

# One 120x160 rectangle crossing 1280x720 frames, 300 of them in chunks of
# 100 at a fixed tau, every output written: the paper's real-time case.
HD = Workload(name="hd", height=720, width=1280, n_frames=300, rect_size=(120, 160),
              intensities=(0.85,), noise_sigma=0.03, truth_to_program=False,
              write_outputs=True, f_floor=0.3, run={"tau": 0.18, "chunk_length": 100})
REAL_TIME_FPS = 30


def _child(params: dict) -> None:
    """Write the inputs, or run the warm-up and the calls.

    The calls print one JSON line each: call seconds, minor page faults,
    and the seconds of every stage that timings.csv has a *_seconds column
    for.
    """
    import resource

    from dmdmotion.pipeline import RunConfig, run_bgsub

    if "workload" in params:
        # write_inputs holds the whole video and its truth, which only a
        # run with truth needs.
        workload, directory = Workload(**params["workload"]), params["directory"]
        if workload.truth_to_program:
            inputs = write_inputs(workload, params["seed"], directory)
        else:
            spec = synthetic_spec(workload, params["seed"])
            save_frames(os.path.join(directory, "frames"), (frame for frame, _ in _frames(spec)))
            inputs = {"frames": os.path.join(directory, "frames", "*.pgm"), "truth": None}
        print(json.dumps(inputs))
        return
    out = params["output_dir"]
    for i in range(params["calls"] + 1):
        cfg = RunConfig(frames=params["frames"], truth=params["truth"], output_dir=out,
                        **params["run"])
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        run_bgsub(cfg)
        record = {"call": time.perf_counter() - t0,
                  "minflt": resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults}
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
        "minflt": _summary([r["minflt"] for r in records]),
        "frames_per_s": workload.n_frames / call["median"],
        "ru_maxrss_mb": warm_up["ru_maxrss_mb"],
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("sweep", "fixed", "kernel", HD.name))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--calls", type=int, default=5)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        _child(json.loads(args.child))
        return
    if args.workload is None:
        parser.error("--workload is required")
    result = measure({**WORKLOADS, HD.name: HD}[args.workload], args.seed, args.calls)
    print(f"{args.workload}, seed {args.seed}, {args.calls} calls, "
          f"{result['blas_threads']} BLAS threads: median [q1, q3] seconds")
    for name, s in [*result["stages"].items(), ("call", result["call"])]:
        print(f"  {name:<10s} {s['median']:.4f} [{s['q1']:.4f}, {s['q3']:.4f}]")
    faults = result["minflt"]
    print(f"  minflt     {faults['median']:.0f} [{faults['q1']:.0f}, {faults['q3']:.0f}] "
          "minor page faults per call")
    print(f"  frames/s   {result['frames_per_s']:.1f} against {REAL_TIME_FPS} for real time")
    print(f"  ru_maxrss  {result['ru_maxrss_mb']:.1f} MB after the warm-up call")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
