"""Command-line front end.

Subcommands: synth generates a labeled test video, bgsub runs the full
detection pipeline and eval scores masks against ground truth.

Exit codes group failures by kind: 2 invalid arguments or configuration,
or too little memory for them, 3 degenerate input data, 4 file-system
problems, 5 numerical failures outside a chunk.
"""

from __future__ import annotations

import argparse
import glob
import os
import re
import sys

import numpy as np

from . import evaluation as ev
from .background import ForegroundMaskSequence
from .dmd import _parse_anchor
from .errors import DegenerateDataError
from .io_formats import load_masks, save_frames, save_masks
from .pipeline import RunConfig, render_report, run_bgsub
from .synthetic import MovingRect, SyntheticSpec, _frames

__all__ = ["main"]

EXIT_BAD_ARGS = 2
EXIT_DEGENERATE = 3
EXIT_IO = 4
EXIT_NUMERIC = 5


def _parse_rect(value: str) -> tuple:
    """MovingRect's arguments; the rectangle is built, and checked, by synth."""
    parts = value.split(",")
    if len(parts) != 7:
        raise argparse.ArgumentTypeError(
            "rect format: top,left,height,width,intensity,vy,vx"
        )
    try:
        top, left = float(parts[0]), float(parts[1])
        height, width = int(parts[2]), int(parts[3])
        intensity, vy, vx = (float(v) for v in parts[4:])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad rect {value!r}")
    return top, left, height, width, intensity, (vy, vx)


def _parse_out(value: str) -> str:
    """An output directory; an empty one would write into the working directory."""
    if not value:
        raise argparse.ArgumentTypeError("must name a directory, got an empty path")
    return value


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors reach main's one-line report; subparsers inherit it."""

    def error(self, message):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dmdmotion",
        description="Motion detection in fixed-camera video via low-rank spectral decomposition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic video plus ground truth")
    synth.add_argument("--out", required=True, type=_parse_out, help="output directory")
    synth.add_argument("--height", type=int, default=64)
    synth.add_argument("--width", type=int, default=64)
    synth.add_argument("--frames", type=int, default=200)
    synth.add_argument("--base-level", type=float, default=0.5)
    synth.add_argument("--noise", type=float, default=0.0, help="Gaussian sigma")
    synth.add_argument("--texture-amplitude", type=float, default=0.0)
    synth.add_argument("--texture-period", type=float, default=0.0)
    synth.add_argument(
        "--rect",
        action="append",
        type=_parse_rect,
        default=[],
        help="top,left,height,width,intensity,vy,vx (repeatable)",
    )
    synth.add_argument("--seed", type=int, required=True)
    synth.set_defaults(func=_cmd_synth)

    # Options left out are absent from the parsed namespace, so RunConfig
    # supplies their defaults.
    bgsub = sub.add_parser(
        "bgsub", help="full background-subtraction pipeline", argument_default=argparse.SUPPRESS
    )
    bgsub.add_argument("--frames", required=True, help="glob of PGM frames")
    bgsub.add_argument("--truth", help="glob of ground-truth mask PGMs")
    bgsub.add_argument("--out", required=True, help="output directory")
    bgsub.add_argument("--chunk-length", type=int)
    bgsub.add_argument("--k", type=int)
    bgsub.add_argument("--p", type=int)
    bgsub.add_argument("--q", type=int)
    bgsub.add_argument("--n-background", type=int)
    bgsub.add_argument("--anchor", type=_parse_anchor)
    bgsub.add_argument("--tau", type=float, help="fixed threshold; omit to sweep (needs --truth)")
    bgsub.add_argument("--median-kernel", type=int)
    bgsub.add_argument("--save-residuals", action="store_true")
    bgsub.add_argument("--seed", type=int, required=True)
    bgsub.set_defaults(func=_cmd_bgsub)

    ev_p = sub.add_parser("eval", help="score masks against ground truth")
    ev_p.add_argument("--masks", required=True, help="glob of predicted mask PGMs")
    ev_p.add_argument("--truth", required=True, help="glob of ground-truth mask PGMs")
    ev_p.add_argument("--out", help="metrics CSV path")
    ev_p.set_defaults(func=_cmd_eval)

    return parser


def _cmd_synth(args) -> int:
    spec = SyntheticSpec(
        frame_height=args.height,
        frame_width=args.width,
        n_frames=args.frames,
        base_level=args.base_level,
        texture_amplitude=args.texture_amplitude,
        texture_period=args.texture_period,
        noise_sigma=args.noise,
        objects=tuple(MovingRect(*rect) for rect in args.rect),
        seed=args.seed,
    )
    # Frames of another video left there would splice into this one.
    for sub in ("frames", "truth"):
        path = os.path.join(args.out, sub)
        if os.path.isdir(path) and os.listdir(path):
            raise ValueError(f"{path} already holds files")
    # Frames are written as drawn; each one's truth goes to truth[t], the only part kept.
    truth = np.empty((spec.n_frames, spec.frame_height, spec.frame_width), dtype=bool)
    frames = (frame for t, (frame, truth[t]) in enumerate(_frames(spec)))
    frame_paths = save_frames(os.path.join(args.out, "frames"), frames)
    mask_paths = save_masks(os.path.join(args.out, "truth"), ForegroundMaskSequence(truth))
    print(f"wrote {len(frame_paths)} frames and {len(mask_paths)} truth masks to {args.out}")
    return 0


def _cmd_bgsub(args) -> int:
    opts = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out")}
    cfg = RunConfig(output_dir=args.out, **opts)
    report = run_bgsub(cfg)
    sys.stdout.write(render_report(report))
    if report.masks is None:
        if any(c.ok for c in report.chunks):
            raise DegenerateDataError(
                "the chunks that ran hold only one truth class, so the sweep has no curve; "
                "see the report")
        raise DegenerateDataError("every chunk failed; see the report for diagnostics")
    return 0


def _cmd_eval(args) -> int:
    # The truth pairs with the masks by frame number, as with a run's frames.
    c = ev.confusion(load_masks(args.masks), load_masks(args.truth, sorted(glob.glob(args.masks))))
    rates = ev.rates(c)
    print(
        f"tp={c.tp} fp={c.fp} tn={c.tn} fn={c.fn} "
        f"recall={rates['recall']:.6f} precision={rates['precision']:.6f} "
        f"specificity={rates['specificity']:.6f} f_measure={rates['f_measure']:.6f}"
    )
    if 0 in (c.tp + c.fn, c.tp + c.fp, c.tn + c.fp):
        print("note: at least one rate had a zero denominator and was reported as 0")
    if args.out:
        ev.write_metrics_csv(args.out, [float("nan")], [[c.tp, c.fp, c.tn, c.fn]])
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads the "-1,..." of "--rect -1,..." as an option; pass "--rect=-1,...".
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--rect" and re.match(r"-\.?\d", argv[i + 1]):
            argv[i : i + 2] = [f"--rect={argv[i + 1]}"]
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except DegenerateDataError as exc:
        print(f"error (degenerate data): {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except np.linalg.LinAlgError as exc:
        print(f"error (numerical): {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error (invalid input): {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except OSError as exc:
        print(f"error (file system): {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"error (out of memory): {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS


if __name__ == "__main__":
    sys.exit(main())
