"""Binary matrix containers, PGM frame I/O, and decomposition persistence.

Matrices travel in a minimal binary container: an 8-byte magic tag, row and
column counts as little-endian unsigned 64-bit, then the entries row-major as
little-endian float64. Real data uses the tag RDMDMAT1; complex data uses
RDMDCPX1 with interleaved (real, imag) pairs.

Frames are binary PGM (P5), 8-bit or 16-bit big-endian per the PNM spec,
normalized to [0, 1] by maxval on load. Masks are P5 with values 0/255 only.
"""

from __future__ import annotations

import glob
import os
import re
import struct
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .background import ForegroundMaskSequence
from .dmd import DmdDecomposition, SnapshotMatrix, _parse_anchor

__all__ = [
    "MAGIC_REAL",
    "MAGIC_COMPLEX",
    "save_matrix",
    "load_matrix",
    "save_pgm",
    "load_pgm",
    "FrameFiles",
    "scan_frames",
    "save_frames",
    "save_masks",
    "load_masks",
    "save_decomposition",
    "load_decomposition",
]

MAGIC_REAL = b"RDMDMAT1"
MAGIC_COMPLEX = b"RDMDCPX1"
# Entry type per container; "<c16" is the (real, imag) float64 pair.
_ENTRY = {MAGIC_REAL: np.dtype("<f8"), MAGIC_COMPLEX: np.dtype("<c16")}

# The four tokens of a PGM header: whitespace separates them, and '#' starts
# a comment that runs to the end of its line. The lookaheads keep a token or
# a comment from matching only part of itself.
_PGM_SEP = rb"(?:[ \t\r\n]|#[^\n]*(?=\n|\Z))*"
_PGM_TOKEN = rb"([^ \t\r\n#]+)(?![^ \t\r\n#])"
_PGM_HEADER = re.compile((_PGM_SEP + _PGM_TOKEN) * 4)
# Bytes that scan_frames reads for a header; a longer one is read whole.
_PGM_HEAD = 4096

_MANIFEST = "manifest.txt"
# The integer manifest lines, then every line a decomposition needs.
_MANIFEST_COUNTS = ("rank", "n_frames", "frame_height", "frame_width", "seed")
_MANIFEST_KEYS = (*_MANIFEST_COUNTS, "anchor")


def save_matrix(path: str, A: np.ndarray) -> None:
    """Write a 2-d array; complex dtype picks the interleaved container."""
    A = np.asarray(A)
    if A.ndim != 2:
        raise ValueError(f"matrix container stores 2-d arrays, got shape {A.shape}")
    rows, cols = A.shape
    magic = MAGIC_COMPLEX if np.iscomplexobj(A) else MAGIC_REAL
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<QQ", rows, cols))
        # The array's own buffer: a C-ordered array of the entry type is
        # written without a copy.
        fh.write(np.ascontiguousarray(A, dtype=_ENTRY[magic]).data)


def load_matrix(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic not in _ENTRY:
            raise ValueError(f"{path}: unrecognized matrix container magic {magic!r}")
        rows, cols = struct.unpack("<QQ", fh.read(16))
        entry = _ENTRY[magic]
        body = fh.read(rows * cols * entry.itemsize)
    if len(body) != rows * cols * entry.itemsize:
        raise ValueError(f"{path}: truncated matrix body")
    return np.frombuffer(body, dtype=entry).reshape(rows, cols).copy()


def _read_pgm(
    path: str, check_only: bool = False
) -> tuple[tuple[int, int], int, np.ndarray | None]:
    """((height, width), maxval, raster) of a checked P5 file.

    16-bit rasters are big-endian. The raster's length is checked against
    the file size, and only a maxval below its type's largest value can be
    exceeded, so only then is the raster scanned for a pixel above it.
    check_only reads the header and, for that scan only, the raster; it
    returns None for a raster that it did not read.
    """
    with open(path, "rb", buffering=0) as fh:
        size = os.fstat(fh.fileno()).st_size
        data = fh.read(_PGM_HEAD) if check_only else fh.readall()
        header = _PGM_HEADER.match(data)
        # A header that reaches the last byte read may have lost the rest of
        # its last token, or the separator after it, to the read's end.
        if header is None or header.end() >= len(data):
            data += fh.readall()
            header = _PGM_HEADER.match(data)
        if header is None:
            raise ValueError(f"{path}: truncated PGM header")
        magic, *numbers = header.groups()
        if magic != b"P5":
            raise ValueError(f"{path}: expected binary grayscale PGM (P5), got {magic!r}")
        # Netpbm numbers are ASCII decimal digits: no sign, no underscore.
        if not all(t.isdigit() for t in numbers):
            raise ValueError(f"{path}: invalid PGM header")
        width, height, maxval = (int(t) for t in numbers)
        if width < 1 or height < 1 or not 1 <= maxval <= 65535:
            raise ValueError(f"{path}: invalid PGM dimensions or maxval")
        # Exactly one whitespace byte separates maxval from the raster.
        offset = header.end() + 1
        wide = maxval > 255
        nbytes = width * height * (2 if wide else 1)
        if max(size, len(data)) - offset < nbytes:
            raise ValueError(f"{path}: truncated PGM raster")
        bounded = maxval < (65535 if wide else 255)
        if check_only and not bounded:
            return (height, width), maxval, None
        if len(data) < offset + nbytes:
            data += fh.readall()
    raster = np.frombuffer(data, dtype=">u2" if wide else np.uint8, count=width * height,
                           offset=offset).reshape(height, width)
    if bounded and raster.max(initial=0) > maxval:
        raise ValueError(f"{path}: pixel value exceeds maxval {maxval}")
    return (height, width), maxval, raster


def load_pgm(path: str) -> tuple[np.ndarray, int]:
    """(image array (height, width), maxval); 16-bit rasters are big-endian."""
    _, maxval, raster = _read_pgm(path)
    return raster.astype(np.uint16 if maxval > 255 else np.uint8), maxval


def save_pgm(path: str, img: np.ndarray, maxval: int = 255) -> None:
    img = np.asarray(img)
    if img.ndim != 2:
        raise ValueError("PGM stores single 2-d frames")
    if not 1 <= maxval <= 65535:
        raise ValueError(f"maxval {maxval} outside [1, 65535]")
    if img.min(initial=0) < 0 or img.max(initial=0) > maxval:
        raise ValueError("pixel values outside [0, maxval]")
    height, width = img.shape
    dtype = ">u2" if maxval > 255 else np.uint8
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n{maxval}\n".encode("ascii"))
        fh.write(img.astype(dtype).tobytes())


@dataclass(frozen=True)
class FrameFiles:
    """PGM frames that scan_frames has checked, in the order of paths, read a chunk at a time."""

    paths: tuple[str, ...]
    frame_height: int
    frame_width: int

    @property
    def n_frames(self) -> int:
        return len(self.paths)

    def _fill(self, start: int, stop: int, data: np.ndarray, rows) -> tuple | None:
        """Frames [start, stop) into data, a C-contiguous (m, n) matrix, each over its maxval.

        An 8-bit frame goes through its row of rows(n), (n, m) uint8 rasters,
        which are returned with the maxval when every frame is 8-bit with one
        maxval; a 16-bit one is cast into its column. Each run of one maxval
        is divided in place, so each entry is float64(x) / float64(maxval).
        """
        paths = self.paths[start:stop]
        n = len(paths)
        geometry = (self.frame_height, self.frame_width)
        maxvals = []
        for j, p in enumerate(paths):
            shape, maxval, img = _read_pgm(p)
            if shape != geometry:
                raise ValueError(f"{p}: frame geometry {shape} differs from first frame {geometry}")
            if maxval > 255:
                data[:, j] = img.reshape(-1)
            else:
                rows(n)[j] = img.reshape(-1)
            maxvals.append(maxval)
        run = 0  # the first frame of the run of equal maxval
        for j in range(1, n + 1):
            if j == n or maxvals[j] != maxvals[run]:
                if maxvals[run] <= 255:
                    data[:, run:j] = rows(n)[run:j].T
                data[:, run:j] /= maxvals[run]
                run = j
        if maxvals[0] <= 255 and len(set(maxvals)) == 1:
            return rows(n), maxvals[0]
        return None


def scan_frames(pattern: str) -> FrameFiles:
    """Check every PGM file matching a glob pattern without keeping its raster.

    Files are taken in lexicographic order. Each header is parsed and each
    raster's length checked against the file size, and a raster whose
    maxval is below its type's largest value is scanned for a pixel above
    it; every frame must share the first frame's geometry.
    """
    paths = sorted(glob.glob(pattern))
    if len(paths) < 2:
        raise ValueError(f"need at least 2 frames, pattern {pattern!r} matched {len(paths)}")
    geometry = None
    for p in paths:
        shape = _read_pgm(p, check_only=True)[0]
        if geometry is None:
            geometry = shape
        elif shape != geometry:
            raise ValueError(f"{p}: frame geometry {shape} differs from first frame {geometry}")
    return FrameFiles(tuple(paths), *geometry)


def save_frames(directory: str, frames, maxval: int = 255) -> list[str]:
    """Quantize each frame to [0, maxval] and write numbered PGM files.

    frames is a SnapshotMatrix or an iterable of (height, width) frames, each
    checked finite and in [0, 1] and written as it arrives; the first makes the directory.
    """
    if isinstance(frames, SnapshotMatrix):
        frames = map(frames.frame, range(frames.n_frames))
    paths = []
    for t, frame in enumerate(frames):
        # NaN fails both comparisons.
        if not (frame.min() >= 0.0 and frame.max() <= 1.0):
            raise ValueError(f"frame {t} holds a value that is not finite or outside [0, 1]")
        if not paths:
            os.makedirs(directory, exist_ok=True)
        img = np.rint(frame * maxval).astype(np.uint32)
        path = os.path.join(directory, f"frame_{t:05d}.pgm")
        save_pgm(path, img, maxval)
        paths.append(path)
    return paths


def save_masks(
    directory: str,
    seq: ForegroundMaskSequence,
    stems: list[str] | None = None,
) -> list[str]:
    """One P5 file per mask frame, foreground 255, background 0.

    stems, when given, name the files 1:1 after the input frames. Each file
    is save_pgm's bytes, written from one buffer that holds the header and
    is reused for every frame's raster.
    """
    if stems is not None and len(stems) != seq.n_frames:
        raise ValueError(f"{len(stems)} stems for {seq.n_frames} mask frames")
    os.makedirs(directory, exist_ok=True)
    _, height, width = seq.masks.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    buf = bytearray(len(header) + height * width)
    buf[: len(header)] = header
    raster = np.frombuffer(buf, dtype=np.uint8, offset=len(header)).reshape(height, width)
    paths = []
    for t in range(seq.n_frames):
        stem = stems[t] if stems is not None else f"mask_{t:05d}"
        path = os.path.join(directory, f"{stem}.pgm")
        np.multiply(seq.masks[t].view(np.uint8), 255, out=raster)
        with open(path, "wb") as fh:
            fh.write(buf)
        paths.append(path)
    return paths


def _frame_number(path: str) -> int | None:
    """The last run of digits in a file's name, without its extension, if any."""
    digits = re.findall(r"\d+", os.path.splitext(os.path.basename(path))[0])
    return int(digits[-1]) if digits else None


def load_masks(pattern: str, frames: Sequence[str] | None = None) -> ForegroundMaskSequence:
    """The masks of the PGM files matching a glob pattern, in sorted order.

    A pixel of maxval is foreground and one of 0 background; a ValueError
    names the file and the first pixel that is neither. frames, when given,
    are the files that the masks score, in order, and pair with the masks by
    position. When every name of both holds digits, the last run of digits
    of each must be the same number pair by pair, so that mask t scores
    frame t; a ValueError names the first pair that differs before any
    raster is read. Names without digits pair by position alone.
    """
    paths = sorted(glob.glob(pattern))
    if not paths:
        raise ValueError(f"mask pattern {pattern!r} matched no files")
    if frames is not None:
        theirs, ours = [_frame_number(f) for f in frames], [_frame_number(p) for p in paths]
        if None not in theirs + ours:
            for frame, path, a, b in zip(frames, paths, theirs, ours):
                if a != b:
                    raise ValueError(f"mask {path} (number {b}) is paired with {frame} "
                                     f"(number {a})")
    masks = None
    for t, p in enumerate(paths):
        img, maxval = load_pgm(p)
        if masks is None:
            masks = np.empty((len(paths), *img.shape), dtype=bool)
        elif img.shape != masks.shape[1:]:
            raise ValueError(
                f"{p}: mask geometry {img.shape} differs from first mask {masks.shape[1:]}"
            )
        # Every nonzero pixel equals maxval iff the two counts agree.
        np.equal(img, maxval, out=masks[t])
        if np.count_nonzero(img) != np.count_nonzero(masks[t]):
            value = img[(img != 0) & (img != maxval)][0]
            raise ValueError(f"{p}: mask pixel {value} is neither 0 nor maxval {maxval}")
    return ForegroundMaskSequence(masks=masks, tau=None)


def save_decomposition(directory: str, dec: DmdDecomposition) -> None:
    """Persist a decomposition as matrix containers plus a text manifest."""
    os.makedirs(directory, exist_ok=True)
    lines = [
        "format rdmd-decomposition-1",
        f"rank {dec.rank}",
        f"n_frames {dec.n_frames}",
        "dt 1.0",
        f"frame_height {dec.frame_height}",
        f"frame_width {dec.frame_width}",
        f"anchor {dec.anchor}",
        f"seed {dec.seed}",
    ]
    with open(os.path.join(directory, _MANIFEST), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    save_matrix(os.path.join(directory, "modes.cpx"), dec.modes)
    save_matrix(os.path.join(directory, "eigenvalues.cpx"), dec.eigenvalues[:, None])
    save_matrix(os.path.join(directory, "amplitudes.cpx"), dec.amplitudes[:, None])


def load_decomposition(directory: str) -> DmdDecomposition:
    fields: dict[str, str] = {}
    with open(os.path.join(directory, _MANIFEST)) as fh:
        for line in fh:
            line = line.strip()
            if line:
                key, _, value = line.partition(" ")
                fields[key] = value
    if fields.get("format") != "rdmd-decomposition-1":
        raise ValueError(f"{directory}: unrecognized manifest format {fields.get('format')!r}")
    if "spans" in fields:
        # Loading only the whole-sequence amplitudes would silently change what
        # a decomposition with per-span amplitudes reconstructs.
        raise ValueError(f"{directory}: per-span amplitudes are not supported")
    if fields.get("dt") != "1.0":
        raise ValueError(f"{directory}: frames must be one step apart, got dt {fields.get('dt')}")
    missing = [key for key in _MANIFEST_KEYS if key not in fields]
    if missing:
        raise ValueError(f"{directory}: manifest has no {', '.join(missing)} line")
    counts = {}
    for key in _MANIFEST_COUNTS:
        try:
            counts[key] = int(fields[key])
        except ValueError:
            raise ValueError(f"{directory}: manifest {key} {fields[key]!r} is not an integer")
    modes = load_matrix(os.path.join(directory, "modes.cpx"))
    eigenvalues = load_matrix(os.path.join(directory, "eigenvalues.cpx")).ravel()
    amplitudes = load_matrix(os.path.join(directory, "amplitudes.cpx")).ravel()
    rank = counts.pop("rank")
    if rank != eigenvalues.size:
        raise ValueError(f"{directory}: manifest rank {rank} but {eigenvalues.size} eigenvalues")
    try:
        return DmdDecomposition(modes=modes, eigenvalues=eigenvalues, amplitudes=amplitudes,
                                anchor=_parse_anchor(fields["anchor"]), **counts)
    except ValueError as exc:
        raise ValueError(f"{directory}: {exc}") from None
